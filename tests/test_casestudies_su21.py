"""Tests for the rank-one complex case study: null pair, graded halves,
para-complex structure, bracket tables, and the induced Einstein metric."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nullcone.casestudies import (
    SQRT3,
    b_diag,
    b_group,
    su21_ad_action,
    su21_bracket_table,
    su21_build,
    su21_constant_type,
    su21_invariants,
    su21_nabla_J,
    v_minus,
    v_plus,
)
from nullcone.linalg import bracket
from nullcone.reductive import einstein_fit, torsion_eval
from nullcone.orbits import stabilizer_of_ray, make_null_vector


@pytest.fixture(scope="module")
def data():
    return su21_build()


def lstsq_J(data, X):
    """Reference para-complex structure: least-squares coordinates in
    n_basis, summed term by term with the signs of the two halves."""
    c = data.n_space.coords(X)
    out = np.zeros((3, 3), dtype=complex)
    for i in range(3):
        out += c[i] * data.n_basis[i]
    for i in range(3, 6):
        out -= c[i] * data.n_basis[i]
    return out


def test_J_matches_the_least_squares_reference(data):
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = data.n_space.random_element(rng)
        y = data.n_space.random_element(rng)
        assert_allclose(data.J(x), lstsq_J(data, x), rtol=0, atol=1e-12)
        t = torsion_eval(data.split, x, y)
        assert_allclose(data.J(t), lstsq_J(data, t), rtol=0, atol=1e-12)
    X = data.n_space.random_element(rng, size=4)
    assert_allclose(data.J(X), np.stack([lstsq_J(data, x) for x in X]), rtol=0, atol=1e-12)


def test_base_point_spectrum(data):
    w = np.sort_complex(np.linalg.eigvals(data.S))
    want = np.sort_complex(np.array([1 + 1j * SQRT3, -2.0, 1 - 1j * SQRT3]))
    assert_allclose(w, want, atol=1e-12)
    assert data.pair.m.residual(data.S) < 1e-12
    assert abs(np.trace(data.S)) < 1e-12


def test_stabilizer_is_two_dimensional(data):
    st = stabilizer_of_ray(data.pair, make_null_vector(data.pair, data.S))
    assert st.dims.tolist() == [2]
    assert st.subspace(data.pair, 0).equals(data.split.b)


def test_scaling_the_base_point(data):
    scaled = su21_build(a=2.0)
    assert_allclose(scaled.S, 2.0 * data.S, atol=1e-12)
    with pytest.raises(ValueError):
        su21_build(a=0.0)


def test_invariant_report(data):
    rep = su21_invariants(data)
    assert rep.ok, rep.failures()


def test_bracket_table_report(data):
    rep = su21_bracket_table(data, trials=50, rng=0)
    assert rep.ok, rep.failures()


def test_ad_action_report(data):
    rep = su21_ad_action(data, trials=10, rng=0)
    assert rep.ok, rep.failures()


def test_explicit_mixed_bracket(data):
    # [v_plus(1,0), v_minus(1,0)] lands on the diagonal
    got = bracket(v_plus(1.0, 0.0), v_minus(1.0, 0.0))
    assert_allclose(got, np.diag([-1.0, 0.0, 1.0]).astype(complex), atol=1e-12)


def test_group_element_normalization():
    g = b_group(0.0, 1.0)
    assert_allclose(g, np.eye(3), atol=1e-12)
    h = b_group(0.3, 2.0)
    assert abs(np.linalg.det(h) - 1.0) < 1e-12


def test_para_complex_squares_to_identity(data):
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = data.n_space.random_element(rng)
        assert_allclose(data.J(data.J(x)), x, atol=1e-10)
        # J swaps nothing across the halves: eigenvectors are the halves
    for v in data.n_plus.basis:
        assert_allclose(data.J(v), v, atol=1e-10)
    for v in data.n_minus.basis:
        assert_allclose(data.J(v), -v, atol=1e-10)


def test_metric_is_anti_invariant_under_J(data):
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = data.n_space.random_element(rng)
        y = data.n_space.random_element(rng)
        a = data.pair.form(data.J(x), data.J(y))
        b = data.pair.form(x, y)
        assert abs(a + b) < 1e-8


def test_nabla_J_identities(data):
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = data.n_space.random_element(rng)
        y = data.n_space.random_element(rng)
        # vanishing on the diagonal
        assert np.abs(su21_nabla_J(data, x, x)).max() < 1e-9
        # anti-commutation with J
        lhs = su21_nabla_J(data, x, data.J(y))
        rhs = data.J(su21_nabla_J(data, x, y))
        assert np.abs(lhs + rhs).max() < 1e-9


def test_constant_type(data):
    lam, spread = su21_constant_type(data, trials=300, rng=3)
    assert lam == pytest.approx(0.5, abs=1e-8)
    assert spread < 1e-7


def test_einstein_constant_ties_to_type(data):
    lam_e, res = einstein_fit(data.split)
    assert lam_e == pytest.approx(2.5, abs=1e-9)
    assert res < 1e-9
    lam_t, _ = su21_constant_type(data, trials=300, rng=4)
    assert lam_e == pytest.approx(5.0 * lam_t, abs=1e-6)


def test_diagonal_stabilizer_brackets(data):
    # diagonal stabilizer elements rotate each half into itself
    X = b_diag(1.0, 0.0)
    for v in data.n_plus.basis:
        assert data.n_plus.residual(bracket(X, v)) < 1e-10
    for v in data.n_minus.basis:
        assert data.n_minus.residual(bracket(X, v)) < 1e-10
