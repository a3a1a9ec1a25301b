"""Tests for the rank-one quaternionic case study: stabilizer structure,
signed bases, Casimir, grading, duality pairing, and group embeddings."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import nullcone.casestudies as casestudies
from nullcone.casestudies import (
    B_elem,
    N_elem,
    Nhat_elem,
    hatn_isometry_map,
    n_params,
    phi_sl2,
    phi_sp1,
    sp21_action_formulas,
    sp21_build,
    sp21_duality_identity,
    sp21_embedding_check,
    sp21_grading_report,
    sp21_hatn_isometry,
    sp21_subalgebra_profiles,
)
from nullcone.linalg import (
    DEFAULT_TOL,
    QMat,
    RealSubspace,
    _kernel_cols,
    algebra_profile,
    bracket,
    quat_embed,
)
from nullcone.orbits import make_null_vector, stabilizer_of_ray
from nullcone.reductive import frame_casimir


@pytest.fixture(scope="module")
def data():
    return sp21_build()


def test_stabilizer_dimension_and_split(data):
    st = stabilizer_of_ray(data.pair, make_null_vector(data.pair, data.S))
    assert st.dims.tolist() == [9]
    assert st.subspace(data.pair, 0).equals(data.split.b)
    assert data.split.dim_n == 12


def test_signed_basis_pattern(data):
    # six -1 directions then three +1 directions
    assert list(data.eps_A) == [-1.0] * 6 + [1.0] * 3
    G = np.array([[data.pair.form(a, b) for b in data.A_basis]
                  for a in data.A_basis])
    assert_allclose(G, np.diag(data.eps_A), atol=1e-9)


def test_stabilizer_factors(data):
    # compact three-dimensional factor and a six-dimensional simple factor
    assert algebra_profile(data.b1) == (3, (0, 3, 0), 0, 3)
    assert algebra_profile(data.b2) == (6, (3, 3, 0), 0, 6)
    rep = sp21_subalgebra_profiles(data)
    assert rep.ok, rep.failures()


def test_casimir_is_six_identity(data):
    C = frame_casimir(data.split, data.A_basis, data.eps_A)
    assert_allclose(C, 6.0 * np.eye(12), atol=1e-8)


def test_action_formula_report(data):
    rep = sp21_action_formulas(data, trials=50, rng=0)
    assert rep.ok, rep.failures()


def test_duality_report(data):
    rep = sp21_duality_identity(data, trials=200, rng=1)
    assert rep.ok, rep.failures()


def test_duality_scales_with_base_point():
    data2 = sp21_build(a=2.0)
    rep = sp21_duality_identity(data2, trials=100, rng=2)
    assert rep.ok, rep.failures()
    # the ray pairing carries the square of the scale
    assert data2.pair.form(data2.S, data2.S_hat) == pytest.approx(-48.0)


def test_grading_blocks(data):
    p_minus, p_zero, p_plus = data.p_minus, data.p_zero, data.p_plus
    assert (p_minus.dim, p_zero.dim, p_plus.dim) == (12, 67, 12)
    assert (data.p_full.dim, data.p_hat.dim) == (79, 79)


def test_orthogonal_algebra_is_the_kernel_of_the_form_condition(data):
    # reference: the kernel of A -> A^T Gamma + Gamma A over all 14 x 14 matrices
    G = data.Gamma
    cols = []
    for a in range(14):
        for b in range(14):
            E = np.zeros((14, 14))
            E[a, b] = 1.0
            cols.append((E.T @ G + G @ E).ravel())
    ker = _kernel_cols(np.column_stack(cols), DEFAULT_TOL)
    ref = RealSubspace([ker[:, j].reshape(14, 14) for j in range(ker.shape[1])])
    assert data.so_space.dim == ref.dim == 91
    assert data.so_space.equals(ref)


def test_grading_report(data):
    rep = sp21_grading_report(data)
    assert rep.ok, rep.failures()
    assert [c.name for c in rep.checks] == [
        "sp21_grading_dims", "sp21_parabolic_dims", "sp21_b_inside_p0",
        "sp21_grading_brackets"]


def test_grading_bracket_relations(data):
    p_minus, p_zero, p_plus = data.p_minus, data.p_zero, data.p_plus
    rng = np.random.default_rng(3)
    for _ in range(5):
        a0 = p_zero.random_element(rng)
        ap = p_plus.random_element(rng)
        am = p_minus.random_element(rng)
        assert p_plus.residual(bracket(a0, ap)) < 1e-8
        assert p_minus.residual(bracket(a0, am)) < 1e-8
        assert np.abs(bracket(ap, p_plus.random_element(rng))).max() < 1e-8
        assert p_zero.residual(bracket(ap, am)) < 1e-8


def test_isometry_report(data):
    rep = sp21_hatn_isometry(data)
    assert rep.ok, rep.failures()


def test_isometry_map_is_linear_chart_flip(data):
    rng = np.random.default_rng(4)
    z1, z2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    x1, x2 = rng.standard_normal(2)
    y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    N = N_elem(z1, z2, x1, x2, *y)
    got = hatn_isometry_map(N)
    assert_allclose(got, Nhat_elem(z1, z2, x1, -x2, *y), atol=1e-12)
    # chart inversion recovers the parameters
    back = n_params(N)
    assert_allclose(back, np.array([z1, z2, x1, x2, *y]), atol=1e-12)


def test_embedding_report(data):
    rep = sp21_embedding_check(data, trials=10, rng=5)
    assert rep.ok, rep.failures()


def test_derivative_span_fails_for_a_wrong_sign_embedding(data, monkeypatch):
    def wrong_sign_phi_sl2(g):
        # the last diagonal entry should be conj(delta)
        al, be, ga, de = g[0, 0], g[0, 1], g[1, 0], g[1, 1]
        U = np.diag([al, 1.0, -np.conj(de)]).astype(complex)
        V = np.zeros((3, 3), dtype=complex)
        V[0, 2] = be
        V[2, 0] = -np.conj(ga)
        return quat_embed(QMat(U, V))

    monkeypatch.setattr(casestudies, "phi_sl2", wrong_sign_phi_sl2)
    rep = sp21_embedding_check(data, trials=2, rng=5)
    status = {c.name: c.status for c in rep.checks}
    assert status["sp21_embed_derivative_span"] == "fail"


def test_embeddings_commute_with_base_point(data):
    u = (1.0 + 2.0j) / np.sqrt(5.0)
    g = phi_sp1(u, 0.0)
    assert np.abs(g @ data.S - data.S @ g).max() < 1e-12
    m = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex)
    h = phi_sl2(m)
    assert np.abs(h @ data.S - data.S @ h).max() < 1e-12


def test_stabilizer_elements_from_chart(data):
    # every chart element commutes with the base point
    B = B_elem(0.5 - 0.25j, 0.75, 1.0 + 1j, -0.5j, 2.0)
    assert data.pair.h.residual(B) < 1e-10
    assert np.abs(bracket(B, data.S)).max() < 1e-10


def test_build_validation():
    with pytest.raises(ValueError):
        sp21_build(mu=0.0)
    with pytest.raises(ValueError):
        sp21_build(mu=1.0 + 1.0j)
