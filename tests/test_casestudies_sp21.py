"""Tests for the rank-one quaternionic case study: stabilizer structure,
signed bases, Casimir, grading, duality pairing, and group embeddings."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

import nullcone.casestudies as casestudies
from nullcone.casestudies import (
    B_elem,
    N_elem,
    Nhat_elem,
    duality_identity,
    grading_report,
    hatn_isometry_map,
    n_params,
    phi_sl2,
    phi_sp1,
    sp21_action_formulas,
    sp21_build,
    sp21_embedding_check,
    sp21_hatn_isometry,
    sp21_report,
    sp21_subalgebra_profiles,
)
from nullcone.linalg import (
    DEFAULT_TOL,
    QMat,
    algebra_profile,
    bracket,
    quat_embed,
)
from nullcone.orbits import stabilizers_of_rays
from nullcone.reductive import frame_casimir
from subspace_reference import orthogonal_algebra


@pytest.fixture(scope="module")
def data():
    return sp21_build()


def test_stabilizer_dimension_and_split(data):
    st = stabilizers_of_rays(data.pair, data.S[None])
    assert st.dims.tolist() == [9]
    assert st.bases[0].shape == (9, 6, 6) and np.abs(st.scales[0]).max() < 1e-12
    assert st.subspace(0).equals(data.split.b)
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
    rep = duality_identity(data, "sp21", trials=200, rng=1)
    assert rep.ok, rep.failures()


def test_duality_scales_with_base_point():
    data2 = sp21_build(a=2.0)
    rep = duality_identity(data2, "sp21", trials=100, rng=2)
    assert rep.ok, rep.failures()
    # the ray pairing carries the square of the scale
    assert data2.pair.form(data2.S, data2.S_hat) == pytest.approx(-48.0)


def test_grading_blocks(data):
    p_minus, p_zero, p_plus = data.p_minus, data.p_zero, data.p_plus
    assert (p_minus.dim, p_zero.dim, p_plus.dim) == (12, 67, 12)
    assert (data.p_full.dim, data.p_hat.dim) == (79, 79)


def test_orthogonal_algebra_is_the_kernel_of_the_form_condition(data):
    # reference: the kernel of A -> A^T Gamma + Gamma A over all 14 x 14 matrices
    ref = orthogonal_algebra(data.Gamma)
    assert data.so_space.dim == ref.dim == 91
    assert data.so_space.equals(ref)


def test_build_leaves_the_orthogonal_algebra_without_a_frame():
    # the grading element is tested against A^T Gamma + Gamma A = 0 directly;
    # the 392 x 91 frame of so(14) is built only if a later check asks for it.
    # Builds share so(14) through the grading cache, and earlier checks
    # build its frame there, so the build under test starts from an empty cache
    casestudies._conformal_grading.cache_clear()
    assert "frame" not in vars(sp21_build().so_space)


GRADED_PIECES = ("so_space", "p_full", "p_hat", "p_minus", "p_zero", "p_plus")


def test_one_report_builds_the_grading_once():
    casestudies._conformal_grading.cache_clear()
    sp21_report(seed=0, trials=5)
    info = casestudies._conformal_grading.cache_info()
    # the report builds the case study once; its a = 2 data is derived
    assert (info.currsize, info.misses, info.hits) == (1, 1, 0)


@pytest.mark.parametrize("seed", [0, 7])
def test_doubled_data_is_the_a2_build(seed):
    # 2S spans the ray of S and doubling is exact, so the derived data is
    # what a fresh build at a = 2 computes, bit for bit
    got = casestudies._doubled(sp21_build(seed=seed))
    want = sp21_build(a=2.0, seed=seed)
    assert (got.a, got.mu) == (want.a, want.mu) == (2.0, 2 * (1 + 1j * np.sqrt(3.0)))
    for name in ("graded_basis", "S", "S_hat", "b_basis", "n_basis"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(got.split.e_basis, want.split.e_basis)
    assert np.array_equal(got.split.eps, want.split.eps)


def test_doubled_data_keeps_the_null_certificate(data):
    # a ray moved off the null cone inside m is refused, as sp21_build refuses it
    shift = data.pair.m.random_element(np.random.default_rng(3))
    with pytest.raises(ValueError, match="not null"):
        casestudies._doubled(dataclasses.replace(data, S=data.S + 0.3 * shift))


def test_grading_does_not_depend_on_the_ray_scale():
    casestudies._conformal_grading.cache_clear()
    d1 = sp21_build()
    casestudies._conformal_grading.cache_clear()
    d2 = sp21_build(a=2.0)
    # built apart, the pieces agree as subspaces
    assert np.array_equal(d1.Gamma, d2.Gamma)
    for name in GRADED_PIECES:
        assert getattr(d2, name).equals(getattr(d1, name)), name
    # built through the cache, the a = 2 build reuses the a = 1 pieces
    d3 = sp21_build(a=2.0)
    assert all(getattr(d3, name) is getattr(d2, name) for name in GRADED_PIECES)
    assert not d3.Gamma.flags.writeable


def test_each_sign_pattern_has_its_own_grading():
    casestudies._conformal_grading.cache_clear()
    data = sp21_build()
    eps = tuple(np.diag(data.Gamma)[1:13])
    flipped = casestudies._conformal_grading(tuple(-e for e in eps), DEFAULT_TOL)
    assert casestudies._conformal_grading.cache_info().currsize == 2
    assert np.array_equal(np.diag(flipped.Gamma)[1:13], -np.diag(data.Gamma)[1:13])
    assert not flipped.so_space.equals(data.so_space)
    assert casestudies._conformal_grading(eps, DEFAULT_TOL).so_space is data.so_space


def test_grading_report(data):
    rep = grading_report(data, "sp21")
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
        # the last diagonal entry should be conj(delta); g may be a stack
        al, be, ga, de = g[..., 0, 0], g[..., 0, 1], g[..., 1, 0], g[..., 1, 1]
        U = np.zeros(g.shape[:-2] + (3, 3), dtype=complex)
        U[..., 0, 0], U[..., 1, 1], U[..., 2, 2] = al, 1.0, -np.conj(de)
        V = np.zeros_like(U)
        V[..., 0, 2] = be
        V[..., 2, 0] = -np.conj(ga)
        return quat_embed(QMat(U, V))

    monkeypatch.setattr(casestudies, "phi_sl2", wrong_sign_phi_sl2)
    rep = sp21_embedding_check(data, trials=2, rng=5)
    status = {c.name: c.status for c in rep.checks}
    assert status["sp21_embed_derivative_span"] == "fail"


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 12345])
def test_cayley_membership_reads_rounding_noise(data, seed):
    rep = sp21_embedding_check(data, trials=2, rng=seed)
    [check] = [c for c in rep.checks if c.name == "sp21_embed_exponential_membership"]
    assert check.status == "pass" and check.observed < 1e-14


def test_cayley_membership_fails_outside_the_derivative_algebra(data, monkeypatch):
    # Z* F = -F Z on h, so (i Z)* F = F (i Z): i Z lies outside h, and its
    # Cayley element leaves the form-preserving group by O(1)
    real_cayley = casestudies.cayley
    monkeypatch.setattr(casestudies, "cayley", lambda pair, Z: real_cayley(pair, 1j * Z))
    rep = sp21_embedding_check(data, trials=2, rng=0)
    [check] = [c for c in rep.checks if c.name == "sp21_embed_exponential_membership"]
    assert check.status == "fail" and check.observed > 1.0


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
