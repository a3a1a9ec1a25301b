"""Tests for reductive complements, torsion, the curvature arrays of the
canonical and Levi-Civita connections, Ricci contractions, the first-Bianchi
defect, Casimir operators, and metric comparison checks."""


import numpy as np
import pytest
from numpy.testing import assert_allclose

import nullcone.reductive as reductive
from nullcone.casestudies import b_diag, sp21_build, su21_build, su21_report, v_minus, v_plus
from nullcone.casestudies import su21_nabla_J
from nullcone.linalg import RealSubspace, bracket, gram_matrix, signed_gram_schmidt
from nullcone.pairs import Family, build_pair
from nullcone.reductive import (
    ReductiveSplit,
    bianchi_defect,
    casimir,
    curvature_tensor,
    einstein_fit,
    frame_casimir,
    homothety_check,
    levi_civita_nomizu,
    reductive_split,
    ricci,
    ricci_levi_civita,
    torsion_derivation_check,
    torsion_eval,
    wang_ziller_check,
)
from pair_helpers import ray_split, ref_bracket_parts, ref_curvature_components, ref_n_coords


# Reference definitions: one form call per entry and one bracket per basis
# pair or triple.  The library computes the same tensors as contractions of
# one pairing of the frame's products; the tests below compare the two.


def ref_torsion(split):
    d = split.dim_n
    t = np.zeros((d, d, d))
    for i in range(d):
        for j in range(i + 1, d):
            _, Bn = ref_bracket_parts(split, split.e_basis[i], split.e_basis[j])
            t[i, j] = ref_n_coords(split, -Bn)
            t[j, i] = -t[i, j]
    return t


def ref_ricci_canonical(split):
    d, E = split.dim_n, split.e_basis
    ric = np.zeros((d, d))
    for i in range(d):
        for k in range(d):
            Bb, _ = ref_bracket_parts(split, E[i], E[k])
            for j in range(d):
                ric[i, j] += split.eps[k] * split.form(-bracket(Bb, E[j]), E[k])
    return ric


def ref_ricci_levi_civita(split):
    d, E = split.dim_n, split.e_basis
    corr = np.zeros((d, d))
    for k in range(d):
        Tk = [-ref_bracket_parts(split, E[k], E[i])[1] for i in range(d)]
        for i in range(d):
            for j in range(d):
                corr[i, j] += split.eps[k] * split.form(Tk[i], Tk[j])
    return ref_ricci_canonical(split) - 0.25 * corr


def ref_bianchi_residual(split, u, v, w, torsion=True):
    """Norm of cyclic[R(u, v) w] - cyclic[T(T(u, v), w)] for the canonical
    connection (without the torsion term if not `torsion`), one value per
    element of stacks u, v, w.  R(a, b) c = -[[a, b]_b, c] is read off the
    brackets and T from torsion_eval."""
    out = []
    for x, y, z in zip(u, v, w):
        total = np.zeros_like(x)
        for a, b, c in [(x, y, z), (y, z, x), (z, x, y)]:
            total = total - bracket(ref_bracket_parts(split, a, b)[0], c)
            if torsion:
                total = total - torsion_eval(split, torsion_eval(split, a, b), c)
        out.append(np.linalg.norm(total))
    return np.array(out)


def ref_su21_nabla_J(data, X, Y):
    """The closed form (nabla_X J) Y = (J T(X, Y) - T(X, J Y)) / 2."""
    t = lambda u, v: torsion_eval(data.split, u, v)
    return 0.5 * (data.J(t(X, Y)) - t(X, data.J(Y)))


def ref_ad(split, X):
    return np.column_stack([ref_n_coords(split, bracket(X, e)) for e in split.e_basis])


def ref_frame_casimir(split, basis, eps):
    return sum(s * ref_ad(split, A) @ ref_ad(split, A) for A, s in zip(basis, eps))


def ref_casimir(split, rng=0):
    """The first of the two passes of casimir(), which is what it returns."""
    basis, eps = signed_gram_schmidt(split.form, split.b, np.random.default_rng(rng))
    return ref_frame_casimir(split, basis, eps)


def ref_rho(data, X):
    Ginv = np.linalg.inv(data.Gamma)
    return np.column_stack([
        Ginv @ np.array([data.pair.form(g, bracket(X, f)) for g in data.graded_basis])
        for f in data.graded_basis])


@pytest.fixture(scope="module")
def su21():
    return su21_build()


@pytest.fixture(scope="module")
def sp21():
    return sp21_build()


@pytest.fixture(scope="module")
def torsion_free_split():
    # compact Cartan line inside the rank-one complex pair: its orthogonal
    # complement brackets back into the line, so the torsion vanishes
    pair = build_pair(Family("C", 1, 1))
    return reductive_split(pair, RealSubspace([np.diag([1j, -1j])]))


@pytest.fixture(scope="module")
def abelian_split():
    # synthetic split on commuting diagonal matrices: flat by construction
    pair = build_pair(Family("R", 2, 1))
    e1 = np.diag([1.0, -1.0, 0.0]).astype(complex) / np.sqrt(2.0)
    e2 = np.diag([1.0, 1.0, -2.0]).astype(complex) / np.sqrt(6.0)
    return ReductiveSplit(pair=pair, b=None, n=RealSubspace([e1, e2]),
                          e_basis=np.stack([e1, e2]), eps=np.array([1.0, 1.0]),
                          form=pair.form)


def test_split_dimensions(su21, sp21):
    assert (su21.split.dim_b, su21.split.dim_n) == (2, 6)
    assert (sp21.split.dim_b, sp21.split.dim_n) == (9, 12)
    assert list(su21.split.eps[:3]) == [1.0, 1.0, 1.0]
    assert list(su21.split.eps[3:]) == [-1.0, -1.0, -1.0]
    assert sorted(sp21.split.eps) == [-1.0] * 7 + [1.0] * 5


def test_metric_gram_is_signed_identity(su21, sp21):
    # einstein_fit fits the Ricci tensor against diag(eps), the Gram matrix
    # of the signed orthonormal frame
    for split in (su21.split, sp21.split):
        assert_allclose(gram_matrix(split.form, split.e_basis), np.diag(split.eps), atol=1e-9)


def test_trivial_complement_of_empty_b():
    # a trivial stabilizer leaves the whole isotropy algebra as complement
    pair = build_pair(Family("R", 2, 1))
    split = reductive_split(pair, None)
    assert split.dim_b == 0
    assert split.dim_n == pair.h.dim
    assert_allclose(casimir(split), np.zeros((split.dim_n, split.dim_n)),
                    atol=1e-12)
    lam, res = einstein_fit(split)
    assert lam == pytest.approx(0.25, abs=1e-9)
    assert res < 1e-9
    flag, const = wang_ziller_check(casimir(split))
    assert flag and const == pytest.approx(0.0, abs=1e-9)


def test_degenerate_b_is_rejected():
    d = su21_build()
    with pytest.raises(ValueError, match="degenerate"):
        reductive_split(d.pair, RealSubspace([v_plus(1.0, 0.0)]))


def test_torsion_free_example(torsion_free_split):
    split = torsion_free_split
    assert (split.dim_b, split.dim_n) == (1, 2)
    assert np.abs(split.torsion_components).max() < 1e-12
    # with zero torsion both Ricci contractions agree
    assert_allclose(ricci(curvature_tensor(split)), ricci_levi_civita(split),
                    atol=1e-10)


def test_abelian_split_is_flat(abelian_split):
    split = abelian_split
    assert np.abs(split.torsion_components).max() == 0.0
    assert np.abs(curvature_tensor(split)).max() == 0.0
    assert np.abs(ricci(curvature_tensor(split))).max() == 0.0
    lam, res = einstein_fit(split)
    assert lam == 0.0 and res == 0.0


def test_torsion_antisymmetry_and_total_skew(su21, sp21):
    rng = np.random.default_rng(1)
    for data in (su21, sp21):
        split = data.split
        for _ in range(10):
            u = split.n.random_element(rng)
            v = split.n.random_element(rng)
            w = split.n.random_element(rng)
            Tuv = torsion_eval(split, u, v)
            assert np.abs(Tuv + torsion_eval(split, v, u)).max() < 1e-9
            # the trilinear form K(T(u,v), w) is alternating
            a = split.form(Tuv, w)
            b = split.form(torsion_eval(split, v, w), u)
            c = split.form(torsion_eval(split, u, w), v)
            assert abs(a - b) < 1e-8
            assert abs(a + c) < 1e-8


def test_torsion_vanishes_on_mixed_null_halves(su21):
    rng = np.random.default_rng(2)
    for _ in range(10):
        xp = v_plus(rng.standard_normal() + 1j * rng.standard_normal(),
                    rng.standard_normal())
        xm = v_minus(rng.standard_normal() + 1j * rng.standard_normal(),
                     rng.standard_normal())
        assert np.abs(torsion_eval(su21.split, xp, xm)).max() < 1e-12


def test_curvature_basic_identities(su21):
    # R[i, k] = -R[k, i], and each R[i, k] is skew relative to the metric
    # diag(eps): K(R(u, v) w, z) = -K(R(u, v) z, w)
    split = su21.split
    R = curvature_tensor(split)
    assert np.abs(R + np.swapaxes(R, 0, 1)).max() < 1e-12
    low = split.eps[:, None] * R
    assert np.abs(low + np.swapaxes(low, -1, -2)).max() < 1e-8


def test_bianchi_residual_is_reported_not_asserted(su21):
    # su21_build() and su21_report(seed=0) build the same split
    [check] = [c for c in su21_report(seed=0, trials=2).checks
               if c.name == "su21_first_bianchi_residual"]
    split = su21.split
    defect = bianchi_defect(curvature_tensor(split), split.torsion_components)
    assert check.status == "info"
    assert check.observed == float(np.abs(defect).max())


def test_einstein_constants(su21, sp21):
    lam, res = einstein_fit(su21.split)
    assert lam == pytest.approx(2.5, abs=1e-9)
    assert res < 1e-9
    lam, res = einstein_fit(sp21.split)
    assert lam == pytest.approx(7.0, abs=1e-9)
    assert res < 1e-9


def test_ricci_symmetry_and_invariance(su21, sp21):
    R0 = ricci(curvature_tensor(su21.split))
    assert_allclose(R0, R0.T, atol=1e-9)
    # invariance under the stabilizer action on the complement
    split = sp21.split
    R0 = ricci(curvature_tensor(split))
    for X in sp21.split.b.basis[:3]:
        A = np.column_stack([split.n_coords(bracket(X, e)) for e in split.e_basis])
        assert np.abs(A.T @ R0 + R0 @ A).max() < 1e-8


def test_casimir_multiples(su21, sp21):
    assert_allclose(casimir(su21.split), 2.0 * np.eye(6), atol=1e-8)
    assert_allclose(casimir(sp21.split), 6.0 * np.eye(12), atol=1e-8)


def test_wang_ziller_verdicts(su21, sp21):
    flag, const = wang_ziller_check(casimir(su21.split))
    assert flag and const == pytest.approx(2.0, abs=1e-8)
    flag, const = wang_ziller_check(casimir(sp21.split))
    assert flag and const == pytest.approx(6.0, abs=1e-8)


def test_wang_ziller_detects_missing_direction(su21):
    # dropping one stabilizer direction breaks the multiple-of-identity
    split = reductive_split(su21.pair, RealSubspace([b_diag(1.0, 0.0)]))
    flag, _ = wang_ziller_check(casimir(split))
    assert not flag


def test_derivation_check_fails_on_perturbed_stabilizer(su21):
    b = su21.split.b.basis
    bad_b = RealSubspace([b[0], b[1] + 0.05 * su21.n_space.basis[0]])
    bad = su21.split._replace(b=bad_b)
    assert torsion_derivation_check(bad).n_fail > 0


def test_homothety_checks(su21, sp21):
    flag, note = homothety_check(su21.split, su21.n_hat)
    assert flag, note
    flag, note = homothety_check(sp21.split, sp21.n_hat)
    assert flag, note


def test_homothety_check_reads_the_complement_it_is_given(su21, sp21, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("n_hat is built once, with the case study")

    monkeypatch.setattr(reductive, "orth_complement", refuse)
    assert homothety_check(su21.split, su21.n_hat)[0]
    assert homothety_check(sp21.split, sp21.n_hat)[0]
    # a complement of the wrong dimension is refused
    flag, note = homothety_check(su21.split, RealSubspace(su21.n_hat.basis[:-1]))
    assert not flag and "dim n_hat = 5" in note


SPLITS = ("su21", "sp21", "torsion_free_split", "abelian_split")


# splits along the stabilizer of one sampled null ray
RAY_SPLITS = {"C21_ray": Family("C", 2, 1), "H21_ray": Family("H", 2, 1),
              "C32_ray": Family("C", 3, 2), "H32_ray": Family("H", 3, 2)}


@pytest.fixture(scope="module")
def ray_splits():
    return {name: ray_split(family) for name, family in RAY_SPLITS.items()}


def _split(request, name):
    if name in RAY_SPLITS:
        return request.getfixturevalue("ray_splits")[name]
    split = request.getfixturevalue(name)
    return split if isinstance(split, ReductiveSplit) else split.split


@pytest.mark.parametrize("name", SPLITS)
def test_contractions_match_loop_references(request, name):
    split = _split(request, name)
    assert_allclose(split.torsion_components, ref_torsion(split), rtol=0, atol=1e-12)
    assert_allclose(ricci(curvature_tensor(split)), ref_ricci_canonical(split),
                    rtol=0, atol=1e-12)
    assert_allclose(ricci_levi_civita(split), ref_ricci_levi_civita(split),
                    rtol=0, atol=1e-12)
    if split.b is not None:
        assert_allclose(casimir(split), ref_casimir(split), rtol=0, atol=1e-12)
        for X in split.b.basis:
            assert_allclose(split.ad(X), ref_ad(split, X), rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", SPLITS)
def test_single_argument_evaluators_match_brackets(request, name):
    split = _split(request, name)
    rng = np.random.default_rng(6)
    u, v, _ = split.n.random_element(rng, size=3)
    _, Bn = ref_bracket_parts(split, u, v)
    assert_allclose(torsion_eval(split, u, v), -Bn, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", SPLITS)
def test_curvature_tensor_matches_brackets(request, name):
    # column j of R[i, k] holds the coordinates of -[[e_i, e_k]_b, e_j]
    split = _split(request, name)
    E = split.e_basis
    R = curvature_tensor(split)
    for i, k in np.ndindex(len(E), len(E)):
        Bb, _ = ref_bracket_parts(split, E[i], E[k])
        want = np.column_stack([ref_n_coords(split, -bracket(Bb, e)) for e in E])
        assert_allclose(R[i, k], want, rtol=0, atol=1e-13)


def test_stacked_frame_maps_match_single_matrices(su21, sp21):
    rng = np.random.default_rng(7)
    for split in (su21.split, sp21.split):
        Xs = split.pair.h.random_element(rng, size=6).reshape((2, 3) + split.e_basis.shape[1:])
        coords = split.n_coords(Xs)
        assert coords.shape == (2, 3, split.dim_n)
        for idx in np.ndindex(2, 3):
            assert_allclose(coords[idx], split.n_coords(Xs[idx]), rtol=0, atol=1e-13)
            assert_allclose(coords[idx], ref_n_coords(split, Xs[idx]), rtol=0, atol=1e-13)


def test_sp21_casimir_and_rho_match_loop_references(sp21):
    assert_allclose(frame_casimir(sp21.split, sp21.A_basis, sp21.eps_A),
                    ref_frame_casimir(sp21.split, sp21.A_basis, sp21.eps_A),
                    rtol=0, atol=1e-12)
    mats = np.concatenate([sp21.split.b.basis, sp21.n_space.basis])
    stacked = sp21.rho(mats)
    for X, R in zip(mats, stacked):
        assert_allclose(R, ref_rho(sp21, X), rtol=0, atol=1e-12)
        assert_allclose(sp21.rho(X), R, rtol=0, atol=1e-13)


@pytest.mark.parametrize("name", SPLITS)
def test_stacked_evaluators_match_single_elements(request, name):
    split = _split(request, name)
    u, v = split.n.random_element(np.random.default_rng(8), size=8).reshape(
        (2, 2, 2) + split.e_basis.shape[1:])
    T = torsion_eval(split, u, v)
    assert T.shape == u.shape
    # entries reach ~50 in the quaternionic case, so compare against the
    # scale of each matrix
    def same(got, want):
        assert_allclose(got, want, rtol=0, atol=1e-13 * max(1.0, np.abs(want).max()))

    for idx in np.ndindex(2, 2):
        same(T[idx], torsion_eval(split, u[idx], v[idx]))


# The curvature layer: both connections' curvature arrays from one formula,
# on the four splits above and the whole isotropy algebra of R(2, 1).

LAYER_SPLITS = SPLITS + ("trivial_split",)


@pytest.fixture(scope="module")
def trivial_split():
    return reductive_split(build_pair(Family("R", 2, 1)), None)


def levi_civita_curvature(split):
    return curvature_tensor(split, levi_civita_nomizu(split))


@pytest.mark.parametrize("name", LAYER_SPLITS)
def test_levi_civita_ricci_matches_the_torsion_square_reference(request, name):
    split = _split(request, name)
    assert_allclose(ricci(levi_civita_curvature(split)), ref_ricci_levi_civita(split),
                    rtol=0, atol=1e-13)


@pytest.mark.parametrize("name", LAYER_SPLITS + tuple(RAY_SPLITS))
def test_derivation_check_passes_on_case_studies(request, name):
    # with b = None there is no b-action, and the derivation reads 0
    split = _split(request, name)
    rep = torsion_derivation_check(split)
    assert rep.ok
    if split.dim_b == 0:
        [check] = [c for c in rep.checks if c.name == "torsion_derivation"]
        assert check.observed == 0.0


@pytest.mark.parametrize("name", LAYER_SPLITS + tuple(RAY_SPLITS))
def test_b_action_read_off_beta_matches_the_brackets(request, name):
    # M[a, p, k] = eps_p eta_a beta[k, p, a] by the invariance of K, against
    # ad(f_a) on n read off the brackets [f_a, e_k]
    split = _split(request, name)
    f, eta = split.b_frame
    M = split.b_action
    assert_allclose(M, split.ad(f), rtol=0, atol=1e-13)
    assert_allclose(M, np.einsum("p,a,kpa->apk", split.eps, eta, split.b_components),
                    rtol=0, atol=0)


def test_split_holds_no_bracket_stack(ray_splits):
    # the products e_i e_k are paired and dropped: after the Einstein fit,
    # the Casimir and the derivation check, no cached array has d^2 N^2 entries
    split = ray_splits["H32_ray"]._replace()
    einstein_fit(split)
    casimir(split)
    torsion_derivation_check(split)
    stack = split.dim_n ** 2 * split.e_basis[0].size
    held = [(key, a.shape) for key, v in vars(split).items()
            for a in (v if isinstance(v, tuple) else (v,))
            if isinstance(a, np.ndarray) and a.size >= stack]
    assert not held


@pytest.mark.parametrize("name", LAYER_SPLITS + tuple(RAY_SPLITS))
def test_curvature_contractions_match_the_per_index_loop(request, name):
    # C[i, k] = -sum_a beta[i, k, a] M_a against -ad([e_i, e_k]_b) built one
    # frame index at a time; the Levi-Civita Ricci contraction against the
    # trace of the full curvature array, built on either canonical curvature
    split = _split(request, name)
    loop = ref_curvature_components(split)
    assert_allclose(split.curvature_components, loop, rtol=0, atol=1e-13)
    looped = split._replace()
    looped.curvature_components = loop
    ric = ricci_levi_civita(split)
    for s in (split, looped):
        assert_allclose(ric, ricci(curvature_tensor(s, levi_civita_nomizu(s))),
                        rtol=0, atol=1e-12)
    assert split.b_components.shape == (split.dim_n, split.dim_n, split.dim_b)
    assert split.b_action.shape == (split.dim_b, split.dim_n, split.dim_n)


@pytest.mark.parametrize("field,p,q,lam", [("C", 5, 4, 5.5), ("H", 4, 3, 11.0)])
def test_einstein_constant_at_large_d_is_kappa_over_four_plus_half_the_casimir(
        field, p, q, lam, monkeypatch):
    # a normal homogeneous metric whose Casimir is c Id has Ric = (kappa / 4
    # + c / 2) g, with kappa K the Killing form of h (Besse 7.93): (n + 2) / 2
    # on C and n + 4 on H.  At d = 72 and 84 the fit never forms the
    # (d, d, d, d) curvature array
    split = ray_split(Family(field, p, q))
    h, form = split.pair.h, split.form
    X = h.random_element(np.random.default_rng(0))
    ad = h.coords(bracket(X, h.basis))  # row j: coordinates of [X, h_j]
    kappa = np.trace(ad @ ad) / form(X, X)
    flag, c = wang_ziller_check(casimir(split))

    def refuse(*args, **kwargs):
        raise AssertionError("einstein_fit formed the (d, d, d, d) curvature array")

    monkeypatch.setattr(reductive, "curvature_tensor", refuse)
    got, res = einstein_fit(split)
    assert flag and abs(got - (kappa / 4 + c / 2)) <= 1e-7
    assert abs(got - lam) <= 1e-7 and res <= 1e-7
    assert "curvature_components" not in vars(split)


@pytest.mark.parametrize("name", LAYER_SPLITS)
def test_first_bianchi_defects_vanish(request, name):
    # the canonical connection has parallel torsion, the Levi-Civita one none
    split = _split(request, name)
    T = split.torsion_components
    assert np.abs(bianchi_defect(curvature_tensor(split), T)).max() < 1e-12
    assert np.abs(bianchi_defect(levi_civita_curvature(split), 0 * T)).max() < 1e-12


@pytest.mark.parametrize("name", LAYER_SPLITS)
def test_levi_civita_arrays_are_metric(request, name):
    # R[i, j] is antisymmetric in (i, j), and R[i, j] and Lambda[i] are skew
    # for the metric diag(eps): eps_a M[a, b] = -eps_b M[b, a]
    split = _split(request, name)
    low = split.eps[:, None]
    L, R = levi_civita_nomizu(split), levi_civita_curvature(split)
    assert np.abs(R + np.swapaxes(R, 0, 1)).max() < 1e-13
    for M in (L, R):
        assert np.abs(low * M + np.swapaxes(low * M, -1, -2)).max() < 1e-13


def test_canonical_curvature_fails_the_torsion_free_identity(su21, sp21):
    # the canonical connection has torsion, so its curvature alone does not
    # satisfy the torsion-free Bianchi identity
    for data, least in ((su21, 1.0), (sp21, 3.0)):
        R = curvature_tensor(data.split)
        assert np.abs(bianchi_defect(R, 0 * data.split.torsion_components)).max() > least


@pytest.mark.parametrize("name", LAYER_SPLITS)
def test_defect_contracts_to_the_cyclic_sum(request, name):
    # the defect is trilinear, so its contraction with the coordinates of
    # any triple is that triple's cyclic sum.  With the torsion term both
    # are rounding noise (up to ~3e-12 on sp21, whose draws have entries
    # near 50); without it the sums are O(1) wherever b acts, and must agree
    split = _split(request, name)
    u, v, w = split.n.random_element(np.random.default_rng(9), size=12).reshape(
        (3, 4) + split.e_basis.shape[1:])
    x, y, z = (split.n_coords(a) for a in (u, v, w))
    T = split.torsion_components

    def contracted(D):
        got = np.tensordot(np.einsum("ti,tj,tk,ijka->ta", x, y, z, D), split.e_basis, axes=1)
        return np.linalg.norm(got, axis=(-2, -1))

    R = curvature_tensor(split)
    assert contracted(bianchi_defect(R, T)).max() < 1e-10
    assert ref_bianchi_residual(split, u, v, w).max() < 1e-10
    want = ref_bianchi_residual(split, u, v, w, torsion=False)
    assert_allclose(contracted(bianchi_defect(R, 0 * T)), want,
                    rtol=0, atol=1e-12 * max(1.0, want.max()))


def test_nabla_J_matches_the_torsion_closed_form(su21):
    X, Y = su21.n_space.random_element(np.random.default_rng(10), size=40).reshape(
        (2, 20) + su21.split.e_basis.shape[1:])
    want = ref_su21_nabla_J(su21, X, Y)
    assert_allclose(su21_nabla_J(su21, X, Y), want, rtol=0,
                    atol=1e-12 * np.abs(want).max())
