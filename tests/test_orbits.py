"""Tests for null-ray sampling, stabilizers, normal forms, strata of the
real rank-one pair, and the eigenframe-adapted partner construction."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import null_space, subspace_angles

from nullcone import linalg, orbits, pairs
from nullcone.linalg import (QMat, Tolerance, _kernel_cols, bracket, quat_embed, quat_split,
                             realify)
from nullcone.orbits import (
    EXPECTED_STAB_DIM,
    NullBatch,
    RayStabilizers,
    canonicalize_symplectic_batch,
    canonicalize_unitary_batch,
    codimension_from_stabilizer,
    commutant_is_smaller,
    make_null_batch,
    orbits_report,
    partner_null_batch,
    ray_stabilizer_mismatch,
    sample_null_batch,
    sample_so21_stratum_batch,
    so21_orbit_class,
    stabilizer_dims,
    stabilizers_by_commutant,
    stabilizers_of_rays,
    stabilizers_report,
    trial_blocks,
)
from nullcone.pairs import Family, build_pair, congruence, t_form
from subspace_reference import stabilizer_mismatch

SQRT3 = np.sqrt(3.0)


def omega(pair):
    """Reference: the complex-symplectic form [[0, F], [-F, 0]] of the
    quaternionic carrier, built afresh."""
    F = pair.hermitian_matrix
    Z = np.zeros_like(F)
    return np.block([[Z, F], [-F, Z]])


def split_spectrum(values, thr):
    """Reference: indices of upper-half-plane, real, and lower-half-plane
    eigenvalues of one spectrum, the upper ones by (real, imag) and the real
    ones by value (the per-ray rule the stacked _spectrum_classes replaced)."""
    values = np.asarray(values)
    upper = [i for i in range(len(values)) if values[i].imag > thr]
    real = [i for i in range(len(values)) if abs(values[i].imag) <= thr]
    lower = [i for i in range(len(values)) if values[i].imag < -thr]
    upper.sort(key=lambda i: (values[i].real, values[i].imag))
    real.sort(key=lambda i: values[i].real)
    return upper, real, lower


def test_t_form_layout():
    T = t_form(2, 1, 1)
    assert T.shape == (3, 3)
    assert_allclose(T @ T.conj().T, np.eye(3), atol=1e-12)
    assert_allclose(np.linalg.eigvalsh((T + T.conj().T) / 2),
                    np.sort(np.linalg.eigvalsh((t_form(2, 1, 1) + t_form(2, 1, 1).conj().T) / 2)))


def test_congruence_produces_change_of_basis():
    F = np.diag([1.0, 1.0, -1.0]).astype(complex)
    T = t_form(2, 1, 1)
    P = congruence(F, T)
    assert_allclose(P.conj().T @ F @ P, T, atol=1e-10)


def test_congruence_rejects_signature_mismatch():
    with pytest.raises(ValueError):
        congruence(np.eye(2), np.diag([1.0, -1.0]))


@pytest.mark.parametrize("field", ["R", "C", "H"])
def test_generic_sample_properties(field):
    pair = build_pair(Family(field, 2, 1))
    batch = sample_null_batch(pair, 10, rng=0)
    assert pair.m.residual(batch.S).max() < 1e-9
    assert batch.nullity_residual.max() < 1e-8
    assert batch.genericity.all()
    assert batch.gap.min() > 1e-6
    assert np.abs(np.trace(batch.S, axis1=1, axis2=2)).max() < 1e-9


def test_generic_sample_needs_three_dimensions():
    with pytest.raises(ValueError):
        sample_null_batch(build_pair(Family("C", 1, 1)), 1, rng=0)


@pytest.mark.parametrize("field,pq,want", [
    ("C", (2, 1), 2),
    ("R", (2, 1), 0),
    ("H", (2, 1), 9),
    ("C", (2, 2), 3),
    ("R", (2, 2), 0),
])
def test_generic_stabilizer_dimensions(field, pq, want):
    pair = build_pair(Family(field, *pq))
    batch = sample_null_batch(pair, 5, rng=1)
    stabs = stabilizers_of_rays(pair, batch.S)
    assert stabs.dims.tolist() == [want] * 5
    assert stabs.residuals.max() < 1e-8
    for i in range(len(batch)):
        b = stabs.subspace(i)
        if b is None:
            continue
        # generic stabilizers act without rescaling the ray
        assert np.abs(stabs.scales[i]).max() < 1e-8
        assert np.abs(bracket(b.basis, batch.S[i])).max() < 1e-7


@pytest.mark.parametrize("field,pq,want", [
    ("R", (2, 1), 0),
    ("R", (2, 2), 1),
    ("R", (3, 2), 2),
    ("C", (2, 1), 0),
    ("H", (2, 1), 0),
])
def test_orbit_codimension_is_size_minus_three(field, pq, want):
    pair = build_pair(Family(field, *pq))
    batch = sample_null_batch(pair, 3, rng=2)
    dims = stabilizers_of_rays(pair, batch.S).dims
    assert codimension_from_stabilizer(pair, dims).tolist() == [want] * 3


@pytest.mark.parametrize("field,pq,want", [
    *(pytest.param(f, (5, 3), w, id=f"{f}-{w}") for f, w in (("R", 0), ("C", 7), ("H", 24))),
    *(pytest.param(f, (10, 9), w, id=f"{f}-{w}-n19")
      for f, w in (("R", 0), ("C", 18), ("H", 57))),
])
def test_census_at_n_8(field, pq, want):
    # the stabilizers suite at (5, 3), past n = 6, and at (10, 9), n = 19,
    # where every field takes the commutant route and the SVD route solves
    # the first ray as the reference (H(10, 9): about 1.5 s with one BLAS
    # thread, of which 0.5 s builds the pair and 0.5 s is the reference ray)
    fam = Family(field, *pq)
    rep = stabilizers_report(build_pair(fam), trials=4, seed=0)
    assert rep.ok, rep.failures()
    got = {c.name: c.observed for c in rep.checks}
    assert EXPECTED_STAB_DIM[field](fam.n) == want
    assert got[f"{fam.tag}_stab_dim"] == (want,)
    assert got[f"{fam.tag}_orbit_codim"] == (fam.n - 3,)
    assert got[f"{fam.tag}_stab_routes_agree"][:2] == (want, want)


ROUTE_CASES = [(f, (p, p - 1)) for f in "RCH" for p in range(2, 11)] + [
    (f, pq) for f in "RCH" for pq in ((1, 3), (2, 3))]


@pytest.mark.parametrize("route", ["svd", "commutant"])
@pytest.mark.parametrize("field,pq", [(f, pq) for f in "RCH" for pq in ((2, 1), (5, 3))])
def test_both_routes_return_one_shape(field, pq, route):
    # one RayStabilizers contract for both routes, including the trivial
    # stabilizers of generic R rays, whose bases are empty stacks (0, N, N)
    pair = build_pair(Family(field, *pq))
    batch = sample_null_batch(pair, 3, rng=11)
    if route == "svd":
        st = stabilizers_of_rays(pair, batch.S)
    else:
        st = stabilizers_by_commutant(pair, batch)
    N = pair.carrier_dim
    assert len(st.bases) == len(st.scales) == 3
    for i in range(3):
        d = int(st.dims[i])
        assert st.bases[i].shape == (d, N, N) and st.scales[i].shape == (d,)
        if route == "commutant":  # c = 0 is proven on this route
            assert not st.scales[i].any()
        elif d:
            assert pair.h.residual(st.bases[i]).max() < 1e-9
        S = batch.S[i]
        R = bracket(st.bases[i], S) - st.scales[i][:, None, None] * S
        assert np.linalg.norm(R, axis=(1, 2)).max(initial=0.0) <= st.residuals[i] * (1 + 1e-12)
    if field == "R" and pq == (2, 1):
        assert st.dims.tolist() == [0] * 3 and st.bases[0].shape == (0, 3, 3)
    picked = st.take(np.array([2, 0]))
    assert picked.dims.tolist() == [st.dims[2], st.dims[0]]
    for j, i in enumerate((2, 0)):
        assert picked.bases[j] is st.bases[i] and picked.scales[j] is st.scales[i]
        assert picked.residuals[j] == st.residuals[i]


@pytest.mark.parametrize("field,pq", ROUTE_CASES, ids=[f"{f}-{p}-{q}" for f, (p, q) in ROUTE_CASES])
def test_commutant_route_matches_the_svd_route(field, pq):
    pair = build_pair(Family(field, *pq))
    batch = sample_null_batch(pair, 2, rng=3)
    comm = stabilizers_by_commutant(pair, batch)
    svd = stabilizers_of_rays(pair, batch.S)
    want = EXPECTED_STAB_DIM[field](pair.family.n)
    assert comm.dims.tolist() == svd.dims.tolist() == [want] * 2
    assert stabilizer_mismatch(comm, svd).max() < 1e-9
    assert stabilizer_mismatch(svd, comm).max() < 1e-9
    assert comm.residuals.max() < 1e-8 and svd.residuals.max() < 1e-8
    # the margin is the condition number of each ray's eigenbasis
    assert comm.margins.shape == (2,) and (comm.margins >= 1.0).all()
    assert svd.margins is None
    N = pair.carrier_dim
    for i in range(2):
        X = comm.bases[i]
        assert X.shape == (want, N, N)
        if want:
            assert_allclose(np.linalg.norm(X, axis=(1, 2)), 1.0, rtol=1e-12)
            # the matrices lie in h, checked here against h's own frame
            assert pair.h.residual(X).max() < 1e-9
            assert np.abs(bracket(X, batch.S[i])).max() < 1e-8


def test_route_rule_compares_per_ray_system_sizes():
    # (dim C(S))^2 against dim m * (dim h + 1), with no constant: the SVD
    # route stays primary for R and H up to n = 4, and from n = 5 on every
    # field takes the commutant route
    cases = ((2, 1), (1, 3), (2, 2), (3, 2), (6, 5))
    smaller = {(f, pq): orbits.commutant_is_smaller(build_pair(Family(f, *pq)))
               for f in "RCH" for pq in cases}
    assert [k for k, v in smaller.items() if not v] == [
        (f, pq) for f in "RH" for pq in cases[:3]]
    pair = build_pair(Family("H", 6, 5))
    assert orbits._commutant_dim(pair) == 8 * 11
    assert orbits._commutant_dim(pair) ** 2 < pair.m.dim * (pair.h.dim + 1)


def test_commutant_route_rejects_nilpotent_strata():
    # an R(2, 1) stratum ray is nilpotent, so [X, S] = c S may have c != 0
    # and C(S) is not the stabilizer; only the SVD route solves it.  The
    # computed eigenvalues of a two-step-nilpotent ray split by about
    # eps^(1/3), which can pass the gap rule of make_null_batch, so the
    # route also rejects rows by the condition number of their eigenbasis
    pair = build_pair(Family("R", 2, 1))
    for stratum, want in (("two-step-nilpotent", 1), ("one-step-nilpotent", 2)):
        batch = sample_so21_stratum_batch(pair, stratum, 3, rng=5)
        for i in range(3):
            with pytest.raises(ValueError, match="generic"):
                stabilizers_by_commutant(pair, batch.take([i]))
        assert stabilizers_of_rays(pair, batch.S).dims.tolist() == [want] * 3
    generic = sample_null_batch(pair, 2, rng=5)
    mixed = NullBatch.concat([generic, sample_so21_stratum_batch(pair, "one-step-nilpotent", 1)])
    with pytest.raises(ValueError, match="generic"):
        stabilizers_by_commutant(pair, mixed)


@pytest.mark.parametrize("field,pq", [("C", (3, 2)), ("H", (2, 1))])
def test_route_agreement_takes_no_second_kernel(field, pq, monkeypatch):
    # the reference ray is checked on singular values: its stabilizer system
    # gets no SVD with vectors, the commutant basis is written in h by
    # coords from the column supports (no lstsq over all 2 N^2 rows), and
    # h's frame is never built.  C(3, 2) takes the commutant route for every
    # ray, H(2, 1) the SVD route, whose one vectors SVD is the primary block
    pair = build_pair(Family(field, *pq))
    system = (pair.m.dim, pair.h.dim + 1)
    svd_calls, lstsq_rows = [], []
    svd, lstsq = np.linalg.svd, np.linalg.lstsq

    def recording_svd(a, *args, **kw):
        svd_calls.append((a.shape, kw.get("compute_uv", True)))
        return svd(a, *args, **kw)

    def recording_lstsq(a, b, *args, **kw):
        lstsq_rows.append(a.shape[0])
        return lstsq(a, b, *args, **kw)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(np.linalg, "lstsq", recording_lstsq)
    if commutant_is_smaller(pair):
        def forbidden(*args, **kwargs):
            raise AssertionError("the commutant-route report solves no SVD-route kernel")

        monkeypatch.setattr(orbits, "_kernel_bases", forbidden)
    rep = stabilizers_report(pair, trials=3, seed=1)
    assert rep.ok, rep.failures()
    with_vectors = [shape for shape, uv in svd_calls if uv and shape[-2:] == system]
    values_only = [shape for shape, uv in svd_calls if not uv and shape[-2:] == system]
    assert with_vectors == ([] if commutant_is_smaller(pair) else [(3, *system)])
    assert values_only == [(1, *system)]
    assert 2 * pair.carrier_dim ** 2 not in lstsq_rows
    assert "frame" not in vars(pair.h)


@pytest.mark.parametrize("corrupt", ["missing", "moved"])
@pytest.mark.parametrize("primary", ["commutant", "svd"])
@pytest.mark.parametrize("field", ["C", "H"])
def test_a_corrupted_commutant_basis_fails_route_agreement(field, primary, corrupt,
                                                           monkeypatch):
    # negative controls on the reference ray, with either route primary:
    # the first ray's commutant basis loses one vector, or has one element
    # moved 1e-3 out of the kernel toward a random element of h.  The
    # corrupted route reports the residuals of the basis it returns
    pair = build_pair(Family(field, 3, 2))
    monkeypatch.setattr(orbits, "commutant_is_smaller", lambda pair: primary == "commutant")
    tag = pair.family.tag
    assert stabilizers_report(pair, trials=3, seed=0).ok
    commutant = orbits.stabilizers_by_commutant
    rng = np.random.default_rng(31)

    def corrupted(pair, batch):
        st = commutant(pair, batch)
        X = st.bases[0][:-1] if corrupt == "missing" else st.bases[0].copy()
        if corrupt == "moved":
            X[0] += 1e-3 * pair.h.random_element(rng, norm=1.0)
        res = orbits._commutant_residuals(pair, batch.S[:1], X[None]).max(initial=0.0)
        dims = st.dims.copy()
        dims[0] = len(X)
        return RayStabilizers(dims, [X, *st.bases[1:]], [np.zeros(len(X)), *st.scales[1:]],
                              np.r_[res, st.residuals[1:]], st.margins)

    monkeypatch.setattr(orbits, "stabilizers_by_commutant", corrupted)
    checks = {c.name: c for c in stabilizers_report(pair, trials=3, seed=0).checks}
    agree = checks[f"{tag}_stab_routes_agree"]
    assert agree.status == "fail"
    if corrupt == "missing":
        assert agree.observed[0] != agree.observed[1]
    else:
        assert agree.observed[2] > 1e-6
        assert checks[f"{tag}_stab_residual"].status == "fail"


@pytest.mark.parametrize("field,pq,drop,primary_fails", [
    ("H", (3, 2), 1, True),   # no quaternionic structure, commutant primary
    ("H", (3, 2), 0, True),   # no form involution, commutant primary
    ("R", (3, 2), 0, True),   # no form involution: the real part of C(S)
    ("H", (2, 1), 1, False),  # the broken route is only the reference
])
def test_projector_without_an_involution_fails_the_checks(field, pq, drop, primary_fails,
                                                           monkeypatch):
    # negative control: drop one involution from the projector
    involutions = orbits._commutant_involutions

    def broken(*args):
        maps = involutions(*args)
        del maps[drop]
        return maps

    monkeypatch.setattr(orbits, "_commutant_involutions", broken)
    pair = build_pair(Family(field, *pq))
    rep = stabilizers_report(pair, trials=3, seed=0)
    status = {c.name: c.status for c in rep.checks}
    tag = pair.family.tag
    assert status[f"{tag}_stab_routes_agree"] == "fail"
    assert status[f"{tag}_stab_residual"] == "fail"
    assert status[f"{tag}_stab_dim"] == ("fail" if primary_fails else "pass")


@pytest.mark.parametrize("pq", [(2, 1), (2, 2), (3, 1)])
def test_unitary_normal_form(pq):
    pair = build_pair(Family("C", *pq))
    F = pair.hermitian_matrix
    P, r = canonicalize_unitary_batch(pair, sample_null_batch(pair, 5, rng=3))
    assert r.tolist() == [min(pq)] * 5
    for Pi in P:
        assert_allclose(Pi.conj().T @ F @ Pi, t_form(*pq, min(pq)), atol=1e-8)


@pytest.mark.parametrize("pq", [(2, 1), (2, 2), (3, 1)])
def test_symplectic_normal_form(pq):
    pair = build_pair(Family("H", *pq))
    Hm = pair.carrier_form
    Om = omega(pair)
    W = t_form(*pq, min(pq))
    om_target = np.block([[np.zeros_like(W), W], [-W, np.zeros_like(W)]])
    h_target = np.block([[W, np.zeros_like(W)], [np.zeros_like(W), W]])
    P, r = canonicalize_symplectic_batch(pair, sample_null_batch(pair, 3, rng=4))
    assert r.tolist() == [min(pq)] * 3
    for Pi in P:
        assert_allclose(Pi.T @ Om @ Pi, om_target, atol=1e-7)
        assert_allclose(Pi.conj().T @ Hm @ Pi, h_target, atol=1e-7)


def test_normal_forms_reject_wrong_field():
    pC = build_pair(Family("C", 2, 1))
    pH = build_pair(Family("H", 2, 1))
    with pytest.raises(ValueError):
        canonicalize_unitary_batch(pH, sample_null_batch(pH, 1, rng=5))
    with pytest.raises(ValueError):
        canonicalize_symplectic_batch(pC, sample_null_batch(pC, 1, rng=5))


def nilpotent_null_element(pair):
    # rank-one nilpotent u (Fu)^* built from an isotropic vector u; it is
    # self-adjoint for the form, traceless, and squares to zero
    F = pair.hermitian_matrix
    u = np.array([1.0, 0.0, 1.0], dtype=complex)
    S = np.outer(u, u.conj()) @ F
    assert pair.m.residual(S) < 1e-12
    return S


def test_non_generic_inputs_are_rejected():
    pair = build_pair(Family("C", 2, 1))
    nv = make_null_batch(pair, nilpotent_null_element(pair)[None])
    assert not nv.genericity.any()
    with pytest.raises(ValueError):
        canonicalize_unitary_batch(pair, nv)
    with pytest.raises(ValueError):
        partner_null_batch(pair, nv)


def test_split_spectrum_buckets_and_order():
    vals = np.array([1 + 2j, -1 + 2j, 3 + 0j, -3 + 0j, 0.5j])
    up, real, down = split_spectrum(vals, 1e-8)
    assert [vals[i] for i in up] == [-1 + 2j, 0.5j, 1 + 2j]
    assert [vals[i] for i in real] == [-3 + 0j, 3 + 0j]
    assert down == []


def test_stratum_classification_and_stabilizers():
    pair = build_pair(Family("R", 2, 1))
    rng = np.random.default_rng(6)
    for stratum, want_dim in (("open", 0), ("two-step-nilpotent", 1),
                              ("one-step-nilpotent", 2)):
        batch = sample_so21_stratum_batch(pair, stratum, 20, rng=rng)
        assert [so21_orbit_class(S) for S in batch.S] == [stratum] * 20
        assert stabilizers_of_rays(pair, batch.S).dims.tolist() == [want_dim] * 20


def test_stratum_edge_cases():
    pair = build_pair(Family("R", 2, 1))
    with pytest.raises(ValueError):
        so21_orbit_class(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        sample_so21_stratum_batch(pair, "no-such-stratum", 1, rng=0)
    with pytest.raises(ValueError):
        sample_so21_stratum_batch(build_pair(Family("C", 2, 1)), "open", 1, rng=0)
    with pytest.raises(ValueError):
        sample_so21_stratum_batch(pair, "one-step-nilpotent", 0, rng=0)


def test_partner_on_canonical_diagonal_representative():
    # eigenvalue triple (mu, -2a, conj(mu)) with mu = a(1 + i sqrt 3)
    pair = build_pair(Family("C", 2, 1), "canonical-T")
    a = 1.0
    mu = a * (1.0 + 1j * SQRT3)
    S = np.diag([mu, -2.0 * a, np.conj(mu)])
    nv = make_null_batch(pair, S[None])
    assert nv.genericity.all()
    hat, pairing = partner_null_batch(pair, nv)
    # on the diagonal representative the partner is minus the conjugate
    # transpose, and the pairing is minus the squared Frobenius norm
    assert_allclose(hat[0], -np.conj(S).T, atol=1e-10)
    assert pairing[0] == pytest.approx(-12.0 * a * a, rel=1e-10)
    assert pairing[0] == pytest.approx(-pair.form(S, np.conj(S).T), rel=1e-10)


@pytest.mark.parametrize("field", ["R", "C", "H"])
def test_partner_shares_the_stabilizer(field):
    pair = build_pair(Family(field, 2, 1))
    batch = sample_null_batch(pair, 5, rng=7)
    hat, pairing = partner_null_batch(pair, batch)
    assert (pairing < 0).all()
    assert pair.m.residual(hat).max() < 1e-9
    st = stabilizers_of_rays(pair, batch.S)
    st_hat = stabilizers_of_rays(pair, hat)
    assert np.array_equal(st.dims, st_hat.dims)
    mismatch = stabilizer_mismatch(st, st_hat)
    for i in range(len(batch)):
        if st.dims[i]:
            # reference: each basis element's distance to the other subspace
            b, b_hat = st.subspace(i), st_hat.subspace(i)
            worst = max(b_hat.residual(b.basis).max(), b.residual(b_hat.basis).max())
            assert worst < 1e-8
            assert mismatch[i] == pytest.approx(worst, abs=1e-12)


def test_partner_spectrum_is_reflected():
    pair = build_pair(Family("C", 2, 1))
    nv = sample_null_batch(pair, 1, rng=8)
    hat, _ = partner_null_batch(pair, nv)
    got = np.linalg.eigvals(hat[0])
    want = -np.conj(np.linalg.eigvals(nv.S[0]))
    # equal as multisets: a sorted order can turn on the last bit of a
    # conjugate pair's real parts, so compare characteristic polynomials
    assert_allclose(np.poly(got), np.poly(want), atol=1e-9)


# ---------------------------------------------------------------------------
# batched sampling and stabilizer kernels
# ---------------------------------------------------------------------------


def loop_stabilizer_dim(pair, S):
    """Reference: one ray's system built bracket by bracket, then _kernel_cols."""
    cols = [realify(bracket(b, S)) for b in pair.h.basis]
    cols.append(-realify(S))
    return _kernel_cols(np.column_stack(cols), pair.tol).shape[1]


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("field,pq", [("R", (2, 1)), ("C", (2, 1)), ("H", (2, 1)),
                                      ("R", (3, 1)), ("C", (3, 1)), ("H", (3, 1))])
def test_batch_rows_pass_single_vector_certificates(field, pq, seed):
    pair = build_pair(Family(field, *pq))
    batch = sample_null_batch(pair, 25, rng=seed)
    assert len(batch) == 25
    for i in range(len(batch)):
        S = batch.S[i]
        nv = make_null_batch(pair, S[None])  # raises outside the tangent summand
        assert len(nv) == 1
        assert nv.genericity[0] and batch.genericity[i]
        assert nv.nullity_residual[0] < 1e-8
        assert pair.m.residual(S) < 1e-9
        assert abs(np.trace(S)) < 1e-9
        assert_allclose(batch.eigenvalues[i], nv.eigenvalues[0], atol=1e-12)
        assert batch.gap[i] == pytest.approx(nv.gap[0], rel=1e-12)
        assert batch.nullity_residual[i] == pytest.approx(nv.nullity_residual[0], abs=1e-15)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("field,pq", [("R", (2, 1)), ("C", (2, 1)), ("H", (2, 1)),
                                      ("R", (3, 1)), ("C", (3, 1)), ("H", (3, 1))])
def test_batched_stabilizers_match_per_ray(field, pq, seed):
    pair = build_pair(Family(field, *pq))
    batch = sample_null_batch(pair, 12, rng=seed)
    stabs = stabilizers_of_rays(pair, batch.S)
    for i in range(len(batch)):
        st = stabilizers_of_rays(pair, batch.S[i:i + 1])
        assert stabs.dims[i] == st.dims[0] == loop_stabilizer_dim(pair, batch.S[i])
        assert stabs.residuals[i] < 1e-8
        for X, ci in zip(st.bases[0], st.scales[0]):
            assert np.abs(bracket(X, batch.S[i]) - ci * batch.S[i]).max() < 1e-8
    codims = codimension_from_stabilizer(pair, stabs.dims)
    assert set(codims.tolist()) == {pair.family.n - 3}


@pytest.mark.parametrize("field,want", [("R", 0), ("C", 2), ("H", 9)])
def test_each_stacked_ray_keeps_its_own_rank_cut(field, want):
    # rays of very different scales share one stacked solve; each rank
    # decision is relative to that ray's own largest singular value
    pair = build_pair(Family(field, 2, 1))
    batch = sample_null_batch(pair, 6, rng=4)
    scales = np.array([1e6, 1e-4, 1.0, 1e2, 1e-2, 10.0])
    stabs = stabilizers_of_rays(pair, scales[:, None, None] * batch.S)
    assert stabs.dims.tolist() == [want] * 6


def test_batched_stabilizer_of_a_large_ray():
    pair = build_pair(Family("H", 6, 5))
    # one ray of either route fills a block: the census reference ray is alone
    assert trial_blocks(pair, 3, True) == trial_blocks(pair, 3, False) == [1, 1, 1]
    S = sample_null_batch(pair, 1, rng=0).S
    stabs = stabilizers_of_rays(pair, S)
    assert stabs.dims[0] == loop_stabilizer_dim(pair, S[0]) == 3 * 11
    assert stabs.residuals[0] < 1e-8


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("field", ["R", "C", "H"])
def test_block_cuts_do_not_change_results(field, seed, monkeypatch):
    pair = build_pair(Family(field, 2, 1))
    # a cap that forces several blocks and a short last one
    monkeypatch.setattr(orbits, "BLOCK_BYTES", 4 * orbits._ray_bytes(pair, False))
    sizes = trial_blocks(pair, 11, False)
    assert sizes == [3, 3, 3, 2]
    rng = np.random.default_rng(seed)
    batch = NullBatch.concat([sample_null_batch(pair, k, rng=rng) for k in sizes])
    assert len(batch) == 11 and batch.genericity.all()
    stabs = stabilizers_of_rays(pair, batch.S)
    start = 0
    for k in sizes:
        part = stabilizers_of_rays(pair, batch.S[start:start + k])
        assert np.array_equal(part.dims, stabs.dims[start:start + k])
        assert_allclose(part.residuals, stabs.residuals[start:start + k], atol=1e-12)
        start += k
    for i in range(11):
        alone = stabilizers_of_rays(pair, batch.S[i:i + 1])
        assert stabs.dims[i] == alone.dims[0]
        assert stabs.residuals[i] == pytest.approx(alone.residuals[0], abs=1e-12)
    partners, pairings = partner_null_batch(pair, batch)
    assert (pairings < 0).all()
    st_hat = stabilizers_of_rays(pair, partners)
    assert np.array_equal(stabs.dims, st_hat.dims)
    assert stabilizer_mismatch(stabs, st_hat).max() < 1e-8
    for i in (0, 10):
        hat, pairing = partner_null_batch(pair, batch.take([i]))
        assert_allclose(hat[0], partners[i], atol=1e-10)
        assert pairing[0] == pytest.approx(pairings[i], rel=1e-9)


@pytest.mark.parametrize("field", ["R", "C", "H"])
def test_stabilizer_residual_is_recomputed_from_the_basis(field):
    # the residual restates nothing from the solve: it is |[X, S] - c S|
    # over the stabilizer basis X with its ray coefficients c
    if field == "R":  # generic real rays have trivial stabilizers
        pair = build_pair(Family("R", 2, 1))
        batch = sample_so21_stratum_batch(pair, "one-step-nilpotent", 4, rng=9)
    else:
        pair = build_pair(Family(field, 3, 1))
        batch = sample_null_batch(pair, 4, rng=9)
    stabs = stabilizers_of_rays(pair, batch.S)
    assert stabs.dims.min() > 0
    for i in range(len(batch)):
        S = batch.S[i]
        want = max(np.linalg.norm(bracket(X, S) - ci * S)
                   for X, ci in zip(stabs.bases[i], stabs.scales[i]))
        assert stabs.residuals[i] == pytest.approx(want, rel=1e-6, abs=1e-15)
        assert stabs.residuals[i] < 1e-8


def test_batched_strata_classify_and_match_single_draws():
    # each stratum batch classifies as one stack and matrix by matrix, and
    # a k = 1 draw is a one-row stack of the same stratum
    pair = build_pair(Family("R", 2, 1))
    for stratum, want in (("open", 0), ("two-step-nilpotent", 1),
                          ("one-step-nilpotent", 2)):
        batch = sample_so21_stratum_batch(pair, stratum, 30, rng=11)
        assert all(so21_orbit_class(S) == stratum for S in batch.S)
        dims = stabilizers_of_rays(pair, batch.S).dims
        assert set(dims.tolist()) == {want}
        assert set(codimension_from_stabilizer(pair, dims).tolist()) == {want}
        assert so21_orbit_class(batch.S).tolist() == [stratum] * 30
        one = sample_so21_stratum_batch(pair, stratum, 1, rng=12)
        assert one.S.shape == (1, 3, 3) and so21_orbit_class(one.S[0]) == stratum


def test_batch_sampler_rejects_bad_requests():
    pair = build_pair(Family("C", 2, 1))
    with pytest.raises(ValueError):
        sample_null_batch(pair, 0, rng=0)
    with pytest.raises(ValueError):
        sample_null_batch(build_pair(Family("C", 1, 1)), 3, rng=0)
    # a gap threshold, read from the pair, that no generic spectrum of this
    # size meets
    coarse = build_pair(Family("C", 2, 1), tol=Tolerance(abs=1e-2))
    with pytest.raises(RuntimeError):
        sample_null_batch(coarse, 4, rng=0)


# ---------------------------------------------------------------------------
# stacked normal forms
# ---------------------------------------------------------------------------


def ref_canonicalize_unitary(pair, nv):
    """Reference: the per-ray unitary normal form of the one-row batch nv,
    one eigenline at a time."""
    S, F = nv.S[0], pair.carrier_form
    n = S.shape[0]
    w, V = np.linalg.eig(S)
    thr = 0.25 * nv.gap[0]
    upper, real, lower = split_spectrum(w, thr)
    r = len(upper)
    slots = [None] * n
    for i, idx in enumerate(upper):
        slots[i] = idx
        partner = min(lower, key=lambda j: abs(w[j] - np.conj(w[idx])))
        lower.remove(partner)
        slots[n - 1 - i] = partner
    mids = sorted(((idx, float((V[:, idx].conj() @ F @ V[:, idx]).real)) for idx in real),
                  key=lambda t: (-np.sign(t[1]), w[t[0]].real))
    for k, (idx, _) in enumerate(mids):
        slots[r + k] = idx
    cols = [V[:, slots[i]] / np.linalg.norm(V[:, slots[i]]) for i in range(n)]
    for i in range(r):
        c = np.conj(cols[i]) @ F @ cols[n - 1 - i]
        if abs(c) < 1e-10:
            raise ValueError("degenerate pairing between conjugate eigenlines")
        cols[n - 1 - i] = cols[n - 1 - i] / c
    for k in range(r, n - r):
        s = float((np.conj(cols[k]) @ F @ cols[k]).real)
        if abs(s) < 1e-10:
            raise ValueError("degenerate self-pairing on a real eigenline")
        cols[k] = cols[k] / np.sqrt(abs(s))
    return np.column_stack(cols), r


def batch_plane(nv, i):
    """Reference: cluster i's plane of the one-row batch nv, its two columns
    of nv.vectors made orthonormal by one Gram-Schmidt step, as
    (N, 2) columns; the first is the first column, normalized."""
    V = nv.vectors[0]
    a = V[:, 2 * i] / np.linalg.norm(V[:, 2 * i])
    b = V[:, 2 * i + 1] - (np.conj(a) @ V[:, 2 * i + 1]) * a
    return np.column_stack([a, b / np.linalg.norm(b)])


def ref_canonicalize_symplectic(pair, nv):
    """Reference: the per-ray symplectic normal form of the one-row batch
    nv, one eigenspace and one 2 x 2 step at a time; returns (P, r).  Each
    eigenspace is its cluster's plane of the batch (batch_plane), checked
    against scipy's null_space of S - lam at the cluster value lam."""
    M, n, vals = nv.S[0], pair.family.n, nv.eigenvalues[0]
    Hm, Om = pair.carrier_form, omega(pair)
    eye = np.eye(n)
    Jstr = np.block([[0 * eye, -eye], [eye, 0 * eye]]).astype(complex)

    def h(x, y):
        return np.conj(x) @ Hm @ y

    def om(x, y):
        return x @ Om @ y

    def cmap(x):
        return Jstr @ np.conj(x)

    def eigenspace(i):
        E = null_space(M - vals[i] * np.eye(2 * n), rcond=1e-8)
        if E.shape[1] != 2:
            raise ValueError("eigenspace is not two-dimensional; spectrum not generic")
        plane = batch_plane(nv, i)
        assert subspace_angles(plane, E).max() < 1e-10
        return plane

    upper, real, lower = split_spectrum(vals, 0.25 * nv.gap[0])
    r = len(upper)
    slots = upper + real
    for idx in upper:
        partner = min(lower, key=lambda j: abs(vals[j] - np.conj(vals[idx])))
        lower.remove(partner)
        slots.insert(r + len(real), partner)
    vs, ws = [None] * n, [None] * n
    for k in range(r, n - r):
        v = eigenspace(slots[k])[:, 0]
        w = cmap(v)
        Hk = np.array([[h(v, v), h(v, w)], [h(w, v), h(w, w)]])
        _, U = np.linalg.eigh(Hk)
        U = U.copy()
        U[:, 0] = U[:, 0] / np.linalg.det(U)
        B = np.column_stack([v, w]) @ (U * np.sqrt(1.0 / om(v, w)))
        vs[k], ws[k] = B[:, 0], B[:, 1]
    for i in range(r):
        E1, E2 = eigenspace(slots[i]), eigenspace(slots[n - 1 - i])
        v = E1[:, 0]
        w_i = cmap(v)
        scores = [abs(om(v, cmap(E2[:, j]))) for j in range(2)]
        if max(scores) < 1e-10:
            raise ValueError("degenerate symplectic pairing between eigenspaces")
        u = E2[:, int(np.argmax(scores))]
        w_p = cmap(u)
        w_p = w_p / om(v, w_p)
        u = u / om(u, w_i)
        H2 = np.array([[h(v, u), h(v, w_i)], [h(w_p, u), h(w_p, w_i)]])
        C = np.column_stack([u, w_i]) @ (np.sqrt(np.linalg.det(H2)) * np.linalg.inv(H2))
        vs[i], ws[i] = v, C[:, 1]
        vs[n - 1 - i], ws[n - 1 - i] = C[:, 0], w_p
    return np.column_stack(vs + ws), r


def ref_gram_residual(pair, P, r):
    """Reference Gram residual of one normal-form basis, as the orbits suite
    computed it per ray."""
    fam = pair.family
    W = t_form(fam.p, fam.q, r)
    if fam.field == "C":
        return np.abs(P.conj().T @ pair.hermitian_matrix @ P - W).max()
    Z = np.zeros_like(W)
    return max(np.abs(P.T @ omega(pair) @ P - np.block([[Z, W], [-W, Z]])).max(),
               np.abs(P.conj().T @ pair.carrier_form @ P - np.block([[W, Z], [Z, W]])).max())


def column_blocks(pair, r):
    """Column groups a normal-form basis is unique up to: one column each
    (a unit phase), except that for the quaternionic family a real
    eigenvalue's pair of columns (k, n + k) may mix by a 2 x 2 unitary,
    since its Hermitian Gram is a multiple of the identity."""
    n = pair.family.n
    if pair.family.field == "C":
        return [[j] for j in range(n)]
    corner = list(range(r)) + list(range(n - r, n))
    return ([[k] for k in corner] + [[n + k] for k in corner]
            + [[k, n + k] for k in range(r, n - r)])


def assert_same_up_to_freedom(pair, P, ref, r):
    for cols in column_blocks(pair, r):
        A, B = ref[:, cols], P[:, cols]
        X = np.linalg.lstsq(A, B, rcond=None)[0]
        assert np.abs(A @ X - B).max() < 1e-10
        assert_allclose(X.conj().T @ X, np.eye(len(cols)), atol=1e-10)


def mixed_corner_batch(pair, rng):
    """Rows of corner size min(p, q) from the sampler, then hand-made rows of
    corner size 1: spectrum (mu, 1/2, -5/2, conj mu) with mu = 1 + i sqrt(17)/2
    in a frame where the form is t_form(p, q, 1), moved by a random
    isotropy conjugation."""
    fam = pair.family
    assert (fam.p, fam.q) == (2, 2)
    mu = 1.0 + 1j * np.sqrt(4.25)
    P = congruence(pair.hermitian_matrix, t_form(2, 2, 1))
    X = P @ np.diag([mu, 0.5, -2.5, np.conj(mu)]) @ np.linalg.inv(P)
    if fam.field == "H":
        X = quat_embed(QMat(X, np.zeros_like(X)))
    S = orbits._isotropy_conjugate(pair, np.broadcast_to(X, (3,) + X.shape), rng)
    hand = make_null_batch(pair, S)
    assert hand.genericity.all()
    return NullBatch.concat([sample_null_batch(pair, 4, rng=rng), hand]).take(
        [0, 4, 1, 5, 2, 3, 6])


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("field,pq", [("C", (2, 1)), ("C", (2, 2)), ("C", (3, 1)),
                                      ("H", (2, 1)), ("H", (2, 2)), ("H", (3, 1))])
def test_batched_normal_forms_match_per_ray_reference(field, pq, seed):
    pair = build_pair(Family(field, *pq))
    batch = sample_null_batch(pair, 10, rng=seed)
    canonicalize, ref_canonicalize = {
        "C": (canonicalize_unitary_batch, ref_canonicalize_unitary),
        "H": (canonicalize_symplectic_batch, ref_canonicalize_symplectic)}[field]
    P, r = canonicalize(pair, batch)
    assert r.tolist() == [min(pq)] * len(batch)
    res = orbits.normal_form_residuals(pair, P, r)
    for i in range(len(batch)):
        nv = batch.take([i])
        ref, ref_r = ref_canonicalize(pair, nv)
        assert r[i] == ref_r
        # the k = 1 stack is the same kernel on one row
        one, one_r = canonicalize(pair, nv)
        assert one_r.tolist() == [ref_r]
        assert_same_up_to_freedom(pair, P[i], ref, ref_r)
        assert_same_up_to_freedom(pair, one[0], ref, ref_r)
        assert res[i] == pytest.approx(ref_gram_residual(pair, ref, ref_r), abs=1e-12)
        assert res[i] < 1e-9


@pytest.mark.parametrize("field", ["C", "H"])
def test_normal_forms_of_a_stack_with_mixed_corner_sizes(field):
    pair = build_pair(Family(field, 2, 2))
    batch = mixed_corner_batch(pair, np.random.default_rng(13))
    canonicalize, ref_canonicalize = {
        "C": (canonicalize_unitary_batch, ref_canonicalize_unitary),
        "H": (canonicalize_symplectic_batch, ref_canonicalize_symplectic)}[field]
    P, r = canonicalize(pair, batch)
    assert r.tolist() == [2, 1, 2, 1, 2, 2, 1]
    res = orbits.normal_form_residuals(pair, P, r)
    for i in range(len(batch)):
        ref, ref_r = ref_canonicalize(pair, batch.take([i]))
        assert ref_r == r[i]
        assert_same_up_to_freedom(pair, P[i], ref, ref_r)
        assert res[i] == pytest.approx(ref_gram_residual(pair, ref, ref_r), abs=1e-12)
    if field == "C":
        assert res.max() < 1e-9
        # the corner size a basis reaches is its own: the other size misses
        assert (orbits.normal_form_residuals(pair, P, 3 - r) > 0.1).all()
    else:
        # the symplectic form pairs every real eigenline to +1, so only the
        # rows without a negative real eigenline (here r = 2) reach t_form
        assert res[r == 2].max() < 1e-9
        assert (res[r == 1] > 1.0).all()


def test_batched_normal_forms_reject_bad_rows():
    pC = build_pair(Family("C", 2, 1))
    pH = build_pair(Family("H", 2, 1))
    bC = sample_null_batch(pC, 3, rng=14)
    bH = sample_null_batch(pH, 3, rng=14)
    with pytest.raises(ValueError, match="complex family"):
        orbits.canonicalize_unitary_batch(pH, bH)
    with pytest.raises(ValueError, match="quaternionic family"):
        orbits.canonicalize_symplectic_batch(pC, bC)
    with pytest.raises(ValueError):
        orbits.normal_form_residuals(build_pair(Family("R", 2, 1)), bC.S, 1)
    # one non-generic row fails the whole stack
    mixed = make_null_batch(pC, np.stack([bC.S[0], nilpotent_null_element(pC), bC.S[1]]))
    assert mixed.genericity.tolist() == [True, False, True]
    with pytest.raises(ValueError, match="generic spectrum"):
        orbits.canonicalize_unitary_batch(pC, mixed)
    N = np.zeros((3, 3), dtype=complex)
    nil = quat_embed(QMat(nilpotent_null_element(pC), N))
    mixed = make_null_batch(pH, np.stack([bH.S[0], nil]))
    assert mixed.genericity.tolist() == [True, False]
    with pytest.raises(ValueError, match="generic spectrum"):
        orbits.canonicalize_symplectic_batch(pH, mixed)
    # a row flagged generic whose listed eigenvalue is not in its spectrum
    # has a trivial eigenspace there, which the eigen-residual test of
    # _cluster_planes rejects; the kernel reads the upper half-plane values
    # (and their conjugates), so the shifted value is one of those
    vals = bH.eigenvalues.copy()
    vals[1, np.flatnonzero(vals[1].imag > 0)[0]] += 0.5
    bad = NullBatch(bH.S, vals, bH.vectors, bH.genericity, bH.nullity_residual, bH.gap)
    with pytest.raises(ValueError, match="two-dimensional"):
        orbits.canonicalize_symplectic_batch(pH, bad)
    with pytest.raises(ValueError, match="two-dimensional"):
        ref_canonicalize_symplectic(pH, bad.take([1]))


@pytest.mark.parametrize("pq", [(2, 1), (3, 2), (2, 2), (3, 1)])
def test_cluster_planes_are_the_null_spaces(pq):
    # each plane is orthonormal and spans scipy's null_space(S - lam) at its
    # listed cluster value
    pair = build_pair(Family("H", *pq))
    batch = sample_null_batch(pair, 6, rng=17)
    planes = orbits._cluster_planes(batch)
    N, n = pair.carrier_dim, pair.family.n
    assert planes.shape == (6, n, 2, N)
    for i in range(6):
        for j in range(n):
            E = planes[i, j]
            assert_allclose(E.conj() @ E.T, np.eye(2), atol=1e-12)
            ref = null_space(batch.S[i] - batch.eigenvalues[i, j] * np.eye(N), rcond=1e-8)
            assert ref.shape[1] == 2
            assert subspace_angles(E.T, ref).max() < 1e-10
            # the plane's first vector is the batch's column, normalized
            col = batch.vectors[i, :, 2 * j]
            assert_allclose(E[0], col / np.linalg.norm(col), rtol=0, atol=1e-15)


def test_a_cluster_with_two_equal_columns_is_not_a_plane():
    pair = build_pair(Family("H", 2, 1))
    batch = sample_null_batch(pair, 3, rng=18)
    V = batch.vectors.copy()
    V[1, :, 3] = V[1, :, 2]  # row 1, cluster 1
    bad = NullBatch(batch.S, batch.eigenvalues, V, batch.genericity,
                    batch.nullity_residual, batch.gap)
    with pytest.raises(ValueError, match="two-dimensional"):
        canonicalize_symplectic_batch(pair, bad)
    with pytest.raises(ValueError, match="two-dimensional"):
        orbits._cluster_planes(bad.take([1]))
    orbits._cluster_planes(bad.take([0, 2]))  # the other rows are planes


def test_normal_form_targets_are_built_once():
    pair = build_pair(Family("H", 2, 2))
    assert orbits._corner_targets(2, 2) is orbits._corner_targets(2, 2)
    T, om_target, h_target = orbits._corner_targets(2, 2)
    for r in range(3):
        W = t_form(2, 2, r)
        Z = np.zeros_like(W)
        assert np.array_equal(T[r], W)
        assert np.array_equal(om_target[r], np.block([[Z, W], [-W, Z]]))
        assert np.array_equal(h_target[r], np.block([[W, Z], [Z, W]]))
    assert not any(X.flags.writeable for X in (T, om_target, h_target))
    assert pair.omega_matrix is pair.omega_matrix
    assert np.array_equal(pair.omega_matrix, omega(pair))
    assert not pair.omega_matrix.flags.writeable


# ---------------------------------------------------------------------------
# the frame of m: projected stabilizer systems and membership residuals
# ---------------------------------------------------------------------------


def full_system(pair, S):
    """Reference: every realified row of [h_i, S] and -S, for each ray."""
    cols = [realify(bracket(pair.h.basis, S[:, None])), -realify(S)[:, None]]
    return np.concatenate(cols, axis=1).transpose(0, 2, 1)


FRAME_CASES = [(field, pq) for field in "RCH" for pq in [(2, 1), (3, 2)]]


def trimmed_system_cases():
    for field in "RCH":
        for pq in [(2, 1), (3, 2)]:
            yield field, pq, 5
        yield field, (6, 5), 1


@pytest.mark.parametrize("field,pq,k", list(trimmed_system_cases()))
def test_trimmed_stabilizer_system_matches_the_full_one(field, pq, k):
    pair = build_pair(Family(field, *pq))
    rng = np.random.default_rng(15)
    S = sample_null_batch(pair, k, rng=rng).S
    if pq == (2, 1) and field == "R":  # nontrivial stabilizers as well
        S = np.concatenate([S, sample_so21_stratum_batch(pair, "one-step-nilpotent", 2,
                                                          rng=rng).S])
    full = full_system(pair, S)
    proj = orbits._stabilizer_system(pair, S)
    dm = pair.m.dim
    assert proj.shape == (len(S), dm, pair.h.dim + 1)
    assert full.shape[1] == 2 * pair.carrier_dim ** 2
    # every column lies in m, so the frame keeps the full system's Gram
    # matrix; for H the top and bottom carrier rows contribute equally to
    # Q^T times the full system, and only the top ones are kept: a factor 2
    factor = 2 if field == "H" else 1
    assert_allclose(np.swapaxes(full, 1, 2) @ full,
                    factor ** 2 * (np.swapaxes(proj, 1, 2) @ proj), atol=1e-12)
    s_full = np.linalg.svd(full, compute_uv=False)
    s_proj = np.linalg.svd(proj, compute_uv=False)
    assert_allclose(s_full[:, :s_proj.shape[1]], factor * s_proj, rtol=1e-10, atol=1e-12)
    # the full system has no rank beyond dim m
    assert np.abs(s_full[:, dm:]).max(initial=0.0) < 1e-12 * s_full[:, 0].max()
    stabs = stabilizers_of_rays(pair, S)
    for i in range(len(S)):
        ker = _kernel_cols(full[i], pair.tol)
        assert stabs.dims[i] == ker.shape[1]
        if ker.shape[1]:
            # same kernel span: each basis projects onto the other exactly;
            # the kernel vectors are (h coordinates of X, c) as columns
            got = np.column_stack([pair.h.coords(stabs.bases[i]), stabs.scales[i]]).T
            assert_allclose(ker @ (ker.T @ got), got, atol=1e-10)
            assert_allclose(got @ (got.T @ ker), ker, atol=1e-10)
        assert stabs.residuals[i] < 1e-8


@pytest.mark.parametrize("field,pq", FRAME_CASES)
def test_m_frame_is_an_orthonormal_frame_of_m(field, pq, monkeypatch):
    pair = build_pair(Family(field, *pq))
    # the frame is built on first use only, and not for coords
    pair.m.coords(pair.m.basis)
    assert "frame" not in vars(pair.m)
    qr_calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a: qr_calls.append(a.shape) or qr(a))
    Q = pair.m.frame
    N = pair.carrier_dim
    assert Q.shape == (2 * N * N, pair.m.dim)
    assert_allclose(Q.T @ Q, np.eye(pair.m.dim), atol=1e-12)
    M = realify(pair.m.basis)
    assert np.linalg.norm(M - (M @ Q) @ Q.T, axis=1).max() < 1e-12
    pair.m.residual(pair.m.basis)
    # computed once per subspace, with at most one QR: of the shared block only
    assert pair.m.frame is Q and len(qr_calls) <= 1
    # the rows the stabilizer systems keep
    if field == "R":  # the imaginary half is zero
        assert np.abs(Q[N * N:]).max() == 0.0
        assert_allclose(Q[:N * N].T @ Q[:N * N], np.eye(pair.m.dim), atol=1e-12)
    if field == "H":  # the top n rows of the carrier, real and imaginary parts
        t = pair.family.n * N
        top = np.sqrt(2.0) * np.concatenate([Q[:t], Q[N * N:N * N + t]])
        assert_allclose(top.T @ top, np.eye(pair.m.dim), atol=1e-12)


def off_space_stack(pair, space, rng):
    """Matrices outside a summand of the pair: a random complex matrix, and
    per field one that breaks the pattern of the summand (an imaginary part
    for R, a bottom block that is not the quaternionic conjugate of the top
    one for H)."""
    N = pair.carrier_dim
    out = [rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))]
    X = space.random_element(rng)
    if pair.family.field == "R":
        out.append(X + 0.1j * space.random_element(rng))
    if pair.family.field == "H":
        n = pair.family.n
        Y = X.copy()
        Y[n:, n:] += 0.1 * rng.standard_normal((n, n))
        out.append(Y)
    return np.stack(out)


# appended, so that the FRAME_CASES ids keep their indices
@pytest.mark.parametrize("field,pq", FRAME_CASES + [(field, (6, 5)) for field in "RCH"])
def test_frame_residual_matches_least_squares(field, pq):
    # reference: the least-squares projection combine(coords(X)), solved in
    # the stored basis without the frame
    pair = build_pair(Family(field, *pq))
    rng = np.random.default_rng(21)
    scales = np.array([1e-6, 1e-3, 1.0, 1e3, 1e6])
    for name in "hmg":
        space = getattr(pair, name)
        inside = scales[:, None, None] * space.random_element(rng, norm=1.0, size=len(scales))
        outside = off_space_stack(pair, space, rng)
        for S in (inside, 1e-6 * outside, outside, 1e6 * outside):
            # each row at its own scale
            norms = np.linalg.norm(S, axis=(1, 2))
            ref = space.combine(space.coords(S))
            gap = np.abs(space.residual(S) - np.linalg.norm(S - ref, axis=(1, 2)))
            assert (gap <= 1e-12 * norms).all(), (name, gap / norms)
            gap = np.linalg.norm(space.project(S) - ref, axis=(1, 2))
            assert (gap <= 1e-12 * norms).all(), (name, gap / norms)
        assert (space.residual(inside) < 1e-12 * scales).all()
        assert (space.residual(outside) > 1e-2).all()
        assert space.contains(inside).all() and not space.contains(outside).any()
    inside = pair.m.random_element(rng, norm=1.0, size=len(scales)) * scales[:, None, None]
    make_null_batch(pair, inside)  # members are accepted, null or not
    for S in off_space_stack(pair, pair.m, rng):
        with pytest.raises(ValueError, match="tangent summand"):
            make_null_batch(pair, S[None])


def test_blocks_are_sized_by_the_route_in_use():
    # the stabilizers census takes the route commutant_is_smaller picks, the
    # orbits census the SVD route; each block keeps one ray's bytes back
    steps = {}
    for field in "RCH":
        pair = build_pair(Family(field, 2, 1))
        for commutant in (False, True):
            steps[field, commutant] = trial_blocks(pair, 10 ** 6, commutant)[0]
            assert steps[field, commutant] == max(
                1, orbits.BLOCK_BYTES // orbits._ray_bytes(pair, commutant) - 1)
    assert steps == {("R", False): 424, ("R", True): 302, ("C", False): 203,
                     ("C", True): 317, ("H", False): 32, ("H", True): 27}
    # at (6, 5) the scaling census's four trials: one block for R and C on
    # the commutant route, one ray per block for H
    for field, sizes in (("R", [4]), ("C", [4]), ("H", [1, 1, 1, 1])):
        pair = build_pair(Family(field, 6, 5))
        assert commutant_is_smaller(pair)
        assert trial_blocks(pair, 4, True) == sizes


@pytest.mark.parametrize("report", ["stabilizers", "orbits"])
@pytest.mark.parametrize("pq", [(2, 1), (3, 2)], ids=["21", "32"])
@pytest.mark.parametrize("field", ["R", "C", "H"])
def test_one_full_block_stays_within_block_bytes(field, pq, report):
    # every array a census block allocates, traced while one full block
    # runs; the pair and its cached frames are built before
    pair = build_pair(Family(field, *pq))
    run = {"stabilizers": stabilizers_report, "orbits": orbits_report}[report]
    commutant = report == "stabilizers" and commutant_is_smaller(pair)
    run(pair, 1)
    k = trial_blocks(pair, 10 ** 6, commutant)[0]
    tracemalloc.start()
    try:
        rep = run(pair, k, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c.status != "fail" for c in rep.checks)
    assert peak <= orbits.BLOCK_BYTES


# ---------------------------------------------------------------------------
# per-pair sampling frames and stacked strata labels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field", ["R", "C", "H"])
def test_sampling_congruence_is_computed_once_per_pair(field, monkeypatch):
    calls = []
    real = pairs.congruence

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(pairs, "congruence", counted)
    pair = build_pair(Family(field, 2, 1))
    for seed in range(3):
        sample_null_batch(pair, 4, rng=seed)
    assert len(calls) == 1
    if field == "R":
        for stratum in ("two-step-nilpotent", "one-step-nilpotent"):
            sample_so21_stratum_batch(pair, stratum, 3, rng=0)
        assert len(calls) == 2  # the corner frame of the strata
    P, P_inv = pair.sampling_frame
    assert pair.sampling_frame[0] is P
    assert_allclose(P @ P_inv, np.eye(3), atol=1e-12)
    assert not P.flags.writeable and not P_inv.flags.writeable
    Pc, _ = pair.corner_frame
    assert_allclose(Pc.conj().T @ pair.hermitian_matrix @ Pc, t_form(2, 1, 1), atol=1e-10)
    # a fresh pair gets its own frame
    assert build_pair(Family(field, 2, 1)).sampling_frame[0] is not P


def test_stacked_strata_labels_judge_each_matrix_at_its_own_norm():
    pair = build_pair(Family("R", 2, 1))
    rng = np.random.default_rng(16)
    S = np.concatenate([sample_so21_stratum_batch(pair, s, 4, rng=rng).S
                        for s in STRATA])
    scales = np.tile([1e-6, 1.0, 1e3, 1e6], 3)
    labels = so21_orbit_class(scales[:, None, None] * S)
    assert labels.shape == (12,)
    assert labels.tolist() == [s for s in STRATA for _ in range(4)]
    assert labels.tolist() == [so21_orbit_class(x * M) for x, M in zip(scales, S)]
    assert isinstance(so21_orbit_class(S[0]), str)
    with pytest.raises(ValueError):
        so21_orbit_class(np.concatenate([S[:2], np.zeros((1, 3, 3))]))


STRATA = ("open", "two-step-nilpotent", "one-step-nilpotent")


# ---------------------------------------------------------------------------
# the orbits census compares a ray's stabilizer with its partner's as
# kernels of the two stabilizer systems, and counts strata dimensions from
# singular values alone
# ---------------------------------------------------------------------------


PARTNER_CASES = [(f, pq) for f in "RCH" for pq in ((2, 1), (3, 2))]


@pytest.mark.parametrize("field,pq", PARTNER_CASES)
def test_kernel_comparison_agrees_with_the_basis_comparison(field, pq):
    pair = build_pair(Family(field, *pq))
    batch = sample_null_batch(pair, 6, rng=21)
    partners, _ = partner_null_batch(pair, batch)
    dims, dims_hat, theta = ray_stabilizer_mismatch(pair, batch.S, partners)
    st = stabilizers_of_rays(pair, batch.S)
    st_hat = stabilizers_of_rays(pair, partners)
    assert np.array_equal(dims, st.dims) and np.array_equal(dims_hat, st_hat.dims)
    assert dims.tolist() == [EXPECTED_STAB_DIM[field](pair.family.n)] * 6
    assert theta.shape == (6,) and theta.max() < 1e-9
    assert stabilizer_mismatch(st, st_hat).max() < 1e-9


def _kernel_reference(pair, S):
    """Each ray's kernel of its stabilizer system, by scipy's null_space."""
    return [null_space(A, rcond=1e-10) for A in orbits._stabilizer_system(pair, S)]


@pytest.mark.parametrize("field,pq", [("C", (2, 1)), ("H", (2, 1)), ("C", (3, 2))])
def test_kernel_comparison_is_the_root_sum_of_squared_sines(field, pq):
    # another ray's stabilizer: the principal angles are far from 0, and
    # the comparison |A K|_F / sigma_r(A) lies between sqrt(sum sin^2) over
    # them and sigma_1 / sigma_r(A) times that, A the second ray's system
    pair = build_pair(Family(field, *pq))
    batch = sample_null_batch(pair, 4, rng=22)
    S, T = batch.S, np.roll(batch.S, 1, axis=0)
    _, _, theta = ray_stabilizer_mismatch(pair, S, T)
    _, _, back = ray_stabilizer_mismatch(pair, T, S)
    want = np.array([np.sqrt((np.sin(subspace_angles(a, b)) ** 2).sum())
                     for a, b in zip(_kernel_reference(pair, S), _kernel_reference(pair, T))])
    assert min(want) > 0.1
    for got, other in ((theta, T), (back, S)):
        s = np.linalg.svd(orbits._stabilizer_system(pair, other), compute_uv=False)
        rank = (s > pair.tol.rank_rel * s[:, :1]).sum(axis=1)
        ratio = s[:, 0] / s[np.arange(len(s)), rank - 1]
        assert (got >= want * (1 - 1e-9)).all()
        assert (got <= ratio * want * (1 + 1e-9)).all()
    # a ray against itself
    assert ray_stabilizer_mismatch(pair, S, S)[2].max() < 1e-12


@pytest.mark.parametrize("corrupt", ["missing", "rotated"])
@pytest.mark.parametrize("field", ["C", "H"])
def test_a_corrupted_kernel_basis_fails_the_partner_check(field, corrupt, monkeypatch):
    # the ray side's kernel basis K is the last dims rows of its V^T; one
    # vector missing from it (the complement's last row in its place), or
    # one vector rotated by 0.3 out of the kernel, must fail the check
    pair = build_pair(Family(field, 2, 1))
    name = f"{pair.family.tag}_stab_equals_partner_stab"
    checks = {c.name: c for c in orbits_report(pair, 6, seed=3).checks}
    assert checks[name].status == "pass"
    ranks = orbits._stabilizer_ranks
    d = EXPECTED_STAB_DIM[field](3)

    def corrupted(pair, S, vt=False):
        rank, v = ranks(pair, S, vt=vt)
        assert vt and (v.shape[1] - rank == d).all()
        v = v.copy()
        first, last = v[:, -d].copy(), v[:, -d - 1].copy()  # kernel, complement
        if corrupt == "missing":
            v[:, -d] = last
        else:
            v[:, -d] = np.cos(0.3) * first + np.sin(0.3) * last
        return rank, v

    monkeypatch.setattr(orbits, "_stabilizer_ranks", corrupted)
    checks = {c.name: c for c in orbits_report(pair, 6, seed=3).checks}
    assert checks[name].status == "fail"
    assert checks[name].observed >= (1.0 if corrupt == "missing" else np.sin(0.3)) * (1 - 1e-9)


@pytest.mark.parametrize("field,pq", [(f, pq) for f in "CH" for pq in ((2, 1), (3, 2))])
def test_rolled_partners_fail_the_partner_stabilizer_check(field, pq, monkeypatch):
    # generic R rays have trivial stabilizers, so only C and H can tell
    pair = build_pair(Family(field, *pq))
    name = f"{pair.family.tag}_stab_equals_partner_stab"
    checks = {c.name: c for c in orbits_report(pair, 6, seed=3).checks}
    assert checks[name].status == "pass"
    partner = orbits.partner_null_batch

    def rolled(pair, batch):
        hat, pairings = partner(pair, batch)
        return np.roll(hat, 1, axis=0), pairings

    monkeypatch.setattr(orbits, "partner_null_batch", rolled)
    checks = {c.name: c for c in orbits_report(pair, 6, seed=3).checks}
    assert checks[name].status == "fail" and checks[name].observed > 0.1
    assert checks[f"{pair.family.tag}_stab_dims_match_partner"].status == "pass"


def test_tall_systems_take_kernel_vectors_only_where_a_row_has_one(monkeypatch):
    # R(2, 1) has a 5 x 4 system per ray.  Generic rays have trivial
    # stabilizers, so their comparison takes singular values alone; a block
    # with nilpotent stratum rays in it takes vectors, and its kernels match
    # the dimensions of stabilizer_dims and lie in their own systems
    pair = build_pair(Family("R", 2, 1))
    assert pair.m.dim >= pair.h.dim + 1
    batch = sample_null_batch(pair, 20, rng=24)
    partners, _ = partner_null_batch(pair, batch)
    strata = [sample_so21_stratum_batch(pair, name, 2, rng=24).S for name in STRATA[1:]]
    mixed = np.concatenate([batch.S[:3].astype(complex), *strata])
    calls = []
    svd = np.linalg.svd

    def recording(a, *args, **kw):
        calls.append(kw.get("compute_uv", True))
        return svd(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "svd", recording)
    dims, dims_hat, theta = ray_stabilizer_mismatch(pair, batch.S, partners)
    assert calls == [False, False]
    assert not dims.any() and not dims_hat.any() and not theta.any()
    calls.clear()
    dims, dims_hat, theta = ray_stabilizer_mismatch(pair, mixed, mixed)
    assert calls == [False, True, False]
    assert dims.tolist() == dims_hat.tolist() == [0, 0, 0, 1, 1, 2, 2]
    assert np.array_equal(dims, stabilizer_dims(pair, mixed))
    assert theta.max() < 1e-12


def test_strata_dimensions_from_singular_values_match_the_kernels():
    pair = build_pair(Family("R", 2, 1))
    rng = np.random.default_rng(23)
    for stratum, want in zip(STRATA, (0, 1, 2)):
        S = sample_so21_stratum_batch(pair, stratum, 50, rng=rng).S
        dims = stabilizer_dims(pair, S)
        assert np.array_equal(dims, stabilizers_of_rays(pair, S).dims)
        assert dims.tolist() == [want] * 50
    for field in "CH":
        pair = build_pair(Family(field, 2, 1))
        S = sample_null_batch(pair, 50, rng=rng).S
        assert np.array_equal(stabilizer_dims(pair, S), stabilizers_of_rays(pair, S).dims)


@pytest.mark.parametrize("field", ["R", "C", "H"])
def test_orbits_report_builds_no_basis_and_no_span_test(field, monkeypatch):
    pair = build_pair(Family(field, 2, 1))
    pair.m.frame  # the frame of m is a cache of the pair, built once

    def forbidden(*args, **kwargs):
        raise AssertionError("the orbits census builds no stabilizer basis")

    # a QR would be the span test of a basis comparison
    monkeypatch.setattr(orbits, "_kernel_bases", forbidden)
    monkeypatch.setattr(np.linalg, "qr", forbidden)
    rep = orbits_report(pair, 8, seed=4)
    assert rep.checks and all(c.status == "pass" for c in rep.checks)


# ---------------------------------------------------------------------------
# the spectral record: make_null_batch is the one place a ray is eigen-solved
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field,pq", FRAME_CASES)
def test_batch_vectors_are_eigenvectors_of_their_values(field, pq):
    pair = build_pair(Family(field, *pq))
    batch = sample_null_batch(pair, 6, rng=11)
    S, V = batch.S, batch.vectors
    assert V.shape == S.shape and V.dtype == np.complex128
    # column i belongs to eigenvalue i; for H columns 2i and 2i + 1 to cluster i
    lam = np.repeat(batch.eigenvalues, 2, axis=1) if field == "H" else batch.eigenvalues
    assert lam.shape == V.shape[:2]
    res = np.linalg.norm(S @ V - V * lam[:, None, :], axis=1)
    rel = res / (np.linalg.norm(S, axis=(1, 2))[:, None] * np.linalg.norm(V, axis=1))
    assert (rel < 1e-10).all()
    # the columns are a basis: the commutant route inverts them
    assert (np.linalg.svd(V, compute_uv=False)[:, -1] > 1e-6).all()


@pytest.mark.parametrize("field,pq", FRAME_CASES)
def test_take_and_concat_carry_the_vectors(field, pq):
    pair = build_pair(Family(field, *pq))
    a, b = sample_null_batch(pair, 4, rng=12), sample_null_batch(pair, 3, rng=13)
    assert np.array_equal(a.take([3, 1]).vectors, a.vectors[[3, 1]])
    assert np.array_equal(a.take(np.array([True, False, False, True])).vectors,
                          a.vectors[[0, 3]])
    both = NullBatch.concat([a, b])
    assert np.array_equal(both.vectors, np.concatenate([a.vectors, b.vectors]))


@pytest.mark.parametrize("field", ["R", "C", "H"])
def test_census_eigen_solves_each_certified_stack_once(field, monkeypatch):
    # stabilizers (both routes) and orbits (partners, normal forms, strata)
    # make one eig per make_null_batch call and no other spectral call
    pair = build_pair(Family(field, 2, 1))
    eig, certify = np.linalg.eig, orbits.make_null_batch
    eigs, made = [], []

    def counted_eig(a):
        eigs.append(a.shape)
        return eig(a)

    def counted_certify(pair, S):
        before = len(eigs)
        batch = certify(pair, S)
        made.append(len(eigs) - before)
        return batch

    def forbidden(*args, **kwargs):
        raise AssertionError("no eigvals call is left")

    monkeypatch.setattr(np.linalg, "eig", counted_eig)
    monkeypatch.setattr(np.linalg, "eigvals", forbidden)
    monkeypatch.setattr(orbits, "make_null_batch", counted_certify)
    for report in (stabilizers_report, orbits_report):
        rep = report(pair, 12, seed=5)
        assert rep.checks and all(c.status == "pass" for c in rep.checks)
    assert made and made == [1] * len(made)
    assert len(eigs) == len(made)


@pytest.mark.parametrize("field", ["R", "C", "H"])
def test_partners_normal_forms_and_commutant_need_no_new_eig(field, monkeypatch):
    pair = build_pair(Family(field, 2, 1))
    batch = sample_null_batch(pair, 5, rng=6)

    def forbidden(*args, **kwargs):
        raise AssertionError("the ray was eigen-solved when it was certified")

    monkeypatch.setattr(np.linalg, "eig", forbidden)
    monkeypatch.setattr(np.linalg, "eigvals", forbidden)
    partners, pairings = partner_null_batch(pair, batch)
    assert partners.shape == batch.S.shape and (pairings < 0).all()
    st = stabilizers_by_commutant(pair, batch)
    assert (st.dims == EXPECTED_STAB_DIM[field](3)).all() and (st.residuals < 1e-8).all()
    if field != "R":
        canonicalize = {"C": canonicalize_unitary_batch, "H": canonicalize_symplectic_batch}
        P, r = canonicalize[field](pair, batch)
        assert (orbits.normal_form_residuals(pair, P, r) < 1e-9).all()


@pytest.mark.parametrize("idx", [[2, 0], [False, True, True], np.array([True, False, True])],
                         ids=["ints", "bool-list", "bool-array"])
def test_ray_stabilizers_take_indices_and_masks(idx):
    pair = build_pair(Family("C", 2, 1))
    st = stabilizers_of_rays(pair, sample_null_batch(pair, 3, rng=24).S)
    rows = np.arange(3)[idx].tolist()
    picked = st.take(idx)
    assert picked.dims.tolist() == st.dims[rows].tolist()
    assert picked.residuals.tolist() == st.residuals[rows].tolist()
    assert len(picked.bases) == len(picked.scales) == len(rows)
    for j, i in enumerate(rows):
        assert picked.bases[j] is st.bases[i] and picked.scales[j] is st.scales[i]


# ---------------------------------------------------------------------------
# the draw layer: isotropy conjugation by Cayley elements, and the real
# family drawn and certified in float64
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("field", ["R", "C", "H"])
@pytest.mark.parametrize("pq", [(2, 1), (3, 2)])
def test_cayley_elements_of_isotropy_preserve_carrier_form(field, pq, seed):
    pair = build_pair(Family(field, *pq))
    rng = np.random.default_rng(seed)
    A = orbits.cayley(pair, pair.h.random_element(rng, norm=[0.2, 0.5, 1.0, 1.0], size=4))
    F = pair.carrier_form
    res = np.abs(A.conj().transpose(0, 2, 1) @ F @ A - F).max(axis=(1, 2))
    assert (res < 1e-13).all()
    # A - 1 = (1 - Z/2)^-1 Z, so |A - 1|_F >= |Z|_F / 1.5: the draws move
    assert (np.linalg.norm(A - np.eye(len(F)), axis=(1, 2)) > 0.2 / 1.5).all()
    # A may differ from SU(p, q) by a central phase, never in modulus
    assert_allclose(np.abs(np.linalg.det(A)), 1.0, rtol=0, atol=1e-13)
    if field == "R":
        assert A.dtype == np.float64
    if field == "H":
        for a in A:
            quat_split(a)  # raises unless a keeps the quaternionic pattern


def test_draws_make_no_exponential(monkeypatch):
    def boom(*args):
        raise AssertionError("a draw called expm")

    monkeypatch.setattr(linalg, "expm", boom, raising=False)
    monkeypatch.setattr(orbits, "expm", boom, raising=False)
    for field in "RCH":
        assert sample_null_batch(build_pair(Family(field, 2, 1)), 5, rng=0).genericity.all()
    pair = build_pair(Family("R", 2, 1))
    for stratum in STRATA:
        assert (so21_orbit_class(sample_so21_stratum_batch(pair, stratum, 5, rng=0).S)
                == stratum).all()


@pytest.mark.parametrize("stratum", STRATA)
def test_real_draws_stay_float64(stratum):
    pair = build_pair(Family("R", 2, 1))
    rng = np.random.default_rng(3)
    S = orbits._framed_null_stack(pair, 6, rng)
    assert S.dtype == np.float64
    assert orbits._isotropy_conjugate(pair, S, rng).dtype == np.float64
    batch = sample_so21_stratum_batch(pair, stratum, 40, rng=4)
    assert batch.S.dtype == np.float64
    # the certificate's spectrum is real LAPACK's eig, lexsorted by (real, imag)
    w = np.linalg.eig(batch.S)[0]
    w = np.take_along_axis(w, np.lexsort((w.imag, w.real), axis=-1), axis=-1)
    assert_allclose(batch.eigenvalues, w, rtol=0, atol=0)
    # a complex copy is judged by the same rules, in complex128
    twin = make_null_batch(pair, batch.S.astype(complex))
    assert twin.S.dtype == np.complex128
    assert_allclose(twin.nullity_residual, batch.nullity_residual, rtol=0, atol=1e-14)
    if stratum == "open":
        assert twin.genericity.all() and batch.genericity.all()
    assert (so21_orbit_class(batch.S) == stratum).all()
