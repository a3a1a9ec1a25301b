"""Tests for null-ray sampling, stabilizers, normal forms, strata of the
real rank-one pair, and the eigenframe-adapted partner construction."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nullcone import orbits
from nullcone.linalg import Tolerance, _kernel_cols, bracket, realify
from nullcone.orbits import (
    NullBatch,
    canonicalize_symplectic,
    canonicalize_unitary,
    codimension_from_stabilizer,
    congruence,
    make_null_vector,
    orbit_codimension,
    partner_null,
    partner_null_batch,
    sample_null_batch,
    sample_null_generic,
    sample_so21_stratum,
    sample_so21_stratum_batch,
    so21_orbit_class,
    split_spectrum,
    stabilizer_mismatch,
    stabilizer_of_ray,
    stabilizers_of_rays,
    t_form,
    trial_blocks,
)
from nullcone.orbits import _omega_matrix
from nullcone.pairs import Family, build_pair

SQRT3 = np.sqrt(3.0)


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
    rng = np.random.default_rng(0)
    for _ in range(10):
        nv = sample_null_generic(pair, rng=rng)
        assert pair.m.residual(nv.S) < 1e-9
        assert nv.nullity_residual < 1e-8
        assert nv.genericity
        assert nv.gap > 1e-6
        assert abs(np.trace(nv.S)) < 1e-9


def test_generic_sample_needs_three_dimensions():
    with pytest.raises(ValueError):
        sample_null_generic(build_pair(Family("C", 1, 1)), rng=0)


@pytest.mark.parametrize("field,pq,want", [
    ("C", (2, 1), 2),
    ("R", (2, 1), 0),
    ("H", (2, 1), 9),
    ("C", (2, 2), 3),
    ("R", (2, 2), 0),
])
def test_generic_stabilizer_dimensions(field, pq, want):
    pair = build_pair(Family(field, *pq))
    rng = np.random.default_rng(1)
    for _ in range(5):
        nv = sample_null_generic(pair, rng=rng)
        st = stabilizer_of_ray(pair, nv)
        assert st.dim == want
        assert st.residual < 1e-8
        # generic stabilizers act without rescaling the ray
        assert np.abs(st.c_functional).max() < 1e-8 if st.dim else True
        if st.b is not None:
            for X in st.b.basis:
                assert np.abs(bracket(X, nv.S)).max() < 1e-7


@pytest.mark.parametrize("field,pq,want", [
    ("R", (2, 1), 0),
    ("R", (2, 2), 1),
    ("R", (3, 2), 2),
    ("C", (2, 1), 0),
    ("H", (2, 1), 0),
])
def test_orbit_codimension_is_size_minus_three(field, pq, want):
    pair = build_pair(Family(field, *pq))
    rng = np.random.default_rng(2)
    for _ in range(3):
        nv = sample_null_generic(pair, rng=rng)
        assert orbit_codimension(pair, nv) == want


@pytest.mark.parametrize("pq", [(2, 1), (2, 2), (3, 1)])
def test_unitary_normal_form(pq):
    pair = build_pair(Family("C", *pq))
    rng = np.random.default_rng(3)
    F = pair.hermitian_matrix
    for _ in range(5):
        nv = sample_null_generic(pair, rng=rng)
        P, r = canonicalize_unitary(pair, nv)
        assert r == min(pq)
        assert_allclose(P.conj().T @ F @ P, t_form(*pq, r), atol=1e-8)


@pytest.mark.parametrize("pq", [(2, 1), (2, 2), (3, 1)])
def test_symplectic_normal_form(pq):
    pair = build_pair(Family("H", *pq))
    rng = np.random.default_rng(4)
    Hm = pair.carrier_form
    Om = _omega_matrix(pair)
    r = min(pq)
    W = t_form(*pq, r)
    om_target = np.block([[np.zeros_like(W), W], [-W, np.zeros_like(W)]])
    h_target = np.block([[W, np.zeros_like(W)], [np.zeros_like(W), W]])
    for _ in range(3):
        nv = sample_null_generic(pair, rng=rng)
        P = canonicalize_symplectic(pair, nv)
        assert_allclose(P.T @ Om @ P, om_target, atol=1e-7)
        assert_allclose(P.conj().T @ Hm @ P, h_target, atol=1e-7)


def test_normal_forms_reject_wrong_field():
    pC = build_pair(Family("C", 2, 1))
    pH = build_pair(Family("H", 2, 1))
    nvC = sample_null_generic(pC, rng=5)
    nvH = sample_null_generic(pH, rng=5)
    with pytest.raises(ValueError):
        canonicalize_unitary(pH, nvH)
    with pytest.raises(ValueError):
        canonicalize_symplectic(pC, nvC)


def nilpotent_null_element(pair):
    # rank-one nilpotent u (Fu)^* built from an isotropic vector u; it is
    # self-adjoint for the form, traceless, and squares to zero
    F = pair.hermitian_matrix
    u = np.array([1.0, 0.0, 1.0], dtype=complex)
    S = np.outer(u, u.conj()) @ F
    assert pair.m.residual(S) < 1e-12
    return make_null_vector(pair, S)


def test_non_generic_inputs_are_rejected():
    pair = build_pair(Family("C", 2, 1))
    nv = nilpotent_null_element(pair)
    assert not nv.genericity
    with pytest.raises(ValueError):
        canonicalize_unitary(pair, nv)
    with pytest.raises(ValueError):
        partner_null(pair, nv)


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
        for _ in range(20):
            nv = sample_so21_stratum(pair, stratum, rng=rng)
            assert so21_orbit_class(nv.S) == stratum
            assert stabilizer_of_ray(pair, nv).dim == want_dim


def test_stratum_edge_cases():
    pair = build_pair(Family("R", 2, 1))
    with pytest.raises(ValueError):
        so21_orbit_class(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        sample_so21_stratum(pair, "no-such-stratum", rng=0)
    with pytest.raises(ValueError):
        sample_so21_stratum(build_pair(Family("C", 2, 1)), "open", rng=0)


def test_partner_on_canonical_diagonal_representative():
    # eigenvalue triple (mu, -2a, conj(mu)) with mu = a(1 + i sqrt 3)
    pair = build_pair(Family("C", 2, 1), "canonical-T")
    a = 1.0
    mu = a * (1.0 + 1j * SQRT3)
    S = np.diag([mu, -2.0 * a, np.conj(mu)])
    nv = make_null_vector(pair, S)
    assert nv.genericity
    hat, pairing = partner_null(pair, nv)
    # on the diagonal representative the partner is minus the conjugate
    # transpose, and the pairing is minus the squared Frobenius norm
    assert_allclose(hat.S, -np.conj(S).T, atol=1e-10)
    assert pairing == pytest.approx(-12.0 * a * a, rel=1e-10)
    assert pairing == pytest.approx(-pair.form(S, np.conj(S).T), rel=1e-10)


@pytest.mark.parametrize("field", ["R", "C", "H"])
def test_partner_shares_the_stabilizer(field):
    pair = build_pair(Family(field, 2, 1))
    rng = np.random.default_rng(7)
    for _ in range(5):
        nv = sample_null_generic(pair, rng=rng)
        hat, pairing = partner_null(pair, nv)
        assert pairing < 0
        assert pair.m.residual(hat.S) < 1e-9
        st = stabilizer_of_ray(pair, nv)
        st_hat = stabilizer_of_ray(pair, hat)
        assert st.dim == st_hat.dim
        if st.dim:
            worst = 0.0
            for X in st.b.basis:
                worst = max(worst, st_hat.b.residual(X))
            for X in st_hat.b.basis:
                worst = max(worst, st.b.residual(X))
            assert worst < 1e-8


def test_partner_spectrum_is_reflected():
    pair = build_pair(Family("C", 2, 1))
    nv = sample_null_generic(pair, rng=8)
    hat, _ = partner_null(pair, nv)
    got = np.sort_complex(np.linalg.eigvals(hat.S))
    want = np.sort_complex(-np.conj(np.linalg.eigvals(nv.S)))
    assert_allclose(got, want, atol=1e-9)


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
        row = batch.row(i)
        nv = make_null_vector(pair, row.S)  # raises outside the tangent summand
        assert nv.genericity and row.genericity
        assert nv.nullity_residual < 1e-8
        assert pair.m.residual(row.S) < 1e-9
        assert abs(np.trace(row.S)) < 1e-9
        assert_allclose(row.eigenvalues, nv.eigenvalues, atol=1e-12)
        assert row.gap == pytest.approx(nv.gap, rel=1e-12)
        assert row.nullity_residual == pytest.approx(nv.nullity_residual, abs=1e-15)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("field,pq", [("R", (2, 1)), ("C", (2, 1)), ("H", (2, 1)),
                                      ("R", (3, 1)), ("C", (3, 1)), ("H", (3, 1))])
def test_batched_stabilizers_match_per_ray(field, pq, seed):
    pair = build_pair(Family(field, *pq))
    batch = sample_null_batch(pair, 12, rng=seed)
    stabs = stabilizers_of_rays(pair, batch.S)
    for i in range(len(batch)):
        st = stabilizer_of_ray(pair, batch.row(i))
        assert stabs.dims[i] == st.dim == loop_stabilizer_dim(pair, batch.S[i])
        assert stabs.residuals[i] < 1e-8
        if st.dim:
            for X, c in zip(st.b.basis, st.c_functional):
                assert np.abs(bracket(X, batch.S[i]) - c * batch.S[i]).max() < 1e-8
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
    assert trial_blocks(pair, 3) == [1, 1, 1]  # one 968 x 254 system per block
    nv = sample_null_generic(pair, rng=0)
    stabs = stabilizers_of_rays(pair, nv.S[None])
    assert stabs.dims[0] == loop_stabilizer_dim(pair, nv.S) == 3 * 11
    assert stabs.residuals[0] < 1e-8


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("field", ["R", "C", "H"])
def test_block_cuts_do_not_change_results(field, seed, monkeypatch):
    pair = build_pair(Family(field, 2, 1))
    # k = 1 draws the same stream as the single-vector sampler
    one = sample_null_batch(pair, 1, rng=seed)
    single = sample_null_generic(pair, rng=seed)
    assert_allclose(one.S[0], single.S, atol=1e-13)
    # a cap that forces several blocks and a short last one
    monkeypatch.setattr(orbits, "BLOCK_BYTES", 3 * orbits._stabilizer_row_bytes(pair))
    sizes = trial_blocks(pair, 11)
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
    st_hat = stabilizers_of_rays(pair, partners.S)
    assert np.array_equal(stabs.dims, st_hat.dims)
    assert stabilizer_mismatch(pair, stabs, st_hat).max() < 1e-8
    for i in (0, 10):
        hat, pairing = partner_null(pair, batch.row(i))
        assert_allclose(hat.S, partners.S[i], atol=1e-10)
        assert pairing == pytest.approx(pairings[i], rel=1e-9)


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
        st = stabs.result(pair, i)
        S = batch.S[i]
        want = max(np.linalg.norm(bracket(X, S) - c * S)
                   for X, c in zip(st.b.basis, st.c_functional))
        assert st.residual == pytest.approx(want, rel=1e-6, abs=1e-15)
        assert st.residual < 1e-8


def test_batched_strata_classify_and_match_single_draws():
    pair = build_pair(Family("R", 2, 1))
    for stratum, want in (("open", 0), ("two-step-nilpotent", 1),
                          ("one-step-nilpotent", 2)):
        batch = sample_so21_stratum_batch(pair, stratum, 30, rng=11)
        assert all(so21_orbit_class(S) == stratum for S in batch.S)
        dims = stabilizers_of_rays(pair, batch.S).dims
        assert set(dims.tolist()) == {want}
        assert set(codimension_from_stabilizer(pair, dims).tolist()) == {want}
        one = sample_so21_stratum_batch(pair, stratum, 1, rng=12)
        assert_allclose(one.S[0], sample_so21_stratum(pair, stratum, rng=12).S,
                        atol=1e-13)


def test_batch_sampler_rejects_bad_requests():
    pair = build_pair(Family("C", 2, 1))
    with pytest.raises(ValueError):
        sample_null_batch(pair, 0, rng=0)
    with pytest.raises(ValueError):
        sample_null_batch(build_pair(Family("C", 1, 1)), 3, rng=0)
    # a gap threshold no generic spectrum of this size meets
    with pytest.raises(RuntimeError):
        sample_null_batch(pair, 4, rng=0, tol=Tolerance(abs=1e-2), max_tries=3)
