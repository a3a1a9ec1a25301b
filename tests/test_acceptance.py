"""Acceptance suite: one test per numbered criterion, each emitting a single
pass/fail line. Every tolerance is stated inline next to its assertion."""

import numpy as np

from nullcone.casestudies import (
    sp21_action_formulas,
    sp21_build,
    sp21_duality_identity,
    sp21_grading_report,
    sp21_hatn_isometry,
    su21_bracket_table,
    su21_build,
    su21_constant_type,
    su21_nabla_J_report,
)
from nullcone.linalg import RealSubspace
from nullcone.orbits import (
    RayStabilizers,
    codimension_from_stabilizer,
    make_null_vector,
    orbits_report,
    partner_null_batch,
    sample_null_batch,
    stabilizer_mismatch,
    stabilizers_of_rays,
    stabilizers_report,
)
from nullcone.pairs import (
    Family,
    build_pair,
    check_symmetric_axioms,
    corrupt_pair,
    default_families,
    table_report,
)
from nullcone.reductive import (
    casimir,
    einstein_fit,
    frame_casimir,
    reductive_split,
    torsion_derivation_check,
    torsion_eval,
    wang_ziller_check,
)

FIELDS = ("R", "C", "H")


def emit(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def census_check(field, pq, trials, seed, suffix):
    """The stabilizers suite's report for one family: the names of its
    failed checks, and the observed value of its check `<tag>_<suffix>`."""
    fam = Family(field, *pq)
    rep = stabilizers_report(build_pair(fam), trials, seed)
    check = next(c for c in rep.checks if c.name == f"{fam.tag}_{suffix}")
    return [c.name for c in rep.failures()], check.observed


def test_criterion_1_dimension_table():
    rep = table_report(default_families(2, 8))
    rows = [c for c in rep.checks if c.name != "table_all_rows_match"]
    ok = len(rows) == 84 and rep.ok
    emit(1, ok, f"{len(rows)} family rows, 2 <= n <= 8, all exact")


def test_criterion_2_stabilizer_dimensions():
    cases = [("C", (2, 1), 2, 100), ("R", (2, 1), 0, 100),
             ("H", (2, 1), 9, 100), ("C", (2, 2), 3, 100),
             ("R", (2, 2), 0, 100)]
    bad = []
    for field, pq, want, trials in cases:
        failed, got = census_check(field, pq, trials, 0, "stab_dim")
        if failed or got != (want,):
            bad.append((field, pq, got, failed))
    emit(2, not bad,
         "stabilizer dims 2/0/9 at n=3 and 3/0 at n=4 over 100 samples each"
         if not bad else f"unexpected dims {bad}")


def test_criterion_3_orbit_codimension():
    cases = [("R", (2, 1), 0), ("R", (2, 2), 1), ("R", (3, 2), 2),
             ("C", (2, 1), 0), ("H", (2, 1), 0)]
    bad = []
    for field, pq, want in cases:
        failed, got = census_check(field, pq, 10, 1, "orbit_codim")
        if failed or got != (want,):
            bad.append((field, pq, got, failed))
    emit(3, not bad, "generic orbit codimension equals n-3 in every family"
         if not bad else f"unexpected codimensions {bad}")


def test_criterion_4_strata_census():
    # the orbits suite's own strata census; the codimension comes from the
    # reported stabilizer dimension, counted inside the projectivized null
    # cone (dim m - 2)
    pair = build_pair(Family("R", 2, 1))
    per_stratum = 3334
    checks = {c.name: c for c in orbits_report(pair, trials=per_stratum, seed=2).checks}
    bad = []
    for stratum, want in (("open", 0), ("two-step-nilpotent", 1),
                          ("one-step-nilpotent", 2)):
        classified = checks[f"R21_stratum_{stratum}_classified"]
        stab = checks[f"R21_stratum_{stratum}_stab_dim"]
        codims = tuple(codimension_from_stabilizer(pair, stab.observed).tolist())
        if (classified.status != "pass" or classified.observed != per_stratum
                or stab.status != "pass" or stab.observed != (want,)
                or codims != (want,)):
            bad.append((stratum, classified.observed, stab.observed, codims))
    emit(4, not bad,
         f"{3 * per_stratum} stratified samples, stabilizer dims 0/1/2 "
         "matching orbit codimensions 0/1/2" if not bad
         else f"unexpected strata {bad}")


def test_criterion_5_nearly_para_kahler():
    data = su21_build()
    rep = su21_bracket_table(data, trials=200, rng=3)
    bracket_ok = rep.ok

    # vanishing on the diagonal, anticommuting with J and minus the torsion
    # on pure elements, each below 1e-9 in norm
    nabla_ok = su21_nabla_J_report(data, trials=500, rng=4).ok

    lam_t, _ = su21_constant_type(data, trials=500, rng=5)
    type_ok = abs(lam_t - 0.5) <= 1e-8
    lam_e, res = einstein_fit(data.split)
    einstein_ok = abs(lam_e - 2.5) <= 1e-7 and res < 1e-7
    tie_ok = abs(lam_e - 5.0 * lam_t) <= 1e-6

    ok = bracket_ok and nabla_ok and type_ok and einstein_ok and tie_ok
    emit(5, ok, "bracket table < 1e-9, nearly para-Kahler identities < 1e-9 "
         f"over 500 draws, type constant {lam_t:.10f}, "
         f"Einstein constant {lam_e:.10f} = 5x type")


def test_criterion_6_stabilizer_action_tables():
    data = sp21_build()
    C = frame_casimir(data.split, data.A_basis, data.eps_A)
    casimir_ok = np.abs(C - 6.0 * np.eye(12)).max() < 1e-8
    eps_ok = list(data.eps_A) == [-1.0] * 6 + [1.0] * 3
    wz_ok, _ = wang_ziller_check(casimir(data.split))
    rep = sp21_action_formulas(data, trials=100, rng=6)
    ok = casimir_ok and eps_ok and wz_ok and rep.ok
    emit(6, ok, "Casimir 6*Id within 1e-8, signed basis pattern exact, "
         "multiple-of-identity verdict true, action formulas < 1e-9 "
         "over 100 draws")


def test_criterion_7_duality_pairing():
    ok = True
    notes = []
    for a in (1.0, 2.0):
        data = sp21_build(a=a)
        rep = sp21_duality_identity(data, trials=500, rng=7)
        iso = sp21_hatn_isometry(data)
        # the stabilizer lands in the degree-zero block (< 1e-8), and the
        # graded pieces have their dimensions and short-grading brackets
        grading = sp21_grading_report(data)
        ok = ok and rep.ok and iso.ok and grading.ok
        notes.append(f"a={a:g} ok")
    emit(7, ok, "duality identity < 1e-8 over 500 pairs for a in {1,2}, "
         "dual pairing identity, isometry gram < 1e-9, stabilizer inside "
         "the degree-zero block < 1e-8, short grading brackets < 1e-8, "
         "complement meets the opposite parabolic trivially")


def involuted(pair, st):
    """The ray stabilizers st mapped by the involution, in h coordinates:
    row j of C holds the coordinates of the involution of h basis element j."""
    hdim = pair.h.dim
    C = pair.h.coords(pair.involution(pair.h.basis))
    return RayStabilizers(st.dims, [np.vstack([C.T @ k[:hdim], k[hdim:]]) for k in st.kernels],
                          st.residuals)


def test_criterion_8_structural_invariants():
    worst_skew = worst_theta = worst_stab = 0.0
    derivation_ok = dims_ok = True
    for data in (su21_build(), sp21_build()):
        split = data.split
        rng = np.random.default_rng(8)
        for _ in range(20):
            u = split.n.random_element(rng)
            v = split.n.random_element(rng)
            w = split.n.random_element(rng)
            a = split.form(torsion_eval(split, u, v), w)
            b = split.form(torsion_eval(split, v, w), u)
            c = split.form(torsion_eval(split, u, w), v)
            scale = max(1.0, abs(a))
            worst_skew = max(worst_skew, abs(a - b) / scale,
                             abs(a + c) / scale)
        derivation_ok = derivation_ok and torsion_derivation_check(split).ok
        # canonical representatives are normal: the conjugation fixes b
        worst_theta = max(worst_theta,
                          split.b.residual(data.pair.involution(split.b.basis)).max())
        st = stabilizers_of_rays(data.pair, data.S[None])
        st_hat = stabilizers_of_rays(data.pair, data.S_hat[None])
        dims_ok = dims_ok and st.dims[0] > 0 and np.array_equal(st.dims, st_hat.dims)
        worst_stab = max(worst_stab, stabilizer_mismatch(data.pair, st, st_hat).max())

    for field in FIELDS:
        pair = build_pair(Family(field, 2, 1))
        batch = sample_null_batch(pair, 50, rng=9)
        st = stabilizers_of_rays(pair, batch.S)
        partners, pairings = partner_null_batch(pair, batch)
        st_hat = stabilizers_of_rays(pair, partners.S)
        assert np.array_equal(st.dims, st_hat.dims)
        assert (pairings < 0).all()
        worst_stab = max(worst_stab, stabilizer_mismatch(pair, st, st_hat).max())
        # off canonical position the conjugation transports the stabilizer
        # of S onto the stabilizer of -conj(S).T
        st_theta = stabilizers_of_rays(pair, pair.involution(batch.S))
        dims_ok = dims_ok and np.array_equal(st.dims, st_theta.dims)
        worst_theta = max(worst_theta,
                          stabilizer_mismatch(pair, involuted(pair, st), st_theta).max())

    ok = (worst_skew < 1e-9 and derivation_ok and dims_ok and worst_theta < 1e-9
          and worst_stab < 1e-9)
    emit(8, ok, f"total skew {worst_skew:.2e}, derivation identity holds, "
         f"conjugation invariance {worst_theta:.2e}, partner stabilizer "
         f"match {worst_stab:.2e}, all < 1e-9")


def test_criterion_9_negative_controls():
    results = []

    # corrupted pair must fail the axiom report
    bad_pair = corrupt_pair(build_pair(Family("C", 2, 1)))
    results.append(check_symmetric_axioms(
        bad_pair, rng=np.random.default_rng(10)).n_fail > 0)

    # degenerate candidate complement must raise
    data = su21_build()
    from nullcone.casestudies import b_diag, v_plus
    try:
        reductive_split(data.pair, RealSubspace([v_plus(1.0, 0.0)]))
        results.append(False)
    except ValueError:
        results.append(True)

    # perturbed stabilizer basis must break the derivation identity
    import dataclasses
    bad_b = RealSubspace([data.b_basis[0],
                          data.b_basis[1] + 0.05 * data.n_basis[0]])
    bad_split = dataclasses.replace(data.split, b=bad_b)
    results.append(torsion_derivation_check(bad_split).n_fail > 0)

    # dropping a stabilizer direction must break the identity verdict
    partial = reductive_split(data.pair, RealSubspace([b_diag(1.0, 0.0)]))
    flag, _ = wang_ziller_check(casimir(partial))
    results.append(not flag)

    # non-generic input must be rejected by the partner construction
    F = data.pair.hermitian_matrix
    u = np.array([1.0, 0.0, 1.0], dtype=complex)
    nil = make_null_vector(build_pair(Family("C", 2, 1)),
                           np.outer(u, u.conj()) @ np.diag([1.0, 1.0, -1.0]))
    try:
        partner_null_batch(build_pair(Family("C", 2, 1)), nil)
        results.append(False)
    except ValueError:
        results.append(True)

    ok = all(results)
    emit(9, ok, f"{len(results)} corrupted-input controls all exercise "
         "their fail paths" if ok else f"control outcomes {results}")
