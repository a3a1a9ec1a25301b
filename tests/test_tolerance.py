"""The tolerance contract: a routine given a pair, a split or case-study data
reads its tolerance from the pair (pair.tol, split.pair.tol, data.pair.tol),
set once where the pair is built."""

import ast
import inspect

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nullcone import casestudies, linalg, orbits, pairs, reductive
from nullcone.casestudies import sp21_report, su21_report
from nullcone.linalg import DEFAULT_TOL, Tolerance
from nullcone.pairs import Family, build_pair

# the checks that report tol.abs of their pair, by study
TOL_ABS_CHECKS = {
    "su21": {
        "su21_J_squares_to_identity", "su21_ad_fixes_ray", "su21_ad_group_law",
        "su21_ad_group_membership", "su21_ad_identity_parameters", "su21_ad_parameter_map",
        "su21_bracket_minus_formula", "su21_bracket_mixed_formula",
        "su21_bracket_mixed_into_b", "su21_bracket_plus_formula",
        "su21_bracket_pure_swaps_halves", "su21_bracket_self", "su21_bracket_spot_value",
        "su21_duality_ray_pairing", "su21_n_halves_totally_null",
        "su21_nablaJ_anticommutes", "su21_nablaJ_pure_type",
        "su21_nablaJ_vanishes_on_diagonal", "su21_torsion_antisymmetry",
        "su21_torsion_derivation", "su21_torsion_total_skew",
    },
    "sp21": {
        "a2_sp21_duality_ray_pairing", "sp21_action_b1_on_n1", "sp21_action_b1_on_n2",
        "sp21_action_b2_on_n1", "sp21_action_b2_on_n2", "sp21_action_preserves_blocks",
        "sp21_action_zero", "sp21_duality_ray_pairing", "sp21_embed_exponential_membership",
        "sp21_embed_identity", "sp21_embed_membership", "sp21_embed_multiplicative",
        "sp21_factor1_trivial_on_n2", "sp21_factors_commute",
        "sp21_factors_orthogonal", "sp21_isometry_gram_equal", "sp21_isometry_lands_in_m",
        "sp21_isometry_perp_to_rays", "sp21_torsion_antisymmetry",
        "sp21_torsion_derivation", "sp21_torsion_total_skew",
    },
}


def _functions(module):
    return [(name, fn) for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__]


def test_no_routine_given_a_pair_takes_a_tolerance():
    hits = []
    for module in (orbits, reductive, pairs, casestudies):
        for name, fn in _functions(module):
            params = list(inspect.signature(fn).parameters)
            if params and params[0] in ("pair", "split", "data") and "tol" in params:
                hits.append(f"{module.__name__}.{name}")
    assert hits == []


def _rank_rel_reads(node) -> int:
    return sum(isinstance(n, ast.Attribute) and n.attr == "rank_rel" for n in ast.walk(node))


def test_only_the_rank_rule_reads_rank_rel():
    # every rank, kernel and signature cut goes through linalg.relative_rank;
    # the one other reader is the commutant route's conditioning guard, which
    # keeps eps cond(V)^2 below the cut the rule then takes
    allowed = {"nullcone.linalg.relative_rank", "nullcone.orbits.stabilizers_by_commutant"}
    readers, outside = set(), 0
    for module in (linalg, orbits, pairs, reductive, casestudies):
        tree = ast.parse(inspect.getsource(module))
        outside += _rank_rel_reads(tree)
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and _rank_rel_reads(fn):
                readers.add(f"{module.__name__}.{fn.name}")
                if f"{module.__name__}.{fn.name}" in allowed:
                    outside -= _rank_rel_reads(fn)
    assert readers == allowed
    assert outside == 0  # no read outside a function either


def test_options_no_caller_sets_are_constants():
    options = {orbits.sample_null_batch: "max_tries",
               linalg.signed_gram_schmidt: "max_remix",
               casestudies.su21_ad_action: "phi",
               casestudies.sp21_build: "mu",
               casestudies.model_report: "isometry",
               reductive.homothety_check: "isometry",
               reductive.einstein_fit: "ric"}
    for fn, name in options.items():
        assert name not in inspect.signature(fn).parameters
    # its pivot test is a fixed 1e-8, so a tolerance would go unread
    assert "tol" not in inspect.signature(linalg.signed_gram_schmidt).parameters
    assert "r" not in inspect.signature(casestudies.su21_ad_action).parameters
    assert list(orbits.NullBatch._fields) == [
        "S", "eigenvalues", "vectors", "inverse", "genericity", "nullity_residual", "gap",
        "corner"]
    # the record holds the ray parameter once, b and n once, as their subspaces
    # split.b and n_space, and no subspace that no report reads
    held = set(casestudies.CaseStudy._fields)
    assert held.isdisjoint({"mu", "b_basis", "n_basis", "so_space"})
    assert "so_space" not in casestudies.ConformalGrading._fields


@pytest.mark.parametrize("study,report", [("su21", su21_report), ("sp21", sp21_report)])
def test_the_report_tolerance_reaches_every_layer(study, report):
    # a sub-report that fell back to DEFAULT_TOL would keep 1e-9 at 1e-8
    base = {c.name: c.tol for c in report(trials=3).checks}
    fine = {c.name: c.tol for c in report(trials=3, tol=Tolerance(abs=1e-8)).checks}
    assert base.keys() == fine.keys()
    moved = {n for n in base if fine[n] != base[n]}
    assert moved == TOL_ABS_CHECKS[study]
    assert all(base[n] == DEFAULT_TOL.abs and fine[n] == 1e-8 for n in moved)
    # no check states a bound of 1e-9 of its own, which --tol would not reach
    assert {n for n in base if base[n] == 1e-9} == moved


def test_model_report_is_one_body_for_both_studies():
    # what differs between the models is handed in; the body names no study
    models = {
        "su21": (casestudies.su21_build(), dict(
            einstein=2.5, casimir_multiple=2.0, casimir_name="casimir_multiple")),
        "sp21": (casestudies.sp21_build(), dict(
            einstein=7.0, casimir_multiple=6.0, casimir_name="casimir_generic_frame")),
    }
    assert models["su21"][1].keys() == models["sp21"][1].keys()
    for fn in (casestudies.model_report, casestudies.duality_identity):
        body = inspect.getsource(fn)
        assert "su21" not in body and "sp21" not in body
    shape = {}
    for study, (data, spec) in models.items():
        rep = casestudies.model_report(data, study, 0, 3, **spec)
        assert rep.ok, rep.failures()
        assert all(c.name.startswith(f"{study}_") for c in rep.checks)
        shape[study] = {c.name[len(study) + 1:]: [c.tol, c.anchor] for c in rep.checks}
    su, sp = shape["su21"], shape["sp21"]
    # the one name that differs is the legacy name of the generic-frame Casimir
    assert su.pop("casimir_multiple") == sp.pop("casimir_generic_frame")
    # the complement check reports its dimensions as its anchor
    for s in (su, sp):
        assert s["partner_complement_matches"][1].startswith("dim n = ")
        s["partner_complement_matches"][1] = None
    assert su == sp


@pytest.mark.parametrize("field", ["R", "C", "H"])
def test_partners_are_a_projected_stack_without_certificates(field, monkeypatch):
    pair = build_pair(Family(field, 2, 1))
    batch = orbits.sample_null_batch(pair, 4, rng=3)

    def refuse(*args, **kwargs):
        raise AssertionError("the partners need no certificate")

    monkeypatch.setattr(orbits, "make_null_batch", refuse)
    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    partners, pairings = orbits.partner_null_batch(pair, batch)
    N = pair.carrier_dim
    assert isinstance(partners, np.ndarray) and partners.shape == (4, N, N)
    assert partners.dtype == complex and pairings.shape == (4,)
    assert_allclose(pair.m.project(partners), partners, rtol=0, atol=1e-12)


def test_subspace_helpers_read_the_tolerance_their_subspaces_carry(monkeypatch):
    params = {linalg.gram_signature: ["form", "space"], linalg.algebra_profile: ["space"],
              linalg.orth_complement: ["space", "within", "form"],
              pairs.congruence: ["F", "T"]}
    for fn, names in params.items():
        assert list(inspect.signature(fn).parameters) == names
    # a Gram eigenvalue 3e-10 of the largest is zero at rank_rel 1e-8, not at 1e-12
    fine = Tolerance(rank_rel=1e-12)
    X, Y = np.diag([1.0, -1.0, 0.0]), 1e-5 * np.diag([1.0, 1.0, -2.0])
    form = linalg.BilinForm(1.0)
    assert linalg.gram_signature(form, linalg.RealSubspace([X, Y]))[1] == (1, 0, 1)
    assert linalg.gram_signature(form, linalg.RealSubspace([X, Y], tol=fine))[1] == (2, 0, 0)
    # the complement is built inside `within` and carries its tolerance;
    # algebra_profile hands its space's tolerance to every rank decision
    seen = []
    for name in ("sym_signature", "_kernel_cols"):
        real = getattr(linalg, name)
        monkeypatch.setattr(linalg, name,
                            lambda *a, _real=real: seen.append(a[-1]) or _real(*a))
    sx, sy, sz = (np.array(m, dtype=complex) for m in
                  ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]))
    su2 = linalg.RealSubspace([1j * sx, 1j * sy, 1j * sz], tol=fine)
    comp, _ = linalg.orth_complement(linalg.RealSubspace([1j * sz]), su2, form)
    assert comp.dim == 2 and comp.tol is fine
    assert linalg.algebra_profile(su2) == (3, (0, 3, 0), 0, 3)
    assert seen and all(t is fine for t in seen)
