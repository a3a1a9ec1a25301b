"""Command-line verification runner.

Each suite executes a deterministic, seeded batch of checks and emits
either a markdown table or a canonical JSON object.  Exit status: 0 when
every check passes, 1 when any check fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import locale  # noqa: F401  argparse imports it on its first parse; load it with the module
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .casestudies import (
    hatn_isometry_map,
    sp21_action_formulas,
    sp21_build,
    sp21_casimir,
    sp21_duality_identity,
    sp21_embedding_check,
    sp21_grading_report,
    sp21_hatn_isometry,
    sp21_subalgebra_profiles,
    su21_ad_action,
    su21_bracket_table,
    su21_build,
    su21_constant_type,
    su21_einstein,
    su21_invariants,
    su21_nabla_J,
)
from .linalg import Tolerance
from .orbits import (
    canonicalize_symplectic_batch,
    canonicalize_unitary_batch,
    codimension_from_stabilizer,
    normal_form_residuals,
    partner_null_batch,
    sample_null_batch,
    sample_so21_stratum_batch,
    so21_orbit_class,
    stabilizer_mismatch,
    stabilizers_of_rays,
    trial_blocks,
)
from .pairs import (
    FIELDS,
    Family,
    build_pair,
    check_symmetric_axioms,
    default_families,
    dimension_table,
)
from .reductive import (
    bianchi_residual,
    casimir,
    einstein_fit,
    homothety_check,
    torsion_derivation_check,
    torsion_eval,
    wang_ziller_check,
)
from .report import Check, Report

SUITE_NAMES = ("table", "axioms", "stabilizers", "orbits", "su21", "sp21", "all")

EXPECTED_STAB_DIM = {"C": lambda n: n - 1, "R": lambda n: 0, "H": lambda n: 3 * n}
STRATUM_STAB_DIM = {"open": 0, "two-step-nilpotent": 1, "one-step-nilpotent": 2}


@dataclass
class SuiteConfig:
    suite: str
    field: str | None = None
    p: int | None = None
    q: int | None = None
    seed: int = 0
    tol_abs: float = 1e-9
    trials: int = 100
    format: str = "markdown"

    @property
    def tolerance(self) -> Tolerance:
        return Tolerance(abs=self.tol_abs)

    def families(self) -> list[Family]:
        p = self.p if self.p is not None else 2
        q = self.q if self.q is not None else 1
        fields = (self.field,) if self.field else FIELDS
        return [Family(f, p, q) for f in fields]


def _absorb(dst: Report, src: Report, prefix: str = ""):
    for c in src.checks:
        dst.checks.append(Check(prefix + c.name, c.status, c.observed,
                                c.expected, c.tol, c.anchor))


def _tag(fam: Family) -> str:
    return f"{fam.field}{fam.p}{fam.q}"


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def suite_table(cfg: SuiteConfig) -> Report:
    rep = Report("table", cfg.seed)
    rows = dimension_table(default_families(2, 6), cfg.tolerance)
    for r in rows:
        rep.equals(f"table_{_tag(r.family)}",
                   (r.dim_h, r.dim_m, r.signature), r.formula,
                   anchor="constructed dimensions and signature match the closed formulas")
    rep.equals("table_all_rows_match", all(r.match for r in rows), True,
               anchor="every family row agrees with its formula")
    return rep


def suite_axioms(cfg: SuiteConfig) -> Report:
    rep = Report("axioms", cfg.seed)
    tol = cfg.tolerance
    for fam in cfg.families():
        variants = ["standard"]
        if (fam.p, fam.q) == (2, 1):
            variants.append("canonical-T")
        for var in variants:
            pair = build_pair(fam, var, tol=tol)
            _absorb(rep, check_symmetric_axioms(pair))
    return rep


def suite_stabilizers(cfg: SuiteConfig) -> Report:
    rep = Report("stabilizers", cfg.seed)
    tol = cfg.tolerance
    for fam in cfg.families():
        pair = build_pair(fam, tol=tol)
        rng = np.random.default_rng(cfg.seed)
        expected = EXPECTED_STAB_DIM[fam.field](fam.n)
        dims, codims = set(), set()
        worst_null, all_generic = 0.0, True
        for k in trial_blocks(pair, cfg.trials):
            batch = sample_null_batch(pair, k, rng=rng, tol=tol)
            st_dims = stabilizers_of_rays(pair, batch.S, tol).dims
            dims.update(st_dims.tolist())
            codims.update(codimension_from_stabilizer(pair, st_dims).tolist())
            worst_null = max(worst_null, float(batch.nullity_residual.max()))
            all_generic = all_generic and bool(batch.genericity.all())
        t = _tag(fam)
        rep.equals(f"{t}_stab_dim", tuple(sorted(dims)), (expected,),
                   anchor="ray stabilizer dimension is constant on generic samples")
        rep.equals(f"{t}_orbit_codim", tuple(sorted(codims)), (fam.n - 3,),
                   anchor="generic orbit codimension in the projectivized cone")
        rep.residual(f"{t}_worst_nullity", worst_null, 1e-8,
                     anchor="sampled vectors are numerically null")
        rep.equals(f"{t}_all_generic", all_generic, True,
                   anchor="sampled spectra are simple with nonreal pairs")
    return rep


def suite_orbits(cfg: SuiteConfig) -> Report:
    rep = Report("orbits", cfg.seed)
    tol = cfg.tolerance
    for fam in cfg.families():
        pair = build_pair(fam, tol=tol)
        rng = np.random.default_rng(cfg.seed)
        t = _tag(fam)
        worst_canon = worst_theta = 0.0
        worst_pairing = -np.inf
        stab_match = True
        for k in trial_blocks(pair, cfg.trials):
            batch = sample_null_batch(pair, k, rng=rng, tol=tol)
            if fam.field != "R":
                if fam.field == "C":
                    P, r = canonicalize_unitary_batch(pair, batch, tol)
                else:
                    # the sampler always realizes the maximal corner size
                    P, r = canonicalize_symplectic_batch(pair, batch, tol), min(fam.p, fam.q)
                worst_canon = max(worst_canon,
                                  float(normal_form_residuals(pair, P, r).max()))
            partners, pairings = partner_null_batch(pair, batch, tol)
            worst_pairing = max(worst_pairing, float(pairings.max()))
            st = stabilizers_of_rays(pair, batch.S, tol)
            st_hat = stabilizers_of_rays(pair, partners.S, tol)
            stab_match = stab_match and bool(np.array_equal(st.dims, st_hat.dims))
            worst_theta = max(worst_theta,
                              float(stabilizer_mismatch(pair, st, st_hat).max()))
        if fam.field in ("C", "H"):
            rep.residual(f"{t}_canonical_gram", worst_canon, 1e-9,
                         anchor="canonical basis reproduces the corner normal form")
        rep.equals(f"{t}_stab_dims_match_partner", stab_match, True,
                   anchor="the ray and its partner have equal stabilizer dimension")
        rep.residual(f"{t}_stab_equals_partner_stab", worst_theta, 1e-9,
                     anchor="stabilizer subspaces of the ray and its partner coincide")
        rep.add(f"{t}_partner_pairing_negative", worst_pairing < 0,
                worst_pairing, "< 0", None,
                anchor="the ray pairs strictly negatively with its partner")
        if (fam.field, fam.p, fam.q) == ("R", 2, 1):
            for stratum, sdim in STRATUM_STAB_DIM.items():
                n_class = 0
                sdims = set()
                for k in trial_blocks(pair, cfg.trials):
                    batch = sample_so21_stratum_batch(pair, stratum, k, rng=rng, tol=tol)
                    n_class += int(np.count_nonzero(so21_orbit_class(batch.S, tol) == stratum))
                    sdims.update(stabilizers_of_rays(pair, batch.S, tol).dims.tolist())
                rep.equals(f"R21_stratum_{stratum}_classified", n_class, cfg.trials,
                           anchor="stratum samples classify as their stratum")
                rep.equals(f"R21_stratum_{stratum}_stab_dim",
                           tuple(sorted(sdims)), (sdim,),
                           anchor="stratum stabilizer dimension")
    return rep


def suite_su21(cfg: SuiteConfig) -> Report:
    rep = Report("su21", cfg.seed)
    tol = cfg.tolerance
    d = su21_build(seed=cfg.seed, tol=tol)
    _absorb(rep, su21_invariants(d, tol))
    _absorb(rep, su21_bracket_table(d, trials=cfg.trials, rng=cfg.seed, tol=tol))
    _absorb(rep, su21_ad_action(d, trials=min(cfg.trials, 50), rng=cfg.seed, tol=tol))
    rng = np.random.default_rng(cfg.seed)
    w_diag = w_anti = w_pure = 0.0
    for _ in range(cfg.trials):
        X = d.n_space.random_element(rng)
        Y = d.n_space.random_element(rng)
        w_diag = max(w_diag, float(np.linalg.norm(su21_nabla_J(d, X, X))))
        w_anti = max(w_anti, float(np.linalg.norm(
            su21_nabla_J(d, X, d.J(Y)) + d.J(su21_nabla_J(d, X, Y)))))
        Xp = d.n_plus.random_element(rng)
        Yp = d.n_plus.random_element(rng)
        w_pure = max(w_pure, float(np.linalg.norm(
            su21_nabla_J(d, Xp, Yp) + torsion_eval(d.split, Xp, Yp))))
    rep.residual("su21_nablaJ_vanishes_on_diagonal", w_diag, 1e-9,
                 anchor="the structure derivative vanishes on equal arguments")
    rep.residual("su21_nablaJ_anticommutes", w_anti, 1e-9,
                 anchor="the structure derivative anticommutes with the structure")
    rep.residual("su21_nablaJ_pure_type", w_pure, 1e-9,
                 anchor="on pure elements the derivative is minus the torsion")
    lam, lam_res = su21_constant_type(d, trials=max(cfg.trials, 100), rng=cfg.seed)
    rep.add("su21_constant_type", abs(lam - 0.5) <= 1e-8, lam, 0.5, 1e-8,
            anchor="constant-type constant of the structure")
    rep.residual("su21_constant_type_spread", lam_res, 1e-8,
                 anchor="the fitted constant is constant across draws")
    ein, ein_res = su21_einstein(d)
    rep.add("su21_einstein", abs(ein - 2.5) <= 1e-7, ein, 2.5, 1e-7,
            anchor="Einstein constant of the induced metric")
    rep.residual("su21_einstein_isotropy", ein_res, 1e-7,
                 anchor="Ricci tensor is an exact multiple of the metric")
    rep.add("su21_einstein_is_five_lambda", abs(ein - 5 * lam) <= 1e-7,
            ein - 5 * lam, 0.0, 1e-7,
            anchor="Einstein constant equals five times the type constant")
    _absorb(rep, torsion_derivation_check(d.split), "su21_")
    chi = casimir(d.split, rng=cfg.seed)
    rep.residual("su21_casimir_multiple", float(np.abs(chi - 2.0 * np.eye(6)).max()),
                 1e-8, anchor="Casimir acts as twice the identity (derived value)")
    wz_ok, wz_c = wang_ziller_check(d.split)
    rep.equals("su21_wang_ziller", wz_ok, True,
               anchor="Casimir is a multiple of the identity")
    rep.info("su21_wang_ziller_constant", wz_c,
             anchor="fitted Casimir multiple")
    hk, note = homothety_check(d.split, d.S, d.S_hat, tol=tol)
    rep.equals("su21_partner_complement_matches", hk, True, anchor=note)
    rngb = np.random.default_rng(cfg.seed + 1)
    wb = 0.0
    for _ in range(10):
        u = d.n_space.random_element(rngb)
        v = d.n_space.random_element(rngb)
        w = d.n_space.random_element(rngb)
        wb = max(wb, float(np.linalg.norm(bianchi_residual(d.split, u, v, w))))
    rep.info("su21_first_bianchi_residual", wb,
             anchor="cyclic curvature sum minus torsion terms, reported only")
    return rep


def suite_sp21(cfg: SuiteConfig) -> Report:
    rep = Report("sp21", cfg.seed)
    tol = cfg.tolerance
    s = sp21_build(seed=cfg.seed, tol=tol)
    _absorb(rep, sp21_subalgebra_profiles(s, tol))
    _absorb(rep, sp21_action_formulas(s, trials=cfg.trials, rng=cfg.seed, tol=tol))
    _absorb(rep, sp21_duality_identity(s, trials=cfg.trials, rng=cfg.seed, tol=tol))
    _absorb(rep, sp21_hatn_isometry(s, tol))
    _absorb(rep, sp21_embedding_check(s, rng=cfg.seed, tol=tol))
    chi = sp21_casimir(s, tol)
    rep.residual("sp21_casimir_multiple",
                 float(np.abs(chi - 6.0 * np.eye(12)).max()), 1e-8,
                 anchor="Casimir of the explicit nine-frame acts as six times the identity")
    chi2 = casimir(s.split, rng=cfg.seed)
    rep.residual("sp21_casimir_generic_frame",
                 float(np.abs(chi2 - 6.0 * np.eye(12)).max()), 1e-8,
                 anchor="Casimir from a generic orthonormal frame agrees")
    wz_ok, wz_c = wang_ziller_check(s.split)
    rep.equals("sp21_wang_ziller", wz_ok, True,
               anchor="Casimir is a multiple of the identity")
    rep.info("sp21_wang_ziller_constant", wz_c, anchor="fitted Casimir multiple")
    _absorb(rep, sp21_grading_report(s))
    s2 = sp21_build(a=2.0, seed=cfg.seed, tol=tol)
    _absorb(rep, sp21_duality_identity(s2, trials=cfg.trials, rng=cfg.seed, tol=tol),
            "a2_")
    ein, ein_res = einstein_fit(s.split)
    rep.add("sp21_einstein", abs(ein - 7.0) <= 1e-7, ein, 7.0, 1e-7,
            anchor="Einstein constant of the induced metric (derived value)")
    rep.residual("sp21_einstein_isotropy", ein_res, 1e-7,
                 anchor="Ricci tensor is an exact multiple of the metric")
    hk, note = homothety_check(s.split, s.S, s.S_hat,
                               isometry=hatn_isometry_map, tol=tol)
    rep.equals("sp21_partner_complement_matches", hk, True, anchor=note)
    _absorb(rep, torsion_derivation_check(s.split), "sp21_")
    rngb = np.random.default_rng(cfg.seed + 1)
    wbv = 0.0
    for _ in range(10):
        u = s.split.n.random_element(rngb)
        v = s.split.n.random_element(rngb)
        w = s.split.n.random_element(rngb)
        wbv = max(wbv, float(np.linalg.norm(bianchi_residual(s.split, u, v, w))))
    rep.info("sp21_first_bianchi_residual", wbv,
             anchor="cyclic curvature sum minus torsion terms, reported only")
    return rep


SUITES = {
    "table": suite_table,
    "axioms": suite_axioms,
    "stabilizers": suite_stabilizers,
    "orbits": suite_orbits,
    "su21": suite_su21,
    "sp21": suite_sp21,
}


def run(cfg: SuiteConfig) -> Report:
    """Execute the configured suite; checks come back sorted by name.

    A suite that raises mid-run (an unattainable tolerance, for example,
    or a sampler that cannot meet it) is recorded as a single failed check
    instead of a traceback.  numpy's LinAlgError is a ValueError.
    """
    try:
        if cfg.suite == "all":
            rep = Report("all", cfg.seed)
            for name in ("table", "axioms", "stabilizers", "orbits",
                         "su21", "sp21"):
                _absorb(rep, SUITES[name](cfg))
        else:
            rep = SUITES[cfg.suite](cfg)
    except (ValueError, RuntimeError) as exc:
        rep = Report(cfg.suite, cfg.seed)
        rep.add(f"{cfg.suite}_aborted", False, str(exc), None, None,
                anchor="suite raised before completing")
    rep.checks.sort(key=lambda c: c.name)
    return rep


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _jval(v) -> str:
    if isinstance(v, str):
        return json.dumps(v)
    if v is None:
        return "null"
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.17g" % float(v)
    if isinstance(v, (tuple, list)):
        return "[" + ",".join(_jval(x) for x in v) + "]"
    raise TypeError(f"cannot serialize {type(v)!r}")


def render_json(rep: Report) -> str:
    parts = []
    for c in rep.checks:
        parts.append(
            "{" + ",".join([
                f'"name":{_jval(c.name)}',
                f'"status":{_jval(c.status)}',
                f'"observed":{_jval(c.observed)}',
                f'"expected":{_jval(c.expected)}',
                f'"tol":{_jval(c.tol)}',
                f'"anchor":{_jval(c.anchor)}',
            ]) + "}"
        )
    return (
        "{" + f'"suite":{_jval(rep.suite)},"seed":{_jval(rep.seed)},'
        + '"checks":[' + ",".join(parts) + "],"
        + f'"summary":{{"pass":{rep.n_pass},"fail":{rep.n_fail}}}' + "}"
    )


def _mval(v) -> str:
    if isinstance(v, (float, np.floating)):
        return "%.5g" % float(v)
    if isinstance(v, (tuple, list)):
        return "(" + ", ".join(_mval(x) for x in v) + ")"
    return str(v)


def render_markdown(rep: Report, wall: float) -> str:
    lines = [
        f"## suite: {rep.suite} (seed {rep.seed})",
        "",
        "| check | status | observed | expected | tol | anchor |",
        "|---|---|---|---|---|---|",
    ]
    for c in rep.checks:
        tol = "" if c.tol is None else "%.3g" % c.tol
        exp = "" if c.expected is None else _mval(c.expected)
        lines.append(
            f"| {c.name} | {c.status} | {_mval(c.observed)} | {exp} | {tol} | {c.anchor} |"
        )
    lines += ["", f"**pass {rep.n_pass}, fail {rep.n_fail}** (wall {wall:.2f}s)"]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def parse_args(argv=None) -> SuiteConfig:
    parser = argparse.ArgumentParser(
        prog="nullcone",
        description="Run seeded verification suites for the symmetric-pair "
                    "null-cone laboratory.",
    )
    parser.add_argument("--suite", required=True, choices=SUITE_NAMES)
    parser.add_argument("--field", choices=FIELDS,
                        help="restrict family suites to one base field")
    parser.add_argument("--p", type=int, help="positive part of the signature")
    parser.add_argument("--q", type=int, help="negative part of the signature")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", type=float, default=1e-9)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--format", choices=("json", "markdown"),
                        default="markdown")
    args = parser.parse_args(argv)
    if args.p is not None and args.p < 1:
        parser.error("--p must be at least 1")
    if args.q is not None and args.q < 1:
        parser.error("--q must be at least 1")
    if args.seed < 0 or args.seed >= 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    if not (math.isfinite(args.tol) and args.tol > 0):
        parser.error("--tol must be positive and finite")
    if args.trials < 1:
        parser.error("--trials must be at least 1")
    cfg = SuiteConfig(suite=args.suite, field=args.field, p=args.p, q=args.q,
                      seed=args.seed, tol_abs=args.tol, trials=args.trials,
                      format=args.format)
    if cfg.suite in ("stabilizers", "orbits"):
        if any(f.n < 3 for f in cfg.families()):
            parser.error("orbit suites need p + q >= 3")
    return cfg


def main(argv=None) -> int:
    cfg = parse_args(argv)
    t0 = time.perf_counter()
    rep = run(cfg)
    wall = time.perf_counter() - t0
    if cfg.format == "json":
        print(render_json(rep))
    else:
        print(render_markdown(rep, wall))
    return 0 if rep.ok else 1


if __name__ == "__main__":
    sys.exit(main())
