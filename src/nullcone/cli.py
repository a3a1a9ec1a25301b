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
import os
import sys
import time
from typing import NamedTuple

import numpy as np

from .casestudies import sp21_report, su21_report
from .linalg import Tolerance
from .orbits import orbits_report, stabilizers_report
from .pairs import FIELDS, Family, axioms_report, build_pair, default_families, table_report
from .report import Report

SUITE_NAMES = ("table", "axioms", "stabilizers", "orbits", "su21", "sp21", "all")


class SuiteConfig(NamedTuple):
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


# ---------------------------------------------------------------------------
# suites: each runs library routines on the configured families and seed
# ---------------------------------------------------------------------------


def suite_table(cfg: SuiteConfig) -> Report:
    return table_report(default_families(2, 6), cfg.tolerance)


def suite_axioms(cfg: SuiteConfig) -> Report:
    rep = Report("axioms", cfg.seed)
    for fam in cfg.families():
        rep.absorb(axioms_report(fam, cfg.tolerance))
    return rep


def _census(cfg: SuiteConfig, report) -> Report:
    """report(pair, trials, seed) on the pair of every family; the report
    reads the tolerance from the pair."""
    rep = Report(cfg.suite, cfg.seed)
    for fam in cfg.families():
        pair = build_pair(fam, tol=cfg.tolerance)
        rep.absorb(report(pair, cfg.trials, cfg.seed))
        # free this pair and its cached frames before the next build
        del pair
    return rep


def suite_stabilizers(cfg: SuiteConfig) -> Report:
    return _census(cfg, stabilizers_report)


def suite_orbits(cfg: SuiteConfig) -> Report:
    return _census(cfg, orbits_report)


def suite_su21(cfg: SuiteConfig) -> Report:
    return su21_report(cfg.seed, cfg.trials, cfg.tolerance)


def suite_sp21(cfg: SuiteConfig) -> Report:
    return sp21_report(cfg.seed, cfg.trials, cfg.tolerance)


SUITES = {
    "table": suite_table,
    "axioms": suite_axioms,
    "stabilizers": suite_stabilizers,
    "orbits": suite_orbits,
    "su21": suite_su21,
    "sp21": suite_sp21,
}


def _run_suite(name: str, cfg: SuiteConfig) -> Report:
    """One suite's report.  A suite that raises mid-run (an unattainable
    tolerance, for example, or a sampler that cannot meet it) is recorded
    as a single failed check instead of a traceback.  numpy's LinAlgError
    is a ValueError."""
    try:
        return SUITES[name](cfg)
    except (ValueError, RuntimeError) as exc:
        rep = Report(name, cfg.seed)
        rep.add(f"{name}_aborted", False, str(exc), None, None,
                anchor="suite raised before completing")
        return rep


def run(cfg: SuiteConfig) -> Report:
    """Execute the configured suite; checks come back sorted by name.
    Under "all" every suite runs, and aborts, on its own."""
    rep = Report(cfg.suite, cfg.seed)
    names = SUITES if cfg.suite == "all" else (cfg.suite,)
    for name in names:
        rep.absorb(_run_suite(name, cfg))
    rep.checks.sort(key=lambda c: c.name)
    return rep


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


_NONFINITE = {"nan": '"NaN"', "inf": '"Infinity"', "-inf": '"-Infinity"'}


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
        v = float(v)
        # JSON has no NaN or infinity: write the strings float() reads back
        return "%.17g" % v if math.isfinite(v) else _NONFINITE[str(v)]
    if type(v) in (tuple, list):  # not a subclass: a NamedTuple record is a tuple too
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
    if type(v) in (tuple, list):
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
    defaults = SuiteConfig._field_defaults
    parser.add_argument("--seed", type=int, default=defaults["seed"])
    parser.add_argument("--tol", type=float, default=defaults["tol_abs"])
    parser.add_argument("--trials", type=int, default=defaults["trials"])
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
    if cfg.suite in ("stabilizers", "orbits", "all"):
        if any(f.n < 3 for f in cfg.families()):
            parser.error("orbit suites need p + q >= 3")
    return cfg


def main(argv=None) -> int:
    cfg = parse_args(argv)
    t0 = time.perf_counter()
    rep = run(cfg)
    wall = time.perf_counter() - t0
    text = render_json(rep) if cfg.format == "json" else render_markdown(rep, wall)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: send what is still buffered to devnull, so
        # that the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("nullcone: stdout was closed before the report was written", file=sys.stderr)
        return 1
    return 0 if rep.ok else 1


if __name__ == "__main__":
    sys.exit(main())
