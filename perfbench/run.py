"""Benchmark for the nullcone verification suites.

    python3 perfbench/run.py --workload casestudy --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --all --seconds 10     # every metric, every workload

Each pass is a fresh interpreter (``child.py``) that imports
``nullcone.cli`` from ``src/`` of this checkout and runs the workload's
suites through ``nullcone.cli.main(... --format json)``, one process at a
time, with BLAS pinned to one thread in the child's environment only.
Passes repeat while the next one is expected to end within ``--seconds``,
each after a calibration child (``calibrate.py``).  Every pass is checked
against ``reference.json``; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 1`` untraced and traced passes alternate, and the metrics
are the per-layer numbers of ``tracer.py``.  See README.md for the
metric definitions and the reasons behind the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = {
    "casestudy": [["--suite", "su21"], ["--suite", "sp21"]],
    "census": [
        ["--suite", "stabilizers", "--p", "2", "--q", "1", "--trials", "400"],
        ["--suite", "orbits", "--p", "2", "--q", "1", "--trials", "400"],
    ],
    "scaling": [
        ["--suite", "axioms", "--p", "3", "--q", "2"],
        ["--suite", "stabilizers", "--p", "6", "--q", "5", "--trials", "4"],
        ["--suite", "table"],
    ],
}

END_TO_END_UNITS = {"pass_s": "s", "pass_s_tail": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> unit.  "<span>.calls" and "<span>.self_s" read the
# tracer's span table; the others are derived in layer_metrics().
PER_LAYER_UNITS = {
    "RealSubspace.coords.calls": "count",
    "RealSubspace.coords.self_s": "s",
    "coords_per_subspace": "ratio",
    "lstsq.calls": "count",
    "lstsq.gflop": "gflop",
    "RealSubspace.init.calls": "count",
    "RealSubspace.init.self_s": "s",
    "BilinForm.call.calls": "count",
    "BilinForm.call.self_s": "s",
    "bracket.self_s": "s",
    "svd.calls": "count",
    "svd.gflop": "gflop",
    "build_pair.calls": "count",
    "build_pair.self_s": "s",
    "check_symmetric_axioms.self_s": "s",
    "dimension_table.self_s": "s",
    "sample_null_generic.calls": "count",
    "sample_null_generic.self_s": "s",
    "partner_null.self_s": "s",
    "canonicalize_unitary.self_s": "s",
    "canonicalize_symplectic.self_s": "s",
    "sample_so21_stratum.self_s": "s",
    "stabilizer_of_ray.calls": "count",
    "stabilizer_of_ray.self_s": "s",
    "sample_accept_ratio": "ratio",
    "stabilizer_per_ray": "ratio",
    "reductive_split.self_s": "s",
    "torsion_derivation_check.self_s": "s",
    "ricci_levi_civita.self_s": "s",
    "casimir.self_s": "s",
    "homothety_check.self_s": "s",
    "su21_build.self_s": "s",
    "sp21_build.self_s": "s",
    "sp21_duality_identity.self_s": "s",
    "sp21_hatn_isometry.self_s": "s",
    "sp21_embedding_check.self_s": "s",
    "suite_body.self_s": "s",
    "render_json.self_s": "s",
    "checks": "count",
    "trace.overhead_ratio": "ratio",
}

DEADLINE_S = 165.0  # a run must end within 180 s; no pass starts after this
MIN_PASSES = 3  # untraced passes in a --trace 0 run
MIN_PAIRS = 2  # untraced/traced pairs in a --trace 1 run
TAIL_ABOVE = 10
CAL_REF_S = 0.4  # calibration start-up the timings are scaled to


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, broken child)."""


def child_env() -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(spec: dict | None, timeout: float) -> dict:
    """Spawn one pass (or, with no spec, the calibration child); return its
    record with the parent's spawn and exit times."""
    args = ["calibrate.py"] if spec is None else ["child.py", json.dumps(spec)]
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / args[0])] + args[1:],
            env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"t_spawn": t_spawn, "t_exit": time.perf_counter(),
                "error": f"pass exceeded {timeout:.0f} s"}
    t_exit = time.perf_counter()
    lines = proc.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except ValueError:
        rec = None
    if rec is None:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no result line"]
        return {"t_spawn": t_spawn, "t_exit": t_exit,
                "error": f"exit {proc.returncode}: {tail[0]}"}
    rec.update(t_spawn=t_spawn, t_exit=t_exit)
    if spec is not None and not Path(rec["module_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"nullcone imported from {rec['module_file']}, not {ROOT / 'src'}")
    return rec


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True,
                              timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def score_pass(rec: dict, ref_suites: list, first_shas: list | None):
    """(operations, failed, notes) for one pass against the reference.

    An operation is one check of one suite: every reference check, plus
    any new check the pass reports.  A reference check fails when it is
    missing or its status changed; a new check fails when its status is
    "fail".  A pass that raised or exited non-zero fails every reference
    check, and so does a suite whose output digest differs from the first
    pass of the run (all passes of a run share one seed).
    """
    ops = failed = 0
    notes = []
    suites = rec.get("suites") or []
    if "error" in rec:
        notes.append(rec["error"])
    for i, ref in enumerate(ref_suites):
        want = dict(ref["checks"])
        got_suite = suites[i] if i < len(suites) else None
        got = dict(got_suite["checks"] or []) if got_suite else {}
        unstable = (got_suite is not None and first_shas is not None
                    and got_suite["sha256"] != first_shas[i])
        if got_suite and got_suite["error"]:
            notes.append(f"{' '.join(ref['argv'])}: {got_suite['error']}")
        if unstable:
            notes.append(f"{' '.join(ref['argv'])}: output differs from the run's first pass")
        for name in sorted(set(want) | set(got)):
            ops += 1
            if unstable:
                bad = True
            elif name in want:
                bad = got.get(name) != want[name]
                if bad:
                    notes.append(f"{name}: {got.get(name, 'missing')} (reference {want[name]})")
            else:
                bad = got[name] == "fail"
                if bad:
                    notes.append(f"{name}: new check fails")
            failed += bad
    return ops, failed, notes


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def pass_seconds(rec: dict) -> float:
    return rec["t_end"] - rec["t_pass"]


def startup(rec: dict) -> float:
    return rec["t_imported"] - rec["t_spawn"]


def tail(values: list):
    """(value, percentile, passes above) for the upper tail of a sample.

    The highest percentile with at least TAIL_ABOVE passes above it needs
    more passes than a run holds, so fewer are required in short runs:
    min(TAIL_ABOVE, n // 4) above, which is the upper quartile for runs of
    under 44 passes.
    """
    xs = sorted(values)
    n = len(xs)
    above = min(TAIL_ABOVE, n // 4)
    return xs[n - 1 - above], 100.0 * (n - above) / n, above


def end_to_end(passes: list) -> tuple[dict, dict]:
    """Timings in calibrated seconds, plus the raw figures behind them.

    Each pass's times are divided by the start-up time of the calibration
    child spawned just before it, and the run reports the median (or tail)
    of those ratios times CAL_REF_S: seconds on a machine whose
    calibration starts in CAL_REF_S.  The host's speed drifts, in bursts
    of seconds and over minutes, and moves the calibration and the pass
    alike; see README.md.
    """
    times = [pass_seconds(r) for r in passes]
    cals = [startup(r["calibration"]) for r in passes]
    setups = [startup(r) for r in passes]
    ratios = [t / c for t, c in zip(times, cals)]
    value, pct, above = tail(ratios)
    metrics = {
        "pass_s": statistics.median(ratios) * CAL_REF_S,
        "pass_s_tail": value * CAL_REF_S,
        "setup_s": statistics.median(s / c for s, c in zip(setups, cals)) * CAL_REF_S,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
    }
    notes = {"passes": len(times), "pass_s_tail_percentile": pct,
             "pass_s_tail_passes_above": above,
             "calibration_s": statistics.median(cals),
             "wall_pass_s": statistics.median(times),
             "wall_pass_s_tail": tail(times)[0],
             "wall_setup_s": statistics.median(setups)}
    return metrics, notes


def exact_part(snap: dict) -> dict:
    """The part of a trace that must repeat exactly between passes."""
    return {"calls": {k: v[:2] for k, v in snap["spans"].items()},
            "counts": snap["counts"], "flops": snap["flops"], "rays": snap["rays"]}


def layer_metrics(traced: list, untraced: list) -> dict:
    snaps = [r["trace"] for r in traced]
    first = snaps[0]
    spans = first["spans"]

    def calls(name):
        return spans[name][0]

    def self_s(name):
        return statistics.median(s["spans"][name][3] for s in snaps)

    def count(name, parent=None):
        return sum(v for n, p, v in first["counts"] if n == name and parent in (None, p))

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in PER_LAYER_UNITS:
        head, _, field = name.rpartition(".")
        if head in spans and field == "calls":
            m[name] = calls(head)
        elif head in spans and field == "self_s":
            m[name] = self_s(head)
    drawn = calls("sample_null_generic") - spans["sample_null_generic"][1]
    m.update({
        "coords_per_subspace": ratio(calls("RealSubspace.coords"), calls("RealSubspace.init")),
        "lstsq.calls": count("lstsq"),
        "lstsq.gflop": first["flops"].get("lstsq", 0.0) / 1e9,
        "svd.calls": count("svd"),
        "svd.gflop": first["flops"].get("svd", 0.0) / 1e9,
        "sample_accept_ratio": ratio(drawn, count("make_null_vector", "sample_null_generic")),
        "stabilizer_per_ray": ratio(calls("stabilizer_of_ray"), first["rays"]),
        "checks": sum(len(s["checks"] or []) for s in traced[0]["suites"]),
        "trace.overhead_ratio": ratio(
            statistics.median(pass_seconds(r) for r in traced),
            statistics.median(pass_seconds(r) for r in untraced)),
    })
    return m


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def load_reference(workload: str) -> dict:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)["workloads"][workload]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "nullcone" / "cli.py").is_file():
        raise BenchError(f"no nullcone source tree under {ROOT / 'src'}")
    ref = load_reference(workload)
    suites = [argv + ["--seed", str(seed)] for argv in WORKLOADS[workload]]
    if [s["argv"] for s in ref["suites"]] != WORKLOADS[workload]:
        raise BenchError("reference.json does not describe this workload's suites")
    t_start = time.perf_counter()

    # Untimed warm-up pass: writes the bytecode cache and records versions.
    warm = run_child({"env": True}, timeout=60)
    if "env" not in warm:
        raise BenchError(f"the warm-up pass failed: {warm.get('error')}")
    env = dict(warm["env"], git_sha=git_sha())

    # Passes (alternating untraced and traced ones under --trace) repeat
    # while the next pass, or pair of passes, is expected to end within
    # the requested seconds; the minimum counts are run regardless.
    kinds = [False, True] if trace else [False]
    passes = []
    while True:
        elapsed = time.perf_counter() - t_start
        traced = kinds[len(passes) % len(kinds)]
        durations = {k: [p["t_exit"] - (p["calibration"] or p)["t_spawn"]
                         for p in passes if p["traced"] == k]
                     for k in kinds}
        est = sum(statistics.median(d) if d else 0.0 for d in durations.values())
        if elapsed + est > DEADLINE_S:
            break
        enough = (sum(1 for p in passes if p["traced"]) >= MIN_PAIRS if trace
                  else len(passes) >= MIN_PASSES)
        if enough and not traced and elapsed + est > seconds:
            break
        cal = None if trace else run_child(None, timeout=30)
        if cal is not None and "error" in cal:
            raise BenchError(f"the calibration child failed: {cal['error']}")
        rec = run_child({"suites": suites, "trace": traced},
                        timeout=max(5.0, 175.0 - elapsed))
        rec["traced"] = traced
        rec["calibration"] = cal
        passes.append(rec)

    # correctness and determinism
    first_shas = next(([s["sha256"] for s in p["suites"]] for p in passes
                       if "error" not in p), None)
    attempted = failed = 0
    notes = []
    for i, rec in enumerate(passes):
        ops, bad, why = score_pass(rec, ref["suites"], first_shas)
        attempted += ops
        failed += bad
        notes += [f"pass {i}: {w}" for w in why]
    good = [p for p in passes if "error" not in p]
    untraced = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    self_checks = {}
    if trace:
        self_checks["traced_untraced_same_output"] = (
            bool(traced) and bool(untraced)
            and all([s["sha256"] for s in p["suites"]] == first_shas for p in good))
        self_checks["trace_counts_repeat"] = (
            bool(traced) and all(exact_part(p["trace"]) == exact_part(traced[0]["trace"])
                                 for p in traced))
        missing = traced[0]["trace"]["missing"] if traced else []
        if missing:
            notes.append(f"trace targets not found: {', '.join(missing)}")
    sha_ref = ref.get("sha256", {}).get(str(seed))
    sha_state = ("no reference for this seed" if sha_ref is None or first_shas is None
                 else "same as reference" if first_shas == sha_ref
                 else "changed from reference (not gated)")

    metrics, units, info = {}, {}, {}
    if untraced and (traced or not trace):
        if trace:
            metrics, units = layer_metrics(traced, untraced), PER_LAYER_UNITS
        else:
            metrics, info = end_to_end(untraced)
            units = END_TO_END_UNITS
    correct = failed == 0 and all(self_checks.values()) and bool(metrics)

    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": env, "correct": correct, "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "self_checks": self_checks, "output_sha256": first_shas,
        "output_vs_reference": sha_state, "notes": notes, "info": info,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
        "passes": [{
            "traced": p["traced"],
            "error": p.get("error"),
            "setup_s": startup(p) if "t_imported" in p else None,
            "pass_s": pass_seconds(p) if "t_end" in p else None,
            "peak_rss_mb": p.get("peak_rss_mb"),
            "calibration": p.get("calibration"),
            "suites": [{k: s[k] for k in ("argv", "rc", "error", "seconds", "sha256")}
                       for s in p.get("suites", [])],
            "trace": p.get("trace"),
        } for p in passes],
    }
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out_file.write_text(json.dumps(result, indent=1))

    print(f"# workload {workload}, seed {seed}, trace {int(trace)}, "
          f"{len(passes)} passes in {time.perf_counter() - t_start:.1f} s; record in {out_file}")
    print(f"# git {env['git_sha']}, nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, blas {json.dumps(env['blas'])}, "
          f"threads {json.dumps(env['threads'])}")
    print(f"# fail_ratio {result['fail_ratio']!r} ({failed} of {attempted} checks); "
          f"self-checks {json.dumps(self_checks)}; output {sha_state}")
    for key, val in info.items():
        print(f"# {key} {val!r}")
    for note in notes[:20]:
        print(f"# {note}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced; print every metric")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    try:
        if args.all:
            for workload in WORKLOADS:
                for trace in (False, True):
                    run_workload(workload, args.seed, args.seconds, trace)
            return 0
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"], "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
