"""Compare the CLI's JSON reports of two source trees, run by run.

    python tools/compare_runs.py OLD_SRC NEW_SRC [--seeds 0 1 2 7 12345] [--runs JSON]

OLD_SRC and NEW_SRC are directories that hold the nullcone package, such
as the src/ of two checkouts.  --runs is a JSON list of argument lists,
each the arguments after --suite, in the format of SCIPY_FREE_RUNS in
.github/workflows/tier1.yml; the default is [["all"]].  Every list runs at
every seed, once per tree, as

    python -m nullcone.cli --suite ARGS... --seed SEED --format json

in a fresh interpreter with PYTHONPATH set to the tree and one BLAS thread.

For each run with a difference the tool prints a header line and then one
line per exit-code change, status change, check added or removed, and
observed value moved (`name: old -> new`).  Runs without a difference
print nothing.  The exit status is 1 on any exit-code, status or name
change, or when a run writes no JSON report; moved values alone exit 0.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_cli(tree: Path, args: list[str], seed: int):
    """(exit code, checks by name, or None without a JSON report) of one run."""
    env = dict(os.environ, PYTHONPATH=str(tree), **{v: "1" for v in THREAD_VARS})
    argv = [sys.executable, "-m", "nullcone.cli", "--suite", *args,
            "--seed", str(seed), "--format", "json"]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    try:
        checks = {c["name"]: c for c in json.loads(proc.stdout)["checks"]}
    except (ValueError, KeyError, TypeError):
        checks = None
    return proc.returncode, checks


def _text(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def compare(old, new) -> tuple[list[str], bool]:
    """The difference lines of two runs and whether any of them fails."""
    (old_code, old_checks), (new_code, new_checks) = old, new
    lines, failed = [], False
    if old_code != new_code:
        lines.append(f"exit code: {old_code} -> {new_code}")
        failed = True
    for side, checks in (("old", old_checks), ("new", new_checks)):
        if checks is None:
            lines.append(f"no JSON report from the {side} tree")
            failed = True
    if old_checks is None or new_checks is None:
        return lines, failed
    for name in sorted(old_checks.keys() | new_checks.keys()):
        if name not in new_checks:
            lines.append(f"removed: {name}")
            failed = True
        elif name not in old_checks:
            lines.append(f"added: {name}")
            failed = True
        else:
            a, b = old_checks[name], new_checks[name]
            if a["status"] != b["status"]:
                lines.append(f"status {name}: {a['status']} -> {b['status']}")
                failed = True
            if a["observed"] != b["observed"]:
                lines.append(f"{name}: {_text(a['observed'])} -> {_text(b['observed'])}")
    return lines, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="source tree of the old version")
    parser.add_argument("new", type=Path, help="source tree of the new version")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 7, 12345])
    parser.add_argument("--runs", type=json.loads, default=[["all"]],
                        help='JSON list of argument lists after --suite, e.g. \'[["table"]]\'')
    args = parser.parse_args(argv)
    for tree in (args.old, args.new):
        if not (tree / "nullcone" / "cli.py").is_file():
            parser.error(f"{tree} holds no nullcone package")
    any_failed = False
    for run_args in args.runs:
        for seed in args.seeds:
            lines, failed = compare(run_cli(args.old.resolve(), run_args, seed),
                                    run_cli(args.new.resolve(), run_args, seed))
            any_failed = any_failed or failed
            if lines:
                print(f"--suite {' '.join(run_args)} --seed {seed}:")
                print("\n".join("  " + line for line in lines))
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
