"""Record ``reference.json``: the checks each workload must report.

    python3 perfbench/make_reference.py

Runs one untraced pass of every workload on each seed in SEEDS and stores
the suites' check names with their statuses, which must agree across the
seeds and contain no failure, plus each seed's output digests.  The run
benchmark gates on the checks; a changed digest is only reported, since a
later change may legitimately alter the random stream.
"""

from __future__ import annotations

import json
import sys

from run import HERE, WORKLOADS, git_sha, run_child

SEEDS = (0, 1, 2, 7, 12345)


def main() -> int:
    out = {"commit": git_sha(), "seeds": list(SEEDS), "workloads": {}}
    for workload, suites in WORKLOADS.items():
        checks, shas = None, {}
        for seed in SEEDS:
            rec = run_child({"suites": [a + ["--seed", str(seed)] for a in suites]},
                            timeout=170)
            if "error" in rec or any(s["error"] for s in rec["suites"]):
                print(f"{workload} seed {seed}: pass failed: {rec}", file=sys.stderr)
                return 1
            got = [s["checks"] for s in rec["suites"]]
            if any(st == "fail" for suite in got for _, st in suite):
                print(f"{workload} seed {seed}: a check fails", file=sys.stderr)
                return 1
            if checks is not None and got != checks:
                print(f"{workload} seed {seed}: checks differ from seed {SEEDS[0]}",
                      file=sys.stderr)
                return 1
            checks = got
            shas[str(seed)] = [s["sha256"] for s in rec["suites"]]
            print(f"{workload} seed {seed}: {sum(map(len, got))} checks")
        out["workloads"][workload] = {
            "suites": [{"argv": a, "checks": c} for a, c in zip(suites, checks)],
            "sha256": shas,
        }
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
