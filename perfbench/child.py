"""One benchmark pass, run in a fresh interpreter by ``run.py``.

Usage: python3 child.py SPEC_JSON

SPEC_JSON holds ``suites`` (a list of ``nullcone`` argument lists), and
the flags ``trace`` (wrap the library's public functions first) and
``env`` (import only and describe the environment).  The pass runs every
suite through ``nullcone.cli.main(argv + ["--format", "json"])``, which is
the path a user's command takes, and prints one JSON line with the
timestamps, every suite's output digest and checks, and the peak memory.
Timestamps come from ``time.perf_counter``, which is the system-wide
monotonic clock on Linux, so the parent can subtract its own spawn time.
"""

import sys
import time


def _environment() -> dict:
    import os
    import platform

    import numpy as np
    import scipy

    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        info = cfg.get("Build Dependencies", {}).get("blas", {})
        blas = {k: info.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, AttributeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(spec_json: str) -> int:
    import nullcone.cli as cli

    t_imported = time.perf_counter()

    import contextlib
    import hashlib
    import io
    import json
    import resource

    spec = json.loads(spec_json)
    out = {"t_imported": t_imported, "module_file": cli.__file__}
    if spec.get("env"):
        out["env"] = _environment()
        print(json.dumps(out))
        return 0

    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    bodies = []
    t_pass = time.perf_counter()
    for argv in spec["suites"]:
        buf = io.StringIO()
        t0 = time.perf_counter()
        rc, error = None, None
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(argv) + ["--format", "json"])
        except (Exception, SystemExit) as exc:  # a raising suite is a result
            error = f"{type(exc).__name__}: {exc}"
        bodies.append((argv, rc, error, buf.getvalue(), time.perf_counter() - t0))
    t_end = time.perf_counter()

    suites = []
    for argv, rc, error, text, seconds in bodies:
        checks = None
        body = text.strip()
        try:
            checks = [[c["name"], c["status"]] for c in json.loads(body)["checks"]]
        except (ValueError, KeyError, TypeError) as exc:
            error = error or f"unparseable output: {exc}"
        suites.append({
            "argv": argv, "rc": rc, "error": error, "seconds": seconds,
            "sha256": hashlib.sha256(body.encode()).hexdigest(),
            "checks": checks,
        })
    out.update(
        t_pass=t_pass,
        t_end=t_end,
        suites=suites,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        trace=tracer.snapshot() if tracer else None,
    )
    print(json.dumps(out), file=sys.__stdout__)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
