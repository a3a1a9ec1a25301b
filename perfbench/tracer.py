"""In-process tracer for one benchmark pass.

The tracer wraps the public functions of each nullcone module at run time,
inside the pass process only; no file under ``src/`` changes.  A wrapped
function opens a span on entry and closes it on exit.  Spans are
aggregated in memory by name (calls, errors, total and self seconds),
because a case-study pass opens about two hundred thousand of them and
keeping each record would dominate the pass's memory.  A span's self time
is its duration minus the time covered by the spans it opened.

Calls into numpy's ``lstsq`` and ``svd`` are counted, not spanned, so the
LAPACK time stays in the self time of the span that asked for it.  Their
flop counts are computed from argument shapes with the Golub-Van Loan
operation counts; they are model counts, not measurements.
"""

from __future__ import annotations

import hashlib
import sys
import time
from collections import Counter

import numpy as np

# Span name -> (module, attribute path).  A dotted attribute is a method.
SPANS = {
    "RealSubspace.coords": ("linalg", "RealSubspace.coords"),
    "RealSubspace.init": ("linalg", "RealSubspace.__init__"),
    "BilinForm.call": ("linalg", "BilinForm.__call__"),
    "bracket": ("linalg", "bracket"),
    "build_pair": ("pairs", "build_pair"),
    "check_symmetric_axioms": ("pairs", "check_symmetric_axioms"),
    "dimension_table": ("pairs", "dimension_table"),
    "sample_null_generic": ("orbits", "sample_null_generic"),
    "partner_null": ("orbits", "partner_null"),
    "canonicalize_unitary": ("orbits", "canonicalize_unitary"),
    "canonicalize_symplectic": ("orbits", "canonicalize_symplectic"),
    "sample_so21_stratum": ("orbits", "sample_so21_stratum"),
    "stabilizer_of_ray": ("orbits", "stabilizer_of_ray"),
    "reductive_split": ("reductive", "reductive_split"),
    "torsion_derivation_check": ("reductive", "torsion_derivation_check"),
    "ricci_levi_civita": ("reductive", "ricci_levi_civita"),
    "casimir": ("reductive", "casimir"),
    "homothety_check": ("reductive", "homothety_check"),
    "su21_build": ("casestudies", "su21_build"),
    "sp21_build": ("casestudies", "sp21_build"),
    "sp21_duality_identity": ("casestudies", "sp21_duality_identity"),
    "sp21_hatn_isometry": ("casestudies", "sp21_hatn_isometry"),
    "sp21_embedding_check": ("casestudies", "sp21_embedding_check"),
    "render_json": ("cli", "render_json"),
}


def _svd_flops(shape, full_matrices=True, compute_uv=True, complex_=False) -> float:
    """Golub-Reinsch SVD operation count for a (stack of) m x n matrices.

    With ``full_matrices`` the count includes building the whole m x m U.
    A complex operand is counted at four real flops per complex one.
    """
    *batch, m, n = shape
    big, small = max(m, n), min(m, n)
    if not compute_uv:
        f = 4 * big * small**2 - 4 * small**3 / 3
    elif full_matrices:
        f = 4 * big**2 * small + 8 * big * small**2 + 9 * small**3
    else:
        f = 14 * big * small**2 + 8 * small**3
    return float(f) * int(np.prod(batch, dtype=np.int64)) * (4 if complex_ else 1)


def _lstsq_flops(a, b) -> float:
    """Model count for a least-squares solve: the SVD of A with V, plus
    applying it to the right-hand sides."""
    m, n = a.shape[-2:]
    k = 1 if b.ndim == 1 else b.shape[-1]
    big, small = max(m, n), min(m, n)
    f = 4 * big * small**2 + 8 * small**3 + 2 * m * n * k
    return float(f) * (4 if np.iscomplexobj(a) else 1)


class Tracer:
    """Span and counter bookkeeping for one process."""

    def __init__(self):
        self.stack = []  # open spans: [name, seconds covered by child spans]
        self.spans = {}  # name -> [calls, errors, total_s, self_s]
        self.counts = Counter()
        self.flops = Counter()
        self.rays = set()
        self.missing = []

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn, observe=None):
        stack = self.stack
        stat = self.spans.setdefault(name, [0, 0, 0.0, 0.0])
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat[1] += 1
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[2] += dur
                stat[3] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return wrapper

    def counter(self, name, fn, flops=None):
        """Count calls by the innermost open span, without opening a span."""
        stack, counts, work = self.stack, self.counts, self.flops

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            counts[(name, parent)] += 1
            if flops is not None:
                work[name] += flops(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, package: str = "nullcone"):
        """Wrap every target in every loaded module of the package.

        Names bound by ``from .x import f`` are rebound too, so a call
        reaches the wrapper whichever module it is made from.  A target
        that no longer exists is recorded in ``missing`` and its metrics
        read zero.
        """
        mods = [m for k, m in sys.modules.items()
                if m is not None and (k == package or k.startswith(package + "."))]

        def rebind(orig, new):
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, new)

        def observe_ray(pair, nv, *args, **kwargs):
            S = np.ascontiguousarray(nv.S)
            self.rays.add(hashlib.blake2b(S.tobytes(), digest_size=16).digest())

        for name, (modname, attr) in SPANS.items():
            mod = sys.modules.get(f"{package}.{modname}")
            owner_name, _, fname = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = getattr(owner, fname, None) if owner is not None else None
            if orig is None:
                self.missing.append(name)
                self.spans.setdefault(name, [0, 0, 0.0, 0.0])
                continue
            observe = observe_ray if name == "stabilizer_of_ray" else None
            new = self.span(name, orig, observe)
            if owner_name:
                setattr(owner, fname, new)
            else:
                rebind(orig, new)

        cli = sys.modules.get(f"{package}.cli")
        suites = getattr(cli, "SUITES", None)
        if isinstance(suites, dict):
            for key, fn in list(suites.items()):
                new = self.span("suite_body", fn)
                suites[key] = new
                rebind(fn, new)
        else:
            self.missing.append("suite_body")
            self.spans.setdefault("suite_body", [0, 0, 0.0, 0.0])

        orbits = sys.modules.get(f"{package}.orbits")
        mnv = getattr(orbits, "make_null_vector", None)
        if mnv is not None:
            rebind(mnv, self.counter("make_null_vector", mnv))
        else:
            self.missing.append("make_null_vector")

        la = np.linalg
        lstsq, svd = la.lstsq, la.svd
        la.lstsq = self.counter(
            "lstsq", lstsq,
            lambda a, b, *r, **k: _lstsq_flops(np.asarray(a), np.asarray(b)))

        def svd_work(a, full_matrices=True, compute_uv=True, *r, **k):
            a = np.asarray(a)
            return _svd_flops(a.shape, full_matrices, compute_uv, np.iscomplexobj(a))

        la.svd = self.counter("svd", svd, svd_work)

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counts": [[n, p, v] for (n, p), v in sorted(self.counts.items())],
            "flops": dict(self.flops),
            "rays": len(self.rays),
            "missing": list(self.missing),
        }
