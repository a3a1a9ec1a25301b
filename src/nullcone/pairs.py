"""Symmetric pairs sl(n, K) = h + m for K = R, C, H.

For a Hermitian form matrix F (diagonal signature matrix or the
antidiagonal variant, both with F^2 = 1) the two eigenspaces are cut out
by X*F = -FX (isotropy part h) and X*F = FX with zero trace (tangent part
m).  Quaternionic matrices X + Y j are handled through their complex
2n x 2n image, where the same equations hold blockwise: FY symmetric for
h, FY antisymmetric for m.

The invariant form is the real trace form, scaled by one half in the
quaternionic case so that numeric constants downstream match the chosen
normalization of the case studies.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .linalg import (
    BilinForm,
    DEFAULT_TOL,
    RealSubspace,
    Tolerance,
    bracket,
    gram_matrix,
    gram_signature,
    max_bracket_residual,
    unrealify,
)
from .report import Record, Report

FIELDS = ("R", "C", "H")
VARIANTS = ("standard", "canonical-T")


class _FamilyLabel(NamedTuple):
    field: str
    p: int
    q: int


class Family(_FamilyLabel):
    """One symmetric pair label: ground field and form signature (p, q),
    checked on every construction, _replace and _make included."""

    __slots__ = ()

    def __new__(cls, field: str, p: int, q: int):
        if field not in FIELDS:
            raise ValueError(f"field must be one of {FIELDS}, got {field!r}")
        if p < 1 or q < 1:
            raise ValueError("p and q must both be at least 1")
        return super().__new__(cls, field, p, q)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def tag(self) -> str:
        """Prefix of the family's check names, e.g. "C21"."""
        return f"{self.field}{self.p}{self.q}"


class SymmetricPair(Record):
    """Constructed pair with explicit real bases and invariant data.

    hermitian_matrix is the n x n form matrix F in the ground-field frame;
    carrier_form is the matrix actually used at the complex-carrier level
    (F itself for R and C, diag(F, F) for the quaternionic embedding).
    """

    _fields = ("family", "variant", "hermitian_matrix", "carrier_form", "form", "h", "m",
               "tol")

    def __init__(self, family: Family, variant: str, hermitian_matrix: np.ndarray,
                 carrier_form: np.ndarray, form: BilinForm, h: RealSubspace,
                 m: RealSubspace, tol: Tolerance = DEFAULT_TOL):
        vars(self).update(family=family, variant=variant, hermitian_matrix=hermitian_matrix,
                          carrier_form=carrier_form, form=form, h=h, m=m, tol=tol)

    def __setattr__(self, name, value):
        raise AttributeError(f"a SymmetricPair is frozen: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"a SymmetricPair is frozen: cannot delete {name!r}")

    @property
    def carrier_dim(self) -> int:
        return self.carrier_form.shape[0]

    @cached_property
    def sampling_frame(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (P, P^-1) for the frame null vectors are drawn in, with
        P* F P the signature form diag(1_p, -1_q), computed once per pair."""
        fam = self.family
        P = congruence(self.hermitian_matrix,
                       np.diag([1.0] * fam.p + [-1.0] * fam.q).astype(complex))
        P_inv = np.linalg.inv(P)
        P.flags.writeable = P_inv.flags.writeable = False
        return P, P_inv

    @cached_property
    def stabilizer_table(self) -> np.ndarray:
        """Read-only stabilizer systems (dim m, dim m, dim h + 1) of the
        columns of m's frame (orbits._stabilizer_system), built once per pair."""
        from .orbits import _stabilizer_system  # orbits imports this module
        T = _stabilizer_system(self, unrealify(self.m.frame.T, self.m.shape))
        T.flags.writeable = False
        return T

    def involution(self, X: np.ndarray) -> np.ndarray:
        """Negative conjugate transpose (of each matrix of a stack); fixes h
        and m setwise."""
        return -np.swapaxes(np.asarray(X).conj(), -1, -2)


def t_form(p: int, q: int, r: int) -> np.ndarray:
    """Antidiagonal-corner form: flipped identities of size r in the corners,
    a diagonal (p-r, q-r) signature block in the middle."""
    n = p + q
    if r > min(p, q):
        raise ValueError("corner size exceeds min(p, q)")
    T = np.zeros((n, n), dtype=complex)
    if r:
        T[:r, n - r:] = np.fliplr(np.eye(r))
        T[n - r:, :r] = np.fliplr(np.eye(r))
    mid = [1.0] * (p - r) + [-1.0] * (q - r)
    for i, s in enumerate(mid):
        T[r + i, r + i] = s
    return T


def congruence(F: np.ndarray, T: np.ndarray) -> np.ndarray:
    """P with P* F P = T for Hermitian F, T with matching +-1 spectra; the
    residual test is a fixed 1e-10 of max(1, |T|)."""
    wf, Vf = np.linalg.eigh(F)
    wt, Vt = np.linalg.eigh(T)
    of, ot = np.argsort(-wf), np.argsort(-wt)
    if not np.allclose(np.sign(wf[of]), np.sign(wt[ot]), atol=0.1):
        raise ValueError("forms have different signatures")
    P = Vf[:, of] @ Vt[:, ot].conj().T
    res = np.abs(P.conj().T @ F @ P - T).max()
    if res > 1e-10 * max(1.0, np.abs(T).max()):
        raise ValueError(f"congruence failed, residual {res:.3e}")
    return P


# Generator families: (diagonal coefficients, off-diagonal pairs).  For each
# j the family holds c E_jj for each diagonal c, then for each j < k it holds
# a E_jk + b E_kj for each pair (a, b).
_GENERATORS = {
    "antihermitian": ((1j,), ((1, -1), (1j, 1j))),
    "hermitian": ((1,), ((1, 1), (1j, -1j))),
    "real_antisym": ((), ((1, -1),)),
    "real_sym": ((1,), ((1, 1),)),
    "complex_sym": ((1, 1j), ((1, 1), (1j, 1j))),
    "complex_antisym": ((), ((1, -1), (1j, -1j))),
}


@lru_cache(maxsize=None)
def _pattern(kind: str, n: int):
    """One family's n x n generators in table order, built once per
    (kind, n): their number k and read-only arrays (generator, row, column,
    imag, value) over the nonzero real (imag 0) and imaginary parts."""
    diag, off = _GENERATORS[kind]
    j, k = np.nonzero(np.arange(n)[:, None] < np.arange(n))  # the pairs j < k, row by row
    d, j, k = np.arange(n).repeat(len(diag)), j.repeat(len(off)), k.repeat(len(off))
    xy = np.broadcast_to(np.array(off, dtype=complex), (n * (n - 1) // 2, len(off), 2))
    coeff = np.concatenate([np.tile(np.array(diag, dtype=complex), n), *xy.reshape(-1, 2).T])
    gen = np.arange(len(d) + len(j))
    parts = coeff.view(float)  # (re, im) of each coefficient
    nz = parts != 0
    arrays = [a.repeat(2)[nz] for a in (np.concatenate([gen, gen[len(d):]]),
                                        np.concatenate([d, j, k]), np.concatenate([d, k, j]))]
    arrays += [np.arange(len(parts))[nz] % 2, parts[nz]]
    for a in arrays:
        a.flags.writeable = False
    return len(gen), *arrays


def _rows(F: np.ndarray, x_kind: str, y_kind: str | None, drop: bool) -> np.ndarray:
    """Rows (k, 2N^2), realify of the generators F G of x_kind, written
    from the index patterns (F, a signed permutation, moves and signs rows):
    the real part of entry (r, c) at 2 (r N + c), its imaginary part next.
    drop subtracts a real multiple of the largest-trace generator (each
    trace lies on one real line) on the entries it touches, and leaves it
    out.  With y_kind (H): the carrier images of X + 0 j, then of 0 + Y j
    for y_kind; every zero is +0."""
    n = len(F)
    N = 2 * n if y_kind else n
    perm = np.abs(F).argmax(axis=0)  # row s of G is row perm[s] of F G, times sign[s]
    sign = F[perm, np.arange(n)].real

    def entries(kind):
        k, g, s, c, imag, v = _pattern(kind, n)
        return k, g, 2 * (perm[s] * N + c) + imag, sign[s] * v, 1 - 2 * imag, perm[s] == c

    k, g, pos, val, flip, on = entries(x_kind)
    if drop:
        tr = np.bincount(2 * g[on] + pos[on] % 2, val[on], minlength=2 * k)
        traces = tr[0::2] + 1j * tr[1::2]
        piv = int(np.argmax(np.abs(traces)))
        ratio = np.delete(traces, piv) / traces[piv]
        if np.abs(ratio.imag).max() > 1e-12:
            raise AssertionError("trace functional is not one-real-dimensional here")
        at = g == piv
        ppos, pval, pflip = pos[at], val[at], flip[at]
        g, pos, val, flip = (a[~at] for a in (g - (g > piv), pos, val, flip))
        k -= 1
    ky, gy, posy, valy, flipy, _ = entries(y_kind) if y_kind else (0,) * 6
    M = np.zeros((k + ky, 2 * N * N))
    M[g, pos] = val
    if drop:
        M[:k, ppos] -= ratio.real[:, None] * pval
    if y_kind:
        # conj(X) below right, -Y above right, conj(Y) below left
        br = 2 * (n * N + n)
        M[g, br + pos] = flip * val
        if drop:
            M[:k, br + ppos] = pflip * M[:k, ppos]
        M[k + gy, posy + 2 * n] = -valy
        M[k + gy, posy + 2 * n * N] = flipy * valy
    return M


def _form_matrix(fam: Family, variant: str) -> np.ndarray:
    n = fam.n
    if variant == "standard":
        return np.diag(np.array([1.0] * fam.p + [-1.0] * fam.q, dtype=complex))
    if variant == "canonical-T":
        if (fam.p, fam.q) != (2, 1):
            raise ValueError("canonical-T variant is only defined for (p, q) = (2, 1)")
        return np.fliplr(np.eye(n)).astype(complex)
    raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


def build_pair(fam: Family, variant: str = "standard",
               tol: Tolerance = DEFAULT_TOL) -> SymmetricPair:
    """Construct the pair for the family, with explicit ordered bases.

    Enumeration order is fixed: diagonal generators first, then the
    off-diagonal real/imaginary pairs row by row; for the quaternionic
    family all first-block generators precede the second-block ones.
    """
    F = _form_matrix(fam, variant)
    Z = np.zeros_like(F)
    carrier = np.block([[F, Z], [Z, F]]) if fam.field == "H" else F
    # (x_kind, y_kind, drop) of h and of m for _rows
    specs = {"R": (("real_antisym", None, False), ("real_sym", None, True)),
             "C": (("antihermitian", None, True), ("hermitian", None, True)),
             "H": (("antihermitian", "complex_sym", False),
                   ("hermitian", "complex_antisym", True))}[fam.field]
    h, m = (RealSubspace.from_rows(_rows(F, *spec), carrier.shape, tol=tol)
            for spec in specs)
    return SymmetricPair(
        family=fam,
        variant=variant,
        hermitian_matrix=F,
        carrier_form=carrier,
        form=BilinForm(0.5 if fam.field == "H" else 1.0),
        h=h,
        m=m,
        tol=tol,
    )


def ambient_dimension(fam: Family) -> int:
    """Real dimension of the trace-free matrix algebra over the field."""
    n = fam.n
    if fam.field == "R":
        return n * n - 1
    if fam.field == "C":
        return 2 * (n * n - 1)
    return 4 * n * n - 1


def formula_dims(fam: Family):
    """Closed-form (dim h, dim m, signature of the form on m)."""
    p, q, n = fam.p, fam.q, fam.n
    if fam.field == "R":
        dim_h = n * (n - 1) // 2
        dim_m = n * (n + 1) // 2 - 1
        sig = ((p * (p + 1) + q * (q + 1)) // 2 - 1, p * q)
    elif fam.field == "C":
        dim_h = n * n - 1
        dim_m = n * n - 1
        sig = (p * p + q * q - 1, 2 * p * q)
    else:
        dim_h = n * (2 * n + 1)
        dim_m = (2 * n + 1) * (n - 1)
        sig = (p * (2 * p - 1) + q * (2 * q - 1) - 1, 4 * p * q)
    return dim_h, dim_m, sig


class TableRow(NamedTuple):
    family: Family
    dim_h: int
    dim_m: int
    signature: tuple
    formula: tuple
    match: bool


def dimension_table(families, tol: Tolerance = DEFAULT_TOL):
    """Dimension/signature rows computed from constructed pairs.

    Each row also carries the closed-formula prediction and whether the
    construction agrees with it.
    """
    rows = []
    for fam in families:
        pair = build_pair(fam, "standard", tol=tol)
        _, sig = gram_signature(pair.form, pair.m)
        if sig[2] != 0:
            raise ValueError(f"degenerate form on m for {fam}")
        observed = (pair.h.dim, pair.m.dim, (sig[0], sig[1]))
        predicted = formula_dims(fam)
        rows.append(
            TableRow(
                family=fam,
                dim_h=observed[0],
                dim_m=observed[1],
                signature=observed[2],
                formula=predicted,
                match=observed == predicted,
            )
        )
    return rows


def default_families(n_min: int = 2, n_max: int = 6):
    """All (field, p, q) with p, q >= 1 and n_min <= p + q <= n_max."""
    fams = []
    for field in FIELDS:
        for n in range(n_min, n_max + 1):
            for p in range(1, n):
                fams.append(Family(field, p, n - p))
    return fams


def table_report(families, tol: Tolerance = DEFAULT_TOL) -> Report:
    """One exact check per dimension_table row, plus one for all rows."""
    rep = Report("table")
    rows = dimension_table(families, tol)
    for r in rows:
        rep.equals(f"table_{r.family.tag}",
                   (r.dim_h, r.dim_m, r.signature), r.formula,
                   anchor="constructed dimensions and signature match the closed formulas")
    rep.equals("table_all_rows_match", all(r.match for r in rows), True,
               anchor="every family row agrees with its formula")
    return rep


def axioms_report(fam: Family, tol: Tolerance = DEFAULT_TOL) -> Report:
    """check_symmetric_axioms on the standard pair of a family, and at
    (2, 1) also on its canonical-T variant."""
    rep = Report("axioms")
    variants = ("standard", "canonical-T") if (fam.p, fam.q) == (2, 1) else ("standard",)
    for var in variants:
        rep.absorb(check_symmetric_axioms(build_pair(fam, var, tol=tol)))
    return rep


def isotropy_matrix(pair: SymmetricPair, X: np.ndarray) -> np.ndarray:
    """Matrix of S -> [X, S] on the stored m-basis coordinates.

    A stack X (k, N, N) gives a stack (k, dim m, dim m), one coords solve
    per element, so the realified brackets of one element at a time are
    live; it raises if any element is outside h."""
    if not np.all(pair.h.contains(X)):
        raise ValueError("X is not in the isotropy algebra within tolerance")
    X = np.asarray(X)
    # row j of the coordinates is column j of the matrix
    mats = [pair.m.coords(bracket(x, pair.m.basis)).T
            for x in X.reshape((-1,) + X.shape[-2:])]
    return np.reshape(mats, X.shape[:-2] + 2 * (pair.m.dim,))


def check_symmetric_axioms(pair: SymmetricPair,
                           rng: np.random.Generator | None = None) -> Report:
    """Verify the defining properties of the constructed pair, at pair.tol."""
    tol = pair.tol
    rng = rng or np.random.default_rng(0)
    fam = pair.family
    label = f"{fam.field}_{fam.p}{fam.q}_{pair.variant}"
    rep = Report(suite=f"axioms_{label}")

    rep.equals(
        f"{label}_dim_sum",
        pair.h.dim + pair.m.dim,
        ambient_dimension(fam),
        anchor="h and m fill out the trace-free matrix algebra",
    )

    h, m = pair.h.basis, pair.m.basis
    rep.residual(f"{label}_bracket_hh", max_bracket_residual(h, pair.h),
                 tol.abs, anchor="[h, h] inside h")
    rep.residual(f"{label}_bracket_hm", max_bracket_residual(h, pair.m, m),
                 tol.abs, anchor="[h, m] inside m")
    rep.residual(f"{label}_bracket_mm", max_bracket_residual(m, pair.h),
                 tol.abs, anchor="[m, m] inside h")

    cross = float(np.abs(gram_matrix(pair.form, h, m)).max())
    rep.residual(f"{label}_form_orthogonal", cross, tol.abs,
                 anchor="h and m are orthogonal for the trace form")

    _, sig_h = gram_signature(pair.form, pair.h)
    G, sig_m = gram_signature(pair.form, pair.m)
    rep.equals(f"{label}_form_nondegenerate",
               (sig_h[2], sig_m[2]), (0, 0),
               anchor="trace form nondegenerate on both summands")

    # X and Y interleaved: the stack takes the normals that 20 draws of X,
    # then Y, would take, in the same order; each row's h coefficients come
    # first, then its m coefficients
    c = rng.standard_normal((40, pair.h.dim + pair.m.dim))
    XY = pair.h.combine(c[:, :pair.h.dim]) + pair.m.combine(c[:, pair.h.dim:])
    X, Y = XY[0::2], XY[1::2]
    tX, tY = pair.involution(X), pair.involution(Y)
    worst_theta = float(np.linalg.norm(pair.involution(tX) - X, axis=(1, 2)).max())
    worst_auto = float(np.linalg.norm(
        bracket(tX, tY) - pair.involution(bracket(X, Y)), axis=(1, 2)).max())
    rep.residual(f"{label}_involution_squares", worst_theta, tol.abs,
                 anchor="negative conjugate transpose squares to identity")
    rep.residual(f"{label}_involution_automorphism", worst_auto, 1e-7,
                 anchor="negative conjugate transpose respects brackets")

    worst_h = float(pair.h.residual(pair.involution(pair.h.basis)).max())
    worst_m = float(pair.m.residual(pair.involution(pair.m.basis)).max())
    rep.residual(f"{label}_involution_fixes_h", worst_h, tol.abs,
                 anchor="involution maps the isotropy algebra to itself")
    rep.residual(f"{label}_involution_fixes_m", worst_m, tol.abs,
                 anchor="involution maps the tangent summand to itself")

    M = isotropy_matrix(pair, pair.h.random_element(rng, size=10))
    worst_inv = max(float(np.abs(np.swapaxes(M, 1, 2) @ G + G @ M).max()),
                    float(np.abs(np.trace(M, axis1=1, axis2=2)).max()))
    rep.residual(f"{label}_isotropy_skew", worst_inv, 1e-7,
                 anchor="isotropy action is traceless and form-skew")
    return rep
