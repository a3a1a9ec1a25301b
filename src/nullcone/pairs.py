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

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .linalg import (
    BilinForm,
    DEFAULT_TOL,
    QMat,
    RealSubspace,
    Tolerance,
    bracket,
    gram_matrix,
    gram_signature,
    max_bracket_residual,
    quat_embed,
)
from .report import Report

FIELDS = ("R", "C", "H")
VARIANTS = ("standard", "canonical-T")


@dataclass(frozen=True)
class Family:
    """One symmetric pair label: ground field and form signature (p, q)."""

    field: str
    p: int
    q: int

    def __post_init__(self):
        if self.field not in FIELDS:
            raise ValueError(f"field must be one of {FIELDS}, got {self.field!r}")
        if self.p < 1 or self.q < 1:
            raise ValueError("p and q must both be at least 1")

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def tag(self) -> str:
        """Prefix of the family's check names, e.g. "C21"."""
        return f"{self.field}{self.p}{self.q}"


@dataclass(frozen=True)
class SymmetricPair:
    """Constructed pair with explicit real bases and invariant data.

    hermitian_matrix is the n x n form matrix F in the ground-field frame;
    carrier_form is the matrix actually used at the complex-carrier level
    (F itself for R and C, diag(F, F) for the quaternionic embedding).
    """

    family: Family
    variant: str
    hermitian_matrix: np.ndarray
    carrier_form: np.ndarray
    form: BilinForm
    h: RealSubspace
    m: RealSubspace
    g: RealSubspace
    tol: Tolerance = DEFAULT_TOL

    @property
    def carrier_dim(self) -> int:
        return self.carrier_form.shape[0]

    @cached_property
    def corner_frame(self) -> tuple[np.ndarray, np.ndarray]:
        """(P, P^-1) with P* F P the corner form t_form(p, q, min(p, q)),
        computed once per pair."""
        fam = self.family
        return _frame(self.hermitian_matrix, t_form(fam.p, fam.q, min(fam.p, fam.q)))

    @cached_property
    def sampling_frame(self) -> tuple[np.ndarray, np.ndarray]:
        """(P, P^-1) for the frame null vectors are drawn in: the diagonal
        signature form for the real family, the corner form otherwise."""
        fam = self.family
        if fam.field != "R":
            return self.corner_frame
        return _frame(self.hermitian_matrix,
                      np.diag([1.0] * fam.p + [-1.0] * fam.q).astype(complex))

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


def congruence(F: np.ndarray, T: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """P with P* F P = T for Hermitian F, T with matching +-1 spectra."""
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


def _frame(F: np.ndarray, T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (P, P^-1) for the congruence P* F P = T."""
    P = congruence(F, T)
    P_inv = np.linalg.inv(P)
    P.flags.writeable = P_inv.flags.writeable = False
    return P, P_inv


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


def _gens(kind: str, n: int) -> list:
    """The generators of one family of n x n matrices, in table order."""
    diag, off = _GENERATORS[kind]
    gens = []
    for j in range(n):
        for c in diag:
            M = np.zeros((n, n), dtype=complex)
            M[j, j] = c
            gens.append(M)
    for j in range(n):
        for k in range(j + 1, n):
            for x, y in off:
                M = np.zeros((n, n), dtype=complex)
                M[j, k], M[k, j] = x, y
                gens.append(M)
    return gens


def _drop_trace(gens):
    """Impose zero trace on a generator family by pivot subtraction.

    On each family used here the trace functional takes values on a single
    real line through the origin, so subtracting a real multiple of the
    largest-trace generator from the others is a real-linear operation.
    """
    traces = np.array([np.trace(g) for g in gens])
    mags = np.abs(traces)
    if mags.max() < 1e-12:
        return list(gens)
    piv = int(np.argmax(mags))
    tp = traces[piv]
    out = []
    for i, g in enumerate(gens):
        if i == piv:
            continue
        ratio = traces[i] / tp
        if abs(ratio.imag) > 1e-12:
            raise AssertionError("trace functional is not one-real-dimensional here")
        out.append(g - ratio.real * gens[piv])
    return out


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
    n = fam.n
    if fam.field == "R":
        h_gens = [F @ A for A in _gens("real_antisym", n)]
        m_gens = _drop_trace([F @ S for S in _gens("real_sym", n)])
        carrier = F
        scale = 1.0
    elif fam.field == "C":
        h_gens = _drop_trace([F @ A for A in _gens("antihermitian", n)])
        m_gens = _drop_trace([F @ S for S in _gens("hermitian", n)])
        carrier = F
        scale = 1.0
    else:
        zero = np.zeros((n, n), dtype=complex)
        h_x = [F @ A for A in _gens("antihermitian", n)]
        h_y = [F @ S for S in _gens("complex_sym", n)]
        m_x = _drop_trace([F @ Hg for Hg in _gens("hermitian", n)])
        m_y = [F @ A for A in _gens("complex_antisym", n)]
        h_gens = [quat_embed(QMat(X, zero)) for X in h_x]
        h_gens += [quat_embed(QMat(zero, Y)) for Y in h_y]
        m_gens = [quat_embed(QMat(X, zero)) for X in m_x]
        m_gens += [quat_embed(QMat(zero, Y)) for Y in m_y]
        carrier = np.block([[F, np.zeros_like(F)], [np.zeros_like(F), F]])
        scale = 0.5
    h = RealSubspace(h_gens, tol=tol)
    m = RealSubspace(m_gens, tol=tol)
    g = RealSubspace(h_gens + m_gens, tol=tol)
    return SymmetricPair(
        family=fam,
        variant=variant,
        hermitian_matrix=F,
        carrier_form=carrier,
        form=BilinForm(scale),
        h=h,
        m=m,
        g=g,
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


@dataclass(frozen=True)
class TableRow:
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
        _, sig = gram_signature(pair.form, pair.m, tol)
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
    """Matrix of S -> [X, S] on the stored m-basis coordinates."""
    if not pair.h.contains(X):
        raise ValueError("X is not in the isotropy algebra within tolerance")
    # row j of the coordinates is column j of the matrix
    return pair.m.coords(bracket(X, pair.m.basis)).T


def check_symmetric_axioms(pair: SymmetricPair, tol: Tolerance | None = None,
                           rng: np.random.Generator | None = None) -> Report:
    """Verify the defining properties of the constructed pair."""
    tol = tol or pair.tol
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
    rep.residual(f"{label}_bracket_hh", max_bracket_residual(h, h, pair.h),
                 tol.abs, anchor="[h, h] inside h")
    rep.residual(f"{label}_bracket_hm", max_bracket_residual(h, m, pair.m),
                 tol.abs, anchor="[h, m] inside m")
    rep.residual(f"{label}_bracket_mm", max_bracket_residual(m, m, pair.h),
                 tol.abs, anchor="[m, m] inside h")

    cross = float(np.abs(gram_matrix(pair.form, h, m)).max())
    rep.residual(f"{label}_form_orthogonal", cross, tol.abs,
                 anchor="h and m are orthogonal for the trace form")

    _, sig_h = gram_signature(pair.form, pair.h, tol)
    _, sig_m = gram_signature(pair.form, pair.m, tol)
    rep.equals(f"{label}_form_nondegenerate",
               (sig_h[2], sig_m[2]), (0, 0),
               anchor="trace form nondegenerate on both summands")

    worst_theta = 0.0
    worst_auto = 0.0
    for _ in range(20):
        X = pair.g.random_element(rng)
        Y = pair.g.random_element(rng)
        tX, tY = pair.involution(X), pair.involution(Y)
        worst_theta = max(worst_theta, float(np.linalg.norm(pair.involution(tX) - X)))
        worst_auto = max(
            worst_auto,
            float(np.linalg.norm(bracket(tX, tY) - pair.involution(bracket(X, Y)))),
        )
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

    G = gram_matrix(pair.form, pair.m.basis)
    worst_inv = 0.0
    for _ in range(10):
        Z = pair.h.random_element(rng)
        M = isotropy_matrix(pair, Z)
        worst_inv = max(worst_inv, float(np.abs(M.T @ G + G @ M).max()))
        worst_inv = max(worst_inv, abs(float(np.trace(M))))
    rep.residual(f"{label}_isotropy_skew", worst_inv, 1e-7,
                 anchor="isotropy action is traceless and form-skew")
    return rep


def corrupt_pair(pair: SymmetricPair) -> SymmetricPair:
    """Negative control: move one generator between the two summands."""
    h_bad = np.concatenate([pair.h.basis[:-1], pair.m.basis[:1]])
    m_bad = np.concatenate([pair.h.basis[-1:], pair.m.basis[1:]])
    return replace(
        pair,
        h=RealSubspace(h_bad, tol=pair.tol),
        m=RealSubspace(m_bad, tol=pair.tol),
    )
