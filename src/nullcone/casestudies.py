"""The two worked homogeneous examples, hard-coded and verified.

Case study 1: the rank-two complex family at (2, 1) in the antidiagonal
frame.  The six-dimensional complement of the diagonal ray stabilizer
carries a para-complex structure J (+1 on one totally null half, -1 on
the other); the checks reproduce its bracket table, the one-parameter
diagonal conjugation action, the nearly para-Kahler identity, the
constant-type constant 1/2 and the Einstein constant 5/2.

Case study 2: the quaternionic family at (2, 1) in the same frame.  The
nine-dimensional stabilizer splits as a compact rank-one piece plus a
complex special-linear piece; the checks reproduce the coordinate action
formulas, the signed orthonormal nine-frame, the Casimir constant 6 and
the explicit isometry onto the orthogonal complement of the sampled ray
pair.  Both report the shared body of model_report, which includes the
conformal grading of the tangent summand's orthogonal algebra and the
duality identity with constant 12 a^2.  All numeric conventions (trace
form for case study 1, half-trace form for case study 2) come from the
constructed pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .linalg import (
    BilinForm,
    DEFAULT_TOL,
    QMat,
    RealSubspace,
    Tolerance,
    algebra_profile,
    bracket,
    gram_matrix,
    gram_signature,
    max_bracket_residual,
    orth_complement,
    quat_embed,
    signed_gram_schmidt,
)
from .orbits import cayley, make_null_batch, stabilizers_of_rays
from .pairs import Family, SymmetricPair, build_pair
from .reductive import (
    ReductiveSplit,
    bianchi_defect,
    casimir,
    curvature_tensor,
    einstein_fit,
    frame_ad,
    frame_casimir,
    frame_coords,
    homothety_check,
    levi_civita_nomizu,
    reductive_split,
    torsion_derivation_check,
    torsion_eval,
    wang_ziller_check,
)
from .report import Report

SQRT3 = np.sqrt(3.0)


def _complex_pairs(c: np.ndarray) -> np.ndarray:
    """Consecutive (re, im) columns of a draw as complex columns, the numbers
    complex(re, im) gives for the same stream."""
    return c[..., 0::2] + 1j * c[..., 1::2]


def _fill(entries: dict) -> np.ndarray:
    """Complex 3 x 3 matrix with the given {(row, col): value} entries and
    zeros elsewhere; array values give a stack over their broadcast shape."""
    lead = np.broadcast_shapes(*(np.shape(v) for v in entries.values()))
    out = np.zeros(lead + (3, 3), dtype=complex)
    for (i, j), v in entries.items():
        out[..., i, j] = v
    return out


def _quat(x: dict, y: dict) -> np.ndarray:
    """quat_embed of X + Y j, with 3 x 3 blocks filled as _fill does."""
    X, Y = np.broadcast_arrays(_fill(x), _fill(y))
    return quat_embed(QMat(X, Y))


def _worst_norm(X: np.ndarray) -> float:
    """Largest Frobenius norm in a stack (0 for an empty stack)."""
    return float(np.linalg.norm(X, axis=(-2, -1)).max(initial=0.0))


def _worst_abs(X: np.ndarray) -> float:
    """Largest absolute entry (0 for an empty stack)."""
    return float(np.abs(X).max(initial=0.0))


def _draw(rng: np.random.Generator, trials: int, *spaces: RealSubspace) -> list:
    """One element stack per space, from one standard_normal((trials, k)) draw.

    Row t draws the coefficients of each space in turn, so the stacks hold
    the numbers a per-trial loop of random_element calls, one per space,
    would draw from the same stream.
    """
    cuts = np.cumsum([sp.dim for sp in spaces])
    coeffs = np.split(rng.standard_normal((trials, cuts[-1])), cuts[:-1], axis=1)
    return [sp.combine(c) for sp, c in zip(spaces, coeffs)]


# ---------------------------------------------------------------------------
# case study 1: complex (2, 1), antidiagonal frame
# ---------------------------------------------------------------------------


# v_plus, v_minus and b_group take numbers or arrays; arrays give a stack


def v_plus(x: complex, d: float) -> np.ndarray:
    return _fill({(0, 2): 1j * d, (1, 0): x, (2, 1): -np.conj(x)})


def v_minus(y: complex, g: float) -> np.ndarray:
    return _fill({(0, 1): y, (1, 2): -np.conj(y), (2, 0): 1j * g})


def b_diag(alpha: float, beta: float) -> np.ndarray:
    return np.diag(
        [beta - 1j * alpha, 2j * alpha, -beta - 1j * alpha]
    ).astype(complex)


def b_group(phi: float, r: float) -> np.ndarray:
    """One-parameter diagonal family stabilizing the sampled ray."""
    return _fill({(0, 0): r * np.exp(1j * phi), (1, 1): np.exp(-2j * phi),
                  (2, 2): np.exp(1j * phi) / r})


@dataclass
class CaseStudy:
    """What both case studies hold: the ray pair, the split with its chart
    n_space, and the graded frame of n_hat (the complement of the ray pair
    in m) with the fields of ConformalGrading."""

    a: float
    mu: complex
    pair: SymmetricPair
    S: np.ndarray
    S_hat: np.ndarray
    b_basis: list
    n_basis: list
    split: ReductiveSplit
    n_space: RealSubspace
    n_hat: RealSubspace
    graded_basis: np.ndarray
    Gamma: np.ndarray
    so_space: RealSubspace
    p_minus: RealSubspace
    p_zero: RealSubspace
    p_plus: RealSubspace
    p_full: RealSubspace
    p_hat: RealSubspace

    def rho(self, X: np.ndarray) -> np.ndarray:
        """Matrix of ad(X) on the graded frame (X may be a stack); Gamma is
        its own inverse, so it is also the frame's inverse Gram matrix."""
        return frame_ad(self.pair.form, self.graded_basis, self.Gamma, X)

    def rho_minus(self, X: np.ndarray) -> np.ndarray:
        """Lowering component of rho(X) in the graded block pattern."""
        x = self.rho(X)[..., 1:-1, 0]
        out = np.zeros(x.shape[:-1] + self.Gamma.shape)
        out[..., 1:-1, 0] = x
        out[..., -1, 1:-1] = -x * np.diag(self.Gamma)[1:-1]
        return out

    def rho_plus(self, X: np.ndarray) -> np.ndarray:
        """Raising component of rho(X) in the graded block pattern."""
        y = self.rho(X)[..., 1:-1, -1]
        out = np.zeros(y.shape[:-1] + self.Gamma.shape)
        out[..., 1:-1, -1] = y
        out[..., 0, 1:-1] = -y * np.diag(self.Gamma)[1:-1]
        return out


@dataclass
class SU21Data(CaseStudy):
    n_plus: RealSubspace
    n_minus: RealSubspace
    n_ginv: np.ndarray

    def J(self, X: np.ndarray) -> np.ndarray:
        """Para-complex structure: +1 on the plus half, -1 on the minus half.

        X lies in n (or is a stack of such); n_ginv is the inverse Gram
        matrix of n_basis, through which frame_coords reads coordinates."""
        c = frame_coords(self.pair.form, self.n_space.basis, self.n_ginv, X)
        return self.n_space.combine(c * np.repeat([1.0, -1.0], 3))

    @cached_property
    def J_frame(self) -> np.ndarray:
        """Matrix of J in the split's signed basis (column b: J(e_b))."""
        return self.split.n_coords(self.J(self.split.e_basis)).T


def _certify_null(pair: SymmetricPair, S: np.ndarray) -> None:
    """Raise unless the ray vector S is null, by make_null_batch on one row."""
    if make_null_batch(pair, S[None]).nullity_residual[0] > pair.tol.abs:
        raise ValueError("ray vector is not null")


def _case_study_split(field: str, mu: complex, b_basis: list, n_basis: list,
                      seed: int, tol: Tolerance) -> dict:
    """The ray step both case studies share: the canonical-T (2, 1) pair of
    the field, S = diag(mu, -2 Re mu, conj(mu)) (its quaternionic image for
    H) and its partner S_hat, split along the hard-coded stabilizer b_basis,
    and the graded frame {S_n, e_1..e_d, -S_hat_n} of the tangent summand,
    S_n = S / (2a sqrt 3), a = Re mu, so that K(S_n, S_hat_n) = -1.  Raises
    unless b_basis and the chart n_basis lie in h, S is null, b_basis spans
    the ray stabilizer stabilizers_of_rays computes, n_basis spans the split's
    n, and the frame has the form matrix Gamma.  Returns the CaseStudy fields."""
    pair = build_pair(Family(field, 2, 1), "canonical-T", tol=tol)
    S = np.diag([mu, -2 * mu.real, np.conj(mu)]).astype(complex)
    if field == "H":
        S = quat_embed(QMat(S, np.zeros((3, 3), dtype=complex)))
    if pair.h.residual(np.stack(b_basis + n_basis)).max() > tol.abs:
        raise ValueError("case-study basis element escapes the isotropy algebra")
    _certify_null(pair, S)
    stab = stabilizers_of_rays(pair, S[None])
    b_space = RealSubspace(b_basis, tol=tol)
    if stab.dims[0] != len(b_basis) or not b_space.equals(stab.subspace(0, tol)):
        raise ValueError("hard-coded stabilizer disagrees with the computed one")
    split, a = reductive_split(pair, b_space, rng=seed), float(mu.real)
    n_space = RealSubspace(n_basis, tol=tol)
    if not n_space.equals(split.n):
        raise ValueError("complement chart does not span the computed complement")
    S_hat = pair.involution(S)
    n_hat, _ = orth_complement(RealSubspace([S, S_hat], tol=tol), pair.m, pair.form)
    e_hat, eps_hat = signed_gram_schmidt(pair.form, n_hat, np.random.default_rng(seed))
    scale = 2 * a * SQRT3  # K(S, S_hat) = -12 a^2 in both case studies
    graded = np.stack([S / scale, *e_hat, -S_hat / scale])
    grading = _conformal_grading(tuple(eps_hat), tol)
    if np.abs(gram_matrix(pair.form, graded) - grading.Gamma).max() > 1e-8:
        raise ValueError("graded frame does not produce the expected form matrix")
    return dict(a=a, mu=mu, pair=pair, S=S, S_hat=S_hat, b_basis=b_basis, n_basis=n_basis,
                split=split, n_space=n_space, n_hat=n_hat, graded_basis=graded,
                **grading._asdict())


class ConformalGrading(NamedTuple):
    """so(Gamma) and its pieces under the grading element diag(1, 0, ..., 0, -1):
    degrees -1, 0 and +1 and the stabilizers of the first and last frame line."""

    Gamma: np.ndarray
    so_space: RealSubspace
    p_minus: RealSubspace
    p_zero: RealSubspace
    p_plus: RealSubspace
    p_full: RealSubspace
    p_hat: RealSubspace


def _grading_weights(N: int) -> np.ndarray:
    """w = (1, 0, ..., 0, -1): E = diag(w) has [E, E_rc] = (w_r - w_c) E_rc."""
    return np.eye(N)[0] - np.eye(N)[-1]


def _grading_defect(Gamma: np.ndarray, M: np.ndarray, k: int) -> float:
    """Largest entry of M (a matrix or a stack) off the degree-k pattern, or
    of M^T Gamma + Gamma M: zero exactly when M lies in the degree-k piece."""
    w = _grading_weights(len(Gamma))
    return float(max(np.abs(M[..., w[:, None] - w != k]).max(initial=0.0),
                     np.abs(np.swapaxes(M, -1, -2) @ Gamma + Gamma @ M).max(initial=0.0)))


def _bracket_defect(Gamma: np.ndarray, X: np.ndarray, Y: np.ndarray, k: int) -> float:
    """_grading_defect for every bracket [X_i, Y_j] of two real stacks: the
    products X_i Y_j and Y_j X_i must lie in the degree-k pattern, and T_ij =
    Gamma X_i Y_j - X_i^T Y_j^T Gamma bounds the bracket's so(Gamma) residual
    T_ij + T_ij^T by 2 |T_ij|.  Each is one flat product with rows (r, i) and
    columns (j, c), so the pattern is an (r, c) mask and nothing is transposed
    in 4-D."""
    N = len(Gamma)
    w = _grading_weights(N)
    off = (w[:, None] - w != k)[:, None, :] * 1.0  # a float mask multiplies faster
    cx, cy = (Z.transpose(1, 0, 2).reshape(N, -1) for Z in (X, Y))  # [s, (i, c)] = Z_i[s, c]

    def worst(P, mask=1.0):
        """Largest |entry| of a flat product (N n, m N) under an (r, c) mask."""
        P = P.reshape(N, -1, N)
        P *= mask
        return max(P.max(), -P.min())

    left = np.hstack([(Gamma @ cx).reshape(-1, N), X.transpose(2, 0, 1).reshape(-1, N)])
    gy = (Gamma @ cy).reshape(N, len(Y), N).transpose(2, 1, 0).reshape(N, -1)
    return float(max(worst(cx.reshape(-1, N) @ cy, off), worst(cy.reshape(-1, N) @ cx, off),
                     2 * worst(left @ np.vstack([cy, -gy]))))


@lru_cache
def _conformal_grading(eps_hat: tuple, tol: Tolerance) -> ConformalGrading:
    """The grading of so(Gamma), Gamma = [[0, 0, 1], [0, diag(eps_hat), 0],
    [1, 0, 0]], in closed form.  Gamma^2 = 1, so so(Gamma) has the basis
    Gamma (E_ab - E_ba), a < b, of degree -(w_a + w_b), and each piece is a
    subset: p_-, p_0, p_+ by degree, and the stabilizers of the first and
    last frame line p_full = p_0 + p_+ and p_hat = p_0 + p_-.  Certified
    with no kernel solved: the grading element and each graded piece pass
    _grading_defect, the graded dimensions sum to dim so(Gamma), and each
    line condition vanishes on its stabilizer and has orthonormal rows on
    the rest.  Cached by sign pattern and tolerance (not by the ray or its
    scale); every build with one key shares the subspaces, Gamma read-only.
    """
    N = len(eps_hat) + 2
    Gamma = np.diag([0.0, *eps_hat, 0.0])
    Gamma[0, -1] = Gamma[-1, 0] = 1.0
    Gamma.flags.writeable = False
    w = _grading_weights(N)
    a, b = np.triu_indices(N, 1)
    E = np.eye(N)[a, :, None] * np.eye(N)[b, None, :]  # E_ab as outer products
    basis, deg = Gamma @ (E - E.swapaxes(1, 2)), -(w[a] + w[b])
    graded = [deg == -1, deg == 0, deg == 1]
    lines = [(deg >= 0, basis[:, 1:, 0]), (deg <= 0, basis[:, :-1, -1])]
    bad = max([_grading_defect(Gamma, np.diag(w), 0)]
              + [_grading_defect(Gamma, basis[m], k) for m, k in zip(graded, (-1, 0, 1))]
              + [np.abs(line[keep]).max(initial=0.0) for keep, line in lines]
              + [np.abs(r @ r.T - np.eye(len(r))).max(initial=0.0)
                 for r in (line[~keep] for keep, line in lines)])
    if bad > tol.abs or sum(map(np.count_nonzero, graded)) != len(basis):
        raise ValueError(f"closed-form grading fails its certificate by {bad:.3e}")
    return ConformalGrading(Gamma, *(RealSubspace(basis[m], tol=tol) for m in
                                     [slice(None)] + graded + [keep for keep, _ in lines]))


def grading_report(data: CaseStudy, study: str) -> Report:
    """Dimensions of the graded pieces, the stabilizer inside the degree-zero
    piece and the short-grading brackets, each check named with the prefix
    `study`; membership is read off the block pattern, with no projection."""
    rep = Report(suite=f"{study}_grading")
    d = len(data.Gamma) - 2
    pm, p0, pp = data.p_minus, data.p_zero, data.p_plus
    rep.equals(f"{study}_grading_dims", (pm.dim, p0.dim, pp.dim), (d, d * (d - 1) // 2 + 1, d),
               anchor="graded pieces of the orthogonal algebra of the tangent summand")
    rep.equals(f"{study}_parabolic_dims", (data.p_full.dim, data.p_hat.dim),
               ((d + 2) * (d + 1) // 2 - d,) * 2,
               anchor="ray stabilizers inside the orthogonal algebra")
    wb = _grading_defect(data.Gamma, data.rho(np.stack(data.b_basis)), 0)
    rep.residual(f"{study}_b_inside_p0", wb, 1e-8,
                 anchor="the stabilizer image sits in the degree-zero piece")
    lo, mid, hi = (np.ascontiguousarray(p.basis.real) for p in (pm, p0, pp))
    worst = max([_bracket_defect(data.Gamma, X, Y, k) for X, Y, k in (
        (mid, lo, -1), (mid, hi, 1), (lo, lo, -2), (hi, hi, 2), (hi, lo, 0))]
                + [np.abs(p.basis.imag).max() for p in (pm, p0, pp)])
    rep.residual(f"{study}_grading_brackets", worst, 1e-8,
                 anchor="the three pieces bracket as a short grading")
    return rep


def duality_identity(data: CaseStudy, study: str, trials: int = 500, rng=0) -> Report:
    """The pairing identity between the two boundary rays of any case study,
    each check named with the prefix `study`.  Checks, over random A, B in n:
      12 a^2 K(A, B) = K([A, S], [B, S_hat]),
    the same identity transported to the graded frame, whose end vectors
    S_n and -S_hat_n are the ray pair normalized to pairing -1, and the
    induced dual bases of the lowering and raising pieces.
    """
    rng = np.random.default_rng(rng)
    rep = Report(suite=f"{study}_duality")
    K = data.pair.form
    a = data.a
    rep.residual(f"{study}_duality_ray_pairing",
                 abs(K(data.S, data.S_hat) + 12 * a * a), 1e-9,
                 anchor="the ray pair has pairing -12 a^2")
    S_n, Sh_n = data.graded_basis[0], -data.graded_basis[-1]
    K_so = BilinForm(0.5)
    n = data.split.n
    cA, cB = np.split(rng.standard_normal((trials, 2 * n.dim)), 2, axis=1)
    A, B = n.combine(cA), n.combine(cB)

    def rel(x, y):
        """Largest gap between two arrays of values, relative to them and 1."""
        scale = np.maximum(np.maximum(np.abs(x), np.abs(y)), 1.0)
        return float((np.abs(x - y) / scale).max(initial=0.0))

    worst = rel(12 * a * a * K(A, B), K(bracket(A, data.S), bracket(B, data.S_hat)))
    # rho is linear: its graded parts on the basis of n, contracted with the
    # coefficients, give those of A and B without a rho call per draw
    lo = np.tensordot(cA, data.rho_minus(n.basis), axes=1)
    hi = np.tensordot(cB, data.rho_plus(n.basis), axes=1)
    worst_mid = rel(K_so(lo.astype(complex), hi.astype(complex)),
                    K(bracket(A, S_n), bracket(B, Sh_n)))
    rep.residual(f"{study}_duality_identity", worst, 1e-8,
                 anchor="pairing of transported elements scales by 12 a^2")
    rep.residual(f"{study}_duality_graded_transport", worst_mid, 1e-8,
                 anchor="the identity transports to the graded frame")
    # null element: both sides vanish
    e_plus = next(e for e, s in zip(data.split.e_basis, data.split.eps) if s > 0)
    e_minus = next(e for e, s in zip(data.split.e_basis, data.split.eps) if s < 0)
    Anull = e_plus + e_minus
    rep.residual(f"{study}_duality_null_element",
                 abs(K(bracket(Anull, data.S), bracket(Anull, data.S_hat))),
                 1e-8, anchor="a null element pairs to zero with itself")
    # dual bases from the graded components of the orthonormal complement frame
    E_lo = data.rho_minus(data.split.e_basis)
    E_hi = data.split.eps[:, None, None] * data.rho_plus(data.split.e_basis)
    P = gram_matrix(K_so, E_lo, E_hi)
    rep.residual(f"{study}_duality_dual_pairing",
                 float(np.abs(P - np.eye(len(P))).max()), 1e-8,
                 anchor="lowering and raising frames pair as identity")
    rep.residual(f"{study}_duality_graded_membership", max(
        _grading_defect(data.Gamma, E_lo, -1), _grading_defect(data.Gamma, E_hi, 1)), 1e-8,
                 anchor="the frames lie in the lowering and raising pieces")
    return rep


def _doubled(data: CaseStudy) -> CaseStudy:
    """The case study at a = 2a, derived from `data` instead of rebuilt.

    2S spans the ray of S, so the stabilizer, the split, the complements and
    the graded frame (S / (2a sqrt 3)) are those of `data`; only a, mu, S
    and S_hat double, and doubling is exact in floating point.  The doubled
    ray keeps its own nullity certificate.
    """
    S = 2 * data.S
    _certify_null(data.pair, S)
    return replace(data, a=2 * data.a, mu=2 * data.mu, S=S, S_hat=2 * data.S_hat)


def model_report(data: CaseStudy, study: str, seed: int, trials: int, *,
                 einstein: float, casimir_multiple: float, casimir_name: str,
                 isometry=None) -> Report:
    """The checks every homogeneous model reports, named `<study>_...`: the
    Einstein fit, the torsion derivation, the generic-frame Casimir (named
    `<study>_<casimir_name>`) with its Wang-Ziller fit, n against n_hat
    (through the chart map `isometry` when given), the grading, the duality
    identity over `trials` pairs and the first-Bianchi residual of the
    canonical connection over the frame triples, reported only."""
    rep = Report(suite=study, seed=seed)
    ein, ein_res = einstein_fit(data.split)
    rep.add(f"{study}_einstein", abs(ein - einstein) <= 1e-7, ein, einstein, 1e-7,
            anchor="Einstein constant of the induced metric")
    rep.residual(f"{study}_einstein_isotropy", ein_res, 1e-7,
                 anchor="Ricci tensor is an exact multiple of the metric")
    rep.absorb(torsion_derivation_check(data.split), f"{study}_")
    chi = casimir(data.split, rng=seed)
    rep.residual(f"{study}_{casimir_name}",
                 float(np.abs(chi - casimir_multiple * np.eye(len(chi))).max()), 1e-8,
                 anchor="generic-frame Casimir is the expected multiple of the identity")
    wz_ok, wz_c = wang_ziller_check(chi)
    rep.equals(f"{study}_wang_ziller", wz_ok, True,
               anchor="Casimir is a multiple of the identity")
    rep.info(f"{study}_wang_ziller_constant", wz_c, anchor="fitted Casimir multiple")
    hk, note = homothety_check(data.split, data.n_hat, isometry=isometry)
    rep.equals(f"{study}_partner_complement_matches", hk, True, anchor=note)
    rep.absorb(grading_report(data, study))
    rep.absorb(duality_identity(data, study, trials=trials, rng=seed))
    D = bianchi_defect(curvature_tensor(data.split), data.split.torsion_components)
    rep.info(f"{study}_first_bianchi_residual", float(np.abs(D).max()),
             anchor="cyclic curvature sum minus torsion terms on frame triples, reported only")
    return rep


def su21_build(a: float = 1.0, seed: int = 0,
               tol: Tolerance = DEFAULT_TOL) -> SU21Data:
    """Construct and cross-check the complex (2, 1) case study."""
    if a == 0:
        raise ValueError("the ray parameter a must be nonzero")
    b_basis = [b_diag(1, 0), b_diag(0, 1)]
    n_basis = [v_plus(1, 0), v_plus(1j, 0), v_plus(0, 1),
               v_minus(1, 0), v_minus(1j, 0), v_minus(0, 1)]
    study = _case_study_split("C", a * (1 + 1j * SQRT3), b_basis, n_basis, seed, tol)
    form = study["pair"].form
    if gram_signature(form, study["n_space"])[1][:2] != (3, 3):
        raise ValueError("unexpected complement signature")
    return SU21Data(**study, n_plus=RealSubspace(n_basis[:3], tol=tol),
                    n_minus=RealSubspace(n_basis[3:], tol=tol),
                    n_ginv=np.linalg.inv(gram_matrix(form, n_basis)))


def su21_invariants(data: SU21Data, rng=1) -> Report:
    """Structural invariants: totally null halves, bracket routing, J algebra.

    The J identities are checked on 50 pairs drawn from default_rng(rng)."""
    rep = Report(suite="su21_invariants")
    tol = data.pair.tol
    K = data.pair.form
    plus, minus = data.n_plus.basis, data.n_minus.basis
    null = max(np.abs(gram_matrix(K, plus)).max(), np.abs(gram_matrix(K, minus)).max())
    rep.residual("su21_n_halves_totally_null", float(null), tol.abs,
                 anchor="each half of the complement is totally null")
    mixed = max_bracket_residual(plus, RealSubspace(data.b_basis), minus)
    rep.residual("su21_bracket_mixed_into_b", mixed, tol.abs,
                 anchor="mixed brackets land in the stabilizer")
    pp = max_bracket_residual(plus, data.n_minus)
    mm = max_bracket_residual(minus, data.n_plus)
    rep.residual("su21_bracket_pure_swaps_halves", max(pp, mm), tol.abs,
                 anchor="brackets of pure elements swap the two halves")
    X, Y = _draw(np.random.default_rng(rng), 50, data.n_space, data.n_space)
    JX = data.J(X)
    worst_sq = _worst_norm(data.J(JX) - X)
    worst_iso = float(np.abs(K(JX, data.J(Y)) + K(X, Y)).max())
    rep.residual("su21_J_squares_to_identity", worst_sq, tol.abs,
                 anchor="para-complex structure squares to the identity")
    rep.residual("su21_J_anti_isometry", worst_iso, 1e-7,
                 anchor="the structure reverses the sign of the form")
    return rep


def su21_bracket_table(data: SU21Data, trials: int = 100, rng=0) -> Report:
    """The three closed-form brackets of the graded basis elements."""
    rng = np.random.default_rng(rng)
    rep = Report(suite="su21_brackets")
    tol = data.pair.tol
    spot = bracket(v_plus(1, 0), v_minus(1, 0))
    rep.residual("su21_bracket_spot_value",
                 float(np.linalg.norm(spot - np.diag([-1, 0, 1]))), tol.abs,
                 anchor="unit spot check of the mixed bracket")
    rep.residual("su21_bracket_self",
                 float(np.linalg.norm(bracket(v_plus(1.5, 0.5), v_plus(1.5, 0.5)))),
                 tol.abs, anchor="bracket of an element with itself vanishes")
    # per trial: x and y as (re, im) pairs, then d and g
    c = rng.standard_normal((trials, 6))
    x, y = _complex_pairs(c[:, :4]).T
    d, g = c[:, 4], c[:, 5]
    got = bracket(v_plus(x, d), v_minus(y, g))
    want = _fill({(0, 0): -g * d - x * y, (1, 1): x * y - np.conj(x * y),
                  (2, 2): g * d + np.conj(x * y)})
    w_pm = _worst_norm(got - want)
    got = bracket(v_plus(x, g), v_plus(y, d))
    want = v_minus(1j * (d * np.conj(x) - g * np.conj(y)),
                   (-1j * (x * np.conj(y) - np.conj(x) * y)).real)
    w_pp = _worst_norm(got - want)
    got = bracket(v_minus(x, g), v_minus(y, d))
    want = v_plus(-1j * (d * np.conj(x) - g * np.conj(y)),
                  (1j * (x * np.conj(y) - np.conj(x) * y)).real)
    w_mm = _worst_norm(got - want)
    rep.residual("su21_bracket_mixed_formula", w_pm, tol.abs,
                 anchor="mixed bracket closed form")
    rep.residual("su21_bracket_plus_formula", w_pp, tol.abs,
                 anchor="plus-half bracket closed form")
    rep.residual("su21_bracket_minus_formula", w_mm, tol.abs,
                 anchor="minus-half bracket closed form")
    return rep


def su21_ad_action(data: SU21Data, trials: int = 20, rng=0) -> Report:
    """Conjugation by the diagonal group family versus the parameter map,
    at the group element b_group(pi / 3, 2)."""
    rng = np.random.default_rng(rng)
    rep = Report(suite="su21_ad")
    T = data.pair.hermitian_matrix
    phi, r = np.pi / 3, 2.0
    b = b_group(phi, r)
    rep.residual("su21_ad_group_membership",
                 float(np.abs(b.conj().T @ T @ b - T).max())
                 + abs(np.linalg.det(b) - 1), 1e-9,
                 anchor="family lies in the form-preserving group")
    rep.residual("su21_ad_fixes_ray",
                 float(np.linalg.norm(b @ data.S @ np.linalg.inv(b) - data.S)),
                 1e-9, anchor="family fixes the sampled ray")
    ident = b_group(0.0, 1.0)
    rep.residual("su21_ad_identity_parameters",
                 float(np.abs(ident - np.eye(3)).max()), data.pair.tol.abs,
                 anchor="trivial parameters give the identity")
    # per trial: x and y as (re, im) pairs, then d and g
    c = rng.standard_normal((trials, 6))
    x, y = _complex_pairs(c[:, :4]).T
    d, g = c[:, 4], c[:, 5]
    got = b @ (v_plus(x, d) + v_minus(y, g)) @ np.linalg.inv(b)
    want = (v_plus(np.exp(-3j * phi) * x / r, r**2 * d)
            + v_minus(r * np.exp(3j * phi) * y, g / r**2))
    rep.residual("su21_ad_parameter_map", _worst_norm(got - want), 1e-9,
                 anchor="conjugation acts by the stated parameter scaling")
    # per trial: two angles in [-pi, pi), then two radii in [0.3, 3);
    # Generator.uniform(low, high) is low + (high - low) * random()
    lo, hi = np.repeat([[-np.pi, 0.3], [np.pi, 3.0]], 2, axis=1)
    p1, p2, r1, r2 = (lo + (hi - lo) * rng.random((trials, 4))).T
    wlaw = _worst_abs(b_group(p1, r1) @ b_group(p2, r2) - b_group(p1 + p2, r1 * r2))
    rep.residual("su21_ad_group_law", wlaw, 1e-9,
                 anchor="parameters compose additively and multiplicatively")
    return rep


def su21_nabla_J(data: SU21Data, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Levi-Civita covariant derivative (nabla_X J) Y = [Lambda(X), J] Y of
    the structure, with Lambda the Levi-Civita Nomizu array (J is parallel
    for the canonical connection).  X and Y lie in n and may be stacks."""
    split, J = data.split, data.J_frame
    L = np.tensordot(split.n_coords(X), levi_civita_nomizu(split), axes=1)
    c = np.einsum("...ab,...b->...a", L @ J - J @ L, split.n_coords(Y))
    return np.tensordot(c, split.e_basis, axes=1)


def su21_nabla_J_report(data: SU21Data, trials: int = 100, rng=0) -> Report:
    """The nearly para-Kahler identities of the structure derivative over
    random pairs: it vanishes on equal arguments, anticommutes with J, and
    on pure elements of the plus half it is minus the torsion."""
    rep = Report(suite="su21_nabla_J")
    X, Y, Xp, Yp = _draw(np.random.default_rng(rng), trials,
                         data.n_space, data.n_space, data.n_plus, data.n_plus)
    w_diag = _worst_norm(su21_nabla_J(data, X, X))
    w_anti = _worst_norm(su21_nabla_J(data, X, data.J(Y))
                         + data.J(su21_nabla_J(data, X, Y)))
    w_pure = _worst_norm(su21_nabla_J(data, Xp, Yp) + torsion_eval(data.split, Xp, Yp))
    rep.residual("su21_nablaJ_vanishes_on_diagonal", w_diag, 1e-9,
                 anchor="the structure derivative vanishes on equal arguments")
    rep.residual("su21_nablaJ_anticommutes", w_anti, 1e-9,
                 anchor="the structure derivative anticommutes with the structure")
    rep.residual("su21_nablaJ_pure_type", w_pure, 1e-9,
                 anchor="on pure elements the derivative is minus the torsion")
    return rep


def su21_constant_type(data: SU21Data, trials: int = 500, rng=0):
    """Fit of the constant-type constant over random pairs.

    Returns (Lambda, max relative residual) using only draws where the
    quartic right side is bounded away from zero.
    """
    K = data.pair.form
    X, Y = _draw(np.random.default_rng(rng), trials, data.n_space, data.n_space)
    D = su21_nabla_J(data, X, Y)
    lhs = K(D, D)
    rhs = K(X, X) * K(Y, Y) - K(X, Y) ** 2 + K(data.J(X), Y) ** 2
    keep = np.abs(rhs) > 1e-3
    if not keep.any():
        raise ValueError("all sampled right sides were degenerate; resample")
    lams = np.sort(lhs[keep] / rhs[keep])  # a sort, as np.median would load numpy.ma
    mid = lams[(len(lams) - 1) // 2:len(lams) // 2 + 1]  # one or two; NaNs sort last
    lam = float(lams[-1] if np.isnan(lams[-1]) else mid.mean())
    max_rel = float(np.abs(lams - lam).max() / max(abs(lam), 1e-12))
    return lam, max_rel


def su21_report(seed: int = 0, trials: int = 100, tol: Tolerance = DEFAULT_TOL) -> Report:
    """Every check of the complex (2, 1) case study, as the su21 suite runs it.

    The conjugation action draws min(trials, 50) samples and the constant-type
    fit max(trials, 100) pairs; model_report draws as it states, and the
    other identities draw `trials`."""
    rep = Report("su21", seed)
    d = su21_build(seed=seed, tol=tol)
    rep.absorb(su21_invariants(d, rng=seed))
    rep.absorb(su21_bracket_table(d, trials=trials, rng=seed))
    rep.absorb(su21_ad_action(d, trials=min(trials, 50), rng=seed))
    rep.absorb(su21_nabla_J_report(d, trials=trials, rng=seed))
    lam, lam_res = su21_constant_type(d, trials=max(trials, 100), rng=seed)
    rep.add("su21_constant_type", abs(lam - 0.5) <= 1e-8, lam, 0.5, 1e-8,
            anchor="constant-type constant of the structure")
    rep.residual("su21_constant_type_spread", lam_res, 1e-8,
                 anchor="the fitted constant is constant across draws")
    model = model_report(d, "su21", seed, trials, einstein=2.5, casimir_multiple=2.0,
                         casimir_name="casimir_multiple")
    rep.absorb(model)
    ein = next(c.observed for c in model.checks if c.name == "su21_einstein")
    rep.add("su21_einstein_is_five_lambda", abs(ein - 5 * lam) <= 1e-7,
            ein - 5 * lam, 0.0, 1e-7,
            anchor="Einstein constant equals five times the type constant")
    return rep


# ---------------------------------------------------------------------------
# case study 2: quaternionic (2, 1), antidiagonal frame
# ---------------------------------------------------------------------------


def B_elem(z: complex, x: float, y1: complex, y2: complex, y3: complex) -> np.ndarray:
    """Stabilizer element with first block diag(z, ix, -conj(z)); array
    parameters give a stack."""
    return _quat({(0, 0): z, (1, 1): 1j * x, (2, 2): -np.conj(z)},
                 {(0, 2): y1, (1, 1): y2, (2, 0): y3})


def N_elem(z1, z2, x1, x2, y1, y2, y3) -> np.ndarray:
    """Complement element in the seven-parameter coordinate chart; array
    parameters give a stack."""
    return _quat({(0, 1): z1, (0, 2): 1j * x1, (1, 0): z2, (1, 2): -np.conj(z1),
                  (2, 0): 1j * x2, (2, 1): -np.conj(z2)},
                 {(0, 0): y1, (0, 1): y2, (1, 0): y3, (1, 2): y2,
                  (2, 1): y3, (2, 2): y1})


def Nhat_elem(z1, z2, x1, x2, y1, y2, y3) -> np.ndarray:
    """Tangent-summand element matching the complement chart (see map below)."""
    X = np.array(
        [[0, z1, x1], [z2, 0, np.conj(z1)], [x2, np.conj(z2), 0]], dtype=complex
    )
    Y = np.array([[y1, y2, 0], [y3, 0, -y2], [0, -y3, -y1]], dtype=complex)
    return quat_embed(QMat(X, Y))


def n_params(N: np.ndarray) -> tuple:
    """Invert N_elem: read the seven chart parameters off the matrix."""
    X, Y = N[:3, :3], -N[:3, 3:]
    return (X[0, 1], X[1, 0], X[0, 2].imag, X[2, 0].imag,
            Y[0, 0], Y[0, 1], Y[1, 0])


def hatn_isometry_map(N: np.ndarray) -> np.ndarray:
    """The explicit chart-level map from the complement into the tangent
    summand: flip the sign of the second real parameter, keep the rest."""
    z1, z2, x1, x2, y1, y2, y3 = n_params(N)
    return Nhat_elem(z1, z2, x1, -x2, y1, y2, y3)


@dataclass
class SP21Data(CaseStudy):
    b1: RealSubspace
    b2: RealSubspace
    n1: RealSubspace
    n2: RealSubspace
    A_basis: list
    eps_A: np.ndarray


def sp21_build(mu: complex | None = None, seed: int = 0, a: float = 1.0,
               tol: Tolerance = DEFAULT_TOL) -> SP21Data:
    """Construct and cross-check the quaternionic (2, 1) case study."""
    if mu is None:
        mu = a * (1 + 1j * SQRT3)
    a = float(mu.real)
    if a == 0 or abs(mu.imag**2 - 3 * a * a) > 1e-9 * abs(mu) ** 2:
        raise ValueError("need mu = a(1 + i sqrt(3)) with nonzero a for a null ray")
    b_basis = [B_elem(1, 0, 0, 0, 0), B_elem(1j, 0, 0, 0, 0), B_elem(0, 1, 0, 0, 0),
               B_elem(0, 0, 1, 0, 0), B_elem(0, 0, 1j, 0, 0),
               B_elem(0, 0, 0, 1, 0), B_elem(0, 0, 0, 1j, 0),
               B_elem(0, 0, 0, 0, 1), B_elem(0, 0, 0, 0, 1j)]
    n_basis = [N_elem(1, 0, 0, 0, 0, 0, 0), N_elem(1j, 0, 0, 0, 0, 0, 0),
               N_elem(0, 1, 0, 0, 0, 0, 0), N_elem(0, 1j, 0, 0, 0, 0, 0),
               N_elem(0, 0, 1, 0, 0, 0, 0), N_elem(0, 0, 0, 1, 0, 0, 0),
               N_elem(0, 0, 0, 0, 1, 0, 0), N_elem(0, 0, 0, 0, 1j, 0, 0),
               N_elem(0, 0, 0, 0, 0, 1, 0), N_elem(0, 0, 0, 0, 0, 1j, 0),
               N_elem(0, 0, 0, 0, 0, 0, 1), N_elem(0, 0, 0, 0, 0, 0, 1j)]
    study = _case_study_split("H", mu, b_basis, n_basis, seed, tol)
    s2 = 1 / np.sqrt(2.0)
    A_basis = [B_elem(0, 1, 0, 0, 0), B_elem(0, 0, 0, 1, 0), B_elem(0, 0, 0, 1j, 0),
               s2 * B_elem(1j, 0, 0, 0, 0), s2 * B_elem(0, 0, 1, 0, 1),
               s2 * B_elem(0, 0, 1j, 0, 1j),
               s2 * B_elem(1, 0, 0, 0, 0), s2 * B_elem(0, 0, 1, 0, -1),
               s2 * B_elem(0, 0, 1j, 0, -1j)]
    eps_A = np.array([-1, -1, -1, -1, -1, -1, 1, 1, 1], dtype=float)
    if np.abs(gram_matrix(study["pair"].form, A_basis) - np.diag(eps_A)).max() > tol.abs:
        raise ValueError("nine-frame is not signed orthonormal as stated")
    return SP21Data(**study, b1=RealSubspace([b_basis[i] for i in (2, 5, 6)], tol=tol),
                    b2=RealSubspace([b_basis[i] for i in (0, 1, 3, 4, 7, 8)], tol=tol),
                    n1=RealSubspace(n_basis[:4] + n_basis[8:], tol=tol),
                    n2=RealSubspace(n_basis[4:8], tol=tol), A_basis=A_basis, eps_A=eps_A)


def sp21_subalgebra_profiles(data: SP21Data) -> Report:
    """The two stabilizer factors: profiles, orthogonality, commutation."""
    rep = Report(suite="sp21_factors")
    tol = data.pair.tol
    prof1 = algebra_profile(data.b1)
    rep.equals("sp21_factor1_profile", (prof1[0], prof1[1], prof1[2], prof1[3]),
               (3, (0, 3, 0), 0, 3),
               anchor="compact rank-one factor: 3-dim, definite, perfect")
    prof2 = algebra_profile(data.b2)
    rep.equals("sp21_factor2_profile", (prof2[0], prof2[1], prof2[2], prof2[3]),
               (6, (3, 3, 0), 0, 6),
               anchor="complex special-linear factor: 6-dim, split, perfect")
    b1, b2, n2 = data.b1.basis, data.b2.basis, data.n2.basis
    ortho = float(np.abs(gram_matrix(data.pair.form, b1, b2)).max())
    rep.residual("sp21_factors_orthogonal", ortho, tol.abs,
                 anchor="the two factors are orthogonal")
    comm = max(float(np.linalg.norm(bracket(x, b2), axis=(-2, -1)).max()) for x in b1)
    rep.residual("sp21_factors_commute", comm, tol.abs,
                 anchor="the two factors commute")
    triv = max(float(np.linalg.norm(bracket(x, n2), axis=(-2, -1)).max()) for x in b1)
    rep.residual("sp21_factor1_trivial_on_n2", triv, tol.abs,
                 anchor="the compact factor acts trivially on the second block")
    return rep


def sp21_action_formulas(data: SP21Data, trials: int = 100, rng=0) -> Report:
    """Coordinate formulas for the stabilizer action on the complement."""
    rng = np.random.default_rng(rng)
    rep = Report(suite="sp21_actions")
    tol = data.pair.tol
    rep.residual("sp21_action_zero", float(np.linalg.norm(
        bracket(B_elem(0, 0, 0, 0, 0), data.n_basis[0]))), tol.abs,
        anchor="zero stabilizer element acts as zero")
    # per trial: ix, then (re, im) pairs of y, z1, z2, y2, y3, then x1 and
    # x2, then (re, im) pairs of y1, z, yy, w
    c = rng.standard_normal((trials, 21))
    ix, x1, x2 = c[:, 0], c[:, 11], c[:, 12]
    y, z1, z2, y2, y3, _, y1, z, yy, w = _complex_pairs(c[:, 1:]).T
    B1 = B_elem(0, ix, 0, y, 0)
    n1 = N_elem(z1, z2, 0, 0, 0, y2, y3)
    got1 = bracket(B1, n1)
    want = N_elem(-1j * ix * z1 + np.conj(y) * y2,
                  1j * ix * z2 - y * np.conj(y3), 0, 0, 0,
                  1j * ix * y2 - y * z1, 1j * ix * y3 + y * np.conj(z2))
    w1 = _worst_norm(got1 - want)
    n2 = N_elem(0, 0, x1, x2, y1, 0, 0)
    w0 = _worst_norm(bracket(B1, n2))
    B2 = B_elem(z, 0, yy, 0, w)
    got = bracket(B2, n1)
    want = N_elem(z * z1 - yy * np.conj(y3), -z * z2 + np.conj(w) * y2,
                  0, 0, 0,
                  z * y2 - yy * z2, -np.conj(z) * y3 + w * np.conj(z1))
    w2 = _worst_norm(got - want)
    got2 = bracket(B2, n2)
    nx1 = 2 * (z.real * x1 + (np.conj(yy) * y1).imag)
    nx2 = -2 * (z.real * x2 - (np.conj(w) * y1).imag)
    ny1 = 2j * z.imag * y1 - 1j * w * x1 - 1j * yy * x2
    w3 = _worst_norm(got2 - N_elem(0, 0, nx1, nx2, ny1, 0, 0))
    winv = max(float(data.n1.residual(got1).max(initial=0.0)),
               float(data.n2.residual(got2).max(initial=0.0)))
    rep.residual("sp21_action_b1_on_n1", w1, tol.abs,
                 anchor="compact factor action on the first block")
    rep.residual("sp21_action_b1_on_n2", w0, tol.abs,
                 anchor="compact factor is trivial on the second block")
    rep.residual("sp21_action_b2_on_n1", w2, tol.abs,
                 anchor="special-linear factor action on the first block")
    rep.residual("sp21_action_b2_on_n2", w3, tol.abs,
                 anchor="special-linear factor action on the second block")
    rep.residual("sp21_action_preserves_blocks", winv, tol.abs,
                 anchor="the action preserves the two-block decomposition")
    return rep


def sp21_hatn_isometry(data: SP21Data) -> Report:
    """The explicit chart map onto the tangent-summand complement."""
    rep = Report(suite="sp21_isometry")
    pair = data.pair
    tol = pair.tol
    imgs = np.stack([hatn_isometry_map(N) for N in data.n_basis])
    in_m = float(pair.m.residual(imgs).max())
    rep.residual("sp21_isometry_lands_in_m", in_m, tol.abs,
                 anchor="images lie in the tangent summand")
    K = pair.form
    perp = float(np.abs(gram_matrix(K, imgs, np.stack([data.S, data.S_hat]))).max())
    rep.residual("sp21_isometry_perp_to_rays", perp, tol.abs,
                 anchor="images are orthogonal to the ray pair")
    G_src = gram_matrix(K, data.n_basis)
    G_img = gram_matrix(K, imgs)
    rep.residual("sp21_isometry_gram_equal",
                 float(np.abs(G_src - G_img).max()), tol.abs,
                 anchor="the chart map preserves all pairings")
    rank = RealSubspace.span(imgs, tol).dim
    rep.equals("sp21_isometry_bijective", rank, 12,
               anchor="the chart map has full rank")
    # rho(n) meets p_hat = p_0 + p_- where both positive degrees and so(Gamma) residual vanish
    R, G = data.rho(np.stack(data.n_basis)), data.Gamma
    w = _grading_weights(len(G))
    s = np.linalg.svd(np.hstack([R[:, w[:, None] - w > 0], (np.swapaxes(R, 1, 2) @ G + G @ R)
                                 .reshape(len(R), -1)]), compute_uv=False)
    inter = int(np.sum(s <= tol.rank_rel * s[0]))
    rep.equals("sp21_n_meets_phat_trivially", inter, 0,
               anchor="the complement meets the opposite parabolic trivially")
    return rep


def phi_sl2(g: np.ndarray) -> np.ndarray:
    """Embedding of a 2x2 complex matrix (or a stack) into the quaternionic
    group frame."""
    al, be, ga, de = g[..., 0, 0], g[..., 0, 1], g[..., 1, 0], g[..., 1, 1]
    return _quat({(0, 0): al, (1, 1): 1.0, (2, 2): np.conj(de)},
                 {(0, 2): be, (2, 0): -np.conj(ga)})


def phi_sp1(u: complex, v: complex) -> np.ndarray:
    """Embedding of a unit quaternion u + v j as a middle-entry rotation
    (u and v may be arrays)."""
    return _quat({(0, 0): 1.0, (1, 1): u, (2, 2): 1.0}, {(1, 1): v})


def sp21_embedding_check(data: SP21Data, trials: int = 20, rng=0) -> Report:
    """Group-level check of the two stabilizer factors.

    Random unit quaternions and random determinant-one 2x2 matrices are
    embedded; membership in the form-preserving quaternionic group, ray
    fixing, multiplicativity and the span of the derivative algebra are
    all verified.
    """
    rng = np.random.default_rng(rng)
    rep = Report(suite="sp21_embedding")
    tol = data.pair.tol
    Fc = data.pair.carrier_form

    def membership(W):
        """Form and block-pattern residual of W, one per matrix of a stack."""
        res = np.abs(np.swapaxes(W.conj(), -1, -2) @ Fc @ W - Fc).max(axis=(-2, -1))
        X, Y = W[..., :3, :3], -W[..., :3, 3:]
        blok = (np.abs(W[..., 3:, :3] - np.conj(Y)).max(axis=(-2, -1))
                + np.abs(W[..., 3:, 3:] - np.conj(X)).max(axis=(-2, -1)))
        return res + blok

    def unit_pairs(q):
        """Unit quaternions u + v j from rows of four normals."""
        q = q / np.linalg.norm(q, axis=-1, keepdims=True)
        return _complex_pairs(q).T

    def det_one(c):
        """2x2 matrices 2 + c_00, c_01, c_10 from (re, im) pairs, with c_11
        replaced so that the determinant is one."""
        g = _complex_pairs(c).reshape(-1, 2, 2)
        g[:, 0, 0] += 2
        g[:, 1, 1] = (1 + g[:, 0, 1] * g[:, 1, 0]) / g[:, 0, 0]
        return g

    rep.residual("sp21_embed_identity", float(membership(phi_sp1(1.0, 0.0)))
                 + float(np.abs(phi_sp1(1.0, 0.0) - np.eye(6)).max()),
                 tol.abs, anchor="trivial parameters embed to the identity")
    # per trial: four normals of a unit quaternion, (re, im) pairs of two
    # 2x2 matrices g and h, then four normals of a second unit quaternion
    c = rng.standard_normal((trials, 24))
    u, v = unit_pairs(c[:, :4])
    u2, v2 = unit_pairs(c[:, 20:])
    g, h = det_one(c[:, 4:12]), det_one(c[:, 12:20])
    W = np.concatenate([phi_sp1(u, v), phi_sl2(g)])  # both families
    w_mem = _worst_abs(membership(W))
    w_fix = _worst_norm(W @ data.S @ np.linalg.inv(W) - data.S)
    # quaternion product (u + v j)(u2 + v2 j)
    up = u * u2 - v * np.conj(v2)
    vp = u * v2 + v * np.conj(u2)
    w_mult = max(_worst_abs(phi_sl2(g @ h) - phi_sl2(g) @ phi_sl2(h)),
                 _worst_abs(phi_sp1(u, v) @ phi_sp1(u2, v2) - phi_sp1(up, vp)))
    rep.residual("sp21_embed_membership", w_mem, 1e-9,
                 anchor="both families land in the form-preserving group")
    rep.residual("sp21_embed_fixes_ray", w_fix, 1e-8,
                 anchor="both families fix the sampled ray")
    rep.residual("sp21_embed_multiplicative", w_mult, 1e-9,
                 anchor="the embeddings are group homomorphisms")
    # derivative algebra of the two families: both embeddings are real-affine
    # in their entries, so phi(1 + Y) - phi(1) is their derivative along Y,
    # over bases of sl(2, C) and of the imaginary quaternions
    one = np.eye(2, dtype=complex)
    sl2 = np.array([np.diag([1, -1]), np.diag([1j, -1j]), [[0, 1], [0, 0]],
                    [[0, 1j], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [1j, 0]]])
    imag_u, imag_v = np.array([1j, 0, 0]), np.array([0, 1, 1j])
    der = np.concatenate([phi_sl2(one + sl2) - phi_sl2(one),
                          phi_sp1(1 + imag_u, imag_v) - phi_sp1(1, 0)])
    span = RealSubspace(der, tol=tol)
    b_space = RealSubspace(data.b_basis, tol=tol)
    rep.equals("sp21_embed_derivative_span", span.equals(b_space), True,
               anchor="derivative algebra of the embeddings is the stabilizer")
    # a group element integrated from a derivative element stays in the group
    Z = span.random_element(rng, norm=0.7)
    rep.residual("sp21_embed_exponential_membership", membership(cayley(data.pair, Z)),
                 1e-9, anchor="Cayley elements of derivative elements stay in the group")
    return rep


def sp21_report(seed: int = 0, trials: int = 100, tol: Tolerance = DEFAULT_TOL) -> Report:
    """Every check of the quaternionic (2, 1) case study, as the sp21 suite
    runs it.  The case study is built once, at a = 1; the duality identity
    is checked again at a = 2 on data derived from that build.  The group
    embeddings draw min(trials, 20) pairs."""
    rep = Report("sp21", seed)
    s = sp21_build(seed=seed, tol=tol)
    rep.absorb(sp21_subalgebra_profiles(s))
    rep.absorb(sp21_action_formulas(s, trials=trials, rng=seed))
    rep.absorb(sp21_hatn_isometry(s))
    rep.absorb(sp21_embedding_check(s, trials=min(trials, 20), rng=seed))
    chi = frame_casimir(s.split, s.A_basis, s.eps_A)
    rep.residual("sp21_casimir_multiple",
                 float(np.abs(chi - 6.0 * np.eye(12)).max()), 1e-8,
                 anchor="Casimir of the explicit nine-frame acts as six times the identity")
    rep.absorb(model_report(s, "sp21", seed, trials, einstein=7.0, casimir_multiple=6.0,
                            casimir_name="casimir_generic_frame",
                            isometry=hatn_isometry_map))
    rep.absorb(duality_identity(_doubled(s), "sp21", trials=trials, rng=seed), "a2_")
    return rep
