"""Reductive splits of the isotropy algebra and their geometry.

Given a subalgebra b of h on which the trace form is nondegenerate, the
orthogonal complement n inside h is an invariant complement.  Its
geometry is held as arrays in a signed orthonormal frame of n: the torsion
-[u, v]_n and curvature R(u, v) w = -[[u, v]_b, w] of the canonical
connection, and Nomizu arrays, from which curvature_tensor builds the
curvature of the canonical (Lambda = 0) or Levi-Civita connection; their
Ricci and first-Bianchi contractions read either array.  The Ricci
convention is fixed so that the Casimir constant and the Einstein constants
of the two case studies come out with their known positive signs:
Ric(X, Y) = sum_i eps_i K(R(X, e_i) Y, e_i).

Tolerance contract: every routine reads its tolerance from the pair,
pair.tol or split.pair.tol, fixed once where the pair is built; none takes
a tolerance of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    BilinForm,
    RealSubspace,
    bracket,
    gram_matrix,
    gram_signature,
    max_bracket_residual,
    orth_complement,
    signed_gram_schmidt,
    structure_constants,
)
from .pairs import SymmetricPair
from .report import Report


def frame_coords(form: BilinForm, frame: np.ndarray, ginv: np.ndarray,
                 X: np.ndarray) -> np.ndarray:
    """Coordinates of X in a frame, read through the form.

    frame is a stack (k, N, N) and ginv the inverse of its Gram matrix; X
    is one matrix or a stack (..., N, N) and the result has shape (..., k).
    For X outside the span of the frame this reads its form-orthogonal
    projection onto the span.
    """
    return gram_matrix(form, X, frame) @ ginv


def frame_ad(form: BilinForm, frame: np.ndarray, ginv: np.ndarray,
             X: np.ndarray) -> np.ndarray:
    """Matrix of Y -> [X, Y] in a frame: column b holds the coordinates of
    [X, frame[b]].  X may be a stack (..., N, N), giving (..., k, k)."""
    images = bracket(X[..., None, :, :], frame)
    return np.swapaxes(frame_coords(form, frame, ginv, images), -1, -2)


@dataclass
class ReductiveSplit:
    """h = b + n with a signed orthonormal basis of n.

    b may be None for the degenerate case of a trivial stabilizer, in
    which case n is all of h and the canonical curvature vanishes.  e_basis
    is the signed orthonormal basis of n as one stack (d, N, N), with signs
    eps; its brackets, the torsion and the curvature are computed once from
    e_basis, eps and form, on first use.
    """

    pair: SymmetricPair
    b: RealSubspace | None
    n: RealSubspace
    e_basis: np.ndarray
    eps: np.ndarray
    form: BilinForm

    @property
    def dim_b(self) -> int:
        return 0 if self.b is None else self.b.dim

    @property
    def dim_n(self) -> int:
        return len(self.e_basis)

    def n_coords(self, X: np.ndarray) -> np.ndarray:
        """Coordinates of an element of n (or a stack) in the signed basis."""
        return frame_coords(self.form, self.e_basis, np.diag(self.eps), X)

    def proj_n(self, X: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto n of one matrix or a stack."""
        return np.tensordot(self.n_coords(X), self.e_basis, axes=1)

    def ad(self, X: np.ndarray) -> np.ndarray:
        """Matrix of ad(X), read on n, in the signed basis (X may be a stack)."""
        return frame_ad(self.form, self.e_basis, np.diag(self.eps), X)

    @cached_property
    def frame_brackets(self) -> np.ndarray:
        """[e_i, e_j] for all i, j as (d, d, N, N), exactly antisymmetric."""
        P = self.e_basis[:, None] @ self.e_basis[None, :]
        return P - np.swapaxes(P, 0, 1)

    @cached_property
    def torsion_components(self) -> np.ndarray:
        """T[i, j, :], the coordinates of T(e_i, e_j) = -[e_i, e_j]_n."""
        return -self.n_coords(self.frame_brackets)

    @cached_property
    def curvature_components(self) -> np.ndarray:
        """R[i, k], the matrix of w -> -[[e_i, e_k]_b, w] in the signed basis.

        Built one frame index i at a time, so no d^3 stack of matrices is
        ever held.
        """
        B = self.frame_brackets
        return np.stack([-self.ad(Bi - self.proj_n(Bi)) for Bi in B])


def reductive_split(pair: SymmetricPair, b: RealSubspace | None,
                    rng=0) -> ReductiveSplit:
    """Build the orthogonal invariant complement of b inside h."""
    form = pair.form
    if b is not None and b.dim > 0:
        if not pair.h.contains(b.basis).all():
            raise ValueError("b is not contained in the isotropy algebra")
        _, closed = structure_constants(b)
        if not closed:
            raise ValueError("b is not closed under the bracket")
        _, sig_b = gram_signature(form, b)
        if sig_b[2] > 0:
            raise ValueError("form is degenerate on b; no orthogonal complement")
        n, _ = orth_complement(b, pair.h, form)
        if max_bracket_residual(b.basis, n, n.basis) > 1e-7:
            raise ValueError("complement is not invariant under b")
    else:
        b = None
        n = pair.h
    e_basis, eps = signed_gram_schmidt(form, n, np.random.default_rng(rng))
    return ReductiveSplit(pair=pair, b=b, n=n, e_basis=e_basis, eps=eps, form=form)


def torsion_eval(split: ReductiveSplit, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """T(u, v) = -[u, v]_n for u, v in n, from the torsion components.

    u and v may be stacks (..., N, N), evaluated element by element.
    """
    c = np.einsum("...i,...j,ijk->...k", split.n_coords(u), split.n_coords(v),
                  split.torsion_components)
    return np.tensordot(c, split.e_basis, axes=1)


def torsion_derivation_check(split: ReductiveSplit) -> Report:
    """Skewness and the derivation property of the torsion.

    The derivation residual is [b, T(u, v)] - T([b, u]_n, v) - T(u, [b, v]_n)
    over all basis triples; it vanishes exactly when the isotropy action
    preserves the torsion tensor.  [b, T(u, v)] is kept as a full matrix,
    so a part of it outside n counts too.
    """
    tol = split.pair.tol
    rep = Report(suite="torsion")
    T = split.torsion_components
    low = T * split.eps  # K(T(e_i, e_j), e_k)
    anti = float(np.abs(T + np.transpose(T, (1, 0, 2))).max())
    rep.residual("torsion_antisymmetry", anti, tol.abs,
                 anchor="torsion is antisymmetric in its two arguments")
    skew = 0.0
    for perm, sign in [((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1),
                       ((1, 2, 0), 1), ((2, 0, 1), 1)]:
        skew = max(skew, float(np.abs(np.transpose(low, perm) - sign * low).max()))
    rep.residual("torsion_total_skew", skew, tol.abs,
                 anchor="lowered torsion changes by the sign of the permutation")
    worst = 0.0
    T_mats = np.tensordot(T, split.e_basis, axes=1)
    b_basis = [] if split.b is None else split.b.basis
    for X in b_basis:
        A = split.ad(X)  # column i: coordinates of [X, e_i]_n
        moved = np.einsum("pi,pjk->ijk", A, T) + np.einsum("qj,iqk->ijk", A, T)
        D = bracket(X, T_mats) - np.tensordot(moved, split.e_basis, axes=1)
        worst = max(worst, float(np.linalg.norm(D, axis=(-2, -1)).max()))
    rep.residual("torsion_derivation", worst, tol.abs,
                 anchor="isotropy elements act as derivations of the torsion")
    return rep


def levi_civita_nomizu(split: ReductiveSplit) -> np.ndarray:
    """Nomizu array of the Levi-Civita connection, Lambda(X) Y = [X, Y]_n / 2.

    Lambda[i] is the matrix of Lambda(e_i) in the signed basis, so
    Lambda[i, a, j] = -T[i, j, a] / 2.  The trace form is ad(b)-invariant
    and n is orthogonal to b, so the split is naturally reductive and this
    is the torsion-free metric connection.
    """
    return -0.5 * np.swapaxes(split.torsion_components, 1, 2)


def curvature_tensor(split: ReductiveSplit, nomizu: np.ndarray | None = None) -> np.ndarray:
    """R[i, j], the matrix of w -> R(e_i, e_j) w in the signed basis, of the
    invariant connection with Nomizu array `nomizu` (None: the canonical one,
    curvature_components).  R(X, Y) = [Lambda(X), Lambda(Y)] - Lambda([X, Y]_n)
    - ad([X, Y]_b) reads [Lambda_i, Lambda_j] + sum_k T[i, j, k] Lambda_k + C[i, j].
    """
    C = split.curvature_components
    if nomizu is None:
        return C
    LL = nomizu[:, None] @ nomizu[None, :]
    return (LL - np.swapaxes(LL, 0, 1)
            + np.tensordot(split.torsion_components, nomizu, axes=1) + C)


def ricci(R: np.ndarray) -> np.ndarray:
    """Ric(e_i, e_j) = sum_k eps_k K(R(e_i, e_k) e_j, e_k) = sum_k R[i, k][k, j]."""
    return np.einsum("ikkj->ij", R)


def bianchi_defect(R: np.ndarray, T: np.ndarray) -> np.ndarray:
    """D[i, j, k], the coordinates of the cyclic sum over (i, j, k) of
    R(e_i, e_j) e_k - T(T(e_i, e_j), e_k), as a (d, d, d, d) array.

    It vanishes for a connection with parallel torsion T (the canonical
    one) and, with T = 0, for a torsion-free one.  By trilinearity, the
    cyclic sum at any triple u, v, w in n is D contracted with their
    coordinates.
    """
    A = np.swapaxes(R, 2, 3) - np.tensordot(T, T, axes=1)  # A[i, j, k, :]
    return A + np.einsum("jkia->ijka", A) + np.einsum("kija->ijka", A)


def ricci_levi_civita(split: ReductiveSplit) -> np.ndarray:
    """Ricci tensor of the Levi-Civita connection."""
    return ricci(curvature_tensor(split, levi_civita_nomizu(split)))


def einstein_fit(split: ReductiveSplit):
    """Least-squares Einstein constant of the Levi-Civita Ricci tensor and
    the worst entry residual."""
    ric = ricci_levi_civita(split)
    G = np.diag(split.eps)
    lam = float(np.sum(ric * G) / np.sum(G * G))
    residual = float(np.abs(ric - lam * G).max())
    return lam, residual


def frame_casimir(split: ReductiveSplit, basis, eps: np.ndarray) -> np.ndarray:
    """sum_a eps_a ad(A_a)^2 on n for a signed orthonormal frame A of b."""
    ads = split.ad(np.stack(basis))
    return np.einsum("a,aij,ajk->ik", eps, ads, ads)


def casimir(split: ReductiveSplit, rng=0) -> np.ndarray:
    """Casimir of the b-action on n, sum_i eps_i ad(A_i)^2.

    Computed twice with independently randomized signed orthonormal bases
    of b; a mismatch means the form data is inconsistent and raises.
    """
    tol = split.pair.tol
    d = split.dim_n
    if split.b is None or split.b.dim == 0:
        return np.zeros((d, d))
    rng = np.random.default_rng(rng)

    def one_pass(space):
        return frame_casimir(split, *signed_gram_schmidt(split.form, space, rng))

    chi1 = one_pass(split.b)
    k = split.b.dim
    mix = rng.standard_normal((k, k)) + np.eye(k)
    remixed = RealSubspace(np.tensordot(mix, split.b.basis, axes=1), tol=tol)
    chi2 = one_pass(remixed)
    drift = float(np.abs(chi1 - chi2).max())
    if drift > 1e-7 * max(1.0, float(np.abs(chi1).max())):
        raise ValueError(f"Casimir is basis-dependent, drift {drift:.3e}")
    return chi1


def wang_ziller_check(chi: np.ndarray):
    """Fit a Casimir matrix to c * Id; (is_multiple, c)."""
    d = chi.shape[0]
    c = float(np.trace(chi) / d)
    residual = float(np.abs(chi - c * np.eye(d)).max())
    return residual <= 1e-8 * max(1.0, abs(c)), c


def homothety_check(split: ReductiveSplit, n_hat: RealSubspace):
    """Compare n with n_hat, the orthogonal complement of the ray pair
    span{S, S_hat} in m that the caller built.

    Equality of dimension plus equality of signatures (up to an overall
    sign swap) decides linear isometry.  Returns (ok, note).
    """
    _, sig_n = gram_signature(split.form, split.n)
    _, sig_hat = gram_signature(split.form, n_hat)
    ok = split.n.dim == n_hat.dim
    sig_match = (sig_n == sig_hat) or (sig_n == (sig_hat[1], sig_hat[0], sig_hat[2]))
    ok = ok and sig_match and sig_n[2] == 0
    note = (f"dim n = {split.n.dim}, dim n_hat = {n_hat.dim}, "
            f"signatures {sig_n[:2]} vs {sig_hat[:2]}")
    return ok, note
