"""Reductive splits of the isotropy algebra and their geometry.

Given a subalgebra b of h on which the trace form is nondegenerate, the
orthogonal complement n inside h is an invariant complement.  The split
holds one structure-constant array, Phi[i, k, z] = K([e_i, e_k], u_z) over
signed orthonormal frames u = (e, f) of n and b.  The torsion T, beta of
[e_i, e_k]_b and M_a = ad(f_a) on n are signed slices of it, and each
tensor is a contraction of them: the canonical curvature, the
curvature of any invariant connection given by its Nomizu array, the
Levi-Civita Ricci tensor without that array, and the Casimir.  The Ricci
convention, Ric(X, Y) = sum_i eps_i K(R(X, e_i) Y, e_i), gives the Casimir
and the Einstein constants of the two case studies their known signs.

Tolerance contract: every routine reads its tolerance from the pair,
pair.tol or split.pair.tol, fixed once where the pair is built; none takes
a tolerance of its own.
"""

from __future__ import annotations

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
from .report import Record, Report


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


class ReductiveSplit(Record):
    """h = b + n with a signed orthonormal basis of n.

    b may be None for a trivial stabilizer; then n is all of h and the
    canonical curvature vanishes.  e_basis is the signed orthonormal basis
    of n as one stack (d, N, N), with signs eps; the frame of b and the
    structure constants are computed once, on first use.
    """

    _fields = ("pair", "b", "n", "e_basis", "eps", "form")

    def __init__(self, pair: SymmetricPair, b: RealSubspace | None, n: RealSubspace,
                 e_basis: np.ndarray, eps: np.ndarray, form: BilinForm):
        self.pair, self.b, self.n = pair, b, n
        self.e_basis, self.eps, self.form = e_basis, eps, form

    @property
    def dim_b(self) -> int:
        return 0 if self.b is None else self.b.dim

    @property
    def dim_n(self) -> int:
        return len(self.e_basis)

    def n_coords(self, X: np.ndarray) -> np.ndarray:
        """Coordinates of an element of n (or a stack) in the signed basis."""
        return frame_coords(self.form, self.e_basis, np.diag(self.eps), X)

    def ad(self, X: np.ndarray) -> np.ndarray:
        """Matrix of ad(X), read on n, in the signed basis (X may be a stack)."""
        return frame_ad(self.form, self.e_basis, np.diag(self.eps), X)

    @cached_property
    def b_frame(self) -> tuple[np.ndarray, np.ndarray]:
        """(f, eta), a signed orthonormal frame of b and its signs (empty if b is None)."""
        if self.dim_b == 0:
            return self.e_basis[:0], self.eps[:0]
        return signed_gram_schmidt(self.form, self.b)

    @cached_property
    def bracket_pairings(self) -> np.ndarray:
        """Phi[i, k, z] = K([e_i, e_k], u_z), u = (e, f): one pairing of the
        products e_i e_k with u, then dropped, antisymmetrized exactly."""
        E = self.e_basis
        G = gram_matrix(self.form, E[:, None] @ E, np.concatenate([E, self.b_frame[0]]))
        return G - np.swapaxes(G, 0, 1)

    @property
    def torsion_components(self) -> np.ndarray:
        """T[i, j, m] = -eps_m Phi[i, j, m], the coordinates of T(e_i, e_j) = -[e_i, e_j]_n."""
        return -self.bracket_pairings[..., :self.dim_n] * self.eps

    @property
    def b_components(self) -> np.ndarray:
        """beta[i, k, a] = eta_a Phi[i, k, d + a], the coordinates of [e_i, e_k]_b."""
        return self.bracket_pairings[..., self.dim_n:] * self.b_frame[1]

    @property
    def b_action(self) -> np.ndarray:
        """M[a] = ad(f_a) on n: M[a, p, k] = eps_p eta_a beta[k, p, a], by invariance of K."""
        return np.transpose(self.bracket_pairings[..., self.dim_n:], (2, 1, 0)) * self.eps[:, None]

    @cached_property
    def curvature_components(self) -> np.ndarray:
        """C[i, k] = -sum_a beta[i, k, a] M[a], the matrix of w -> -[[e_i, e_k]_b, w]."""
        return -np.tensordot(self.b_components, self.b_action, axes=1)


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
        n = orth_complement(b, pair.h, form)
        if max_bracket_residual(b.basis, n, n.basis) > 1e-7:
            raise ValueError("complement is not invariant under b")
    else:
        b, n = None, pair.h
    e_basis, eps = signed_gram_schmidt(form, n, np.random.default_rng(rng))
    return ReductiveSplit(pair=pair, b=b, n=n, e_basis=e_basis, eps=eps, form=form)


def torsion_eval(split: ReductiveSplit, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """T(u, v) = -[u, v]_n for u, v in n, or stacks (..., N, N) element by
    element, from the torsion components."""
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
    tol, rep, T = split.pair.tol, Report(suite="torsion"), split.torsion_components
    low = T * split.eps  # K(T(e_i, e_j), e_k)
    anti = float(np.abs(T + np.transpose(T, (1, 0, 2))).max())
    rep.residual("torsion_antisymmetry", anti, tol.abs,
                 anchor="torsion is antisymmetric in its two arguments")
    skew = max(float(np.abs(np.transpose(low, perm) - sign * low).max())
               for perm, sign in [((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1),
                                  ((1, 2, 0), 1), ((2, 0, 1), 1)])
    rep.residual("torsion_total_skew", skew, tol.abs,
                 anchor="lowered torsion changes by the sign of the permutation")
    E, worst = split.e_basis, 0.0
    for f, M in zip(split.b_frame[0], split.b_action):
        # sum_k T[i, j, k] [f_a, e_k] = [f_a, T(e_i, e_j)], a whole matrix
        moved = np.einsum("pi,pjk->ijk", M, T) + np.einsum("qj,iqk->ijk", M, T)
        D = np.tensordot(T, bracket(f, E), axes=1) - np.tensordot(moved, E, axes=1)
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
    """Ricci tensor of the Levi-Civita connection, the trace of its curvature
    array taken term by term from L, T, beta and M (README), never the array."""
    L, T = levi_civita_nomizu(split), split.torsion_components
    return (np.tensordot(L, L, axes=([1, 2], [0, 1])) - np.einsum("kkp->p", L) @ L
            + np.tensordot(T, L, axes=([1, 2], [1, 0]))
            - np.tensordot(split.b_components, split.b_action, axes=([1, 2], [1, 0])))


def einstein_fit(split: ReductiveSplit):
    """Least-squares Einstein constant of the Levi-Civita Ricci tensor and
    the worst entry residual."""
    ric = ricci_levi_civita(split)
    G = np.diag(split.eps)
    lam = float(np.sum(ric * G) / np.sum(G * G))
    return lam, float(np.abs(ric - lam * G).max())


def frame_casimir(split: ReductiveSplit, basis, eps: np.ndarray) -> np.ndarray:
    """sum_a eps_a ad(A_a)^2 on n for a signed orthonormal frame A of b."""
    ads = split.ad(np.stack(basis))
    return np.einsum("a,aij,ajk->ik", eps, ads, ads)


def casimir(split: ReductiveSplit, rng=0) -> np.ndarray:
    """Casimir of the b-action on n, sum_a eta_a M_a^2 over the split's frame.

    Computed again over an independently randomized signed orthonormal
    basis of b; a mismatch means the form data is inconsistent and raises.
    """
    M, k = split.b_action, split.dim_b
    chi = np.einsum("a,aij,ajk->ik", split.b_frame[1], M, M)
    if k:
        rng = np.random.default_rng(rng)
        mix = rng.standard_normal((k, k)) + np.eye(k)
        remixed = RealSubspace(np.tensordot(mix, split.b.basis, axes=1), tol=split.pair.tol)
        chi2 = frame_casimir(split, *signed_gram_schmidt(split.form, remixed, rng))
        drift = float(np.abs(chi - chi2).max())
        if drift > 1e-7 * max(1.0, float(np.abs(chi).max())):
            raise ValueError(f"Casimir is basis-dependent, drift {drift:.3e}")
    return chi


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
