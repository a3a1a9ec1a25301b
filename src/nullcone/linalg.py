"""Real-linear matrix algebra helpers.

Everything in this package manipulates real subspaces of complex matrix
spaces: Lie brackets, trace forms, kernels of real-linear maps, signatures,
structure constants.  Complex n x n matrices are flattened to real vectors
of length 2*n*n (row-major, real parts first, then imaginary parts), and all
rank decisions go through numpy's SVD with explicit tolerances.  A
RealSubspace factorizes only the columns whose supports overlap: the Gram
matrix of disjoint supports is block-diagonal with no rounding, so each
other column's singular value is its norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
# numpy loads it on first use; importing it here keeps that cost out of the first suite
import numpy.random  # noqa: F401


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds used across the package.

    abs: absolute tolerance for residuals that should vanish.
    rank_rel: relative cutoff for singular values / eigenvalues in rank
        and signature decisions.
    """

    abs: float = 1e-9
    rank_rel: float = 1e-8


DEFAULT_TOL = Tolerance()
MAX_REMIX = 100  # signed_gram_schmidt gives up after this many random remixes


@dataclass(frozen=True)
class BilinForm:
    """Real bilinear form X, Y -> scale * Re tr(X Y) on a matrix space.

    Two matrices give a float; stacks (..., n, n) give an array of values.
    """

    scale: float = 1.0

    def __call__(self, X: np.ndarray, Y: np.ndarray):
        if X.ndim == Y.ndim == 2:
            return float(self.scale * np.trace(X @ Y).real)
        return self.scale * np.einsum("...ij,...ji->...", X, Y).real


def bracket(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Matrix commutator [X, Y] = XY - YX; stacks broadcast over leading axes."""
    if X.shape[-2:] != Y.shape[-2:] or X.shape[-1] != X.shape[-2]:
        raise ValueError(f"bracket needs equal square shapes, got {X.shape} and {Y.shape}")
    return X @ Y - Y @ X


@dataclass(frozen=True)
class QMat:
    """Quaternionic n x n matrix written as X + Y j with complex blocks X, Y
    (or a stack of them, with equal leading axes on both blocks)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.x.shape != self.y.shape or self.x.shape[-1] != self.x.shape[-2]:
            raise ValueError("QMat blocks must be square and equal-shaped")


def quat_embed(q: QMat) -> np.ndarray:
    """Complex 2n x 2n image [[X, -Y], [conj(Y), conj(X)]] of X + Y j
    (of each matrix of a stack), with the dtype np.block would give.

    The embedding is an injective algebra homomorphism, so brackets,
    products and trace identities can be checked on the image.
    """
    X, Y = q.x, q.y
    n = X.shape[-1]
    out = np.empty(X.shape[:-2] + (2 * n, 2 * n), dtype=np.result_type(X, Y))
    out[..., :n, :n] = X
    out[..., :n, n:] = -Y
    out[..., n:, :n] = Y.conj()
    out[..., n:, n:] = X.conj()
    return out


def quat_mul(a: QMat, b: QMat) -> QMat:
    """Product of quaternionic matrices, (X1 + Y1 j)(X2 + Y2 j)."""
    # j Z = conj(Z) j moves j past a complex block
    x = a.x @ b.x - a.y @ b.y.conj()
    y = a.x @ b.y + a.y @ b.x.conj()
    return QMat(x, y)


def quat_split(M: np.ndarray) -> QMat:
    """Inverse of quat_embed; raises if M is not in the image pattern."""
    m = M.shape[0]
    if m % 2:
        raise ValueError("even dimension required")
    n = m // 2
    X, Y = M[:n, :n], -M[:n, n:]
    rebuilt = quat_embed(QMat(X, Y))
    err = np.abs(M - rebuilt).max()
    if err > 1e-8 * max(1.0, np.abs(M).max()):
        raise ValueError(f"matrix is not in the quaternionic block pattern, residual {err:.3e}")
    return QMat(X, Y)


def realify(X: np.ndarray) -> np.ndarray:
    """Flatten a complex matrix to a real vector (row-major, re then im).

    A vector is flattened as it is; a stack (..., a, b) flattens each
    matrix, giving (..., 2ab).
    """
    X = np.asarray(X, dtype=complex)
    flat = X.reshape(X.shape[:-2] + (math.prod(X.shape[-2:]),))  # -1 fails on (0, a, b)
    return np.concatenate([flat.real, flat.imag], axis=-1)


def unrealify(v: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Inverse of realify for the given matrix shape (over the last axis)."""
    half = v.shape[-1] // 2
    # assigning the parts copies them bit for bit; re + 1j * im can flip a zero's sign
    flat = np.empty(v.shape[:-1] + (half,), dtype=complex)
    flat.real = v[..., :half]
    flat.imag = v[..., half:]
    return flat.reshape(v.shape[:-1] + tuple(shape))


class RealSubspace:
    """Real-linear span of complex matrices with a fixed, ordered basis.

    The basis (a list of matrices or a stack (k, a, b)) is stored once, as
    the real columns of one realify of the stack; construction fails if it
    is linearly dependent.  `basis` unpacks those columns again, in the
    supplied order and bit for bit.  The block (the columns that touch a
    row another column touches, on the rows they touch) gets one SVD, each
    other column gives its norm, and the relative cut runs over the union:
    for a pair's generators the block is the trace-dropped diagonals, and a
    dense basis is all block.
    """

    def __init__(self, basis, tol: Tolerance = DEFAULT_TOL):
        basis = np.asarray(basis, dtype=complex)
        if len(basis) == 0:
            raise ValueError("empty basis; use RealSubspace.span for rank-safe construction")
        if basis.ndim != 3:
            raise ValueError("all basis matrices must share one shape")
        # column i is realify(basis[i]), its real and imaginary halves written
        # straight into one array; C order, as BLAS rounds combine differently in F order
        flat = basis.reshape(len(basis), -1)
        self._certify(np.concatenate([flat.real.T, flat.imag.T]), basis.shape[1:], tol)

    @classmethod
    def from_columns(cls, mat: np.ndarray, shape: tuple[int, int],
                     tol: Tolerance = DEFAULT_TOL) -> "RealSubspace":
        """The subspace whose stored columns are mat (2ab, k), kept as it is:
        column i is realify of the i-th (a, b) basis matrix."""
        space = cls.__new__(cls)
        space._certify(mat, tuple(shape), tol)
        return space

    def _certify(self, mat: np.ndarray, shape: tuple[int, int], tol: Tolerance):
        self.shape, self.tol, self._mat = shape, tol, mat
        nz = self._mat != 0
        self._block = nz[np.count_nonzero(nz, axis=1) > 1].any(axis=0)
        self._rows = nz[:, self._block].any(axis=1)
        self._norms = np.sqrt(np.einsum("ij,ij->j", self._mat, self._mat))
        B = self._mat[np.ix_(self._rows, self._block)]
        s = np.concatenate([self._norms[~self._block],
                            np.linalg.svd(B, compute_uv=False) if B.size else []])
        # a wide block (more columns than rows) has fewer singular values
        # than columns, so s cannot show its dependence
        if B.shape[1] > B.shape[0] or s.min() <= tol.rank_rel * s.max():
            raise ValueError("supplied basis is linearly dependent")

    @classmethod
    def span(cls, mats, tol: Tolerance = DEFAULT_TOL) -> "RealSubspace":
        """Subspace spanned by possibly dependent matrices (orthonormalized)."""
        mats = np.asarray(mats, dtype=complex)
        if len(mats) == 0:
            raise ValueError("need at least one matrix to take a span")
        _, s, vt = np.linalg.svd(realify(mats))
        cut = tol.rank_rel * s[0] if s[0] > 0 else 0.0
        rank = int(np.sum(s > cut))
        if rank == 0:
            raise ValueError("all matrices are numerically zero")
        return cls(unrealify(vt[:rank], mats.shape[1:]), tol=tol)

    @cached_property
    def basis(self) -> np.ndarray:
        """The basis as a read-only stack (dim, a, b), unpacked from the
        stored columns when first asked for."""
        B = unrealify(self._mat.T, self.shape)
        B.flags.writeable = False
        return B

    @property
    def dim(self) -> int:
        return self._mat.shape[1]

    @cached_property
    def frame(self) -> np.ndarray:
        """Orthonormal real columns (2ab, dim) with the span of the stored
        ones, computed when first asked for.  Q Q^T is the orthogonal
        projector onto the subspace.  A column outside the block is a_i /
        |a_i|, and the block's columns come from one QR of the block."""
        Q = self._mat / self._norms
        ix = np.ix_(self._rows, self._block)
        Q[ix] = np.linalg.qr(self._mat[ix])[0]
        return Q

    # coords, combine, project, residual and contains take one matrix or a stack
    # (..., a, b); coords on a stack is one product and one multi-right-hand-side
    # solve, and project and residual are two products with the frame

    def coords(self, X: np.ndarray) -> np.ndarray:
        """Real coordinates of X in this basis (least squares), split by
        support: a column a_j outside the block shares no row, so its
        coordinate decouples, a_j^T r / |a_j|^2 from one product, and the
        block takes one lstsq on its rows (all of a dense basis)."""
        R = realify(X)
        flat = R.reshape(-1, R.shape[-1])
        c = (flat @ self._mat) / self._norms ** 2
        if self._block.any():
            B = self._mat[np.ix_(self._rows, self._block)]
            c[:, self._block] = np.linalg.lstsq(B, flat[:, self._rows].T, rcond=None)[0].T
        return c.reshape(R.shape[:-1] + (self.dim,))

    def project(self, X: np.ndarray) -> np.ndarray:
        Q = self.frame
        return unrealify((realify(X) @ Q) @ Q.T, self.shape)

    def combine(self, coeffs: np.ndarray) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=float)
        return unrealify(coeffs @ self._mat.T, self.shape)

    def residual(self, X: np.ndarray):
        """Frobenius distance from X to the subspace (an array for a stack)."""
        R = realify(X)
        Q = self.frame
        dist = np.linalg.norm(R - (R @ Q) @ Q.T, axis=-1)
        return float(dist) if dist.ndim == 0 else dist

    def contains(self, X: np.ndarray):
        """Whether X lies in the subspace: residual within tol.abs at the
        scale max(1, |X|).  A stack gives one bool per matrix, each judged
        at its own scale."""
        scale = np.maximum(1.0, np.linalg.norm(X, axis=(-2, -1)))
        return self.residual(X) <= self.tol.abs * scale

    def random_element(self, rng: np.random.Generator, norm=None,
                       size: int | None = None) -> np.ndarray:
        """Gaussian combination of the basis, rescaled to the given norm.

        With size, a stack of that many elements; norm may then hold one
        value per element.
        """
        if size is None:
            X = self.combine(rng.standard_normal(self.dim))
            nx = np.linalg.norm(X)
        else:
            X = self.combine(rng.standard_normal((size, self.dim)))
            nx = np.linalg.norm(X, axis=(1, 2))
        if norm is not None:
            # a zero element stays zero
            X = X * (np.asarray(norm) / np.where(nx > 0, nx, 1.0))[..., None, None]
        return X

    def equals(self, other: "RealSubspace") -> bool:
        if self.dim != other.dim:
            return False
        return bool(other.contains(self.basis).all() and self.contains(other.basis).all())


def max_bracket_residual(rows, target: RealSubspace, cols=None) -> float:
    """Largest distance from [x, y] to target over x in rows, y in cols.

    Without cols, the closure of one basis: [x_j, x_i] = -[x_i, x_j] has
    the same residual bit for bit and [x_i, x_i] = 0, so only the pairs
    i < j are bracketed.  Each row's brackets are two flat products, with
    the basis laid side by side and stacked, and one stacked residual; no
    (k, k, N, N) stack is built.
    """
    same = cols is None
    cols = np.asarray(rows if same else cols)
    k, N = cols.shape[:2]
    side = cols.transpose(1, 0, 2).reshape(N, k * N)
    flat = cols.reshape(k * N, N)
    worst = 0.0
    for i, x in enumerate(rows):
        a = i + 1 if same else 0
        if a == k:
            break
        # block j of x @ side is x y_j, block j of flat @ x is y_j x
        B = (flat[a * N:] @ x).reshape(k - a, N, N)
        np.subtract((x @ side[:, a * N:]).reshape(N, k - a, N).transpose(1, 0, 2), B, out=B)
        worst = max(worst, float(target.residual(B).max()))
    return worst


def _kernel_cols(mat: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Orthonormal kernel columns of a real matrix (possibly wide or tall)."""
    mat = np.asarray(mat, dtype=float)
    if mat.size == 0 or not mat.any():
        return np.eye(mat.shape[1])
    # a tall matrix needs no left factor; a wide one needs the full vt, whose
    # extra rows are kernel directions the reduced form would drop
    rows, cols = mat.shape
    _, s, vt = np.linalg.svd(mat, full_matrices=rows < cols)
    cut = tol.rank_rel * s[0]
    rank = int(np.sum(s > cut))
    return vt[rank:].T


def gram_matrix(form: BilinForm, basis, other=None) -> np.ndarray:
    """Pairings form(basis[i], other[j]); other defaults to basis.

    Re tr(XY) is the dot product of realify(X) with realify(conj(Y^T)), so
    the whole matrix is one real product of two flattened stacks.  basis
    may also be one matrix or a stack (..., N, N), giving (..., len(other)).
    """
    other = basis if other is None else other
    A = realify(np.asarray(basis))
    B = realify(np.swapaxes(np.asarray(other), -1, -2).conj())
    return form.scale * (A @ B.T)


def sym_signature(G: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> tuple[int, int, int]:
    """Signature (n+, n-, n0) of a real symmetric matrix.

    Eigenvalues with magnitude below rank_rel times the largest magnitude
    count as zero.
    """
    w = np.linalg.eigvalsh(0.5 * (G + G.T))
    top = np.abs(w).max() if w.size else 0.0
    if top == 0.0:
        return (0, 0, G.shape[0])
    cut = tol.rank_rel * top
    plus = int(np.sum(w > cut))
    minus = int(np.sum(w < -cut))
    return (plus, minus, G.shape[0] - plus - minus)


def gram_signature(form: BilinForm, space: RealSubspace):
    """Gram matrix of the form on the subspace basis plus its signature, at
    the subspace's tolerance."""
    G = gram_matrix(form, space.basis)
    return G, sym_signature(G, space.tol)


def orth_complement(space: RealSubspace, within: RealSubspace, form: BilinForm):
    """Orthogonal complement of `space` inside `within` for the given form.

    Returns (complement, degenerate).  When the form is degenerate on
    `space` the complement can intersect it; the flag reports that case
    and callers decide whether it is an error.  The complement is built
    inside `within`, so its rank cuts and its own tolerance are within's.
    """
    tol = within.tol
    G = gram_matrix(form, space.basis)
    _, _, n0 = sym_signature(G, tol)
    degenerate = n0 > 0
    rows = gram_matrix(form, space.basis, within.basis)
    ker = _kernel_cols(rows, tol)
    if ker.shape[1] == 0:
        raise ValueError("orthogonal complement is trivial")
    comp = RealSubspace(within.combine(ker.T), tol=tol)
    return comp, degenerate


def structure_constants(space: RealSubspace):
    """Structure constants c[i, j, :] of the bracket in the given basis.

    Also reports whether the space contains every bracket; when it does
    not, the constants are the coordinates of the projections.
    """
    k = space.dim
    c = np.zeros((k, k, k))
    closed = True
    for i in range(k - 1):
        # row i: brackets of basis[i] with every later basis element
        B = bracket(space.basis[i], space.basis[i + 1:])
        closed = closed and bool(space.contains(B).all())
        ci = space.coords(B)
        c[i, i + 1:] = ci
        c[i + 1:, i] = -ci
    return c, closed


def algebra_profile(space: RealSubspace):
    """(dim, killing_signature, center_dim, derived_dim) of a matrix Lie algebra.

    Raises if the space is not closed under the bracket.  The Killing form
    is computed from the adjoint matrices in the supplied basis, so the
    result is basis-independent up to the space's tolerance.
    """
    tol = space.tol
    c, closed = structure_constants(space)
    if not closed:
        raise ValueError("space is not closed under the bracket")
    k = space.dim
    # ad_i maps coordinates a to coordinates of [b_i, sum_a a_a b_a]
    ads = np.swapaxes(c, 1, 2)
    K = np.einsum("iab,jba->ij", ads, ads)
    sig = sym_signature(K, tol)
    flat = ads.reshape(k, k * k).T  # columns: vectorized ad matrices
    center = _kernel_cols(flat, tol).shape[1]
    pairs = c[np.triu_indices(k, 1)]
    if len(pairs):
        s = np.linalg.svd(pairs, compute_uv=False)
        derived = int(np.sum(s > tol.rank_rel * s[0])) if s[0] > tol.abs else 0
    else:
        derived = 0
    return k, sig, center, derived


def signed_gram_schmidt(form: BilinForm, space: RealSubspace,
                        rng: np.random.Generator | None = None):
    """Basis with form(e_i, e_j) = eps_i delta_ij, eps_i in {+1, -1}.

    Pivoting picks the largest |form(v, v)| first.  Subspaces can contain
    large totally null chunks where every remaining self-pairing vanishes;
    in that case the remaining vectors are remixed with random coefficients
    and the sweep continues, at most MAX_REMIX times.  Requires the form to
    be nondegenerate on the space.  Returns (basis, eps): the basis as a stack (dim, N, N) and eps
    ordered +1 entries first.

    The remaining vectors are one stack V, so each pivot step is one stacked
    self-pairing and one stacked projection V - s form(V, e) e.  The
    pairings are product-then-trace, as BilinForm pairs two matrices, so
    the basis is the one a vector-by-vector sweep gives, bit for bit.
    """
    rng = rng or np.random.default_rng(0)

    def pair_with(V, W):
        return form.scale * np.trace(V @ W, axis1=-2, axis2=-1).real

    V = space.basis
    out, eps = [], []
    remix = 0
    while len(V):
        self_pairs = pair_with(V, V)
        i = int(np.argmax(np.abs(self_pairs)))
        fv = self_pairs[i]
        if abs(fv) < 1e-8:
            if remix >= MAX_REMIX:
                raise ValueError("form appears degenerate on the space")
            remix += 1
            coeff = rng.standard_normal((len(V), len(V)))
            # row a is sum_b coeff[a, b] V[b], accumulated in the order of b
            mixed = np.zeros_like(V)
            for b in range(len(V)):
                mixed = mixed + coeff[:, b, None, None] * V[b]
            V = mixed
            continue
        e = V[i] / np.sqrt(abs(fv))
        s = 1.0 if fv > 0 else -1.0
        V = np.delete(V, i, axis=0)
        V = V - (s * pair_with(V, e))[:, None, None] * e
        out.append(e)
        eps.append(s)
    eps_arr = np.array(eps)
    order = np.argsort(-eps_arr, kind="stable")
    return np.stack(out)[order], eps_arr[order]
