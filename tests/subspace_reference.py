"""Reference solvers the tests check closed-form subspaces against.

The library builds every subspace it uses from a basis, in closed form or
from one SVD of a system it owns, so the general kernel and intersection
solvers live here: each realifies the whole basis and cuts one SVD with
the package's rank rule (svd_rank).  stabilizer_mismatch compares two ray
stabilizer results on their matrix bases, independently of the kernel
bound (orbits._kernel_mismatch) the census reports take.
"""

import numpy as np

from nullcone.linalg import DEFAULT_TOL, RealSubspace, Tolerance, realify, svd_rank


def kernel_of(space: RealSubspace, linmap, tol: Tolerance | None = None):
    """Kernel, inside space, of a real-linear matrix-valued map.

    linmap takes the basis stack (dim, a, b) and returns the stack of its
    images, one ndarray of any shape per basis matrix along the leading
    axis; returns None when the kernel is trivial.
    """
    tol = tol or space.tol
    # column i holds the flattened image of basis[i]: one call of the map
    # and one realify of the images, each read as one row matrix
    images = np.asarray(linmap(space.basis), dtype=complex)
    cols = realify(images.reshape(space.dim, 1, -1)).T
    rank, _, vt = svd_rank(cols, tol, vectors=True)
    if rank == space.dim:
        return None
    return RealSubspace(space.combine(vt[rank:]), tol=tol)


def intersection(a: RealSubspace, b: RealSubspace, tol: Tolerance | None = None) -> int:
    """Dimension of the intersection of two subspaces."""
    tol = tol or a.tol
    # null vectors of [A, -B] give pairs of coordinates with equal images
    rank, _, vt = svd_rank(np.hstack([a._mat.T, -b._mat.T]), tol, vectors=True)
    if rank == a.dim + b.dim:
        return 0
    rank, s, _ = svd_rank(a._mat.T @ vt[rank:, :a.dim].T, tol)
    return 0 if s[0] <= tol.abs else int(rank)


def orthogonal_algebra(G: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> RealSubspace:
    """so(G) = {A real : A^T G + G A = 0}, as the kernel of that map over
    all N x N real matrices."""
    N = len(G)
    units = RealSubspace(np.eye(N * N).reshape(N * N, N, N), tol=tol)
    return kernel_of(units, lambda A: np.swapaxes(A, -1, -2) @ G + G @ A)


def _span_distance(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Per stack entry, the largest distance from a row of X to the row span of Y."""
    Q, _ = np.linalg.qr(Y.transpose(0, 2, 1))
    R = X - (X @ Q) @ Q.transpose(0, 2, 1)
    return np.linalg.norm(R, axis=2).max(axis=1)


def stabilizer_mismatch(a, b) -> np.ndarray:
    """Per ray of two RayStabilizers a and b, the largest distance from a
    basis matrix of one stabilizer to the span of the other's, both ways; 0
    where either stabilizer is trivial.  Rays with equal dimension pairs
    are stacked, and each span is one QR of the realified basis
    (_span_distance), so no coordinates in h are solved for.  Either
    result may come from either route."""
    out = np.zeros(len(a.dims))
    groups = {}
    for i, key in enumerate(zip(a.dims.tolist(), b.dims.tolist())):
        if key[0] and key[1]:
            groups.setdefault(key, []).append(i)
    for idx in groups.values():
        Xa, Xb = (realify(np.stack([st.bases[i] for i in idx])) for st in (a, b))
        out[idx] = np.maximum(_span_distance(Xa, Xb), _span_distance(Xb, Xa))
    return out
