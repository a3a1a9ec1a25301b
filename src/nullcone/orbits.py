"""Null vectors in the tangent summand: sampling, stabilizers, normal forms.

A null vector is S in m with K(S, S) = 0.  Generic samples are produced
with a prescribed spectrum in a convenient frame and moved to the pair's
frame by a form congruence plus a random isotropy conjugation (by a
Cayley element, one stacked solve); the real family stays float64.  Ray
stabilizers have two routes.  The SVD route (stabilizers_of_rays) takes
kernels of a joint linear system (the commutator may scale S along the
ray, so the scaling coefficient is solved for, not assumed to vanish).
Every column of that system lies in m, so it is written in the
orthonormal frame of m (RealSubspace.frame): dim m rows instead of 2 N^2,
with the singular values of the full system up to one common factor, so
the relative rank cuts are unchanged.  The same frame answers membership
in m (RealSubspace.residual).  The commutant route
(stabilizers_by_commutant) holds for generic rays only: a ray that is
scaled by its stabilizer is nilpotent, so a generic ray's stabilizer is
h ∩ C(S), solved in the eigenbasis of S as a projector of side dim C(S)
(2n for R, 2(n - 1) for C, 8n for H) instead of a dim m x (dim h + 1)
system.  stabilizers_report solves every ray by the route with the
smaller per-ray system (commutant_is_smaller); its first ray's commutant
basis and orbits_report's ray kernels (ray_stabilizer_mismatch) are
bounded against the singular values of another system (_kernel_mismatch),
so no second kernel is solved.  orbits_report counts strata dimensions
from singular values too (stabilizer_dims).
Normal-form routines reduce a generic null vector to a diagonal matrix
whose invariant-form Gram takes an antidiagonal corner shape: the unitary
form for the complex family, the symplectic form for the quaternionic one.

Sampling, certification, partners, stabilizers and normal forms run on
stacks of rays (sample_null_batch, partner_null_batch, stabilizers_of_rays,
stabilizers_by_commutant, canonicalize_unitary_batch,
canonicalize_symplectic_batch); one ray is a one-row stack.  A ray is
eigen-solved once, where make_null_batch certifies it: its NullBatch keeps
the spectrum and the eigenvector columns of that one stacked eig, and the
partners, both normal forms and the commutant route read them from there
(the symplectic form takes each eigenplane from its cluster's two
columns).  Both stabilizer routes return the same RayStabilizers: per
ray, a stack of matrices and their ray coefficients.  The kernels take whatever
stack they are given; callers that walk many rays cut them with
trial_blocks, which bounds the memory of one block on the route in use.
stabilizers_report and orbits_report are the census checks of one pair,
as the stabilizers and orbits suites run them.

Tolerance contract: a routine given a pair reads its tolerance from
pair.tol, fixed once where the pair is built (build_pair): rank cuts use
tol.rank_rel and the genericity gap tol.abs; the normal forms split a
spectrum at a quarter of its certified gap, which needs no tolerance.
Only routines without a pair take one (so21_orbit_class,
RayStabilizers.subspace).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .linalg import DEFAULT_TOL, QMat, RealSubspace, Tolerance, quat_embed
from .pairs import SymmetricPair, t_form
from .report import Report

GAP_FACTOR = 1e3  # genericity asks for eigenvalue gaps above GAP_FACTOR * tol.abs
SAMPLE_ROUNDS = 60  # sample_null_batch redraws rejected rows at most this often
# trial_blocks cuts a run of rays into blocks whose arrays stay within this
# many bytes, counted per ray of the stabilizer route in use: a few hundred
# rays of a 3 x 3 pair fit in one block, one ray of the quaternionic (6, 5)
# pair fills it, so memory does not grow with the number of trials.
BLOCK_BYTES = 1 << 20
# ray stabilizer dimension of a generic null vector, by field and n = p + q,
# and of a representative of each (R, 2, 1) stratum
EXPECTED_STAB_DIM = {"C": lambda n: n - 1, "R": lambda n: 0, "H": lambda n: 3 * n}
STRATUM_STAB_DIM = {"open": 0, "two-step-nilpotent": 1, "one-step-nilpotent": 2}


@dataclass(frozen=True)
class NullBatch:
    """k sampled or supplied elements of the null cone, as stacked arrays
    with a leading axis of length k.

    eigenvalues holds n entries per row, lexsorted by (real, imag); for the
    quaternionic family these are the cluster means of the doubled spectrum
    of the complex carrier.  vectors (k, N, N) holds the eigenvector columns
    of the same eig, in the same order: column i belongs to eigenvalue i,
    and for the quaternionic family columns 2i and 2i + 1 belong to cluster
    i.  genericity means all pairwise gaps exceed the sampling threshold.
    """

    S: np.ndarray
    eigenvalues: np.ndarray
    vectors: np.ndarray
    genericity: np.ndarray
    nullity_residual: np.ndarray
    gap: np.ndarray

    def __len__(self) -> int:
        return self.S.shape[0]

    def take(self, idx) -> "NullBatch":
        """Rows selected by an index array or boolean mask."""
        return NullBatch(*(getattr(self, f.name)[idx] for f in fields(NullBatch)))

    @staticmethod
    def concat(parts) -> "NullBatch":
        if len(parts) == 1:
            return parts[0]
        return NullBatch(*(np.concatenate([getattr(b, f.name) for b in parts])
                           for f in fields(NullBatch)))


@dataclass(frozen=True)
class RayStabilizers:
    """Ray stabilizers of k null vectors from one stacked solve: for each
    S_i, all X in h with [X, S_i] = c S_i for some real c.

    Both routes give the same shape.  dims[i] is the dimension of ray i's
    stabilizer, bases[i] a stack (dims[i], N, N) of matrices X spanning it
    and scales[i] (dims[i],) their ray coefficients c.  residuals[i] is the
    largest |[X, S_i] - c S_i| over the basis, with the bracket taken
    afresh, so it checks the solve rather than restating it.  The SVD route
    (stabilizers_of_rays) solves for (X, c) together: its bases are the h
    parts of orthonormal kernel vectors.  The commutant route
    (stabilizers_by_commutant) holds where c = 0 is proven, so its scales
    are zeros; its bases are unit matrices, its residuals also hold their
    distance from h in closed form, and margins[i] is the condition number
    of ray i's eigenbasis (Frobenius norm).  The SVD route has no margins.
    """

    dims: np.ndarray
    bases: list
    scales: list
    residuals: np.ndarray
    margins: np.ndarray | None = None

    def subspace(self, i: int, tol: Tolerance = DEFAULT_TOL) -> RealSubspace | None:
        """Ray i's stabilizer as a subspace of h (None when it is trivial)."""
        if self.dims[i] == 0:
            return None
        return RealSubspace(self.bases[i], tol=tol)

    def take(self, idx) -> "RayStabilizers":
        """The rays of an index array, in its order, or of a boolean mask."""
        idx = np.arange(len(self.dims))[idx]
        return RayStabilizers(self.dims[idx], [self.bases[i] for i in idx],
                              [self.scales[i] for i in idx], self.residuals[idx],
                              None if self.margins is None else self.margins[idx])


# ---------------------------------------------------------------------------
# blocks: a run of trials is cut so that one block's arrays stay within
# BLOCK_BYTES; the stabilizer route has the largest arrays per ray
# ---------------------------------------------------------------------------


def _ray_bytes(pair: SymmetricPair, commutant: bool) -> int:
    """Bytes a ray holds in a census block on the commutant or SVD route:
    twelve (N, N) complex stacks (draw, eigenvectors, partner, normal form)
    and the route's largest phase, d the generic stabilizer dimension and
    c = dim h + 1.  Commutant: the projector of side dim C(S) and its
    factors, or five (d, N, N) basis and residual stacks.  SVD: the bracket
    stacks and the projected systems, three dim m x c systems and two c x c
    V, or V and four (d, N, N) kernel-basis stacks."""
    field = pair.family.field
    N, d = pair.carrier_dim, EXPECTED_STAB_DIM[field](pair.family.n)
    own = 16 * 12 * N * N
    if commutant:
        P = _commutant_dim(pair)
        return own + 8 * max(6 * P * P, P * P + 10 * d * N * N)
    m, c = pair.m.dim, pair.h.dim + 1
    # real numbers per bracket: R and S are real, H keeps the top n carrier rows
    rows = 2 * N * N if field == "C" else N * N
    return own + 8 * max(2 * rows * (c - 1) + (2 * c - 1) * m,
                         3 * m * c + 2 * c * c, c * c + 8 * d * N * N)


def trial_blocks(pair: SymmetricPair, k: int, commutant: bool) -> list[int]:
    """Sizes of the blocks k trials are cut into, at least one ray each, so
    that a block's arrays on the given route stay within BLOCK_BYTES; one
    ray (_ray_bytes) is kept back for LAPACK's workspace and the reference."""
    step = max(1, BLOCK_BYTES // _ray_bytes(pair, commutant) - 1)
    return [min(step, k - a) for a in range(0, k, step)]


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def _doubled_pairs(vals: np.ndarray) -> np.ndarray:
    """Greedy nearest-partner pairing of doubled spectra, row by row of a
    (k, 2n) array: the first unpaired value takes its nearest unpaired one.
    Returns the indices (k, n, 2) of each pair, in pairing order."""
    k, m = vals.shape
    rows = np.arange(k)
    free = np.ones((k, m), dtype=bool)
    idx = np.empty((k, m // 2, 2), dtype=int)
    for step in range(m // 2):
        i = free.argmax(axis=1)
        free[rows, i] = False
        dists = np.where(free, np.abs(vals - vals[rows, i][:, None]), np.inf)
        j = dists.argmin(axis=1)
        free[rows, j] = False
        idx[:, step, 0], idx[:, step, 1] = i, j
    return idx


def _pair_doubled_spectra(vals: np.ndarray, idx: np.ndarray):
    """Cluster a (k, 2n) doubled spectrum by its pairs idx (_doubled_pairs).

    Returns (k x n cluster means, max intra-pair spread, min inter-pair gap).
    """
    rows = np.arange(len(vals))[:, None]
    v, w = vals[rows, idx[..., 0]], vals[rows, idx[..., 1]]
    reps = 0.5 * (v + w)
    spread = np.abs(w - v).max(axis=1, initial=0.0)
    return reps, spread, _min_gaps(reps)


def _min_gaps(vals: np.ndarray) -> np.ndarray:
    k, n = vals.shape
    if n < 2:
        return np.full(k, np.inf)
    diffs = np.abs(vals[:, :, None] - vals[:, None, :])
    diffs[:, np.arange(n), np.arange(n)] = np.inf
    return diffs.min(axis=(1, 2))


def make_null_batch(pair: SymmetricPair, S: np.ndarray) -> NullBatch:
    """Membership, nullity and genericity certificates for a stack (k, N, N).

    Raises if a row is not in the tangent summand (which also holds it
    traceless); one stacked residual (two products with m's frame) tests
    membership and one stacked eig gives the spectra and the eigenvector
    columns, which the batch keeps in the order of its eigenvalues (for H,
    each cluster's two columns side by side).  A real stack of the real
    family stays float64, so its spectra come from real LAPACK; every other
    stack is taken as complex128.
    """
    S = np.asarray(S)
    S = S.astype(float if pair.family.field == "R" and not np.iscomplexobj(S) else complex,
                 copy=False)
    scale = np.maximum(1.0, np.linalg.norm(S, axis=(1, 2)))
    if np.any(pair.m.residual(S) > 1e-7 * scale):
        raise ValueError("matrix is not in the tangent summand within tolerance")
    nullity = np.abs(pair.form(S, S))
    vals, V = np.linalg.eig(S)  # both real for an all-real spectrum
    vals, V = vals.astype(complex, copy=False), V.astype(complex, copy=False)
    quaternionic = pair.family.field == "H"
    if quaternionic:
        pairs = _doubled_pairs(vals)
        vals, spread, gap = _pair_doubled_spectra(vals, pairs)
        generic = (spread < 1e-6 * scale) & (gap > GAP_FACTOR * pair.tol.abs)
    else:
        gap = _min_gaps(vals)
        generic = gap > GAP_FACTOR * pair.tol.abs
    order = np.lexsort((vals.imag, vals.real), axis=-1)
    vals = np.take_along_axis(vals, order, axis=-1)
    cols = order  # the columns follow their values
    if quaternionic:  # an H cluster's two columns stay side by side
        cols = np.take_along_axis(pairs, order[..., None], axis=1).reshape(len(S), -1)
    V = np.take_along_axis(V, cols[:, None, :], axis=2)
    return NullBatch(S, vals, V, generic, nullity, gap)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _sample_spectra(p: int, q: int, k: int, rng: np.random.Generator):
    """k spectra (mu complex (k, r), lam real (k, n - 2r)) with zero sum of
    all eigenvalues and zero sum of their squares; corner size r = min(p, q)."""
    r, free = min(p, q), p + q - 2 * min(p, q)
    a = rng.standard_normal((k, r))
    lam = rng.standard_normal((k, free))
    # joint trace centering: 2*sum(a) + sum(lam) = 0 afterwards
    t = (2.0 * a.sum(axis=1) + lam.sum(axis=1)) / (2 * r + free)
    a -= t[:, None]
    lam -= t[:, None]
    # sum of squares: 2*sum(a^2 - b^2) + sum(lam^2) = 0 fixes the b magnitudes
    budget = (a * a).sum(axis=1) + 0.5 * (lam * lam).sum(axis=1)
    w = rng.uniform(0.5, 1.5, (k, r))
    b = np.sqrt(budget[:, None] * w / w.sum(axis=1, keepdims=True))
    return a + 1j * b, lam


def _framed_null_stack(pair: SymmetricPair, k: int, rng: np.random.Generator) -> np.ndarray:
    """k null matrices X* F = F X, tr X = 0, tr X^2 = 0 with generic spectra,
    built in the sampling frame and moved to the pair's frame."""
    fam = pair.family
    p, n = fam.p, fam.n
    r = min(p, fam.q)
    mu, lam = _sample_spectra(p, fam.q, k, rng)
    P, P_inv = pair.sampling_frame
    if fam.field == "R":
        # rotation-style 2 x 2 blocks couple one positive and one negative coordinate
        S = np.zeros((k, n, n))
        i = np.arange(r)
        S[:, i, i] = S[:, p + i, p + i] = mu.real
        S[:, i, p + i] = mu.imag
        S[:, p + i, i] = -mu.imag
        slots = np.r_[r:p, p + r:n]
        S[:, slots, slots] = lam
        # the real form's frame is real, so the draws stay float64
        return P.real @ S @ P_inv.real
    diag = np.concatenate([mu, lam.astype(complex), np.conj(mu)[:, ::-1]], axis=1)
    X = (P * diag[:, None, :]) @ P_inv
    if fam.field == "C":
        return X
    return quat_embed(QMat(X, np.zeros_like(X)))


def cayley(pair: SymmetricPair, Z: np.ndarray) -> np.ndarray:
    """Cayley elements A = (1 - Z/2)^-1 (1 + Z/2) of a stack Z (k, N, N) of
    elements of h, by one stacked solve; for R, Z is taken real and so is A.

    A is in the isotropy group for every Z in h.  Z* F = -F Z gives
    (1 - Z*/2)^-1 F = F (1 + Z/2)^-1, and the factors of A commute, so
    A* F A = F.  Products and inverses keep the quaternionic pattern, so for
    H A keeps it.  For C the eigenvalues of Z pair as lam and -conj(lam), so
    |det A| = 1; A may be off SU(p, q) by a central phase, which does not
    change A S A^-1.  |Z|_2 <= |Z|_F <= 1 keeps sigma_min(1 - Z/2) >= 1/2,
    so the solve is well conditioned.
    """
    if pair.family.field == "R":
        Z = Z.real
    half = 0.5 * Z
    eye = np.eye(Z.shape[-1])
    return np.linalg.solve(eye - half, eye + half)


def _isotropy_conjugate(pair: SymmetricPair, S: np.ndarray,
                        rng: np.random.Generator) -> np.ndarray:
    """Conjugate each S_i by the Cayley element A_i (cayley) of a random
    isotropy element Z_i with norm <= 1: one stacked solve builds every
    A_i, an isotropy element, and one more gives A_i S_i A_i^-1.  A real
    stack of the real family stays float64."""
    k = S.shape[0]
    A = cayley(pair, pair.h.random_element(rng, norm=rng.uniform(0.2, 1.0, k), size=k))
    # S -> A S A^{-1} via a solve, avoiding an explicit inverse
    AS = A @ S
    return np.linalg.solve(A.transpose(0, 2, 1), AS.transpose(0, 2, 1)).transpose(0, 2, 1)


def sample_null_batch(pair: SymmetricPair, k: int, rng=0) -> NullBatch:
    """k random generic null vectors (distinct spectrum, nonreal pairs present).

    The draws take their spectra at once, move them by the pair's
    sampling congruence (computed once per pair), conjugate them by random
    Cayley elements of the isotropy group (_isotropy_conjugate: two stacked
    solves, no exponential), and are certified by make_null_batch.  Draws
    of the real family stay float64 throughout.
    Rows that fail the genericity or nullity rule are redrawn, at
    most SAMPLE_ROUNDS rounds in all.
    """
    rng = np.random.default_rng(rng)  # a Generator passes through
    if pair.family.n < 3:
        raise ValueError("generic null vectors need p + q >= 3")
    if k < 1:
        raise ValueError("need at least one draw")
    parts, need = [], k
    for _ in range(SAMPLE_ROUNDS):
        S = _isotropy_conjugate(pair, _framed_null_stack(pair, need, rng), rng)
        batch = make_null_batch(pair, S)
        ok = batch.genericity & (batch.nullity_residual < 1e-8)
        parts.append(batch.take(ok))
        need -= int(ok.sum())
        if need == 0:
            return NullBatch.concat(parts)
    raise RuntimeError("failed to draw a generic null vector")


# ---------------------------------------------------------------------------
# stabilizers and partners
# ---------------------------------------------------------------------------


def _stabilizer_system(pair: SymmetricPair, S: np.ndarray) -> np.ndarray:
    """Each ray's real system (k, dim m, dim h + 1) for a stack S (k, N, N):
    the brackets [h_i, S] and -S as columns, in coordinates of the pair's
    orthonormal frame of m.

    Only rows that are not redundant are bracketed, by two flat products
    of the h-basis stack with S, and projected onto the matching rows of
    m's orthonormal frame (RealSubspace.frame): the real half for R (h, m
    and S are real), the top n carrier rows (real and imaginary parts) for
    H (the bottom n are their conjugates), every row for C.  Every column
    lies in m ([h, m] is in m and S is in m), so for R and C this is the
    full realified system written in an orthonormal frame of the space its
    columns span: the same singular values and the same kernel.  For H the
    top rows of the frame are orthogonal with squared norm 1/2, which
    halves every singular value.
    """
    hb, S = pair.h.basis, np.asarray(S, dtype=complex)
    field = pair.family.field
    if field == "R":
        hb, S = hb.real, S.real
    d, N = hb.shape[:2]
    k = len(S)
    top = pair.family.n if field == "H" else N
    St = S[:, :top]
    # rows :top of h_i S - S h_i, each term one flat product over all i
    B = (hb[:, :top].reshape(d * top, N) @ S).reshape(k, d, top, N)
    B -= (St @ hb.transpose(1, 0, 2).reshape(N, d * N)).reshape(
        k, top, d, N).transpose(0, 2, 1, 3)
    t = top * N
    B, St = B.reshape(k * d, t), St.reshape(k, t)
    Q = pair.m.frame
    if field == "R":
        Qk = Q[:t]
    else:
        # a complex row viewed as floats interleaves its real and imaginary parts
        Qk = np.stack([Q[:t], Q[N * N:N * N + t]], axis=1).reshape(2 * t, -1)
        B, St = B.view(float), St.view(float)
    A = np.empty((k, d + 1, Q.shape[1]))
    A[:, :d] = (B @ Qk).reshape(k, d, -1)
    A[:, d] = -(St @ Qk)
    return A.transpose(0, 2, 1)


def _rank_cut(pair: SymmetricPair, s: np.ndarray) -> np.ndarray:
    """Ranks (k,) from stacked singular values s (k, j): the relative cut
    s > pair.tol.rank_rel * s_max."""
    return (s > pair.tol.rank_rel * s[:, :1]).sum(axis=1)


def _stabilizer_ranks(pair: SymmetricPair, S: np.ndarray, vt: bool = False):
    """Ranks (k,) of the stabilizer systems of a stack S (k, N, N): one
    stacked SVD and the relative cut of _rank_cut (the frame of m keeps the
    full system's singular values up to one common factor).

    vt=False takes singular values alone.  vt=True also returns all of
    V^T, whose last (dim h + 1) - rank rows span each kernel (a full SVD
    only where dim m < dim h + 1).
    """
    A = _stabilizer_system(pair, S)
    if not vt:
        return _rank_cut(pair, np.linalg.svd(A, compute_uv=False))
    s, v = np.linalg.svd(A, full_matrices=pair.m.dim < pair.h.dim + 1)[1:]
    return _rank_cut(pair, s), v


def stabilizer_dims(pair: SymmetricPair, S: np.ndarray) -> np.ndarray:
    """Ray stabilizer dimensions (k,) of a stack S (k, N, N), from the
    singular values of the stabilizer systems alone: the dims of
    stabilizers_of_rays without a kernel vector."""
    return pair.h.dim + 1 - _stabilizer_ranks(pair, S)


def stabilizers_of_rays(pair: SymmetricPair, S: np.ndarray) -> RayStabilizers:
    """Ray stabilizers of a stack of null vectors S (k, N, N).

    Each ray's real system has the brackets [h_i, S] and -S as columns,
    written in the pair's orthonormal frame of m (_stabilizer_system), so
    it has dim m rows rather than 2 N^2; one stacked SVD gives every
    kernel, with the rank cut of _stabilizer_ranks.  Each ray's kernel is
    the last (dim h + 1) - rank rows of V^T, returned as matrices and ray
    coefficients (_kernel_bases).  The stack is solved whole; trial_blocks
    sizes stacks to a memory bound.
    """
    S = np.asarray(S, dtype=complex)
    rank, vt = _stabilizer_ranks(pair, S, vt=True)
    dims = vt.shape[-1] - rank
    return RayStabilizers(dims, *_kernel_bases(pair, S, vt, dims))


def _kernel_mismatch(pair: SymmetricPair, A: np.ndarray, K: np.ndarray):
    """Stabilizer systems A (k, dim m, dim h + 1) against orthonormal
    columns K (k, dim h + 1, d) in (x, c) coordinates, zero columns allowed,
    from the singular values of A alone: (kernel dims, mismatch), each (k,).

    mismatch[i] is |A_i K_i|_F / sigma_r(A_i), r the rank of A_i at the cut
    of _rank_cut.  Over the principal angles between span K_i and the
    kernel of A_i it is at least sqrt(sum sin^2), so at least the largest
    sine, and at most sigma_1 / sigma_r times that: 0 exactly when span K_i
    lies in the kernel.  Each A_i must be nonzero.
    """
    s = np.linalg.svd(A, compute_uv=False)
    rank = _rank_cut(pair, s)
    sigma_r = np.take_along_axis(s, rank[:, None] - 1, axis=1)[:, 0]
    return A.shape[-1] - rank, np.linalg.norm(A @ K, axis=(1, 2)) / sigma_r


def ray_stabilizer_mismatch(pair: SymmetricPair, S: np.ndarray, T: np.ndarray):
    """Ray stabilizers of two stacks S and T (k, N, N) compared row by row
    as kernels of their systems: (dims of S, dims of T, mismatch), each (k,).

    The orthonormal kernel vectors of S_i's system, in (x, c) coordinates,
    go against the singular values of T_i's (_kernel_mismatch): 0 exactly
    when S_i's kernel lies in T_i's.  X -> x is an isomorphism, so equal
    kernels are equal stabilizers with equal ray coefficients.  Each T_i
    must be a ray (nonzero).  A wide system of S (dim m < dim h + 1) always
    has a kernel, so its SVD takes vectors at once; a tall one (R) takes
    singular values first, and vectors only if some row has a kernel.
    """
    c = pair.h.dim + 1
    rank = None if pair.m.dim < c else _stabilizer_ranks(pair, S)
    vt = np.empty((len(S), 0, c))
    if rank is None or (rank < c).any():
        rank, vt = _stabilizer_ranks(pair, S, vt=True)
    dims = c - rank
    d = int(dims.max(initial=0))
    # ray i's kernel is the last dims[i] rows of vt[i]; its other rows are zeroed
    own = (np.arange(d) >= (d - dims)[:, None])[..., None]
    K = np.where(own, vt[:, vt.shape[1] - d:], 0.0).transpose(0, 2, 1)
    return (dims, *_kernel_mismatch(pair, _stabilizer_system(pair, T), K))


def _kernel_bases(pair: SymmetricPair, S: np.ndarray, vt: np.ndarray, dims: np.ndarray):
    """Per ray, the kernel vectors (X, c) as a basis stack X (dims[i], N, N)
    rebuilt from the h basis and their ray coefficients c (dims[i],), and
    the largest |[X, S] - c S| over them with the full bracket taken: a
    check on the stacked system and on the rows it drops.

    S is (k, N, N); each ray's kernel is the last dims[i] rows of vt[i].
    X = 0 forces c = 0, so each basis stack is independent.  Every ray's
    rows are copied out, so neither vt nor the stacked block of matrices
    outlives the call.  Returns (bases, scales, residuals).
    """
    d = int(dims.max(initial=0))
    first = d - dims  # ray i's rows of the tail
    tail = vt[:, vt.shape[1] - d:]  # not vt[:, -d:], which is all of vt at d = 0
    X = pair.h.combine(tail[..., :-1])
    c = tail[..., -1]
    S = S[:, None]
    R = X @ S  # [X, S] - c S, in place
    R -= S @ X
    R -= c[..., None, None] * S
    norms = np.linalg.norm(R, axis=(-2, -1))
    residuals = np.where(np.arange(d) >= first[:, None], norms, 0.0).max(axis=1, initial=0.0)
    return ([X[i, j:].copy() for i, j in enumerate(first)],
            [c[i, j:].copy() for i, j in enumerate(first)], residuals)


# ---------------------------------------------------------------------------
# the commutant route: a generic S is not nilpotent, so [X, S] = c S forces
# c = 0 and the ray stabilizer is h ∩ C(S), read off the certified eigenbasis
# ---------------------------------------------------------------------------


def _commutant_dim(pair: SymmetricPair) -> int:
    """Real dimension of the space the commutant route solves in: C(S) for
    a generic S, n complex lines for R and C (traceless for C) and n blocks
    gl(2, C) for H."""
    n = pair.family.n
    return {"R": 2 * n, "C": 2 * (n - 1), "H": 8 * n}[pair.family.field]


def commutant_is_smaller(pair: SymmetricPair) -> bool:
    """Whether the commutant route's per-ray system, (dim C(S))^2, is smaller
    than the SVD route's, dim m * (dim h + 1).  It is for C at every n, and
    for R and H from n = 5 on."""
    return _commutant_dim(pair) ** 2 < pair.m.dim * (pair.h.dim + 1)


def _commutant_frames(pair: SymmetricPair, batch: NullBatch):
    """The certified eigenvector columns V (k, N, N) of a batch, with each
    eigenspace's columns adjacent (make_null_batch keeps the two columns of
    an H cluster side by side), V^-1, and the positions (rows r, columns c)
    of the block diagonal D with X = V D V^-1 in C(S), one gl(b, C) block
    per eigenspace of dimension b."""
    V = batch.vectors
    N = V.shape[-1]
    b = 2 if pair.family.field == "H" else 1
    blocks = np.arange(N).reshape(-1, b)
    r, c = np.repeat(blocks, b, axis=1).ravel(), np.tile(blocks, b).ravel()
    return V, np.linalg.inv(V), r, c


def _commutant_involutions(pair: SymmetricPair, V: np.ndarray, Vinv: np.ndarray,
                           r: np.ndarray, c: np.ndarray) -> list:
    """The involutions of gl(N, C) whose common fixed set meets C(S) in the
    Lie algebra of h, up to the trace condition, as antilinear maps of the
    block coordinates d of D (X = V D V^-1): stacks M (k, P, P), d -> M conj(d).

    The form involution X -> -F X* F is D -> -G^-1 D* G with G = V* F V; for
    H the quaternionic structure X -> J conj(X) J^-1, and for R the real
    structure X -> conj(X), is D -> K conj(D) K^-1 with K = V^-1 J conj(V)
    (J = 1 for R), so K^-1 = -conj(K) for H and conj(K) for R.  The image
    of the block entry (r_q, c_q) is an outer product of two columns, and
    only its block-diagonal entries (r_p, c_p) are gathered.
    """
    F = pair.carrier_form
    G = _adjoint(V) @ F @ V
    Ginv = Vinv @ F @ _adjoint(Vinv)  # F^2 = 1
    maps = [-Ginv[:, r[:, None], c] * G[:, r, c[:, None]]]
    field = pair.family.field
    if field != "C":
        if field == "H":
            JV, sign = np.swapaxes(_quat_conj(np.swapaxes(V, 1, 2)), 1, 2), -1.0
        else:
            JV, sign = V.conj(), 1.0
        K = Vinv @ JV
        maps.append(sign * K[:, r[:, None], r] * K.conj()[:, c, c[:, None]])
    return maps


@lru_cache
def _sum_zero_frame(n: int) -> np.ndarray:
    """Orthonormal real columns (n, n - 1) spanning the vectors of zero
    sum, read-only and computed once per n."""
    T = np.linalg.qr(np.eye(n) - 1.0 / n)[0][:, :n - 1]
    T.flags.writeable = False
    return T


def _commutant_projector(maps: list) -> np.ndarray:
    """The product of (1 + sigma) / 2 over antilinear involution maps
    d -> M conj(d), as real square matrices on (Re d, Im d)."""
    proj = None
    for M in maps:
        R = np.concatenate([np.concatenate([M.real, M.imag], axis=-1),
                            np.concatenate([M.imag, -M.real], axis=-1)], axis=-2)
        half = 0.5 * (np.eye(R.shape[-1]) + R)
        proj = half if proj is None else half @ proj
    return proj


def _commutant_residuals(pair: SymmetricPair, S: np.ndarray, X: np.ndarray) -> np.ndarray:
    """For matrices X (k, d, N, N) and rays S (k, N, N), the largest of
    |[X, S]| and the closed-form distances from h: |X* F + F X|, |tr X|, and
    the quaternionic pattern (H) or the imaginary part (R)."""
    F = pair.carrier_form
    S = S[:, None]
    parts = [np.linalg.norm(X @ S - S @ X, axis=(-2, -1)),
             np.linalg.norm(_adjoint(X) @ F + F @ X, axis=(-2, -1)),
             np.abs(np.trace(X, axis1=-2, axis2=-1))]
    field = pair.family.field
    if field == "H":
        n = pair.family.n
        pattern = quat_embed(QMat(X[..., :n, :n], -X[..., :n, n:]))
        parts.append(np.linalg.norm(X - pattern, axis=(-2, -1)))
    elif field == "R":
        parts.append(np.linalg.norm(X.imag, axis=(-2, -1)))
    return np.max(parts, axis=0)


def stabilizers_by_commutant(pair: SymmetricPair, batch: NullBatch) -> RayStabilizers:
    """Ray stabilizers of a batch of generic null vectors as h ∩ C(S).

    If [X, S] = c S with c != 0, then c tr(S^j) = tr([X, S] S^(j-1)) = 0
    for every j and S is nilpotent; a generic S is not, so its ray
    stabilizer is the part of the commutant C(S) in h.  The batch's
    eigenvector columns write C(S) as the block diagonals D of
    X = V D V^-1 (_commutant_frames); the involutions that fix h, written
    on D (_commutant_involutions), give a projector onto h ∩ C(S) whose real
    matrix has side dim C(S): 8n for H, 2n for R, 2(n - 1) for C
    (_commutant_projector).  One stacked SVD of it gives the rank, with
    the relative cut taken at least against 1 (a projector's nonzero
    singular values are at least 1, so a zero projector keeps rank 0),
    and the basis, rebuilt as unit matrices X = V D V^-1.

    margins holds cond(V) per ray, in the Frobenius norm (|V| |V^-1|, an
    upper bound of the spectral one).  Raises on rows that are not generic,
    and on rows whose eigenbasis is so ill-conditioned that errors of order
    eps cond(V)^2 in the block coordinates (G = V* F V) could cross the rank
    cut: a nilpotent S, whose computed eigenvalues split by about eps^(1/3)
    and can pass the gap rule of make_null_batch, has cond(V) near 1e10.
    """
    tol = pair.tol
    S = batch.S
    V, Vinv, r, c = _commutant_frames(pair, batch)
    margins = np.linalg.norm(V, axis=(1, 2)) * np.linalg.norm(Vinv, axis=(1, 2))
    if not np.all(batch.genericity) or np.any(
            np.finfo(float).eps * margins ** 2 > tol.rank_rel):
        raise ValueError("the commutant route needs a generic spectrum")
    maps = _commutant_involutions(pair, V, Vinv, r, c)
    if pair.family.field == "C":
        # the involutions keep the traceless D, where h is; restrict to them
        T = _sum_zero_frame(pair.family.n)
        maps = [T.T @ M @ T for M in maps]
    u, s, _ = np.linalg.svd(_commutant_projector(maps))
    dims = (s > tol.rank_rel * np.maximum(1.0, s[:, :1])).sum(axis=1)
    d = int(dims.max(initial=0))
    half = u.shape[1] // 2
    coeffs = u[:, :half, :d] + 1j * u[:, half:, :d]
    if pair.family.field == "C":
        coeffs = T @ coeffs
    # X = sum_p d_p V[:, r_p] Vinv[c_p, :], one product per basis element
    X = (V[:, None, :, r] * np.swapaxes(coeffs, 1, 2)[:, :, None, :]) @ Vinv[:, None, c, :]
    X /= np.linalg.norm(X, axis=(-2, -1))[..., None, None]
    own = np.arange(d) < dims[:, None]
    residuals = np.where(own, _commutant_residuals(pair, S, X), 0.0).max(axis=1, initial=0.0)
    return RayStabilizers(dims, [X[i, :n] for i, n in enumerate(dims)],
                          [np.zeros(n) for n in dims], residuals, margins)


def partner_null_batch(pair: SymmetricPair, batch: NullBatch):
    """Partner null vectors sharing the eigenframes of a batch, and their
    pairings with it: (partners (k, N, N), pairings (k,)).

    Each partner keeps every eigenvector of S (the batch's vectors) and
    maps each eigenvalue to minus its conjugate; for H each cluster value
    serves both of its columns.  On a canonical representative (eigenframe
    adapted to the involution) this is exactly the negative conjugate
    transpose; unlike the raw matrix map it commutes with isotropy
    conjugation, so the stabilizer equality it feeds is frame-independent.
    The partners are projected onto m, so no membership test follows, and
    the pairings are strictly negative.
    """
    if not np.all(batch.genericity):
        raise ValueError("the partner construction needs a generic spectrum")
    S, w, V = batch.S, batch.eigenvalues, batch.vectors
    if pair.family.field == "H":
        w = np.repeat(w, 2, axis=1)
    M = (V * -np.conj(w)[:, None, :]) @ np.linalg.inv(V)
    if pair.family.field == "R":
        M = M.real.astype(complex)
    elif pair.family.field == "H":
        n = pair.family.n
        X = (M[:, :n, :n] + np.conj(M[:, n:, n:])) / 2
        Y = (-M[:, :n, n:] + np.conj(M[:, n:, :n])) / 2
        M = quat_embed(QMat(X, Y))
    M = pair.m.project(M)
    return M, pair.form(S, M)


def codimension_from_stabilizer(pair: SymmetricPair, stab_dim):
    """Codimension of a ray orbit inside the projectivized null cone, from
    the ray's stabilizer dimension (an int or an array of them)."""
    cone_dim = pair.m.dim - 2
    orbit_dim = pair.h.dim - np.asarray(stab_dim)
    return cone_dim - orbit_dim


def _spectrum_classes(vals: np.ndarray, gap: np.ndarray):
    """Masks of the upper-half-plane and real values of each row of a (k, n)
    spectrum, at the threshold gap / 4, and the corner size r (k,), the
    number of upper values.  A nonreal value lies 2 |Im| from its conjugate,
    so |Im| >= gap / 2 and gap / 4 separates the classes at any scale.
    Raises where the lower values do not match the upper ones in number."""
    thr = 0.25 * np.asarray(gap)[:, None]
    upper, lower = vals.imag > thr, vals.imag < -thr
    r = upper.sum(axis=1)
    if np.any(lower.sum(axis=1) != r):
        raise ValueError("nonreal eigenvalues do not pair with their conjugates")
    return upper, ~(upper | lower), r


def _corner_slots(vals: np.ndarray, gap: np.ndarray, sign=0.0):
    """The order in which a normal form takes the values of a (k, n)
    spectrum: (r, groups), with r (k,) the corner sizes and, per corner
    size rr, (g, rr, slots): the rows g of that size and their value
    indices slots (len(g), n).

    The slots are the upper-half-plane values by (real, imag), then the
    real ones by (-sign, value), then the conjugate partners in mirrored
    order, each upper value taking the nearest unused lower value to its
    conjugate.  sign (broadcast to (k, n)) is the sign of each value's
    self-pairing where a normal form puts the positive ones first.
    """
    upper, real, r = _spectrum_classes(vals, gap)
    k, n = vals.shape
    rows = np.arange(k)
    up = np.lexsort((vals.imag, vals.real, ~upper), axis=-1)
    mid = np.lexsort((vals.real, -np.broadcast_to(sign, (k, n)), ~real), axis=-1)
    free = ~(upper | real)
    partner = np.zeros((k, int(r.max(initial=0))), dtype=int)
    for i in range(partner.shape[1]):
        target = np.conj(vals[rows, up[:, i]])
        j = np.where(free, np.abs(vals - target[:, None]), np.inf).argmin(axis=1)
        free[rows, j] = False
        partner[:, i] = j
    groups = []
    for rr in sorted(set(r.tolist())):  # np.unique would load numpy.ma
        g = np.flatnonzero(r == rr)
        groups.append((g, rr, np.concatenate(
            [up[g, :rr], mid[g, :n - 2 * rr], partner[g, :rr][:, ::-1]], axis=1)))
    return r, groups


def canonicalize_unitary_batch(pair: SymmetricPair, batch: NullBatch):
    """Bases P diagonalizing generic complex-family null vectors so that
    P* F P is the antidiagonal-corner form; returns (P (k, n, n), r (k,)).

    The batch's eigenvector columns are the eigenframes.  Columns are
    ordered as upper half-plane eigenvalues by (real, imag), then real
    ones (positive self-pairing first, values ascending), then the
    conjugate partners in mirrored order, each upper value taking the
    nearest unused lower value to its conjugate; partners are scaled to
    pair to 1 and real eigenlines to +-1.  Rows are grouped by r.
    """
    if pair.family.field != "C":
        raise ValueError("unitary normal form applies to the complex family")
    if not np.all(batch.genericity):
        raise ValueError("normal form needs a generic spectrum")
    S, F = batch.S, pair.carrier_form
    n = S.shape[1]
    w, V = batch.eigenvalues, batch.vectors
    self_pairing = (V.conj() * (F @ V)).sum(axis=1).real
    r, groups = _corner_slots(w, batch.gap, np.sign(self_pairing))
    P = np.empty_like(V)
    for g, rr, slots in groups:
        Q = np.take_along_axis(V[g], slots[:, None, :], axis=2)
        Q = Q / np.linalg.norm(Q, axis=1, keepdims=True)
        FQ = F @ Q
        c = (Q[:, :, :rr].conj() * FQ[:, :, ::-1][:, :, :rr]).sum(axis=1)
        if np.any(np.abs(c) < 1e-10):
            raise ValueError("degenerate pairing between conjugate eigenlines")
        s = (Q[:, :, rr:n - rr].conj() * FQ[:, :, rr:n - rr]).sum(axis=1).real
        if np.any(np.abs(s) < 1e-10):
            raise ValueError("degenerate self-pairing on a real eigenline")
        d = np.ones((len(g), n), dtype=complex)
        d[:, n - rr:] = c[:, ::-1]
        d[:, rr:n - rr] = np.sqrt(np.abs(s))
        P[g] = Q / d[:, None, :]
    return P, r


def _quat_conj(x: np.ndarray) -> np.ndarray:
    """J conj(x) for carrier vectors on the last axis, J = [[0, -1], [1, 0]]
    blockwise: the quaternionic structure, mapping each eigenspace of a
    carrier to the one of the conjugate eigenvalue."""
    n = x.shape[-1] // 2
    return np.concatenate([-np.conj(x[..., n:]), np.conj(x[..., :n])], axis=-1)


def _cluster_planes(batch: NullBatch) -> np.ndarray:
    """Two orthonormal vectors spanning the eigenspace of each cluster of a
    quaternionic batch: (k, n, 2, N), vectors on the last axis, clusters in
    the order of batch.eigenvalues.

    The plane of cluster i is the batch's columns 2i and 2i + 1, made
    orthonormal by one stacked Gram-Schmidt step, so the first vector is
    the first column, normalized.  Raises unless every kernel is
    two-dimensional: each column must solve |S v - lam v| <= 1e-8 |S|_F |v|
    for its listed cluster value lam (one S @ V for the stack), and the
    Gram-Schmidt remainder of each second column must exceed 1e-8 of its
    norm."""
    S, V = batch.S, batch.vectors
    k, N = S.shape[:2]
    lam = np.repeat(batch.eigenvalues, 2, axis=1)
    res = np.linalg.norm(S @ V - V * lam[:, None, :], axis=1)
    E = np.swapaxes(V, 1, 2).reshape(k, N // 2, 2, N)
    a = E[:, :, 0] / np.linalg.norm(E[:, :, 0], axis=-1, keepdims=True)
    b = E[:, :, 1]
    rem = b - (a.conj() * b).sum(axis=-1, keepdims=True) * a
    rem_norm = np.linalg.norm(rem, axis=-1, keepdims=True)
    scale = np.linalg.norm(S, axis=(1, 2))[:, None]
    if (np.any(res > 1e-8 * scale * np.linalg.norm(V, axis=1))
            or np.any(rem_norm <= 1e-8 * np.linalg.norm(b, axis=-1, keepdims=True))):
        raise ValueError("eigenspace is not two-dimensional; spectrum not generic")
    return np.stack([a, rem / rem_norm], axis=2)


def canonicalize_symplectic_batch(pair: SymmetricPair, batch: NullBatch):
    """Bases normalizing generic quaternionic-family null vectors; returns
    (P (k, 2n, 2n), r (k,)).

    Each P diagonalizes the complex carrier of S; its columns are arranged
    so the complex-symplectic Gram becomes the block form [[0, T], [-T, 0]]
    with T the corner form of size r = number of nonreal eigenvalue pairs,
    and the Hermitian Gram is supported on the same corner pattern in each
    diagonal block.  The eigenvalues are taken in the order upper half-plane
    by (real, imag), real ones ascending, then the conjugate partners of the
    upper ones mirrored (_corner_slots, shared with the unitary form).  Each
    eigenspace is the plane of its cluster's two columns of the batch
    (_cluster_planes), and the 2 x 2 Gram, eigh, det and inverse steps run
    on the stack.  Rows are grouped by r.
    """
    if pair.family.field != "H":
        raise ValueError("symplectic normal form applies to the quaternionic family")
    if not np.all(batch.genericity):
        raise ValueError("normal form needs a generic spectrum")
    M = batch.S
    n = pair.family.n
    Hm, Om = pair.carrier_form, pair.omega_matrix

    def om(x, y):
        return (x * (y @ Om.T)).sum(axis=-1)

    def h(x, y):
        return (x.conj() * (y @ Hm.T)).sum(axis=-1)

    def gram2(a, b, c, d):
        return np.stack([np.stack([a, b], axis=-1), np.stack([c, d], axis=-1)], axis=-2)

    planes = _cluster_planes(batch)
    r, groups = _corner_slots(batch.eigenvalues, batch.gap)
    P = np.empty_like(M)
    for g, rr, slots in groups:
        E = np.take_along_axis(planes[g], slots[:, :, None, None], axis=1)
        vs = np.empty(E.shape[:2] + E.shape[3:], dtype=complex)
        ws = np.empty_like(vs)
        # real eigenvalues: v and J conj(v) span the eigenspace; the Hermitian
        # Gram's eigenvectors, rescaled by the symplectic pairing, give the pair
        v = E[:, rr:n - rr, 0]
        w = _quat_conj(v)
        _, U = np.linalg.eigh(gram2(h(v, v), h(v, w), h(w, v), h(w, w)))
        U[..., 0] /= np.linalg.det(U)[..., None]
        B = np.stack([v, w], axis=-1) @ (U * np.sqrt(1.0 / om(v, w))[..., None, None])
        vs[:, rr:n - rr], ws[:, rr:n - rr] = B[..., 0], B[..., 1]
        # conjugate pairs: slot i pairs with slot n - 1 - i through the
        # eigenvector of the conjugate eigenspace that pairs best with v
        v = E[:, :rr, 0]
        E2 = E[:, n - rr:][:, ::-1]
        w_i = _quat_conj(v)
        scores = np.abs(om(v[:, :, None], _quat_conj(E2)))
        if np.any(scores.max(axis=-1) < 1e-10):
            raise ValueError("degenerate symplectic pairing between eigenspaces")
        u = np.take_along_axis(E2, scores.argmax(axis=-1)[..., None, None], axis=2)[:, :, 0]
        w_p = _quat_conj(u)
        w_p = w_p / om(v, w_p)[..., None]
        u = u / om(u, w_i)[..., None]
        H2 = gram2(h(v, u), h(v, w_i), h(w_p, u), h(w_p, w_i))
        C = np.stack([u, w_i], axis=-1) @ (
            np.sqrt(np.linalg.det(H2))[..., None, None] * np.linalg.inv(H2))
        vs[:, :rr], ws[:, :rr] = v, C[..., 1]
        vs[:, n - rr:], ws[:, n - rr:] = C[:, ::-1, :, 0], w_p[:, ::-1]
        P[g] = np.concatenate([vs, ws], axis=1).transpose(0, 2, 1)
    return P, r


def _adjoint(X: np.ndarray) -> np.ndarray:
    return np.swapaxes(X.conj(), -1, -2)


@lru_cache
def _corner_targets(p: int, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Gram targets of every corner size r = 0, ..., min(p, q), each
    stacked along r, read-only and built once per (p, q): t_form(p, q, r)
    for the complex family, and [[0, T], [-T, 0]] and [[T, 0], [0, T]]
    (T = t_form(p, q, r)) for the quaternionic one."""
    T = np.stack([t_form(p, q, r) for r in range(min(p, q) + 1)])
    Z = np.zeros_like(T)
    targets = T, np.block([[Z, T], [-T, Z]]), np.block([[T, Z], [Z, T]])
    for X in targets:
        X.flags.writeable = False
    return targets


def normal_form_residuals(pair: SymmetricPair, P: np.ndarray, r) -> np.ndarray:
    """Per basis of a stack P, the largest entry by which its Grams miss the
    corner normal form of size r (an int, or one per basis): P* F P against
    t_form(p, q, r) for the complex family; P^T Omega P and P* H P against
    [[0, T], [-T, 0]] and [[T, 0], [0, T]] for the quaternionic one.  The
    targets are built once per (p, q) (_corner_targets)."""
    fam = pair.family
    if fam.field not in ("C", "H"):
        raise ValueError("normal forms apply to the complex and quaternionic families")
    r = np.broadcast_to(r, P.shape[:1])
    T, om_target, h_target = _corner_targets(fam.p, fam.q)
    if fam.field == "C":
        return np.abs(_adjoint(P) @ pair.carrier_form @ P - T[r]).max(axis=(1, 2))
    om_res = np.swapaxes(P, -1, -2) @ pair.omega_matrix @ P - om_target[r]
    h_res = _adjoint(P) @ pair.carrier_form @ P - h_target[r]
    return np.maximum(np.abs(om_res).max(axis=(1, 2)), np.abs(h_res).max(axis=(1, 2)))


def so21_orbit_class(S: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> str | np.ndarray:
    """Stratum of a 3 x 3 null vector: open, two-step- or one-step-nilpotent.

    For traceless null S the characteristic polynomial collapses so that
    S^3 = det(S) * 1; the strata are separated by the vanishing order.  A
    stack (k, 3, 3) gives an array of k labels, each matrix judged at its
    own norm.  A real stack is judged in float64.
    """
    S = np.asarray(S)
    S = S.astype(complex if np.iscomplexobj(S) else float, copy=False)
    norm = np.linalg.norm(S, axis=(-2, -1))
    if np.any(norm <= tol.abs):
        raise ValueError("zero matrix does not lie on any stratum")
    S2 = S @ S
    S3 = S2 @ S
    labels = np.select([np.linalg.norm(S2, axis=(-2, -1)) <= tol.abs * norm**2,
                        np.linalg.norm(S3, axis=(-2, -1)) <= tol.abs * norm**3],
                       ["one-step-nilpotent", "two-step-nilpotent"], "open")
    return str(labels) if S.ndim == 2 else labels


def sample_so21_stratum_batch(pair: SymmetricPair, stratum: str, k: int,
                              rng=0) -> NullBatch:
    """k random representatives of one of the three strata for (R, 2, 1).

    The open stratum is sample_null_batch.  A nilpotent draw is the
    stratum's Jordan pattern moved to the corner frame, conjugated by a
    random Cayley element (_isotropy_conjugate) and rescaled by a factor in
    [0.5, 2]; it stays float64 and is certified by make_null_batch.
    """
    rng = np.random.default_rng(rng)  # a Generator passes through
    fam = pair.family
    if (fam.field, fam.p, fam.q) != ("R", 2, 1):
        raise ValueError("strata sampling is defined for the real (2, 1) pair")
    if stratum == "open":
        return sample_null_batch(pair, k, rng)
    E = np.zeros((3, 3))
    if stratum == "two-step-nilpotent":
        E[0, 1] = E[1, 2] = 1.0
    elif stratum == "one-step-nilpotent":
        E[0, 2] = 1.0
    else:
        raise ValueError(f"unknown stratum {stratum!r}")
    if k < 1:
        raise ValueError("need at least one draw")
    P, P_inv = pair.corner_frame
    S0 = P.real @ E @ P_inv.real
    scale = rng.uniform(0.5, 2.0, k)
    S = _isotropy_conjugate(pair, np.broadcast_to(S0, (k, 3, 3)), rng)
    return make_null_batch(pair, scale[:, None, None] * S)


# ---------------------------------------------------------------------------
# census reports: the stabilizers and orbits suites for one pair
# ---------------------------------------------------------------------------


def stabilizers_report(pair: SymmetricPair, trials: int, seed: int = 0) -> Report:
    """Stabilizer dimension, orbit codimension, nullity and genericity of
    `trials` generic null vectors drawn from default_rng(seed).

    Every ray takes the route with the smaller per-ray system
    (commutant_is_smaller).  The first ray's commutant basis must span the
    kernel of its SVD-route system, read from singular values alone
    (_kernel_mismatch).  The residual check covers every basis returned."""
    fam = pair.family
    rep = Report("stabilizers", seed)
    rng = np.random.default_rng(seed)
    commutant = commutant_is_smaller(pair)
    dims, codims = set(), set()
    worst_null, worst_res, all_generic = 0.0, 0.0, True
    agree = None
    for k in trial_blocks(pair, trials, commutant):
        batch = sample_null_batch(pair, k, rng=rng)
        st = (stabilizers_by_commutant(pair, batch) if commutant
              else stabilizers_of_rays(pair, batch.S))
        if agree is None:
            # the first ray's commutant basis in (x, c) coordinates, made
            # orthonormal, against its SVD-route system's singular values
            one = batch.take([0])
            com = st if commutant else stabilizers_by_commutant(pair, one)
            K = np.linalg.qr(np.vstack([pair.h.coords(com.bases[0]).T, com.scales[0]]))[0]
            ref, bound = _kernel_mismatch(pair, _stabilizer_system(pair, one.S), K[None])
            agree = (int(com.dims[0]), int(ref[0]), float(bound[0]))
            worst_res = float(com.residuals[0])
        dims.update(st.dims.tolist())
        codims.update(codimension_from_stabilizer(pair, st.dims).tolist())
        worst_null = max(worst_null, float(batch.nullity_residual.max()))
        worst_res = max(worst_res, float(st.residuals.max()))
        all_generic = all_generic and bool(batch.genericity.all())
    t = fam.tag
    rep.equals(f"{t}_stab_dim", tuple(sorted(dims)), (EXPECTED_STAB_DIM[fam.field](fam.n),),
               anchor="ray stabilizer dimension is constant on generic samples")
    rep.equals(f"{t}_orbit_codim", tuple(sorted(codims)), (fam.n - 3,),
               anchor="generic orbit codimension in the projectivized cone")
    rep.residual(f"{t}_stab_residual", worst_res, 1e-8,
                 anchor="every stabilizer basis solves [X, S] = c S and lies in h")
    rep.add(f"{t}_stab_routes_agree", agree[0] == agree[1] and agree[2] <= 1e-9,
            agree, (agree[0], agree[0], 0.0), 1e-9,
            anchor="the SVD and commutant routes give the first ray one stabilizer")
    rep.residual(f"{t}_worst_nullity", worst_null, 1e-8,
                 anchor="sampled vectors are numerically null")
    rep.equals(f"{t}_all_generic", all_generic, True,
               anchor="sampled spectra are simple with nonreal pairs")
    return rep


def orbits_report(pair: SymmetricPair, trials: int, seed: int = 0) -> Report:
    """Normal forms, partners and partner stabilizers of `trials` generic
    null vectors drawn from default_rng(seed); for (R, 2, 1) also the
    classification and stabilizer dimension of `trials` draws per stratum,
    from the same stream."""
    fam = pair.family
    rep = Report("orbits", seed)
    rng = np.random.default_rng(seed)
    canonicalize = {"C": canonicalize_unitary_batch,
                    "H": canonicalize_symplectic_batch}.get(fam.field)
    worst_canon = worst_theta = 0.0
    worst_pairing = -np.inf
    stab_match = True
    for k in trial_blocks(pair, trials, False):
        batch = sample_null_batch(pair, k, rng=rng)
        if canonicalize is not None:
            P, r = canonicalize(pair, batch)
            worst_canon = max(worst_canon, float(normal_form_residuals(pair, P, r).max()))
        partners, pairings = partner_null_batch(pair, batch)
        worst_pairing = max(worst_pairing, float(pairings.max()))
        dims, dims_hat, theta = ray_stabilizer_mismatch(pair, batch.S, partners)
        stab_match = stab_match and bool(np.array_equal(dims, dims_hat))
        worst_theta = max(worst_theta, float(theta.max()))
    t = fam.tag
    if canonicalize is not None:
        rep.residual(f"{t}_canonical_gram", worst_canon, 1e-9,
                     anchor="canonical basis reproduces the corner normal form")
    rep.equals(f"{t}_stab_dims_match_partner", stab_match, True,
               anchor="the ray and its partner have equal stabilizer dimension")
    rep.residual(f"{t}_stab_equals_partner_stab", worst_theta, 1e-9,
                 anchor="stabilizer subspaces of the ray and its partner coincide")
    rep.add(f"{t}_partner_pairing_negative", worst_pairing < 0,
            worst_pairing, "< 0", None,
            anchor="the ray pairs strictly negatively with its partner")
    if (fam.field, fam.p, fam.q) == ("R", 2, 1):
        for stratum, sdim in STRATUM_STAB_DIM.items():
            n_class = 0
            sdims = set()
            for k in trial_blocks(pair, trials, False):
                batch = sample_so21_stratum_batch(pair, stratum, k, rng=rng)
                n_class += int(np.count_nonzero(so21_orbit_class(batch.S, pair.tol) == stratum))
                sdims.update(stabilizer_dims(pair, batch.S).tolist())
            rep.equals(f"R21_stratum_{stratum}_classified", n_class, trials,
                       anchor="stratum samples classify as their stratum")
            rep.equals(f"R21_stratum_{stratum}_stab_dim", tuple(sorted(sdims)), (sdim,),
                       anchor="stratum stabilizer dimension")
    return rep
