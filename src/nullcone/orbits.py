"""Null vectors in the tangent summand: sampling, stabilizers, normal forms.

A null vector is S in m with K(S, S) = 0.  Generic samples are produced
with a prescribed spectrum in a convenient frame and moved to the pair's
frame by a form congruence plus a random isotropy conjugation (by a
Cayley element A, one stacked solve, inverted as F A* F); the real
family stays float64.  Ray stabilizers have two routes.  The SVD route (stabilizers_of_rays) takes
kernels of a joint linear system (the commutator may scale S along the
ray, so the scaling coefficient is solved for, not assumed to vanish).
Every column of that system lies in m, so it is written in the
orthonormal frame of m (RealSubspace.frame): dim m rows instead of 2 N^2,
with the singular values of the full system up to one common factor, so
the relative rank cuts are unchanged.  A stack of at most dim m rays is
bracketed; a larger one is contracted, its frame coordinates times the
systems of the frame's columns (SymmetricPair.stabilizer_table), a table
smaller than the stack's own systems.  The same frame answers membership
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
One normal form (canonicalize_batch) serves the complex and the
quaternionic family: it diagonalizes a generic null vector so that its
invariant-form Grams take an antidiagonal corner shape of size r, the
number of upper half-plane values.  For C that is P* F P = T =
t_form(p, q, r).  The quaternionic carrier has the Hermitian form
h(x, y) = x* H y, H = diag(F, F), the complex-symplectic form
Omega = [[0, F], [-F, 0]] and the structure J x = (-conj x_2, conj x_1),
J^2 = -1.  F is real, so Omega(x, y) = x_1^T F y_2 - x_2^T F y_1 =
-conj h(x, J y).  S is h-self-adjoint and commutes with J, so h pairs an
eigenplane E_lam only with E_conj(lam), J maps E_lam onto E_conj(lam),
and Omega pairs E_lam only with itself.  On the plane of a real value,
h(v, J v) = -conj Omega(v, v) = 0 and h(J v, J v) = conj h(v, v): h is a
real scalar times the identity there, and every vector of the plane has
the plane's self-pairing sign.  So the unitary construction on one
vector per cluster, V (N, n), has V* H V = T and V^T Omega V = 0, and
P = [V | J V] has P^T Omega P = [[0, T], [-T, 0]] and
P* H P = [[T, 0], [0, T]], as Omega(x, J y) = conj h(x, y) and
h(J x, J y) = conj h(x, y).

Sampling, certification, partners, stabilizers and normal forms run on
stacks of rays (sample_null_batch, partner_null_batch, stabilizers_of_rays,
stabilizers_by_commutant, canonicalize_batch); one ray is a one-row
stack.
make_null_batch certifies a stack from its eigenpairs: a draw supplies the
spectrum and the eigenvector columns it was built from, and any other
stack gets them from one stacked eig.  Either way the certificate takes
the residual R = S V - V Lam and the Bauer-Fike radius
|V|_F |V^-1|_F^2 |R|_F: every eigenvalue of S lies within it of a claimed
one.  A draw supplies V^-1 = V0^-1 A^-1 as well (V0 shared by the draw,
A^-1 = F A* F), and only a stack without it is inverted.  A row is
generic when every column fits its value and the gap clears the gap rule
and twice the radius.  A nilpotent ray has a nearly
singular eigenbasis, so its radius is what keeps it out.  The NullBatch
is the one spectral record of its rays: the ordered eigenpairs, the V^-1
the radius took and the corner size.  The partners, the normal form and
the commutant route read them there (for H the normal form takes each
eigenplane from its cluster's two columns): no drawn ray is eigen-solved
or inverted, and no eigenbasis is inverted twice.  (R, 2, 1) strata
draws are plain stacks.
Both stabilizer routes return the same RayStabilizers: per ray, a stack of
matrices and their ray coefficients.  The kernels take whatever stack they
are given; callers that walk many rays cut them with trial_blocks, which
bounds the memory of one block on the route in use.  stabilizers_report
and orbits_report are the census checks of one pair, as the stabilizers
and orbits suites run them.

Tolerance contract: a routine given a pair reads its tolerance from
pair.tol, fixed once where the pair is built (build_pair): every rank cut
is the rank rule of linalg (relative_rank, on one SVD through svd_rank),
read at tol.rank_rel, and the genericity gap uses tol.abs (the radius rule
needs no tolerance); the normal form splits a spectrum at a quarter of its
certified gap, which needs no tolerance.
Only routines without a pair take one (so21_orbit_class,
RayStabilizers.subspace).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .linalg import (DEFAULT_TOL, RealSubspace, Tolerance, quat_embed, realify, relative_rank,
                     svd_rank)
from .pairs import SymmetricPair, t_form
from .report import Report

GAP_FACTOR = 1e3  # genericity asks for eigenvalue gaps above GAP_FACTOR * tol.abs
# a claimed eigenpair (lam, v) of S fits when |S v - lam v| <= this * |S|_F |v|
EIGEN_RESIDUAL = 1e-8
SAMPLE_ROUNDS = 60  # sample_null_batch redraws rejected rows at most this often
# trial_blocks cuts a run of rays into blocks whose arrays stay within this
# many bytes, counted per ray of the stabilizer route in use: a few hundred
# rays of a 3 x 3 pair fit in one block, one ray of the quaternionic (6, 5)
# pair fills it, so memory does not grow with the number of trials.  The
# stabilizer system brackets h in runs of generators within it as well.
BLOCK_BYTES = 1 << 20
# ray stabilizer dimension of a generic null vector, by field and n = p + q,
# and of a representative of each (R, 2, 1) stratum
EXPECTED_STAB_DIM = {"C": lambda n: n - 1, "R": lambda n: 0, "H": lambda n: 3 * n}
STRATUM_STAB_DIM = {"open": 0, "two-step-nilpotent": 1, "one-step-nilpotent": 2}


class _NullArrays(NamedTuple):
    S: np.ndarray
    eigenvalues: np.ndarray
    vectors: np.ndarray
    inverse: np.ndarray
    genericity: np.ndarray
    nullity_residual: np.ndarray
    gap: np.ndarray
    corner: np.ndarray


class NullBatch(_NullArrays):
    """k sampled or supplied elements of the null cone, as stacked arrays
    with a leading axis of length k.

    eigenvalues holds n entries per row: the upper half-plane values, the
    real ones, then the lower ones, each by (real, imag), an order that
    rounding does not change (_spectral_order); for the quaternionic family
    these are the cluster values of the doubled spectrum of the complex
    carrier.  vectors (k, N, N) holds the eigenvector columns, not
    normalized, in the same order: column i belongs to eigenvalue i, and for
    the quaternionic family columns 2i and 2i + 1 belong to cluster i.  A
    draw lists the eigenpairs it was built from, any other stack eig's.
    inverse (k, N, N) is V^-1, inf where V is singular, and corner (k,)
    the number of upper values.  genericity is make_null_batch's
    certificate: every column fits its value, the lower values match the
    upper ones in number, and every gap exceeds the sampling threshold and twice
    the Bauer-Fike radius of the eigenpairs (_eigen_certificate), so no
    eigenvalue of S is more than the radius from a listed one.
    """

    __slots__ = ()

    def __len__(self) -> int:
        return self.S.shape[0]

    @classmethod
    def _make(cls, iterable):
        # the tuple's own _make checks len(), which here counts rays
        return cls(*iterable)

    def take(self, idx) -> "NullBatch":
        """Rows selected by an index array or boolean mask."""
        return NullBatch(*(a[idx] for a in self))

    @staticmethod
    def concat(parts) -> "NullBatch":
        if len(parts) == 1:
            return parts[0]
        return NullBatch(*map(np.concatenate, zip(*parts)))


class RayStabilizers(NamedTuple):
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
    stacks of all of h and the projected systems (a bound: a block of more
    rays than dim m is contracted with the pair's table, no larger than its
    systems, and brackets nothing), three dim m x c systems and two c x c V,
    or V and four (d, N, N) kernel-basis stacks.  _stabilizer_system
    projects with views of m's frame and brackets views of h's stored rows,
    so it copies neither, per ray or per call."""
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
    ray (_ray_bytes) is kept back for LAPACK's workspace and the reference.

    The reference (stabilizers_report's first ray) is one SVD-route system
    whatever the route: its system, and one run of brackets within
    BLOCK_BYTES (_stabilizer_system).  At (2, 1) and (3, 2) a full block
    with its reference stays within BLOCK_BYTES.  On the commutant route
    the system alone is 0.03 MB for R, 0.12 for C and 0.47 for H at (6, 5),
    and 0.26, 1.0 and 4.2 MB at (10, 9); traced, a full block with its
    reference peaks at 0.5 MB for R, 0.8 for C and 1.5 for H at (6, 5), and
    at 0.8, 1.9 and 6.6 MB at (10, 9)."""
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


def _min_gaps(vals: np.ndarray) -> np.ndarray:
    k, n = vals.shape
    if n < 2:
        return np.full(k, np.inf)
    diffs = np.abs(vals[:, :, None] - vals[:, None, :])
    diffs[:, np.arange(n), np.arange(n)] = np.inf
    return diffs.min(axis=(1, 2))


def _inverses(V: np.ndarray) -> np.ndarray:
    """V^-1 of each matrix of a stack (k, N, N), all inf where one is
    exactly singular (the stacked inverse raises for the whole stack, so
    its rows are then taken one by one)."""
    try:
        return np.linalg.inv(V)
    except np.linalg.LinAlgError:
        if len(V) == 1:
            return np.full_like(V, np.inf)
        return np.concatenate([_inverses(v[None]) for v in V])


def _eigen_certificate(S: np.ndarray, lam: np.ndarray, V: np.ndarray, Vinv=None):
    """Check claimed eigenpairs of a stack S (k, N, N): values lam (k, N)
    and columns V (k, N, N), column i for value i, with V^-1 if it is known.

    Returns (fits, radius, V^-1): fits[i] says every column solves
    |S v - lam v| <= EIGEN_RESIDUAL |S|_F |v|.  With R = S V - V Lam,
    S = V Lam V^-1 + R V^-1, so by Bauer-Fike every eigenvalue of S lies
    within kappa_2(V) |R V^-1|_2 of a claimed one, which radius
    |V|_F |V^-1|_F^2 |R|_F bounds; it is inf where V is singular
    (_inverses, taken only when V^-1 is not given).  A nilpotent S has a
    nearly singular eigenbasis, so its radius exceeds the gap of its
    computed values.
    """
    R = S @ V
    R -= V * lam[:, None, :]
    cols = np.linalg.norm(V, axis=1)
    fits = (np.linalg.norm(R, axis=1)
            <= EIGEN_RESIDUAL * np.linalg.norm(S, axis=(1, 2))[:, None] * cols).all(axis=1)
    if Vinv is None:
        Vinv = _inverses(V)
    with np.errstate(over="ignore", invalid="ignore"):  # a singular V reads inf
        radius = (np.linalg.norm(cols, axis=1) * np.linalg.norm(R, axis=(1, 2))
                  * np.linalg.norm(Vinv, axis=(1, 2)) ** 2)
    return fits, np.where(np.isnan(radius), np.inf, radius), Vinv


def _half_planes(vals: np.ndarray, gap: np.ndarray):
    """Masks (upper, lower) of the values of a (k, n) spectrum above and
    below the real axis by more than gap / 4.  A nonreal value lies 2 |Im|
    from its conjugate, so |Im| >= gap / 2 and gap / 4 separates the
    classes at any scale."""
    thr = 0.25 * np.asarray(gap)[:, None]
    return vals.imag > thr, vals.imag < -thr


def _spectral_order(vals: np.ndarray, gap: np.ndarray):
    """The order a batch lists each row of a (k, n) spectrum in: the upper
    half-plane values, the real ones, then the lower ones, each class by
    (real, imag), with the classes split at gap / 4 (_half_planes).  The
    real parts of a conjugate pair are equal in a draw's construction but
    not in eig's output, so an order led by real parts would turn on
    rounding; an order led by the classes does not.  Returns (order, r,
    paired): r (k,) counts the upper values, paired says the lower match."""
    upper, lower = _half_planes(vals, gap)
    order = np.lexsort((vals.imag, vals.real, lower.astype(int) - upper), axis=-1)
    r = upper.sum(axis=1)
    return order, r, lower.sum(axis=1) == r


def require_tangent(pair: SymmetricPair, S: np.ndarray) -> np.ndarray:
    """Raise unless S (one matrix or a stack) is finite and in the tangent summand
    within 1e-7 max(1, |S|_F), per matrix; returns the max(1, |S|_F)."""
    if not np.isfinite(S).all():  # a NaN residual would pass any bound
        raise ValueError("matrix has a non-finite entry")
    scale = np.maximum(1.0, np.linalg.norm(S, axis=(-2, -1)))
    if np.any(pair.m.residual(S) > 1e-7 * scale):
        raise ValueError("matrix is not in the tangent summand within tolerance")
    return scale


def make_null_batch(pair: SymmetricPair, S: np.ndarray, eigen=None) -> NullBatch:
    """Membership, nullity and genericity certificates for a stack (k, N, N).

    Raises if a row is not in the tangent summand (require_tangent, which
    also holds it traceless).  The eigenpairs come from eigen = (values,
    vectors) or (values, vectors, V^-1), laid out as NullBatch.eigenvalues,
    NullBatch.vectors and NullBatch.inverse (a draw supplies the ones it
    was built from and their inverse), or, when it is None, from one
    stacked eig, whose doubled H spectrum is paired by nearest values
    (_doubled_pairs).
    The pairs are put in the batch's order (_spectral_order), which also
    gives the corner size, and then pass one certificate
    (_eigen_certificate), which inverts V unless it was given and whose
    V^-1 the batch keeps: a row is generic when every column fits its
    value, the lower values match the upper ones in number, the gap exceeds
    GAP_FACTOR * tol.abs and twice the Bauer-Fike radius, and, for H, the
    two values of each cluster lie within 1e-6 max(1, |S|_F).  A real stack of the real family stays float64, so
    eig runs in real LAPACK; every other stack is taken as complex128.
    """
    S = np.asarray(S)
    S = S.astype(float if pair.family.field == "R" and not np.iscomplexobj(S) else complex,
                 copy=False)
    k = len(S)
    scale = require_tangent(pair, S)
    nullity = np.abs(pair.form(S, S))
    quaternionic = pair.family.field == "H"
    known = []  # V^-1, when eigen supplies it
    if eigen is None:
        lam, V = np.linalg.eig(S)  # both real for an all-real spectrum
        lam, V = lam.astype(complex, copy=False), V.astype(complex, copy=False)
        if quaternionic:  # each pair's two columns side by side
            cols = _doubled_pairs(lam).reshape(k, -1)
            lam = np.take_along_axis(lam, cols, axis=1)
            V = np.take_along_axis(V, cols[:, None, :], axis=2)
    else:
        vals, V, *known = (np.asarray(a, dtype=complex) for a in eigen)
        lam = np.repeat(vals, 2, axis=1) if quaternionic else vals
    if quaternionic:
        vals = 0.5 * (lam[:, 0::2] + lam[:, 1::2])
        generic = np.abs(lam[:, 1::2] - lam[:, 0::2]).max(axis=1) < 1e-6 * scale
    else:
        vals, generic = lam, np.ones(k, dtype=bool)
    gap = _min_gaps(vals)
    order, corner, paired = _spectral_order(vals, gap)
    vals = np.take_along_axis(vals, order, axis=-1)
    cols = order  # the columns follow their values, an H cluster's two side by side
    if quaternionic:
        cols = (2 * order[..., None] + np.arange(2)).reshape(k, -1)
    lam, V = np.take_along_axis(lam, cols, axis=1), np.take_along_axis(V, cols[:, None, :], axis=2)
    if known:  # the rows of V^-1 follow the columns of V
        known = [np.take_along_axis(known[0], cols[:, :, None], axis=1)]
    fits, radius, Vinv = _eigen_certificate(S, lam, V, *known)
    generic &= fits & paired & (gap > GAP_FACTOR * pair.tol.abs) & (gap > 2 * radius)
    return NullBatch(S, vals, V, Vinv, generic, nullity, gap, corner)


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


def _framed_null_stack(pair: SymmetricPair, k: int, rng: np.random.Generator):
    """k null matrices X* F = F X, tr X = 0, tr X^2 = 0 with generic spectra,
    built in the sampling frame and moved to the pair's frame, with the
    eigenpairs they are built from: (S (k, N, N), values, V0 (N, N)), the
    values and the columns of V0, shared by every draw, laid out as
    NullBatch.eigenvalues and NullBatch.vectors.

    Every field takes one construction in the frame where F = diag(1_p,
    -1_q): the 2 x 2 block [[a, b], [-b, a]] on coordinates (i, p + i),
    i < r, with r the corner size of the drawn spectrum, has the
    eigenvectors (e_i +- i e_(p + i)) / sqrt 2 for a +- ib, the real slots
    unit vectors.  R keeps the matrix real, C takes it as a complex one.
    H takes the carrier [[X, 0], [0, conj X]]: the bottom column paired
    with top column j (value d_j) is the conjugate of the top column of
    the conjugate value, p + i for a corner slot i, i for p + i and j
    itself on the real slots."""
    fam = pair.family
    p, n = fam.p, fam.n
    mu, lam = _sample_spectra(p, fam.q, k, rng)
    r = mu.shape[1]
    P, P_inv = pair.sampling_frame
    i = np.arange(r)
    # rotation-style 2 x 2 blocks couple one positive and one negative coordinate
    S = np.zeros((k, n, n))
    S[:, i, i] = S[:, p + i, p + i] = mu.real
    S[:, i, p + i] = mu.imag
    S[:, p + i, i] = -mu.imag
    slots = np.r_[r:p, p + r:n]
    S[:, slots, slots] = lam
    vals = np.empty((k, n), dtype=complex)
    vals[:, i], vals[:, p + i], vals[:, slots] = mu, np.conj(mu), lam
    V0 = np.eye(n, dtype=complex)
    V0[p + i, i], V0[i, p + i], V0[p + i, p + i] = 1j, 1.0, -1j
    V0[:, np.r_[i, p + i]] /= np.sqrt(2.0)
    if fam.field == "R":
        # the real form's frame is real, so the draws stay float64
        return P.real @ S @ P_inv.real, vals, P.real @ V0
    X, V0 = P @ S @ P_inv, P @ V0
    if fam.field == "C":
        return X, vals, V0
    bottom = np.arange(n)
    bottom[i], bottom[p + i] = p + i, i
    V = np.zeros((2 * n, 2 * n), dtype=complex)
    V[:n, 0::2], V[n:, 1::2] = V0, np.conj(V0[:, bottom])
    return quat_embed(X, np.zeros_like(X)), vals, V


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


def _isotropy_conjugate(pair: SymmetricPair, S: np.ndarray, rng: np.random.Generator):
    """Conjugate each S_i by the Cayley element A_i (cayley) of a random
    isotropy element Z_i with norm <= 1: one stacked solve builds every
    A_i, and A_i* F A_i = F gives its inverse F A_i* F (F the carrier
    form), so A_i S_i A_i^-1 is two products.  Returns
    (A S A^-1, A, A^-1); a real stack of the real family stays float64."""
    k = S.shape[0]
    A = cayley(pair, pair.h.random_element(rng, norm=rng.uniform(0.2, 1.0, k), size=k))
    F = pair.carrier_form.real  # real for every form, so R stays float64
    A_inv = F @ _adjoint(A) @ F
    return A @ S @ A_inv, A, A_inv


def sample_null_batch(pair: SymmetricPair, k: int, rng=0) -> NullBatch:
    """k random generic null vectors (distinct spectrum, nonreal pairs present).

    The draws take their spectra at once, move them by the pair's
    sampling congruence (computed once per pair), conjugate them by random
    Cayley elements A of the isotropy group (_isotropy_conjugate: one
    stacked solve and the inverse F A* F, no exponential), and are
    certified by make_null_batch from the eigenpairs they are built from
    (_framed_null_stack), whose columns A V0 are one product away, and
    their inverse V0^-1 A^-1, one N x N inverse per round for the V0 all
    its draws share: no draw is eigen-solved or inverted.  Draws of the
    real family stay float64 throughout.
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
        S, vals, V0 = _framed_null_stack(pair, need, rng)
        S, A, A_inv = _isotropy_conjugate(pair, S, rng)
        batch = make_null_batch(pair, S, (vals, A @ V0, np.linalg.inv(V0) @ A_inv))
        ok = batch.genericity & (batch.nullity_residual < 1e-8)
        parts.append(batch.take(ok))
        need -= int(ok.sum())
        if need == 0:
            return NullBatch.concat(parts)
    raise RuntimeError("failed to draw a generic null vector")


# ---------------------------------------------------------------------------
# stabilizers and partners
# ---------------------------------------------------------------------------


def _generator_step(pair: SymmetricPair, k: int) -> int:
    """Generators of h that _stabilizer_system brackets with k rays at once,
    at least one, so that their arrays stay within BLOCK_BYTES: per
    generator, k rays' two bracket stacks (rows real numbers each, as in
    _ray_bytes) and their projections onto m, and the generator itself as
    three (N, N) complex copies: a run is a view of h's stored rows, so two
    are made (its top rows, side by side) and one is slack.  At (2, 1) the
    table of the frame of m (dim m rays) takes all of h in one run."""
    N, field = pair.carrier_dim, pair.family.field
    rows = 2 * N * N if field == "C" else N * N
    return max(1, BLOCK_BYTES // (8 * (k * (2 * rows + pair.m.dim) + 6 * N * N)))


def _stabilizer_system(pair: SymmetricPair, S: np.ndarray) -> np.ndarray:
    """Each ray's real system (k, dim m, dim h + 1) for a stack S (k, N, N):
    the brackets [h_i, S] and -S as columns, in coordinates of the pair's
    orthonormal frame of m.

    Only rows that are not redundant are bracketed, by two flat products
    of a run of h generators with S, and projected onto the matching rows
    of m's orthonormal frame (RealSubspace.frame), each a view: every other
    row (the real parts) for R (h, m and S are real), the leading rows (the
    top n carrier rows) for H (the bottom n are their conjugates), every
    row for C.  Every column lies in m ([h, m] is in m and S is in m), so
    for R and C this is the full realified system written in an orthonormal
    frame of the space its columns span: the same singular values and the
    same kernel.  For H the top rows of the frame are orthogonal with
    squared norm 1/2, which halves every singular value.

    A run of generators (_generator_step) is a slice of h.basis, a view of
    h's stored rows, and its complex brackets are read as floats in place:
    no generator is unpacked and no frame row is copied.  Besides the
    system (8 k dim m (dim h + 1) bytes) the call holds one run's arrays,
    within BLOCK_BYTES.  An entry is the same sum in any run; only the BLAS
    kernel a shorter product takes may round it differently.

    A stack of more rays than dim m is contracted instead, as the system is
    linear in S: the rays' frame coordinates times the systems of the
    frame's columns (SymmetricPair.stabilizer_table, built once by the runs
    above), a table smaller than the stack's system.  This brackets S's
    projection on m: census rays are certified members of m and partners
    are projected onto it.
    """
    S = np.asarray(S, dtype=complex)
    k, N = S.shape[:2]
    if k > pair.m.dim:  # the table views rows (dim m, dim h + 1, dim m) transposed
        flat = pair.stabilizer_table.transpose(0, 2, 1).reshape(pair.m.dim, -1)
        return (realify(S) @ pair.m.frame @ flat).reshape(k, -1, pair.m.dim).transpose(0, 2, 1)
    field = pair.family.field
    if field == "R":
        S = S.real
    top = pair.family.n if field == "H" else N
    t = top * N
    # the frame rows of the first t entries; for R their real parts alone
    Qk = pair.m.frame[:2 * t:2] if field == "R" else pair.m.frame[:2 * t]
    h, step = pair.h, _generator_step(pair, k)
    for i in range(0, h.dim, step):
        hb = h.basis[i:i + step]
        d = len(hb)
        P = _bracket_rows(hb.real if field == "R" else hb, S, top).view(float) @ Qk
        if i == 0:  # once the first run's brackets are freed: they never coexist
            A = np.empty((k, h.dim + 1, Qk.shape[1]))
        A[:, i:i + d] = P.reshape(k, d, -1)
    A[:, -1] = -(S[:, :top].reshape(k, t).view(float) @ Qk)
    return A.transpose(0, 2, 1)


def _bracket_rows(hb: np.ndarray, S: np.ndarray, top: int) -> np.ndarray:
    """Rows :top of h_i S - S h_i for a run of generators hb (d, N, N) and
    a stack S (k, N, N), each term one flat product over the run, as
    (k d, top N)."""
    (k, N), d = S.shape[:2], len(hb)
    B = (hb[:, :top].reshape(d * top, N) @ S).reshape(k, d, top, N)
    B -= (S[:, :top] @ hb.transpose(1, 0, 2).reshape(N, d * N)).reshape(
        k, top, d, N).transpose(0, 2, 1, 3)
    return B.reshape(k * d, top * N)


def stabilizer_dims(pair: SymmetricPair, S: np.ndarray) -> np.ndarray:
    """Ray stabilizer dimensions (k,) of a stack S (k, N, N), from the
    singular values of the stabilizer systems alone (svd_rank; the frame of
    m keeps the full systems' singular values up to one common factor): the
    dims of stabilizers_of_rays without a kernel vector."""
    return pair.h.dim + 1 - svd_rank(_stabilizer_system(pair, S), pair.tol)[0]


def _ray_kernels(pair: SymmetricPair, S: np.ndarray):
    """Ray stabilizer dims (k,) of a stack S (k, N, N) and V^T of their
    systems (svd_rank), whose last dims[i] rows span ray i's kernel.

    Each system is built once.  A wide one (dim m < dim h + 1) always has a
    kernel, so its SVD takes vectors at once.  A tall one (R) takes singular
    values first, and vectors only if some row has a kernel; otherwise V^T
    is (k, 0, dim h + 1).
    """
    c = pair.h.dim + 1
    A = _stabilizer_system(pair, S)
    rank = None if pair.m.dim < c else svd_rank(A, pair.tol)[0]
    vt = np.empty((len(S), 0, c))
    if rank is None or (rank < c).any():
        rank, _, vt = svd_rank(A, pair.tol, vectors=True)
    return c - rank, vt


def stabilizers_of_rays(pair: SymmetricPair, S: np.ndarray) -> RayStabilizers:
    """Ray stabilizers of a stack of null vectors S (k, N, N).

    Each ray's real system has the brackets [h_i, S] and -S as columns,
    written in the pair's orthonormal frame of m (_stabilizer_system), so
    it has dim m rows rather than 2 N^2; one stacked SVD gives every
    kernel, with the rank rule of svd_rank, and vectors only where
    some ray has a kernel (_ray_kernels).  Each ray's kernel is the last
    (dim h + 1) - rank rows of V^T, returned as matrices and ray
    coefficients (_kernel_bases).  The stack is solved whole; trial_blocks
    sizes stacks to a memory bound.
    """
    S = np.asarray(S, dtype=complex)
    dims, vt = _ray_kernels(pair, S)
    return RayStabilizers(dims, *_kernel_bases(pair, S, vt, dims))


def _kernel_mismatch(pair: SymmetricPair, A: np.ndarray, K: np.ndarray):
    """Stabilizer systems A (k, dim m, dim h + 1) against orthonormal
    columns K (k, dim h + 1, d) in (x, c) coordinates, zero columns allowed,
    from the singular values of A alone: (kernel dims, mismatch), each (k,).

    mismatch[i] is |A_i K_i|_F / sigma_r(A_i), r the rank of A_i at the rank
    rule.  Over the principal angles between span K_i and the
    kernel of A_i it is at least sqrt(sum sin^2), so at least the largest
    sine, and at most sigma_1 / sigma_r times that: 0 exactly when span K_i
    lies in the kernel.  Each A_i must be nonzero.
    """
    rank, s, _ = svd_rank(A, pair.tol)
    sigma_r = np.take_along_axis(s, rank[:, None] - 1, axis=1)[:, 0]
    return A.shape[-1] - rank, np.linalg.norm(A @ K, axis=(1, 2)) / sigma_r


def ray_stabilizer_mismatch(pair: SymmetricPair, S: np.ndarray, T: np.ndarray):
    """Ray stabilizers of two stacks S and T (k, N, N) compared row by row
    as kernels of their systems: (dims of S, dims of T, mismatch), each (k,).

    The orthonormal kernel vectors of S_i's system, in (x, c) coordinates,
    go against the singular values of T_i's (_kernel_mismatch): 0 exactly
    when S_i's kernel lies in T_i's.  X -> x is an isomorphism, so equal
    kernels are equal stabilizers with equal ray coefficients.  Each T_i
    must be a ray (nonzero).  S's kernel vectors are taken only where some
    row has one (_ray_kernels).
    """
    dims, vt = _ray_kernels(pair, S)
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
        pattern = quat_embed(X[..., :n, :n], -X[..., :n, n:])
        parts.append(np.linalg.norm(X - pattern, axis=(-2, -1)))
    elif field == "R":
        parts.append(np.linalg.norm(X.imag, axis=(-2, -1)))
    return np.max(parts, axis=0)


def stabilizers_by_commutant(pair: SymmetricPair, batch: NullBatch) -> RayStabilizers:
    """Ray stabilizers of a batch of generic null vectors as h ∩ C(S).

    If [X, S] = c S with c != 0, then c tr(S^j) = tr([X, S] S^(j-1)) = 0
    for every j and S is nilpotent; a generic S is not, so its ray
    stabilizer is the part of the commutant C(S) in h.  The batch's
    eigenvector columns V, with each eigenspace's columns adjacent
    (make_null_batch keeps the two columns of an H cluster side by side),
    write C(S) as the block diagonals D of X = V D V^-1, one gl(b, C) block
    per eigenspace of dimension b; the involutions that fix h, written
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
    cut.  A nilpotent S, whose computed eigenvalues split by about
    eps^(1/3), has cond(V) near 1e10; make_null_batch's radius rule already
    keeps such rows out of the generic ones, and this rule guards batches
    assembled by hand.
    """
    tol = pair.tol
    S = batch.S
    V, Vinv = batch.vectors, batch.inverse
    b = 2 if pair.family.field == "H" else 1
    blocks = np.arange(V.shape[-1]).reshape(-1, b)
    # the positions (rows r, columns c) of the block diagonal of D
    r, c = np.repeat(blocks, b, axis=1).ravel(), np.tile(blocks, b).ravel()
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
    dims = relative_rank(s, tol, np.maximum(1.0, s[:, :1]))
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

    Each partner keeps every eigenvector of S (the batch's vectors and
    their inverse) and maps each eigenvalue to minus its conjugate; for H
    each cluster value serves both of its columns.  On a canonical
    representative (eigenframe adapted to the involution) this is exactly
    the negative conjugate transpose; unlike the raw matrix map it commutes
    with isotropy conjugation, so the stabilizer equality it feeds is
    frame-independent.
    The partners are projected onto m, so no membership test follows, and
    the pairings are strictly negative.
    """
    if not np.all(batch.genericity):
        raise ValueError("the partner construction needs a generic spectrum")
    S, w, V = batch.S, batch.eigenvalues, batch.vectors
    if pair.family.field == "H":
        w = np.repeat(w, 2, axis=1)
    M = pair.m.project((V * -np.conj(w)[:, None, :]) @ batch.inverse)
    return M, pair.form(S, M)


def codimension_from_stabilizer(pair: SymmetricPair, stab_dim):
    """Codimension of a ray orbit inside the projectivized null cone, from
    the ray's stabilizer dimension (an int or an array of them)."""
    cone_dim = pair.m.dim - 2
    orbit_dim = pair.h.dim - np.asarray(stab_dim)
    return cone_dim - orbit_dim


def _corner_slots(batch: NullBatch, sign):
    """The order in which a normal form takes the values of a batch:
    (r, groups), with r (k,) the corner sizes and, per corner size rr,
    (g, rr, slots): the rows g of that size and their value indices slots
    (len(g), n).

    The batch lists the upper half-plane values first, by (real, imag),
    then the real ones, then the lower ones (_spectral_order).  The slots
    are the upper values in that order, then the real ones by (-sign,
    value), then the conjugate partners in mirrored order, each upper
    value taking the nearest unused lower value to its conjugate.  sign
    (k, n) is the sign of each value's self-pairing, so the positive real
    ones come first.
    """
    vals, r = batch.eigenvalues, batch.corner
    k, n = vals.shape
    rows = np.arange(k)
    slot = np.arange(n)
    real = (slot >= r[:, None]) & (slot < n - r[:, None])
    mid = np.lexsort((vals.real, -sign, ~real), axis=-1)
    free = slot >= n - r[:, None]
    partner = np.zeros((k, int(r.max(initial=0))), dtype=int)
    for i in range(partner.shape[1]):
        target = np.conj(vals[:, i])
        j = np.where(free, np.abs(vals - target[:, None]), np.inf).argmin(axis=1)
        free[rows, j] = False
        partner[:, i] = j
    groups = []
    for rr in sorted(set(r.tolist())):  # np.unique would load numpy.ma
        g = np.flatnonzero(r == rr)
        groups.append((g, rr, np.concatenate(
            [np.broadcast_to(slot[:rr], (len(g), rr)), mid[g, :n - 2 * rr],
             partner[g, :rr][:, ::-1]], axis=1)))
    return r, groups


def _quat_conj(x: np.ndarray) -> np.ndarray:
    """J conj(x) for carrier vectors on the last axis, J = [[0, -1], [1, 0]]
    blockwise: the quaternionic structure, mapping each eigenspace of a
    carrier to the one of the conjugate eigenvalue."""
    n = x.shape[-1] // 2
    return np.concatenate([-np.conj(x[..., n:]), np.conj(x[..., :n])], axis=-1)


def _cluster_planes(pair: SymmetricPair, batch: NullBatch) -> np.ndarray:
    """Two orthonormal vectors spanning the eigenspace of each cluster of a
    quaternionic batch: (k, n, 2, N), vectors on the last axis, clusters in
    the order of batch.eigenvalues.

    The plane of cluster i is the batch's columns 2i and 2i + 1, made
    orthonormal by one stacked Gram-Schmidt step, so the first vector is
    the first column, normalized.  Raises unless every kernel is
    two-dimensional: each column must solve |S v - lam v| <= 1e-8 |S|_F |v|
    for its listed cluster value lam (one S @ V for the stack), and the
    Gram-Schmidt remainder of each second column must pass the rank rule
    against the column's norm."""
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
    b_norm = np.linalg.norm(b, axis=-1, keepdims=True)
    if (np.any(res > 1e-8 * scale * np.linalg.norm(V, axis=1))
            or not relative_rank(rem_norm, pair.tol, b_norm).all()):
        raise ValueError("eigenspace is not two-dimensional; spectrum not generic")
    return np.stack([a, rem / rem_norm], axis=2)


def canonicalize_batch(pair: SymmetricPair, batch: NullBatch):
    """Bases P diagonalizing generic null vectors of the complex or the
    quaternionic family so that their Grams take the corner normal form;
    returns (P (k, N, N), r (k,)).

    C: the batch's eigenvector columns are the eigenframes, taken in the
    slot order of _corner_slots (upper half-plane values by (real, imag),
    real ones with positive self-pairing first and values ascending, then
    the conjugate partners mirrored) and made unit; partners are scaled to
    pair to 1 and real eigenlines to +-1, so P* F P = t_form(p, q, r).
    H: the same construction on one vector per cluster, V (N, n), gives
    P = [V | J V] (_quat_conj), with P^T Omega P = [[0, T], [-T, 0]] and
    P* H P = [[T, 0], [0, T]]: the upper and real slots take their
    plane's first vector (_cluster_planes), and each lower slot the vector
    of its plane that pairs with its upper partner.  Rows are grouped by r.
    """
    field = pair.family.field
    if field not in ("C", "H"):
        raise ValueError("normal forms apply to the complex and quaternionic families")
    if not np.all(batch.genericity):
        raise ValueError("normal form needs a generic spectrum")
    F = pair.carrier_form
    if field == "H":
        planes = _cluster_planes(pair, batch)
        V = np.swapaxes(planes[:, :, 0], 1, 2)
    else:
        V = batch.vectors
    n = V.shape[-1]
    self_pairing = (V.conj() * (F @ V)).sum(axis=1).real
    r, groups = _corner_slots(batch, np.sign(self_pairing))
    P = np.empty_like(V)
    for g, rr, slots in groups:
        Q = np.take_along_axis(V[g], slots[:, None, :], axis=2)
        if field == "H":
            # each lower slot takes the Riesz vector sum_j conj h(v, e_j) e_j
            # of x -> h(v, x) in its plane's orthonormal pair (e_1, e_2), v
            # its upper partner (slot n - 1 - i pairs with slot i)
            E = np.take_along_axis(planes[g], slots[:, n - rr:, None, None], axis=1)
            Fv = F @ Q[:, :, :rr][:, :, ::-1]
            coef = np.einsum("grjx,gxr->grj", E.conj(), Fv)
            Q[:, :, n - rr:] = np.einsum("grjx,grj->gxr", E, coef)
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
    if field == "H":
        P = np.concatenate([P, np.swapaxes(_quat_conj(np.swapaxes(P, 1, 2)), 1, 2)], axis=2)
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
    Om = np.kron([[0, 1], [-1, 0]], pair.hermitian_matrix)  # [[0, F], [-F, 0]]
    om_res = np.swapaxes(P, -1, -2) @ Om @ P - om_target[r]
    h_res = _adjoint(P) @ pair.carrier_form @ P - h_target[r]
    return np.maximum(np.abs(om_res).max(axis=(1, 2)), np.abs(h_res).max(axis=(1, 2)))


def so21_orbit_class(S: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> str | np.ndarray:
    """Stratum of a 3 x 3 null vector: open, two-step- or one-step-nilpotent.

    For traceless null S the characteristic polynomial collapses so that
    S^3 = det(S) * 1; the strata are separated by the vanishing order.  A
    stack (k, 3, 3) gives an array of k labels, each matrix judged at its
    own norm.  A real stack is judged in float64.  Raises on a non-finite
    entry, which no bound could judge.
    """
    S = np.asarray(S)
    if not np.isfinite(S).all():
        raise ValueError("matrix has a non-finite entry")
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
                              rng=0) -> np.ndarray:
    """k random representatives of one of the three strata for (R, 2, 1),
    a plain float64 stack (k, 3, 3).

    The open stratum is the stack of sample_null_batch.  A nilpotent draw
    is the stratum's pattern in the sampling frame, F = diag(1, 1, -1) and
    u = e_0 + e_2 isotropic, x = e_1 orthogonal to it: u u^T F (S^2 = 0)
    or (u x^T + x u^T) F (S^2 = u u^T F, S^3 = 0).  It is moved to the
    pair's frame, conjugated by a random Cayley element
    (_isotropy_conjugate) and rescaled by a factor in [0.5, 2]; no
    certificate is taken, as it could only say "not generic"."""
    rng = np.random.default_rng(rng)  # a Generator passes through
    fam = pair.family
    if (fam.field, fam.p, fam.q) != ("R", 2, 1):
        raise ValueError("strata sampling is defined for the real (2, 1) pair")
    if stratum == "open":
        return sample_null_batch(pair, k, rng).S
    u, x = np.array([1.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0])
    if stratum == "two-step-nilpotent":
        E = np.outer(u, x) + np.outer(x, u)
    elif stratum == "one-step-nilpotent":
        E = np.outer(u, u)
    else:
        raise ValueError(f"unknown stratum {stratum!r}")
    if k < 1:
        raise ValueError("need at least one draw")
    P, P_inv = pair.sampling_frame
    S0 = P.real @ (E * [1.0, 1.0, -1.0]) @ P_inv.real
    scale = rng.uniform(0.5, 2.0, k)
    S = _isotropy_conjugate(pair, np.broadcast_to(S0, (k, 3, 3)), rng)[0]
    return scale[:, None, None] * S


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
    if trials < 1:
        raise ValueError("need at least one trial")
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
    if trials < 1:
        raise ValueError("need at least one trial")
    fam = pair.family
    rep = Report("orbits", seed)
    rng = np.random.default_rng(seed)
    canonicalize = fam.field in ("C", "H")
    worst_canon = worst_theta = 0.0
    worst_pairing = -np.inf
    stab_match = True
    for k in trial_blocks(pair, trials, False):
        batch = sample_null_batch(pair, k, rng=rng)
        if canonicalize:
            P, r = canonicalize_batch(pair, batch)
            worst_canon = max(worst_canon, float(normal_form_residuals(pair, P, r).max()))
        partners, pairings = partner_null_batch(pair, batch)
        worst_pairing = max(worst_pairing, float(pairings.max()))
        dims, dims_hat, theta = ray_stabilizer_mismatch(pair, batch.S, partners)
        stab_match = stab_match and bool(np.array_equal(dims, dims_hat))
        worst_theta = max(worst_theta, float(theta.max()))
    t = fam.tag
    if canonicalize:
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
                S = sample_so21_stratum_batch(pair, stratum, k, rng=rng)
                n_class += int(np.count_nonzero(so21_orbit_class(S, pair.tol) == stratum))
                sdims.update(stabilizer_dims(pair, S).tolist())
            rep.equals(f"R21_stratum_{stratum}_classified", n_class, trials,
                       anchor="stratum samples classify as their stratum")
            rep.equals(f"R21_stratum_{stratum}_stab_dim", tuple(sorted(sdims)), (sdim,),
                       anchor="stratum stabilizer dimension")
    return rep
