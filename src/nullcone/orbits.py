"""Null vectors in the tangent summand: sampling, stabilizers, normal forms.

A null vector is S in m with K(S, S) = 0.  Generic samples are produced
with a prescribed spectrum in a convenient frame and moved to the pair's
frame by a form congruence plus a random isotropy conjugation.  Ray
stabilizers are kernels of a joint linear system (the commutator may scale
S along the ray, so the scaling coefficient is solved for, not assumed to
vanish).  Normal-form routines reduce a generic null vector to a diagonal
matrix whose invariant-form Gram takes an antidiagonal corner shape.

Sampling, certification, partners and stabilizers run on stacks of rays
(sample_null_batch, partner_null_batch, stabilizers_of_rays); the
single-ray functions are the k = 1 case of the same kernels.  The kernels
take whatever stack they are given; callers that walk many rays cut them
with trial_blocks, which bounds the memory of one block.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg import expm, null_space

from .linalg import DEFAULT_TOL, QMat, RealSubspace, Tolerance, bracket, quat_embed, realify
from .pairs import SymmetricPair

GAP_FACTOR = 1e3  # genericity asks for eigenvalue gaps above GAP_FACTOR * tol.abs
# trial_blocks cuts a run of rays into blocks whose stacked stabilizer
# systems stay near this many bytes, sized from N and dim h: a few hundred
# rays of a 3 x 3 pair fit in one block, while one 968 x 254 system of the
# quaternionic (6, 5) pair already fills it, so memory does not grow with
# the number of trials.
BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class NullVector:
    """A sampled or supplied element of the null cone.

    eigenvalues holds n entries; for the quaternionic family these are the
    clustered values of the doubled spectrum of the complex carrier.
    genericity means all pairwise gaps exceed the sampling threshold.
    """

    S: np.ndarray
    eigenvalues: np.ndarray
    genericity: bool
    nullity_residual: float
    trace_residual: float
    gap: float


@dataclass(frozen=True)
class NullBatch:
    """k null vectors as stacked arrays: the NullVector fields, each with a
    leading axis of length k.  row(i) is the i-th NullVector."""

    S: np.ndarray
    eigenvalues: np.ndarray
    genericity: np.ndarray
    nullity_residual: np.ndarray
    trace_residual: np.ndarray
    gap: np.ndarray

    def __len__(self) -> int:
        return self.S.shape[0]

    def row(self, i: int) -> NullVector:
        return NullVector(
            S=self.S[i],
            eigenvalues=self.eigenvalues[i],
            genericity=bool(self.genericity[i]),
            nullity_residual=float(self.nullity_residual[i]),
            trace_residual=float(self.trace_residual[i]),
            gap=float(self.gap[i]),
        )

    def take(self, idx) -> "NullBatch":
        """Rows selected by an index array or boolean mask."""
        return NullBatch(*(getattr(self, f.name)[idx] for f in fields(NullBatch)))

    @staticmethod
    def concat(parts) -> "NullBatch":
        if len(parts) == 1:
            return parts[0]
        return NullBatch(*(np.concatenate([getattr(b, f.name) for b in parts])
                           for f in fields(NullBatch)))

    @staticmethod
    def of(vectors) -> "NullBatch":
        """Stack NullVectors into a batch."""
        return NullBatch(*(np.array([getattr(v, f.name) for v in vectors])
                           for f in fields(NullBatch)))


@dataclass(frozen=True)
class StabilizerResult:
    """Ray stabilizer: all X in h with [X, S] = c S for some real c.

    residual is the largest |[X, S] - c S| over the basis of b, recomputed
    from the matrices X, so it checks the solve rather than restating it.
    """

    b: RealSubspace | None
    dim: int
    c_functional: np.ndarray
    residual: float


@dataclass(frozen=True)
class RayStabilizers:
    """Ray stabilizers of k null vectors from one stacked solve.

    kernels[i] holds orthonormal columns (coordinates of X in the h basis,
    then c) spanning the solutions of [X, S_i] = c S_i; dims[i] is their
    number and residuals[i] the largest |[X, S_i] - c S_i| over them, with
    X rebuilt from the h basis and the bracket taken afresh.
    """

    dims: np.ndarray
    kernels: list
    residuals: np.ndarray

    def result(self, pair: SymmetricPair, i: int,
               tol: Tolerance | None = None) -> StabilizerResult:
        """Ray i's StabilizerResult, with the subspace b built from its kernel."""
        tol = tol or pair.tol
        ker = self.kernels[i]
        if ker.shape[1] == 0:
            return StabilizerResult(None, 0, np.zeros(0), 0.0)
        hdim = pair.h.dim
        b = RealSubspace(pair.h.combine(ker[:hdim].T), tol=tol)
        return StabilizerResult(b, ker.shape[1], ker[hdim].copy(), float(self.residuals[i]))


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


# ---------------------------------------------------------------------------
# blocks: a run of trials is cut so that one block's stacked arrays stay
# near BLOCK_BYTES; the stabilizer solve has the largest arrays per ray
# ---------------------------------------------------------------------------


def _stabilizer_row_bytes(pair: SymmetricPair) -> int:
    """Stacked bytes per ray of stabilizers_of_rays: three complex
    (dim h, N, N) bracket stacks and four real (2 N^2) x (dim h + 1) copies
    of the system (realified, joined, the LAPACK copy and the reduced left
    factor).  Under tracemalloc a block's numpy arrays peak at 0.4 to 0.7
    of this, for R, C, H at (2, 1) and C, H at (6, 5); the sampling arrays
    of the same rows peak at under a tenth of it."""
    N, hdim = pair.carrier_dim, pair.h.dim
    return 16 * 3 * hdim * N * N + 8 * 4 * 2 * N * N * (hdim + 1)


def trial_blocks(pair: SymmetricPair, k: int) -> list[int]:
    """Sizes of the blocks k trials are cut into so that one block's stacked
    stabilizer systems stay near BLOCK_BYTES (at least one ray per block)."""
    step = max(1, BLOCK_BYTES // _stabilizer_row_bytes(pair))
    return [min(step, k - a) for a in range(0, k, step)]


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def _pair_doubled_spectra(vals: np.ndarray):
    """Greedy nearest-partner pairing of doubled spectra, row by row of a
    (k, 2n) array: the first unpaired value takes its nearest unpaired one.

    Returns (k x n cluster means, max intra-pair spread, min inter-pair gap).
    """
    k, m = vals.shape
    rows = np.arange(k)
    free = np.ones((k, m), dtype=bool)
    reps = np.empty((k, m // 2), dtype=complex)
    spread = np.zeros(k)
    for step in range(m // 2):
        i = free.argmax(axis=1)
        free[rows, i] = False
        v = vals[rows, i]
        dists = np.where(free, np.abs(vals - v[:, None]), np.inf)
        j = dists.argmin(axis=1)
        free[rows, j] = False
        spread = np.maximum(spread, dists[rows, j])
        reps[:, step] = 0.5 * (v + vals[rows, j])
    return reps, spread, _min_gaps(reps)


def _min_gaps(vals: np.ndarray) -> np.ndarray:
    k, n = vals.shape
    if n < 2:
        return np.full(k, np.inf)
    diffs = np.abs(vals[:, :, None] - vals[:, None, :])
    diffs[:, np.arange(n), np.arange(n)] = np.inf
    return diffs.min(axis=(1, 2))


def _certify_null(pair: SymmetricPair, S: np.ndarray, tol: Tolerance) -> NullBatch:
    """Membership, nullity and genericity certificates for a stack (k, N, N).

    Raises if a row is not in the tangent summand; one multi-right-hand-side
    solve tests membership and one stacked eigvals gives the spectra.
    """
    S = np.asarray(S, dtype=complex)
    scale = np.maximum(1.0, np.linalg.norm(S, axis=(1, 2)))
    if np.any(pair.m.residual(S) > 1e-7 * scale):
        raise ValueError("matrix is not in the tangent summand within tolerance")
    nullity = np.abs(pair.form(S, S))
    trace_res = np.abs(np.trace(S, axis1=1, axis2=2))
    vals = np.linalg.eigvals(S)
    if pair.family.field == "H":
        vals, spread, gap = _pair_doubled_spectra(vals)
        generic = (spread < 1e-6 * scale) & (gap > GAP_FACTOR * tol.abs)
    else:
        gap = _min_gaps(vals)
        generic = gap > GAP_FACTOR * tol.abs
    order = np.lexsort((vals.imag, vals.real), axis=-1)
    vals = np.take_along_axis(vals, order, axis=-1)
    return NullBatch(S, vals, generic, nullity, trace_res, gap)


def make_null_vector(pair: SymmetricPair, S: np.ndarray,
                     tol: Tolerance | None = None) -> NullVector:
    """Wrap a matrix as a null vector after membership and nullity checks."""
    S = np.asarray(S, dtype=complex)
    return _certify_null(pair, S[None], tol or pair.tol).row(0)


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


def _sampling_frame(pair: SymmetricPair, tol: Tolerance):
    """(P, P^-1) for the congruence from the sampling frame to the pair's
    form: the diagonal form for the real family, the corner form otherwise."""
    fam = pair.family
    if fam.field == "R":
        T = np.diag([1.0] * fam.p + [-1.0] * fam.q).astype(complex)
    else:
        T = t_form(fam.p, fam.q, min(fam.p, fam.q))
    P = congruence(pair.hermitian_matrix, T, tol)
    return P, np.linalg.inv(P)


def _framed_null_stack(pair: SymmetricPair, k: int, rng: np.random.Generator,
                       frame) -> np.ndarray:
    """k null matrices X* F = F X, tr X = 0, tr X^2 = 0 with generic spectra,
    built in the sampling frame and moved to the pair's frame."""
    fam = pair.family
    p, n = fam.p, fam.n
    r = min(p, fam.q)
    mu, lam = _sample_spectra(p, fam.q, k, rng)
    P, P_inv = frame
    if fam.field == "R":
        # rotation-style 2 x 2 blocks couple one positive and one negative coordinate
        S = np.zeros((k, n, n))
        i = np.arange(r)
        S[:, i, i] = S[:, p + i, p + i] = mu.real
        S[:, i, p + i] = mu.imag
        S[:, p + i, i] = -mu.imag
        slots = np.r_[r:p, p + r:n]
        S[:, slots, slots] = lam
        return P @ S @ P_inv
    diag = np.concatenate([mu, lam.astype(complex), np.conj(mu)[:, ::-1]], axis=1)
    X = (P * diag[:, None, :]) @ P_inv
    if fam.field == "C":
        return X
    return quat_embed(QMat(X, np.zeros_like(X)))


def _isotropy_conjugate(pair: SymmetricPair, S: np.ndarray,
                        rng: np.random.Generator) -> np.ndarray:
    """Conjugate each S_i by exp(Z_i) for a random isotropy element with
    norm <= 1: one stacked expm and one stacked solve."""
    k = S.shape[0]
    A = expm(pair.h.random_element(rng, norm=rng.uniform(0.2, 1.0, k), size=k))
    # S -> A S A^{-1} via a solve, avoiding an explicit inverse
    AS = A @ S
    return np.linalg.solve(A.transpose(0, 2, 1), AS.transpose(0, 2, 1)).transpose(0, 2, 1)


def sample_null_batch(pair: SymmetricPair, k: int, rng=0,
                      tol: Tolerance | None = None,
                      max_tries: int = 60) -> NullBatch:
    """k random generic null vectors (distinct spectrum, nonreal pairs present).

    The draws take their spectra at once, move them by the pair's
    congruence (computed once per call), conjugate them by one stacked
    expm and solve, and are certified as make_null_vector does.  Rows that
    fail the genericity or nullity rule are redrawn, at most max_tries
    rounds in all.
    """
    tol = tol or pair.tol
    rng = _as_rng(rng)
    if pair.family.n < 3:
        raise ValueError("generic null vectors need p + q >= 3")
    if k < 1:
        raise ValueError("need at least one draw")
    frame = _sampling_frame(pair, tol)
    parts, need = [], k
    for _ in range(max_tries):
        S = _isotropy_conjugate(pair, _framed_null_stack(pair, need, rng, frame), rng)
        batch = _certify_null(pair, S, tol)
        ok = batch.genericity & (batch.nullity_residual < 1e-8)
        parts.append(batch.take(ok))
        need -= int(ok.sum())
        if need == 0:
            return NullBatch.concat(parts)
    raise RuntimeError("failed to draw a generic null vector")


def sample_null_generic(pair: SymmetricPair, rng=0,
                        tol: Tolerance | None = None,
                        max_tries: int = 60) -> NullVector:
    """Random generic null vector (distinct spectrum, nonreal pairs present)."""
    return sample_null_batch(pair, 1, rng, tol, max_tries).row(0)


# ---------------------------------------------------------------------------
# stabilizers and partners
# ---------------------------------------------------------------------------


def stabilizers_of_rays(pair: SymmetricPair, S: np.ndarray,
                        tol: Tolerance | None = None) -> RayStabilizers:
    """Ray stabilizers of a stack of null vectors S (k, N, N).

    Each ray's real system has the realified brackets [h_i, S] and -S as
    columns, (2 N^2) x (dim h + 1); the brackets come from one stacked
    bracket of the h-basis stack with S, and one stacked reduced SVD gives
    every kernel, with the rank cut of _kernel_cols.  The stack is solved
    whole; trial_blocks sizes stacks to a memory bound.
    """
    tol = tol or pair.tol
    S = np.asarray(S, dtype=complex)[:, None]
    B = bracket(pair.h.basis, S)
    cols = np.concatenate([realify(B), -realify(S)], axis=1)
    del B
    _, s, vt = np.linalg.svd(cols.transpose(0, 2, 1), full_matrices=False)
    rank = (s > tol.rank_rel * s[:, :1]).sum(axis=1)
    dims = s.shape[1] - rank
    kernels = [vt[i, r:].T for i, r in enumerate(rank)]
    return RayStabilizers(dims, kernels, _kernel_residuals(pair, S, vt, dims))


def _kernel_residuals(pair: SymmetricPair, S: np.ndarray, vt: np.ndarray,
                      dims: np.ndarray) -> np.ndarray:
    """Per ray, the largest |[X, S] - c S| over its kernel vectors (X, c),
    with X rebuilt from the h basis: a check on the stacked system.

    S is (k, 1, N, N); each ray's kernel is the last dims[i] rows of vt[i].
    """
    d = int(dims.max(initial=0))
    if d == 0:
        return np.zeros(len(dims))
    tail = vt[:, -d:]
    X = pair.h.combine(tail[..., :-1])
    R = bracket(X, S) - tail[..., -1, None, None] * S
    norms = np.linalg.norm(R, axis=(-2, -1))
    own = np.arange(d) >= (d - dims)[:, None]
    return np.where(own, norms, 0.0).max(axis=1)


def stabilizer_of_ray(pair: SymmetricPair, nv: NullVector,
                      tol: Tolerance | None = None) -> StabilizerResult:
    """All (X, c) in h x R with [X, S] = c S, as a subspace of h.

    The projection to the X component is injective (X = 0 forces c = 0),
    so the kernel maps to a subspace of h of the same dimension; the ray
    coefficient c is returned per basis vector.
    """
    return stabilizers_of_rays(pair, np.asarray(nv.S)[None], tol).result(pair, 0, tol)


def _span_distance(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Per stack entry, the largest distance from a row of X to the row span of Y."""
    Q, _ = np.linalg.qr(Y.transpose(0, 2, 1))
    R = X - (X @ Q) @ Q.transpose(0, 2, 1)
    return np.linalg.norm(R, axis=2).max(axis=1)


def stabilizer_mismatch(pair: SymmetricPair, a: RayStabilizers,
                        b: RayStabilizers) -> np.ndarray:
    """Per ray, the largest distance from a basis element of one stabilizer
    to the other stabilizer, both ways (RealSubspace.residual of each basis
    element); 0 where either stabilizer is trivial."""
    hdim = pair.h.dim
    out = np.zeros(len(a.kernels))
    groups = {}
    for i, key in enumerate(zip(a.dims.tolist(), b.dims.tolist())):
        if key[0] and key[1]:
            groups.setdefault(key, []).append(i)

    def bases(st, idx):
        coeffs = np.stack([st.kernels[i][:hdim].T for i in idx])
        return realify(pair.h.combine(coeffs))

    for idx in groups.values():
        Xa, Xb = bases(a, idx), bases(b, idx)
        out[idx] = np.maximum(_span_distance(Xa, Xb), _span_distance(Xb, Xa))
    return out


def partner_null_batch(pair: SymmetricPair, batch: NullBatch,
                       tol: Tolerance | None = None):
    """partner_null for every row of a batch: (partners, pairings (k,))."""
    if not np.all(batch.genericity):
        raise ValueError("the partner construction needs a generic spectrum")
    S = batch.S
    w, V = np.linalg.eig(S)
    M = (V * -np.conj(w)[:, None, :]) @ np.linalg.inv(V)
    if pair.family.field == "R":
        M = M.real.astype(complex)
    elif pair.family.field == "H":
        n = pair.family.n
        X = (M[:, :n, :n] + np.conj(M[:, n:, n:])) / 2
        Y = (-M[:, :n, n:] + np.conj(M[:, n:, :n])) / 2
        M = quat_embed(QMat(X, Y))
    M = pair.m.project(M)
    partners = _certify_null(pair, M, tol or pair.tol)
    return partners, pair.form(S, M)


def partner_null(pair: SymmetricPair, nv: NullVector,
                 tol: Tolerance | None = None):
    """Partner null vector sharing the eigenframe, and its pairing with S.

    The partner keeps every eigenvector of S and maps each eigenvalue to
    minus its conjugate.  On a canonical representative (eigenframe
    adapted to the involution) this is exactly the negative conjugate
    transpose; unlike the raw matrix map it commutes with isotropy
    conjugation, so the stabilizer equality it feeds is frame-independent.
    Returns (partner, form pairing); the pairing is strictly negative.
    """
    partners, pairings = partner_null_batch(pair, NullBatch.of([nv]), tol)
    return partners.row(0), float(pairings[0])


def codimension_from_stabilizer(pair: SymmetricPair, stab_dim):
    """Codimension of a ray orbit inside the projectivized null cone, from
    the ray's stabilizer dimension (an int or an array of them)."""
    cone_dim = pair.m.dim - 2
    orbit_dim = pair.h.dim - np.asarray(stab_dim)
    return cone_dim - orbit_dim


def orbit_codimension(pair: SymmetricPair, nv: NullVector,
                      tol: Tolerance | None = None) -> int:
    """Codimension of the ray orbit inside the projectivized null cone."""
    return int(codimension_from_stabilizer(pair, stabilizer_of_ray(pair, nv, tol).dim))


def split_spectrum(values: np.ndarray, thr: float):
    """Indices of upper-half-plane, real, and lower-half-plane eigenvalues."""
    values = np.asarray(values)
    upper = [i for i in range(len(values)) if values[i].imag > thr]
    real = [i for i in range(len(values)) if abs(values[i].imag) <= thr]
    lower = [i for i in range(len(values)) if values[i].imag < -thr]
    upper.sort(key=lambda i: (values[i].real, values[i].imag))
    real.sort(key=lambda i: values[i].real)
    return upper, real, lower


def canonicalize_unitary(pair: SymmetricPair, nv: NullVector,
                         tol: Tolerance | None = None):
    """Basis P diagonalizing a generic complex-family null vector so that
    P* F P is the antidiagonal-corner form; returns (P, corner size r)."""
    tol = tol or pair.tol
    if pair.family.field != "C":
        raise ValueError("unitary normal form applies to the complex family")
    if not nv.genericity:
        raise ValueError("normal form needs a generic spectrum")
    S, F = nv.S, pair.carrier_form
    n = S.shape[0]
    w, V = np.linalg.eig(S)
    thr = max(GAP_FACTOR * tol.abs, 0.25 * nv.gap)
    upper, real, lower = split_spectrum(w, thr)
    r = len(upper)
    slots = [None] * n
    for i, idx in enumerate(upper):
        slots[i] = idx
        partner = min(lower, key=lambda j: abs(w[j] - np.conj(w[idx])))
        lower.remove(partner)
        slots[n - 1 - i] = partner
    # middle slots: positive self-pairing first, then negative, values ascending
    mids = []
    for idx in real:
        u = V[:, idx]
        mids.append((idx, float((u.conj() @ F @ u).real)))
    mids.sort(key=lambda t: (-np.sign(t[1]), w[t[0]].real))
    for k, (idx, _) in enumerate(mids):
        slots[r + k] = idx
    cols = []
    for i in range(n):
        u = V[:, slots[i]]
        cols.append(u / np.linalg.norm(u))
    for i in range(r):
        c = np.conj(cols[i]) @ F @ cols[n - 1 - i]
        if abs(c) < 1e-10:
            raise ValueError("degenerate pairing between conjugate eigenlines")
        cols[n - 1 - i] = cols[n - 1 - i] / c
    for k in range(r, n - r):
        s = float((np.conj(cols[k]) @ F @ cols[k]).real)
        if abs(s) < 1e-10:
            raise ValueError("degenerate self-pairing on a real eigenline")
        cols[k] = cols[k] / np.sqrt(abs(s))
    return np.column_stack(cols), r


def _omega_matrix(pair: SymmetricPair) -> np.ndarray:
    F = pair.hermitian_matrix
    Z = np.zeros_like(F)
    return np.block([[Z, F], [-F, Z]])


def canonicalize_symplectic(pair: SymmetricPair, nv: NullVector,
                            tol: Tolerance | None = None) -> np.ndarray:
    """Basis normalizing a generic quaternionic-family null vector.

    The returned 2n x 2n matrix P diagonalizes the complex carrier of S;
    its columns are arranged so the complex-symplectic Gram becomes the
    block form [[0, T], [-T, 0]] with T the corner form of size r = number
    of nonreal eigenvalue pairs, and the Hermitian Gram is supported on
    the same corner pattern in each diagonal block.
    """
    tol = tol or pair.tol
    if pair.family.field != "H":
        raise ValueError("symplectic normal form applies to the quaternionic family")
    if not nv.genericity:
        raise ValueError("normal form needs a generic spectrum")
    M = nv.S
    n = pair.family.n
    Hm = pair.carrier_form
    Om = _omega_matrix(pair)
    eye = np.eye(n)
    Jstr = np.block([[0 * eye, -eye], [eye, 0 * eye]]).astype(complex)

    def h(x, y):
        return np.conj(x) @ Hm @ y

    def om(x, y):
        return x @ Om @ y

    def cmap(x):
        return Jstr @ np.conj(x)

    def eigenspace(lam):
        E = null_space(M - lam * np.eye(2 * n), rcond=1e-8)
        if E.shape[1] != 2:
            raise ValueError("eigenspace is not two-dimensional; spectrum not generic")
        return E

    thr = max(GAP_FACTOR * tol.abs, 0.25 * nv.gap)
    upper, real, _ = split_spectrum(nv.eigenvalues, thr)
    r = len(upper)
    lam_order = [nv.eigenvalues[i] for i in upper]
    lam_order += [nv.eigenvalues[i].real + 0j for i in real]
    lam_order += [np.conj(nv.eigenvalues[i]) for i in reversed(upper)]
    vs = [None] * n
    ws = [None] * n
    for k in range(r, n - r):
        lam = lam_order[k]
        E = eigenspace(lam)
        v = E[:, 0]
        w = cmap(v)
        t = om(v, w)
        Hk = np.array([[h(v, v), h(v, w)], [h(w, v), h(w, w)]])
        _, U = np.linalg.eigh(Hk)
        U = U.copy()
        U[:, 0] = U[:, 0] / np.linalg.det(U)
        G = U * np.sqrt(1.0 / t)
        B = np.column_stack([v, w]) @ G
        vs[k], ws[k] = B[:, 0], B[:, 1]
    for i in range(r):
        lam = lam_order[i]
        E1 = eigenspace(lam)
        E2 = eigenspace(np.conj(lam))
        v = E1[:, 0]
        w_i = cmap(v)
        scores = [abs(om(v, cmap(E2[:, j]))) for j in range(2)]
        u = E2[:, int(np.argmax(scores))]
        if max(scores) < 1e-10:
            raise ValueError("degenerate symplectic pairing between eigenspaces")
        w_p = cmap(u)
        w_p = w_p / om(v, w_p)
        u = u / om(u, w_i)
        H2 = np.array([[h(v, u), h(v, w_i)], [h(w_p, u), h(w_p, w_i)]])
        B2 = np.sqrt(np.linalg.det(H2)) * np.linalg.inv(H2)
        C = np.column_stack([u, w_i]) @ B2
        vs[i], ws[i] = v, C[:, 1]
        vs[n - 1 - i], ws[n - 1 - i] = C[:, 0], w_p
    return np.column_stack(vs + ws)


def so21_orbit_class(S: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> str:
    """Stratum of a 3 x 3 null vector: open, two-step- or one-step-nilpotent.

    For traceless null S the characteristic polynomial collapses so that
    S^3 = det(S) * 1; the strata are separated by the vanishing order.
    """
    S = np.asarray(S, dtype=complex)
    norm = float(np.linalg.norm(S))
    if norm <= tol.abs:
        raise ValueError("zero matrix does not lie on any stratum")
    S2 = S @ S
    S3 = S2 @ S
    if np.linalg.norm(S2) <= tol.abs * norm**2:
        return "one-step-nilpotent"
    if np.linalg.norm(S3) <= tol.abs * norm**3:
        return "two-step-nilpotent"
    return "open"


def sample_so21_stratum_batch(pair: SymmetricPair, stratum: str, k: int, rng=0,
                              tol: Tolerance | None = None) -> NullBatch:
    """k random representatives of one of the three strata for (R, 2, 1)."""
    tol = tol or pair.tol
    rng = _as_rng(rng)
    fam = pair.family
    if (fam.field, fam.p, fam.q) != ("R", 2, 1):
        raise ValueError("strata sampling is defined for the real (2, 1) pair")
    if stratum == "open":
        return sample_null_batch(pair, k, rng, tol)
    E = np.zeros((3, 3), dtype=complex)
    if stratum == "two-step-nilpotent":
        E[0, 1] = E[1, 2] = 1.0
    elif stratum == "one-step-nilpotent":
        E[0, 2] = 1.0
    else:
        raise ValueError(f"unknown stratum {stratum!r}")
    if k < 1:
        raise ValueError("need at least one draw")
    P = congruence(pair.hermitian_matrix, t_form(2, 1, 1), tol)
    S0 = P @ E @ np.linalg.inv(P)
    scale = rng.uniform(0.5, 2.0, k)
    S = _isotropy_conjugate(pair, np.broadcast_to(S0, (k, 3, 3)), rng)
    return _certify_null(pair, scale[:, None, None] * S, tol)


def sample_so21_stratum(pair: SymmetricPair, stratum: str, rng=0,
                        tol: Tolerance | None = None) -> NullVector:
    """Random representative of one of the three strata for (R, 2, 1)."""
    return sample_so21_stratum_batch(pair, stratum, 1, rng, tol).row(0)
