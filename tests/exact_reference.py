"""Exact rational references for the ray stabilizers, with stdlib fractions.

A complex matrix with rational real and imaginary parts is held as a pair
(re, im) of nested lists of Fractions, so products, brackets and the trace
form carry no rounding, and a rank is read by Gaussian elimination with no
tolerance.  The bases of the standard pairs at small n have entries in
{-1, 0, 1}, so a float basis converts exactly (Fraction(float) is exact).

rational_null_ray draws a null ray on the line x0 + t y through an integral
isotropic point x0 of the Gram matrix Q of m: Q(x0 + t y) = t (2 B(x0, y) +
t Q(y)) vanishes at t = -2 B(x0, y) / Q(y).  stabilizer_dim solves the ray's
stabilizer system [X, S] = c S over the rationals, X in h and c real.
"""

from fractions import Fraction

import numpy as np


def exact(M: np.ndarray):
    """(re, im) of a complex matrix as nested lists of Fractions."""
    M = np.asarray(M)
    return ([[Fraction(float(x)) for x in row] for row in M.real],
            [[Fraction(float(x)) for x in row] for row in M.imag])


def to_complex(X) -> np.ndarray:
    """The nearest complex float matrix."""
    re, im = X
    return np.array(re, dtype=float) + 1j * np.array(im, dtype=float)


def _mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _add(A, B, s=1):
    return [[a + s * b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def product(X, Y):
    """(A + iB)(C + iD) = (AC - BD) + i(AD + BC)."""
    (A, B), (C, D) = X, Y
    return _add(_mul(A, C), _mul(B, D), -1), _add(_mul(A, D), _mul(B, C))


def bracket(X, Y):
    (P, Q), (R, T) = product(X, Y), product(Y, X)
    return _add(P, R, -1), _add(Q, T, -1)


def combine(coeffs, basis):
    """sum_j c_j basis_j for rational coefficients."""
    N = len(basis[0][0])
    re = [[Fraction(0)] * N for _ in range(N)]
    im = [[Fraction(0)] * N for _ in range(N)]
    for c, (bre, bim) in zip(coeffs, basis):
        if c:
            re, im = _add(re, bre, c), _add(im, bim, c)
    return re, im


def trace_form(X, Y, scale) -> Fraction:
    """scale * Re tr(XY)."""
    (A, B), (C, D) = X, Y
    N = len(A)
    return scale * sum(A[i][j] * C[j][i] - B[i][j] * D[j][i]
                       for i in range(N) for j in range(N))


def flatten(X) -> list:
    """The real vector of a matrix: every re entry, then every im entry."""
    return [x for part in X for row in part for x in row]


def rank(vectors) -> int:
    """Rank of a list of rational vectors, by exact Gaussian elimination."""
    pivots = []  # (column, reduced vector with a 1 there)
    for v in vectors:
        v = list(v)
        for col, p in pivots:
            if v[col]:
                c = v[col]
                v = [a - c * b for a, b in zip(v, p)]
        lead = next((k for k, a in enumerate(v) if a), None)
        if lead is not None:
            pivots.append((lead, [a / v[lead] for a in v]))
    return len(pivots)


def rational_null_ray(m_basis: np.ndarray, scale: float, seed: int):
    """A null element S = sum_j s_j m_j with rational coordinates s, on the
    line x0 + t y from an integral isotropic point x0 of the Gram matrix of
    m and a seeded integral y in [-3, 3]^d.  Returns (S, s)."""
    basis = [exact(M) for M in m_basis]
    scale = Fraction(scale)
    d = len(basis)
    G = [[trace_form(X, Y, scale) for Y in basis] for X in basis]
    x0 = next(x for x in _small_vectors(d)
              if sum(x[i] * G[i][j] * x[j] for i in range(d) for j in range(d)) == 0)
    rng = np.random.default_rng(seed)
    while True:
        y = [int(v) for v in rng.integers(-3, 4, size=d)]
        Gy = [sum(G[i][j] * y[j] for j in range(d)) for i in range(d)]
        Q = sum(a * b for a, b in zip(y, Gy))
        B = sum(a * b for a, b in zip(x0, Gy))
        if Q and B:
            break
    t = -2 * B / Q
    s = [a + t * b for a, b in zip(x0, y)]
    return combine(s, basis), s


def _small_vectors(d: int):
    """e_i, then e_i + e_j and e_i - e_j for i < j: the isotropic candidates."""
    for i in range(d):
        yield [int(k == i) for k in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            for sign in (1, -1):
                yield [1 if k == i else sign if k == j else 0 for k in range(d)]


def stabilizer_dim(h_basis: np.ndarray, S) -> int:
    """Dimension of the ray stabilizer {X in h : [X, S] = c S, c real} of a
    nonzero S: the kernel of (x, c) -> sum_i x_i [h_i, S] - c S, whose
    projection to x is injective."""
    columns = [flatten(bracket(exact(H), S)) for H in h_basis]
    columns.append([-a for a in flatten(S)])
    return len(columns) - rank(columns)
