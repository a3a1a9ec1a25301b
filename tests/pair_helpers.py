"""Test-only helpers on pairs, their carrier matrices and their reductive
splits.

ambient is g = h + m as one subspace; corrupt_pair is the negative
control of the axiom checks; quat_blocks
reads the blocks of a quaternionic matrix off its complex image and checks
that the image keeps the block pattern of quat_embed; ref_n_coords and
ref_bracket_parts split a bracket along b + n with one form call per frame
element, and ref_curvature_components builds the canonical curvature one
frame index at a time: the references the reductive arrays are compared
against.  ray_split is the split along the stabilizer of a sampled null ray.
"""

import numpy as np

from nullcone.linalg import RealSubspace, bracket, quat_embed
from nullcone.orbits import sample_null_batch, stabilizers_of_rays
from nullcone.pairs import SymmetricPair, build_pair
from nullcone.reductive import reductive_split


def ambient(pair: SymmetricPair) -> RealSubspace:
    """g = h + m, the h rows then the m rows, with the independence check
    of any RealSubspace."""
    return RealSubspace.from_rows(np.vstack([pair.h._mat, pair.m._mat]), pair.h.shape,
                                  tol=pair.tol)


def corrupt_pair(pair: SymmetricPair) -> SymmetricPair:
    """Negative control: move one generator between the two summands."""
    h_bad = np.concatenate([pair.h.basis[:-1], pair.m.basis[:1]])
    m_bad = np.concatenate([pair.h.basis[-1:], pair.m.basis[1:]])
    return pair._replace(
        h=RealSubspace(h_bad, tol=pair.tol),
        m=RealSubspace(m_bad, tol=pair.tol),
    )


def quat_blocks(M: np.ndarray):
    """Blocks (X, Y) with M = quat_embed(X, Y), for one matrix or a stack.

    Asserts that each matrix keeps the quaternionic pattern: its distance
    from the image of its own blocks is at most 1e-8 max(1, max |M|).
    """
    assert M.shape[-1] % 2 == 0, "even dimension required"
    n = M.shape[-1] // 2
    X, Y = M[..., :n, :n], -M[..., :n, n:]
    err = np.abs(M - quat_embed(X, Y)).max(axis=(-2, -1))
    bound = 1e-8 * np.maximum(1.0, np.abs(M).max(axis=(-2, -1)))
    assert np.all(err <= bound), f"not in the quaternionic block pattern, residual {err.max():.3e}"
    return X, Y


def ref_n_coords(split, X):
    """Coordinates of one matrix X in the signed basis of n, one form call each."""
    return np.array([s * split.form(X, e) for s, e in zip(split.eps, split.e_basis)])


def ref_bracket_parts(split, u, v):
    """([u, v]_b, [u, v]_n) for one pair of matrices."""
    B = bracket(u, v)
    Bn = sum(c * e for c, e in zip(ref_n_coords(split, B), split.e_basis))
    return B - Bn, Bn


def ref_curvature_components(split):
    """R[i, k] = -ad([e_i, e_k]_b) on n, one frame index i at a time, with
    the b-part read as the bracket less its n-projection."""
    E = split.e_basis
    return np.stack([-split.ad(B - np.tensordot(split.n_coords(B), E, axes=1))
                     for B in (bracket(e, E) for e in E)])


def ray_split(family, rng=0):
    """h = b + n with b the stabilizer of the first null ray that
    sample_null_batch draws from the seed rng."""
    pair = build_pair(family)
    stab = stabilizers_of_rays(pair, sample_null_batch(pair, 1, rng=rng).S)
    return reductive_split(pair, RealSubspace(stab.bases[0], tol=pair.tol))
