"""Tests for the real-linear-algebra kernel: quaternion embedding, real
subspaces, signatures, structure constants, signed orthogonalization, and
the isotropy algebra against the carrier form."""

import functools

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose, assert_array_equal

from nullcone.casestudies import _conformal_grading, sp21_build, su21_build
from nullcone.linalg import (
    BilinForm,
    DEFAULT_TOL,
    RealSubspace,
    _kernel_cols,
    algebra_profile,
    bracket,
    gram_matrix,
    gram_signature,
    max_bracket_residual,
    orth_complement,
    quat_embed,
    realify,
    relative_rank,
    signed_gram_schmidt,
    structure_constants,
    svd_rank,
    sym_signature,
    unrealify,
)
from nullcone.pairs import Family, build_pair
from pair_helpers import quat_blocks
from subspace_reference import intersection, kernel_of, orthogonal_algebra

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def random_quat(rng, n):
    """Blocks (X, Y) of a random quaternionic n x n matrix X + Y j."""
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return x, y


def test_quat_embed_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = random_quat(rng, 3)
        M = quat_embed(x, y)
        assert M.shape == (6, 6)
        X, Y = quat_blocks(M)
        assert_allclose(X, x, atol=1e-12)
        assert_allclose(Y, y, atol=1e-12)


def test_quat_embed_block_pattern():
    x, y = np.eye(2, dtype=complex) * 2j, np.ones((2, 2), dtype=complex)
    M = quat_embed(x, y)
    assert_allclose(M[:2, :2], x)
    assert_allclose(M[:2, 2:], -y)
    assert_allclose(M[2:, :2], np.conj(y))
    assert_allclose(M[2:, 2:], np.conj(x))


def test_quat_embed_rejects_unequal_or_nonsquare_blocks():
    for x, y in [(np.eye(2), np.eye(3)), (np.ones((2, 3)), np.ones((2, 3))),
                 (np.ones((2, 2, 2)), np.ones((3, 2, 2)))]:
        with pytest.raises(ValueError, match="square and equal-shaped"):
            quat_embed(x, y)


def test_quat_blocks_rejects_a_matrix_outside_the_pattern():
    rng = np.random.default_rng(4)
    M = quat_embed(*random_quat(rng, 2))
    M[0, 3] += 1e-6
    with pytest.raises(AssertionError, match="quaternionic block pattern"):
        quat_blocks(M)
    with pytest.raises(AssertionError, match="quaternionic block pattern"):
        quat_blocks(np.stack([M.conj(), M]))


def test_quat_embed_matches_np_block_bit_for_bit():
    # one matrix or a stack (k, n, n), real or complex blocks, mixed too:
    # the filled array has np.block's bits and dtype
    rng = np.random.default_rng(5)
    for shape in [(3, 3), (4, 2, 2)]:
        real = [rng.standard_normal(shape) for _ in range(2)]
        cplx = [a + 1j * rng.standard_normal(shape) for a in real]
        cplx[0][..., 0, 0] = complex(-0.0, 0.0)
        for x, y in [real, cplx, (real[0], cplx[1]), (cplx[0], real[1])]:
            got = quat_embed(x, y)
            want = np.block([[x, -y], [y.conj(), x.conj()]])
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            X, Y = quat_blocks(got)
            assert_array_equal(X, x)
            assert_array_equal(Y, y)


def test_quat_embed_is_real_algebra_map():
    # the embedding commutes with real-linear combinations
    rng = np.random.default_rng(2)
    a = random_quat(rng, 2)
    b = random_quat(rng, 2)
    lhs = quat_embed(2.0 * a[0] - b[0], 2.0 * a[1] - b[1])
    assert_allclose(lhs, 2.0 * quat_embed(*a) - quat_embed(*b), atol=1e-12)


def test_realify_roundtrip():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    v = realify(X)
    assert v.dtype == np.float64
    assert v.shape == (24,)
    assert_allclose(unrealify(v, (3, 4)), X, atol=0)


def test_stack_helpers_match_single_matrix_ones():
    # the helpers take a stack of matrices as well as one matrix
    rng = np.random.default_rng(2)
    space = RealSubspace([SX, SY, 1j * SZ])
    Xs = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
    R = realify(Xs)
    assert_allclose(R, np.stack([realify(X) for X in Xs]))
    assert_allclose(unrealify(R, (2, 2)), Xs)
    assert_allclose(space.coords(Xs), [space.coords(X) for X in Xs], atol=1e-12)
    assert_allclose(space.residual(Xs), [space.residual(X) for X in Xs], atol=1e-12)
    assert_allclose(space.project(Xs), [space.project(X) for X in Xs], atol=1e-12)
    C = rng.standard_normal((4, 3))
    assert_allclose(space.combine(C), [space.combine(c) for c in C], atol=1e-12)
    assert_allclose(space.combine(C.reshape(2, 2, 3)), space.combine(C).reshape(2, 2, 2, 2))
    form = BilinForm(0.5)
    assert_allclose(form(Xs, Xs[::-1]), [form(X, Y) for X, Y in zip(Xs, Xs[::-1])])
    assert_allclose(bracket(Xs, Xs[:1]), [bracket(X, Xs[0]) for X in Xs])
    qs = [random_quat(rng, 2) for _ in range(3)]
    stacked = quat_embed(np.stack([x for x, _ in qs]), np.stack([y for _, y in qs]))
    assert_allclose(stacked, [quat_embed(*q) for q in qs])


def test_random_element_stack_has_requested_norms():
    rng = np.random.default_rng(3)
    space = RealSubspace([SX, SY, 1j * SZ])
    norms = np.array([0.2, 1.0, 3.5])
    Xs = space.random_element(rng, norm=norms, size=3)
    assert Xs.shape == (3, 2, 2)
    assert_allclose(np.linalg.norm(Xs, axis=(1, 2)), norms)
    assert np.all(space.residual(Xs) < 1e-12)
    # a stack of one draws what a single call draws
    one = space.random_element(np.random.default_rng(4), norm=0.7, size=1)
    single = space.random_element(np.random.default_rng(4), norm=0.7)
    assert_allclose(one[0], single, atol=1e-15)


@pytest.mark.parametrize("shape,rank", [((30, 8), 5), ((8, 8), 6), ((5, 12), 4),
                                        ((5, 12), 5)])
def test_kernel_cols_dimension_tall_and_wide(shape, rank):
    rng = np.random.default_rng(shape[0] * 100 + rank)
    M = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
    ker = _kernel_cols(M, DEFAULT_TOL)
    assert ker.shape == (shape[1], shape[1] - rank)
    assert_allclose(ker.T @ ker, np.eye(shape[1] - rank), atol=1e-12)
    assert np.abs(M @ ker).max() < 1e-10


def test_subspace_basics():
    space = RealSubspace([1j * SX, 1j * SY, 1j * SZ])
    assert space.dim == 3
    X = 1j * (2.0 * SX - 0.5 * SZ)
    c = space.coords(X)
    assert_allclose(c, [2.0, 0.0, -0.5], atol=1e-12)
    assert space.residual(X) < 1e-12
    assert space.contains(X)
    assert not space.contains(SX)
    assert_allclose(space.project(SX), np.zeros((2, 2)), atol=1e-12)


def test_contains_judges_each_matrix_at_its_own_scale():
    su2 = RealSubspace([1j * SX, 1j * SY, 1j * SZ])
    big = 1e6 * (1j * SZ)  # inside
    small = 1e-6 * np.eye(2)  # outside: residual 1.4e-6 against tol.abs at scale 1
    assert su2.contains(big) and not su2.contains(small)
    assert su2.contains(np.stack([big, small])).tolist() == [True, False]


def test_basis_is_stored_once_and_unpacked_bit_for_bit():
    rng = np.random.default_rng(12)
    mats = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    mats[0, 0, 0] = complex(-0.0, -0.0)  # signed zeros survive bit for bit
    want = mats.tobytes()
    for space in (RealSubspace(list(mats)), RealSubspace(mats)):
        # one C-ordered float array of rows, row i realify of matrix i,
        # which is the memory of the complex stack read as floats
        assert space._mat.dtype == np.float64 and space._mat.flags.c_contiguous
        assert space._mat.shape == (4, 18) and space._mat.tobytes() == want
        B = space.basis
        assert B.shape == (4, 3, 3) and B.tobytes() == want
        # a read-only view of the stored rows, made on each read, not cached
        assert not B.flags.writeable and np.shares_memory(B, space._mat)
        assert "basis" not in vars(space)
        with pytest.raises(ValueError):
            B[0, 0, 0] = 1.0
    # the stored rows are a copy: changing the caller's stack changes nothing
    space = RealSubspace(mats)
    mats[1] = 7.0
    assert not np.shares_memory(space._mat, mats)
    assert space.basis.tobytes() == want


def test_realify_is_a_view_of_a_c_ordered_stack():
    rng = np.random.default_rng(14)
    X = rng.standard_normal((5, 3, 4)) + 1j * rng.standard_normal((5, 3, 4))
    R = realify(X)
    # (re, im) of each entry, row-major: numpy's own float view, no copy
    assert R.shape == (5, 24) and np.shares_memory(R, X)
    assert_array_equal(R[:, 0::2], X.real.reshape(5, 12))
    assert_array_equal(R[:, 1::2], X.imag.reshape(5, 12))
    back = unrealify(R, (3, 4))
    assert np.shares_memory(back, R) and back.tobytes() == X.tobytes()
    # other layouts are copied into C order first, to the same values
    for Y in (X.transpose(0, 2, 1), X[:, ::2], X[::2, :, 1:], X.real):
        assert_array_equal(realify(Y), realify(np.array(Y, dtype=complex, order="C")))
        assert_array_equal(unrealify(realify(Y), Y.shape[1:]), Y)
    assert realify(X[:0]).shape == (0, 24)


def test_max_bracket_residual_matches_pairwise_loop():
    rng = np.random.default_rng(13)
    A, B, T = (rng.standard_normal((k, 3, 3)) + 1j * rng.standard_normal((k, 3, 3))
               for k in (4, 5, 6))
    target = RealSubspace(T)
    want = np.array([[target.residual(bracket(a, b)) for b in B] for a in A])
    got = np.array([[max_bracket_residual(A[i:i + 1], target, B[j:j + 1])
                     for j in range(5)] for i in range(4)])
    assert_allclose(got, want, rtol=0, atol=1e-12)
    assert abs(max_bracket_residual(A, target, B) - want.max()) <= 1e-12
    # without cols: the closure of A, every ordered pair and the diagonal
    # included in the reference
    full = max(target.residual(bracket(a, b)) for a in A for b in A)
    assert abs(max_bracket_residual(A, target) - full) <= 1e-12
    assert max_bracket_residual(A[:1], target) == 0.0


def test_subspace_dependent_basis_raises():
    with pytest.raises(ValueError, match="dependent"):
        RealSubspace([np.eye(2), 2.0 * np.eye(2)])


def test_an_empty_basis_is_refused_by_both_constructors_and_span():
    # one check in the certification serves the constructor and from_rows
    for make in (lambda: RealSubspace([]), lambda: RealSubspace(np.zeros((0, 2, 2))),
                 lambda: RealSubspace.from_rows(np.zeros((0, 8)), (2, 2))):
        with pytest.raises(ValueError, match="empty basis"):
            make()
    with pytest.raises(ValueError, match="at least one matrix"):
        RealSubspace.span([])


def test_subspace_more_matrices_than_real_dimension_raises():
    # five generic complex 1 x 2 matrices in a 4-dimensional real space: the
    # wide column matrix has only four singular values, all of them nonzero
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError, match="dependent"):
        RealSubspace(rng.standard_normal((5, 1, 2)) + 1j * rng.standard_normal((5, 1, 2)))


E = np.eye(3)[:, None, :, None] * np.eye(3)[None, :, None, :]  # E[i, j] = E_ij, 3 x 3


@pytest.mark.parametrize("mats", [
    # a zero column touches no row, so it is outside the block with norm 0
    [E[0, 0], E[0, 1], 0 * E[1, 1]],
    # a duplicated column shares its rows with its copy and moves into the block
    [E[0, 0], E[0, 1] + E[1, 0], E[0, 1] + E[1, 0]],
    # the trace-dropped diagonals and their sum: a dependent square block
    [E[0, 0] - E[1, 1], E[1, 1] - E[2, 2], E[0, 0] - E[2, 2], E[0, 1]],
    # three matrices on two shared coordinates: a wide block
    [E[0, 0], E[1, 1], E[0, 0] + E[1, 1], 1j * E[0, 1]],
    # a column outside the block below rank_rel times the largest value
    [E[0, 0] - E[1, 1], E[1, 1] - E[2, 2], 1e-9 * E[0, 1]],
], ids=["zero", "duplicate", "dependent-block", "wide-block", "tiny"])
def test_dependent_basis_raises_on_every_branch_of_the_split(mats):
    # the full factorization calls each of these dependent
    s = np.linalg.svd(realify(np.stack(mats)).T, compute_uv=False)
    assert len(mats) > len(s) or relative_rank(s, DEFAULT_TOL) < len(s)
    with pytest.raises(ValueError, match="dependent"):
        RealSubspace(mats)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.nan],
                         ids=["nan", "inf", "-inf", "imag-nan"])
def test_span_refuses_a_non_finite_entry_before_its_svd(bad, monkeypatch):
    # a NaN would end in LinAlgError ("SVD did not converge")
    mats = np.stack([E[0, 0], E[0, 1], E[0, 0] + E[0, 1]]).astype(complex)
    assert RealSubspace.span(mats).dim == 2

    def boom(*args, **kwargs):
        raise AssertionError("a non-finite matrix reached the SVD")

    monkeypatch.setattr(np.linalg, "svd", boom)
    mats[1, 0, 1] = bad
    with pytest.raises(ValueError, match="basis has a non-finite entry"):
        RealSubspace.span(mats)


def test_the_rank_rule_is_strict_at_its_boundary():
    # exact diagonal inputs: singular values (1, rank_rel) give rank 1 and
    # (1, 2 rank_rel) rank 2, on every route that cuts with the rule
    tol = DEFAULT_TOL
    for t, rank in ((tol.rank_rel, 1), (2 * tol.rank_rel, 2)):
        D = np.diag([1.0, t])
        mats = [E[0, 0], t * E[1, 1]]
        assert_array_equal(np.linalg.svd(D, compute_uv=False), [1.0, t])
        assert_array_equal(np.linalg.svd(realify(np.stack(mats)), compute_uv=False), [1.0, t])
        # disjoint supports: certification cuts the two norms, 1 and t
        assert_array_equal(np.sqrt(np.einsum("ij,ij->i", *2 * [realify(np.stack(mats))])),
                           [1.0, t])
        if rank == 1:
            with pytest.raises(ValueError, match="dependent"):
                RealSubspace(mats)
        else:
            assert RealSubspace(mats).dim == 2
        assert RealSubspace.span(mats).dim == rank
        assert relative_rank(np.array([1.0, t]), tol) == rank
        assert svd_rank(D, tol)[0] == rank
        got, s, vt = svd_rank(D, tol, vectors=True)
        assert got == rank and vt.shape == (2, 2)
        assert _kernel_cols(D, tol).shape == (2, 2 - rank)
        assert sym_signature(np.diag([1.0, -t]), tol) == (1, rank - 1, 2 - rank)
    # a stack keeps one cut per row
    stack = np.stack([np.diag([1.0, tol.rank_rel]), np.diag([1.0, 2 * tol.rank_rel]),
                      np.diag([3.0, 3 * tol.rank_rel])])
    assert svd_rank(stack, tol)[0].tolist() == [1, 2, 1]
    assert svd_rank(stack, tol, vectors=True)[0].tolist() == [1, 2, 1]
    # an explicit scale replaces each row's largest value
    s = np.array([[0.5, tol.rank_rel], [2.0, 2 * tol.rank_rel]])
    assert relative_rank(s, tol, np.maximum(1.0, s[:, :1])).tolist() == [1, 1]
    assert relative_rank(s, tol).tolist() == [2, 1]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("mats", [
    # one vector: no coordinate is shared, so it is outside the block
    [E[0, 0]],
    # E[0, 0] + E[0, 1] shares a coordinate with E[0, 0]: both in the block
    [E[0, 0], E[0, 0] + E[0, 1], E[1, 2]],
], ids=["outside", "inside"])
def test_a_non_finite_basis_entry_is_refused_before_any_factorization(mats, bad, monkeypatch):
    # NaN fails every comparison of the independence test and inf overflows
    # it, so the entries are checked first, on both constructors
    mats = np.stack(mats).astype(complex)
    assert RealSubspace(mats).dim == len(mats)  # certified while finite
    mats[0, 0, 0] = bad
    rows = np.ascontiguousarray(realify(mats).reshape(len(mats), -1))

    def boom(*args, **kwargs):
        raise AssertionError("a non-finite basis reached a factorization")

    monkeypatch.setattr(np.linalg, "svd", boom)
    monkeypatch.setattr(np.linalg, "qr", boom)
    with pytest.raises(ValueError, match="non-finite"):
        RealSubspace(mats)
    with pytest.raises(ValueError, match="non-finite"):
        RealSubspace.from_rows(rows, (3, 3))


def test_split_cut_is_relative_to_the_largest_value():
    # the same small column is independent once it is above the cut
    space = RealSubspace([E[0, 0] - E[1, 1], E[1, 1] - E[2, 2], 1e-7 * E[0, 1]])
    assert space._block.tolist() == [True, True, False]
    assert_allclose(space.frame[:, 2], realify(E[0, 1]), rtol=0, atol=0)


def assert_coords_match_lstsq(space, X):
    # the least-squares solve over every realified row is the reference
    want = np.linalg.lstsq(space._mat.T, realify(X).T, rcond=None)[0].T
    got = space.coords(X)
    scale = np.maximum(1.0, np.linalg.norm(X, axis=(1, 2)))
    assert (np.abs(got - want).max(axis=1) <= 1e-13 * scale).all()


COORDS_SCALES = np.array([1e-6, 1e-3, 1.0, 1e3, 1e6])


@pytest.mark.parametrize("pq", [(2, 1), (3, 2), (6, 5)])
@pytest.mark.parametrize("field", ["R", "C", "H"])
def test_coords_from_the_supports_match_the_full_lstsq(field, pq):
    # columns outside the block decouple from the least-squares problem, so
    # their coordinates are a_j^T r / |a_j|^2, and the block is solved on its
    # rows: the full solve's answer, for members and non-members at every scale
    pair = build_pair(Family(field, *pq))
    rng = np.random.default_rng(41)
    N = pair.carrier_dim
    for space in (pair.h, pair.m):
        members = space.random_element(rng, norm=COORDS_SCALES, size=len(COORDS_SCALES))
        others = rng.standard_normal((5, N, N)) + 1j * rng.standard_normal((5, N, N))
        others *= (COORDS_SCALES / np.linalg.norm(others, axis=(1, 2)))[:, None, None]
        assert (space.residual(others) > 0.1 * COORDS_SCALES).all()
        assert_coords_match_lstsq(space, members)
        assert_coords_match_lstsq(space, others)


@pytest.mark.parametrize("real", [False, True])
def test_coords_of_a_dense_basis_match_the_full_lstsq(real):
    # a dense basis is all block; a real one touches only the real
    # coordinates, so its one lstsq runs on half of them
    rng = np.random.default_rng(42)
    mats = rng.standard_normal((5, 3, 3)) + (0 if real else 1j * rng.standard_normal((5, 3, 3)))
    space = RealSubspace(mats)
    assert space._block.all() and space._support.sum() == (9 if real else 18)
    X = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    X *= (COORDS_SCALES / np.linalg.norm(X, axis=(1, 2)))[:, None, None]
    assert_coords_match_lstsq(space, X)
    members = space.random_element(rng, norm=COORDS_SCALES, size=len(COORDS_SCALES))
    assert_coords_match_lstsq(space, members)


def test_span_reduces_dependent_input():
    assert RealSubspace.span([np.eye(2), 2.0 * np.eye(2)]).dim == 1


def test_random_element_lies_inside():
    space = RealSubspace([1j * SX, 1j * SY])
    rng = np.random.default_rng(4)
    for _ in range(10):
        X = space.random_element(rng)
        assert space.residual(X) < 1e-12


def test_kernel_of_centralizer():
    su2 = RealSubspace([1j * SX, 1j * SY, 1j * SZ])
    ker = kernel_of(su2, lambda X: bracket(1j * SZ, X))
    assert ker is not None and ker.dim == 1
    assert ker.residual(1j * SZ) < 1e-10
    # injective map has no kernel
    assert kernel_of(RealSubspace([SZ]), lambda X: X) is None


def per_matrix_kernel(space, linmap, tol=DEFAULT_TOL):
    """Reference for kernel_of: the image columns built one basis matrix
    at a time."""
    cols = np.column_stack(
        [realify(np.asarray(linmap(b), dtype=complex)) for b in space.basis])
    ker = _kernel_cols(cols, tol)
    return None if ker.shape[1] == 0 else RealSubspace(space.combine(ker.T), tol=tol)


def check_kernel_of(space, linmap):
    got, want = kernel_of(space, linmap), per_matrix_kernel(space, linmap)
    assert (got is None) == (want is None)
    if want is not None:
        # the same columns reach the same SVD
        assert_array_equal(got._mat, want._mat)


@pytest.mark.parametrize("linmap", [
    lambda X: bracket(1j * SZ, X),
    lambda X: X,
    lambda X: (X @ np.array([1.0, 1j]))[..., :1],
    lambda X: X[..., 0, 1] + X[..., 1, 0].conj(),
], ids=["centralizer", "injective", "vector", "scalar"])
def test_kernel_of_matches_the_per_matrix_build_on_su2(linmap):
    check_kernel_of(RealSubspace([1j * SX, 1j * SY, 1j * SZ]), linmap)


# the graded pieces of so(14): degree -1, 0 and +1 under diag(1, 0, ..., 0, -1)
# and the stabilizers of the first and the last frame line
E_GRAD = np.diag([1.0] + [0.0] * 12 + [-1.0]).astype(complex)
SO14_MAPS = {
    "p_minus": lambda A: bracket(E_GRAD, A) + A,
    "p_zero": lambda A: bracket(E_GRAD, A),
    "p_plus": lambda A: bracket(E_GRAD, A) - A,
    "p_full": lambda A: (A @ np.eye(14)[0])[..., 1:],
    "p_hat": lambda A: (A @ np.eye(14)[13])[..., :13],
}


@pytest.mark.parametrize("piece", SO14_MAPS)
def test_kernel_of_matches_the_per_matrix_build_on_so14(piece):
    grading = _conformal_grading((1.0,) * 5 + (-1.0,) * 7, DEFAULT_TOL)
    so = orthogonal_algebra(grading.Gamma)
    check_kernel_of(so, SO14_MAPS[piece])
    assert getattr(grading, piece).equals(per_matrix_kernel(so, SO14_MAPS[piece]))


def test_intersection_dimension():
    a = RealSubspace([SZ, 1j * SX])
    b = RealSubspace([SZ, 1j * SY])
    assert intersection(a, b) == 1
    assert intersection(a, a) == 2
    assert intersection(RealSubspace([1j * SX]), RealSubspace([1j * SY])) == 0


def test_equals_is_basis_independent():
    a = RealSubspace([1j * SX, 1j * SY])
    b = RealSubspace([1j * (SX + SY), 1j * (SX - SY)])
    assert a.equals(b)
    assert not a.equals(RealSubspace([1j * SX, 1j * SZ]))


def test_sym_signature_counts():
    G = np.diag([3.0, 1.0, -2.0, 0.0])
    assert sym_signature(G) == (2, 1, 1)
    assert sym_signature(np.zeros((2, 2))) == (0, 0, 2)


def test_gram_matrix_and_signature():
    form = BilinForm(1.0)
    su2 = RealSubspace([1j * SX, 1j * SY, 1j * SZ])
    G = gram_matrix(form, [1j * SX, 1j * SY, 1j * SZ])
    assert_allclose(G, np.diag([-2.0, -2.0, -2.0]), atol=1e-12)
    _, sig = gram_signature(form, su2)
    assert sig == (0, 3, 0)


def test_gram_matrix_matches_pairwise_form():
    rng = np.random.default_rng(11)
    form = BilinForm(0.5)
    A = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    B = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
    want = np.array([[form(a, b) for b in B] for a in A])
    assert_allclose(gram_matrix(form, list(A), list(B)), want, rtol=1e-13, atol=1e-13)
    assert_allclose(gram_matrix(form, A), [[form(a, b) for b in A] for a in A],
                    rtol=1e-13, atol=1e-13)
    # one matrix or a stack against a frame
    assert_allclose(gram_matrix(form, A[0], B), want[0], rtol=1e-13, atol=1e-13)
    stack = np.stack([A, A[::-1]])
    assert gram_matrix(form, stack, B).shape == (2, 3, 5)
    assert_allclose(gram_matrix(form, stack, B)[1], want[::-1], rtol=1e-13, atol=1e-13)


def test_orth_complement_direct_sum():
    form = BilinForm(1.0)
    su2 = RealSubspace([1j * SX, 1j * SY, 1j * SZ])
    line = RealSubspace([1j * SZ])
    comp = orth_complement(line, su2, form)
    assert comp.dim == 2
    for v in comp.basis:
        assert abs(form(v, 1j * SZ)) < 1e-10
    assert intersection(line, comp) == 0


def test_structure_constants_recover_brackets():
    su2 = RealSubspace([1j * SX, 1j * SY, 1j * SZ])
    c, closed = structure_constants(su2)
    assert closed
    basis = su2.basis
    for i in range(3):
        for j in range(3):
            want = bracket(basis[i], basis[j])
            got = sum(c[i, j, k] * basis[k] for k in range(3))
            assert_allclose(got, want, atol=1e-10)


def test_algebra_profile_su2():
    su2 = RealSubspace([1j * SX, 1j * SY, 1j * SZ])
    # dim, Killing signature, center dim, derived dim
    assert algebra_profile(su2) == (3, (0, 3, 0), 0, 3)


def test_algebra_profile_abelian():
    ab = RealSubspace([np.diag([1.0, -1.0, 0.0]), np.diag([1.0, 1.0, -2.0])])
    assert algebra_profile(ab) == (2, (0, 0, 2), 2, 0)


def ref_signed_gram_schmidt(form, space, rng, max_remix=100):
    """The vector-by-vector sweep: one form call per pairing and one
    projection per remaining vector."""
    vecs = list(space.basis)
    out, eps = [], []
    remix = 0
    while vecs:
        norms = [abs(form(v, v)) for v in vecs]
        i = int(np.argmax(norms))
        if norms[i] < 1e-8:
            if remix >= max_remix:
                raise ValueError("form appears degenerate on the space")
            remix += 1
            coeff = rng.standard_normal((len(vecs), len(vecs)))
            vecs = [sum(coeff[a, b] * vecs[b] for b in range(len(vecs)))
                    for a in range(len(vecs))]
            continue
        v = vecs.pop(i)
        fv = form(v, v)
        e = v / np.sqrt(abs(fv))
        s = 1.0 if fv > 0 else -1.0
        vecs = [u - s * form(u, e) * e for u in vecs]
        out.append(e)
        eps.append(s)
    order = sorted(range(len(out)), key=lambda a: -eps[a])
    return [out[a] for a in order], np.array([eps[a] for a in order])


E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = E12.T.copy()


@functools.cache
def case_study_spaces():
    """Every space the case studies orthonormalize: n and b of both splits
    (the Casimir runs on b) and the complement of the sp21 ray pair in m."""
    su, sp = su21_build(), sp21_build()
    span = RealSubspace([sp.S, sp.S_hat])
    n_hat = orth_complement(span, sp.pair.m, sp.pair.form)
    return {"su21_n": (su.pair.form, su.split.n), "su21_b": (su.pair.form, su.split.b),
            "sp21_n": (sp.pair.form, sp.split.n), "sp21_b": (sp.pair.form, sp.split.b),
            "sp21_n_hat": (sp.pair.form, n_hat)}


SPACES = {
    "mixed": lambda: (BilinForm(1.0), RealSubspace([SX, SY, 1j * SX, 1j * SY])),
    # every basis self-pairing vanishes, so the sweep must remix first
    "null_basis": lambda: (BilinForm(1.0), RealSubspace([E12, E21])),
    **{name: (lambda name=name: case_study_spaces()[name])
       for name in ("su21_n", "su21_b", "sp21_n", "sp21_b", "sp21_n_hat")},
}


@pytest.mark.parametrize("name", SPACES)
@pytest.mark.parametrize("seed", [0, 7])
def test_signed_gram_schmidt_matches_the_loop(name, seed):
    form, space = SPACES[name]()
    g, h = np.random.default_rng(seed), np.random.default_rng(seed)
    basis, eps = signed_gram_schmidt(form, space, g)
    want_basis, want_eps = ref_signed_gram_schmidt(form, space, h)
    assert basis.shape == (space.dim,) + space.shape
    assert_array_equal(basis, np.stack(want_basis))
    assert_array_equal(eps, want_eps)
    assert g.bit_generator.state == h.bit_generator.state
    if name == "null_basis":
        # the remix drew from the generator
        assert g.bit_generator.state != np.random.default_rng(seed).bit_generator.state


def test_signed_gram_schmidt_raises_on_a_degenerate_space():
    form, line = BilinForm(1.0), RealSubspace([E12])
    with pytest.raises(ValueError, match="degenerate"):
        signed_gram_schmidt(form, line, np.random.default_rng(0))
    with pytest.raises(ValueError, match="degenerate"):
        ref_signed_gram_schmidt(form, line, np.random.default_rng(0))


def test_signed_gram_schmidt_diagonalizes():
    form = BilinForm(1.0)
    mixed = RealSubspace([SX, SY, 1j * SX, 1j * SY])
    basis, eps = signed_gram_schmidt(form, mixed, rng=np.random.default_rng(5))
    G = np.array([[form(a, b) for b in basis] for a in basis])
    assert_allclose(G, np.diag(eps), atol=1e-9)
    # positive entries come first
    assert list(eps) == sorted(eps, reverse=True)
    assert np.all(np.abs(eps) == 1.0)


def test_bilinform_scale():
    X = np.diag([1.0, 2.0]).astype(complex)
    assert BilinForm(1.0)(X, X) == pytest.approx(5.0)
    assert BilinForm(0.5)(X, X) == pytest.approx(2.5)


def test_bracket_shape_mismatch_raises():
    with pytest.raises(ValueError):
        bracket(np.eye(3), np.eye(2))


# ---------------------------------------------------------------------------
# the isotropy algebra integrates into the form-preserving group
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("field", ["R", "C", "H"])
@pytest.mark.parametrize("pq", [(2, 1), (3, 2)])
def test_expm_of_isotropy_elements_preserves_carrier_form(field, pq, seed):
    # scipy's exponential is the reference: the check is on pair.h, whose
    # elements must be skew for the carrier form and traceless
    pair = build_pair(Family(field, *pq))
    rng = np.random.default_rng(seed)
    Z = pair.h.random_element(rng, norm=[0.3, 1.0, 4.0, 12.0], size=4)
    G = np.array([scipy.linalg.expm(z) for z in Z])
    F = pair.carrier_form
    scale = np.linalg.norm(G, axis=(1, 2)) ** 2
    res = np.abs(G.conj().transpose(0, 2, 1) @ F @ G - F).max(axis=(1, 2))
    assert (res < 1e-13 * scale).all()
    # h is traceless, so exp(Z) has determinant one
    assert (np.abs(np.linalg.det(G) - 1.0) < 1e-13 * scale).all()
    if field == "H":
        quat_blocks(G)  # asserts that each matrix of G keeps the quaternionic pattern
