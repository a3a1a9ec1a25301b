"""Tests for the symmetric-pair constructions over the three coefficient
fields: dimension bookkeeping, involution behavior, axiom checks, and the
isotropy representation."""

import copy
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from nullcone.linalg import (
    DEFAULT_TOL,
    RealSubspace,
    bracket,
    gram_signature,
    max_bracket_residual,
    structure_constants,
)
import nullcone.pairs as pairs
from nullcone.pairs import (
    _GENERATORS,
    Family,
    _form_matrix,
    build_pair,
    check_symmetric_axioms,
    default_families,
    dimension_table,
    formula_dims,
    isotropy_matrix,
)
from pair_helpers import ambient, corrupt_pair
from subspace_reference import kernel_of

ALL_FIELDS = ("R", "C", "H")
SIZES = [(2, 1), (3, 2)]


# pairwise reference loops: the per-pair forms the stacked calls replaced


def ref_max_residual(space_a, space_b, target):
    return max(target.residual(bracket(a, b)) for a in space_a.basis for b in space_b.basis)


def ref_closure(rows, target, cols=None):
    """The former closure: each row bracketed with the whole column basis,
    every ordered pair and, for one basis, the diagonal included."""
    cols = rows if cols is None else cols
    return max(float(target.residual(bracket(x, cols)).max()) for x in rows)


def ref_isotropy_matrix(pair, X):
    return np.column_stack([pair.m.coords(bracket(X, b)) for b in pair.m.basis])


def ref_structure_constants(space, tol=DEFAULT_TOL):
    k = space.dim
    c = np.zeros((k, k, k))
    closed = True
    for i in range(k):
        for j in range(i + 1, k):
            B = bracket(space.basis[i], space.basis[j])
            if space.residual(B) > tol.abs * max(1.0, float(np.linalg.norm(B))):
                closed = False
            c[i, j] = space.coords(B)
            c[j, i] = -c[i, j]
    return c, closed


def ref_equals(a, b):
    return a.dim == b.dim and all(b.contains(x) for x in a.basis) and all(
        a.contains(y) for y in b.basis)


# per-matrix reference construction: the generator loops, trace pivot and
# np.block embedding that build_pair replaced by writing its column
# matrices from the index patterns


def ref_gens(kind, n):
    diag, off = _GENERATORS[kind]
    gens = []
    for j in range(n):
        for c in diag:
            M = np.zeros((n, n), dtype=complex)
            M[j, j] = c
            gens.append(M)
    for j in range(n):
        for k in range(j + 1, n):
            for x, y in off:
                M = np.zeros((n, n), dtype=complex)
                M[j, k], M[k, j] = x, y
                gens.append(M)
    return gens


def ref_product(F, A):
    """F @ A with each zero entry +0.  OpenBLAS returns that on its Haswell,
    Zen, SandyBridge, Nehalem and Prescott kernels; the SkylakeX kernel's
    edge tiles return -0 for some zero entries, which x + 0.0 maps to +0
    (nonzero entries are exact and unchanged)."""
    return F @ A + 0.0


def ref_drop_trace(gens):
    traces = np.array([np.trace(g) for g in gens])
    mags = np.abs(traces)
    if mags.max() < 1e-12:
        return list(gens)
    piv = int(np.argmax(mags))
    tp = traces[piv]
    return [g - (traces[i] / tp).real * gens[piv] for i, g in enumerate(gens) if i != piv]


def ref_quat_embed(X, Y):
    return np.block([[X, -Y], [Y.conj(), X.conj()]])


def ref_generators(fam, variant):
    """(h generators, m generators) as lists, one matrix at a time."""
    F = _form_matrix(fam, variant)
    n = fam.n
    if fam.field == "R":
        return ([ref_product(F, A) for A in ref_gens("real_antisym", n)],
                ref_drop_trace([ref_product(F, S) for S in ref_gens("real_sym", n)]))
    if fam.field == "C":
        return (ref_drop_trace([ref_product(F, A) for A in ref_gens("antihermitian", n)]),
                ref_drop_trace([ref_product(F, S) for S in ref_gens("hermitian", n)]))
    zero = np.zeros((n, n), dtype=complex)
    h_x = [ref_product(F, A) for A in ref_gens("antihermitian", n)]
    h_y = [ref_product(F, S) for S in ref_gens("complex_sym", n)]
    m_x = ref_drop_trace([ref_product(F, Hg) for Hg in ref_gens("hermitian", n)])
    m_y = [ref_product(F, A) for A in ref_gens("complex_antisym", n)]
    h = [ref_quat_embed(X, zero) for X in h_x]
    h += [ref_quat_embed(zero, Y) for Y in h_y]
    m = [ref_quat_embed(X, zero) for X in m_x]
    m += [ref_quat_embed(zero, Y) for Y in m_y]
    return h, m


def test_closed_formula_spot_values():
    # hand-checked rows, one per field
    dim_h, dim_m, sig = formula_dims(Family("R", 3, 2))
    assert (dim_h, dim_m, sig) == (10, 14, (8, 6))
    dim_h, dim_m, sig = formula_dims(Family("C", 1, 1))
    assert (dim_h, dim_m, sig) == (3, 3, (1, 2))
    dim_h, dim_m, sig = formula_dims(Family("H", 1, 1))
    assert (dim_h, dim_m, sig) == (10, 5, (1, 4))


def test_dimension_table_matches_formulas():
    rows = dimension_table(default_families(2, 6))
    assert len(rows) > 0
    seen = set()
    for row in rows:
        assert row.match, row
        assert (row.dim_h, row.dim_m, row.signature) == row.formula
        seen.add(row.family.field)
    assert seen == set(ALL_FIELDS)


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_stacked_generators_match_per_matrix_loops_bit_for_bit(field):
    # tobytes, not a tolerance: every entry is exact, so every bit must match
    # the per-matrix construction with its zeros unsigned (+ 0.0 maps the
    # -0 of quat_embed's -Y and conjugates to +0), and no stored zero is -0
    cases = [(fam, "standard") for fam in default_families(2, 8) if fam.field == field]
    cases.append((Family(field, 2, 1), "canonical-T"))
    for fam, variant in cases:
        pair = build_pair(fam, variant)
        h, m = ref_generators(fam, variant)
        for got, ref in ((pair.h, h), (pair.m, m)):
            assert got._mat.tobytes() == (RealSubspace(ref)._mat + 0.0).tobytes(), (fam, variant)
            assert not np.signbit(got._mat[got._mat == 0]).any(), (fam, variant)


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_support_split_matches_the_full_factorization(field):
    # the rows outside the block are orthogonal to every other row exactly,
    # so the row norms and the block's singular values are the singular
    # values of the whole row matrix, and the frame built from them is an
    # orthonormal frame of its span
    for fam in default_families(2, 8):
        if fam.field != field:
            continue
        pair = build_pair(fam)
        for space in (pair.h, pair.m, ambient(pair)):
            block, support = space._block, space._support
            M = space._mat.T  # column i is realify of basis matrix i
            G = M.T @ M
            assert (G[~block] == np.diag(np.diag(G))[~block]).all(), fam
            assert not M[~support][:, block].any(), fam
            s_split = np.concatenate([space._norms[~block], np.linalg.svd(
                M[np.ix_(support, block)], compute_uv=False)])
            s_full = np.linalg.svd(M, compute_uv=False)
            assert_allclose([s_split.max(), s_split.min()], [s_full[0], s_full[-1]],
                            rtol=1e-12, atol=0)
            Q = space.frame
            assert_allclose(Q.T @ Q, np.eye(space.dim), rtol=0, atol=1e-12)
            gap = np.linalg.norm(M - Q @ (Q.T @ M), axis=0)
            assert (gap <= 1e-12 * np.linalg.norm(M, axis=0)).all(), fam


def test_build_pair_factorizes_no_full_height_matrix(monkeypatch):
    # H(6, 5): the row arrays of h and m have 2 N^2 = 968 coordinates; only
    # the block of trace-dropped diagonal generators reaches LAPACK
    shapes = []

    def recording(f):
        return lambda a, *args, **kw: shapes.append(a.shape) or f(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "svd", recording(np.linalg.svd))
    monkeypatch.setattr(np.linalg, "qr", recording(np.linalg.qr))
    pair = build_pair(Family("H", 6, 5))
    pair.m.frame
    assert shapes and all(max(shape) < 968 for shape in shapes), shapes


def test_family_validation():
    with pytest.raises(ValueError):
        Family("X", 2, 1)
    with pytest.raises(ValueError):
        Family("C", 0, 1)
    with pytest.raises(ValueError):
        Family("C", 2, -1)


def test_special_variant_needs_balanced_low_rank():
    with pytest.raises(ValueError):
        build_pair(Family("C", 3, 1), "canonical-T")


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_conjugation_preserves_the_split(field):
    pair = build_pair(Family(field, 2, 1))
    rng = np.random.default_rng(10)
    for _ in range(5):
        X = pair.h.random_element(rng)
        Y = pair.m.random_element(rng)
        # the negative conjugate transpose fixes both summands setwise
        assert pair.h.residual(pair.involution(X)) < 1e-10
        assert pair.m.residual(pair.involution(Y)) < 1e-10
        assert_allclose(pair.involution(pair.involution(X)), X, atol=1e-12)
        # automorphism property
        Z = pair.h.random_element(rng) + pair.m.random_element(rng)
        W = pair.h.random_element(rng) + pair.m.random_element(rng)
        assert_allclose(pair.involution(bracket(Z, W)),
                        bracket(pair.involution(Z), pair.involution(W)),
                        atol=1e-8)


@pytest.mark.parametrize("field", ALL_FIELDS)
@pytest.mark.parametrize("variant", ["standard", "canonical-T"])
def test_split_involution_eigenspaces(field, variant):
    # conjugating the negative conjugate transpose by the carrier form gives
    # the decomposition involution: +1 on h, -1 on m
    pair = build_pair(Family(field, 2, 1), variant)
    G = pair.carrier_form
    rng = np.random.default_rng(20)
    for _ in range(5):
        X = pair.h.random_element(rng)
        Y = pair.m.random_element(rng)
        assert_allclose(-G @ X.conj().T @ G, X, atol=1e-10)
        assert_allclose(-G @ Y.conj().T @ G, -Y, atol=1e-10)


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_bracket_relations_between_h_and_m(field):
    pair = build_pair(Family(field, 2, 1))
    rng = np.random.default_rng(11)
    for _ in range(5):
        X1, X2 = pair.h.random_element(rng), pair.h.random_element(rng)
        Y1, Y2 = pair.m.random_element(rng), pair.m.random_element(rng)
        assert pair.h.residual(bracket(X1, X2)) < 1e-8
        assert pair.h.residual(bracket(Y1, Y2)) < 1e-8
        assert pair.m.residual(bracket(X1, Y1)) < 1e-8
        assert abs(np.trace(X1 + Y2)) < 1e-9


def test_form_negative_definite_on_compact_isotropy_part():
    # the +1 eigenspace of the carrier-form conjugation inside h is compact
    pair = build_pair(Family("C", 2, 1))
    F = pair.hermitian_matrix
    fixed = kernel_of(pair.h, lambda X: F @ X @ F - X)
    assert fixed is not None and fixed.dim == 4
    _, sig = gram_signature(pair.form, fixed)
    assert sig == (0, 4, 0)


@pytest.mark.parametrize("field", ALL_FIELDS)
@pytest.mark.parametrize("pq", [(2, 1), (1, 1), (2, 2)])
def test_axiom_report_standard(field, pq):
    pair = build_pair(Family(field, *pq))
    rep = check_symmetric_axioms(pair, rng=np.random.default_rng(12))
    assert rep.ok, rep.failures()


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_axiom_report_special_variant(field):
    pair = build_pair(Family(field, 2, 1), "canonical-T")
    rep = check_symmetric_axioms(pair, rng=np.random.default_rng(13))
    assert rep.ok, rep.failures()


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_build_pair_leaves_the_ambient_algebra_unbuilt(field):
    # a pair is F and its two bases: no g = h + m and no Omega is built
    pair = build_pair(Family(field, 2, 1))
    assert not hasattr(pair, "g") and not hasattr(pair, "omega_matrix")
    assert set(vars(pair)) == set(pair._fields)


def test_corrupted_pair_fails_axioms():
    pair = build_pair(Family("C", 2, 1))
    bad = corrupt_pair(pair)
    # moving a generator between h and m leaves their sum where it was
    assert ambient(bad).equals(ambient(pair))
    rep = check_symmetric_axioms(bad, rng=np.random.default_rng(14))
    assert rep.n_fail > 0


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_corrupted_pair_fails_each_bracket_check(field):
    pair = corrupt_pair(build_pair(Family(field, 2, 1)))
    rep = check_symmetric_axioms(pair, rng=np.random.default_rng(14))
    checks = {c.name.split("standard_")[1]: c for c in rep.checks}
    assert [checks[f"bracket_{s}"].status for s in ("hh", "hm", "mm")] == ["fail"] * 3
    # the O(1) residuals of the control also match the pairwise loop
    h, m = pair.h, pair.m
    for name, args in (("hh", (h, h, h)), ("hm", (h, m, m)), ("mm", (m, m, h))):
        assert abs(checks[f"bracket_{name}"].observed - ref_max_residual(*args)) <= 1e-12


@pytest.mark.parametrize("field", ALL_FIELDS)
@pytest.mark.parametrize("pq", SIZES)
def test_axiom_residuals_match_pairwise_loops(field, pq):
    pair = build_pair(Family(field, *pq))
    rep = check_symmetric_axioms(pair, rng=np.random.default_rng(17))
    got = {c.name.split("standard_")[1]: c.observed for c in rep.checks}
    h, m = pair.h, pair.m
    want = {
        "bracket_hh": ref_max_residual(h, h, h),
        "bracket_hm": ref_max_residual(h, m, m),
        "bracket_mm": ref_max_residual(m, m, h),
        "involution_fixes_h": max(h.residual(pair.involution(b)) for b in h.basis),
        "involution_fixes_m": max(m.residual(pair.involution(b)) for b in m.basis),
        "form_orthogonal": max(abs(pair.form(a, b)) for a in h.basis for b in m.basis),
    }
    for name, value in want.items():
        assert abs(got[name] - value) <= 1e-12, name


@pytest.mark.parametrize("field", ALL_FIELDS)
@pytest.mark.parametrize("pq", SIZES)
def test_stacked_layer_matches_pairwise_loops(field, pq):
    # at (2, 1) the canonical-T pair too, whose isotropy constants are not
    # all integers (test_isotropy_constants_of_the_stored_bases)
    variants = ("standard", "canonical-T") if pq == (2, 1) else ("standard",)
    for variant in variants:
        pair = build_pair(Family(field, *pq), variant)
        rng = np.random.default_rng(18)
        for _ in range(3):
            X = pair.h.random_element(rng)
            assert_allclose(isotropy_matrix(pair, X), ref_isotropy_matrix(pair, X),
                            rtol=0, atol=1e-12)
        # h is closed under the bracket, m is not
        for space in (pair.h, pair.m):
            c, closed = structure_constants(space)
            c_ref, closed_ref = ref_structure_constants(space)
            assert closed == closed_ref == (space is pair.h)
            assert_allclose(c, c_ref, rtol=0, atol=1e-12)
        rebased = RealSubspace.span(pair.h.basis[::-1])
        wrong = corrupt_pair(pair).h
        for a, b, same in ((pair.h, rebased, True), (pair.h, wrong, False),
                           (pair.m, pair.m, True), (pair.h, pair.m, False)):
            assert a.equals(b) == ref_equals(a, b) == same, variant


def test_isotropy_constants_of_the_stored_bases():
    # the coordinates of [h_a, m_i] in the stored m basis are 0, +-1 or +-2
    # on every standard pair with 3 <= n <= 5; the canonical-T (2, 1) pairs
    # also take +-3/2
    integers = {0.0, 1.0, -1.0, 2.0, -2.0}
    cases = [(fam, "standard") for fam in default_families(3, 5)]
    cases += [(Family(field, 2, 1), "canonical-T") for field in ALL_FIELDS]
    for fam, variant in cases:
        pair = build_pair(fam, variant)
        M = isotropy_matrix(pair, pair.h.basis)
        halves = np.round(2 * M) / 2
        assert np.abs(M - halves).max() <= 1e-12, (fam, variant)
        values = set(np.unique(halves).tolist())
        if variant == "standard":
            assert values <= integers, (fam, values)
        else:
            assert values == integers | {1.5, -1.5}, (fam, values)


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_involution_acts_on_each_matrix_of_a_stack(field):
    pair = build_pair(Family(field, 2, 1))
    B = np.stack(pair.h.basis)
    assert_array_equal(pair.involution(B), np.stack([pair.involution(X) for X in B]))


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_isotropy_matrix_is_form_skew(field):
    pair = build_pair(Family(field, 2, 1))
    rng = np.random.default_rng(15)
    basis = pair.m.basis
    G = np.array([[pair.form(a, b) for b in basis] for a in basis])
    for _ in range(5):
        X = pair.h.random_element(rng)
        M = isotropy_matrix(pair, X)
        assert M.shape == (pair.m.dim, pair.m.dim)
        assert abs(np.trace(M)) < 1e-9
        assert_allclose(M.T @ G + G @ M, np.zeros_like(G), atol=1e-8)
        # the matrix really represents ad(X) in the chosen basis
        Y = pair.m.random_element(rng)
        assert_allclose(M @ pair.m.coords(Y), pair.m.coords(bracket(X, Y)),
                        atol=1e-8)


def test_isotropy_matrix_rejects_non_members():
    pair = build_pair(Family("C", 2, 1))
    Y = pair.m.random_element(np.random.default_rng(16))
    with pytest.raises(ValueError):
        isotropy_matrix(pair, Y)


CLOSURE_CASES = [(field, pq, "standard") for field in ALL_FIELDS
                 for pq in ((2, 1), (3, 2), (4, 4))]
CLOSURE_CASES += [(field, (2, 1), "canonical-T") for field in ALL_FIELDS]


@pytest.mark.parametrize("field, pq, variant", CLOSURE_CASES)
def test_halved_closure_equals_the_full_pairwise_loop_bit_for_bit(field, pq, variant):
    # [x_j, x_i] = -[x_i, x_j] has the same residual bit for bit, so the
    # pairs i < j give the maximum over every ordered pair exactly
    pair = build_pair(Family(field, *pq), variant)
    h, m = pair.h.basis, pair.m.basis
    for rows, target in ((h, pair.h), (m, pair.h)):
        got = max_bracket_residual(rows, target)
        assert got == ref_closure(rows, target) == max_bracket_residual(rows, target, rows)
    assert max_bracket_residual(h, pair.m, m) == ref_closure(h, pair.m, m)


def test_same_basis_closure_brackets_only_the_pairs_i_below_j(monkeypatch):
    pair = build_pair(Family("H", 3, 2))
    sizes = []
    residual = RealSubspace.residual
    monkeypatch.setattr(RealSubspace, "residual",
                        lambda self, X: sizes.append(len(X)) or residual(self, X))
    for space, target in ((pair.h, pair.h), (pair.m, pair.h)):
        k = space.dim
        sizes.clear()
        max_bracket_residual(space.basis, target)
        # row i brackets x_i with x_(i+1), ..., x_(k-1) only
        assert sizes == list(range(k - 1, 0, -1))
        assert sum(sizes) == k * (k - 1) // 2
    sizes.clear()
    max_bracket_residual(pair.h.basis, pair.m, pair.m.basis)
    assert sizes == [pair.m.dim] * pair.h.dim


@pytest.mark.parametrize("field", ALL_FIELDS)
@pytest.mark.parametrize("index", [0, -1], ids=["first", "last"])
def test_halved_closure_reports_a_perturbed_generator(field, index):
    # the first generator is only ever a row of the halved closure, the last
    # only a column; either way the defect reads as in the full loop
    pair = build_pair(Family(field, 3, 2))
    rows = np.array(pair.h.basis)
    rows[index, 0, 1] += 1e-3
    got = max_bracket_residual(rows, pair.h)
    assert got == ref_closure(rows, pair.h)
    assert got > 1e-5


def test_stacked_axiom_draws_take_the_normals_of_the_interleaved_loop(monkeypatch):
    pair = build_pair(Family("C", 3, 2))
    rng = np.random.default_rng(21)
    ref = copy.deepcopy(rng)
    g = ambient(pair)
    XY = g.random_element(rng, size=40)
    # the former loop drew X, then Y, twenty times
    normals = []
    for _ in range(20):
        normals += [ref.standard_normal(g.dim), ref.standard_normal(g.dim)]
    # so rows 0::2 of the stack are the X draws and rows 1::2 the Y draws
    assert_array_equal(XY, g.combine(np.stack(normals)))
    assert rng.bit_generator.state == ref.bit_generator.state
    # the check pairs X_t with Y_t, draw by draw.  The true involution is an
    # automorphism up to rounding, which can read exactly 0 on some BLAS
    # kernels; 1.5 times it fails by 0.75 |[X, Y]|, which depends on the pairing
    theta = pairs.SymmetricPair.involution
    monkeypatch.setattr(pairs.SymmetricPair, "involution",
                        lambda self, X: 1.5 * theta(self, X))
    rep = check_symmetric_axioms(pair, rng=np.random.default_rng(21))

    def auto(Xs, Ys):
        return max(np.linalg.norm(bracket(pair.involution(X), pair.involution(Y))
                                  - pair.involution(bracket(X, Y)), axis=(0, 1))
                   for X, Y in zip(Xs, Ys))

    observed = {c.name.split("standard_")[1]: c.observed for c in rep.checks}
    assert observed["involution_automorphism"] == auto(XY[0::2], XY[1::2]) > 1
    assert auto(XY[0::2], np.roll(XY[1::2], 1, axis=0)) != auto(XY[0::2], XY[1::2])
    # the whole check consumes the stream as the per-draw loops did
    rng, ref = np.random.default_rng(22), np.random.default_rng(22)
    check_symmetric_axioms(pair, rng=rng)
    for _ in range(40):
        ref.standard_normal(g.dim)
    for _ in range(10):
        ref.standard_normal(pair.h.dim)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_axiom_draws_are_bracketed_as_stacks(field, monkeypatch):
    pair = build_pair(Family(field, 3, 2))
    shapes = []
    monkeypatch.setattr(pairs, "bracket",
                        lambda X, Y: shapes.append((X.shape, Y.shape)) or bracket(X, Y))
    assert check_symmetric_axioms(pair).ok
    N = pair.carrier_dim
    # one stacked bracket for [tX, tY] and one for [X, Y], over all 20 draws
    assert shapes.count(((20, N, N), (20, N, N))) == 2
    # no bracket of two single matrices: no loop over the draws
    assert all(len(a) == 3 or len(b) == 3 for a, b in shapes)


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_isotropy_matrix_of_a_stack_is_the_stack_of_matrices(field):
    pair = build_pair(Family(field, 3, 2))
    rng = np.random.default_rng(19)
    Z = pair.h.random_element(rng, size=4)
    M = isotropy_matrix(pair, Z)
    assert M.shape == (4, pair.m.dim, pair.m.dim)
    assert_array_equal(M, np.stack([isotropy_matrix(pair, z) for z in Z]))
    bad = Z.copy()
    bad[2] = pair.m.random_element(rng)
    with pytest.raises(ValueError, match="isotropy algebra"):
        isotropy_matrix(pair, bad)


def test_build_pair_peak_memory_stays_near_its_bases():
    # each _mat is written from the index patterns, so no generator stack
    # is alive next to the two row arrays: the peak measured 1.09 of
    # them at H(6, 5) (2.08 with stacks); the bound leaves 0.11 for the
    # index arrays and the block's SVD
    build_pair(Family("H", 2, 1))
    tracemalloc.start()
    try:
        pair = build_pair(Family("H", 6, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * (pair.h._mat.nbytes + pair.m._mat.nbytes)
