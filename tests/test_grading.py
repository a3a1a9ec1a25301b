"""Tests for the closed-form conformal grading both case studies share: the
pieces against kernel_of references, the block-pattern bracket test against
the row loop it replaced, and negative controls for every grading check."""


import numpy as np
import pytest

import nullcone.casestudies as casestudies
import nullcone.linalg as linalg
from nullcone.casestudies import (
    _bracket_defect,
    _conformal_grading,
    _grading_defect,
    grading_report,
    sp21_build,
    su21_build,
)
from nullcone.linalg import DEFAULT_TOL, RealSubspace, bracket
from subspace_reference import kernel_of, orthogonal_algebra

# the sign patterns of the case studies (d = 12 for sp21, d = 6 for su21) and
# their negatives
PATTERNS = {
    "sp21": (1.0,) * 5 + (-1.0,) * 7,
    "sp21-flipped": (-1.0,) * 5 + (1.0,) * 7,
    "su21": (1.0,) * 3 + (-1.0,) * 3,
    "su21-flipped": (-1.0,) * 3 + (1.0,) * 3,
}
PIECES = ("p_minus", "p_zero", "p_plus", "p_full", "p_hat")


def so_of(grading):
    """so(Gamma) as the span of the three graded pieces of a grading."""
    return RealSubspace(np.concatenate([grading.p_minus.basis, grading.p_zero.basis,
                                        grading.p_plus.basis]))


def form_matrix(eps):
    N = len(eps) + 2
    G = np.zeros((N, N))
    G[0, N - 1] = G[N - 1, 0] = 1.0
    G[1:N - 1, 1:N - 1] = np.diag(eps)
    return G


def kernel_of_grading(eps):
    """Reference: so(Gamma) as the kernel of A -> A^T Gamma + Gamma A over
    all N x N matrices, and each piece as a kernel_of of its defining map."""
    G = form_matrix(eps)
    N = len(G)
    so = orthogonal_algebra(G)
    E_grad = np.diag([1.0] + [0.0] * (N - 2) + [-1.0]).astype(complex)
    unit = np.eye(N)
    maps = {
        "p_minus": lambda A: bracket(E_grad, A) + A,
        "p_zero": lambda A: bracket(E_grad, A),
        "p_plus": lambda A: bracket(E_grad, A) - A,
        "p_full": lambda A: (A @ unit[0])[..., 1:],
        "p_hat": lambda A: (A @ unit[N - 1])[..., :N - 1],
    }
    return so, {name: kernel_of(so, f) for name, f in maps.items()}


@pytest.mark.parametrize("pattern", PATTERNS)
def test_closed_form_pieces_are_the_kernel_of_pieces(pattern):
    eps = PATTERNS[pattern]
    d = len(eps)
    got = _conformal_grading(eps, DEFAULT_TOL)
    so, want = kernel_of_grading(eps)
    assert np.array_equal(got.Gamma, form_matrix(eps))
    assert so_of(got).dim == so.dim == (d + 2) * (d + 1) // 2
    assert so_of(got).equals(so)
    parabolic = (d + 2) * (d + 1) // 2 - d
    dims = (d, d * (d - 1) // 2 + 1, d, parabolic, parabolic)
    for name, dim in zip(PIECES, dims):
        assert getattr(got, name).dim == want[name].dim == dim, name
        assert getattr(got, name).equals(want[name]), name


@pytest.mark.parametrize("pattern", PATTERNS)
def test_grading_build_factorizes_nothing(pattern, monkeypatch):
    # every piece is a subset of the so(Gamma) basis with disjoint supports,
    # so no kernel is solved and neither svd nor qr runs
    shapes = []

    def recording(f):
        return lambda a, *args, **kw: shapes.append(a.shape) or f(a, *args, **kw)

    def no_kernel(*args, **kw):
        raise AssertionError("a kernel was solved during a grading build")

    casestudies._conformal_grading.cache_clear()
    monkeypatch.setattr(np.linalg, "svd", recording(np.linalg.svd))
    monkeypatch.setattr(np.linalg, "qr", recording(np.linalg.qr))
    monkeypatch.setattr(linalg, "_kernel_cols", no_kernel)
    grading = _conformal_grading(PATTERNS[pattern], DEFAULT_TOL)
    casestudies._conformal_grading.cache_clear()
    assert grading.p_zero.dim > 0 and shapes == []


def row_loop_brackets(p_minus, p_zero, p_plus):
    """Reference: the former check, one bracket stack per basis row, each
    measured by its distance to the target piece or by its norm."""
    lower, upper = p_minus.basis, p_plus.basis
    w = 0.0
    for A in p_zero.basis:
        w = max(w, p_minus.residual(bracket(A, lower)).max(),
                p_plus.residual(bracket(A, upper)).max())
    for A in p_minus.basis:
        w = max(w, np.linalg.norm(bracket(A, lower), axis=(-2, -1)).max())
    for A in p_plus.basis:
        w = max(w, np.linalg.norm(bracket(A, upper), axis=(-2, -1)).max(),
                p_zero.residual(bracket(A, lower)).max())
    return w


def pattern_brackets(data):
    return grading_report(data, "x").checks[-1]


def perturbed(space, index, entry, value):
    """The space with entry (r, c) of one basis element moved by value."""
    basis = np.array(space.basis)
    basis[index][entry] += value
    return RealSubspace(basis)


@pytest.fixture(scope="module", params=["su21", "sp21"])
def data(request):
    return {"su21": su21_build, "sp21": sp21_build}[request.param]()


def test_pattern_check_agrees_with_the_row_loop(data):
    pieces = (data.p_minus, data.p_zero, data.p_plus)
    check = pattern_brackets(data)
    assert check.status == "pass" and row_loop_brackets(*pieces) <= 1e-8
    N = len(data.Gamma)
    variants = {
        # an entry of degree 0 in a lowering element
        "off-pattern": ("p_minus", 2, (3, 3), 1e-3),
        # an in-pattern entry moved without its so(Gamma) partner
        "outside so": ("p_plus", 1, (0, 2), 1e-3),
        # an entry of degree -1 in a degree-zero element
        "off-pattern p0": ("p_zero", 4, (N - 1, 2), 1e-3),
    }
    for name, (piece, index, entry, value) in variants.items():
        bad = data._replace(
            **{piece: perturbed(getattr(data, piece), index, entry, value)})
        pieces = (bad.p_minus, bad.p_zero, bad.p_plus)
        check = pattern_brackets(bad)
        assert check.status == "fail" and check.observed >= 1e-4, name
        assert row_loop_brackets(*pieces) > 1e-8, name


def test_bracket_defect_matches_brackets_stacked_in_full(data):
    # reference: every bracket formed as a (k, k', N, N) stack, its entries
    # off the degree pattern and its so(Gamma) residual read directly
    G = data.Gamma
    w = np.eye(len(G))[0] - np.eye(len(G))[-1]
    rng = np.random.default_rng(0)
    lo = data.p_minus.basis.real + 1e-3 * rng.standard_normal(data.p_minus.basis.shape)
    mid = data.p_zero.basis.real[:5]
    M = bracket(mid[:, None], lo[None])
    off = w[:, None] - w != -1
    leak = np.abs(M[..., off]).max()
    so = np.abs(np.swapaxes(M, -1, -2) @ G + G @ M).max()
    got = _bracket_defect(G, mid, lo, -1)
    # the two products bound twice the bracket's leak, 2 |T| its residual
    assert got >= max(leak / 2, so) > 1e-4
    assert got <= 10 * max(leak, so)


def test_grading_element_outside_the_orthogonal_algebra_fails(monkeypatch):
    eps = PATTERNS["su21"]
    G = form_matrix(eps)
    bad = np.eye(len(G))[0] + np.eye(len(G))[-1]  # diag(1, 0, ..., 0, 1)
    assert _grading_defect(G, np.diag(bad), 0) >= 1.0
    assert _grading_defect(G, np.diag(np.eye(len(G))[0] - np.eye(len(G))[-1]), 0) == 0.0
    casestudies._conformal_grading.cache_clear()
    monkeypatch.setattr(casestudies, "_grading_weights", lambda N: np.eye(N)[0] + np.eye(N)[-1])
    with pytest.raises(ValueError, match="certificate"):
        _conformal_grading(eps, DEFAULT_TOL)
    casestudies._conformal_grading.cache_clear()


def test_grading_defect_reads_pattern_and_form():
    G = form_matrix(PATTERNS["su21"])
    A = _conformal_grading(PATTERNS["su21"], DEFAULT_TOL).p_minus.basis.real
    assert _grading_defect(G, A, -1) == 0.0
    assert _grading_defect(G, A, 0) > 0.5  # right form, wrong degree
    B = A.copy()
    B[0][B[0] != 0] *= [1.0, 2.0]  # right pattern, outside so(Gamma)
    assert _grading_defect(G, B, -1) >= 1.0


def test_su21_grading_checks_pass():
    rep = grading_report(su21_build(), "su21")
    assert [(c.name, c.status) for c in rep.checks] == [
        ("su21_grading_dims", "pass"), ("su21_parabolic_dims", "pass"),
        ("su21_b_inside_p0", "pass"), ("su21_grading_brackets", "pass")]
    assert rep.checks[0].observed == (6, 16, 6) and rep.checks[1].observed == (22, 22)
    assert rep.checks[2].observed <= 1e-14 and rep.checks[3].observed <= 1e-14


def test_su21_grading_frame():
    data = su21_build()
    assert data.graded_basis.shape == (8, 3, 3)
    assert np.array_equal(np.diag(data.Gamma), [0.0, 1, 1, 1, -1, -1, -1, 0])
    G = np.array([[data.pair.form(x, y) for y in data.graded_basis]
                  for x in data.graded_basis])
    assert np.abs(G - data.Gamma).max() < 1e-12
    assert data.pair.m.residual(data.graded_basis).max() < 1e-12


@pytest.mark.parametrize("check,change", [
    ("grading_dims", lambda d: {"p_minus": RealSubspace(d.p_minus.basis[:-1])}),
    ("parabolic_dims", lambda d: {"p_full": so_of(d)}),
    # the complement is graded of degree -1 and +1, not 0
    ("b_inside_p0", lambda d: {"split": d.split._replace(
        b=RealSubspace(d.n_space.basis[:2]))}),
    ("grading_brackets", lambda d: {"p_plus": perturbed(d.p_plus, 0, (1, 1), 1e-3)}),
], ids=["dims", "parabolic", "b", "brackets"])
def test_each_grading_check_has_a_failing_control(data, check, change):
    study = "su21" if len(data.Gamma) == 8 else "sp21"
    rep = grading_report(data._replace(**change(data)), study)
    status = {c.name: c.status for c in rep.checks}
    assert status.pop(f"{study}_{check}") == "fail"
    assert set(status.values()) == {"pass"}


def test_pieces_are_real_and_disjointly_supported(data):
    for name in PIECES:
        piece = getattr(data, name)
        assert not np.abs(piece.basis.imag).any(), name
        assert not piece._block.any(), name
    # each basis is the piece's members of Gamma (E_ab - E_ba) in triu_indices
    # order, bit for bit as one matrix at a time builds them
    unit = np.eye(len(data.Gamma))
    so = np.stack([data.Gamma @ (np.outer(unit[i], unit[j]) - np.outer(unit[j], unit[i]))
                   for i, j in zip(*np.triu_indices(len(unit), 1))])
    for name in PIECES:
        piece = getattr(data, name)
        want = RealSubspace(so[piece.contains(so)])
        assert piece._mat.tobytes() == want._mat.tobytes(), name
