"""The two worked homogeneous examples, hard-coded and verified.

Case study 1: the rank-two complex family at (2, 1) in the antidiagonal
frame.  The six-dimensional complement of the diagonal ray stabilizer
carries a para-complex structure J (+1 on one totally null half, -1 on
the other); the checks reproduce its bracket table, the one-parameter
diagonal conjugation action, the nearly para-Kahler identity, the
constant-type constant 1/2 and the Einstein constant 5/2.

Case study 2: the quaternionic family at (2, 1) in the same frame.  The
nine-dimensional stabilizer splits as a compact rank-one piece plus a
complex special-linear piece; the checks reproduce the coordinate action
formulas, the signed orthonormal nine-frame, the Casimir constant 6, the
duality identity with constant 12 a^2, the graded decomposition of the
orthogonal algebra of the fourteen-dimensional tangent summand, and the
explicit isometry onto the orthogonal complement of the sampled ray pair.

All numeric conventions (trace form for case study 1, half-trace form for
case study 2) are inherited from the constructed pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    BilinForm,
    DEFAULT_TOL,
    QMat,
    RealSubspace,
    Tolerance,
    algebra_profile,
    bracket,
    expm,
    gram_matrix,
    gram_signature,
    max_bracket_residual,
    orth_complement,
    quat_embed,
    signed_gram_schmidt,
)
from .orbits import make_null_vector, stabilizer_of_ray
from .pairs import Family, SymmetricPair, build_pair
from .reductive import (
    ReductiveSplit,
    bianchi_residual,
    casimir,
    einstein_fit,
    frame_ad,
    frame_casimir,
    frame_coords,
    homothety_check,
    reductive_split,
    torsion_derivation_check,
    torsion_eval,
    wang_ziller_check,
)
from .report import Report

SQRT3 = np.sqrt(3.0)


def _rand_complex(rng: np.random.Generator) -> complex:
    return complex(rng.standard_normal(), rng.standard_normal())


def _worst_norm(X: np.ndarray) -> float:
    """Largest Frobenius norm in a stack (0 for an empty stack)."""
    return float(np.linalg.norm(X, axis=(-2, -1)).max(initial=0.0))


def _draw(rng: np.random.Generator, trials: int, *spaces: RealSubspace) -> list:
    """One element stack per space, from one standard_normal((trials, k)) draw.

    Row t draws the coefficients of each space in turn, so the stacks hold
    the numbers a per-trial loop of random_element calls, one per space,
    would draw from the same stream.
    """
    cuts = np.cumsum([sp.dim for sp in spaces])
    coeffs = np.split(rng.standard_normal((trials, cuts[-1])), cuts[:-1], axis=1)
    return [sp.combine(c) for sp, c in zip(spaces, coeffs)]


# ---------------------------------------------------------------------------
# case study 1: complex (2, 1), antidiagonal frame
# ---------------------------------------------------------------------------


def v_plus(x: complex, d: float) -> np.ndarray:
    return np.array(
        [[0, 0, 1j * d], [x, 0, 0], [0, -np.conj(x), 0]], dtype=complex
    )


def v_minus(y: complex, g: float) -> np.ndarray:
    return np.array(
        [[0, y, 0], [0, 0, -np.conj(y)], [1j * g, 0, 0]], dtype=complex
    )


def b_diag(alpha: float, beta: float) -> np.ndarray:
    return np.diag(
        [beta - 1j * alpha, 2j * alpha, -beta - 1j * alpha]
    ).astype(complex)


def b_group(phi: float, r: float) -> np.ndarray:
    """One-parameter diagonal family stabilizing the sampled ray."""
    return np.diag(
        [r * np.exp(1j * phi), np.exp(-2j * phi), np.exp(1j * phi) / r]
    ).astype(complex)


@dataclass
class SU21Data:
    a: float
    mu: complex
    pair: SymmetricPair
    S: np.ndarray
    S_hat: np.ndarray
    b_basis: list
    n_basis: list
    n_plus: RealSubspace
    n_minus: RealSubspace
    n_space: RealSubspace
    n_ginv: np.ndarray
    split: ReductiveSplit

    def J(self, X: np.ndarray) -> np.ndarray:
        """Para-complex structure: +1 on the plus half, -1 on the minus half.

        X lies in n (or is a stack of such); n_ginv is the inverse Gram
        matrix of n_basis, through which frame_coords reads coordinates."""
        c = frame_coords(self.pair.form, self.n_space.basis, self.n_ginv, X)
        return self.n_space.combine(c * np.repeat([1.0, -1.0], 3))


def su21_build(a: float = 1.0, seed: int = 0,
               tol: Tolerance = DEFAULT_TOL) -> SU21Data:
    """Construct and cross-check the complex (2, 1) case study."""
    if a == 0:
        raise ValueError("the ray parameter a must be nonzero")
    mu = a * (1 + 1j * SQRT3)
    pair = build_pair(Family("C", 2, 1), "canonical-T", tol=tol)
    S = np.diag([mu, -2 * a, np.conj(mu)]).astype(complex)
    S_hat = pair.involution(S)
    b_basis = [b_diag(1, 0), b_diag(0, 1)]
    n_basis = [v_plus(1, 0), v_plus(1j, 0), v_plus(0, 1),
               v_minus(1, 0), v_minus(1j, 0), v_minus(0, 1)]
    if pair.h.residual(np.stack(b_basis + n_basis)).max() > tol.abs:
        raise ValueError("case-study basis element escapes the isotropy algebra")
    nv = make_null_vector(pair, S, tol)
    if nv.nullity_residual[0] > tol.abs:
        raise ValueError("ray vector is not null")
    stab = stabilizer_of_ray(pair, nv, tol)
    b_space = RealSubspace(b_basis, tol=tol)
    if stab.dims[0] != 2 or not b_space.equals(stab.subspace(pair, 0, tol)):
        raise ValueError("hard-coded stabilizer disagrees with the computed one")
    split = reductive_split(pair, b_space, tol, rng=seed)
    _, sig = gram_signature(pair.form, split.n, tol)
    if split.dim_n != 6 or sig[:2] != (3, 3):
        raise ValueError("unexpected complement dimensions or signature")
    return SU21Data(
        a=a, mu=mu, pair=pair, S=S, S_hat=S_hat,
        b_basis=b_basis, n_basis=n_basis,
        n_plus=RealSubspace(n_basis[:3], tol=tol),
        n_minus=RealSubspace(n_basis[3:], tol=tol),
        n_space=RealSubspace(n_basis, tol=tol),
        n_ginv=np.linalg.inv(gram_matrix(pair.form, n_basis)),
        split=split,
    )


def su21_invariants(data: SU21Data, tol: Tolerance = DEFAULT_TOL) -> Report:
    """Structural invariants: totally null halves, bracket routing, J algebra."""
    rep = Report(suite="su21_invariants")
    K = data.pair.form
    plus, minus = data.n_plus.basis, data.n_minus.basis
    null = max(np.abs(gram_matrix(K, plus)).max(), np.abs(gram_matrix(K, minus)).max())
    rep.residual("su21_n_halves_totally_null", float(null), tol.abs,
                 anchor="each half of the complement is totally null")
    mixed = max_bracket_residual(plus, minus, RealSubspace(data.b_basis))
    rep.residual("su21_bracket_mixed_into_b", mixed, tol.abs,
                 anchor="mixed brackets land in the stabilizer")
    pp = max_bracket_residual(plus, plus, data.n_minus)
    mm = max_bracket_residual(minus, minus, data.n_plus)
    rep.residual("su21_bracket_pure_swaps_halves", max(pp, mm), tol.abs,
                 anchor="brackets of pure elements swap the two halves")
    X, Y = _draw(np.random.default_rng(1), 50, data.n_space, data.n_space)
    JX = data.J(X)
    worst_sq = _worst_norm(data.J(JX) - X)
    worst_iso = float(np.abs(K(JX, data.J(Y)) + K(X, Y)).max())
    rep.residual("su21_J_squares_to_identity", worst_sq, tol.abs,
                 anchor="para-complex structure squares to the identity")
    rep.residual("su21_J_anti_isometry", worst_iso, 1e-7,
                 anchor="the structure reverses the sign of the form")
    return rep


def su21_bracket_table(data: SU21Data, trials: int = 100, rng=0,
                       tol: Tolerance = DEFAULT_TOL) -> Report:
    """The three closed-form brackets of the graded basis elements."""
    rng = np.random.default_rng(rng)
    rep = Report(suite="su21_brackets")
    spot = bracket(v_plus(1, 0), v_minus(1, 0))
    rep.residual("su21_bracket_spot_value",
                 float(np.linalg.norm(spot - np.diag([-1, 0, 1]))), tol.abs,
                 anchor="unit spot check of the mixed bracket")
    rep.residual("su21_bracket_self",
                 float(np.linalg.norm(bracket(v_plus(1.5, 0.5), v_plus(1.5, 0.5)))),
                 tol.abs, anchor="bracket of an element with itself vanishes")
    w_pm = w_pp = w_mm = 0.0
    for _ in range(trials):
        x, y = _rand_complex(rng), _rand_complex(rng)
        d, g = rng.standard_normal(), rng.standard_normal()
        got = bracket(v_plus(x, d), v_minus(y, g))
        want = np.diag([-g * d - x * y,
                        x * y - np.conj(x * y),
                        g * d + np.conj(x * y)]).astype(complex)
        w_pm = max(w_pm, float(np.linalg.norm(got - want)))
        got = bracket(v_plus(x, g), v_plus(y, d))
        want = v_minus(1j * (d * np.conj(x) - g * np.conj(y)),
                       (-1j * (x * np.conj(y) - np.conj(x) * y)).real)
        w_pp = max(w_pp, float(np.linalg.norm(got - want)))
        got = bracket(v_minus(x, g), v_minus(y, d))
        want = v_plus(-1j * (d * np.conj(x) - g * np.conj(y)),
                      (1j * (x * np.conj(y) - np.conj(x) * y)).real)
        w_mm = max(w_mm, float(np.linalg.norm(got - want)))
    rep.residual("su21_bracket_mixed_formula", w_pm, tol.abs,
                 anchor="mixed bracket closed form")
    rep.residual("su21_bracket_plus_formula", w_pp, tol.abs,
                 anchor="plus-half bracket closed form")
    rep.residual("su21_bracket_minus_formula", w_mm, tol.abs,
                 anchor="minus-half bracket closed form")
    return rep


def su21_ad_action(data: SU21Data, phi: float = np.pi / 3, r: float = 2.0,
                   trials: int = 20, rng=0,
                   tol: Tolerance = DEFAULT_TOL) -> Report:
    """Conjugation by the diagonal group family versus the parameter map."""
    if r == 0:
        raise ValueError("r must be nonzero")
    rng = np.random.default_rng(rng)
    rep = Report(suite="su21_ad")
    T = data.pair.hermitian_matrix
    b = b_group(phi, r)
    rep.residual("su21_ad_group_membership",
                 float(np.abs(b.conj().T @ T @ b - T).max())
                 + abs(np.linalg.det(b) - 1), 1e-9,
                 anchor="family lies in the form-preserving group")
    rep.residual("su21_ad_fixes_ray",
                 float(np.linalg.norm(b @ data.S @ np.linalg.inv(b) - data.S)),
                 1e-9, anchor="family fixes the sampled ray")
    ident = b_group(0.0, 1.0)
    rep.residual("su21_ad_identity_parameters",
                 float(np.abs(ident - np.eye(3)).max()), tol.abs,
                 anchor="trivial parameters give the identity")
    worst = 0.0
    binv = np.linalg.inv(b)
    for _ in range(trials):
        x, y = _rand_complex(rng), _rand_complex(rng)
        d, g = rng.standard_normal(), rng.standard_normal()
        V = v_plus(x, d) + v_minus(y, g)
        got = b @ V @ binv
        want = (v_plus(np.exp(-3j * phi) * x / r, r**2 * d)
                + v_minus(r * np.exp(3j * phi) * y, g / r**2))
        worst = max(worst, float(np.linalg.norm(got - want)))
    rep.residual("su21_ad_parameter_map", worst, 1e-9,
                 anchor="conjugation acts by the stated parameter scaling")
    wlaw = 0.0
    for _ in range(trials):
        p1, p2 = rng.uniform(-np.pi, np.pi, 2)
        r1, r2 = rng.uniform(0.3, 3.0, 2)
        wlaw = max(wlaw, float(np.abs(
            b_group(p1, r1) @ b_group(p2, r2) - b_group(p1 + p2, r1 * r2)
        ).max()))
    rep.residual("su21_ad_group_law", wlaw, 1e-9,
                 anchor="parameters compose additively and multiplicatively")
    return rep


def su21_nabla_J(data: SU21Data, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Covariant derivative of J along the canonical connection (X and Y
    may be stacks)."""
    t = lambda u, v: torsion_eval(data.split, u, v)
    return 0.5 * (data.J(t(X, Y)) - t(X, data.J(Y)))


def su21_nabla_J_report(data: SU21Data, trials: int = 100, rng=0) -> Report:
    """The nearly para-Kahler identities of the structure derivative over
    random pairs: it vanishes on equal arguments, anticommutes with J, and
    on pure elements of the plus half it is minus the torsion."""
    rep = Report(suite="su21_nabla_J")
    X, Y, Xp, Yp = _draw(np.random.default_rng(rng), trials,
                         data.n_space, data.n_space, data.n_plus, data.n_plus)
    w_diag = _worst_norm(su21_nabla_J(data, X, X))
    w_anti = _worst_norm(su21_nabla_J(data, X, data.J(Y))
                         + data.J(su21_nabla_J(data, X, Y)))
    w_pure = _worst_norm(su21_nabla_J(data, Xp, Yp) + torsion_eval(data.split, Xp, Yp))
    rep.residual("su21_nablaJ_vanishes_on_diagonal", w_diag, 1e-9,
                 anchor="the structure derivative vanishes on equal arguments")
    rep.residual("su21_nablaJ_anticommutes", w_anti, 1e-9,
                 anchor="the structure derivative anticommutes with the structure")
    rep.residual("su21_nablaJ_pure_type", w_pure, 1e-9,
                 anchor="on pure elements the derivative is minus the torsion")
    return rep


def su21_constant_type(data: SU21Data, trials: int = 500, rng=0):
    """Fit of the constant-type constant over random pairs.

    Returns (Lambda, max relative residual) using only draws where the
    quartic right side is bounded away from zero.
    """
    K = data.pair.form
    X, Y = _draw(np.random.default_rng(rng), trials, data.n_space, data.n_space)
    D = su21_nabla_J(data, X, Y)
    lhs = K(D, D)
    rhs = K(X, X) * K(Y, Y) - K(X, Y) ** 2 + K(data.J(X), Y) ** 2
    keep = np.abs(rhs) > 1e-3
    if not keep.any():
        raise ValueError("all sampled right sides were degenerate; resample")
    lams = lhs[keep] / rhs[keep]
    lam = float(np.median(lams))
    max_rel = float(np.abs(lams - lam).max() / max(abs(lam), 1e-12))
    return lam, max_rel


def _first_bianchi_worst(split: ReductiveSplit, space: RealSubspace, seed: int) -> float:
    """Largest first-Bianchi residual over ten random triples of `space`,
    drawn from default_rng(seed + 1)."""
    u, v, w = _draw(np.random.default_rng(seed + 1), 10, space, space, space)
    return float(bianchi_residual(split, u, v, w).max())


def su21_report(seed: int = 0, trials: int = 100, tol: Tolerance = DEFAULT_TOL) -> Report:
    """Every check of the complex (2, 1) case study, as the su21 suite runs it."""
    rep = Report("su21", seed)
    d = su21_build(seed=seed, tol=tol)
    rep.absorb(su21_invariants(d, tol))
    rep.absorb(su21_bracket_table(d, trials=trials, rng=seed, tol=tol))
    rep.absorb(su21_ad_action(d, trials=min(trials, 50), rng=seed, tol=tol))
    rep.absorb(su21_nabla_J_report(d, trials=trials, rng=seed))
    lam, lam_res = su21_constant_type(d, trials=max(trials, 100), rng=seed)
    rep.add("su21_constant_type", abs(lam - 0.5) <= 1e-8, lam, 0.5, 1e-8,
            anchor="constant-type constant of the structure")
    rep.residual("su21_constant_type_spread", lam_res, 1e-8,
                 anchor="the fitted constant is constant across draws")
    ein, ein_res = einstein_fit(d.split)
    rep.add("su21_einstein", abs(ein - 2.5) <= 1e-7, ein, 2.5, 1e-7,
            anchor="Einstein constant of the induced metric")
    rep.residual("su21_einstein_isotropy", ein_res, 1e-7,
                 anchor="Ricci tensor is an exact multiple of the metric")
    rep.add("su21_einstein_is_five_lambda", abs(ein - 5 * lam) <= 1e-7,
            ein - 5 * lam, 0.0, 1e-7,
            anchor="Einstein constant equals five times the type constant")
    rep.absorb(torsion_derivation_check(d.split), "su21_")
    chi = casimir(d.split, rng=seed)
    rep.residual("su21_casimir_multiple", float(np.abs(chi - 2.0 * np.eye(6)).max()),
                 1e-8, anchor="Casimir acts as twice the identity (derived value)")
    wz_ok, wz_c = wang_ziller_check(chi)
    rep.equals("su21_wang_ziller", wz_ok, True,
               anchor="Casimir is a multiple of the identity")
    rep.info("su21_wang_ziller_constant", wz_c,
             anchor="fitted Casimir multiple")
    hk, note = homothety_check(d.split, d.S, d.S_hat, tol=tol)
    rep.equals("su21_partner_complement_matches", hk, True, anchor=note)
    rep.info("su21_first_bianchi_residual", _first_bianchi_worst(d.split, d.n_space, seed),
             anchor="cyclic curvature sum minus torsion terms, reported only")
    return rep


# ---------------------------------------------------------------------------
# case study 2: quaternionic (2, 1), antidiagonal frame
# ---------------------------------------------------------------------------


def _adiag(y1, y2, y3) -> np.ndarray:
    return np.array([[0, 0, y1], [0, y2, 0], [y3, 0, 0]], dtype=complex)


def B_elem(z: complex, x: float, y1: complex, y2: complex, y3: complex) -> np.ndarray:
    """Stabilizer element with first block diag(z, ix, -conj(z))."""
    X = np.diag([z, 1j * x, -np.conj(z)]).astype(complex)
    return quat_embed(QMat(X, _adiag(y1, y2, y3)))


def N_elem(z1, z2, x1, x2, y1, y2, y3) -> np.ndarray:
    """Complement element in the seven-parameter coordinate chart."""
    X = np.array(
        [[0, z1, 1j * x1], [z2, 0, -np.conj(z1)], [1j * x2, -np.conj(z2), 0]],
        dtype=complex,
    )
    Y = np.array([[y1, y2, 0], [y3, 0, y2], [0, y3, y1]], dtype=complex)
    return quat_embed(QMat(X, Y))


def Nhat_elem(z1, z2, x1, x2, y1, y2, y3) -> np.ndarray:
    """Tangent-summand element matching the complement chart (see map below)."""
    X = np.array(
        [[0, z1, x1], [z2, 0, np.conj(z1)], [x2, np.conj(z2), 0]], dtype=complex
    )
    Y = np.array([[y1, y2, 0], [y3, 0, -y2], [0, -y3, -y1]], dtype=complex)
    return quat_embed(QMat(X, Y))


def n_params(N: np.ndarray) -> tuple:
    """Invert N_elem: read the seven chart parameters off the matrix."""
    X, Y = N[:3, :3], -N[:3, 3:]
    return (X[0, 1], X[1, 0], X[0, 2].imag, X[2, 0].imag,
            Y[0, 0], Y[0, 1], Y[1, 0])


def hatn_isometry_map(N: np.ndarray) -> np.ndarray:
    """The explicit chart-level map from the complement into the tangent
    summand: flip the sign of the second real parameter, keep the rest."""
    z1, z2, x1, x2, y1, y2, y3 = n_params(N)
    return Nhat_elem(z1, z2, x1, -x2, y1, y2, y3)


@dataclass
class SP21Data:
    a: float
    mu: complex
    pair: SymmetricPair
    S: np.ndarray
    S_hat: np.ndarray
    b_basis: list
    n_basis: list
    b1: RealSubspace
    b2: RealSubspace
    n1: RealSubspace
    n2: RealSubspace
    A_basis: list
    eps_A: np.ndarray
    split: ReductiveSplit
    # graded frame of the tangent summand and the orthogonal algebra on it
    graded_basis: np.ndarray | None = None
    Gamma: np.ndarray | None = None
    so_space: RealSubspace | None = None
    p_full: RealSubspace | None = None
    p_hat: RealSubspace | None = None
    p_minus: RealSubspace | None = None
    p_zero: RealSubspace | None = None
    p_plus: RealSubspace | None = None

    def rho(self, X: np.ndarray) -> np.ndarray:
        """Matrix of ad(X) on the graded frame of the tangent summand.

        Gamma is its own inverse, so it is also the inverse Gram matrix the
        frame coordinates are read with.  X may be a stack.
        """
        return frame_ad(self.pair.form, self.graded_basis, self.Gamma, X)

    def rho_minus(self, X: np.ndarray) -> np.ndarray:
        """Lowering component of rho(X) in the graded block pattern."""
        x = self.rho(X)[..., 1:13, 0]
        eps = np.diag(self.Gamma)[1:13]
        out = np.zeros(x.shape[:-1] + (14, 14))
        out[..., 1:13, 0] = x
        out[..., 13, 1:13] = -x * eps
        return out

    def rho_plus(self, X: np.ndarray) -> np.ndarray:
        """Raising component of rho(X) in the graded block pattern."""
        y = self.rho(X)[..., 1:13, 13]
        eps = np.diag(self.Gamma)[1:13]
        out = np.zeros(y.shape[:-1] + (14, 14))
        out[..., 1:13, 13] = y
        out[..., 0, 1:13] = -y * eps
        return out


def sp21_build(mu: complex | None = None, seed: int = 0, a: float = 1.0,
               tol: Tolerance = DEFAULT_TOL) -> SP21Data:
    """Construct and cross-check the quaternionic (2, 1) case study."""
    if mu is None:
        mu = a * (1 + 1j * SQRT3)
    a = float(mu.real)
    if a == 0 or abs(mu.imag**2 - 3 * a * a) > 1e-9 * abs(mu) ** 2:
        raise ValueError("need mu = a(1 + i sqrt(3)) with nonzero a for a null ray")
    pair = build_pair(Family("H", 2, 1), "canonical-T", tol=tol)
    S0 = np.diag([mu, -2 * a, np.conj(mu)]).astype(complex)
    S = quat_embed(QMat(S0, np.zeros((3, 3), dtype=complex)))
    S_hat = pair.involution(S)
    b_basis = [B_elem(1, 0, 0, 0, 0), B_elem(1j, 0, 0, 0, 0), B_elem(0, 1, 0, 0, 0),
               B_elem(0, 0, 1, 0, 0), B_elem(0, 0, 1j, 0, 0),
               B_elem(0, 0, 0, 1, 0), B_elem(0, 0, 0, 1j, 0),
               B_elem(0, 0, 0, 0, 1), B_elem(0, 0, 0, 0, 1j)]
    n_basis = [N_elem(1, 0, 0, 0, 0, 0, 0), N_elem(1j, 0, 0, 0, 0, 0, 0),
               N_elem(0, 1, 0, 0, 0, 0, 0), N_elem(0, 1j, 0, 0, 0, 0, 0),
               N_elem(0, 0, 1, 0, 0, 0, 0), N_elem(0, 0, 0, 1, 0, 0, 0),
               N_elem(0, 0, 0, 0, 1, 0, 0), N_elem(0, 0, 0, 0, 1j, 0, 0),
               N_elem(0, 0, 0, 0, 0, 1, 0), N_elem(0, 0, 0, 0, 0, 1j, 0),
               N_elem(0, 0, 0, 0, 0, 0, 1), N_elem(0, 0, 0, 0, 0, 0, 1j)]
    if pair.h.residual(np.stack(b_basis + n_basis)).max() > tol.abs:
        raise ValueError("case-study basis element escapes the isotropy algebra")
    nv = make_null_vector(pair, S, tol)
    if nv.nullity_residual[0] > tol.abs:
        raise ValueError("ray vector is not null")
    stab = stabilizer_of_ray(pair, nv, tol)
    b_space = RealSubspace(b_basis, tol=tol)
    if stab.dims[0] != 9 or not b_space.equals(stab.subspace(pair, 0, tol)):
        raise ValueError("hard-coded stabilizer disagrees with the computed one")
    split = reductive_split(pair, b_space, tol, rng=seed)
    if split.dim_n != 12 or not RealSubspace(n_basis, tol=tol).equals(split.n):
        raise ValueError("complement chart does not span the computed complement")
    s2 = 1 / np.sqrt(2.0)
    A_basis = [B_elem(0, 1, 0, 0, 0), B_elem(0, 0, 0, 1, 0), B_elem(0, 0, 0, 1j, 0),
               s2 * B_elem(1j, 0, 0, 0, 0), s2 * B_elem(0, 0, 1, 0, 1),
               s2 * B_elem(0, 0, 1j, 0, 1j),
               s2 * B_elem(1, 0, 0, 0, 0), s2 * B_elem(0, 0, 1, 0, -1),
               s2 * B_elem(0, 0, 1j, 0, -1j)]
    eps_A = np.array([-1, -1, -1, -1, -1, -1, 1, 1, 1], dtype=float)
    GA = gram_matrix(pair.form, A_basis)
    if np.abs(GA - np.diag(eps_A)).max() > tol.abs:
        raise ValueError("nine-frame is not signed orthonormal as stated")
    data = SP21Data(
        a=a, mu=mu, pair=pair, S=S, S_hat=S_hat,
        b_basis=b_basis, n_basis=n_basis,
        b1=RealSubspace([b_basis[i] for i in (2, 5, 6)], tol=tol),
        b2=RealSubspace([b_basis[i] for i in (0, 1, 3, 4, 7, 8)], tol=tol),
        n1=RealSubspace(n_basis[:4] + n_basis[8:], tol=tol),
        n2=RealSubspace(n_basis[4:8], tol=tol),
        A_basis=A_basis,
        eps_A=eps_A,
        split=split,
    )
    _sp21_attach_grading(data, seed, tol)
    return data


def _sp21_attach_grading(data: SP21Data, seed: int, tol: Tolerance):
    """Graded frame {S_n, e_1..e_12, -S_hat_n} and the graded pieces of the
    orthogonal algebra of the tangent summand."""
    pair = data.pair
    form = pair.form
    span = RealSubspace([data.S, data.S_hat], tol=tol)
    n_hat, _ = orth_complement(span, pair.m, form, tol)
    e_hat, eps_hat = signed_gram_schmidt(form, n_hat, np.random.default_rng(seed), tol)
    scale = 2 * data.a * SQRT3  # K(S/scale, S_hat/scale) = -1
    S_n = data.S / scale
    Sh_n = data.S_hat / scale
    graded = np.stack([S_n, *e_hat, -Sh_n])
    Gamma = gram_matrix(form, graded)
    target = np.zeros((14, 14))
    target[0, 13] = target[13, 0] = 1.0
    target[1:13, 1:13] = np.diag(eps_hat)
    if np.abs(Gamma - target).max() > 1e-8:
        raise ValueError("graded frame does not produce the expected form matrix")
    data.graded_basis = graded
    data.Gamma = target
    # orthogonal algebra A^T Gamma + Gamma A = 0: since Gamma^2 = 1 it is
    # Gamma times the antisymmetric matrices, with basis Gamma (E_ab - E_ba)
    unit = np.eye(14)
    so_space = RealSubspace(
        [target @ (np.outer(unit[i], unit[j]) - np.outer(unit[j], unit[i]))
         for i, j in zip(*np.triu_indices(14, 1))], tol=tol)
    if so_space.dim != 91:
        raise ValueError("orthogonal algebra has the wrong dimension")
    E_grad = np.zeros((14, 14), dtype=complex)
    E_grad[0, 0] = 1.0
    E_grad[13, 13] = -1.0
    if so_space.residual(E_grad) > tol.abs:
        raise ValueError("grading element is not in the orthogonal algebra")
    data.so_space = so_space
    data.p_minus = so_space.kernel_of(lambda A: bracket(E_grad, A) + A, tol)
    data.p_zero = so_space.kernel_of(lambda A: bracket(E_grad, A), tol)
    data.p_plus = so_space.kernel_of(lambda A: bracket(E_grad, A) - A, tol)
    e1 = np.zeros(14)
    e1[0] = 1.0
    e14 = np.zeros(14)
    e14[13] = 1.0
    data.p_full = so_space.kernel_of(lambda A: (A @ e1)[1:], tol)
    data.p_hat = so_space.kernel_of(lambda A: (A @ e14)[:13], tol)
    dims = (data.p_minus.dim, data.p_zero.dim, data.p_plus.dim,
            data.p_full.dim, data.p_hat.dim)
    if dims != (12, 67, 12, 79, 79):
        raise ValueError(f"graded piece dimensions {dims} are off")


def sp21_grading_report(data: SP21Data) -> Report:
    """Dimensions of the graded pieces, the stabilizer inside the degree-zero
    piece, and the bracket relations of a short grading."""
    rep = Report(suite="sp21_grading")
    pm, p0, pp = data.p_minus, data.p_zero, data.p_plus
    rep.equals("sp21_grading_dims", (pm.dim, p0.dim, pp.dim), (12, 67, 12),
               anchor="graded pieces of the orthogonal algebra of the tangent summand")
    rep.equals("sp21_parabolic_dims", (data.p_full.dim, data.p_hat.dim), (79, 79),
               anchor="ray stabilizers inside the orthogonal algebra")
    wb = p0.residual(data.rho(np.stack(data.b_basis)).astype(complex)).max()
    rep.residual("sp21_b_inside_p0", wb, 1e-8,
                 anchor="the stabilizer image sits in the degree-zero piece")
    lower, upper = pm.basis, pp.basis
    w = 0.0
    for A in p0.basis:
        w = max(w, pm.residual(bracket(A, lower)).max(),
                pp.residual(bracket(A, upper)).max())
    for A in pm.basis:
        w = max(w, np.linalg.norm(bracket(A, lower), axis=(-2, -1)).max())
    for A in pp.basis:
        w = max(w, np.linalg.norm(bracket(A, upper), axis=(-2, -1)).max(),
                p0.residual(bracket(A, lower)).max())
    rep.residual("sp21_grading_brackets", w, 1e-8,
                 anchor="the three pieces bracket as a short grading")
    return rep


def sp21_subalgebra_profiles(data: SP21Data, tol: Tolerance = DEFAULT_TOL) -> Report:
    """The two stabilizer factors: profiles, orthogonality, commutation."""
    rep = Report(suite="sp21_factors")
    prof1 = algebra_profile(data.b1, tol)
    rep.equals("sp21_factor1_profile", (prof1[0], prof1[1], prof1[2], prof1[3]),
               (3, (0, 3, 0), 0, 3),
               anchor="compact rank-one factor: 3-dim, definite, perfect")
    prof2 = algebra_profile(data.b2, tol)
    rep.equals("sp21_factor2_profile", (prof2[0], prof2[1], prof2[2], prof2[3]),
               (6, (3, 3, 0), 0, 6),
               anchor="complex special-linear factor: 6-dim, split, perfect")
    b1, b2, n2 = data.b1.basis, data.b2.basis, data.n2.basis
    ortho = float(np.abs(gram_matrix(data.pair.form, b1, b2)).max())
    rep.residual("sp21_factors_orthogonal", ortho, tol.abs,
                 anchor="the two factors are orthogonal")
    comm = max(float(np.linalg.norm(bracket(x, b2), axis=(-2, -1)).max()) for x in b1)
    rep.residual("sp21_factors_commute", comm, tol.abs,
                 anchor="the two factors commute")
    triv = max(float(np.linalg.norm(bracket(x, n2), axis=(-2, -1)).max()) for x in b1)
    rep.residual("sp21_factor1_trivial_on_n2", triv, tol.abs,
                 anchor="the compact factor acts trivially on the second block")
    return rep


def sp21_action_formulas(data: SP21Data, trials: int = 100, rng=0,
                         tol: Tolerance = DEFAULT_TOL) -> Report:
    """Coordinate formulas for the stabilizer action on the complement."""
    rng = np.random.default_rng(rng)
    rep = Report(suite="sp21_actions")
    rep.residual("sp21_action_zero", float(np.linalg.norm(
        bracket(B_elem(0, 0, 0, 0, 0), data.n_basis[0]))), tol.abs,
        anchor="zero stabilizer element acts as zero")
    w1 = w0 = w2 = w3 = 0.0
    winv1 = winv2 = 0.0
    for _ in range(trials):
        ix = rng.standard_normal()
        y = _rand_complex(rng)
        z1, z2 = _rand_complex(rng), _rand_complex(rng)
        y2, y3 = _rand_complex(rng), _rand_complex(rng)
        B1 = B_elem(0, ix, 0, y, 0)
        n1 = N_elem(z1, z2, 0, 0, 0, y2, y3)
        got = bracket(B1, n1)
        want = N_elem(-1j * ix * z1 + np.conj(y) * y2,
                      1j * ix * z2 - y * np.conj(y3), 0, 0, 0,
                      1j * ix * y2 - y * z1, 1j * ix * y3 + y * np.conj(z2))
        w1 = max(w1, float(np.linalg.norm(got - want)))
        winv1 = max(winv1, data.n1.residual(got))
        x1, x2 = rng.standard_normal(), rng.standard_normal()
        y1 = _rand_complex(rng)
        n2 = N_elem(0, 0, x1, x2, y1, 0, 0)
        w0 = max(w0, float(np.linalg.norm(bracket(B1, n2))))
        z, yy, w = _rand_complex(rng), _rand_complex(rng), _rand_complex(rng)
        B2 = B_elem(z, 0, yy, 0, w)
        got = bracket(B2, n1)
        want = N_elem(z * z1 - yy * np.conj(y3), -z * z2 + np.conj(w) * y2,
                      0, 0, 0,
                      z * y2 - yy * z2, -np.conj(z) * y3 + w * np.conj(z1))
        w2 = max(w2, float(np.linalg.norm(got - want)))
        got = bracket(B2, n2)
        nx1 = 2 * (z.real * x1 + (np.conj(yy) * y1).imag)
        nx2 = -2 * (z.real * x2 - (np.conj(w) * y1).imag)
        ny1 = 2j * z.imag * y1 - 1j * w * x1 - 1j * yy * x2
        want = N_elem(0, 0, nx1, nx2, ny1, 0, 0)
        w3 = max(w3, float(np.linalg.norm(got - want)))
        winv2 = max(winv2, data.n2.residual(got))
    rep.residual("sp21_action_b1_on_n1", w1, tol.abs,
                 anchor="compact factor action on the first block")
    rep.residual("sp21_action_b1_on_n2", w0, tol.abs,
                 anchor="compact factor is trivial on the second block")
    rep.residual("sp21_action_b2_on_n1", w2, tol.abs,
                 anchor="special-linear factor action on the first block")
    rep.residual("sp21_action_b2_on_n2", w3, tol.abs,
                 anchor="special-linear factor action on the second block")
    rep.residual("sp21_action_preserves_blocks", max(winv1, winv2), tol.abs,
                 anchor="the action preserves the two-block decomposition")
    return rep


def sp21_duality_identity(data: SP21Data, trials: int = 500, rng=0,
                          tol: Tolerance = DEFAULT_TOL) -> Report:
    """The pairing identity between the two boundary rays.

    Checks, over random complement elements A, B:
      12 a^2 K(A, B) = K([A, S], [B, S_hat]),
    the same identity transported to the graded frame (where the ray pair
    is normalized to pairing -1), and the induced dual bases of the
    lowering and raising pieces.
    """
    rng = np.random.default_rng(rng)
    rep = Report(suite="sp21_duality")
    K = data.pair.form
    a = data.a
    rep.residual("sp21_duality_ray_pairing",
                 abs(K(data.S, data.S_hat) + 12 * a * a), 1e-9,
                 anchor="the ray pair has pairing -12 a^2")
    scale = 2 * a * SQRT3
    S_n, Sh_n = data.S / scale, data.S_hat / scale
    K_so = BilinForm(0.5)
    n = data.split.n
    cA, cB = np.split(rng.standard_normal((trials, 2 * n.dim)), 2, axis=1)
    A, B = n.combine(cA), n.combine(cB)

    def rel(x, y):
        """Largest gap between two arrays of values, relative to them and 1."""
        scale = np.maximum(np.maximum(np.abs(x), np.abs(y)), 1.0)
        return float((np.abs(x - y) / scale).max(initial=0.0))

    worst = rel(12 * a * a * K(A, B), K(bracket(A, data.S), bracket(B, data.S_hat)))
    # rho is linear: its graded parts on the basis of n, contracted with the
    # coefficients, give those of A and B without a rho call per draw
    lo = np.tensordot(cA, data.rho_minus(n.basis), axes=1)
    hi = np.tensordot(cB, data.rho_plus(n.basis), axes=1)
    worst_mid = rel(K_so(lo.astype(complex), hi.astype(complex)),
                    K(bracket(A, S_n), bracket(B, Sh_n)))
    rep.residual("sp21_duality_identity", worst, 1e-8,
                 anchor="pairing of transported elements scales by 12 a^2")
    rep.residual("sp21_duality_graded_transport", worst_mid, 1e-8,
                 anchor="the identity transports to the graded frame")
    # null element: both sides vanish
    e_plus = next(e for e, s in zip(data.split.e_basis, data.split.eps) if s > 0)
    e_minus = next(e for e, s in zip(data.split.e_basis, data.split.eps) if s < 0)
    Anull = e_plus + e_minus
    rep.residual("sp21_duality_null_element",
                 abs(K(bracket(Anull, data.S), bracket(Anull, data.S_hat))),
                 1e-8, anchor="a null element pairs to zero with itself")
    # dual bases from the graded components of the orthonormal complement frame
    E_lo = data.rho_minus(data.split.frame)
    E_hi = data.split.eps[:, None, None] * data.rho_plus(data.split.frame)
    P = gram_matrix(K_so, E_lo, E_hi)
    rep.residual("sp21_duality_dual_pairing",
                 float(np.abs(P - np.eye(12)).max()), 1e-8,
                 anchor="lowering and raising frames pair as identity")
    in_minus = float(data.p_minus.residual(E_lo.astype(complex)).max())
    in_plus = float(data.p_plus.residual(E_hi.astype(complex)).max())
    rep.residual("sp21_duality_graded_membership", max(in_minus, in_plus), 1e-8,
                 anchor="the frames lie in the lowering and raising pieces")
    return rep


def sp21_hatn_isometry(data: SP21Data, tol: Tolerance = DEFAULT_TOL) -> Report:
    """The explicit chart map onto the tangent-summand complement."""
    rep = Report(suite="sp21_isometry")
    pair = data.pair
    imgs = np.stack([hatn_isometry_map(N) for N in data.n_basis])
    in_m = float(pair.m.residual(imgs).max())
    rep.residual("sp21_isometry_lands_in_m", in_m, tol.abs,
                 anchor="images lie in the tangent summand")
    K = pair.form
    perp = float(np.abs(gram_matrix(K, imgs, np.stack([data.S, data.S_hat]))).max())
    rep.residual("sp21_isometry_perp_to_rays", perp, tol.abs,
                 anchor="images are orthogonal to the ray pair")
    G_src = gram_matrix(K, data.n_basis)
    G_img = gram_matrix(K, imgs)
    rep.residual("sp21_isometry_gram_equal",
                 float(np.abs(G_src - G_img).max()), tol.abs,
                 anchor="the chart map preserves all pairings")
    rank = RealSubspace.span(imgs, tol).dim
    rep.equals("sp21_isometry_bijective", rank, 12,
               anchor="the chart map has full rank")
    rho_n = RealSubspace(data.rho(np.stack(data.n_basis)).astype(complex), tol=tol)
    inter = rho_n.intersection(data.p_hat, tol)
    rep.equals("sp21_n_meets_phat_trivially", inter, 0,
               anchor="the complement meets the opposite parabolic trivially")
    return rep


def phi_sl2(g: np.ndarray) -> np.ndarray:
    """Embedding of a 2x2 complex matrix into the quaternionic group frame."""
    al, be, ga, de = g[0, 0], g[0, 1], g[1, 0], g[1, 1]
    U = np.diag([al, 1.0, np.conj(de)]).astype(complex)
    V = np.zeros((3, 3), dtype=complex)
    V[0, 2] = be
    V[2, 0] = -np.conj(ga)
    return quat_embed(QMat(U, V))


def phi_sp1(u: complex, v: complex) -> np.ndarray:
    """Embedding of a unit quaternion u + v j as a middle-entry rotation."""
    U = np.diag([1.0, u, 1.0]).astype(complex)
    V = np.zeros((3, 3), dtype=complex)
    V[1, 1] = v
    return quat_embed(QMat(U, V))


def sp21_embedding_check(data: SP21Data, trials: int = 20, rng=0,
                         tol: Tolerance = DEFAULT_TOL) -> Report:
    """Group-level check of the two stabilizer factors.

    Random unit quaternions and random determinant-one 2x2 matrices are
    embedded; membership in the form-preserving quaternionic group, ray
    fixing, multiplicativity and the span of the derivative algebra are
    all verified.
    """
    rng = np.random.default_rng(rng)
    rep = Report(suite="sp21_embedding")
    Fc = data.pair.carrier_form

    def membership(W):
        res = float(np.abs(W.conj().T @ Fc @ W - Fc).max())
        X, Y = W[:3, :3], -W[:3, 3:]
        blok = float(np.abs(W[3:, :3] - np.conj(Y)).max()
                     + np.abs(W[3:, 3:] - np.conj(X)).max())
        return res + blok

    rep.residual("sp21_embed_identity", membership(phi_sp1(1.0, 0.0))
                 + float(np.abs(phi_sp1(1.0, 0.0) - np.eye(6)).max()),
                 tol.abs, anchor="trivial parameters embed to the identity")
    w_mem = w_fix = w_mult = 0.0
    for _ in range(trials):
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        u, v = complex(q[0], q[1]), complex(q[2], q[3])
        W = phi_sp1(u, v)
        w_mem = max(w_mem, membership(W))
        w_fix = max(w_fix, float(np.linalg.norm(
            W @ data.S @ np.linalg.inv(W) - data.S)))
        g = np.array([[2 + _rand_complex(rng), _rand_complex(rng)],
                      [_rand_complex(rng), _rand_complex(rng)]])
        g[1, 1] = (1 + g[0, 1] * g[1, 0]) / g[0, 0]  # force det 1
        W2 = phi_sl2(g)
        w_mem = max(w_mem, membership(W2))
        w_fix = max(w_fix, float(np.linalg.norm(
            W2 @ data.S @ np.linalg.inv(W2) - data.S)))
        h = np.array([[2 + _rand_complex(rng), _rand_complex(rng)],
                      [_rand_complex(rng), _rand_complex(rng)]])
        h[1, 1] = (1 + h[0, 1] * h[1, 0]) / h[0, 0]
        w_mult = max(w_mult, float(np.abs(phi_sl2(g @ h) - phi_sl2(g) @ phi_sl2(h)).max()))
        qq = rng.standard_normal(4)
        qq /= np.linalg.norm(qq)
        # quaternion product (u1 + v1 j)(u2 + v2 j)
        u2, v2 = complex(qq[0], qq[1]), complex(qq[2], qq[3])
        up = u * u2 - v * np.conj(v2)
        vp = u * v2 + v * np.conj(u2)
        w_mult = max(w_mult, float(np.abs(
            phi_sp1(u, v) @ phi_sp1(u2, v2) - phi_sp1(up, vp)).max()))
    rep.residual("sp21_embed_membership", w_mem, 1e-9,
                 anchor="both families land in the form-preserving group")
    rep.residual("sp21_embed_fixes_ray", w_fix, 1e-8,
                 anchor="both families fix the sampled ray")
    rep.residual("sp21_embed_multiplicative", w_mult, 1e-9,
                 anchor="the embeddings are group homomorphisms")
    # derivative algebra of the two families: both embeddings are real-affine
    # in their entries, so phi(1 + Y) - phi(1) is their derivative along Y,
    # over bases of sl(2, C) and of the imaginary quaternions
    one = np.eye(2, dtype=complex)
    sl2 = [np.diag([1, -1]), np.diag([1j, -1j]), np.array([[0, 1], [0, 0]]),
           np.array([[0, 1j], [0, 0]]), np.array([[0, 0], [1, 0]]),
           np.array([[0, 0], [1j, 0]])]
    der = [phi_sl2(one + Y) - phi_sl2(one) for Y in sl2]
    der += [phi_sp1(1 + u, v) - phi_sp1(1, 0) for u, v in ((1j, 0), (0, 1), (0, 1j))]
    span = RealSubspace(der, tol=tol)
    b_space = RealSubspace(data.b_basis, tol=tol)
    rep.equals("sp21_embed_derivative_span", span.equals(b_space), True,
               anchor="derivative algebra of the embeddings is the stabilizer")
    # integrating a derivative element stays in the group
    Z = span.random_element(rng, norm=0.7)
    rep.residual("sp21_embed_exponential_membership", membership(expm(Z)), 1e-9,
                 anchor="exponentials of derivative elements stay in the group")
    return rep


def sp21_report(seed: int = 0, trials: int = 100, tol: Tolerance = DEFAULT_TOL) -> Report:
    """Every check of the quaternionic (2, 1) case study, as the sp21 suite
    runs it; the duality identity is checked again at a = 2."""
    rep = Report("sp21", seed)
    s = sp21_build(seed=seed, tol=tol)
    rep.absorb(sp21_subalgebra_profiles(s, tol))
    rep.absorb(sp21_action_formulas(s, trials=trials, rng=seed, tol=tol))
    rep.absorb(sp21_duality_identity(s, trials=trials, rng=seed, tol=tol))
    rep.absorb(sp21_hatn_isometry(s, tol))
    rep.absorb(sp21_embedding_check(s, rng=seed, tol=tol))
    chi = frame_casimir(s.split, s.A_basis, s.eps_A)
    rep.residual("sp21_casimir_multiple",
                 float(np.abs(chi - 6.0 * np.eye(12)).max()), 1e-8,
                 anchor="Casimir of the explicit nine-frame acts as six times the identity")
    chi2 = casimir(s.split, rng=seed)
    rep.residual("sp21_casimir_generic_frame",
                 float(np.abs(chi2 - 6.0 * np.eye(12)).max()), 1e-8,
                 anchor="Casimir from a generic orthonormal frame agrees")
    wz_ok, wz_c = wang_ziller_check(chi2)
    rep.equals("sp21_wang_ziller", wz_ok, True,
               anchor="Casimir is a multiple of the identity")
    rep.info("sp21_wang_ziller_constant", wz_c, anchor="fitted Casimir multiple")
    rep.absorb(sp21_grading_report(s))
    s2 = sp21_build(a=2.0, seed=seed, tol=tol)
    rep.absorb(sp21_duality_identity(s2, trials=trials, rng=seed, tol=tol), "a2_")
    ein, ein_res = einstein_fit(s.split)
    rep.add("sp21_einstein", abs(ein - 7.0) <= 1e-7, ein, 7.0, 1e-7,
            anchor="Einstein constant of the induced metric (derived value)")
    rep.residual("sp21_einstein_isotropy", ein_res, 1e-7,
                 anchor="Ricci tensor is an exact multiple of the metric")
    hk, note = homothety_check(s.split, s.S, s.S_hat,
                               isometry=hatn_isometry_map, tol=tol)
    rep.equals("sp21_partner_complement_matches", hk, True, anchor=note)
    rep.absorb(torsion_derivation_check(s.split), "sp21_")
    rep.info("sp21_first_bianchi_residual", _first_bianchi_worst(s.split, s.split.n, seed),
             anchor="cyclic curvature sum minus torsion terms, reported only")
    return rep
