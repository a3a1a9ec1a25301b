"""The case-study identities evaluate each of their random draws as one
stack.  The per-trial loops they replaced are kept here as references: on
every seed the stacked reports must give the loops' values and leave the
generator where the loops left it.

On the real case studies the residuals are rounding noise, so a mix-up of
the draws would not show in them.  Each comparison therefore also runs on
a deliberately broken copy of the data, where the identities fail by O(1)
amounts that depend on which draw lands in which argument.  The closed-form
identities (bracket table, conjugation action, stabilizer action and group
embeddings) read little or no data, so their broken runs patch a wrong
bracket, group family or embedding into the module instead.

The first-Bianchi residual draws nothing: it is the largest entry of the
canonical curvature array's defect over the frame triples, compared here
with a loop of the single-argument evaluators over those triples.
"""


import numpy as np
import pytest

import nullcone.casestudies as casestudies
import nullcone.reductive as reductive
from nullcone.casestudies import (
    duality_identity,
    sp21_build,
    sp21_action_formulas,
    sp21_embedding_check,
    sp21_report,
    su21_ad_action,
    su21_bracket_table,
    su21_build,
    su21_constant_type,
    su21_invariants,
    su21_nabla_J,
    su21_nabla_J_report,
    su21_report,
)
from nullcone.cli import main
from nullcone.linalg import BilinForm, bracket
from nullcone.reductive import (
    bianchi_defect,
    curvature_tensor,
    torsion_eval,
)
from pair_helpers import ref_bracket_parts

SEEDS = (0, 1, 7)
TRIALS = 100


def close(got, want, tol=1e-12):
    return abs(got - want) <= tol * max(1.0, abs(want))


def observed(rep, name):
    return next(c.observed for c in rep.checks if c.name == name)


def same_state(g, h):
    return g.bit_generator.state == h.bit_generator.state


# Reference loops: one draw and one evaluation per trial.


def ref_J_loop(data):
    K = data.pair.form
    rng = np.random.default_rng(1)
    worst_sq, worst_iso = 0.0, 0.0
    for _ in range(50):
        X = data.n_space.random_element(rng)
        Y = data.n_space.random_element(rng)
        worst_sq = max(worst_sq, float(np.linalg.norm(data.J(data.J(X)) - X)))
        worst_iso = max(worst_iso, abs(K(data.J(X), data.J(Y)) + K(X, Y)))
    return (worst_sq, worst_iso), rng


def ref_nabla_J_loop(data, trials, rng):
    w_diag = w_anti = w_pure = 0.0
    for _ in range(trials):
        X = data.n_space.random_element(rng)
        Y = data.n_space.random_element(rng)
        w_diag = max(w_diag, float(np.linalg.norm(su21_nabla_J(data, X, X))))
        w_anti = max(w_anti, float(np.linalg.norm(
            su21_nabla_J(data, X, data.J(Y)) + data.J(su21_nabla_J(data, X, Y)))))
        Xp = data.n_plus.random_element(rng)
        Yp = data.n_plus.random_element(rng)
        w_pure = max(w_pure, float(np.linalg.norm(
            su21_nabla_J(data, Xp, Yp) + torsion_eval(data.split, Xp, Yp))))
    return w_diag, w_anti, w_pure


def ref_constant_type_loop(data, trials, rng):
    K = data.pair.form
    lams = []
    for _ in range(trials):
        X = data.n_space.random_element(rng)
        Y = data.n_space.random_element(rng)
        D = su21_nabla_J(data, X, Y)
        lhs = K(D, D)
        rhs = (K(X, X) * K(Y, Y) - K(X, Y) ** 2 + K(data.J(X), Y) ** 2)
        if abs(rhs) > 1e-3:
            lams.append(lhs / rhs)
    lams = np.array(lams)
    lam = float(np.median(lams))
    return lam, float(np.abs(lams - lam).max() / max(abs(lam), 1e-12))


def ref_bianchi_loop(split, torsion=True):
    """Largest n-coordinate of the cyclic sum of R(u, v) w - T(T(u, v), w)
    (without the torsion term if not `torsion`) over the frame triples, one
    pair (e_i, e_j) at a time with e_k running over the frame.  R(a, b) c =
    -[[a, b]_b, c] is read off the brackets and T from torsion_eval."""
    E = split.e_basis
    d = len(E)
    Bb = [[ref_bracket_parts(split, a, b)[0] for b in E] for a in E]
    worst = 0.0
    for i in range(d):
        for j in range(d):
            total = -np.stack([bracket(Bb[i][j], E[k]) + bracket(Bb[j][k], E[i])
                               + bracket(Bb[k][i], E[j]) for k in range(d)])
            if torsion:
                u, v = np.broadcast_to(E[i], E.shape), np.broadcast_to(E[j], E.shape)
                for a, b, c in ((u, v, E), (v, E, u), (E, u, v)):
                    total = total - torsion_eval(split, torsion_eval(split, a, b), c)
            worst = max(worst, float(np.abs(split.n_coords(total)).max()))
    return worst


def ref_duality_loop(data, trials, rng):
    K = data.pair.form
    a = data.a
    scale = 2 * a * np.sqrt(3.0)
    S_n, Sh_n = data.S / scale, data.S_hat / scale
    K_so = BilinForm(0.5)
    worst = worst_mid = 0.0
    for _ in range(trials):
        A = data.split.n.random_element(rng)
        B = data.split.n.random_element(rng)
        lhs = 12 * a * a * K(A, B)
        rhs = K(bracket(A, data.S), bracket(B, data.S_hat))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
        mid = K_so(data.rho_minus(A).astype(complex),
                   data.rho_plus(B).astype(complex))
        ref = K(bracket(A, S_n), bracket(B, Sh_n))
        worst_mid = max(worst_mid, abs(mid - ref) / max(abs(mid), abs(ref), 1.0))
    return worst, worst_mid


# The closed-form loops build their elements through the module, so a
# broken bracket or group family patched into it reaches them too.


def rand_complex(rng):
    return complex(rng.standard_normal(), rng.standard_normal())


def ref_bracket_table_loop(trials, rng):
    cs = casestudies
    w_pm = w_pp = w_mm = 0.0
    for _ in range(trials):
        x, y = rand_complex(rng), rand_complex(rng)
        d, g = rng.standard_normal(), rng.standard_normal()
        got = cs.bracket(cs.v_plus(x, d), cs.v_minus(y, g))
        want = np.diag([-g * d - x * y,
                        x * y - np.conj(x * y),
                        g * d + np.conj(x * y)]).astype(complex)
        w_pm = max(w_pm, float(np.linalg.norm(got - want)))
        got = cs.bracket(cs.v_plus(x, g), cs.v_plus(y, d))
        want = cs.v_minus(1j * (d * np.conj(x) - g * np.conj(y)),
                          (-1j * (x * np.conj(y) - np.conj(x) * y)).real)
        w_pp = max(w_pp, float(np.linalg.norm(got - want)))
        got = cs.bracket(cs.v_minus(x, g), cs.v_minus(y, d))
        want = cs.v_plus(-1j * (d * np.conj(x) - g * np.conj(y)),
                         (1j * (x * np.conj(y) - np.conj(x) * y)).real)
        w_mm = max(w_mm, float(np.linalg.norm(got - want)))
    return w_pm, w_pp, w_mm


def ref_ad_action_loops(trials, rng, phi=np.pi / 3, r=2.0):
    cs = casestudies
    b = cs.b_group(phi, r)
    binv = np.linalg.inv(b)
    worst = 0.0
    for _ in range(trials):
        x, y = rand_complex(rng), rand_complex(rng)
        d, g = rng.standard_normal(), rng.standard_normal()
        V = cs.v_plus(x, d) + cs.v_minus(y, g)
        got = b @ V @ binv
        want = (cs.v_plus(np.exp(-3j * phi) * x / r, r**2 * d)
                + cs.v_minus(r * np.exp(3j * phi) * y, g / r**2))
        worst = max(worst, float(np.linalg.norm(got - want)))
    wlaw = 0.0
    for _ in range(trials):
        p1, p2 = rng.uniform(-np.pi, np.pi, 2)
        r1, r2 = rng.uniform(0.3, 3.0, 2)
        wlaw = max(wlaw, float(np.abs(
            cs.b_group(p1, r1) @ cs.b_group(p2, r2) - cs.b_group(p1 + p2, r1 * r2)
        ).max()))
    return worst, wlaw


def ref_action_formulas_loop(data, trials, rng):
    cs = casestudies
    B_elem, N_elem, bracket = cs.B_elem, cs.N_elem, cs.bracket
    w1 = w0 = w2 = w3 = 0.0
    winv1 = winv2 = 0.0
    for _ in range(trials):
        ix = rng.standard_normal()
        y = rand_complex(rng)
        z1, z2 = rand_complex(rng), rand_complex(rng)
        y2, y3 = rand_complex(rng), rand_complex(rng)
        B1 = B_elem(0, ix, 0, y, 0)
        n1 = N_elem(z1, z2, 0, 0, 0, y2, y3)
        got = bracket(B1, n1)
        want = N_elem(-1j * ix * z1 + np.conj(y) * y2,
                      1j * ix * z2 - y * np.conj(y3), 0, 0, 0,
                      1j * ix * y2 - y * z1, 1j * ix * y3 + y * np.conj(z2))
        w1 = max(w1, float(np.linalg.norm(got - want)))
        winv1 = max(winv1, data.n1.residual(got))
        x1, x2 = rng.standard_normal(), rng.standard_normal()
        y1 = rand_complex(rng)
        n2 = N_elem(0, 0, x1, x2, y1, 0, 0)
        w0 = max(w0, float(np.linalg.norm(bracket(B1, n2))))
        z, yy, w = rand_complex(rng), rand_complex(rng), rand_complex(rng)
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
    return w1, w0, w2, w3, max(winv1, winv2)


def ref_embedding_loop(data, trials, rng):
    cs = casestudies
    phi_sl2, phi_sp1 = cs.phi_sl2, cs.phi_sp1
    Fc = data.pair.carrier_form

    def membership(W):
        res = float(np.abs(W.conj().T @ Fc @ W - Fc).max())
        X, Y = W[:3, :3], -W[:3, 3:]
        blok = float(np.abs(W[3:, :3] - np.conj(Y)).max()
                     + np.abs(W[3:, 3:] - np.conj(X)).max())
        return res + blok

    w_mem = w_fix = w_mult = 0.0
    for _ in range(trials):
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        u, v = complex(q[0], q[1]), complex(q[2], q[3])
        W = phi_sp1(u, v)
        w_mem = max(w_mem, membership(W))
        w_fix = max(w_fix, float(np.linalg.norm(
            W @ data.S @ np.linalg.inv(W) - data.S)))
        g = np.array([[2 + rand_complex(rng), rand_complex(rng)],
                      [rand_complex(rng), rand_complex(rng)]])
        g[1, 1] = (1 + g[0, 1] * g[1, 0]) / g[0, 0]
        W2 = phi_sl2(g)
        w_mem = max(w_mem, membership(W2))
        w_fix = max(w_fix, float(np.linalg.norm(
            W2 @ data.S @ np.linalg.inv(W2) - data.S)))
        h = np.array([[2 + rand_complex(rng), rand_complex(rng)],
                      [rand_complex(rng), rand_complex(rng)]])
        h[1, 1] = (1 + h[0, 1] * h[1, 0]) / h[0, 0]
        w_mult = max(w_mult, float(np.abs(phi_sl2(g @ h) - phi_sl2(g) @ phi_sl2(h)).max()))
        qq = rng.standard_normal(4)
        qq /= np.linalg.norm(qq)
        u2, v2 = complex(qq[0], qq[1]), complex(qq[2], qq[3])
        up = u * u2 - v * np.conj(v2)
        vp = u * v2 + v * np.conj(u2)
        w_mult = max(w_mult, float(np.abs(
            phi_sp1(u, v) @ phi_sp1(u2, v2) - phi_sp1(up, vp)).max()))
    # after the loop the check draws one element of the nine-dimensional
    # derivative algebra
    rng.standard_normal(9)
    return w_mem, w_fix, w_mult


# Broken copies: every identity fails, by amounts that depend on the draws.


def broken_su21(data):
    """J read through a wrong inverse Gram matrix, so it is no longer an
    involutive anti-isometry and the derivative identities fail."""
    mix = np.eye(6) + 0.3 * np.random.default_rng(11).standard_normal((6, 6))
    return data._replace(n_ginv=data.n_ginv @ mix)


def broken_ray_pair(data):
    """S and S_hat moved off the ray pair inside m, each its own way, and the
    end vectors of the graded frame with them.  Moving one ray alone keeps
    the graded transport: the bracket of the other stays in the span of the
    middle frame, through which rho reads both sides."""
    shift, shift_hat = 0.3 * data.pair.m.random_element(np.random.default_rng(13), size=2)
    S, S_hat = data.S + shift, data.S_hat + shift_hat
    graded = data.graded_basis.copy()
    scale = 2 * data.a * np.sqrt(3.0)
    graded[0], graded[-1] = S / scale, -S_hat / scale
    return data._replace(S=S, S_hat=S_hat, graded_basis=graded)


SKEW_WEIGHTS = {n: np.random.default_rng(14).uniform(0.5, 1.5, (n, n)) for n in (3, 6)}


def skewed_bracket(X, Y):
    """The commutator plus its arguments, weighted entry by entry: the
    residuals then depend on every drawn parameter, also where the true
    bracket of two blocks is zero, and the generic weights break the
    symmetries (such as z1 <-> z2 in the chart) that would hide a swap."""
    return X @ Y - Y @ X + SKEW_WEIGHTS[X.shape[-1]] * (X + Y)


def twisted_b_group(phi, r):
    """The diagonal family with a phase exp(i phi^2) on its first entry, so
    that it is neither a homomorphism nor the stated conjugation action."""
    b = real_b_group(phi, r)
    b[..., 0, 0] *= np.exp(1j * np.asarray(phi) ** 2)
    return b


def sheared_phi_sl2(g):
    """The special-linear embedding with beta copied into an entry that
    leaves the form-preserving group and moves the ray."""
    W = real_phi_sl2(g)
    W[..., 0, 1] += 0.3 * g[..., 0, 1]
    return W


def sheared_phi_sp1(u, v):
    """The same shear of the unit-quaternion embedding, by u and v."""
    W = real_phi_sp1(u, v)
    W[..., 0, 1] += 0.3 * (u + v)
    return W


real_b_group = casestudies.b_group
real_phi_sl2, real_phi_sp1 = casestudies.phi_sl2, casestudies.phi_sp1


@pytest.fixture(scope="module", params=SEEDS)
def su21(request):
    """(seed, case study built with that seed)."""
    return request.param, su21_build(seed=request.param)


@pytest.fixture(scope="module", params=SEEDS)
def sp21(request):
    return request.param, sp21_build(seed=request.param)


# the sp21 cases are named by their seed alone, the su21 cases "su21-<seed>"
@pytest.fixture(scope="module",
                params=[("sp21", s) for s in SEEDS] + [("su21", s) for s in SEEDS],
                ids=lambda p: str(p[1]) if p[0] == "sp21" else f"su21-{p[1]}")
def study(request):
    """(study, seed, case study of either kind built with that seed)."""
    name, seed = request.param
    return name, seed, {"su21": su21_build, "sp21": sp21_build}[name](seed=seed)


@pytest.fixture
def made_generators(monkeypatch):
    """Every generator made during the test, with its seed."""
    made = []
    make = np.random.default_rng

    def recording(seed=None):
        g = make(seed)
        made.append((seed, g))
        return g

    monkeypatch.setattr(np.random, "default_rng", recording)
    return made


def made_by_library(made, seed, ref_rng):
    """The one generator of that seed that is not the reference loop's."""
    [g] = [g for s, g in made if s == seed and g is not ref_rng]
    return g


@pytest.mark.parametrize("broken", [False, True])
def test_J_identities_match_the_loop(su21, broken, made_generators):
    _, data = su21
    data = broken_su21(data) if broken else data
    rep = su21_invariants(data)
    (want_sq, want_iso), ref_rng = ref_J_loop(data)
    assert close(observed(rep, "su21_J_squares_to_identity"), want_sq)
    assert close(observed(rep, "su21_J_anti_isometry"), want_iso)
    assert (want_sq > 0.1) == broken
    assert same_state(made_by_library(made_generators, 1, ref_rng), ref_rng)


def test_J_identities_follow_the_report_seed(monkeypatch):
    # on the case study the J residuals read exactly 0 on every seed and
    # cannot show which draws were taken; on a broken copy they depend on
    # the draws, so different seeds must give different values
    names = ("su21_J_squares_to_identity", "su21_J_anti_isometry")
    for seed in SEEDS:
        rep = su21_report(seed=seed, trials=10)
        assert all(c.status == "pass" for c in rep.checks if c.name in names)
    real = casestudies.su21_invariants
    monkeypatch.setattr(casestudies, "su21_invariants",
                        lambda data, rng: real(broken_su21(data), rng=rng))
    seen = [tuple(observed(su21_report(seed=seed, trials=10), n) for n in names)
            for seed in SEEDS]
    assert all(v > 0.1 for row in seen for v in row)
    for i in range(len(names)):
        assert len({row[i] for row in seen}) == len(SEEDS)


@pytest.mark.parametrize("broken", [False, True])
def test_nabla_J_report_matches_the_loop(su21, broken):
    seed, data = su21
    data = broken_su21(data) if broken else data
    g, h = np.random.default_rng(seed), np.random.default_rng(seed)
    rep = su21_nabla_J_report(data, trials=TRIALS, rng=g)
    want = ref_nabla_J_loop(data, TRIALS, h)
    names = ("su21_nablaJ_vanishes_on_diagonal", "su21_nablaJ_anticommutes",
             "su21_nablaJ_pure_type")
    for name, w in zip(names, want):
        assert close(observed(rep, name), w), name
    assert (min(want) > 0.1) == broken
    assert same_state(g, h)


@pytest.mark.parametrize("broken", [False, True])
def test_constant_type_matches_the_loop(su21, broken):
    seed, data = su21
    data = broken_su21(data) if broken else data
    g, h = np.random.default_rng(seed), np.random.default_rng(seed)
    lam, spread = su21_constant_type(data, trials=TRIALS, rng=g)
    want_lam, want_spread = ref_constant_type_loop(data, TRIALS, h)
    assert close(lam, want_lam) and close(spread, want_spread)
    assert (want_spread > 0.1) == broken
    assert same_state(g, h)


def check_first_bianchi(data, broken):
    # the broken run drops the torsion term, which the canonical connection
    # needs: the sum then fails by O(1) amounts, which the array and the loop
    # must still agree on
    split = data.split
    T = split.torsion_components
    got = float(np.abs(bianchi_defect(curvature_tensor(split), 0 * T if broken else T)).max())
    want = ref_bianchi_loop(split, torsion=not broken)
    assert close(got, want)
    assert (want > 0.1) == broken


@pytest.mark.parametrize("broken", [False, True])
def test_su21_first_bianchi_matches_the_loop(su21, broken):
    check_first_bianchi(su21[1], broken)


@pytest.mark.parametrize("broken", [False, True])
def test_sp21_first_bianchi_matches_the_loop(sp21, broken):
    check_first_bianchi(sp21[1], broken)


@pytest.mark.parametrize("trials, embedding", [(5, 5), (100, 20)])
@pytest.mark.parametrize("suite", ["su21", "sp21"])
def test_trials_caps_the_embedding_draws(suite, trials, embedding, monkeypatch):
    # --trials caps the twenty embedding pairs: the generator ends where the
    # loop of that many draws ends
    seen = {}
    real_embedding = casestudies.sp21_embedding_check

    def embedding_recorded(data, trials, rng):
        g = np.random.default_rng(rng)
        seen["embedding"] = (data, rng, trials, g)
        return real_embedding(data, trials=trials, rng=g)

    monkeypatch.setattr(casestudies, "sp21_embedding_check", embedding_recorded)
    assert main(["--suite", suite, "--trials", str(trials), "--seed", "7",
                 "--format", "json"]) == 0
    if suite == "sp21":
        data, seed, drawn, g = seen["embedding"]
        assert (seed, drawn) == (7, embedding)
        h = np.random.default_rng(seed)
        ref_embedding_loop(data, embedding, h)
        assert same_state(g, h)
    else:
        assert "embedding" not in seen


@pytest.mark.parametrize("broken", [False, True])
def test_duality_identity_matches_the_loop(study, broken):
    name, seed, data = study
    data = broken_ray_pair(data) if broken else data
    g, h = np.random.default_rng(seed), np.random.default_rng(seed)
    rep = duality_identity(data, name, trials=TRIALS, rng=g)
    want, want_mid = ref_duality_loop(data, TRIALS, h)
    assert close(observed(rep, f"{name}_duality_identity"), want)
    assert close(observed(rep, f"{name}_duality_graded_transport"), want_mid)
    assert (min(want, want_mid) > 0.01) == broken
    assert same_state(g, h)


@pytest.mark.parametrize("report", [su21_report, sp21_report])
def test_each_report_computes_the_casimir_once(report, monkeypatch):
    calls = []
    real = reductive.casimir

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(reductive, "casimir", counted)
    monkeypatch.setattr(casestudies, "casimir", counted)
    report(seed=0, trials=5)
    assert len(calls) == 1


@pytest.mark.parametrize("broken", [False, True])
def test_bracket_table_matches_the_loop(su21, broken, monkeypatch):
    seed, data = su21
    if broken:
        monkeypatch.setattr(casestudies, "bracket", skewed_bracket)
    g, h = np.random.default_rng(seed), np.random.default_rng(seed)
    rep = su21_bracket_table(data, trials=TRIALS, rng=g)
    want = ref_bracket_table_loop(TRIALS, h)
    names = ("su21_bracket_mixed_formula", "su21_bracket_plus_formula",
             "su21_bracket_minus_formula")
    for name, w in zip(names, want):
        assert close(observed(rep, name), w), name
    assert (min(want) > 0.1) == broken
    assert same_state(g, h)


@pytest.mark.parametrize("broken", [False, True])
def test_ad_action_matches_the_loops(su21, broken, monkeypatch):
    seed, data = su21
    if broken:
        monkeypatch.setattr(casestudies, "b_group", twisted_b_group)
    g, h = np.random.default_rng(seed), np.random.default_rng(seed)
    rep = su21_ad_action(data, trials=TRIALS, rng=g)
    want = ref_ad_action_loops(TRIALS, h)
    for name, w in zip(("su21_ad_parameter_map", "su21_ad_group_law"), want):
        assert close(observed(rep, name), w), name
    assert (min(want) > 0.1) == broken
    assert same_state(g, h)


@pytest.mark.parametrize("broken", [False, True])
def test_action_formulas_match_the_loop(sp21, broken, monkeypatch):
    seed, data = sp21
    if broken:
        monkeypatch.setattr(casestudies, "bracket", skewed_bracket)
    g, h = np.random.default_rng(seed), np.random.default_rng(seed)
    rep = sp21_action_formulas(data, trials=TRIALS, rng=g)
    want = ref_action_formulas_loop(data, TRIALS, h)
    names = ("sp21_action_b1_on_n1", "sp21_action_b1_on_n2", "sp21_action_b2_on_n1",
             "sp21_action_b2_on_n2", "sp21_action_preserves_blocks")
    for name, w in zip(names, want):
        assert close(observed(rep, name), w), name
    assert (min(want) > 0.1) == broken
    assert same_state(g, h)


@pytest.mark.parametrize("broken", [None, "phi_sl2", "phi_sp1"])
def test_embedding_check_matches_the_loop(sp21, broken, monkeypatch):
    # each family is broken on its own: a broken one dominates the worst
    # values, which would hide a mix-up of the other family's draws
    seed, data = sp21
    if broken:
        sheared = {"phi_sl2": sheared_phi_sl2, "phi_sp1": sheared_phi_sp1}
        monkeypatch.setattr(casestudies, broken, sheared[broken])
    g, h = np.random.default_rng(seed), np.random.default_rng(seed)
    rep = sp21_embedding_check(data, trials=TRIALS, rng=g)
    want = ref_embedding_loop(data, TRIALS, h)
    names = ("sp21_embed_membership", "sp21_embed_fixes_ray",
             "sp21_embed_multiplicative")
    for name, w in zip(names, want):
        assert close(observed(rep, name), w), name
    assert (min(want) > 0.1) == bool(broken)
    assert same_state(g, h)
