"""The case-study identities evaluate each of their random draws as one
stack.  The per-trial loops they replaced are kept here as references: on
every seed the stacked reports must give the loops' values and leave the
generator where the loops left it.

On the real case studies the residuals are rounding noise, so a mix-up of
the draws would not show in them.  Each comparison therefore also runs on
a deliberately broken copy of the data, where the identities fail by O(1)
amounts that depend on which draw lands in which argument.
"""

import dataclasses

import numpy as np
import pytest

import nullcone.casestudies as casestudies
import nullcone.reductive as reductive
from nullcone.casestudies import (
    _first_bianchi_worst,
    sp21_build,
    sp21_duality_identity,
    sp21_report,
    su21_build,
    su21_constant_type,
    su21_invariants,
    su21_nabla_J,
    su21_nabla_J_report,
    su21_report,
)
from nullcone.linalg import BilinForm, bracket
from nullcone.reductive import bianchi_residual, torsion_eval

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


def ref_bianchi_loop(split, space, seed):
    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    for _ in range(10):
        u, v, w = (space.random_element(rng) for _ in range(3))
        worst = max(worst, float(np.linalg.norm(bianchi_residual(split, u, v, w))))
    return worst, rng


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


# Broken copies: every identity fails, by amounts that depend on the draws.


def broken_su21(data):
    """J read through a wrong inverse Gram matrix, so it is no longer an
    involutive anti-isometry and the derivative identities fail."""
    mix = np.eye(6) + 0.3 * np.random.default_rng(11).standard_normal((6, 6))
    return dataclasses.replace(data, n_ginv=data.n_ginv @ mix)


def broken_split(split):
    """A frame pushed out of n, so the first Bianchi sum no longer cancels."""
    shift = 0.3 * split.pair.h.random_element(np.random.default_rng(12))
    return dataclasses.replace(split, e_basis=[e + shift for e in split.e_basis])


def broken_sp21(data):
    """S_hat moved off the partner ray in a direction other than S."""
    shift = data.pair.m.random_element(np.random.default_rng(13))
    return dataclasses.replace(data, S_hat=data.S_hat + 0.3 * shift)


@pytest.fixture(scope="module", params=SEEDS)
def su21(request):
    """(seed, case study built with that seed)."""
    return request.param, su21_build(seed=request.param)


@pytest.fixture(scope="module", params=SEEDS)
def sp21(request):
    return request.param, sp21_build(seed=request.param)


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


def check_first_bianchi(seed, split, space, broken, made):
    split = broken_split(split) if broken else split
    got = _first_bianchi_worst(split, space, seed)
    want, ref_rng = ref_bianchi_loop(split, space, seed)
    # the unbroken quaternionic sum cancels terms of size ~100, so its
    # residual is rounding noise near 1e-11 and moves by a few 1e-12
    assert close(got, want, 1e-12 if broken else 1e-10)
    assert (want > 0.1) == broken
    assert same_state(made_by_library(made, seed + 1, ref_rng), ref_rng)


@pytest.mark.parametrize("broken", [False, True])
def test_su21_first_bianchi_matches_the_loop(su21, broken, made_generators):
    seed, data = su21
    check_first_bianchi(seed, data.split, data.n_space, broken, made_generators)


@pytest.mark.parametrize("broken", [False, True])
def test_sp21_first_bianchi_matches_the_loop(sp21, broken, made_generators):
    seed, data = sp21
    check_first_bianchi(seed, data.split, data.split.n, broken, made_generators)


@pytest.mark.parametrize("broken", [False, True])
def test_duality_identity_matches_the_loop(sp21, broken):
    seed, data = sp21
    data = broken_sp21(data) if broken else data
    g, h = np.random.default_rng(seed), np.random.default_rng(seed)
    rep = sp21_duality_identity(data, trials=TRIALS, rng=g)
    want, want_mid = ref_duality_loop(data, TRIALS, h)
    assert close(observed(rep, "sp21_duality_identity"), want)
    assert close(observed(rep, "sp21_duality_graded_transport"), want_mid)
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
