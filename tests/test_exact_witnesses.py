"""Exact witnesses at n = 3: the generic ray stabilizer dimension of a
rational null ray of each (2, 1) and (1, 2) pair and of the canonical-T
(2, 1) pair, solved over the rationals (exact_reference), against the SVD
rank decision of orbits.stabilizer_dims on the same ray.  The canonical-T
bases add entries -1/2, which convert exactly as well."""

import time

import pytest

import exact_reference
from nullcone.orbits import EXPECTED_STAB_DIM, stabilizer_dims
from nullcone.pairs import Family, build_pair

# (signature, variant) of each witness; every field is checked on each
CASES = [((2, 1), "standard"), ((1, 2), "standard"), ((2, 1), "canonical-T")]


def _dims(field: str, pq, variant: str):
    """(exact dimension, numerical dimension, seconds of the exact solve)."""
    pair = build_pair(Family(field, *pq), variant)
    t0 = time.perf_counter()
    S, s = exact_reference.rational_null_ray(pair.m.basis, pair.form.scale, seed=0)
    assert exact_reference.trace_form(S, S, pair.form.scale) == 0 and any(s)
    dim = exact_reference.stabilizer_dim(pair.h.basis, S)
    seconds = time.perf_counter() - t0
    return dim, int(stabilizer_dims(pair, exact_reference.to_complex(S)[None])[0]), seconds


@pytest.mark.parametrize("field", ["R", "C", "H"])
def test_exact_stabilizer_dimension_matches_the_svd_route(field):
    for pq, variant in CASES:
        dim, numeric, seconds = _dims(field, pq, variant)
        assert dim == numeric == EXPECTED_STAB_DIM[field](3), (pq, variant)
        assert seconds < 2.0, (pq, variant)


@pytest.mark.parametrize("shift", [-1, 1])
@pytest.mark.parametrize("field", ["R", "C", "H"])
def test_a_rank_moved_by_one_fails_the_comparison(field, shift, monkeypatch):
    rank = exact_reference.rank
    monkeypatch.setattr(exact_reference, "rank", lambda vectors: rank(vectors) + shift)
    for pq, variant in CASES:
        dim, numeric, _ = _dims(field, pq, variant)
        assert dim == numeric - shift, (pq, variant)
