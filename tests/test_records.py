"""The record classes: NamedTuples for the records that are never mutated,
plain classes with an explicit constructor for those that are mutated or
cache values.  Frozen records refuse assignment, _replace builds through
the constructor (so no cached value is carried over), Family validates
every construction and equal tolerances are one cache key."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nullcone import casestudies
from nullcone.casestudies import b_diag, su21_build
from nullcone.linalg import DEFAULT_TOL, BilinForm, RealSubspace, Tolerance
from nullcone.orbits import sample_null_batch, stabilizers_of_rays
from nullcone.pairs import Family, build_pair, dimension_table


@pytest.fixture(scope="module")
def pair():
    return build_pair(Family("C", 2, 1))


@pytest.fixture(scope="module")
def su21():
    return su21_build()


def _batch(pair):
    return sample_null_batch(pair, 3, rng=0)


# every record the dataclasses made frozen, with one of its fields
FROZEN = {
    "Tolerance": (lambda pair: DEFAULT_TOL, "abs"),
    "BilinForm": (lambda pair: BilinForm(0.5), "scale"),
    "Family": (lambda pair: pair.family, "p"),
    "SymmetricPair": (lambda pair: pair, "h"),
    "TableRow": (lambda pair: dimension_table([pair.family])[0], "dim_h"),
    "NullBatch": (_batch, "S"),
    "RayStabilizers": (lambda pair: stabilizers_of_rays(pair, _batch(pair).S), "dims"),
}


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_refuse_assignment(pair, name):
    make, field = FROZEN[name]
    record = make(pair)
    assert type(record).__name__ == name
    before = getattr(record, field)
    for attr in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before
    assert not hasattr(record, "extra")


def test_null_batch_length_counts_rays_through_every_copy(pair):
    batch = _batch(pair)
    assert len(batch) == 3 and len(batch.take([0, 2])) == 2
    assert len(batch._replace(corner=batch.corner + 0)) == 3
    assert len(type(batch).concat([batch, batch])) == 6
    assert batch._fields[0] == "S" and len(batch._fields) == 8


@pytest.mark.parametrize("case", ["split_b", "su21_n_ginv"])
def test_replace_recomputes_cached_values(su21, case):
    if case == "split_b":
        record, cached = su21.split._replace(), "bracket_pairings"
        old = record.bracket_pairings
        new = record._replace(b=RealSubspace([b_diag(1.0, 0.0)]))
        # one column per frame vector of n, then one per frame vector of b
        fresh = old.shape[:-1] + (record.dim_n + 1,)
    else:
        record, cached = su21._replace(), "J_frame"
        old = record.J_frame
        new = record._replace(n_ginv=2 * record.n_ginv)
        fresh = 2 * old
    assert cached in vars(record) and cached not in vars(new)
    value = getattr(new, cached)
    if case == "split_b":
        assert value.shape == fresh
    else:
        assert_allclose(value, fresh, rtol=0, atol=1e-14)
    # the copy shares every field it did not change, and the original keeps its cache
    assert all(getattr(new, f) is getattr(record, f)
               for f in record._fields if f not in ("b", "n_ginv"))
    assert getattr(record, cached) is old


@pytest.mark.parametrize("label", [("Q", 2, 1), ("R", 0, 1), ("H", 2, -1)])
def test_family_validates_every_construction(label):
    with pytest.raises(ValueError):
        Family(*label)
    with pytest.raises(ValueError):
        Family._make(label)
    with pytest.raises(ValueError):
        Family("R", 2, 1)._replace(**dict(zip(Family._fields, label)))
    assert Family("R", 2, 1)._replace(p=3) == Family("R", 3, 1)


def test_equal_tolerances_share_one_cache_entry():
    eps = (1.0, -1.0)  # a sign pattern no case study uses
    before = casestudies._conformal_grading.cache_info()
    first = casestudies._conformal_grading(eps, Tolerance(abs=1e-9, rank_rel=1e-8))
    second = casestudies._conformal_grading(eps, Tolerance())
    after = casestudies._conformal_grading.cache_info()
    assert second is first
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
    assert Tolerance() == DEFAULT_TOL and hash(Tolerance()) == hash(DEFAULT_TOL)
