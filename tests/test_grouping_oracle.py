"""Grouping on checked profile keys against grouping on whole rows.

``group_matching`` and ``anti_merge_update`` find identical profiles by
hashing each profile into one wrapping uint64 key and checking each
key group against its first row. The inputs of ``test_equivalence``
(codes 0..3, at most 5 columns) keep the keys apart. Here profiles have
40 to 80 columns, so the key wraps many times, and their codes include
negative values, values near +-2**62 and the int64 extremes, where
distinct profiles can share a key and the grouping must fall back to
the whole rows. The reference finds the groups with
``np.unique(profiles, axis=0)`` and applies the merge and freeze rules
entity by entity. Every state is tried with its profiles row-major,
feature-major (the loop's own layout) and as a column slice of a wider
matrix, and feature-major as uint64, and with no frozen entity, the entities that the containment
rule freezes, and a drawn set of frozen entities.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mbclust.core
from mbclust import ClusteringState, anti_merge_update, group_matching

INT64 = np.iinfo(np.int64)
BIG = 1 << 62

codes = st.one_of(
    st.integers(-8, 8),
    st.integers(BIG - 8, BIG + 8),
    st.integers(-BIG - 8, -BIG + 8),
    st.sampled_from([int(INT64.min), int(INT64.max), int(INT64.min) + 1, int(INT64.max) - 1]),
)


def _row(seed: int, high: int, size: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, high, size)


@st.composite
def states(draw):
    """Entities of 1..3 consecutive members over wide profiles; most
    profiles are edited copies of at most four prototypes, so that
    clusters collide and groups are large. Each column holds codes from
    one pool, rotated by a per-column shift. A prototype row, and the
    row of shifts, are each expanded from one drawn seed, which keeps
    the examples cheap to draw and varied in every column."""
    e = draw(st.integers(2, 24))
    f = draw(st.integers(40, 80))
    pool = draw(st.lists(codes, min_size=2, max_size=8, unique=True))
    shifts = _row(draw(st.integers(0, 2**32 - 1)), len(pool), f)
    protos = [_row(seed, 6, f) for seed in draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))]
    picks = draw(st.lists(st.integers(0, len(protos) - 1), min_size=e, max_size=e))
    index = np.array([protos[p] for p in picks])
    for row, col, value in draw(st.lists(st.tuples(st.integers(0, e - 1), st.integers(0, f - 1), st.integers(0, 5)),
                                         max_size=e)):
        index[row, col] = value
    profiles = np.array(pool, dtype=np.int64)[(index + shifts) % len(pool)]
    sizes = draw(st.lists(st.integers(1, 3), min_size=e, max_size=e))
    bounds = np.cumsum([0] + sizes).tolist()
    entities = tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:]))
    return ClusteringState(entities=entities, profiles=profiles, remaining_features=tuple(range(f)))


def _groups(profiles):
    return np.unique(profiles, axis=0, return_inverse=True)[1].reshape(-1).tolist()


def reference_frozen(state):
    group = _groups(state.profiles)
    clusters = Counter(g for g, ent in zip(group, state.entities) if len(ent) > 1)
    return {idx for idx, (g, ent) in enumerate(zip(group, state.entities)) if len(ent) > 1 and clusters[g] >= 2}


def reference_merge(state):
    group = _groups(state.profiles)
    for idx in state.frozen:
        group[idx] = -1 - idx
    by_group: dict[int, list[int]] = {}
    for idx, g in enumerate(group):
        by_group.setdefault(g, []).append(idx)
    components = list(by_group.values())
    entities = tuple(tuple(sorted(m for idx in comp for m in state.entities[idx])) for comp in components)
    return entities, state.profiles[[comp[0] for comp in components]]


def layouts(profiles):
    """The same profiles row-major, feature-major, as every other column
    of a wider matrix, and feature-major with the same bits as uint64
    (which the key must not add to its int64 in place unconverted)."""
    wide = np.zeros((len(profiles), 2 * profiles.shape[1]), dtype=profiles.dtype)
    wide[:, 1::2] = profiles
    fortran = np.asfortranarray(profiles)
    return np.ascontiguousarray(profiles), fortran, wide[:, 1::2], fortran.view(np.uint64)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(state=states(), data=st.data())
def test_packed_grouping_equals_row_grouping(state, data):
    expected_frozen = reference_frozen(state)
    drawn = data.draw(st.frozensets(st.integers(0, len(state.profiles) - 1)), label="frozen")
    for profiles in layouts(state.profiles):
        fresh = ClusteringState(labels=state.labels, profiles=profiles, remaining_features=state.remaining_features)
        frozen = anti_merge_update(fresh)  # shares the grouping that fresh computed
        assert frozen.frozen == expected_frozen
        drawn_state = ClusteringState(labels=state.labels, profiles=profiles,
                                      remaining_features=state.remaining_features, frozen=drawn)
        for before in (fresh, frozen, drawn_state):
            entities, expected = reference_merge(before)
            grouped = group_matching(before)
            assert grouped.entities == entities
            assert np.array_equal(grouped.profiles, expected)
            assert grouped.frozen == (before.frozen if grouped is before else frozenset())


@pytest.mark.parametrize("low, high", [(0, 1), (int(INT64.min), int(INT64.max)), (-BIG, BIG)])
def test_rows_differing_only_in_the_first_of_many_columns_stay_apart(low, high):
    # 80 two-valued columns: the key wraps around 2**64 many times, yet rows
    # that differ only in the first columns must stay apart, by their keys
    # (an odd base shifts no column out of the key) or by the row check.
    profiles = np.full((4, 80), low, dtype=np.int64)
    profiles[1, 0] = profiles[2, 1] = profiles[3, :] = high
    profiles[3, 0] = low
    state = ClusteringState(labels=np.arange(4), profiles=profiles, remaining_features=tuple(range(80)))
    assert group_matching(state) is state
    assert group_matching(ClusteringState(labels=np.arange(5), profiles=profiles[[0, 1, 2, 3, 1]],
                                          remaining_features=tuple(range(80)))).entities == ((0,), (1, 4), (2,), (3,))


def test_a_collision_in_a_later_check_block_falls_back(monkeypatch):
    # 1100 x 1000 codes are checked in blocks of 1048 rows. A base of 0 keys
    # every profile by its last code, so all rows share one key, and only
    # the last row, in the second block, differs from the first.
    profiles = np.zeros((1100, 1000), dtype=np.int64)
    profiles[-1, 0] = 1
    monkeypatch.setattr(mbclust.core, "_BASE", np.uint64(0))
    state = ClusteringState(labels=np.arange(1100), profiles=profiles, remaining_features=tuple(range(1000)))
    assert group_matching(state).entities == (tuple(range(1099)), (1099,))
