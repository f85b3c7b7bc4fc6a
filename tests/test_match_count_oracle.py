"""The condensed match-count builder against a per-pair brute force.

``update_sm_after_drop`` subtracts the counts that ``build_sm`` gives for
the dropped columns, so checking one against the other cannot catch a
bug they share. Here both are checked against ``count_matches`` applied
to every pair in ``itertools.combinations`` order, which is the
condensed order.
"""

import itertools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mbclust import build_sm, count_matches, update_sm_after_drop


@st.composite
def code_matrices(draw):
    """Code matrices with 0..12 rows and 1..5 columns; half of them copy
    at most two distinct rows over and over, so many pairs match fully."""
    e = draw(st.integers(0, 12))
    f = draw(st.integers(1, 5))
    cell = st.integers(-2, draw(st.integers(-2, 3)))
    pool_size = 2 if draw(st.booleans()) else e + 1
    pool = draw(st.lists(st.lists(cell, min_size=f, max_size=f), min_size=1, max_size=pool_size))
    rows = draw(st.lists(st.sampled_from(pool), min_size=e, max_size=e))
    return np.array(rows, dtype=np.int64).reshape(e, f)


@st.composite
def drop_cases(draw):
    """A code matrix and a proper subset of its columns to drop."""
    codes = draw(code_matrices())
    f = codes.shape[1]
    return codes, draw(st.sets(st.integers(0, f - 1), max_size=f - 1))


def brute_force(codes, features=None):
    rows = codes.tolist()
    return [count_matches(x, y, features) for x, y in itertools.combinations(rows, 2)]


def edge(e, f):
    """``e`` rows that agree on every one of ``f`` features."""
    return np.tile(np.arange(f, dtype=np.int64), (e, 1))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(codes=code_matrices())
@example(codes=edge(0, 1))
@example(codes=edge(1, 1))
@example(codes=edge(2, 1))
@example(codes=edge(2, 3))
def test_build_sm_equals_brute_force(codes):
    sm = build_sm(codes)
    assert sm.size == len(codes) and sm.theta == codes.shape[1]
    assert sm.values.dtype == np.int64 and not sm.values.flags.writeable
    assert sm.values.tolist() == brute_force(codes)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=drop_cases())
@example(case=(edge(0, 1), set()))
@example(case=(edge(1, 3), {0, 2}))
@example(case=(edge(2, 1), set()))
@example(case=(edge(2, 3), {1}))
def test_update_after_drop_equals_brute_force(case):
    codes, dropped = case
    kept = [col for col in range(codes.shape[1]) if col not in dropped]
    reduced = update_sm_after_drop(build_sm(codes), codes, dropped)
    assert reduced.size == len(codes) and reduced.theta == len(kept)
    assert reduced.values.dtype == np.int64 and not reduced.values.flags.writeable
    assert reduced.values.tolist() == brute_force(codes, kept)
