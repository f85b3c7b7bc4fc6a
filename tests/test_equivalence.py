"""The library's loop against the matrix-based reference loop.

``matrix_loop.run`` merges and applies the containment rule on a full
match-count matrix; ``mbclust.run`` groups identical profiles and freezes
colliding clusters. Every observable output must be identical. The
reference records its dendrogram as member tuples and merge events while
it runs, so it also checks everything that ``mbclust.Dendrogram`` derives
from its level labels: the levels, the merges, the level sizes and the
three writers.
"""

import itertools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import matrix_loop
import mbclust.core
from mbclust import MbcConfig, run, writers


@st.composite
def code_matrices(draw):
    """Small code matrices; half are copies of a few prototypes with edits,
    so that clusters collide and the containment rule fires often."""
    n = draw(st.integers(1, 24))
    m = draw(st.integers(1, 5))
    cell = st.integers(0, draw(st.integers(0, 3)))
    if draw(st.booleans()):
        protos = draw(st.lists(st.lists(cell, min_size=m, max_size=m), min_size=1, max_size=4))
        picks = draw(st.lists(st.sampled_from(range(len(protos))), min_size=n, max_size=n))
        codes = np.array([protos[p] for p in picks], dtype=np.int64)
        for row, col, value in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1), cell),
                                             max_size=n)):
            codes[row, col] = value
        return codes
    rows = draw(st.lists(st.lists(cell, min_size=m, max_size=m), min_size=n, max_size=n))
    return np.array(rows, dtype=np.int64)


@st.composite
def twin_column_matrices(draw):
    """Code matrices with added columns: twins, which repeat a column's
    split under a bijective relabelling of its codes, and row shuffles,
    which keep its pair count but usually split the rows otherwise."""
    codes = draw(code_matrices())
    columns = list(codes.T)
    for _ in range(draw(st.integers(1, 4))):
        column = columns[draw(st.integers(0, len(columns) - 1))]
        if draw(st.booleans()):
            distinct, inverse = np.unique(column, return_inverse=True)
            relabel = np.array(draw(st.permutations(range(len(distinct)))), dtype=np.int64)
            column = relabel[inverse] * draw(st.sampled_from([1, 7, -3])) + draw(st.sampled_from([0, 5, 10**6]))
        else:
            column = column[np.array(draw(st.permutations(range(len(column)))), dtype=np.intp)]
        columns.insert(draw(st.integers(0, len(columns))), column)
    return np.stack(columns, axis=1)


def _observed(result):
    return (
        result.partition,
        result.dendrogram.to_dict(),
        result.dendrogram.to_newick(),
        [record.to_dict() for record in result.trace],
        result.stop_reason,
    )


# Each id ends in "entities", the population that features are ranked
# over, so that a case keeps its name from when that was a setting.
GRID = [pytest.param(*cell, id="-".join(map(str, cell)) + "-entities")
        for cell in itertools.product(("pgp", "ppp"), ("drop-all", "pgp2-single"), (True, False))]


@pytest.mark.parametrize("measure, ties, anti_merge", GRID)
@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(codes=code_matrices(), k=st.sampled_from([None, 1, 2, 3, 5]), alpha=st.sampled_from([0.0, 1.0, 2.5]))
def test_run_equals_matrix_loop(measure, ties, anti_merge, codes, k, alpha):
    config = MbcConfig(importance_measure=measure, tie_policy=ties, anti_merge=anti_merge, k=k, alpha=alpha)
    assert_run_equals_matrix_loop(codes, config)


@pytest.mark.parametrize("measure, ties, anti_merge", GRID)
def test_run_equals_matrix_loop_on_every_tiny_input(measure, ties, anti_merge):
    """Every input of one or two rows and up to two binary features, where
    the loop meets at most two entities and at most one cluster."""
    config = MbcConfig(importance_measure=measure, tie_policy=ties, anti_merge=anti_merge)
    for n, m in itertools.product((1, 2), repeat=2):
        for cells in itertools.product((0, 1), repeat=n * m):
            assert_run_equals_matrix_loop(np.array(cells, dtype=np.int64).reshape(n, m), config)


@pytest.mark.parametrize("measure, ties, anti_merge", GRID)
@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(codes=code_matrices(), k=st.sampled_from([None, 1, 2, 3, 5]), alpha=st.sampled_from([0.0, 1.0, 2.5]))
def test_derived_level_and_stop_reason_equal_matrix_loop(measure, ties, anti_merge, codes, k, alpha):
    """``run`` keeps no level or stop reason; the result derives them from its
    dendrogram and config. The reference loop decides both as it runs."""
    config = MbcConfig(importance_measure=measure, tie_policy=ties, anti_merge=anti_merge, k=k, alpha=alpha)
    result, expected = run(codes, config), matrix_loop.run(codes, config)
    assert (result.level, result.stop_reason) == (expected.level, expected.stop_reason)
    assert result.partition == expected.partition == expected.dendrogram.levels[expected.level]


@pytest.mark.parametrize("measure", ["pgp", "ppp"])
@pytest.mark.parametrize("anti_merge", [True, False])
@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(codes=twin_column_matrices(), k=st.sampled_from([None, 2, 3]), alpha=st.sampled_from([0.0, 1.0, 2.5]))
def test_run_with_twin_columns_equals_matrix_loop(measure, anti_merge, codes, k, alpha):
    """pgp2 ties among columns that split the entities alike, decided
    without a sweep, and mixed with columns that split them otherwise.
    Pairs are counted only in the first round and after a merge."""
    config = MbcConfig(importance_measure=measure, tie_policy="pgp2", anti_merge=anti_merge, k=k, alpha=alpha)
    result, calls = counted_run(codes, config)
    assert calls == 1 + rounds_after_a_merge(result)
    assert_run_equals_matrix_loop(codes, config)


def counted_run(codes, config):
    """The result of ``run`` and how often it counted pairs with ``importance_report``."""
    with mock.patch.object(mbclust.core, "importance_report", wraps=mbclust.core.importance_report) as counted:
        result = run(codes, config)
    return result, counted.call_count


def rounds_after_a_merge(result) -> int:
    """Rounds after the first whose previous round merged something; round
    ``r`` forms level ``r + 1``, so it merged when that level is smaller."""
    sizes = result.dendrogram.level_sizes
    return sum(sizes[r] < sizes[r - 1] for r in range(1, len(result.trace)))


def test_rounds_that_merge_nothing_reuse_their_pair_counts():
    """Dropping a twin column merges nothing, so the next round takes this
    round's pair counts at the kept columns instead of counting again."""
    base = np.random.default_rng(0).integers(0, 3, size=(40, 4))
    codes = np.concatenate([base, base * 7 + 5], axis=1)  # every column beside a recoded twin
    config = MbcConfig(tie_policy="pgp2-single", anti_merge=False)
    result, calls = counted_run(codes, config)
    assert result.dendrogram.level_sizes == (40, 33, 33, 22, 22, 22, 9, 3)
    assert calls == 1 + rounds_after_a_merge(result) == 4 < len(result.trace) == 7
    expected = matrix_loop.run(codes, config)
    assert [record.to_dict() for record in result.trace] == [record.to_dict() for record in expected.trace]


def assert_run_equals_matrix_loop(codes, config):
    result, expected = run(codes, config), matrix_loop.run(codes, config)
    assert _observed(result) == _observed(expected)
    assert list(result.assignments) == list(expected.assignments)
    dendrogram, reference = result.dendrogram, expected.dendrogram
    assert dendrogram.levels == reference.levels
    assert dendrogram.level_sizes == tuple(map(len, reference.levels))
    assert [(ev.iteration, ev.parent, ev.children, ev.members) for ev in dendrogram.merge_events] == \
        [(ev.iteration, ev.parent, ev.children, ev.members) for ev in reference.merge_events]
    assert "".join(writers.dendrogram_json(dendrogram)) == json.dumps(reference.to_dict(), indent=2)


@pytest.mark.parametrize("base", [0, 1])
@pytest.mark.parametrize("measure, ties, anti_merge", GRID)
def test_key_collisions_fall_back_to_row_grouping(measure, ties, anti_merge, base, monkeypatch):
    """A key base of 0 keys each profile by its last code, and a base of 1
    by its code sum, so distinct profiles share keys and the grouping must
    fall back to ``np.unique`` of the whole rows. The outputs stay those of
    the unpatched run and of the reference loop."""
    config = MbcConfig(importance_measure=measure, tie_policy=ties, anti_merge=anti_merge)
    matrices = []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 4, size=(4, 6))[rng.integers(0, 4, size=30)]
        edits = rng.random(codes.shape) < 0.15
        codes[edits] = rng.integers(0, 4, size=edits.sum())
        matrices.append(codes)
    expected = [_observed(run(codes, config)) for codes in matrices]

    unique, fallbacks = np.unique, []

    def counting(*args, **kwargs):
        if kwargs.get("axis") == 0:
            fallbacks.append(args[0].shape)
        return unique(*args, **kwargs)

    monkeypatch.setattr(mbclust.core, "_BASE", np.uint64(base))
    monkeypatch.setattr(np, "unique", counting)
    for codes, observed in zip(matrices, expected):
        assert _observed(run(codes, config)) == observed
        assert_run_equals_matrix_loop(codes, config)
    assert fallbacks
