"""Replaying a run's trace through the public pieces of the loop.

Starting from ``initial_state``, each round groups with
``group_matching``, drops the features that the trace record names and,
under the containment rule, freezes with ``anti_merge_update``. The
states so reached must give every level of the run's dendrogram and its
partition, so the trace alone pins down the run's clusters. With ``k``,
the partition is the replayed level closest to ``k`` clusters, the
coarser of two equally close.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mbclust import (
    ClusteringState,
    Dataset,
    MbcConfig,
    anti_merge_update,
    group_matching,
    initial_state,
    run,
)
from test_equivalence import GRID, code_matrices


def replay(codes, result):
    """Dendrogram levels of ``result``, rebuilt from its trace."""
    data = Dataset.from_codes(codes)
    state = initial_state(data)
    levels = [state.entities]
    for record in result.trace:
        grouped = group_matching(state)
        levels.append(grouped.entities)
        drop = {data.feature_names.index(name) for name in record.dropped}
        keep = [pos for pos, f in enumerate(grouped.remaining_features) if f not in drop]
        state = ClusteringState(
            labels=grouped.labels,
            profiles=grouped.profiles[:, keep],
            remaining_features=tuple(grouped.remaining_features[pos] for pos in keep),
        )
        if result.config.anti_merge:
            state = anti_merge_update(state)
    return tuple(levels)


@pytest.mark.parametrize("measure, ties, anti_merge", GRID)
@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(codes=code_matrices(), k=st.sampled_from([None, 1, 2, 3, 5]), alpha=st.sampled_from([0.0, 1.0, 2.5]))
def test_trace_replay_reproduces_levels_and_partition(measure, ties, anti_merge, codes, k, alpha):
    config = MbcConfig(importance_measure=measure, tie_policy=ties, anti_merge=anti_merge, k=k, alpha=alpha)
    result = run(codes, config)
    assert all(record.dropped for record in result.trace[:-1])
    levels = replay(codes, result)
    assert levels == result.dendrogram.levels
    if k is None:
        assert result.partition == levels[-1]
    else:
        closest = min(range(len(levels)), key=lambda p: (abs(len(levels[p]) - k), -p))
        assert result.partition == levels[closest]
