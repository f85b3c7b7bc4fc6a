"""The one-sweep pgp2 scores against the match-count matrix.

``pgp2_kept_counts`` scores every candidate column in one pass over row
blocks, without a match-count matrix. Each count must equal what
``pgp2_counts`` gives for that column alone over ``build_sm``, and the
marked-pair count must equal the pairs of ``build_sm`` above ``alpha``,
whatever the cell budget of a block.
"""

import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mbclust
import mbclust.cli
import mbclust.core
import mbclust.importance
import mbclust.similarity
from mbclust import (
    ClusteringState,
    MbcConfig,
    build_sm,
    importance_report,
    pgp2_kept_counts,
    run,
    select_drop,
)
from mbclust.cli import main
from conftest import DATA_DIR
from pgp2_matrix import pgp2_counts
from test_equivalence import code_matrices, twin_column_matrices


def oracle(codes, candidates, alpha):
    sm = build_sm(codes)
    kept = tuple(pgp2_counts(codes, sm, (c,), alpha)[0] for c in candidates)
    return kept, int((sm.values > alpha).sum())


@st.composite
def sweep_cases(draw):
    """A code matrix, some of its columns in any order, and a threshold."""
    codes = draw(code_matrices())
    f = codes.shape[1]
    candidates = draw(st.permutations(range(f)))[:draw(st.integers(0, f))]
    alpha = draw(st.floats(-3.0, 7.0, allow_nan=False))
    return codes, tuple(candidates), alpha


def rows(*profiles):
    return np.array(profiles, dtype=np.int64)


BUDGETS = ("1", "7", "e-1", "e", "default")


def at_budget(name, e):
    """Patch the cells per sweep block: from one row per block up to all
    e rows in one."""
    cells = {"1": 1, "7": 7, "e-1": e - 1, "e": e, "default": mbclust.importance._SWEEP_CELLS}[name]
    return mock.patch.object(mbclust.importance, "_SWEEP_CELLS", max(cells, 1))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=sweep_cases())
@example(case=(np.zeros((0, 3), dtype=np.int64), (2, 0), 0.0))  # e = 0
@example(case=(rows([1, 2, 3]), (1,), -1.0))  # e = 1
@example(case=(rows([1, 2, 3], [1, 0, 3]), (2, 1, 0), 1.0))  # e = 2, the pair matches on t = 2 columns
@example(case=(rows([0, 0], [0, 1], [1, 1]), (1, 0), -1.5))  # t <= 0: every pair stays marked
@example(case=(rows([0, 0, 0], [0, 0, 0], [0, 1, 2]), (0, 1, 2), 3.0))  # t > theta: nothing is marked
@example(case=(rows([0], [0], [1]), (0,), -1.0))  # the only column: no pair kept
def test_sweep_equals_pgp2_counts(case):
    codes, candidates, alpha = case
    for name in BUDGETS:
        with at_budget(name, len(codes)):
            kept, marked = pgp2_kept_counts(codes, candidates, alpha)
        assert (kept, marked) == oracle(codes, candidates, alpha)
        assert all(type(k) is int for k in kept) and type(marked) is int


@pytest.mark.parametrize("e", [63, 64, 65, 66, 129, 200])
@pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0, 2.5])
def test_sweep_across_row_blocks(e, alpha):
    """Inputs of more rows than one block, half of them repeated prototypes."""
    rng = np.random.default_rng(e)
    f = int(rng.integers(2, 7))
    codes = rng.integers(0, 3, size=(e, f))
    codes[::2] = rng.integers(0, 3, size=(3, f))[rng.integers(0, 3, size=len(codes[::2]))]
    candidates = tuple(rng.permutation(f).tolist())
    for cells in BUDGETS:
        with at_budget(cells, e):
            assert pgp2_kept_counts(codes, candidates, alpha) == oracle(codes, candidates, alpha)


@pytest.mark.parametrize("cells", BUDGETS)
@pytest.mark.parametrize("f", [255, 256, 270])
def test_sweep_with_wide_count_dtype(f, cells):
    """From f = 255 on, the counts are compared with t up to f + 1 in uint16."""
    assert np.min_scalar_type(f + 1) == np.uint16
    rng = np.random.default_rng(f)
    protos = rng.integers(0, 2, size=(4, f))
    codes = protos[rng.integers(0, 4, size=40)]
    codes[rng.integers(0, 40, size=60), rng.integers(0, f, size=60)] ^= 1
    candidates = (f - 1, 0, f // 2)
    matches = build_sm(codes).values
    for alpha in (-1.0, float(np.median(matches)), f - 3.0, f - 1.0, float(f)):
        with at_budget(cells, len(codes)):
            kept = pgp2_kept_counts(codes, candidates, alpha)
        assert kept == oracle(codes, candidates, alpha)


@pytest.mark.parametrize("cells", BUDGETS)
def test_sweep_over_repeated_profiles(cells):
    """Entities that share a profile, as frozen clusters do in the loop:
    their pairs match on all f columns, so at t = f every column loses
    them."""
    rng = np.random.default_rng(7)
    f = 5
    codes = rng.integers(0, 3, size=(6, f))[rng.integers(0, 6, size=90)]
    candidates = (4, 0, 2, 0)
    for alpha in (-1.0, 0.0, 2.5, f - 1.0, f - 0.5, float(f)):
        with at_budget(cells, len(codes)):
            kept = pgp2_kept_counts(codes, candidates, alpha)
        assert kept == oracle(codes, candidates, alpha)
    twins = np.repeat(codes[:1], 50, axis=0)
    with at_budget(cells, len(twins)):
        assert pgp2_kept_counts(twins, candidates, f - 1.0) == ((0, 0, 0, 0), math.comb(50, 2))


@pytest.mark.parametrize("cells", BUDGETS)
def test_thresholds_outside_match_counts_across_blocks(cells):
    e, f = 70, 4
    codes = np.random.default_rng(e).integers(0, 2, size=(e, f))
    with at_budget(cells, e):
        for alpha in (-1.0, -0.5, -7.25):  # t <= 0: every pair stays marked
            assert pgp2_kept_counts(codes, (3, 1, 0), alpha) == ((math.comb(e, 2),) * 3, math.comb(e, 2))
        for alpha in (float(f), f + 2.5, 1e300):  # t > f: nothing is marked
            assert pgp2_kept_counts(codes, (3, 1, 0), alpha) == ((0, 0, 0), 0)


@pytest.mark.parametrize("alpha", [-1.0, -0.5, -7.25])
def test_no_pair_lost_below_zero_threshold(alpha):
    codes = rows([0, 1, 2], [0, 1, 3], [4, 5, 6], [0, 5, 6])
    assert pgp2_kept_counts(codes, (2, 0, 1), alpha) == ((6, 6, 6), 6)


def test_nothing_marked_above_theta():
    codes = np.zeros((5, 3), dtype=np.int64)
    assert pgp2_kept_counts(codes, (0, 1, 2), 2.0) == ((0, 0, 0), 10)
    assert pgp2_kept_counts(codes, (1, 0), 3.0) == ((0, 0), 0)
    assert pgp2_kept_counts(codes, (1,), 1e300) == ((0,), 0)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_alpha_rejected(alpha):
    with pytest.raises(ValueError, match="alpha"):
        pgp2_kept_counts(rows([0, 1], [0, 1]), (0,), alpha)


@pytest.mark.parametrize("alpha", ["2.5", True, False, np.True_, None, 1j, np.float64("nan")])
def test_non_real_alpha_rejected(alpha):
    with pytest.raises(ValueError, match=f"alpha .*{re.escape(repr(alpha))}"):
        pgp2_kept_counts(rows([0, 1], [0, 1]), (0,), alpha)
    with pytest.raises(ValueError, match=f"alpha .*{re.escape(repr(alpha))}"):
        MbcConfig(alpha=alpha)


@pytest.mark.parametrize("alpha", [2, 2.5, np.float64(2.5), np.int64(2)])
def test_real_alpha_accepted(alpha):
    codes = rows([0, 1, 2], [0, 1, 3], [0, 5, 3], [4, 1, 3])
    assert pgp2_kept_counts(codes, (0, 1, 2), alpha) == pgp2_kept_counts(codes, (0, 1, 2), float(alpha))


def test_sweep_memory_does_not_grow_with_rows_per_block():
    """A block of f x 64 x e booleans, 12.8 MB here, exceeds the bound.
    The block buffers take 2 x _SWEEP_CELLS bytes."""
    e, f = 10000, 20
    codes = np.random.default_rng(e).integers(0, 3, size=(e, f))
    tracemalloc.start()
    try:
        pgp2_kept_counts(codes[:200], range(f), 9.0)  # leaves one-time allocations out of the peak
        tracemalloc.reset_peak()
        pgp2_kept_counts(codes, range(f), 9.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12_000_000 < f * 64 * e


def test_sweep_memory_is_bounded_by_one_column():
    """Renumbering the codes column by column holds about 5 x e x 8 bytes
    at once; renumbering the whole matrix took 5 x e x f x 8, 8 MB here."""
    e, f = 10000, 20
    codes = np.random.default_rng(e).integers(0, 3, size=(e, f))
    tracemalloc.start()
    try:
        pgp2_kept_counts(codes[:200], range(f), 9.0)  # leaves one-time allocations out of the peak
        tracemalloc.reset_peak()
        pgp2_kept_counts(codes, range(f), 9.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


@pytest.mark.parametrize("cells", BUDGETS)
def test_sweep_over_more_codes_than_a_byte_holds(cells):
    """Columns of 300 and 600 distinct codes are compared in uint16; in
    uint8, codes 256 apart would match."""
    e = 600
    codes = np.stack([np.arange(e) % 300, np.arange(e) * 1000, np.random.default_rng(e).integers(0, 3, e)], axis=1)
    for alpha in (-1.0, 0.0, 1.0):
        with at_budget(cells, e):
            kept = pgp2_kept_counts(codes, (1, 0, 2), alpha)
        assert kept == oracle(codes, (1, 0, 2), alpha)


def test_argument_errors():
    with pytest.raises(IndexError):
        pgp2_kept_counts(rows([0, 1], [0, 1]), (2,))
    with pytest.raises(IndexError):
        pgp2_kept_counts(rows([0, 1], [0, 1]), (-1,))
    for candidate in (1.5, "1"):  # a cast would score column 1
        with pytest.raises(ValueError, match="is not an integer"):
            pgp2_kept_counts(rows([0, 1], [0, 1]), [candidate])
    with pytest.raises(ValueError, match="no features"):
        pgp2_kept_counts(np.zeros((3, 0), dtype=np.int64), ())


@pytest.mark.parametrize("alpha, expected", [("-1", (0, 3)), ("0", (0, 1))])
def test_single_column_cli_keeps_no_pair(tmp_path, capsys, alpha, expected):
    path = tmp_path / "one.csv"
    path.write_text("A\nx\nx\ny\n")
    assert main(["importance", str(path), "--measure", "pgp2", "--format", "json", f"--alpha={alpha}"]) == 0
    [row] = json.loads(capsys.readouterr().out)
    assert (row["feature"], row["numerator"], row["denominator"]) == ("A", *expected)


def _state(profiles, remaining):
    profiles = np.array(profiles, dtype=np.int64)
    return ClusteringState(
        entities=tuple((i,) for i in range(len(profiles))),
        profiles=profiles,
        remaining_features=remaining,
    )


def test_leftover_tie_goes_to_first_tied_position():
    # Columns 1 and 2 are twins tied for least important; column 0 is constant.
    state = _state([[0, 0, 5], [0, 0, 5], [0, 1, 6], [0, 2, 7]], (3, 8, 9))
    report = importance_report(state.profiles)
    assert pgp2_kept_counts(state.profiles, (1, 2)) == ((6, 6), 6)
    assert select_drop(state, report, MbcConfig(tie_policy="pgp2")) == (8,)


def test_first_maximum_wins():
    # Columns 0 to 2 tie with one matching pair each. Only the pair of
    # column 0 matches on nothing else, so dropping column 0 unmarks it;
    # columns 1 and 2 match the same pair, which survives either drop.
    state = _state([[0, 0, 0, 5], [0, 1, 1, 6], [1, 2, 2, 9], [2, 3, 3, 7], [3, 3, 3, 9], [4, 4, 4, 9]],
                   (0, 1, 2, 3))
    report = importance_report(state.profiles)
    assert report.match_pairs == (2, 2, 2, 6)
    assert pgp2_kept_counts(state.profiles, (0, 1, 2)) == ((4, 5, 5), 5)
    assert select_drop(state, report, MbcConfig(tie_policy="pgp2")) == (1,)


def record_sweeps(monkeypatch):
    sweeps, sweep = [], mbclust.core.pgp2_kept_counts

    def recorded(profiles, candidates, alpha):
        sweeps.append(list(candidates))
        return sweep(profiles, candidates, alpha)

    monkeypatch.setattr(mbclust.core, "pgp2_kept_counts", recorded)
    return sweeps


def test_tie_break_and_cli_build_no_match_matrix(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("match-count matrix built")

    for module in (mbclust, mbclust.similarity, mbclust.importance, mbclust.core, mbclust.cli):
        for name in ("build_sm", "update_sm_after_drop", "pgp2_counts"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    sweeps = record_sweeps(monkeypatch)
    result = run(mbclust.load_csv(DATA_DIR / "dataset_a.csv"), MbcConfig(tie_policy="pgp2", k=2))
    assert sweeps == []  # the tied columns C and D split the entities alike
    assert result.partition == ((0, 1, 2, 3), (4, 5, 6, 7, 8, 9))
    assert main(["importance", str(DATA_DIR / "dataset_a.csv"), "--measure", "pgp2"]) == 0
    assert capsys.readouterr().out.splitlines()[0].split() == ["feature", "numerator", "denominator", "value"]


@st.composite
def tied_states(draw):
    """States whose columns tie often, over twin and row-shuffled columns.
    Half of the code matrices repeat profiles, and entities are frozen,
    as frozen clusters share a profile in the loop."""
    profiles = draw(twin_column_matrices())
    e, f = profiles.shape
    frozen = draw(st.sets(st.integers(0, e - 1)))
    remaining = tuple(sorted(draw(st.sets(st.integers(0, 40), min_size=f, max_size=f))))
    return ClusteringState(labels=np.arange(e), profiles=profiles, remaining_features=remaining, frozen=frozen)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(state=tied_states(), measure=st.sampled_from(["pgp", "ppp"]), alpha=st.sampled_from([-1.0, 0.0, 1.0, 2.5]))
def test_tie_break_equals_sweep_over_every_tied_column(state, measure, alpha):
    report = importance_report(state.profiles)
    numerators = report.mismatch_pairs if measure == "ppp" else report.match_pairs
    tied = [pos for pos, v in enumerate(numerators) if v == min(numerators)]
    expected = ()
    if min(numerators) != max(numerators):
        kept, _ = pgp2_kept_counts(state.profiles, tied, alpha)
        expected = (state.remaining_features[tied[kept.index(max(kept))]],)
    config = MbcConfig(importance_measure=measure, tie_policy="pgp2", alpha=alpha)
    assert select_drop(state, report, config) == expected


def test_tie_among_columns_that_split_alike_runs_no_sweep(monkeypatch):
    # Columns 1 to 3 tie and split the entities as {0, 1}, {2}, {3} under
    # three codings; column 0 matches more pairs.
    state = _state([[0, 4, 7, 2], [0, 4, 7, 2], [0, 3, 9, 0], [1, 5, 8, -1]], (3, 5, 8, 9))
    report = importance_report(state.profiles)
    assert report.match_pairs == (6, 2, 2, 2)

    def refuse(*args):
        raise AssertionError("pgp2 sweep run")

    monkeypatch.setattr(mbclust.core, "pgp2_kept_counts", refuse)
    for alpha in (-1.0, 0.0, 1.0, 3.0):
        assert select_drop(state, report, MbcConfig(tie_policy="pgp2", alpha=alpha)) == (5,)


def test_mixed_tie_sweeps_one_column_per_split(monkeypatch):
    # Columns 1 and 3 split alike, so do 2 and 5; column 4 splits its own
    # way. All five match one pair; column 0 matches more.
    state = _state([[0, 0, 1, 5, 0, 9], [0, 0, 2, 5, 1, 8], [0, 1, 2, 6, 2, 8], [1, 2, 3, 7, 3, 7],
                    [1, 3, 4, 8, 3, 6], [1, 4, 5, 9, 4, 5]], tuple(range(6)))
    report = importance_report(state.profiles)
    assert report.match_pairs == (12, 2, 2, 2, 2, 2)
    sweeps = record_sweeps(monkeypatch)
    # At alpha 2 only the pairs of the twins are marked, each on exactly
    # three columns, so dropping a twin unmarks its pair and dropping
    # column 4 unmarks none. At alpha 1 the pair of column 4 is marked on
    # exactly two columns and goes with it, so the first tied column wins.
    assert select_drop(state, report, MbcConfig(tie_policy="pgp2", alpha=2.0)) == (4,)
    assert select_drop(state, report, MbcConfig(tie_policy="pgp2", alpha=1.0)) == (1,)
    assert sweeps == [[1, 2, 4], [1, 2, 4]]
