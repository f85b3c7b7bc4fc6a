"""The one-sweep pgp2 scores against the match-count matrix.

``pgp2_kept_counts`` scores every candidate column in one pass over row
blocks, without a match-count matrix. Each count must equal what
``pgp2_counts`` gives for that column alone over ``build_sm``, and the
marked-pair count must equal the pairs of ``build_sm`` above ``alpha``.
"""

import json

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
from test_equivalence import code_matrices


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
    assert pgp2_kept_counts(codes, candidates, alpha) == oracle(codes, candidates, alpha)


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


def test_argument_errors():
    with pytest.raises(IndexError):
        pgp2_kept_counts(rows([0, 1], [0, 1]), (2,))
    with pytest.raises(IndexError):
        pgp2_kept_counts(rows([0, 1], [0, 1]), (-1,))
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
    assert select_drop(state, report, MbcConfig(tie_policy="pgp2").validated()) == (8,)


def test_first_maximum_wins():
    # Columns 0 to 2 tie with one matching pair each. Only the pair of
    # column 0 matches on nothing else, so dropping column 0 unmarks it;
    # columns 1 and 2 match the same pair, which survives either drop.
    state = _state([[0, 0, 0, 5], [0, 1, 1, 6], [1, 2, 2, 9], [2, 3, 3, 7], [3, 3, 3, 9], [4, 4, 4, 9]],
                   (0, 1, 2, 3))
    report = importance_report(state.profiles)
    assert report.match_pairs == (2, 2, 2, 6)
    assert pgp2_kept_counts(state.profiles, (0, 1, 2)) == ((4, 5, 5), 5)
    assert select_drop(state, report, MbcConfig(tie_policy="pgp2").validated()) == (1,)


def test_tie_break_and_cli_build_no_match_matrix(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("match-count matrix built")

    for module in (mbclust, mbclust.similarity, mbclust.importance, mbclust.core, mbclust.cli):
        for name in ("build_sm", "update_sm_after_drop", "pgp2_counts"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    sweeps = []
    sweep = mbclust.core.pgp2_kept_counts

    def counted(*args, **kwargs):
        sweeps.append(args[1])
        return sweep(*args, **kwargs)

    monkeypatch.setattr(mbclust.core, "pgp2_kept_counts", counted)
    result = run(mbclust.load_csv(DATA_DIR / "dataset_a.csv"), MbcConfig(tie_policy="pgp2", k=2))
    assert sweeps == [[2, 3]]
    assert result.partition == ((0, 1, 2, 3), (4, 5, 6, 7, 8, 9))
    assert main(["importance", str(DATA_DIR / "dataset_a.csv"), "--measure", "pgp2"]) == 0
    assert capsys.readouterr().out.splitlines()[0].split() == ["feature", "numerator", "denominator", "value"]
