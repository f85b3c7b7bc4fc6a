from unittest import mock

import numpy as np
import pytest

import mbclust.similarity
from mbclust import (
    Dataset,
    DegenerateDataError,
    SimilarityMatrix,
    build_sm,
    count_matches,
    goodall,
    lin,
    overlap,
    pairwise_blocks,
    update_sm_after_drop,
)
from conftest import random_codes, stacked_blocks
from matrix_loop import condensed_index
from oracles import PAIR_MEASURES_D42, SM_A_FULL


@pytest.mark.parametrize("size", range(2, 9))
def test_condensed_index_matches_enumeration(size):
    ii, jj = np.triu_indices(size, k=1)
    for pos, (i, j) in enumerate(zip(ii, jj)):
        assert condensed_index(size, int(i), int(j)) == pos
    # vectorized form agrees with the scalar one
    assert np.array_equal(condensed_index(size, ii, jj), np.arange(len(ii)))


def test_count_matches_and_overlap():
    x, y = (0, 1, 2, 3), (0, 1, 5, 3)
    assert count_matches(x, y) == 3
    assert overlap(x, y) == 0.75
    assert count_matches(x, y, features=[2]) == 0
    assert overlap(x, y, features=[0, 1]) == 1.0


def test_pair_argument_errors():
    with pytest.raises(ValueError):
        count_matches((0, 1), (0, 1, 2))
    with pytest.raises(ValueError):
        overlap((0, 1), (0, 1), features=[])
    with pytest.raises(IndexError):
        count_matches((0, 1), (0, 1), features=[2])
    with pytest.raises(ValueError, match="feature index 0.5 is not an integer"):
        count_matches((0, 1), (1, 1), features=[0.5])


def test_match_count_matrix_on_example(dataset_a):
    sm = build_sm(dataset_a.codes_matrix)
    assert sm.size == 10 and sm.theta == 5
    assert np.array_equal(sm.values, SM_A_FULL)


def test_build_sm_accepts_dataset(dataset_a):
    assert np.array_equal(build_sm(dataset_a).values, SM_A_FULL)


def test_build_sm_degenerate_shapes():
    one = build_sm(np.array([[0, 1, 2]]))
    assert one.size == 1 and one.values.size == 0
    with pytest.raises(ValueError):
        build_sm(np.zeros((3, 0), dtype=int))
    with pytest.raises(ValueError, match=r"expected 3 condensed values for size 3, got \(2,\)"):
        SimilarityMatrix(size=3, values=np.zeros(2, dtype=np.int64), theta=1)


def test_update_after_drop_equals_rebuild(dataset_a):
    codes = dataset_a.codes_matrix
    sm = build_sm(codes)
    updated = update_sm_after_drop(sm, codes, [4])
    rebuilt = build_sm(codes[:, :4])
    assert updated.theta == 4
    assert np.array_equal(updated.values, rebuilt.values)


def test_update_after_drop_randomized():
    rng = np.random.default_rng(20240817)
    for _ in range(50):
        codes = random_codes(rng)
        if codes.shape[1] < 2:
            continue
        sm = build_sm(codes)
        n_drop = int(rng.integers(1, codes.shape[1]))
        drop = rng.choice(codes.shape[1], size=n_drop, replace=False)
        kept = [c for c in range(codes.shape[1]) if c not in set(drop.tolist())]
        updated = update_sm_after_drop(sm, codes, drop)
        rebuilt = build_sm(codes[:, kept])
        assert np.array_equal(updated.values, rebuilt.values)
        assert updated.theta == rebuilt.theta


def test_update_after_drop_edge_cases(dataset_a):
    codes = dataset_a.codes_matrix
    sm = build_sm(codes)
    same = update_sm_after_drop(sm, codes, [])
    assert np.array_equal(same.values, sm.values)
    assert same.values is not sm.values
    with pytest.raises(ValueError):
        update_sm_after_drop(sm, codes, range(5))
    with pytest.raises(IndexError):
        update_sm_after_drop(sm, codes, [7])
    with pytest.raises(ValueError, match="dropped column 0.9 is not an integer"):
        update_sm_after_drop(sm, codes, [0.9])
    with pytest.raises(ValueError):
        update_sm_after_drop(sm, codes[:, :4], [0])
    with pytest.raises(ValueError):
        update_sm_after_drop(sm, codes[:9], [0])


def test_pair_measures_on_balanced_example(d42):
    rows = [d42.row(i) for i in range(4)]
    pos = 0
    for i in range(4):
        for j in range(i + 1, 4):
            ov, li, go = PAIR_MEASURES_D42[pos]
            assert overlap(rows[i], rows[j]) == pytest.approx(ov, abs=1e-12)
            assert lin(rows[i], rows[j], d42) == pytest.approx(li, abs=1e-12)
            assert goodall(rows[i], rows[j], d42) == pytest.approx(go, abs=1e-12)
            pos += 1


def test_lin_identity_is_exactly_one(d42, dataset_a):
    for data in (d42, dataset_a):
        for i in range(data.n):
            row = data.row(i)
            assert lin(row, row, data) == 1.0


def test_lin_degenerate():
    data = Dataset.from_codes([[0, 0], [0, 0], [0, 0]])
    with pytest.raises(DegenerateDataError):
        lin(data.row(0), data.row(1), data)


def test_goodall_needs_population():
    data = Dataset.from_codes([[0, 1]])
    with pytest.raises(ValueError):
        goodall(data.row(0), data.row(0), data)


def test_measures_symmetric_and_bounded():
    rng = np.random.default_rng(61)
    for _ in range(30):
        codes = random_codes(rng, max_n=20, max_m=6, max_k=4)
        data = Dataset.from_codes(codes)
        i, j = rng.integers(0, data.n, size=2)
        x, y = data.row(int(i)), data.row(int(j))
        assert overlap(x, y) == overlap(y, x)
        assert goodall(x, y, data) == goodall(y, x, data)
        assert 0.0 <= overlap(x, y) <= 1.0
        assert 0.0 <= goodall(x, y, data) <= 1.0
        try:
            forward = lin(x, y, data)
        except DegenerateDataError:
            continue
        assert forward == lin(y, x, data)
        assert 0.0 <= forward <= 1.0


def test_pairwise_matrix_consistency(d42):
    cm = stacked_blocks(d42, "cm")
    assert np.array_equal(cm, cm.T)
    assert np.all(np.diag(cm) == d42.m)
    assert np.array_equal(stacked_blocks(d42, "overlap"), cm / d42.m)
    go = stacked_blocks(d42, "goodall")
    assert go[0, 2] == pytest.approx(5 / 12, abs=1e-12)
    li = stacked_blocks(d42, "lin")
    assert np.all(np.diag(li) == 1.0)


@pytest.mark.parametrize("codes, measure, error, message", [
    ([[0, 1], [1, 0]], "hamming", ValueError, "unknown measure 'hamming'"),
    ([[0, 1]], "goodall", ValueError, "goodall needs at least two objects"),
    ([[0, 3], [0, 3]], "lin", DegenerateDataError, "every scored category is held by all objects"),
], ids=["unknown-measure", "goodall-one-object", "lin-degenerate"])
def test_pairwise_blocks_raises_at_the_call(codes, measure, error, message):
    """Each error comes from the call itself, before a block is asked for, so a caller can check a measure
    before it opens an output."""
    with pytest.raises(error, match=message):
        pairwise_blocks(Dataset.from_codes(codes), measure)


@pytest.mark.parametrize("block_cells, rows", [(1, [1] * 10), (7, [1] * 10), (40, [4, 4, 2]), (100, [10])])
def test_pairwise_blocks_hold_at_most_block_cells_or_one_row(dataset_a, block_cells, rows):
    whole = {measure: stacked_blocks(dataset_a, measure) for measure in ("cm", "lin")}
    with mock.patch.object(mbclust.similarity, "_BLOCK_CELLS", block_cells):
        for measure, expected in whole.items():
            assert [len(block) for block in pairwise_blocks(dataset_a, measure)] == rows
            assert stacked_blocks(dataset_a, measure).tobytes() == expected.tobytes()


@pytest.mark.parametrize("measure", ["cm", "overlap", "goodall", "lin"])
def test_each_feature_groups_a_block_once(dataset_a, monkeypatch, measure):
    """Lin's two term sources share one grouping of the block's categories, as the one source of the others does."""
    monkeypatch.setattr(mbclust.similarity, "_BLOCK_CELLS", 40)  # blocks of 4, 4 and 2 rows
    blocks = pairwise_blocks(dataset_a, measure)
    calls, unique = [], np.unique

    def counted(*args, **kwargs):
        calls.append(args[0])
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    assert [len(block) for block in blocks] == [4, 4, 2]
    assert [len(values) for values in calls] == [4] * dataset_a.m + [4] * dataset_a.m + [2] * dataset_a.m


def test_pairwise_matrix_scores_no_single_pair(dataset_a, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("per-pair scoring called")

    monkeypatch.setattr(Dataset, "frequency", refuse)
    monkeypatch.setattr(mbclust.similarity, "goodall", refuse)
    monkeypatch.setattr(mbclust.similarity, "lin", refuse)
    for measure in ("cm", "overlap", "goodall", "lin"):
        assert stacked_blocks(dataset_a, measure).shape == (dataset_a.n, dataset_a.n)
