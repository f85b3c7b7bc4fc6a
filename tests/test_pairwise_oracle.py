"""The square similarity matrices against the per-pair reference.

``pairwise_loop.pairwise_matrix`` scores every pair with the single-pair
``goodall`` and ``lin``; ``mbclust.pairwise_blocks`` gathers per-feature
lookup tables in blocks of rows, which are stacked here. Every draw runs
in one block of all rows, where every category is held in the block, and
in blocks of one row, where one is. Every matrix must be bit-identical,
and where the reference raises, the call to ``pairwise_blocks`` itself,
before any block, must raise the same exception type with the same message.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mbclust.similarity
import pairwise_loop
from mbclust import Dataset, pairwise_blocks
from conftest import stacked_blocks
from test_equivalence import code_matrices


def _dataset(codes, unused):
    """Dataset over ``codes`` whose code books end with ``unused``
    categories that no object holds (gaps below the largest code are
    unused too)."""
    m = codes.shape[1]
    books = [tuple(f"c{c}" for c in range(int(codes[:, col].max()) + 1 + unused)) for col in range(m)]
    return Dataset(codes, [f"f{col}" for col in range(m)], books)


@pytest.mark.parametrize("measure", ["cm", "overlap", "goodall", "lin"])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(codes=code_matrices(), unused=st.integers(0, 3))
@example(codes=np.array([[2, 0, 1]]), unused=0)  # n = 1
@example(codes=np.array([[0, 1], [1, 1]]), unused=1)  # n = 2, one constant column
@example(codes=np.array([[0, 3], [0, 3]]), unused=0)  # n = 2, all constant
@example(codes=np.zeros((6, 3), dtype=np.int64), unused=2)  # all constant, unused categories
@example(codes=np.array([[0, 0], [0, 1], [0, 2], [0, 0]]), unused=0)  # a constant column beside a varied one
def test_pairwise_matrix_equals_per_pair_loop(measure, codes, unused):
    assert_equals_per_pair_loop(_dataset(codes, unused), measure)


@pytest.mark.parametrize("measure", ["cm", "overlap", "goodall", "lin"])
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(codes=code_matrices(), unused=st.integers(0, 3), order=st.randoms(use_true_random=False),
       position=st.integers(0, 5))
@example(codes=np.array([[2, 0, 1]]), unused=0, order=None, position=0)  # n = 1
@example(codes=np.zeros((7, 1), dtype=np.int64), unused=1, order=None, position=1)
def test_pairwise_matrix_with_id_column_equals_per_pair_loop(measure, codes, unused, order, position):
    """An ID-like column, every object its own category, inserted among the others."""
    ids = np.arange(len(codes))
    if order is not None:
        order.shuffle(ids)
    codes = np.insert(codes, min(position, codes.shape[1]), ids, axis=1)
    assert_equals_per_pair_loop(_dataset(codes, unused), measure)


BLOCK_CELLS = (mbclust.similarity._BLOCK_CELLS, 1)


def assert_equals_per_pair_loop(data, measure):
    try:
        expected = pairwise_loop.pairwise_matrix(data, measure)
    except Exception as exc:
        expected = exc
    for block_cells in BLOCK_CELLS:
        with mock.patch.object(mbclust.similarity, "_BLOCK_CELLS", block_cells):
            if isinstance(expected, Exception):
                with pytest.raises(Exception) as raised:
                    pairwise_blocks(data, measure)  # the call raises; no block is asked for
                assert type(raised.value) is type(expected)
                assert str(raised.value) == str(expected)
                continue
            actual = stacked_blocks(data, measure)
        assert actual.dtype == expected.dtype
        assert np.array_equal(actual, expected)
        assert actual.tobytes() == expected.tobytes()  # also the sign of every zero
