from pathlib import Path

import numpy as np
import pytest

import mbclust.similarity
from mbclust import load_csv, pairwise_blocks

DATA_DIR = Path(__file__).parent / "data"
SOYBEAN_CSV = DATA_DIR / "soybean-small.csv"

# One verdict line per acceptance criterion, echoed after the run so the
# outcome is readable even with output capture on.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def dataset_a():
    return load_csv(DATA_DIR / "dataset_a.csv")


@pytest.fixture(scope="session")
def d42():
    return load_csv(DATA_DIR / "d42.csv")


@pytest.fixture(scope="session")
def dataset_a_labeled():
    return load_csv(DATA_DIR / "dataset_a_labeled.csv", label_column="group")


def stacked_blocks(data, measure: str) -> np.ndarray:
    """The square matrix of ``pairwise_blocks``, whose every block must span all n
    columns and hold at most ``_BLOCK_CELLS`` cells, or one row."""
    blocks = list(pairwise_blocks(data, measure))
    for block in blocks:
        assert block.shape[1] == data.n and (block.size <= mbclust.similarity._BLOCK_CELLS or len(block) == 1)
    return np.concatenate(blocks)


def random_codes(rng: np.random.Generator, max_n: int = 50, max_m: int = 10, max_k: int = 5) -> np.ndarray:
    """Random categorical code matrix; column cardinalities vary."""
    n = int(rng.integers(2, max_n + 1))
    m = int(rng.integers(1, max_m + 1))
    cols = [rng.integers(0, int(rng.integers(1, max_k + 1)), size=n) for _ in range(m)]
    return np.stack(cols, axis=1).astype(np.int64)
