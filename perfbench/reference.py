"""Fixed reference computations that gauge the machine's current speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over seconds and minutes, so raw operation times of the
same code spread too widely between runs to compare two versions. After
every untraced operation, and once before the first, the benchmark runs
this file in a fresh process of its own and reports operation time in
units of reference time (see ``run.py``). The computations depend only
on numpy, the standard library and a fixed seed, and run in no process
that imported mbclust, so a change to the package cannot move them.

There are two kinds, because interpreted Python and numpy array work
slow down by different amounts when the host is busy; each workload uses
the kind that resembles its operation:

- ``numpy``: bincounts over sparse integer IDs, ``np.unique`` with inverse
  codes, and an n x n equality matrix widened to int64 and summed, at
  n = 2500, as in the clustering loop;
- ``python``: the per-pair loop of a frequency-weighted similarity over
  tuples of codes, with dict lookups and logarithms, as in the pure-Python
  pairwise measures.

Usage: python3 perfbench/reference.py KIND  (prints the seconds one pass took)
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np

_RNG = np.random.default_rng(20181208)
_IDS = _RNG.integers(0, 100_000, size=(2500, 24))
_CODES = _RNG.integers(0, 5, size=(80, 20))
_ROWS = [tuple(int(c) for c in row) for row in _CODES]
_FREQ = [{c: float(np.count_nonzero(_CODES[:, f] == c)) / len(_CODES) for c in range(5)}
         for f in range(_CODES.shape[1])]


def numpy_pass() -> None:
    for j in range(_IDS.shape[1]):
        column = _IDS[:, j]
        counts = np.bincount(column)
        _, inverse = np.unique(column % 64, return_inverse=True)
        equal = (inverse[:, None] == inverse[None, :]).astype(np.int64)
        equal.sum(axis=1)
        counts.max()


def python_pass() -> None:
    for _ in range(24):
        values = []
        for i, x in enumerate(_ROWS):
            for y in _ROWS[i + 1:]:
                num = den = 0.0
                for f, freq in enumerate(_FREQ):
                    px, py = freq[x[f]], freq[y[f]]
                    num += 2.0 * math.log(px) if x[f] == y[f] else 2.0 * math.log(px + py)
                    den += math.log(px) + math.log(py)
                values.append(num / den)


# Kind -> (one pass, nominal seconds of a pass). The nominal time is a
# fixed scale that turns the ratio back into seconds; see README.md.
KINDS = {
    "numpy": (numpy_pass, 0.60),
    "python": (python_pass, 1.20),
}


def reference_seconds(kind: str) -> float:
    """Seconds taken by one pass of the ``kind`` reference."""
    run_pass = KINDS[kind][0]
    started = time.perf_counter()
    run_pass()
    return time.perf_counter() - started


if __name__ == "__main__":
    print(repr(reference_seconds(sys.argv[1])))
    sys.exit(0)
