"""The bytes of ``mbclust similarity`` against the renderer it replaced.

The command computes, formats and writes the matrix one block of rows
at a time. It formats each distinct value of a block once, and keeps
the text of values met in earlier blocks while they fit in one block.
Its output, on stdout and in ``--out``, must equal what it printed when
it rendered ``matrix.tolist()`` with ``json.dumps`` or a ``csv.writer``,
cell by cell. Small category counts make values repeat, which is the
case the per-value formatting has to get right; small block sizes make
blocks of one row, of several rows and a short last block, and
overflow the kept text. The command's memory must not grow with the
matrix.
"""

import contextlib
import csv
import io
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mbclust.similarity
from mbclust import MbcError, load_csv
from mbclust.cli import main
from mbclust.similarity import pairwise_matrix

MEASURES = ("cm", "overlap", "goodall", "lin")


def render_by_cell(matrix, measure, fmt):
    """The output of ``similarity`` before it wrote row by row."""
    rows = matrix.tolist()
    if fmt == "json":
        return json.dumps({"measure": measure, "n": len(rows), "matrix": rows}) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + [str(j) for j in range(len(rows))])
    for i, row in enumerate(rows):
        writer.writerow([str(i)] + [str(v) if measure == "cm" else f"{v:.6f}" for v in row])
    return buf.getvalue()


def run_similarity(csv_path, measure, fmt, out=None):
    """Exit code, stdout and the ``--out`` file's text (None if absent)."""
    argv = ["similarity", str(csv_path), "--measure", measure, "--format", fmt]
    if out is not None:
        argv += ["--out", str(out)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    written = out.read_text(encoding="utf-8") if out is not None and out.exists() else None
    return code, stdout.getvalue(), written


def write_codes(path, codes):
    lines = [",".join(f"F{f}" for f in range(codes.shape[1]))]
    lines += [",".join(f"c{v}" for v in row) for row in codes.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@st.composite
def code_matrices(draw):
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 4))
    columns = [draw(st.lists(st.integers(0, draw(st.integers(1, 3))), min_size=n, max_size=n)) for _ in range(m)]
    return np.array(columns, dtype=np.int64).T


@pytest.mark.parametrize("sink", ["stdout", "out"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("measure", MEASURES)
@settings(max_examples=25, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(codes=code_matrices(), block_cells=st.sampled_from([1, 7, 40, mbclust.similarity._BLOCK_CELLS]))
def test_output_equals_per_cell_renderer(tmp_path_factory, measure, fmt, sink, codes, block_cells):
    folder = tmp_path_factory.mktemp("similarity")
    data_path, out = folder / "data.csv", (folder / "matrix.txt" if sink == "out" else None)
    write_codes(data_path, codes)
    try:
        expected = render_by_cell(pairwise_matrix(load_csv(data_path), measure), measure, fmt)
    except (MbcError, ValueError):
        expected = None
    with mock.patch.object(mbclust.similarity, "_BLOCK_CELLS", block_cells):
        code, stdout, written = run_similarity(data_path, measure, fmt, out)
    if expected is None:
        assert (code, stdout, written) == (1, "", None)
    elif sink == "out":
        assert (code, stdout, written) == (0, "", expected)
    else:
        assert (code, stdout, written) == (0, expected, None)


@pytest.mark.parametrize("sink", ["stdout", "out"])
def test_negative_zero_keeps_its_sign(tmp_path, sink):
    # Two objects that differ on one two-category feature: lin's numerator
    # is 2 log(1/2 + 1/2) = 0.0 over a negative denominator.
    data_path = tmp_path / "data.csv"
    data_path.write_text("a,b\nx,p\ny,q\n", encoding="utf-8")
    out = tmp_path / "matrix.txt" if sink == "out" else None
    expected = {
        "json": '{"measure": "lin", "n": 2, "matrix": [[1.0, -0.0], [-0.0, 1.0]]}\n',
        "csv": ",0,1\n0,1.000000,-0.000000\n1,-0.000000,1.000000\n",
    }
    for fmt, text in expected.items():
        assert render_by_cell(pairwise_matrix(load_csv(data_path), "lin"), "lin", fmt) == text
        code, stdout, written = run_similarity(data_path, "lin", fmt, out)
        assert code == 0
        assert (written if sink == "out" else stdout) == text


@pytest.mark.parametrize("measure", MEASURES)
def test_output_across_default_blocks(tmp_path, measure):
    n = 400
    assert n * n > mbclust.similarity._BLOCK_CELLS
    codes = np.random.default_rng(n).integers(0, 3, size=(n, 6))
    data_path, out = tmp_path / "data.csv", tmp_path / "matrix.txt"
    write_codes(data_path, codes)
    matrix = pairwise_matrix(load_csv(data_path), measure)
    for fmt in ("json", "csv"):
        assert run_similarity(data_path, measure, fmt, out) == (0, "", render_by_cell(matrix, measure, fmt))


def test_memory_does_not_grow_with_the_matrix(tmp_path):
    """Doubling n quadruples the matrix; the command's traced peak must not follow it."""
    peaks = {}
    for n in (800, 1600):
        data_path, out = tmp_path / f"data{n}.csv", tmp_path / "matrix.json"
        write_codes(data_path, np.random.default_rng(n).integers(0, 3, size=(n, 6)))
        tracemalloc.start()
        try:
            code = main(["similarity", str(data_path), "--measure", "lin", "--format", "json", "--out", str(out)])
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and out.stat().st_size > 8 * n * n
        out.unlink()
    assert peaks[1600] < 1.5 * peaks[800], peaks
