"""The bytes of ``mbclust similarity`` against the renderer it replaced.

The command computes, formats and writes the matrix one block of rows
at a time. It formats each distinct value of a block once, the float
values through the digit engine ``writers.float_text``: uint64
arithmetic for the values in [2**-8, 1) that are not powers of two,
``repr`` or ``format`` one by one for the others and for ties between
two shortest ``repr`` texts. Its output, on stdout and in ``--out``,
must equal what it printed when it rendered ``matrix.tolist()`` with
``json.dumps`` or a ``csv.writer``, cell by cell. Small category counts
make values repeat, which is the case the per-value formatting has to
get right; small block sizes make blocks of one row, of several rows
and a short last block. The engine's text must equal ``repr`` and
``"{:.6f}".format`` value by value, on random values and on the values
where rounding is closest to a tie, and its memory must stay within a
chunk of the text it returns. The command's memory must not grow with
the matrix.
"""

import contextlib
import csv
import io
import json
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mbclust.similarity
import mbclust.writers
from mbclust import MbcError, load_csv
from mbclust.cli import main
from mbclust.writers import float_text
from conftest import stacked_blocks

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
        expected = render_by_cell(stacked_blocks(load_csv(data_path), measure), measure, fmt)
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
        assert render_by_cell(stacked_blocks(load_csv(data_path), "lin"), "lin", fmt) == text
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
    matrix = stacked_blocks(load_csv(data_path), measure)
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


def adversarial_floats():
    """The values where the engine's digits or stopping rules are most easily off,
    and values it must hand to the one-by-one path."""
    odd = (2 * np.arange(0, 10**6, 5) + 1) / 2e6  # midway between two 6-decimal texts
    powers = 2.0 ** -np.arange(0, 11)
    return np.concatenate([
        np.arange(129) / 128,  # exact ties at the 7th decimal: 3/128 -> 0.023438, 1/128 -> 0.007812
        np.nextafter(odd, 0), odd, np.nextafter(odd, 1),
        # odd / 2**17 has 17 decimals and lies midway between two 16-decimal texts that both
        # read back as it: 0.66194915771484375 -> 0.6619491577148438 (likewise 2**18 and 2**19)
        *[(2 * np.arange(0, 2 ** (b - 1), 7) + 1) / 2**b for b in (17, 18, 19)],
        powers, np.nextafter(powers, 0), np.nextafter(powers, 2),  # 2**-8 and the powers of two in range
        [np.nextafter(1.0, 0), 0.0, 1.0, -0.0, -0.5, 1.5, 2.0, 1e300, np.inf, np.nan],
        [5e-324, 2.2250738585072014e-308 / 3, 1e-5],  # subnormals and a value below the range
    ])


def assert_as_python_formats(values):
    values = np.asarray(values, dtype=np.float64)
    for fmt, cell in (("json", repr), ("csv", "{:.6f}".format)):
        expected = [cell(v) for v in values.tolist()]
        got = float_text(values, fmt)
        assert got.dtype == object and len(got) == len(expected)
        mismatches = [(v, g, e) for v, g, e in zip(values.tolist(), got.tolist(), expected) if g != e]
        assert not mismatches, mismatches[:10]


def test_float_text_equals_python_on_a_seeded_sweep():
    rng = np.random.default_rng(2024)
    short = [np.round(rng.random(5000), d) for d in range(1, 18)]  # texts that stop early
    values = np.concatenate([
        adversarial_floats(), rng.random(2 * 10**5), *short,
        2.0 ** -8 * (1 + rng.random(10**5)),  # two zeros after the point, the longest repr in range
        rng.integers(1, 2**53, size=10**5) / 2**53,  # every last bit of the mantissa
    ])
    assert len(values) > 10**6
    assert_as_python_formats(values)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=2.0 ** -8, max_value=1, exclude_max=True),
    st.integers(0, 128).map(lambda k: k / 128),
    st.integers(0, 10**6 - 1).flatmap(lambda k: st.sampled_from(
        [np.nextafter((2 * k + 1) / 2e6, 0), (2 * k + 1) / 2e6, np.nextafter((2 * k + 1) / 2e6, 1)])),
    st.integers(0, 62).map(lambda e: 2.0 ** -e),
    st.integers(17, 19).flatmap(lambda b: st.integers(0, 2 ** (b - 1) - 1).map(lambda k: (2 * k + 1) / 2**b)),
    st.floats(allow_nan=True, allow_infinity=True),
), min_size=1, max_size=50))
def test_float_text_equals_python(values):
    assert_as_python_formats([float(v) for v in values])


def test_float_text_formats_few_values_one_by_one():
    # repr is looked up in the writers module when the engine falls back, so a module
    # global counts the values that did not take the uint64 digits.
    values = np.concatenate([np.random.default_rng(7).random(10**5) * 0.99 + 0.01, [0.0, 1.0, -0.0, 0.5, 2.0]])
    calls = []

    def counted_repr(value):
        calls.append(value)
        return repr(value)

    with mock.patch.object(mbclust.writers, "repr", counted_repr, create=True):
        assert float_text(values, "json").tolist() == list(map(repr, values.tolist()))
    assert {0.0, 1.0, 0.5, 2.0} <= set(calls) and len(calls) < 5 + 10, len(calls)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_float_text_memory_stays_within_a_chunk_of_its_text(fmt):
    """The engine lays out a bounded chunk of values at a time: its traced peak is the
    text it returns plus a constant, not a multiple of the number of values."""
    values = np.random.default_rng(18).random(1 << 18)
    tracemalloc.start()
    try:
        text = float_text(values, fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sys.getsizeof(text) + sum(map(sys.getsizeof, text.tolist()))
    assert returned < peak < returned + 8 * 2**20, (peak, returned)
