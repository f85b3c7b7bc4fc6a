import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbclust import (CsvError, Dataset, build_sm, count_matches, importance_report, load_csv, pgp2_kept_counts, run,
                     update_sm_after_drop)
from conftest import DATA_DIR


def test_load_shape_and_names(dataset_a):
    assert (dataset_a.n, dataset_a.m) == (10, 5)
    assert dataset_a.feature_names == ("A", "B", "C", "D", "E")
    assert dataset_a.labels is None


def test_first_appearance_encoding(dataset_a):
    # a2 appears in the first row, so it takes code 0.
    assert dataset_a.category_labels[0] == ("a2", "a1")
    assert dataset_a.category_labels[0].index("a2") == 0
    assert dataset_a.category_labels[0].index("a1") == 1
    assert dataset_a.category_labels[4] == ("e2", "e1", "e4", "e3")


def test_frequencies(dataset_a):
    a = dataset_a.feature_names.index("A")
    assert dataset_a.frequency(a, dataset_a.category_labels[a].index("a1")) == 6
    assert dataset_a.frequency(a, dataset_a.category_labels[a].index("a2")) == 4
    assert dataset_a.frequencies_for(a).sum() == dataset_a.n


def test_row_decode_roundtrip(dataset_a):
    def decode(i):
        return tuple(dataset_a.category_labels[f][c] for f, c in enumerate(dataset_a.row(i)))

    assert decode(0) == ("a2", "b1", "c2", "d3", "e2")
    assert decode(8) == ("a1", "b2", "c1", "d1", "e3")
    row = dataset_a.row(5)
    assert all(isinstance(c, int) for c in row)


def test_load_is_deterministic():
    first = load_csv(DATA_DIR / "dataset_a.csv")
    second = load_csv(DATA_DIR / "dataset_a.csv")
    assert np.array_equal(first.cells, second.cells)
    assert first.category_labels == second.category_labels


def test_label_column_held_out(dataset_a_labeled):
    assert dataset_a_labeled.m == 5
    assert "group" not in dataset_a_labeled.feature_names
    assert dataset_a_labeled.labels == ("G1",) * 4 + ("G2",) * 6


def test_cells_are_read_only(dataset_a):
    with pytest.raises(ValueError):
        dataset_a.cells[0, 0] = 3
    with pytest.raises(ValueError):
        dataset_a.frequencies_for(0)[0] = 99


def test_from_codes_defaults():
    data = Dataset.from_codes([[0, 1], [1, 0], [0, 0]])
    assert data.feature_names == ("f0", "f1")
    assert data.category_labels[0] == ("c0", "c1")
    assert data.frequency(0, 0) == 2


def test_from_codes_compacts_sparse_codes():
    assert Dataset.from_codes([[0], [2]]).category_labels[0] == ("c0", "c2")
    sparse = Dataset.from_codes([[0, 1], [3_000_000, 0], [5, 1]])
    assert sparse.category_labels[0] == ("c0", "c5", "c3000000")
    assert np.array_equal(sparse.codes_matrix, [[0, 1], [2, 0], [1, 1]])
    past_int64 = Dataset.from_codes(np.array([[2**64 - 1], [0]], dtype=np.uint64))  # ordered and named unsigned
    assert past_int64.category_labels == (("c0", "c18446744073709551615"),)
    assert np.array_equal(past_int64.codes_matrix, [[1], [0]])
    assert run(np.array([[0, 1], [3_000_000, 0], [5, 1]])).partition == ((0, 2), (1,))


FRACTIONAL = np.array([[0.2, 1], [0.7, 1], [1.0, 0], [1.9, 0]])


# Every entry point that takes a code matrix checks it with as_codes.
ENTRIES = pytest.mark.parametrize("entry", [
    run,
    Dataset.from_codes,
    lambda codes: Dataset(codes, ["a", "b"], [("x", "y")] * 2),
    importance_report,
    build_sm,
], ids=["run", "from_codes", "Dataset", "importance_report", "build_sm"])


@ENTRIES
@pytest.mark.parametrize("codes, cell", [
    (FRACTIONAL, r"\(0, 0\) holds 0.2"),
    (np.array([[0, 1], [1, np.nan]]), r"\(1, 1\) holds nan"),
    (np.array([[0, -np.inf], [1, 0]]), r"\(0, 1\) holds -inf"),
    (FRACTIONAL.astype(object), r"\(0, 0\) holds 0.2"),  # e.g. np.asarray of a mixed-type frame
    (np.array([[0, 1], [1, 0.7]], dtype=object), r"\(1, 1\) holds 0.7"),
    (np.array([["1", "0"], ["01", "1"]]), "each cell holds a <U2 value"),  # a cast makes "01" and "1" one code
    (np.array([[1, 0], [1 + 1j, 0]]), "each cell holds a complex128 value"),  # a cast drops the imaginary part
], ids=["fractional", "nan", "-inf", "object", "object-mixed", "text", "complex"])
def test_float_codes_must_be_integers(entry, codes, cell):
    # A cast would make 0.2 and 0.7 one category and NaN a huge negative code.
    with pytest.raises(ValueError, match=cell + ", which is not an integer code"):
        entry(codes)


UINT64_HINT = r"; give codes in \[2\*\*63, 2\*\*64\) as a uint64 array"


@ENTRIES
@pytest.mark.parametrize("codes, message", [
    ([[2**64 - 1], [0]], r"holds 18446744073709551615, which is outside int64" + UINT64_HINT),  # typed float64
    ([[2**63], [5]], r"holds 9223372036854775808, which is outside int64" + UINT64_HINT),  # typed float64
    ([[2**70], [0]], r"holds 1180591620717411303424, which is outside int64$"),  # typed object
    ([[-2**63 - 1], [0]], r"holds -9223372036854775809, which is outside int64$"),  # typed object, rounds to -2**63
    (np.array([[2.0**63], [5.0]]), r"holds 9.22\d*e\+18, which is outside int64" + UINT64_HINT),
], ids=["2**64-1", "2**63", "2**70", "-2**63-1", "float-2**63"])
def test_int_codes_past_int64_are_out_of_range(entry, codes, message):
    """A list is typed by numpy before it is checked, so its ints past int64
    arrive as floats or objects; the message names the exact int. An
    integral float past int64 is out of range too, not fractional."""
    with pytest.raises(ValueError, match=r"^cell \(0, 0\) " + message):
        entry(codes)


def test_integral_floats_and_bools_are_codes():
    integral = np.floor(FRACTIONAL)
    assert run(integral).partition == run(integral.astype(np.int64)).partition == ((0, 1), (2, 3))
    assert run(np.array([[True, False], [True, False], [False, True]])).partition == ((0, 1), (2,))
    assert np.array_equal(Dataset.from_codes([[-2.0**63, 1.0]]).codes_matrix, [[0, 0]])
    assert run(np.floor(FRACTIONAL).astype(object)).partition == ((0, 1), (2, 3))


def test_constructor_validation():
    with pytest.raises(ValueError):
        Dataset.from_codes(np.zeros((0, 2), dtype=int))
    with pytest.raises(ValueError):
        Dataset([[0], [1]], feature_names=["a", "b"], category_labels=[("x", "y")])
    with pytest.raises(ValueError):
        # code 2 exceeds the two-category code book
        Dataset([[2]], feature_names=["a"], category_labels=[("x", "y")])
    with pytest.raises(ValueError):
        Dataset([[0]], feature_names=["a"], category_labels=[("x",)], labels=["p", "q"])
    with pytest.raises(ValueError, match="expected 1 category code books, got 2"):
        Dataset([[0]], feature_names=["a"], category_labels=[("x",), ("y",)])
    with pytest.raises(ValueError, match="feature 'a': no categories"):
        Dataset([[0]], feature_names=["a"], category_labels=[()])
    for entry in (Dataset.from_codes, run, importance_report, build_sm):
        with pytest.raises(ValueError, match="data must form a 2-D code matrix"):
            entry([0, 1, 0])


def test_lookup_errors(dataset_a):
    with pytest.raises(IndexError):
        dataset_a.frequency(0, 17)
    for feature in (-1, 5):
        with pytest.raises(IndexError, match=f"feature index {feature} out of range 0..4"):
            dataset_a.frequency(feature, 0)
    for feature in (1.0, "1", True):  # True is an int to Python, and would read column 1
        with pytest.raises(ValueError, match=f"feature index {feature!r} is not an integer"):
            dataset_a.frequencies_for(feature)
    with pytest.raises(ValueError, match="category code 0.5 is not an integer"):
        dataset_a.frequency(0, 0.5)


# The entry points that take column indices, each called with one index over a code matrix.
COLUMN_INDEX_ENTRIES = {
    "frequencies_for": lambda codes, i: Dataset.from_codes(codes).frequencies_for(i).tolist(),
    "count_matches": lambda codes, i: count_matches(codes[0], codes[1], features=[i]),
    "pgp2_kept_counts": lambda codes, i: pgp2_kept_counts(codes, [i]),
    "update_sm_after_drop": lambda codes, i: update_sm_after_drop(build_sm(codes), codes, [i]).values.tolist(),
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(entry=st.sampled_from(sorted(COLUMN_INDEX_ENTRIES)),
       codes=st.integers(2, 4).flatmap(lambda m: st.lists(st.lists(st.integers(0, 2), min_size=m, max_size=m),
                                                          min_size=2, max_size=5)).map(np.array),
       index=st.integers(-3, 6) | st.floats() | st.floats().map(np.float64) | st.text(max_size=2) | st.booleans())
def test_column_index_entry_points_share_one_check(entry, codes, index):
    call = COLUMN_INDEX_ENTRIES[entry]
    if isinstance(index, (float, str, bool)):  # also integral floats such as 1.0
        with pytest.raises(ValueError, match="is not an integer"):
            call(codes, index)
    elif not 0 <= index < codes.shape[1]:
        for same in (index, np.int64(index)):
            with pytest.raises(IndexError, match=f"{index} out of range 0..{codes.shape[1] - 1}"):
                call(codes, same)
    else:
        assert call(codes, np.int64(index)) == call(codes, np.intp(index)) == call(codes, index)


def test_csv_missing_rejected_by_default(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("A,B\nx,y\nx,?\n")
    with pytest.raises(CsvError, match=r"row 3.*'B'"):
        load_csv(path)


def test_csv_missing_as_category(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("A,B\nx,y\nx,?\n ,y\n")
    data = load_csv(path, missing_policy="category")
    assert data.category_labels[0] == ("x", "?")
    assert data.category_labels[1] == ("y", "?")
    assert data.frequency(0, data.category_labels[0].index("?")) == 1


def test_csv_byte_order_mark_is_skipped(tmp_path):
    text = "label,A,B\np,x,y\nq,x,z\n"
    plain = tmp_path / "plain.csv"
    plain.write_text(text, encoding="utf-8")
    marked = tmp_path / "marked.csv"
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    first, second = (load_csv(path, label_column="label") for path in (plain, marked))
    assert second.feature_names == first.feature_names == ("A", "B")
    assert second.labels == first.labels == ("p", "q")
    assert second.category_labels == first.category_labels
    assert np.array_equal(second.cells, first.cells)


def test_csv_unknown_policy(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("A\nx\n")
    with pytest.raises(ValueError):
        load_csv(path, missing_policy="impute")


def test_csv_whitespace_trimmed(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("A, B\n x ,y\nx, y \n")
    data = load_csv(path)
    assert data.feature_names == ("A", "B")
    assert data.category_labels[0] == ("x",)
    assert data.frequency(1, 0) == 2


def test_csv_padded_text_before_plain_shares_its_code(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("A,B\n a,x\nb,x\na,x\na ,y\n")
    data = load_csv(path)
    assert data.category_labels == (("a", "b"), ("x", "y"))
    assert data.cells.tolist() == [[0, 0], [1, 0], [0, 0], [0, 1]]


def test_csv_missing_after_every_category_is_known(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("A,B,C\nx,y,z\nx,y,z\nx,,z\n")
    with pytest.raises(CsvError, match=r"row 4, column 'B': missing value"):
        load_csv(path)


def test_csv_width_and_missing_errors_in_row_order(tmp_path):
    short_first = tmp_path / "s.csv"
    short_first.write_text("A,B\nx,y\nx\nx,?\n")
    with pytest.raises(CsvError, match="row 3: expected 2 fields, got 1"):
        load_csv(short_first)
    missing_first = tmp_path / "m.csv"
    missing_first.write_text("A,B\nx,y\n?,y\nx\n")
    with pytest.raises(CsvError, match=r"row 3, column 'A': missing value"):
        load_csv(missing_first)


def test_csv_missing_markers_share_one_category(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text('A,B\nx,\n?,y\n" ? ",y\nx,?\n')
    data = load_csv(path, missing_policy="category")
    assert data.category_labels == (("x", "?"), ("?", "y"))
    assert data.cells.tolist() == [[0, 0], [1, 1], [1, 1], [0, 0]]


def test_csv_one_feature(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("label,A\np,xy\nq,z\nr,xy\n")
    data = load_csv(path, label_column="label")
    assert data.feature_names == ("A",)
    assert data.category_labels == (("xy", "z"),)
    assert data.cells.tolist() == [[0], [1], [0]]
    assert data.labels == ("p", "q", "r")
    assert load_csv(path).cells.tolist() == [[0, 0], [1, 1], [2, 0]]


def test_csv_structural_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(CsvError, match="empty"):
        load_csv(empty)

    headers_only = tmp_path / "h.csv"
    headers_only.write_text("A,B\n")
    with pytest.raises(CsvError, match="no data rows"):
        load_csv(headers_only)

    ragged = tmp_path / "r.csv"
    ragged.write_text("A,B\nx,y\nx\n")
    with pytest.raises(CsvError, match="row 3.*expected 2 fields, got 1"):
        load_csv(ragged)

    dupes = tmp_path / "d.csv"
    dupes.write_text("A,A\nx,y\n")
    with pytest.raises(CsvError, match="duplicate"):
        load_csv(dupes)


@pytest.mark.parametrize("row", [1, 3])
def test_csv_field_over_size_limit(tmp_path, row):
    big = "x" * 131073  # one past csv.field_size_limit()'s default
    path = tmp_path / "big.csv"
    path.write_text(f"A,{big}\nx,y\n" if row == 1 else f"A,B\nx,y\nx,{big}\n")
    with pytest.raises(CsvError, match=rf"big\.csv: row {row}: field larger than field limit"):
        load_csv(path)


@pytest.mark.parametrize("offset", [3, 9000])
def test_csv_not_utf8_names_the_file(tmp_path, offset):
    path = tmp_path / "latin.csv"
    text = b"A,B\n" + b"x,y\n" * (offset // 4)
    path.write_bytes(text[:offset] + b"\xff" + text[offset:])
    with pytest.raises(CsvError) as raised:
        load_csv(path)
    assert str(raised.value) == f"{path}: not UTF-8 text (invalid start byte)"


def test_csv_unknown_label_column(tmp_path):
    path = tmp_path / "l.csv"
    path.write_text("A,B\nx,y\n")
    with pytest.raises(CsvError, match="no column named"):
        load_csv(path, label_column="class")


def test_csv_label_column_cannot_be_only_column(tmp_path):
    path = tmp_path / "only.csv"
    path.write_text("cls\np\n")
    with pytest.raises(CsvError, match="no feature columns"):
        load_csv(path, label_column="cls")
