"""Categorical dataset ingestion and integer encoding.

A :class:`Dataset` stores one integer code per cell, a per-feature code book
(categories in first-appearance order) and per-feature category frequencies.
A dataset is immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import csv
import operator
from array import array
from dataclasses import InitVar, dataclass, field
from pathlib import Path

import numpy as np

from .errors import CsvError

MISSING_REJECT = "reject"
MISSING_CATEGORY = "category"

# Cell contents treated as missing, after whitespace trimming.
_MISSING_MARKERS = frozenset({"", "?"})
# Label used for the extra per-feature category under the "category" policy.
_MISSING_LABEL = "?"


def as_codes(data) -> np.ndarray:
    """The int64 (n, m) code matrix of a :class:`Dataset` or a 2-D array-like.

    Float input, also floats in an object array, must hold integers: ``ValueError`` names the first cell that
    is fractional, not finite or outside int64 (an int there as given), instead of casting it; text and complex
    dtypes are refused.
    """
    given = getattr(data, "codes_matrix", data)
    codes = np.asarray(given)
    if codes.dtype.kind == "O":  # e.g. a mixed-type frame: let numpy type the cells, so floats get checked
        codes = np.array(codes.tolist())
    if codes.ndim != 2:
        raise ValueError("data must form a 2-D code matrix")
    if codes.dtype.kind not in "biufO":  # a cast would parse text ("01" is 1) and drop imaginary parts
        raise ValueError(f"each cell holds a {codes.dtype} value, which is not an integer code")
    if codes.dtype.kind in "fO":  # an object array keeps the ints no numpy integer holds; past int64 they read inf
        real = codes.astype(np.float64, copy=False) if codes.dtype.kind == "f" else np.array(
            [np.inf if isinstance(v, int) and not -2**63 <= v < 2**63 else v for v in codes.flat],
            dtype=np.float64).reshape(codes.shape)
        bad = (real != np.floor(real)) | (real < -2.0**63) | (real >= 2.0**63)
        if bad.any():
            row, col = np.argwhere(bad)[0].tolist()
            cell = np.array(given.tolist() if isinstance(given, np.ndarray) else given, dtype=object)[row, col]
            # numpy reads a list of ints past int64 as floats, not uint64; an integral float here is out of range too
            if isinstance(cell, (int, np.integer)) or float(cell).is_integer():
                uint64 = "; give codes in [2**63, 2**64) as a uint64 array" if 2**63 <= cell < 2**64 else ""
                raise ValueError(f"cell ({row}, {col}) holds {cell}, which is outside int64{uint64}")
            raise ValueError(f"cell ({row}, {col}) holds {codes[row, col]}, which is not an integer code")
    return codes.astype(np.int64, copy=False)


def column_indices(indices, m: int, what: str = "feature index") -> list[int]:
    """The ints of ``indices``: ``ValueError`` for a non-integer (``1.5``, ``"1"``), ``IndexError`` outside 0..m-1."""
    columns = []
    for value in indices:
        try:
            if isinstance(value, bool):  # an int to Python, but True is no column index
                raise TypeError
            columns.append(operator.index(value))
        except TypeError:
            raise ValueError(f"{what} {value!r} is not an integer") from None
        if not 0 <= columns[-1] < m:
            raise IndexError(f"{what} {columns[-1]} out of range 0..{m - 1}")
    return columns


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable integer-encoded categorical data matrix, held in ``codes_matrix`` as a read-only (n, m) array.

    Parameters
    ----------
    cells : (n, m) array-like of int
        Per-feature category codes; feature ``i`` uses codes ``0..k_i-1``.
    feature_names : sequence of str
        One name per column.
    category_labels : sequence of sequences of str
        Per feature, the original category strings indexed by code.
    labels : sequence of str, optional
        Per-object class labels, held out from clustering (evaluation only).
    """

    cells: InitVar[object]
    feature_names: tuple[str, ...]
    category_labels: tuple[tuple[str, ...], ...]
    labels: tuple[str, ...] | None = None
    codes_matrix: np.ndarray = field(init=False)

    def __post_init__(self, cells):
        # always copy so freezing the cells cannot affect a caller's array
        cells = as_codes(cells).copy()
        n, m = cells.shape
        if n < 1 or m < 1:
            raise ValueError("dataset needs at least one object and one feature")
        feature_names = tuple(str(name) for name in self.feature_names)
        if len(feature_names) != m:
            raise ValueError(f"expected {m} feature names, got {len(feature_names)}")
        category_labels = tuple(tuple(cats) for cats in self.category_labels)
        if len(category_labels) != m:
            raise ValueError(f"expected {m} category code books, got {len(category_labels)}")
        labels = None if self.labels is None else tuple(str(x) for x in self.labels)
        if labels is not None and len(labels) != n:
            raise ValueError(f"expected {n} labels, got {len(labels)}")
        cells.setflags(write=False)

        freqs = []
        for name, k, column in zip(feature_names, map(len, category_labels), cells.T):
            if column.min() < 0 or column.max() >= k:
                raise ValueError(f"feature {name!r}: " + (f"cell code outside 0..{k - 1}" if k else "no categories"))
            counts = np.bincount(column, minlength=k)
            counts.setflags(write=False)
            freqs.append(counts)
        self.__dict__.update(feature_names=feature_names, category_labels=category_labels, labels=labels,
                             codes_matrix=cells, _frequencies=tuple(freqs))

    @classmethod
    def from_codes(cls, codes) -> "Dataset":
        """Build a dataset straight from an integer code matrix.

        Features are named ``f0..``. Each column is re-encoded to the
        codes ``0..k-1`` of its ``k`` distinct values in ascending order,
        and each category is labeled ``c`` followed by its original code,
        so cost depends on the matrix size and not on the code values.
        The dataset carries no object labels.
        """
        unsigned = np.asarray(codes).dtype.kind == "u"  # as_codes wraps codes past int64; uint64 reads them back
        codes = as_codes(codes)
        compact = np.empty_like(codes)
        category_labels = []
        for i, column in enumerate((codes.view(np.uint64) if unsigned else codes).T):
            values, compact[:, i] = np.unique(column, return_inverse=True)
            category_labels.append(tuple(f"c{c}" for c in values))
        return cls(compact, tuple(f"f{i}" for i in range(codes.shape[1])), category_labels)

    # -- basic shape ----------------------------------------------------

    @property
    def n(self) -> int:
        """Number of objects."""
        return self.codes_matrix.shape[0]

    @property
    def m(self) -> int:
        """Number of features."""
        return self.codes_matrix.shape[1]

    # -- lookups --------------------------------------------------------

    def frequency(self, feature: int, category: int) -> int:
        """Occurrence count f(c) of one category of one feature."""
        counts = self.frequencies_for(feature)
        (category,) = column_indices([category], len(counts), f"feature {self.feature_names[feature]!r}: category code")
        return int(counts[category])

    def frequencies_for(self, feature: int) -> np.ndarray:
        """All category counts of one feature (read-only, indexed by code)."""
        return self._frequencies[column_indices([feature], self.m)[0]]

    def row(self, i: int) -> tuple[int, ...]:
        """Code tuple of one object."""
        return tuple(int(c) for c in self.codes_matrix[i])

    def __repr__(self) -> str:
        return f"Dataset(n={self.n}, m={self.m})"


def _csv_records(fh, path):
    """CSV records of ``fh``; one that csv rejects, e.g. for a field over its size limit, or bytes
    that are not UTF-8 raise CsvError naming ``path``."""
    rownum = 0
    try:
        for rownum, record in enumerate(csv.reader(fh), start=1):
            yield record
    except csv.Error as exc:
        raise CsvError(f"{path}: row {rownum + 1}: {exc}") from None
    except UnicodeDecodeError as exc:
        # the decoder reads ahead in chunks, so its byte position locates nothing in the file
        raise CsvError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_csv(path, label_column: str | None = None, missing_policy: str = MISSING_REJECT) -> Dataset:
    """Load a categorical dataset from an RFC-4180 style CSV file.

    The first row must be a header. Categories are matched exactly after
    trimming surrounding whitespace (no case folding) and encoded per
    feature in first-appearance order, so loading the same file twice
    yields identical datasets.

    Parameters
    ----------
    path : str or Path
        CSV file, UTF-8; a leading byte-order mark is skipped.
    label_column : str, optional
        Column excluded from the features and stored as per-object labels.
    missing_policy : str
        ``"reject"`` raises on a missing cell (empty or ``?``);
        ``"category"`` keeps one extra ``?`` category per feature.
    """
    if missing_policy not in (MISSING_REJECT, MISSING_CATEGORY):
        raise ValueError(f"unknown missing_policy {missing_policy!r}")
    path = Path(path)

    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = _csv_records(fh, path)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise CsvError(f"{path}: empty file") from None
        if len(set(header)) != len(header):
            dupes = sorted({h for h in header if header.count(h) > 1})
            raise CsvError(f"{path}: duplicate column names {dupes}")

        label_idx: int | None = None
        if label_column is not None:
            if label_column not in header:
                raise CsvError(f"{path}: no column named {label_column!r}")
            label_idx = header.index(label_column)
        feature_cols = [i for i in range(len(header)) if i != label_idx]
        if not feature_cols:
            raise CsvError(f"{path}: no feature columns besides the label column")

        # Per feature, the code of each category and of each cell text as read; a row whose
        # texts are all known is looked up in one pass, and only a new text is trimmed.
        code_books: list[dict[str, int]] = [{} for _ in feature_cols]
        raw_books: list[dict[str, int]] = [{} for _ in feature_cols]
        cells, width = array("q"), len(feature_cols)
        labels: list[str] = []
        for rownum, record in enumerate(reader, start=2):
            if len(record) != len(header):
                raise CsvError(f"{path}: row {rownum}: expected {len(header)} fields, got {len(record)}")
            if label_idx is not None:
                labels.append(record.pop(label_idx).strip())  # the record keeps the feature cells
            try:
                cells.extend(map(dict.__getitem__, raw_books, record))
            except KeyError:
                del cells[(rownum - 2) * width:]  # the cells this row added before the new text
                for col, raw, book, text in zip(feature_cols, raw_books, code_books, record):
                    if text not in raw:
                        category = text.strip()
                        if category in _MISSING_MARKERS:
                            if missing_policy == MISSING_REJECT:
                                raise CsvError(f"{path}: row {rownum}, column {header[col]!r}: missing value")
                            category = _MISSING_LABEL
                        raw[text] = book.setdefault(category, len(book))
                cells.extend(map(dict.__getitem__, raw_books, record))

    if not cells:
        raise CsvError(f"{path}: no data rows")

    category_labels = [tuple(book) for book in code_books]  # dicts preserve insertion order
    return Dataset(
        np.frombuffer(cells, dtype=np.int64).reshape(-1, width),
        feature_names=[header[c] for c in feature_cols],
        category_labels=category_labels,
        labels=labels if label_idx is not None else None,
    )
