"""Categorical dataset ingestion and integer encoding.

A :class:`Dataset` stores one integer code per cell, a per-feature code book
(categories in first-appearance order) and per-feature category frequencies.
A dataset is immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import csv
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
    """The int64 (n, m) code matrix of a :class:`Dataset` or a 2-D array-like."""
    codes = np.asarray(getattr(data, "codes_matrix", data), dtype=np.int64)
    if codes.ndim != 2:
        raise ValueError("data must form a 2-D code matrix")
    return codes


class Dataset:
    """Immutable integer-encoded categorical data matrix.

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

    def __init__(self, cells, feature_names, category_labels, labels=None):
        # always copy so freezing the cells cannot affect a caller's array
        cells = np.array(cells, dtype=np.int64, order="C")
        if cells.ndim != 2:
            raise ValueError("cells must be a 2-D matrix")
        n, m = cells.shape
        if n < 1 or m < 1:
            raise ValueError("dataset needs at least one object and one feature")
        self.feature_names = tuple(str(name) for name in feature_names)
        if len(self.feature_names) != m:
            raise ValueError(f"expected {m} feature names, got {len(self.feature_names)}")
        self.category_labels = tuple(tuple(cats) for cats in category_labels)
        if len(self.category_labels) != m:
            raise ValueError(f"expected {m} category code books, got {len(self.category_labels)}")
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise ValueError(f"expected {n} labels, got {len(labels)}")
        self.labels = labels
        self.cells = cells
        self.cells.setflags(write=False)

        freqs = []
        for i in range(m):
            k = len(self.category_labels[i])
            column = cells[:, i]
            if k == 0 or column.min() < 0 or column.max() >= k:
                raise ValueError(f"feature {self.feature_names[i]!r}: cell code outside 0..{k - 1}")
            counts = np.bincount(column, minlength=k)
            counts.setflags(write=False)
            freqs.append(counts)
        self._frequencies = tuple(freqs)

    @classmethod
    def from_codes(cls, codes, feature_names=None, category_labels=None, labels=None) -> "Dataset":
        """Build a dataset straight from an integer code matrix.

        Feature names are synthesized when omitted (``f0..``). When the
        category labels are omitted, each column is re-encoded to the
        codes ``0..k-1`` of its ``k`` distinct values in ascending order,
        and each category is labeled ``c`` followed by its original code,
        so cost depends on the matrix size and not on the code values.
        """
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 2:
            raise ValueError("codes must be a 2-D matrix")
        m = codes.shape[1]
        if feature_names is None:
            feature_names = tuple(f"f{i}" for i in range(m))
        if category_labels is None:
            compact = np.empty_like(codes)
            category_labels = []
            for i in range(m):
                values, compact[:, i] = np.unique(codes[:, i], return_inverse=True)
                category_labels.append(tuple(f"c{c}" for c in values))
            codes = compact
        return cls(codes, feature_names, category_labels, labels)

    # -- basic shape ----------------------------------------------------

    @property
    def n(self) -> int:
        """Number of objects."""
        return self.cells.shape[0]

    @property
    def m(self) -> int:
        """Number of features."""
        return self.cells.shape[1]

    @property
    def codes_matrix(self) -> np.ndarray:
        """Read-only (n, m) code matrix."""
        return self.cells

    # -- lookups --------------------------------------------------------

    def feature_index(self, name: str) -> int:
        try:
            return self.feature_names.index(name)
        except ValueError:
            raise KeyError(f"unknown feature {name!r}") from None

    def categories(self, feature: int) -> tuple[str, ...]:
        """Category strings of a feature, indexed by code."""
        return self.category_labels[self._check_feature(feature)]

    def code_of(self, feature: int, label: str) -> int:
        """Code of a category string within a feature."""
        cats = self.categories(feature)
        try:
            return cats.index(label)
        except ValueError:
            raise KeyError(f"feature {self.feature_names[feature]!r} has no category {label!r}") from None

    def frequency(self, feature: int, category: int) -> int:
        """Occurrence count f(c) of one category of one feature."""
        counts = self._frequencies[self._check_feature(feature)]
        if not 0 <= category < len(counts):
            raise IndexError(f"category code {category} out of range for feature {self.feature_names[feature]!r}")
        return int(counts[category])

    def frequencies_for(self, feature: int) -> np.ndarray:
        """All category counts of one feature (read-only, indexed by code)."""
        return self._frequencies[self._check_feature(feature)]

    def column(self, feature: int) -> np.ndarray:
        return self.cells[:, self._check_feature(feature)]

    def row(self, i: int) -> tuple[int, ...]:
        """Code tuple of one object."""
        return tuple(int(c) for c in self.cells[i])

    def decode_row(self, i: int) -> tuple[str, ...]:
        """Original category strings of one object."""
        return tuple(self.category_labels[f][c] for f, c in enumerate(self.cells[i]))

    def _check_feature(self, feature: int) -> int:
        if not 0 <= feature < self.m:
            raise IndexError(f"feature index {feature} out of range 0..{self.m - 1}")
        return feature

    def __repr__(self) -> str:
        return f"Dataset(n={self.n}, m={self.m})"


def load_csv(path, label_column: str | None = None, missing_policy: str = MISSING_REJECT) -> Dataset:
    """Load a categorical dataset from an RFC-4180 style CSV file.

    The first row must be a header. Categories are matched exactly after
    trimming surrounding whitespace (no case folding) and encoded per
    feature in first-appearance order, so loading the same file twice
    yields identical datasets.

    Parameters
    ----------
    path : str or Path
        CSV file, UTF-8.
    label_column : str, optional
        Column excluded from the features and stored as per-object labels.
    missing_policy : str
        ``"reject"`` raises on a missing cell (empty or ``?``);
        ``"category"`` keeps one extra ``?`` category per feature
        (``"distinct-category"`` is accepted as an alias).
    """
    if missing_policy == "distinct-category":
        missing_policy = MISSING_CATEGORY
    if missing_policy not in (MISSING_REJECT, MISSING_CATEGORY):
        raise ValueError(f"unknown missing_policy {missing_policy!r}")
    path = Path(path)

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
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

        code_books: list[dict[str, int]] = [{} for _ in feature_cols]
        encoded_rows: list[list[int]] = []
        labels: list[str] = []
        for rownum, record in enumerate(reader, start=2):
            if len(record) != len(header):
                raise CsvError(f"{path}: row {rownum}: expected {len(header)} fields, got {len(record)}")
            codes = []
            for pos, col in enumerate(feature_cols):
                text = record[col].strip()
                if text in _MISSING_MARKERS:
                    if missing_policy == MISSING_REJECT:
                        raise CsvError(f"{path}: row {rownum}, column {header[col]!r}: missing value")
                    text = _MISSING_LABEL
                book = code_books[pos]
                codes.append(book.setdefault(text, len(book)))
            encoded_rows.append(codes)
            if label_idx is not None:
                labels.append(record[label_idx].strip())

    if not encoded_rows:
        raise CsvError(f"{path}: no data rows")

    category_labels = [tuple(book) for book in code_books]  # dicts preserve insertion order
    return Dataset(
        np.array(encoded_rows, dtype=np.int64),
        feature_names=[header[c] for c in feature_cols],
        category_labels=category_labels,
        labels=labels if label_idx is not None else None,
    )
