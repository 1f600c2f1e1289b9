"""Dataset ingestion for logistic problems: dense CSV and svmlight-style files."""

from __future__ import annotations

import csv
import itertools
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .problems import LogisticProblem


class DatasetError(ValueError):
    pass


@dataclass(frozen=True)
class LabelRule:
    """Binarization rule mapping raw class labels to {0, 1}.

    Raw labels must fall in ``negative`` (mapped to 0) or ``positive``
    (mapped to 1); anything else is outside the rule domain.
    """

    negative: frozenset
    positive: frozenset

    @classmethod
    def threshold(cls, cut: float, classes) -> "LabelRule":
        """Classes below ``cut`` map to 0, the rest to 1."""
        classes = [float(c) for c in classes]
        return cls(
            negative=frozenset(c for c in classes if c < cut),
            positive=frozenset(c for c in classes if c >= cut),
        )

    def binarize(self, raw: np.ndarray) -> np.ndarray:
        """0.0 where a raw label is in ``negative``, 1.0 where it is in
        ``positive`` (``negative`` wins a label in both), NaN where it is in
        neither."""
        raw = np.asarray(raw, dtype=float)
        negative = np.isin(raw, np.fromiter(self.negative, float))
        positive = np.isin(raw, np.fromiter(self.positive, float))
        return np.where(negative, 0.0, np.where(positive, 1.0, np.nan))

    def describe(self) -> dict:
        return {
            "negative": sorted(self.negative),
            "positive": sorted(self.positive),
        }


# Ten digit classes split at 5: {0..4} -> 0, {5..9} -> 1.
DIGIT_SPLIT = LabelRule.threshold(5, range(10))


def load_dataset(
    path,
    format: str = "dense-csv",
    label_rule: LabelRule = DIGIT_SPLIT,
    label_column: int = 0,
    scale: float | None = None,
) -> LogisticProblem:
    """Load a binary-classification dataset into a LogisticProblem.

    CSV cells are comma-separated; svmlight rows are as wide as the largest index.
    ``scale``, when given, multiplies every feature (e.g. 1/255 for pixel
    data) and is recorded in the problem metadata; scaling is never implicit.
    It must be finite and nonzero, and a feature it carries past the largest
    float is an error.  Every error names the file line at fault, blank
    lines counted.
    """
    if scale is not None and not (np.isfinite(scale) and scale != 0):
        raise DatasetError(f"scale must be finite and nonzero, got {scale}")
    path = Path(path)
    if format == "dense-csv":
        features, labels, lines = _read_dense_csv(path, label_column)
    elif format == "svmlight":
        features, labels, lines = _read_svmlight(path)
    else:
        raise DatasetError(f"unknown dataset format {format!r}")

    finite = np.isfinite(features).all(axis=1) & np.isfinite(labels)
    binarized = label_rule.binarize(labels)
    bad = ~finite | np.isnan(binarized)
    if bad.any():
        i = bad.argmax()
        if not finite[i]:
            raise DatasetError(f"{path}: row {lines[i]}: non-finite cell")
        raise DatasetError(
            f"{path}: row {lines[i]}: label {float(labels[i])} outside rule domain"
        )

    if scale is not None:
        with np.errstate(over="ignore"):  # reported below
            features = features * scale
        finite = np.isfinite(features).all(axis=1)
        if not finite.all():
            raise DatasetError(f"{path}: row {lines[finite.argmin()]}: a feature "
                               f"overflows when scaled by {scale}")

    metadata = {
        "source": str(path),
        "format": format,
        "scale": scale,
        "label_rule": label_rule.describe(),
    }
    return LogisticProblem(features, binarized, metadata=metadata)


# Lines per np.loadtxt call; the parse's temporaries are one chunk.  Larger
# chunks parse no faster and, over repeated loads of 2.5 kB rows, left a
# higher peak RSS (256 lines: about 6 MiB more).
_CHUNK_LINES = 64


def _read_dense_csv(path: Path, label_column: int):
    """Features, labels and the file line of each row, parsed by numpy's C
    reader into arrays sized from the file's line-end count.

    Line ends are counted as the text reader splits lines: each ``\\n``,
    and each ``\\r`` not followed by ``\\n``.  A ``\\r\\n`` split across
    two reads counts twice, which only adds a row of capacity.

    Whatever the C reader rejects (quoted cells, ``1_000``, empty fields,
    ragged rows, ``#`` lines: ``comments=None`` makes them cells), and any
    table that fails a shape check, goes to ``_read_dense_csv_lines``, which
    accepts a superset, parses identically, and names the cause of an error.
    """
    capacity = 1
    with open(path, "rb") as fb:
        for block in iter(lambda: fb.read(1 << 20), b""):
            capacity += block.count(b"\n")
            # Most files hold no \r, and testing for one costs about a
            # thirtieth of a count.
            if b"\r" in block:
                capacity += block.count(b"\r") - block.count(b"\r\n")
    lines = np.empty(capacity, dtype=np.int64)
    rows = 0
    with open(path, newline="") as fh:
        for start in itertools.count(1, _CHUNK_LINES):
            chunk = list(itertools.islice(fh, _CHUNK_LINES))
            if not chunk:
                break
            # The C reader skips empty lines and nothing else.
            at = start + np.flatnonzero([line.strip("\r\n") != "" for line in chunk])
            if at.size == 0:
                continue
            try:
                table = np.loadtxt(chunk, delimiter=",", ndmin=2, comments=None)
            except ValueError:
                return _read_dense_csv_lines(path, label_column)
            if rows == 0:
                width = table.shape[1]
                if width < 2 or not (-width <= label_column < width):
                    return _read_dense_csv_lines(path, label_column)
                label_at = label_column % width
                features = np.empty((capacity, width - 1))
                labels = np.empty(capacity)
            end = rows + at.size
            if table.shape != (at.size, width) or end > capacity:
                return _read_dense_csv_lines(path, label_column)
            lines[rows:end] = at
            labels[rows:end] = table[:, label_at]
            features[rows:end, :label_at] = table[:, :label_at]
            features[rows:end, label_at:] = table[:, label_at + 1:]
            rows = end
    if rows == 0:
        return _read_dense_csv_lines(path, label_column)
    features = features[:rows]
    if capacity - rows >= rows:
        # Mostly blank lines: do not keep their rows allocated.
        features = features.copy()
    return features, labels[:rows], lines[:rows]


def _read_dense_csv_lines(path: Path, label_column: int):
    """The reference parser of ``_read_dense_csv``: one ``float`` per cell
    through ``csv.reader``.  It produces every dense-CSV ``DatasetError``."""
    # Values go straight into flat arrays of doubles; nested lists of
    # Python floats would take several times the memory of the result.
    features = array("d")
    labels = array("d")
    lines = array("q")
    width = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        start = 1
        for record in reader:
            # A quoted cell can span lines: name the line the record starts on.
            i, start = start, reader.line_num + 1
            if not record or all(cell.strip() == "" for cell in record):
                continue
            if width is None:
                width = len(record)
                if width < 2:
                    raise DatasetError(f"{path}: row {i}: need a label and at least one feature")
                if not (-width <= label_column < width):
                    raise DatasetError(
                        f"{path}: label column {label_column} out of range for width {width}"
                    )
            if len(record) != width:
                raise DatasetError(
                    f"{path}: row {i}: expected {width} values, got {len(record)}"
                )
            try:
                numeric = [float(cell) for cell in record]
            except ValueError:
                raise DatasetError(f"{path}: row {i}: non-numeric cell") from None
            labels.append(numeric[label_column])
            del numeric[label_column % width]
            features.extend(numeric)
            lines.append(i)
    if not labels:
        raise DatasetError(f"{path}: no rows")
    return (
        np.frombuffer(features, dtype=float).reshape(len(labels), width - 1),
        np.frombuffer(labels, dtype=float),
        np.frombuffer(lines, dtype=np.int64),
    )


def _read_svmlight(path: Path):
    # "label idx:val ..." with 1-based indices, materialized densely.
    entries = []
    labels = []
    lines = []
    max_idx = 0
    with open(path) as fh:
        for i, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                labels.append(float(parts[0]))
            except ValueError:
                raise DatasetError(f"{path}: row {i}: non-numeric label") from None
            pairs = {}
            for token in parts[1:]:
                try:
                    idx_s, val_s = token.split(":", 1)
                    idx, val = int(idx_s), float(val_s)
                except ValueError:
                    raise DatasetError(
                        f"{path}: row {i}: malformed feature token {token!r}"
                    ) from None
                if idx < 1:
                    raise DatasetError(f"{path}: row {i}: feature index {idx} < 1")
                if idx in pairs:
                    raise DatasetError(f"{path}: row {i}: feature index {idx} repeated")
                pairs[idx] = val
                max_idx = max(max_idx, idx)
            entries.append(pairs)
            lines.append(i)
    if not entries:
        raise DatasetError(f"{path}: no rows")
    if not max_idx:
        raise DatasetError(f"{path}: no row has a feature")
    features = np.zeros((len(entries), max_idx))
    for row, pairs in enumerate(entries):
        for idx, val in pairs.items():
            features[row, idx - 1] = val
    return features, np.array(labels, dtype=float), lines
