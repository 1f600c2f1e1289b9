"""Dataset ingestion for logistic problems: dense CSV and svmlight-style files."""

from __future__ import annotations

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

    def classify(self, raw: float) -> float:
        if raw in self.negative:
            return 0.0
        if raw in self.positive:
            return 1.0
        raise DatasetError(f"label {raw} outside rule domain")

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
    delimiter: str = ",",
    scale: float | None = None,
    n_features: int | None = None,
) -> LogisticProblem:
    """Load a binary-classification dataset into a LogisticProblem.

    ``scale``, when given, multiplies every feature (e.g. 1/255 for pixel
    data) and is recorded in the problem metadata; scaling is never implicit.
    """
    path = Path(path)
    if format == "dense-csv":
        features, labels = _read_dense_csv(path, label_column, delimiter)
    elif format == "svmlight":
        features, labels = _read_svmlight(path, n_features)
    else:
        raise DatasetError(f"unknown dataset format {format!r}")

    if features.shape[0] == 0:
        raise DatasetError(f"{path}: no rows")

    binarized = np.empty(labels.shape[0])
    for i, raw in enumerate(labels):
        try:
            binarized[i] = label_rule.classify(float(raw))
        except DatasetError as exc:
            raise DatasetError(f"{path}: row {i + 1}: {exc}") from None

    if scale is not None:
        features = features * scale

    metadata = {
        "source": str(path),
        "format": format,
        "scale": scale,
        "label_rule": label_rule.describe(),
    }
    return LogisticProblem(features, binarized, metadata=metadata)


def _read_dense_csv(path: Path, label_column: int, delimiter: str):
    import csv

    # Values go straight into flat arrays of doubles; nested lists of
    # Python floats would take several times the memory of the result.
    features = array("d")
    labels = array("d")
    width = None
    with open(path, newline="") as fh:
        for i, record in enumerate(csv.reader(fh, delimiter=delimiter), start=1):
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
    if not labels:
        raise DatasetError(f"{path}: no rows")
    return (
        np.frombuffer(features, dtype=float).reshape(len(labels), width - 1),
        np.frombuffer(labels, dtype=float),
    )


def _read_svmlight(path: Path, n_features: int | None):
    # "label idx:val ..." with 1-based indices, materialized densely.
    entries = []
    labels = []
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
            pairs = []
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
                pairs.append((idx, val))
                max_idx = max(max_idx, idx)
            entries.append(pairs)
    if not entries:
        raise DatasetError(f"{path}: no rows")
    d = n_features if n_features is not None else max_idx
    if max_idx > d:
        raise DatasetError(f"{path}: feature index {max_idx} exceeds n_features={d}")
    features = np.zeros((len(entries), d))
    for row, pairs in enumerate(entries):
        for idx, val in pairs:
            features[row, idx - 1] = val
    return features, np.array(labels, dtype=float)
