"""CSV and JSON input/output with strict validation and atomic writes.

File formats, all UTF-8 text:

* labeled data: header row of feature names ending in a `label` column;
  labels are -1 or +1;
* node features: header row of feature names, no label column;
* distances: M rows of M comma-separated numbers, no header.

Parse errors carry 1-based line numbers and, where it helps, column names.
All writers go through a temp file in the target directory followed by an
atomic rename, and emit no timestamps, so reruns produce identical bytes.
"""

import csv
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from .core import LabeledDataset, as_distance_matrix


class ValidationError(ValueError):
    """Bad user input (files, flags); maps to CLI exit code 2."""


def _parse_float(text: str, path, line_no: int) -> float:
    try:
        v = float(text)
    except ValueError:
        raise ValidationError(f"{path}:{line_no}: not a number: {text!r}") from None
    if not math.isfinite(v):
        raise ValidationError(f"{path}:{line_no}: non-finite value {text!r}")
    return v


def _read_rows(path) -> list[list[str]]:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    if not rows:
        raise ValidationError(f"{path}: file is empty")
    return rows


def _check_header(header: list[str], path) -> list[str]:
    names = [h.strip() for h in header]
    seen = set()
    for name in names:
        if not name:
            raise ValidationError(f"{path}:1: empty column name in header")
        if name in seen:
            raise ValidationError(f"{path}:1: duplicate header column {name!r}")
        seen.add(name)
    return names


def load_labeled_csv(path) -> LabeledDataset:
    """Read feature rows with a trailing -1/+1 label column."""
    rows = _read_rows(path)
    names = _check_header(rows[0], path)
    if names[-1] != "label":
        raise ValidationError(f"{path}:1: last column must be named 'label', got {names[-1]!r}")
    if len(names) < 2:
        raise ValidationError(f"{path}:1: need at least one feature column")
    feats, labels = [], []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(names):
            raise ValidationError(
                f"{path}:{line_no}: expected {len(names)} fields, got {len(row)}"
            )
        feats.append([_parse_float(c, path, line_no) for c in row[:-1]])
        lab = row[-1].strip()
        if lab not in ("-1", "+1", "1"):
            raise ValidationError(f"{path}:{line_no}: label must be -1 or +1, got {lab!r}")
        labels.append(float(lab))
    if not feats:
        raise ValidationError(f"{path}: no data rows")
    return LabeledDataset(features=np.array(feats), labels=np.array(labels))


def load_nodes_csv(path) -> np.ndarray:
    """Read per-node feature rows (header, no label column)."""
    rows = _read_rows(path)
    names = _check_header(rows[0], path)
    if "label" in names:
        raise ValidationError(f"{path}:1: node files must not carry a label column")
    feats = []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(names):
            raise ValidationError(
                f"{path}:{line_no}: expected {len(names)} fields, got {len(row)}"
            )
        feats.append([_parse_float(c, path, line_no) for c in row])
    if not feats:
        raise ValidationError(f"{path}: no data rows")
    return np.array(feats)


def load_distances_csv(path) -> np.ndarray:
    """Read a square travel-cost matrix, no header row."""
    rows = _read_rows(path)
    M = len(rows)
    mat = []
    for line_no, row in enumerate(rows, start=1):
        if len(row) != M:
            raise ValidationError(
                f"{path}:{line_no}: expected {M} fields for a {M}x{M} matrix, got {len(row)}"
            )
        mat.append([_parse_float(c, path, line_no) for c in row])
    try:
        return as_distance_matrix(np.array(mat))
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _atomic_write(path, data: str):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text(path, text: str):
    """Atomically write text; the target never holds partial content."""
    _atomic_write(path, text)


def json_text(obj) -> str:
    """A JSON document with sorted keys and a trailing newline.  numpy arrays
    and scalars are written as the lists and numbers of tolist(); an inf or
    nan, which standard JSON cannot hold, raises ValueError."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False, default=lambda o: o.tolist())
    return text + "\n"
