"""CSV and JSON input/output with strict validation and atomic writes.

File formats, all UTF-8 text:

* labeled data: header row of feature names ending in a `label` column;
  labels are -1 or +1;
* node features: header row of feature names, no label column;
* distances: M rows of M comma-separated numbers, no header.

Parse errors carry 1-based line numbers and, where it helps, column names.
write_texts writes all of a run's outputs or none: each through a temp file
beside its target, renamed into place once all are written, with the mode
that the umask gives a new file.  Nothing written carries a timestamp, so
reruns produce identical bytes.
"""

import csv
import json
import math
import os
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


def _numeric_rows(rows, path, first_line: int, width: int, shape: str = "", cells=None):
    """Yield (line number, numbers) for each of rows in turn, numbered from
    first_line.  A row without exactly `width` fields is refused ("expected
    {width} fields{shape}, got k"); otherwise its first `cells` fields (all
    by default) go through _parse_float.  No rows at all are refused as "no
    data rows"."""
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    for line_no, row in enumerate(rows, start=first_line):
        if len(row) != width:
            raise ValidationError(f"{path}:{line_no}: expected {width} fields{shape}, got {len(row)}")
        yield line_no, [_parse_float(c, path, line_no) for c in row[:cells]]


def load_labeled_csv(path) -> LabeledDataset:
    """Read feature rows with a trailing -1/+1 label column."""
    rows = _read_rows(path)
    names = _check_header(rows[0], path)
    if names[-1] != "label":
        raise ValidationError(f"{path}:1: last column must be named 'label', got {names[-1]!r}")
    if len(names) < 2:
        raise ValidationError(f"{path}:1: need at least one feature column")
    feats, labels = [], []
    numbered = _numeric_rows(rows[1:], path, 2, len(names), cells=-1)
    for (line_no, numbers), row in zip(numbered, rows[1:]):
        feats.append(numbers)
        lab = row[-1].strip()
        if lab not in ("-1", "+1", "1"):
            raise ValidationError(f"{path}:{line_no}: label must be -1 or +1, got {lab!r}")
        labels.append(float(lab))
    return LabeledDataset(features=np.array(feats), labels=np.array(labels))


def load_nodes_csv(path) -> np.ndarray:
    """Read per-node feature rows (header, no label column)."""
    rows = _read_rows(path)
    names = _check_header(rows[0], path)
    if "label" in names:
        raise ValidationError(f"{path}:1: node files must not carry a label column")
    return np.array([numbers for _, numbers in _numeric_rows(rows[1:], path, 2, len(names))])


def load_distances_csv(path) -> np.ndarray:
    """Read a square travel-cost matrix, no header row."""
    rows = _read_rows(path)
    M = len(rows)
    shape = f" for a {M}x{M} matrix"
    mat = [numbers for _, numbers in _numeric_rows(rows, path, 1, M, shape)]
    try:
        return as_distance_matrix(np.array(mat))
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _atomic_write(path, text: str, tmps: list):
    # Writes text to a new temp file beside path, listed in tmps as soon as
    # it exists.  Mode "x" creates it as open creates any new file, with mode
    # 0o666 less the umask, and never reuses an existing file.
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    with open(tmp, "x") as fh:
        tmps.append(tmp)
        fh.write(text)


def write_texts(texts: dict):
    """Write every {path: text} or none.  A target that is a directory is
    refused (ValidationError naming it) before anything is written; each
    text then goes to a temp file beside its target, and the temp files
    replace their targets only after all are written.  On any failure every
    temp file is removed, so no target changes, unless a rename itself
    fails: the targets renamed before it keep their new text."""
    for path in texts:
        if Path(path).is_dir():
            raise ValidationError(f"output path is a directory: {path}")
    tmps = []
    try:
        for path, text in texts.items():
            _atomic_write(path, text, tmps)
        for tmp, path in zip(tmps, texts):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        raise


def json_text(obj) -> str:
    """A JSON document with sorted keys and a trailing newline.  numpy arrays
    and scalars are written as the lists and numbers of tolist(); an inf or
    nan, which standard JSON cannot hold, raises ValueError."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False, default=lambda o: o.tolist())
    return text + "\n"
