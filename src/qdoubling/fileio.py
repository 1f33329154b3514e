"""On-disk formats: JSON matrices and permutations, manifests, CSV tables.

Matrices are stored as ``{"rows", "cols", "re", "im"}`` with row-major real
and imaginary parts; permutations, which are written only, as ``{"size",
"image"}`` with 0-based indices.  A matrix file's sizes must be JSON
integers of at least 0 and ``re``/``im`` flat lists of JSON numbers; any
other payload is a ``ValueError``.  Every write makes its directory if
missing, then goes through a temp file and an atomic rename.
"""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path
from typing import Iterable

import numpy as np

from .driver import IterationRecord
from .linalg import Permutation, finite_matrix

HISTORY_HEADER = ["i", "absUpdateX", "relUpdateX", "normE", "normF", "normX",
                  "normY", "wCondition", "wMinPivot", "guardActions"]


def _atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, newline="")
    os.replace(tmp, path)


def matrix_to_obj(a: np.ndarray) -> dict:
    a = finite_matrix(a, "a matrix to write")
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "re": a.real.ravel().tolist(),
        "im": a.imag.ravel().tolist(),
    }


def obj_to_matrix(obj: dict) -> np.ndarray:
    try:
        rows, cols, parts = obj["rows"], obj["cols"], (obj["re"], obj["im"])
    except (KeyError, TypeError):
        raise ValueError('a matrix file must hold {"rows", "cols", "re", "im"}') from None
    if not all(type(k) is int and k >= 0 for k in (rows, cols)):     # not 2.5 as 2 nor true as 1
        raise ValueError('a matrix file\'s "rows" and "cols" must be integers of at least 0')
    # not true as 1, "1.5" as 1.5, a bare 5 as [5] nor [[1]] as [1]
    if not all(type(p) is list and all(type(v) in (int, float) for v in p) for p in parts):
        raise ValueError('a matrix file\'s "re" and "im" must be flat lists of numbers')
    try:
        re, im = (np.array(p, dtype=np.float64) for p in parts)
    except OverflowError:       # an integer past the float64 range
        raise ValueError("matrix file contains non-finite entries") from None
    if re.size != rows * cols or im.size != rows * cols:
        raise ValueError(f"matrix payload length {re.size}/{im.size} does not "
                         f"match {rows}x{cols}")
    return finite_matrix((re + 1j * im).reshape(rows, cols), "matrix file")


def write_matrix(path: str | Path, a: np.ndarray) -> None:
    _atomic_write_text(Path(path), json.dumps(matrix_to_obj(a)))


def read_matrix(path: str | Path) -> np.ndarray:
    return obj_to_matrix(json.loads(Path(path).read_text()))


def write_permutation(path: str | Path, p: Permutation) -> None:
    obj = {"size": int(p.n), "image": [int(k) for k in p.image]}
    _atomic_write_text(Path(path), json.dumps(obj))


def write_manifest(path: str | Path, manifest: dict) -> None:
    _atomic_write_text(Path(path), json.dumps(manifest, indent=2, sort_keys=True))


def write_csv(path: str | Path, rows: Iterable[Iterable]) -> None:
    """Write ``rows``, the header first, as one CSV file."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    _atomic_write_text(Path(path), buf.getvalue())


def write_history_csv(path: str | Path, history: Iterable[IterationRecord]) -> None:
    write_csv(path, [HISTORY_HEADER, *(
        [rec.index, *map(repr, (rec.abs_update_x, rec.rel_update_x, rec.norm_e, rec.norm_f,
                                rec.norm_x, rec.norm_y, rec.w_condition, rec.w_min_pivot)),
         len(rec.guard_events.actions)] for rec in history)])
