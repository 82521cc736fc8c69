"""Seeded benchmark inputs written as CSV files.

Every input comes from ``numpy.random.default_rng`` seeded by the workload
seed, so one seed always gives the same bytes. Floats are written with
Python's shortest round-trip repr, so the CLI parses back exactly the
array the oracle computes from.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np


def feature_table(rng: np.random.Generator, samples: int, features: int,
                  tied_every: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """Normal columns plus every ``tied_every``-th column of small integers.

    The integer columns have many ties, which exercises average ranks in
    the Spearman affinity. Returns the table and the integer-column mask.
    """
    data = rng.standard_normal((samples, features))
    tied = np.arange(features) % tied_every == 0
    data[:, tied] = rng.integers(0, 7, size=(samples, int(tied.sum())))
    return data, tied


def csv_text(header: list[str], data: np.ndarray, int_columns: np.ndarray | None = None) -> str:
    rows = data.tolist()
    if int_columns is not None:
        columns = np.flatnonzero(int_columns).tolist()
        for row in rows:
            for j in columns:
                row[j] = int(row[j])
    lines = [",".join(header)]
    lines.extend(",".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def replace_cell(text: str, line: int, column: int, token: str) -> str:
    """Swap the cell at 1-based (line, column) of a CSV text for ``token``."""
    lines = text.split("\n")
    cells = lines[line - 1].split(",")
    cells[column - 1] = token
    lines[line - 1] = ",".join(cells)
    return "\n".join(lines)


def write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def file_record(path: str) -> dict:
    """Size and SHA-256 of one input file, for the results record."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return {"path": os.path.basename(path), "bytes": os.path.getsize(path),
            "sha256": digest.hexdigest()}
