"""Shared argument validation helpers."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput


def _as_array(value, name: str, ndim: int) -> tuple[np.ndarray, float]:
    """The non-empty finite float array, and the smallest entry its finiteness test read."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim != ndim or arr.size == 0:
        raise DimensionMismatch(f"{name} must be a non-empty {ndim}-D array, got shape {arr.shape}")
    with np.errstate(invalid="ignore"):  # some numpy builds flag NaN in min/max
        low = arr.min()
        if not (np.isfinite(low) and np.isfinite(arr.max())):
            raise NonFiniteInput(f"{name} contains NaN or infinite entries")
    return arr, low


def as_matrix(value, name: str = "matrix") -> np.ndarray:
    """Coerce to a non-empty finite 2-D float array."""
    return _as_array(value, name, 2)[0]


def as_vector(value, name: str = "vector") -> np.ndarray:
    """Coerce to a non-empty finite 1-D float array."""
    return _as_array(value, name, 1)[0]


def positive_int(value, message: str, error: type = ValueError, high: float = np.inf) -> int:
    """``int(value)`` for a whole number in 1..high, else ``error(message)``: NaN and inf too."""
    if 1 <= value <= high and value < np.inf and int(value) == value:
        return int(value)
    raise error(message)


def iteration_count(tol, max_iter) -> int:
    """``int(max_iter)`` for an iterative method's positive ``tol`` and whole ``max_iter`` >= 1."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    return positive_int(max_iter, f"max_iter must be a positive integer, got {max_iter}")
