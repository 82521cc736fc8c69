"""Ranking, top-k selection, and sigmoid feature gates.

The score-to-subset half of the pipeline: deterministic descending
ranking with index tie-breaks, prefix selection, and multiplicative
logistic gates with their exact gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._validate import positive_int
from .errors import DimensionMismatch, KOutOfRange, NonFiniteScores


@dataclass(frozen=True)
class RankingResult:
    """Per-feature scores plus a deterministic descending ordering."""

    scores: np.ndarray
    order: np.ndarray
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float)
        order = np.asarray(self.order, dtype=int)
        if scores.ndim != 1 or scores.size == 0:
            raise ValueError("scores must be a non-empty 1-D vector")
        n = scores.shape[0]
        if not np.all(np.isfinite(scores)):
            raise NonFiniteScores("scores contain NaN or infinite values")
        if order.shape != (n,) or not np.array_equal(np.sort(order), np.arange(n)):
            raise ValueError("order must be a permutation of 0..N-1")
        ranked = scores[order]
        if np.any(np.diff(ranked) > 0):
            raise ValueError("order must put scores in non-increasing sequence")
        ties_ascending = np.all(np.diff(order)[np.diff(ranked) == 0] > 0)
        if not ties_ascending:
            raise ValueError("tied scores must appear in ascending index order")
        if self.feature_names is not None:
            names = tuple(str(x) for x in self.feature_names)
            if len(names) != n:
                raise DimensionMismatch(f"{len(names)} names for {n} scores")
            object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "order", order)


@dataclass(frozen=True)
class GateVector:
    """Pre-activation gate parameters; the activation is the logistic sigmoid."""

    params: np.ndarray

    def __post_init__(self):
        params = np.asarray(self.params, dtype=float)
        if params.ndim != 1 or params.size == 0 or not np.all(np.isfinite(params)):
            raise ValueError("gate parameters must be a finite 1-D vector")
        object.__setattr__(self, "params", params)

    def __len__(self) -> int:
        return self.params.shape[0]


def _logistic(p: np.ndarray) -> np.ndarray:
    """sigmoid(p) = 1 / (1 + exp(-p)), exponentiating only -|p| so nothing overflows."""
    e = np.exp(-np.abs(p))
    return np.where(p >= 0, 1.0, e) / (1.0 + e)


def rank(scores, names=None) -> RankingResult:
    """Deterministic descending ranking, ties broken by ascending index."""
    vec = np.asarray(scores, dtype=float)
    order = np.argsort(-vec, kind="stable")  # RankingResult rejects bad shapes and non-finite scores
    return RankingResult(vec, order, tuple(names) if names is not None else None)


def select_top_k(r: RankingResult, k: int) -> list[int]:
    """Indices of the k best-ranked features, best first.

    Names, when the ranking carries them, follow via
    ``r.feature_names[i]`` for each returned index.
    """
    n = r.scores.shape[0]
    k = positive_int(k, f"k must lie in 1..{n}, got {k}", KOutOfRange, high=n)
    return [int(i) for i in r.order[:k]]


def gate_forward(x, g: GateVector) -> np.ndarray:
    """Elementwise modulation out_i = sigmoid(p_i) * x_i."""
    vec = np.asarray(x, dtype=float)
    if vec.shape != g.params.shape:
        raise DimensionMismatch(f"x has shape {vec.shape}, gate has {g.params.shape}")
    return _logistic(g.params) * vec


def gate_gradient(x, g: GateVector, upstream) -> np.ndarray:
    """Analytic gradient of the gated output w.r.t. the gate parameters.

    d out_i / d p_i = s_i (1 - s_i) x_i with s = sigmoid(p), chained with
    the upstream sensitivity.
    """
    vec = np.asarray(x, dtype=float)
    up = np.asarray(upstream, dtype=float)
    if vec.shape != g.params.shape or up.shape != g.params.shape:
        raise DimensionMismatch("x, upstream and gate parameters must share one length")
    s = _logistic(g.params)
    return up * vec * s * (1.0 - s)


def hard_threshold(g: GateVector, tau: float = 0.5) -> np.ndarray:
    """Boolean support mask: gate value at least tau.

    Compared in parameter space against logit(tau), which rounds once
    instead of once per element; at tau = 0.5 the test is exactly
    ``params >= 0``.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    return g.params >= math.log(tau / (1.0 - tau))
