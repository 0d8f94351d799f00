"""Small statistics helpers shared by harness, tests, and reports."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Summary", "summarize", "ratio", "within"]


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of repeated measurements."""

    n: int
    mean: float
    stdev: float
    min: float
    max: float


def summarize(values) -> Summary:
    """Summary of a sequence of measurements."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sequence")
    return Summary(
        n=int(arr.size),
        mean=float(arr.mean()),
        stdev=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        min=float(arr.min()),
        max=float(arr.max()),
    )


def ratio(a: float, b: float) -> float:
    """a/b guarded against division by ~zero."""
    if abs(b) < 1e-12:
        return math.inf
    return a / b


def within(value: float, target: float, rel_tol: float) -> bool:
    """True when ``value`` is within ``rel_tol`` (relative) of ``target``."""
    if target == 0:
        return abs(value) <= rel_tol
    return abs(value - target) <= rel_tol * abs(target)
