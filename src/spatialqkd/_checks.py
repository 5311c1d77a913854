"""The rules every scalar parameter and probability vector follow.  Each
scalar call site names the field, its range and the error type it raises."""

from __future__ import annotations

import math
import numbers

import numpy as np


def number(name: str, value, interval: str,
           error: type[Exception] = ValueError) -> float:
    """``value`` as a float when it is a real number, not a boolean and not
    NaN, in ``interval``, written ``"(0, inf)"`` or ``"[0, 1]"``: a square
    bracket includes its end, a round one does not, so ``inf)`` keeps the
    infinities out."""
    # bool is an int subclass, and True is no width or probability.
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int beyond the float range
            x = math.inf
        low, high = (float(end) for end in interval[1:-1].split(","))
        if ((low < x or (interval[0] == "[" and x == low))
                and (x < high or (interval[-1] == "]" and x == high))):
            return x
    got = "a boolean" if isinstance(value, (bool, np.bool_)) else repr(value)
    raise error(f"{name} must be a finite number in {interval}, got {got}")


def count(name: str, value, floor: int,
          error: type[Exception] = ValueError) -> None:
    """Raise unless ``value`` is an ``int``, not a boolean, and >= ``floor``."""
    if type(value) is not int or value < floor:
        got = "a boolean" if isinstance(value, (bool, np.bool_)) else repr(value)
        raise error(f"{name} must be an integer >= {floor}, got {got}")


def distribution(p) -> np.ndarray:
    """``p`` as a float array when it is a non-empty vector of finite,
    non-negative probabilities that add up to 1 within 1e-9."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("expected a one-dimensional probability vector")
    if np.any(p < 0) or not np.all(np.isfinite(p)):
        raise ValueError("probabilities must be finite and non-negative")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {p.sum():.12f}, expected 1")
    return p
