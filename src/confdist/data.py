"""Observed data: response vector plus design matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = ["Dataset"]


@dataclass(frozen=True)
class Dataset:
    """A finite response vector y (length n) and full-column-rank design X (n x p).

    Shape and finiteness are enforced here; rank is checked where a fit
    actually decomposes the design, against a documented singular-value
    tolerance.
    """

    y: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        X = np.asarray(self.X, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        if y.ndim != 1 or X.ndim != 2:
            raise DataError("y must be a vector and X a matrix")
        if X.shape[0] != y.shape[0]:
            raise DataError(f"y has {y.shape[0]} rows but X has {X.shape[0]}")
        n, p = X.shape
        if not (n > p >= 1):
            raise DataError(f"need n > p >= 1, got n={n}, p={p}")
        if not np.all(np.isfinite(y)):
            raise DataError("response contains non-finite values")
        if not np.all(np.isfinite(X)):
            raise DataError("design matrix contains non-finite values")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def require_positive_response(self) -> None:
        """Gamma-family ingestion check: every response must be positive."""
        bad = np.flatnonzero(self.y <= 0.0)
        if bad.size:
            raise DataError(
                f"gamma responses must be positive; first offending row index {bad[0]}"
            )

