"""Time grid, trapezoid quadrature and two-time kernel storage.

Everything downstream (transition operators, covariance quadratures, the
gain optimizer) lives on a single uniform grid, so all two-time objects
can be indexed by node pairs without interpolation.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TimeGrid",
    "TriangularKernel",
    "make_grid",
    "trapezoid",
    "cumulative_trapezoid",
]


class GridError(ValueError):
    """Invalid grid construction or grid/index mismatch."""


def _integer(value, error: type[Exception], message: str, low=-np.inf, high=np.inf) -> int:
    """``value`` as an ``int`` if it is an integer, numpy's included and a
    bool not, with low <= value < high; otherwise raise ``error(message)``.
    The one rule for the package's integer arguments."""
    if (isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Integral)
            or not low <= value < high):
        raise error(message)
    return int(value)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, horizon] into ``n_steps`` intervals.

    Nodes are ``t_i = i * dt`` with ``dt = horizon / n_steps``; there are
    ``n_steps + 1`` of them, covering the closed interval.
    """

    horizon: float
    n_steps: int
    nodes: np.ndarray = field(repr=False)
    dt: float

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1

    def index_of(self, t: float) -> int:
        """Nearest-node index of ``t``; rejects off-grid times, inf and nan."""
        i = int(round(t / self.dt)) if np.isfinite(t) else -1
        if i < 0 or i > self.n_steps or abs(self.nodes[i] - t) > 1e-9 * max(1.0, self.horizon):
            raise GridError(f"time {t!r} is not a node of the grid")
        return i

    def same_as(self, other: "TimeGrid") -> bool:
        return (
            self.n_steps == other.n_steps
            and abs(self.horizon - other.horizon) <= 1e-12 * max(1.0, abs(self.horizon))
        )


def make_grid(horizon: float, n_steps: int) -> TimeGrid:
    """Build the uniform grid on [0, horizon] with ``n_steps`` intervals.

    Parameters
    ----------
    horizon : float
        End time, strictly positive.
    n_steps : int
        Number of sub-intervals, at least 2.
    """
    horizon = float(horizon)
    if not np.isfinite(horizon) or horizon <= 0.0:
        raise GridError(f"horizon must be a positive finite number, got {horizon!r}")
    n_steps = _integer(n_steps, GridError, f"n_steps must be an integer >= 2, got {n_steps!r}", 2)
    nodes = np.linspace(0.0, horizon, n_steps + 1)
    nodes.setflags(write=False)
    return TimeGrid(horizon=horizon, n_steps=n_steps, nodes=nodes, dt=horizon / n_steps)


def trapezoid(values: np.ndarray, dt: float) -> np.ndarray | float:
    """Composite trapezoid of node samples spaced ``dt`` apart (axis 0).

    A single sample integrates to zero. Exact for affine integrands.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[0] < 2:
        return 0.0 if values.ndim == 1 else np.zeros(values.shape[1:])
    weighted = values.sum(axis=0) - 0.5 * (values[0] + values[-1])
    return weighted * dt


def cumulative_trapezoid(values: np.ndarray, dt: float) -> np.ndarray:
    """Running trapezoid integral along the last axis; entry 0 is 0."""
    values = np.asarray(values, dtype=float)
    out = np.zeros_like(values)
    if values.shape[-1] > 1:
        run = out[..., 1:]
        np.cumsum(0.5 * (values[..., 1:] + values[..., :-1]), axis=-1, out=run)
        run *= dt
    return out


class TriangularKernel:
    """Two-time field G(t_i, s_j) stored on the closed lower triangle j <= i.

    Entries above the diagonal are never meaningful; they are kept as zeros
    in a dense array so that rows/columns slice cheaply. Entries may be
    scalars or square matrices, uniform across all cells.
    """

    def __init__(self, grid: TimeGrid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        n = grid.n_nodes
        if values.shape[:2] != (n, n):
            raise GridError(
                f"kernel storage must be ({n}, {n}, ...), got {values.shape}"
            )
        if values.ndim not in (2, 4) or (values.ndim == 4 and values.shape[2] != values.shape[3]):
            raise GridError("kernel entries must be scalars or square matrices")
        self.grid = grid
        self.values = values
        self.values.setflags(write=False)
