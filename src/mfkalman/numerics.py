"""Time grid, trapezoid quadrature and two-time kernel storage.

Everything downstream (transition operators, covariance quadratures, the
gain optimizer) lives on a single uniform grid, so all two-time objects
can be indexed by node pairs without interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TimeGrid",
    "TriangularKernel",
    "make_grid",
    "trapezoid_integrate",
    "trapezoid",
    "cumulative_trapezoid",
]


class GridError(ValueError):
    """Invalid grid construction or grid/index mismatch."""


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
        """Nearest-node index of ``t``; rejects off-grid times."""
        i = int(round(t / self.dt))
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
    if int(n_steps) != n_steps or n_steps < 2:
        raise GridError(f"n_steps must be an integer >= 2, got {n_steps!r}")
    n_steps = int(n_steps)
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


def trapezoid_integrate(samples, grid: TimeGrid, a: int, b: int):
    """Integrate node samples of ``f`` over ``[t_a, t_b]`` by trapezoid.

    ``samples`` must hold the values at the consecutive nodes
    ``t_a, ..., t_b`` (length ``b - a + 1``); returns 0 when ``a == b``.
    """
    samples = np.asarray(samples, dtype=float)
    if b < a:
        raise GridError(f"need b >= a, got a={a}, b={b}")
    if a < 0 or b > grid.n_steps:
        raise GridError(f"indices [{a}, {b}] fall outside the grid")
    if samples.shape[0] != b - a + 1:
        raise GridError(
            f"expected {b - a + 1} samples for nodes {a}..{b}, got {samples.shape[0]}"
        )
    return trapezoid(samples, grid.dt)


def cumulative_trapezoid(values: np.ndarray, dt: float, axis: int = -1) -> np.ndarray:
    """Running trapezoid integral along ``axis``; entry 0 is 0."""
    values = np.asarray(values, dtype=float)
    n = values.shape[axis]
    out = np.zeros_like(values)
    if n < 2:
        return out
    upper = np.take(values, np.arange(1, n), axis=axis)
    lower = np.take(values, np.arange(0, n - 1), axis=axis)
    idx = [slice(None)] * values.ndim
    idx[axis] = slice(1, None)
    out[tuple(idx)] = np.cumsum(0.5 * (upper + lower), axis=axis) * dt
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

    @property
    def entry_shape(self) -> tuple:
        return self.values.shape[2:]

    def value(self, i: int, j: int):
        """Entry G(t_i, s_j); only the lower triangle j <= i is defined."""
        if not (0 <= j <= i <= self.grid.n_steps):
            raise GridError(f"(i={i}, j={j}) outside the lower triangle")
        return self.values[i, j]

    def diagonal(self) -> np.ndarray:
        if self.values.ndim == 2:
            return np.diagonal(self.values)
        return np.einsum("iiab->iab", self.values)
