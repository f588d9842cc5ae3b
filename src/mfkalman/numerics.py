"""Time grid, trapezoid quadrature and two-time kernel storage.

Everything downstream (transition operators, covariance quadratures, the
gain optimizer) lives on a single uniform grid, so all two-time objects
can be indexed by node pairs without interpolation.
"""

from __future__ import annotations

import numbers

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


class _Record:
    """Base of the package's records: plain classes whose ``__init__`` sets
    their fields in order. Equality and hashing are by identity; the repr
    names the class and the fields that are not arrays."""

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items()
                           if not isinstance(value, np.ndarray))
        return f"{type(self).__name__}({fields})"


class _ReadOnly(_Record):
    """A record whose ``__init__`` writes its fields into ``self.__dict__``;
    assigning or deleting an attribute afterwards raises AttributeError."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


class TimeGrid(_ReadOnly):
    """Uniform partition of [0, horizon] into ``n_steps`` intervals.

    Nodes are ``t_i = i * dt`` with ``dt = horizon / n_steps``; there are
    ``n_steps + 1`` of them, covering the closed interval.
    """

    horizon: float
    n_steps: int
    nodes: np.ndarray
    dt: float

    def __init__(self, horizon: float, n_steps: int, nodes: np.ndarray, dt: float):
        self.__dict__.update(horizon=horizon, n_steps=n_steps, nodes=nodes, dt=dt)

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

    A step below the smallest normal float64 raises: it is 0 or loses
    digits, so the nodes would not be i * dt.
    """
    horizon = float(horizon)
    if not np.isfinite(horizon) or horizon <= 0.0:
        raise GridError(f"horizon must be a positive finite number, got {horizon!r}")
    n_steps = _integer(n_steps, GridError, f"n_steps must be an integer >= 2, got {n_steps!r}", 2)
    dt = horizon / n_steps
    if dt < np.finfo(float).tiny:
        raise GridError(f"horizon {horizon!r} over {n_steps} steps gives a step {dt!r} "
                        f"below the smallest normal float")
    nodes = np.linspace(0.0, horizon, n_steps + 1)
    nodes.setflags(write=False)
    return TimeGrid(horizon, n_steps, nodes, dt)


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
    """Scalar two-time field G(t_i, s_j) stored on the closed lower
    triangle j <= i.

    Entries above the diagonal are never meaningful; they are kept as zeros
    in a dense (N+1, N+1) array so that rows/columns slice cheaply.
    """

    def __init__(self, grid: TimeGrid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        n = grid.n_nodes
        if values.shape != (n, n):
            raise GridError(f"kernel storage must be ({n}, {n}), got {values.shape}")
        self.grid = grid
        self.values = values
        self.values.setflags(write=False)
