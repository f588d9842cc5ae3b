"""Scenario container: coefficients, noise covariances, cost weight, initial measure.

A scenario bundles the drift/observation coefficient functions A, B, C, D,
the per-particle diffusion loadings sigma(u, t) and gamma(u, t), the noise
covariances Q and Q0, the cost weight Sigma(t), and the initial mass
distribution. The initial distribution is always a finite weighted atom
set: continuous laws enter through quadrature atoms (Gauss-Hermite for the
standard normal), since every formula downstream touches the measure only
through weighted sums.
"""

from __future__ import annotations

import itertools

import numpy as np

from .numerics import TimeGrid, _integer, _ReadOnly

__all__ = [
    "ScenarioError",
    "NonFiniteError",
    "check_finite",
    "InitialMeasure",
    "Scenario",
    "BarQuantities",
    "build_scenario",
    "measure_averages",
    "dirac_measure",
    "gauss_hermite_measure",
]

_WEIGHT_TOL = 1e-12


class ScenarioError(ValueError):
    """Invalid scenario data (dimensions, definiteness, finiteness)."""


class NonFiniteError(ScenarioError):
    """A stage produced a NaN or an infinity (see :func:`check_finite`)."""


def check_finite(stage: str, array: np.ndarray) -> None:
    """Raise :class:`NonFiniteError` naming ``stage`` and the first node
    (index along axis 0) where ``array`` holds a NaN or an infinity."""
    bad = ~np.isfinite(array)
    if bad.any():
        node = int(np.argmax(bad.reshape(len(bad), -1).any(axis=1)))
        raise NonFiniteError(f"{stage}: non-finite value at node {node}")


def _float_array(value, key: str) -> np.ndarray:
    """``value`` as a new float array, or a ScenarioError naming ``key``."""
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ScenarioError(f"{key} must be a regular array of numbers, got {value!r}") from None


class InitialMeasure(_ReadOnly):
    """Finite weighted atom set: points (k, n) and positive weights, which
    are normalized to sum to 1 (first divided by the largest when their
    sum overflows). Points given as a number or a flat list are scalar
    atoms, any others must be (k, n) with k, n >= 1; weights are a number
    or a flat list."""

    points: np.ndarray
    weights: np.ndarray

    def __init__(self, points, weights):
        # copies: freezing them must not freeze or alias the caller's arrays
        points = _float_array(points, "points")
        if points.ndim > 2 or points.size == 0:
            raise ScenarioError(f"points must have shape (k, n) with k, n >= 1, "
                                f"got {points.shape}")
        points = points.reshape(-1, 1) if points.ndim < 2 else points
        weights = np.atleast_1d(_float_array(weights, "weights"))
        if weights.ndim > 1:
            raise ScenarioError(f"weights must be a number or a flat list, got {weights.shape}")
        if points.shape[0] != weights.shape[0]:
            raise ScenarioError(
                f"{points.shape[0]} atoms but {weights.shape[0]} weights"
            )
        if not np.all(np.isfinite(weights)):
            raise ScenarioError("atom weights must be finite")
        if np.any(weights <= 0.0):
            raise ScenarioError("atom weights must be strictly positive")
        if not np.all(np.isfinite(points)):
            raise ScenarioError("atom locations must be finite")
        with np.errstate(over="ignore"):
            total = weights.sum()
        if not np.isfinite(total):  # a sum past float range: scale by the largest first
            weights = weights / weights.max()
            total = weights.sum()
        if abs(total - 1.0) > _WEIGHT_TOL:
            weights = weights / total
        points.setflags(write=False)
        weights.setflags(write=False)
        self.__dict__.update(points=points, weights=weights)

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def dirac_measure(x0) -> InitialMeasure:
    """Unit mass at the single point ``x0``, a number or a flat list."""
    x0 = _float_array(x0, "x0")
    if x0.ndim > 1 or x0.size < 1:
        raise ScenarioError(f"x0 must be a number or a non-empty flat list, got {x0.shape}")
    return InitialMeasure(points=x0.reshape(1, -1), weights=np.array([1.0]))


def gauss_hermite_measure(n_nodes: int) -> InitialMeasure:
    """Quadrature atoms integrating the standard normal law exactly.

    The returned atoms integrate polynomials of degree <= 2 n_nodes - 1
    against the standard normal density; weights come normalized.
    """
    n_nodes = _integer(n_nodes, ScenarioError, f"n_nodes must be a positive integer, "
                                                f"got {n_nodes!r}", 1)
    # probabilists' Hermite quadrature: weight function exp(-x^2/2)
    x, w = np.polynomial.hermite_e.hermegauss(n_nodes)
    return InitialMeasure(points=x[:, None], weights=w / w.sum())


class Scenario(_ReadOnly):
    """Validated coefficient set on a grid, plus the initial measure.

    Every coefficient is held as its samples at the grid nodes, which is
    all the kernels, the covariance and the simulation read.
    """

    grid: TimeGrid
    n: int
    m: int
    d: int
    A: np.ndarray          # (N+1, n, n)
    B: np.ndarray          # (N+1, n, n)
    C: np.ndarray          # (N+1, m, n)
    D: np.ndarray          # (N+1, m, n)
    Sigma: np.ndarray      # (N+1, n, n)
    sigma: np.ndarray      # (k_atoms, N+1, n, d)
    gamma: np.ndarray      # (k_atoms, N+1, m, d)
    Q: np.ndarray          # (d, d)
    Q0: np.ndarray         # (d, d)
    measure: InitialMeasure

    def __init__(self, grid: TimeGrid, n: int, m: int, d: int, A: np.ndarray, B: np.ndarray,
                 C: np.ndarray, D: np.ndarray, Sigma: np.ndarray, sigma: np.ndarray,
                 gamma: np.ndarray, Q: np.ndarray, Q0: np.ndarray, measure: InitialMeasure):
        self.__dict__.update(grid=grid, n=n, m=m, d=d, A=A, B=B, C=C, D=D, Sigma=Sigma,
                             sigma=sigma, gamma=gamma, Q=Q, Q0=Q0, measure=measure)

    @property
    def n_atoms(self) -> int:
        return self.measure.n_atoms

    @property
    def scalar_mode(self) -> bool:
        """n = m = d = 1: the scalar tables' and the gain optimizer's domain."""
        return self.n == self.m == self.d == 1


class BarQuantities(_ReadOnly):
    """Measure-averaged coefficient fields sampled at grid nodes.

    ``sigma2_bar`` and ``gamma2_bar`` carry the noise covariance folded in:
    they are the atom averages of sigma Q sigma' and gamma Q0 gamma', which
    is the combination every covariance quadrature consumes. With unit
    noise covariance they reduce to the plain averaged squares.
    ``scenario`` is the scenario they were averaged over; the covariance
    functions refuse them for any other.
    """

    sigma_bar: np.ndarray    # (N+1, n, d)
    gamma_bar: np.ndarray    # (N+1, m, d)
    sigma2_bar: np.ndarray   # (N+1, n, n)
    gamma2_bar: np.ndarray   # (N+1, m, m)
    scenario: Scenario

    def __init__(self, sigma_bar: np.ndarray, gamma_bar: np.ndarray, sigma2_bar: np.ndarray,
                 gamma2_bar: np.ndarray, scenario: Scenario):
        self.__dict__.update(sigma_bar=sigma_bar, gamma_bar=gamma_bar,
                             sigma2_bar=sigma2_bar, gamma2_bar=gamma2_bar,
                             scenario=scenario)


def _check_spd(mat: np.ndarray, label: str) -> np.ndarray:
    """``mat`` as a new (k, k) float array, checked symmetric positive
    definite; the caller's array is not kept."""
    mat = np.array(mat, dtype=float, ndmin=2)
    if mat.shape[0] != mat.shape[1]:
        raise ScenarioError(f"{label} must be square, got {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ScenarioError(f"{label} has non-finite entries")
    if not np.allclose(mat, mat.T, atol=1e-10, rtol=1e-10):
        raise ScenarioError(f"{label} must be symmetric")
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise ScenarioError(f"{label} must be positive definite") from None
    return mat


def _check_spd_nodes(samples: np.ndarray, grid: TimeGrid, label: str) -> None:
    """:func:`_check_spd` on all node samples (N+1, n, n) at once; only a
    failure is checked node by node, to name the first failing time."""
    try:
        np.linalg.cholesky(samples)
        if np.allclose(samples, samples.transpose(0, 2, 1), atol=1e-10, rtol=1e-10):
            return
    except np.linalg.LinAlgError:
        pass
    for j, t in enumerate(grid.nodes):
        _check_spd(samples[j], f"{label}(t={t})")


def _as_matrix(value, rows: int, cols: int) -> np.ndarray:
    """A scalar v as v I for a square shape and as the full (rows, cols)
    matrix of v otherwise; an array as it is."""
    val = np.asarray(value, dtype=float)
    if val.ndim:
        return val
    return val * np.eye(rows) if rows == cols else np.full((rows, cols), float(val))


def _stack_values(fn, nodes: np.ndarray, rows: int, cols: int, label: str,
                  *lead) -> np.ndarray:
    """(len(nodes), rows, cols) values of ``fn(*lead, t)`` at every node t,
    each read as in :func:`_as_matrix`. ``fn`` is called once per node, in
    node order, and its arguments are made as the calls happen: ``lead``
    is passed as given at every node, t is the node's ``np.float64``. The
    values are stacked at once; only when they do not stack to that shape
    (scalars mixed with matrices, or a wrong shape) are they read one by
    one, so that ``label.format(*lead, t)`` names the first misshapen
    value."""
    values = list(map(fn, *map(itertools.repeat, lead), nodes))
    try:
        stacked = np.asarray(values, dtype=float)
    except ValueError:  # ragged: scalars mixed with matrices
        pass
    else:
        if stacked.ndim == 1:
            column = stacked[:, None, None]
            if rows == cols:
                return column * np.eye(rows)
            return np.broadcast_to(column, (len(values), rows, cols)).copy()
        if stacked.shape == (len(values), rows, cols):
            return stacked
    out = np.empty((len(values), rows, cols))
    for j, value in enumerate(values):
        val = _as_matrix(value, rows, cols)
        if val.shape != (rows, cols):
            raise ScenarioError(f"{label.format(*lead, nodes[j])} has shape {val.shape}, "
                                f"expected {(rows, cols)}")
        out[j] = val
    return out


def _samples(value, grid: TimeGrid, rows: int, cols: int, label: str,
             measure: InitialMeasure | None = None) -> np.ndarray:
    """(N+1, rows, cols) nodal samples of a coefficient, or with
    ``measure`` (k_atoms, N+1, rows, cols) of a per-atom loading. A
    constant or a matrix is read once, as in :func:`_as_matrix`, and
    copied to every node (and atom); one of a shape other than (rows, cols)
    is named by ``label``. A callable of t, or of (u, t) with u a float for
    a one-component atom and the atom's row otherwise, is read as in
    :func:`_stack_values`. Samples that are not all finite raise too."""
    lead = (grid.n_nodes,) if measure is None else (measure.n_atoms, grid.n_nodes)
    if not callable(value):
        val = _as_matrix(value, rows, cols)
        if val.shape != (rows, cols):
            raise ScenarioError(f"{label} has shape {val.shape}, expected {(rows, cols)}")
        samples = np.broadcast_to(val, lead + val.shape).copy()
    elif measure is None:
        samples = _stack_values(value, grid.nodes, rows, cols, label + "({})")
    else:
        samples = np.empty(lead + (rows, cols))
        for k, u in enumerate(measure.points):
            samples[k] = _stack_values(value, grid.nodes, rows, cols, label + "(u={}, t={})",
                                       u.item() if u.size == 1 else u)
    if not np.all(np.isfinite(samples)):
        where = "node" if measure is None else "atom and node"
        raise ScenarioError(f"{label} is not finite at every {where}")
    return samples


def build_scenario(grid: TimeGrid, *, measure: InitialMeasure,
                   A=0.0, B=0.0, C=1.0, D=0.0,
                   sigma=1.0, gamma=1.0,
                   Q=1.0, Q0=1.0, Sigma=1.0, m: int | None = None) -> Scenario:
    """Assemble and validate a scenario.

    Coefficients may be constants, matrices, or callables of ``t``;
    ``sigma``/``gamma`` take callables of ``(u, t)`` instead. A constant
    or a matrix is read once and copied to every node (and atom), with no
    Python work per node, and one of the wrong shape is named, as in
    ``A has shape (3, 3)``; a callable is called once per node, or once
    per atom and node for a loading, and a value of the wrong shape is
    named by its first node (and atom), as in ``C(0.5) has shape (1, 2)``.
    Every input is sampled by that one rule (:func:`_samples`), which
    :class:`~mfkalman.kernels.GainSchedule` shares for the gain. The state
    dimension is the measure's, the observation dimension defaults to it,
    and the noise dimension d is read off ``Q``; a scalar ``Q0`` is read
    as v I of that size.

    Raises
    ------
    ScenarioError
        On dimension mismatch, non-SPD Q/Q0/Sigma, or non-finite samples.
    """
    n = measure.dim
    m = n if m is None else int(m)
    Q_arr = _check_spd(Q, "Q")
    d = Q_arr.shape[0]
    Q0_arr = np.atleast_2d(np.asarray(Q0, dtype=float))
    if Q0_arr.shape == (1, 1) and d != 1:
        Q0_arr = float(Q0_arr[0, 0]) * np.eye(d)
    Q0_arr = _check_spd(Q0_arr, "Q0")
    if Q0_arr.shape != (d, d):
        raise ScenarioError(
            f"noise covariances must be ({d}, {d}); got Q{Q_arr.shape}, Q0{Q0_arr.shape}"
        )

    A_s = _samples(A, grid, n, n, "A")
    B_s = _samples(B, grid, n, n, "B")
    C_s = _samples(C, grid, m, n, "C")
    D_s = _samples(D, grid, m, n, "D")
    Sig_s = _samples(Sigma, grid, n, n, "Sigma")
    _check_spd_nodes(Sig_s if callable(Sigma) else Sig_s[:1], grid, "Sigma")
    sig_s = _samples(sigma, grid, n, d, "sigma", measure)
    gam_s = _samples(gamma, grid, m, d, "gamma", measure)

    for arr in (A_s, B_s, C_s, D_s, Sig_s, sig_s, gam_s, Q_arr, Q0_arr):
        arr.setflags(write=False)

    return Scenario(
        grid=grid, n=n, m=m, d=d,
        A=A_s, B=B_s, C=C_s, D=D_s, Sigma=Sig_s,
        sigma=sig_s, gamma=gam_s, Q=Q_arr, Q0=Q0_arr,
        measure=measure,
    )


def measure_averages(scenario: Scenario) -> BarQuantities:
    """Atom-weighted averages of the diffusion loadings at every node.

    Produces sigma-bar, gamma-bar and the covariance-weighted squares
    (averages of sigma Q sigma' and gamma Q0 gamma'). For a Dirac measure
    the bars coincide with the loadings themselves.
    """
    w = scenario.measure.weights
    sigma_bar = np.einsum("k,kjnd->jnd", w, scenario.sigma)
    gamma_bar = np.einsum("k,kjmd->jmd", w, scenario.gamma)
    sigma2_bar = np.einsum("k,kjad,de,kjbe->jab", w, scenario.sigma, scenario.Q, scenario.sigma)
    gamma2_bar = np.einsum("k,kjad,de,kjbe->jab", w, scenario.gamma, scenario.Q0, scenario.gamma)
    for arr in (sigma_bar, gamma_bar, sigma2_bar, gamma2_bar):
        arr.setflags(write=False)
    return BarQuantities(sigma_bar=sigma_bar, gamma_bar=gamma_bar,
                         sigma2_bar=sigma2_bar, gamma2_bar=gamma2_bar, scenario=scenario)
