"""Euler-Maruyama simulation of the coupled state/observation/filter flow,
plus Monte Carlo statistics used as the empirical oracle.

Every replication carries a single pair of driving noise paths shared by
all atoms: the whole family of particles is one stochastic flow, so the
mean-field terms are computed each step as weighted sums over the atoms'
current values. The filter sees the observation process only through its
increments, which keeps it adapted to the observation history.

Replications are generated in fixed-size blocks, each with its own
counter-based random stream (Philox keyed by a spawned seed sequence), so
results are reproducible bit-for-bit regardless of how many worker
threads the ``MFK_THREADS`` environment variable allows.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .kernels import GainSchedule, _closed_loop_drifts
from .numerics import TimeGrid
from .system_model import Scenario

__all__ = [
    "PathEnsemble",
    "EmpiricalStats",
    "SimulationError",
    "simulate_ensemble",
    "empirical_statistics",
    "worker_count",
]

_BLOCK = 4096  # replications per random stream; fixed so results do not
               # depend on the thread count


class SimulationError(RuntimeError):
    """Simulation blow-up or invalid simulation inputs."""


def worker_count() -> int:
    """Worker cap for block-parallel simulation; MFK_THREADS overrides."""
    env = os.environ.get("MFK_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise SimulationError(f"MFK_THREADS must be an integer, got {env!r}") from None
    return min(4, os.cpu_count() or 1)


@dataclass(frozen=True)
class PathEnsemble:
    """Monte Carlo replications of the state, observation, filter and error.

    Array layout: (replication, atom, node, component). All atoms within a
    replication share the same driving noise increments; the error paths
    satisfy e = x - z identically and start at zero.
    """

    grid: TimeGrid
    seed: int
    n_paths: int
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    e: np.ndarray

    @property
    def n_atoms(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class EmpiricalStats:
    """Cross-replication statistics of the error at one (atom, node)."""

    mean: np.ndarray      # (n,)
    cov: np.ndarray       # (n, n)
    mean_se: np.ndarray   # (n,)
    var_se: np.ndarray    # (n,) fourth-moment standard error of the variance


def _simulate_block(scenario: Scenario, gain: GainSchedule, xs: np.ndarray,
                    ys: np.ndarray, zs: np.ndarray, seed_seq: np.random.SeedSequence,
                    H: np.ndarray, M: np.ndarray, chol_q: np.ndarray, chol_q0: np.ndarray):
    """One block of replications, written into the trajectory arrays
    ``xs``/``ys``/``zs`` (the block's slices of the ensemble's)."""
    grid = scenario.grid
    n, m, d = scenario.n, scenario.m, scenario.d
    k = scenario.n_atoms
    n_block = len(xs)
    dt = grid.dt
    sqdt = np.sqrt(dt)
    rng = np.random.Generator(np.random.Philox(seed_seq))
    w = scenario.measure.weights

    x = np.broadcast_to(scenario.measure.points[None, :, :], (n_block, k, n)).copy()
    z = x.copy()
    if m == n:
        y = x.copy()
    else:
        y = np.zeros((n_block, k, m))
    xs[:, :, 0] = x
    ys[:, :, 0] = y
    zs[:, :, 0] = z

    G = gain.values
    sig = scenario.sigma  # (k, N+1, n, d)
    gam = scenario.gamma  # (k, N+1, m, d)

    for j in range(grid.n_steps):
        dW = rng.standard_normal((n_block, d)) @ chol_q.T * sqdt
        dV = rng.standard_normal((n_block, d)) @ chol_q0.T * sqdt
        xbar = np.einsum("k,pkn->pn", w, x)
        zbar = np.einsum("k,pkn->pn", w, z)
        dy = (np.einsum("mn,pkn->pkm", scenario.C[j], x)
              + np.einsum("mn,pn->pm", scenario.D[j], xbar)[:, None, :]) * dt \
            + np.einsum("kmd,pd->pkm", gam[:, j], dV)
        x = x + (np.einsum("ab,pkb->pka", scenario.A[j], x)
                 + np.einsum("ab,pb->pa", scenario.B[j], xbar)[:, None, :]) * dt \
            + np.einsum("kad,pd->pka", sig[:, j], dW)
        z = z + (np.einsum("ab,pkb->pka", H[j], z)
                 + np.einsum("ab,pb->pa", M[j], zbar)[:, None, :]) * dt \
            + np.einsum("nm,pkm->pkn", G[j], dy)
        y = y + dy
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z))):
            raise SimulationError(
                f"simulation blew up at node {j + 1} (t = {grid.nodes[j + 1]:g})"
            )
        xs[:, :, j + 1] = x
        ys[:, :, j + 1] = y
        zs[:, :, j + 1] = z


def simulate_ensemble(scenario: Scenario, gain: GainSchedule, n_paths: int,
                      seed: int) -> PathEnsemble:
    """Euler-Maruyama ensemble of the full flow under the given gain.

    The drift is evaluated at the left node; the filter increment uses
    the gain times the observation increment of the same step. The
    interaction means are recomputed every step from the current atom
    values. Identical seeds give bitwise identical ensembles.
    """
    if n_paths < 1:
        raise SimulationError(f"n_paths must be >= 1, got {n_paths}")
    grid = scenario.grid
    H, M = _closed_loop_drifts(scenario, gain)
    chol_q = np.linalg.cholesky(scenario.Q)
    chol_q0 = np.linalg.cholesky(scenario.Q0)

    k, n, m = scenario.n_atoms, scenario.n, scenario.m
    xs = np.empty((n_paths, k, grid.n_nodes, n))
    ys = np.empty((n_paths, k, grid.n_nodes, m))
    zs = np.empty((n_paths, k, grid.n_nodes, n))

    blocks = [(b, min(_BLOCK, n_paths - b)) for b in range(0, n_paths, _BLOCK)]
    seqs = np.random.SeedSequence(seed).spawn(len(blocks))

    def run(idx: int):
        start, size = blocks[idx]
        part = slice(start, start + size)
        _simulate_block(scenario, gain, xs[part], ys[part], zs[part], seqs[idx], H, M,
                        chol_q, chol_q0)

    workers = min(worker_count(), len(blocks))
    if workers <= 1:
        for idx in range(len(blocks)):
            run(idx)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, range(len(blocks))))

    e = xs - zs
    for arr in (xs, ys, zs, e):
        arr.setflags(write=False)
    return PathEnsemble(grid=grid, seed=int(seed), n_paths=int(n_paths),
                        x=xs, y=ys, z=zs, e=e)


def empirical_statistics(ensemble: PathEnsemble, atom: int, node: int) -> EmpiricalStats:
    """Sample mean and covariance of the error across replications.

    The variance standard error uses the fourth-moment estimator
    sqrt((m4 - m2^2 (P-3)/(P-1)) / P) per component.
    """
    P = ensemble.n_paths
    if P < 2:
        raise SimulationError("statistics need at least 2 replications")
    errs = ensemble.e[:, atom, node, :]          # (P, n)
    mean = errs.mean(axis=0)
    centered = errs - mean
    cov = centered.T @ centered / (P - 1)
    var = np.diag(cov)
    m4 = (centered**4).mean(axis=0)
    var_se = np.sqrt(np.maximum(m4 - var**2 * (P - 3) / (P - 1), 0.0) / P)
    mean_se = np.sqrt(np.maximum(var, 0.0) / P)
    return EmpiricalStats(mean=mean, cov=cov, mean_se=mean_se, var_se=var_se)
