"""Euler-Maruyama simulation of the coupled state/observation/filter flow,
plus Monte Carlo statistics used as the empirical oracle.

Every replication carries a single pair of driving noise paths shared by
all atoms: the whole family of particles is one stochastic flow, so the
mean-field terms are weighted sums over the atoms' current values. The
filter sees the observation process only through its increments, which
keeps it adapted to the observation history.

The Euler step is linear in each atom's state s_u = [x_u, z_u, y_u]:
s_u' = own_j s_u + field_j [x_bar, z_bar] + noise_j[u] xi_j, with xi_j
the step's standard normal draws for the state noise, then the
observation noise. ``own_j`` is shared by all atoms and the mean-field
part enters once through the weighted atom means, so a step costs O(k)
per replication, and an atom's value does not depend on its label. A
block of replications is held as an (atom, row, replication) array, so
a step is a few small matrix products.

Replications are generated in fixed-size blocks, each with its own
counter-based random stream (Philox keyed by a spawned seed sequence).
The blocks run in block order on the calling thread. Each block reduces
the error e = x - z to moments at every node as it goes and folds into
the running moments as soon as it is done. A block's normal draws come
in chunks of ``_CHUNK`` steps, one call on its stream per chunk; with
two threads (:func:`worker_count`) a single helper thread draws the next
chunk while the calling thread steps the current one, and with one the
calling thread draws them itself. Either way the draws are the same
numbers in the same order, so results are reproducible bit-for-bit.
Only the first ``KEPT_PATHS`` replications keep their trajectories, so
memory does not grow with paths times steps.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from contextlib import contextmanager
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
_CHUNK = 8  # steps drawn per call: 512 kB of draws per block for d = 1;
            # 32 steps raised validate's peak RSS
KEPT_PATHS = 10  # leading replications whose trajectories an ensemble keeps


class SimulationError(RuntimeError):
    """Simulation blow-up or invalid simulation inputs."""


def worker_count() -> int:
    """Threads a simulation uses: 2, the calling thread and one helper
    that draws the normals ahead of the stepping, when this process may
    run on two or more CPUs, else 1, the calling thread drawing them
    itself. MFK_THREADS overrides the CPU count."""
    env = os.environ.get("MFK_THREADS", "").strip()
    if env:
        try:
            cpus = int(env)
        except ValueError:
            raise SimulationError(f"MFK_THREADS must be an integer, got {env!r}") from None
    elif hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return 2 if cpus > 1 else 1


@dataclass(frozen=True)
class PathEnsemble:
    """Monte Carlo replications of the state, observation, filter and error.

    ``x``, ``y``, ``z`` and ``e`` hold the trajectories of the first
    min(n_paths, KEPT_PATHS) replications, layout (replication, atom,
    node, component); the error paths satisfy e = x - z identically and
    start at zero. All atoms within a replication share the same driving
    noise increments.

    The error statistics over all ``n_paths`` replications are kept per
    (atom, node): ``mean`` (k, N+1, n), the centered sums of products
    ``sum2`` (k, N+1, n, n) and the centered sums of fourth powers of
    each component ``sum4`` (k, N+1, n). None of these grows with
    ``n_paths``.
    """

    grid: TimeGrid
    seed: int
    n_paths: int
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    e: np.ndarray
    mean: np.ndarray
    sum2: np.ndarray
    sum4: np.ndarray


@dataclass(frozen=True)
class EmpiricalStats:
    """Cross-replication statistics of the error at every (atom, node)."""

    mean: np.ndarray      # (k, N+1, n)
    cov: np.ndarray       # (k, N+1, n, n)
    mean_se: np.ndarray   # (k, N+1, n)
    var_se: np.ndarray    # (k, N+1, n) fourth-moment standard error of the variance


def _step_maps(scenario: Scenario, gain: GainSchedule):
    """The Euler step of one atom's state s_u = [x_u, z_u, y_u] as
    s_u' = own_j s_u + field_j [x_bar, z_bar] + noise_j[u] xi_j, with the
    bars the weighted atom means and xi_j = [xi_W, xi_V] standard normal.

    Returns own (N, S, S), shared by all atoms, field (N, S, 2n) and
    noise (N, k, S, 2d), S = 2n + m: the step map of the stacked state,
    kept in blocks so that a step costs O(k) per replication."""
    H, M = _closed_loop_drifts(scenario, gain)
    n, m, d = scenario.n, scenario.m, scenario.d
    steps, dt = scenario.grid.n_steps, scenario.grid.dt
    G = gain.values[:steps]
    xs, zs, ys = slice(0, n), slice(n, 2 * n), slice(2 * n, None)
    size = 2 * n + m

    own = np.zeros((steps, size, size))
    own[:, xs, xs] = np.eye(n) + dt * scenario.A[:steps]
    own[:, ys, xs] = dt * scenario.C[:steps]
    own[:, zs, xs] = G @ own[:, ys, xs]
    own[:, zs, zs] = np.eye(n) + dt * H[:steps]
    own[:, ys, ys] = np.eye(m)

    field = np.zeros((steps, size, 2 * n))
    field[:, xs, xs] = dt * scenario.B[:steps]
    field[:, ys, xs] = dt * scenario.D[:steps]
    field[:, zs, xs] = G @ field[:, ys, xs]
    field[:, zs, zs] = dt * M[:steps]

    def loading(per_atom, Q):   # (k, N+1, p, d) -> (N, k, p, d), scaled to one step
        return (per_atom[:, :steps] @ np.linalg.cholesky(Q) * np.sqrt(dt)).transpose(1, 0, 2, 3)

    noise = np.zeros((steps, scenario.n_atoms, size, 2 * d))
    noise[:, :, xs, :d] = loading(scenario.sigma, scenario.Q)
    noise[:, :, ys, d:] = loading(scenario.gamma, scenario.Q0)
    noise[:, :, zs, d:] = G[:, None] @ noise[:, :, ys, d:]
    return own, field, noise


@dataclass
class _Moments:
    """Error moments of ``count`` replications at every node, layout
    (atom, node, ...): mean, centered sum of products, and the centered
    third and fourth power sums of each component. Node 0 (e = 0) stays
    zero."""

    count: int
    mean: np.ndarray   # (k, N+1, n)
    sum2: np.ndarray   # (k, N+1, n, n)
    sum3: np.ndarray   # (k, N+1, n)
    sum4: np.ndarray   # (k, N+1, n)

    @classmethod
    def zeros(cls, k: int, n_nodes: int, n: int, count: int) -> _Moments:
        return cls(count, np.zeros((k, n_nodes, n)), np.zeros((k, n_nodes, n, n)),
                   np.zeros((k, n_nodes, n)), np.zeros((k, n_nodes, n)))

    def record(self, node: int, e: np.ndarray) -> None:
        """Moments of the error columns ``e`` (k, n, count) at ``node``."""
        mean = e.mean(axis=2)
        c = e - mean[..., None]
        sq = c * c
        self.mean[:, node] = mean
        self.sum2[:, node] = c @ c.transpose(0, 2, 1)
        self.sum3[:, node] = np.einsum("uip,uip->ui", sq, c)
        self.sum4[:, node] = np.einsum("uip,uip->ui", sq, sq)

    def __add__(self, other: _Moments) -> _Moments:
        """Moments of both sets together: each set's sums shifted exactly
        from its own mean to the joint mean (Chan, Golub & LeVeque 1979;
        Pebay 2008)."""
        count = self.count + other.count
        mean = (self.count * self.mean + other.count * other.mean) / count
        sum2, sum3, sum4 = 0.0, 0.0, 0.0
        for part in (self, other):
            delta = part.mean - mean
            var = np.diagonal(part.sum2, axis1=-2, axis2=-1)
            sum2 = sum2 + part.sum2 + part.count * delta[..., :, None] * delta[..., None, :]
            sum3 = sum3 + part.sum3 + 3.0 * delta * var + part.count * delta**3
            sum4 = (sum4 + part.sum4 + 4.0 * delta * part.sum3 + 6.0 * delta**2 * var
                    + part.count * delta**4)
        return _Moments(count, mean, sum2, sum3, sum4)


def _draw_chunks(seqs, blocks, steps: int, d: int) -> Iterator[np.ndarray]:
    """Standard normals of every block in block order, ``_CHUNK`` steps at
    a time, each as (steps in chunk, 2d, count): per step the state noise
    rows, then the observation noise rows. One (L, 2, count, d) draw gives
    the numbers, in order, of 2L successive (count, d) draws."""
    for seq, (_, count) in zip(seqs, blocks):
        rng = np.random.Generator(np.random.Philox(seq))
        for j in range(0, steps, _CHUNK):
            draws = rng.standard_normal((min(_CHUNK, steps - j), 2, count, d))
            yield np.ascontiguousarray(draws.transpose(0, 1, 3, 2)).reshape(-1, 2 * d, count)


@contextmanager
def _ahead(items: Iterator, helper: bool):
    """``items`` as an iterator; with ``helper``, one thread makes the
    next item while the caller works on the current one. The thread is
    joined on exit, also when the caller raises."""
    if not helper:
        yield items
        return
    from concurrent.futures import ThreadPoolExecutor  # on first use: its import is not free

    with ThreadPoolExecutor(max_workers=1) as pool:
        def prefetched():
            pending = pool.submit(next, items, None)
            while (item := pending.result()) is not None:
                pending = pool.submit(next, items, None)
                yield item
        yield prefetched()


def _simulate_block(scenario: Scenario, maps, count: int, keep: int,
                    chunks: Iterator[np.ndarray]):
    """``count`` replications driven by the next draws of ``chunks``:
    their moments, and the states (N+1, atom, 2n + m, keep) of the first
    ``keep``. Overflow is not warned of (the caller's errstate) but seen
    in the values: a state that is not finite raises at its step."""
    grid = scenario.grid
    n, m = scenario.n, scenario.m
    own, field, noise = maps
    # atom means as exact products summed in atom order: a relabelling
    # of the atoms changes no bit
    weights = scenario.measure.weights[:, None, None]

    start = scenario.measure.points[:, :, None]
    s = np.empty((scenario.n_atoms, 2 * n + m, count))
    s[:, :n] = start
    s[:, n:2 * n] = start
    s[:, 2 * n:] = start if m == n else 0.0
    nxt, shocks = np.empty_like(s), np.empty_like(s)
    moments = _Moments.zeros(scenario.n_atoms, grid.n_nodes, n, count)
    kept = np.empty((grid.n_nodes,) + s.shape[:2] + (keep,))
    kept[0] = s[..., :keep]

    for first in range(0, grid.n_steps, _CHUNK):
        for j, xi in enumerate(next(chunks), start=first):
            bars = (weights * s[:, :2 * n]).sum(axis=0)
            np.matmul(own[j], s, out=nxt)
            nxt += field[j] @ bars
            nxt += np.matmul(noise[j], xi, out=shocks)
            s, nxt = nxt, s
            if not np.all(np.isfinite(s[:, :2 * n])):
                raise SimulationError(
                    f"simulation blew up at node {j + 1} (t = {grid.nodes[j + 1]:g})"
                )
            moments.record(j + 1, s[:, :n] - s[:, n:2 * n])
            kept[j + 1] = s[..., :keep]
    return moments, kept


def simulate_ensemble(scenario: Scenario, gain: GainSchedule, n_paths: int,
                      seed: int) -> PathEnsemble:
    """Euler-Maruyama ensemble of the full flow under the given gain.

    The drift is evaluated at the left node; the filter increment uses
    the gain times the observation increment of the same step. The
    interaction means are recomputed every step from the current atom
    values. Every replication enters the streamed error moments; only the
    first min(n_paths, KEPT_PATHS) keep their trajectories. Memory is
    the step maps (N (2n + m)(2n + m + 2kd) floats), the kept
    trajectories, one 4096-path block with up to three chunks of its
    normal draws, and a few sets of moments of at most 4 k N n^2 floats
    each, whatever ``n_paths``. Identical seeds give bitwise identical
    ensembles, whatever ``MFK_THREADS`` is. A negative seed, a state that
    is not finite, or error moments that are not finite (a state too large
    to square) raise :class:`SimulationError` naming the node, and no
    overflow escapes as a warning.
    """
    if n_paths < 1:
        raise SimulationError(f"n_paths must be >= 1, got {n_paths}")
    if seed < 0:
        raise SimulationError(f"seed must be >= 0, got {seed}")
    maps = _step_maps(scenario, gain)

    blocks = [(b, min(_BLOCK, n_paths - b)) for b in range(0, n_paths, _BLOCK)]
    seqs = np.random.SeedSequence(seed).spawn(len(blocks))
    draws = _draw_chunks(seqs, blocks, scenario.grid.n_steps, scenario.d)
    total, kept = None, []
    quiet = np.errstate(over="ignore", invalid="ignore")  # overflow is checked below
    with _ahead(draws, worker_count() > 1) as chunks, quiet:
        for start, count in blocks:
            keep = min(max(KEPT_PATHS - start, 0), count)
            moments, states = _simulate_block(scenario, maps, count, keep, chunks)
            total = moments if total is None else total + moments
            kept.append(states)
    bad = np.zeros(scenario.grid.n_nodes, dtype=bool)
    for arr in (total.mean, total.sum2, total.sum4):
        bad |= ~np.isfinite(arr.reshape(arr.shape[:2] + (-1,))).all(axis=(0, 2))
    if bad.any():
        j = int(np.argmax(bad))
        raise SimulationError(f"error moments are not finite at node {j} "
                              f"(t = {scenario.grid.nodes[j]:g})")
    kept = np.concatenate(kept, axis=3)

    n = scenario.n
    # (node, atom, row, replication) -> (replication, atom, node, row)
    x, z, y = (np.ascontiguousarray(kept[:, :, rows].transpose(3, 1, 0, 2))
               for rows in (slice(0, n), slice(n, 2 * n), slice(2 * n, None)))
    arrays = dict(x=x, y=y, z=z, e=x - z, mean=total.mean, sum2=total.sum2,
                  sum4=total.sum4)
    for arr in arrays.values():
        arr.setflags(write=False)
    return PathEnsemble(grid=scenario.grid, seed=int(seed), n_paths=int(n_paths), **arrays)


def empirical_statistics(ensemble: PathEnsemble) -> EmpiricalStats:
    """Sample mean and covariance of the error across replications, at
    every (atom, node).

    The variance standard error uses the fourth-moment estimator
    sqrt((m4 - m2^2 (P-3)/(P-1)) / P) per component.
    """
    P = ensemble.n_paths
    if P < 2:
        raise SimulationError("statistics need at least 2 replications")
    cov = ensemble.sum2 / (P - 1)
    var = np.diagonal(cov, axis1=-2, axis2=-1)
    m4 = ensemble.sum4 / P
    var_se = np.sqrt(np.maximum(m4 - var**2 * (P - 3) / (P - 1), 0.0) / P)
    mean_se = np.sqrt(np.maximum(var, 0.0) / P)
    return EmpiricalStats(mean=ensemble.mean, cov=cov, mean_se=mean_se, var_se=var_se)
