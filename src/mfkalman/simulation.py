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
per replication, and an atom's value does not depend on its label. The
filter reads y only through its increments, which the step map already
carries, so a block of replications is held as an (atom, row,
replication) array of the rows [x, z] alone, and a step is a few small
matrix products; the rows y are stepped only for the replications whose
trajectories are kept.

Replications are generated in fixed-size blocks, each with its own
random stream (an SFC64 generator seeded by a spawned seed sequence, so
the blocks' streams are independent). The blocks run in block order on
the calling thread. Each block reduces the error e = x - z to moments at
every node, or at the nodes the caller asks for, as it goes and folds
into the running moments as soon as it is done. A block's normal draws
come in chunks of ``_CHUNK`` steps, one call on its stream per chunk, drawn
in place into a ring of ``_RING`` buffers; with two threads
(:func:`worker_count`) a single helper thread draws the next chunk while
the calling thread steps the current one, and with one the calling
thread draws them itself. Either way the draws are the same numbers in
the same order, so results are reproducible bit-for-bit. Every array the
stepping writes is allocated per block, on the calling thread, before
the block's first step. Only the first ``KEPT_PATHS`` replications keep
their trajectories, so memory does not grow with paths times steps.
"""

from __future__ import annotations

import itertools
import math
import os
from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np

from .kernels import GainSchedule, _closed_loop_drifts
from .numerics import TimeGrid, _integer, _ReadOnly, _Record
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
_RING = 2  # draw buffers: the chunk being stepped and the next one being
           # drawn; the caller is done with a chunk before it asks for the
           # next, and only then is the one after drawn into its buffer
KEPT_PATHS = 10  # leading replications whose trajectories an ensemble keeps
_BITGEN = "SFC64"  # numpy.random's bit generator of every block's stream, by
                  # name: numpy.random (and hashlib) load on first use


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


class PathEnsemble(_ReadOnly):
    """Monte Carlo replications of the state, observation, filter and error.

    ``x``, ``y``, ``z`` and ``e`` hold the trajectories of the first
    min(n_paths, KEPT_PATHS) replications, layout (replication, atom,
    node, component); the error paths satisfy e = x - z identically and
    start at zero. All atoms within a replication share the same driving
    noise increments.

    The error statistics over all ``n_paths`` replications are kept per
    atom at the grid nodes ``nodes`` (R,), increasing (every node unless
    the caller asked for fewer); position r on their node axis is node
    ``nodes[r]``: ``mean`` (k, R, n), the centered sums of products
    ``sum2`` (k, R, n, n) and the centered sums of fourth powers of each
    component ``sum4`` (k, R, n). None of these grows with ``n_paths``.
    """

    grid: TimeGrid
    seed: int
    n_paths: int
    nodes: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    e: np.ndarray
    mean: np.ndarray
    sum2: np.ndarray
    sum4: np.ndarray

    def __init__(self, grid: TimeGrid, seed: int, n_paths: int, nodes: np.ndarray,
                 x: np.ndarray, y: np.ndarray, z: np.ndarray, e: np.ndarray,
                 mean: np.ndarray, sum2: np.ndarray, sum4: np.ndarray):
        self.__dict__.update(grid=grid, seed=seed, n_paths=n_paths, nodes=nodes, x=x, y=y,
                             z=z, e=e, mean=mean, sum2=sum2, sum4=sum4)


class EmpiricalStats(_ReadOnly):
    """Cross-replication statistics of the error per atom at the nodes of
    its ensemble: position r on the node axis is node ``ensemble.nodes[r]``."""

    mean: np.ndarray      # (k, R, n)
    cov: np.ndarray       # (k, R, n, n)
    mean_se: np.ndarray   # (k, R, n)
    var_se: np.ndarray    # (k, R, n) fourth-moment standard error of the variance

    def __init__(self, mean: np.ndarray, cov: np.ndarray, mean_se: np.ndarray,
                 var_se: np.ndarray):
        self.__dict__.update(mean=mean, cov=cov, mean_se=mean_se, var_se=var_se)


def _step_maps(scenario: Scenario, gain: GainSchedule):
    """The Euler step of one atom's state u = [x_u, z_u] as
    u' = own_j u + field_j [x_bar, z_bar] + noise_j[u] xi_j, with the bars
    the weighted atom means and xi_j = [xi_W, xi_V] standard normal, and of
    its observation as y' = own_y_j [x_u, z_u, y] + field_y_j [x_bar, z_bar]
    + noise_y_j[u] xi_j.

    Returns the state maps own (N, 2n, 2n), shared by all atoms, field
    (N, 2n, 2n) and noise (N, k, 2n, 2d), then the observation maps own_y
    (N, m, 2n + m), field_y (N, m, 2n) and noise_y (N, k, m, 2d): the rows
    of the step map of the stacked state [x, z, y], kept in blocks so that
    a step costs O(k) per replication and the observation is stepped only
    where it is kept."""
    H, M = _closed_loop_drifts(scenario, gain)
    n, m, d = scenario.n, scenario.m, scenario.d
    steps, dt = scenario.grid.n_steps, scenario.grid.dt
    G = gain.values[:steps]
    xs, zs = slice(0, n), slice(n, 2 * n)

    own = np.zeros((steps, 2 * n, 2 * n))
    own[:, xs, xs] = np.eye(n) + dt * scenario.A[:steps]
    own_y = np.zeros((steps, m, 2 * n + m))
    own_y[:, :, xs] = dt * scenario.C[:steps]
    own_y[:, :, 2 * n:] = np.eye(m)
    own[:, zs, xs] = G @ own_y[:, :, xs]
    own[:, zs, zs] = np.eye(n) + dt * H[:steps]

    field = np.zeros((steps, 2 * n, 2 * n))
    field[:, xs, xs] = dt * scenario.B[:steps]
    field_y = np.zeros((steps, m, 2 * n))
    field_y[:, :, xs] = dt * scenario.D[:steps]
    field[:, zs, xs] = G @ field_y[:, :, xs]
    field[:, zs, zs] = dt * M[:steps]

    def loading(per_atom, Q):   # (k, N+1, p, d) -> (N, k, p, d), scaled to one step
        return (per_atom[:, :steps] @ np.linalg.cholesky(Q) * np.sqrt(dt)).transpose(1, 0, 2, 3)

    noise = np.zeros((steps, scenario.n_atoms, 2 * n, 2 * d))
    noise[:, :, xs, :d] = loading(scenario.sigma, scenario.Q)
    noise_y = np.zeros((steps, scenario.n_atoms, m, 2 * d))
    noise_y[..., d:] = loading(scenario.gamma, scenario.Q0)
    noise[:, :, zs, d:] = G[:, None] @ noise_y[..., d:]
    return (own, field, noise), (own_y, field_y, noise_y)


def _head(buf: np.ndarray, *shape: int) -> np.ndarray:
    """The leading prod(shape) elements of the flat ``buf`` as a contiguous
    array of that shape."""
    return buf[:math.prod(shape)].reshape(shape)


class _Moments(_Record):
    """Error moments of ``count`` replications at R recorded nodes, layout
    (atom, position, ...): mean, centered sum of products, and the
    centered third and fourth power sums of each component. A position
    that is never recorded (node 0, where e = 0) stays zero."""

    count: int
    mean: np.ndarray   # (k, R, n)
    sum2: np.ndarray   # (k, R, n, n)
    sum3: np.ndarray   # (k, R, n)
    sum4: np.ndarray   # (k, R, n)

    def __init__(self, count: int, mean: np.ndarray, sum2: np.ndarray, sum3: np.ndarray,
                 sum4: np.ndarray):
        self.count = count
        self.mean = mean
        self.sum2 = sum2
        self.sum3 = sum3
        self.sum4 = sum4

    @classmethod
    def zeros(cls, k: int, n_nodes: int, n: int, count: int) -> _Moments:
        return cls(count, np.zeros((k, n_nodes, n)), np.zeros((k, n_nodes, n, n)),
                   np.zeros((k, n_nodes, n)), np.zeros((k, n_nodes, n)))

    def record(self, r: int, x: np.ndarray, z: np.ndarray, c: np.ndarray,
               sq: np.ndarray) -> None:
        """Moments at position ``r`` of the error e = x - z of the columns
        of ``x`` and ``z`` (k, n, count), computed in the caller's arrays
        ``c`` (e centered) and ``sq`` (c squared) of that shape. The mean
        is ``np.mean``'s sum and division, bit for bit."""
        np.subtract(x, z, out=c)
        mean = self.mean[:, r]
        np.add.reduce(c, axis=2, out=mean)
        mean /= self.count
        c -= mean[..., None]
        np.multiply(c, c, out=sq)
        np.matmul(c, c.transpose(0, 2, 1), out=self.sum2[:, r])
        np.einsum("uip,uip->ui", sq, c, out=self.sum3[:, r])
        np.einsum("uip,uip->ui", sq, sq, out=self.sum4[:, r])

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


def _draw_chunks(seqs, blocks, steps: int, d: int,
                 ring: list[np.ndarray]) -> Iterator[np.ndarray]:
    """Standard normals of every block in block order, ``_CHUNK`` steps at
    a time, each as (steps in chunk, 2d, count), the layout the stepping
    reads: per step the state noise rows, then the observation noise
    rows. A chunk of L steps holds the numbers, in order, of 2L successive
    (d, count) draws.

    The chunks are drawn in place into the flat buffers of ``ring`` in
    turn, so a chunk stays valid until ``len(ring) - 1`` more are drawn.
    Nothing is allocated here, so a helper thread that runs this
    allocates nothing."""
    slots = itertools.cycle(ring)
    for seq, (_, count) in zip(seqs, blocks):
        rng = np.random.Generator(getattr(np.random, _BITGEN)(seq))
        for j in range(0, steps, _CHUNK):
            chunk = _head(next(slots), min(_CHUNK, steps - j), 2 * d, count)
            rng.standard_normal(out=chunk)
            yield chunk


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


def _simulate_block(scenario: Scenario, maps, count: int, chunks: Iterator[np.ndarray],
                    kept: np.ndarray, nodes: np.ndarray) -> _Moments:
    """``count`` replications driven by the next draws of ``chunks``: their
    moments at ``nodes``. The states (N+1, atom, 2n + m, keep) of the
    first ``keep = kept.shape[3]`` go to ``kept``, at every node. Every
    array the stepping writes is allocated here, at the block's size,
    before the first step: the state pair, the noise term and its
    finiteness mask (k, 2n, count), the atom means and their field term
    (2n, count), the centered error and its square (k, n, count), and the
    kept replications' observation step, noise term (k, m, keep) and field
    term (m, keep). Overflow is not warned of (the caller's errstate) but
    seen in the values: a state that is not finite raises at its step,
    whether or not its node is in ``nodes``."""
    grid = scenario.grid
    k, n, m = scenario.n_atoms, scenario.n, scenario.m
    keep = kept.shape[3]
    (own, field, noise), (own_y, field_y, noise_y) = maps
    # atom means as exact products summed in atom order: a relabelling
    # of the atoms changes no bit
    weights = scenario.measure.weights[:, None, None]

    s, nxt, shocks = (np.empty((k, 2 * n, count)) for _ in range(3))
    finite = np.empty((k, 2 * n, count), dtype=bool)
    bars, fterm = np.empty((2 * n, count)), np.empty((2 * n, count))
    c, sq = np.empty((k, n, count)), np.empty((k, n, count))
    y, y_noise = np.empty((k, m, keep)), np.empty((k, m, keep))
    y_field = np.empty((m, keep))
    start = scenario.measure.points[:, :, None]
    s[:, :n] = start
    s[:, n:] = start
    kept[0, :, :2 * n] = s[..., :keep]
    kept[0, :, 2 * n:] = start if m == n else 0.0
    moments = _Moments.zeros(k, len(nodes), n, count)
    slot = dict(zip(nodes.tolist(), range(len(nodes))))   # node -> position

    for first in range(0, grid.n_steps, _CHUNK):
        for j, xi in enumerate(next(chunks), start=first):
            np.multiply(weights, s, out=nxt)
            np.add.reduce(nxt, axis=0, out=bars)
            if keep:   # the observation, from the state at node j
                np.matmul(own_y[j], kept[j], out=y)
                y += np.matmul(field_y[j], bars[:, :keep], out=y_field)
                y += np.matmul(noise_y[j], xi[:, :keep], out=y_noise)
            np.matmul(own[j], s, out=nxt)
            nxt += np.matmul(field[j], bars, out=fterm)
            nxt += np.matmul(noise[j], xi, out=shocks)
            s, nxt = nxt, s
            if not np.isfinite(s, out=finite).all():
                raise SimulationError(
                    f"simulation blew up at node {j + 1} (t = {grid.nodes[j + 1]:g})"
                )
            if (r := slot.get(j + 1)) is not None:
                moments.record(r, s[:, :n], s[:, n:], c, sq)
            if keep:
                kept[j + 1, :, :2 * n] = s[..., :keep]
                kept[j + 1, :, 2 * n:] = y
    return moments


def _requested_nodes(nodes, grid: TimeGrid) -> np.ndarray:
    """``nodes`` as a read-only integer array: every node of ``grid`` for
    None, else a non-empty, strictly increasing sequence of integer node
    indices in [0, N]; anything else raises :class:`SimulationError`."""
    if nodes is None:
        picked = list(range(grid.n_nodes))
    else:
        try:
            picked = list(nodes)
        except TypeError:
            raise SimulationError(f"nodes must be a sequence of node indices, "
                                  f"got {nodes!r}") from None
        if not picked:
            raise SimulationError("nodes must name at least one node")
        picked = [_integer(v, SimulationError, f"nodes must be integer node indices in "
                                               f"[0, {grid.n_steps}], got {v!r}", 0, grid.n_nodes)
                  for v in picked]
        if any(b <= a for a, b in zip(picked, picked[1:])):
            raise SimulationError(f"nodes must be strictly increasing, got {picked}")
    out = np.array(picked, dtype=np.intp)
    out.setflags(write=False)
    return out


def simulate_ensemble(scenario: Scenario, gain: GainSchedule, n_paths: int,
                      seed: int, nodes=None) -> PathEnsemble:
    """Euler-Maruyama ensemble of the full flow under the given gain.

    The drift is evaluated at the left node; the filter increment uses
    the gain times the observation increment of the same step. The
    interaction means are recomputed every step from the current atom
    values. Every replication enters the streamed error moments, at every
    node for ``nodes=None`` and otherwise at the strictly increasing node
    indices ``nodes`` alone (:attr:`PathEnsemble.nodes`); only the first
    min(n_paths, KEPT_PATHS) keep their trajectories, at every node, and
    only those step their observation. Memory is the step maps (at most
    N (2n + m)(4n + 2kd) floats), the kept trajectories, a few sets of
    moments of at most 4 k R n^2 floats each for R nodes, two draw
    buffers of ``_CHUNK`` steps of normals for one block of up to 4096
    paths, allocated on the calling thread before any step, and one
    block's state [x, z] and scratch arrays, allocated on the calling
    thread before the block's first step. Nothing is allocated per chunk
    or per step, whatever ``n_paths``. Identical
    seeds give bitwise identical ensembles, whatever ``MFK_THREADS`` is,
    and the moments at a node do not depend on which other nodes are
    asked for. An ``n_paths`` or ``seed`` that is not an integer (a bool
    included), a negative seed or ``nodes`` that are not as above raise
    :class:`SimulationError` naming the argument before any work; a
    state that is not finite, at any node, or error moments that are
    not finite at a requested node (a state too large to square) raise
    it naming the node, and no overflow escapes as a warning.
    """
    for name, value in (("n_paths", n_paths), ("seed", seed)):
        _integer(value, SimulationError, f"{name} must be an integer, got {value!r}")
    if n_paths < 1:
        raise SimulationError(f"n_paths must be >= 1, got {n_paths}")
    if seed < 0:
        raise SimulationError(f"seed must be >= 0, got {seed}")
    nodes = _requested_nodes(nodes, scenario.grid)
    maps = _step_maps(scenario, gain)
    grid, k, n, m, d = scenario.grid, scenario.n_atoms, scenario.n, scenario.m, scenario.d

    blocks = [(b, min(_BLOCK, n_paths - b)) for b in range(0, n_paths, _BLOCK)]
    seqs = np.random.SeedSequence(seed).spawn(len(blocks))
    ring = [np.empty(_CHUNK * 2 * d * blocks[0][1]) for _ in range(_RING)]
    kept = np.empty((grid.n_nodes, k, 2 * n + m, min(n_paths, KEPT_PATHS)))
    draws = _draw_chunks(seqs, blocks, grid.n_steps, d, ring)
    total = None
    quiet = np.errstate(over="ignore", invalid="ignore")  # overflow is checked below
    with _ahead(draws, worker_count() > 1) as chunks, quiet:
        for start, count in blocks:
            moments = _simulate_block(scenario, maps, count, chunks,
                                      kept[..., start:start + count], nodes)
            total = moments if total is None else total + moments
    bad = np.zeros(len(nodes), dtype=bool)
    for arr in (total.mean, total.sum2, total.sum4):
        bad |= ~np.isfinite(arr.reshape(arr.shape[:2] + (-1,))).all(axis=(0, 2))
    if bad.any():
        j = int(nodes[np.argmax(bad)])
        raise SimulationError(f"error moments are not finite at node {j} "
                              f"(t = {grid.nodes[j]:g})")

    # (node, atom, row, replication) -> (replication, atom, node, row)
    x, z, y = (np.ascontiguousarray(kept[:, :, rows].transpose(3, 1, 0, 2))
               for rows in (slice(0, n), slice(n, 2 * n), slice(2 * n, None)))
    arrays = dict(x=x, y=y, z=z, e=x - z, mean=total.mean, sum2=total.sum2,
                  sum4=total.sum4)
    for arr in arrays.values():
        arr.setflags(write=False)
    return PathEnsemble(grid=grid, seed=int(seed), n_paths=int(n_paths), nodes=nodes,
                        **arrays)


def empirical_statistics(ensemble: PathEnsemble) -> EmpiricalStats:
    """Sample mean and covariance of the error across replications, per
    atom at the ensemble's nodes.

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
