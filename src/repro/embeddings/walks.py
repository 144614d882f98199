"""Random-walk corpora for DeepWalk and node2vec.

DeepWalk samples truncated uniform random walks; node2vec generalises them
to second-order walks biased by a return parameter ``p`` and an in-out
parameter ``q`` (Grover & Leskovec 2016).  With the paper's defaults
``p = q = 1`` the second-order walk degenerates to the uniform walk, which
the implementation exploits as a fast path.

Walks operate on the integer node indices of :class:`~repro.core.graph.HeteroGraph`
and ignore labels entirely — the embeddings are the paper's label-blind
baselines.

Engines
-------
Both walk functions ship two implementations behind one dispatcher,
mirroring :func:`repro.core.census.subgraph_census`:

* ``engine="reference"`` advances one node and one step at a time in plain
  Python — the straightforward transcription of the algorithms, kept as the
  behavioural oracle;
* ``engine="fast"`` (default) snapshots the adjacency into CSR arrays and
  advances *all* walks of an epoch simultaneously per step with vectorised
  numpy indexing.  node2vec's ``p``/``q`` bias is applied by rejection
  sampling on the whole batch, falling back to the exact per-node weighted
  draw only for rows still rejected after a few rounds.

Corpus layout and seeding
-------------------------
A corpus is a single ``(num_walks * len(starts), walk_length)`` int64
matrix; walks that stop early (isolated start nodes) are padded with ``-1``.
Each of the ``num_walks`` epochs draws from its own child generator spawned
from the caller's seed, so the corpus is bit-identical for any ``n_jobs``
worker count — epochs are the sharding unit of the optional multiprocess
generation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.core.graph import HeteroGraph
from repro.obs.telemetry import get_telemetry
from repro.runtime.context import RunContext, resolve_engine
from repro.runtime.executor import parallel_map
from repro.runtime.store import STAGE_WALKS

WalkEngine = Literal["fast", "reference"]

#: Valid walk engine names (checked through the shared runtime validator).
ENGINES = ("fast", "reference")

#: Vectorised rejection rounds before the exact per-node fallback kicks in.
_REJECTION_ROUNDS = 8


@dataclass(frozen=True)
class _WalkCSR:
    """Numpy CSR snapshot of a graph for the batched walk engine.

    Neighbour lists are re-sorted by index (the graph stores them sorted by
    label) so ``keys`` — ``row * num_nodes + neighbour`` — is globally
    ascending and a single ``searchsorted`` answers batched "is ``c`` a
    neighbour of ``v``?" membership queries.
    """

    indptr: np.ndarray
    neighbors: np.ndarray
    degrees: np.ndarray
    keys: np.ndarray
    num_nodes: int

    @classmethod
    def from_graph(cls, graph: HeteroGraph) -> "_WalkCSR":
        flat = graph.flat()
        num_nodes = graph.num_nodes
        indptr = np.asarray(flat.indptr, dtype=np.int64)
        raw = np.asarray(flat.neighbors, dtype=np.int64)
        degrees = np.asarray(flat.degrees, dtype=np.int64)
        rows = np.repeat(np.arange(num_nodes, dtype=np.int64), degrees)
        order = np.lexsort((raw, rows)) if raw.size else np.empty(0, dtype=np.int64)
        neighbors = raw[order]
        keys = rows * num_nodes + neighbors
        return cls(indptr, neighbors, degrees, keys, num_nodes)

    def is_edge(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vectorised adjacency test for aligned index arrays ``u``, ``v``."""
        query = u * self.num_nodes + v
        pos = np.searchsorted(self.keys, query)
        pos = np.minimum(pos, self.keys.size - 1)
        return self.keys[pos] == query


def _epoch_rngs(rng, num_walks: int) -> list[np.random.Generator]:
    """One independent child generator per walk epoch.

    Children derive deterministically from the caller's seed (or from the
    generator's spawn key), so shard -> worker assignment can never change
    the corpus: epoch ``e`` always consumes stream ``e``.
    """
    if isinstance(rng, np.random.Generator):
        try:
            return list(rng.spawn(num_walks))
        except AttributeError:  # numpy < 1.25
            seeds = rng.integers(np.iinfo(np.int64).max, size=num_walks)
            return [np.random.default_rng(int(s)) for s in seeds]
    seq = np.random.SeedSequence(rng)
    return [np.random.default_rng(child) for child in seq.spawn(num_walks)]


# ----------------------------------------------------------------------
# Per-epoch walkers
# ----------------------------------------------------------------------
def _uniform_epoch_reference(
    graph: HeteroGraph, order: np.ndarray, walk_length: int, rng: np.random.Generator
) -> np.ndarray:
    walks = np.full((order.shape[0], walk_length), -1, dtype=np.int64)
    for row, start in enumerate(order):
        current = int(start)
        walks[row, 0] = current
        for step in range(1, walk_length):
            neighbours = graph.neighbors(current)
            if len(neighbours) == 0:
                break
            current = int(neighbours[rng.integers(0, len(neighbours))])
            walks[row, step] = current
    return walks


def _node2vec_epoch_reference(
    graph: HeteroGraph,
    order: np.ndarray,
    walk_length: int,
    p: float,
    q: float,
    rng: np.random.Generator,
) -> np.ndarray:
    neighbour_sets = [
        set(int(x) for x in graph.neighbors(v)) for v in range(graph.num_nodes)
    ]
    walks = np.full((order.shape[0], walk_length), -1, dtype=np.int64)
    for row, start in enumerate(order):
        current = int(start)
        walks[row, 0] = current
        previous = -1
        for step in range(1, walk_length):
            neighbours = graph.neighbors(current)
            if len(neighbours) == 0:
                break
            if previous == -1:
                nxt = int(neighbours[rng.integers(0, len(neighbours))])
            else:
                weights = np.empty(len(neighbours))
                prev_neighbours = neighbour_sets[previous]
                for i, candidate in enumerate(neighbours):
                    candidate = int(candidate)
                    if candidate == previous:
                        weights[i] = 1.0 / p
                    elif candidate in prev_neighbours:
                        weights[i] = 1.0
                    else:
                        weights[i] = 1.0 / q
                weights /= weights.sum()
                nxt = int(neighbours[rng.choice(len(neighbours), p=weights)])
            walks[row, step] = nxt
            previous, current = current, nxt
    return walks


def _uniform_epoch_fast(
    csr: _WalkCSR, order: np.ndarray, walk_length: int, rng: np.random.Generator
) -> np.ndarray:
    walks = np.full((order.shape[0], walk_length), -1, dtype=np.int64)
    walks[:, 0] = order
    # Only start nodes can be isolated: any node *reached* over an edge has
    # degree >= 1 in an undirected graph, so the active set is fixed after
    # this one mask — dead walks are masked out, never loop-broken.
    active = np.flatnonzero(csr.degrees[order] > 0)
    current = order[active]
    for step in range(1, walk_length):
        if current.size == 0:
            break
        draws = rng.integers(0, csr.degrees[current])
        current = csr.neighbors[csr.indptr[current] + draws]
        walks[active, step] = current
    return walks


def _exact_biased_step(
    csr: _WalkCSR,
    current: int,
    previous: int,
    inv_p: float,
    inv_q: float,
    rng: np.random.Generator,
) -> int:
    """The exact second-order draw for one walk (rejection-loop fallback)."""
    row = csr.neighbors[csr.indptr[current]: csr.indptr[current] + csr.degrees[current]]
    prow = csr.neighbors[
        csr.indptr[previous]: csr.indptr[previous] + csr.degrees[previous]
    ]
    pos = np.minimum(np.searchsorted(prow, row), prow.size - 1)
    adjacent = prow[pos] == row if prow.size else np.zeros(row.size, dtype=bool)
    weights = np.where(row == previous, inv_p, np.where(adjacent, 1.0, inv_q))
    weights /= weights.sum()
    return int(row[rng.choice(row.size, p=weights)])


def _node2vec_epoch_fast(
    csr: _WalkCSR,
    order: np.ndarray,
    walk_length: int,
    p: float,
    q: float,
    rng: np.random.Generator,
) -> np.ndarray:
    walks = np.full((order.shape[0], walk_length), -1, dtype=np.int64)
    walks[:, 0] = order
    if walk_length == 1:
        return walks
    active = np.flatnonzero(csr.degrees[order] > 0)
    if active.size == 0:
        return walks
    # First step has no predecessor: plain uniform draw.
    previous = order[active]
    draws = rng.integers(0, csr.degrees[previous])
    current = csr.neighbors[csr.indptr[previous] + draws]
    walks[active, 1] = current

    inv_p, inv_q = 1.0 / p, 1.0 / q
    wmax = max(inv_p, 1.0, inv_q)
    for step in range(2, walk_length):
        nxt = np.empty(current.size, dtype=np.int64)
        pending = np.arange(current.size)
        for _ in range(_REJECTION_ROUNDS):
            cur = current[pending]
            cand = csr.neighbors[csr.indptr[cur] + rng.integers(0, csr.degrees[cur])]
            prev = previous[pending]
            weights = np.where(
                cand == prev,
                inv_p,
                np.where(csr.is_edge(prev, cand), 1.0, inv_q),
            )
            accepted = rng.random(pending.size) * wmax <= weights
            nxt[pending[accepted]] = cand[accepted]
            pending = pending[~accepted]
            if pending.size == 0:
                break
        for t in pending:
            nxt[t] = _exact_biased_step(
                csr, int(current[t]), int(previous[t]), inv_p, inv_q, rng
            )
        walks[active, step] = nxt
        previous, current = current, nxt
    return walks


def _walk_epoch(
    graph: HeteroGraph,
    csr: _WalkCSR | None,
    starts: np.ndarray,
    walk_length: int,
    p: float,
    q: float,
    engine: WalkEngine,
    rng: np.random.Generator,
) -> np.ndarray:
    order = rng.permutation(starts)
    if engine == "reference":
        if p == 1.0 and q == 1.0:
            return _uniform_epoch_reference(graph, order, walk_length, rng)
        return _node2vec_epoch_reference(graph, order, walk_length, p, q, rng)
    if p == 1.0 and q == 1.0:
        return _uniform_epoch_fast(csr, order, walk_length, rng)
    return _node2vec_epoch_fast(csr, order, walk_length, p, q, rng)


# ----------------------------------------------------------------------
# Multiprocess epoch sharding
# ----------------------------------------------------------------------
# The graph ships once per worker and each worker builds its own CSR
# snapshot; each task then only ships one child generator.
def _walk_state(graph, starts, walk_length, p, q, engine) -> tuple:
    csr = _WalkCSR.from_graph(graph) if engine == "fast" else None
    return graph, csr, starts, walk_length, p, q, engine


def _walk_epoch_task(state, rng: np.random.Generator) -> np.ndarray:
    """One epoch of walks (a :func:`parallel_map` task)."""
    graph, csr, starts, walk_length, p, q, engine = state
    telemetry = get_telemetry()
    with telemetry.span("walks/epoch"):
        block = _walk_epoch(graph, csr, starts, walk_length, p, q, engine, rng)
    telemetry.count("walks/generated", block.shape[0])
    return block


def _run_walks(
    graph: HeteroGraph,
    starts: np.ndarray,
    walk_length: int,
    p: float,
    q: float,
    engine: WalkEngine,
    rngs: list[np.random.Generator],
    n_jobs: int,
) -> np.ndarray:
    resolve_engine(engine, ENGINES, param="walk engine")
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    if starts.shape[0] == 0:
        return np.empty((0, walk_length), dtype=np.int64)
    return np.concatenate(
        parallel_map(
            _walk_epoch_task,
            rngs,
            n_jobs=n_jobs,
            setup=_walk_state,
            setup_args=(graph, starts, walk_length, p, q, engine),
        )
    )


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def _corpus_key(
    kind: str, num_walks, walk_length, p, q, rng, nodes, engine
) -> tuple | None:
    """The walk-stage cache config, or ``None`` when the corpus is uncacheable.

    Only integer-seeded corpora are content-addressable: a ``Generator``
    carries hidden stream state and ``None`` draws fresh OS entropy, so
    neither can be frozen into a key.  ``n_jobs`` is deliberately absent —
    epoch sharding is bit-identical for every worker count.
    """
    if not isinstance(rng, (int, np.integer)) or isinstance(rng, bool):
        return None
    node_key = (
        None
        if nodes is None
        else tuple(int(n) for n in np.asarray(nodes, dtype=np.int64).ravel())
    )
    return (
        kind,
        int(num_walks),
        int(walk_length),
        float(p),
        float(q),
        int(rng),
        engine,
        node_key,
    )


def uniform_random_walks(
    graph: HeteroGraph,
    num_walks: int = 10,
    walk_length: int = 80,
    rng: np.random.Generator | int | None = None,
    nodes=None,
    engine: WalkEngine | None = None,
    n_jobs: int | None = None,
    *,
    ctx: RunContext | None = None,
) -> np.ndarray:
    """Truncated uniform random walks, ``num_walks`` per start node.

    Returns a ``(num_walks * len(starts), walk_length)`` int64 matrix —
    epoch-major, each epoch's rows in a freshly permuted start order.
    Walks from isolated nodes are padded with ``-1`` after the start.

    ``engine`` selects the batched implementation (``"fast"``, default) or
    the per-node oracle (``"reference"``); ``n_jobs`` shards epochs over
    worker processes without changing the result for any worker count.
    ``ctx`` supplies engine/n_jobs defaults and, when it carries an
    artifact store and ``rng`` is an integer seed, caches the corpus
    under the ``"walks"`` stage so warm reruns skip the generation.
    """
    if num_walks < 1 or walk_length < 1:
        raise ValueError("num_walks and walk_length must be >= 1")
    if n_jobs is not None and n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    ctx = RunContext.ensure(ctx, engine=engine, n_jobs=n_jobs)
    engine = ctx.resolve_engine(ENGINES, default="fast", param="walk engine")
    n_jobs = ctx.resolved_n_jobs(default=1)
    store = ctx.store
    config = None
    if store is not None:
        config = _corpus_key(
            "uniform", num_walks, walk_length, 1.0, 1.0, rng, nodes, engine
        )
        if config is not None:
            cached = store.get(graph.fingerprint(), STAGE_WALKS, config)
            if cached is not None:
                return cached
    starts = (
        np.arange(graph.num_nodes, dtype=np.int64)
        if nodes is None
        else np.asarray(nodes, dtype=np.int64)
    )
    rngs = _epoch_rngs(rng, num_walks)
    corpus = _run_walks(graph, starts, walk_length, 1.0, 1.0, engine, rngs, n_jobs)
    if config is not None:
        store.put(graph.fingerprint(), STAGE_WALKS, config, corpus)
    return corpus


def node2vec_walks(
    graph: HeteroGraph,
    num_walks: int = 10,
    walk_length: int = 80,
    p: float = 1.0,
    q: float = 1.0,
    rng: np.random.Generator | int | None = None,
    nodes=None,
    engine: WalkEngine | None = None,
    n_jobs: int | None = None,
    *,
    ctx: RunContext | None = None,
) -> np.ndarray:
    """Second-order biased walks with return parameter ``p`` and in-out ``q``.

    Transition weights from ``prev -> current -> next``:

    * ``1/p`` when ``next == prev`` (return),
    * ``1``  when ``next`` is adjacent to ``prev`` (stay close),
    * ``1/q`` otherwise (move outward).

    ``p = q = 1`` short-circuits to :func:`uniform_random_walks` (same
    stream, same matrix).  Output layout, ``engine``, and ``n_jobs`` match
    :func:`uniform_random_walks`.
    """
    if p <= 0 or q <= 0:
        raise ValueError("p and q must be positive")
    if p == 1.0 and q == 1.0:
        return uniform_random_walks(
            graph,
            num_walks,
            walk_length,
            rng,
            nodes,
            engine=engine,
            n_jobs=n_jobs,
            ctx=ctx,
        )
    if num_walks < 1 or walk_length < 1:
        raise ValueError("num_walks and walk_length must be >= 1")
    if n_jobs is not None and n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    ctx = RunContext.ensure(ctx, engine=engine, n_jobs=n_jobs)
    engine = ctx.resolve_engine(ENGINES, default="fast", param="walk engine")
    n_jobs = ctx.resolved_n_jobs(default=1)
    store = ctx.store
    config = None
    if store is not None:
        config = _corpus_key(
            "node2vec", num_walks, walk_length, p, q, rng, nodes, engine
        )
        if config is not None:
            cached = store.get(graph.fingerprint(), STAGE_WALKS, config)
            if cached is not None:
                return cached
    starts = (
        np.arange(graph.num_nodes, dtype=np.int64)
        if nodes is None
        else np.asarray(nodes, dtype=np.int64)
    )
    rngs = _epoch_rngs(rng, num_walks)
    corpus = _run_walks(graph, starts, walk_length, p, q, engine, rngs, n_jobs)
    if config is not None:
        store.put(graph.fingerprint(), STAGE_WALKS, config, corpus)
    return corpus


def walk_lengths(walks: np.ndarray) -> np.ndarray:
    """Actual (un-padded) length of each walk row of a corpus matrix."""
    return (np.asarray(walks) >= 0).sum(axis=1)


def walk_node_frequencies(walks, num_nodes: int) -> np.ndarray:
    """Node occurrence counts across a walk corpus (negative-sampling base).

    Accepts the padded corpus matrix (``-1`` entries are ignored, no row
    copies are made) or a legacy list of per-walk index arrays.
    """
    if isinstance(walks, np.ndarray):
        # Shift by one so the -1 pad lands in bin 0, then drop that bin.
        counts = np.bincount(walks.ravel() + 1, minlength=num_nodes + 1)
        return counts[1: num_nodes + 1].astype(np.float64)
    counts = np.zeros(num_nodes, dtype=np.float64)
    for walk in walks:
        np.add.at(counts, walk, 1.0)
    return counts
