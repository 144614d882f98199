"""Feature-extraction runtime measurement (Section 4.3.5, Table 3).

Times the per-node subgraph census (mean plus 75/90/95th percentiles and
max — the paper reports exactly these, because the census runtime follows
the skewed degree distribution) against the per-node cost of the three
embedding baselines (total training time divided by node count, since
embeddings are trained globally rather than per node).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.cache import get_census, put_census
from repro.core.census import CensusConfig, EngineMode, subgraph_census
from repro.core.graph import HeteroGraph
from repro.experiments.common import (
    EMBEDDING_METHODS,
    EmbeddingParams,
    embedding_matrix,
    percentile_degree,
)
from repro.obs.telemetry import get_telemetry
from repro.runtime.context import RunContext
from repro.runtime.store import ArtifactStore


@dataclass
class RuntimeReport:
    """Per-dataset timing summary, mirroring Table 3's columns.

    ``embedding_engine`` and ``embedding_n_jobs`` record which pipeline
    produced the embedding columns, so Table 3 reproductions are traceable
    to a specific implementation.
    """

    dataset: str
    census_mean: float
    census_p75: float
    census_p90: float
    census_p95: float
    census_max: float
    embedding_mean: dict[str, float]
    num_nodes_timed: int
    embedding_engine: str = "fast"
    embedding_n_jobs: int = 1

    def row(self) -> str:
        cells = [
            f"{self.dataset:<8}",
            f"{self.census_mean:9.4f}",
            f"{self.census_p75:9.4f}",
            f"{self.census_p90:9.4f}",
            f"{self.census_p95:9.4f}",
            f"{self.census_max:9.4f}",
        ]
        for method in EMBEDDING_METHODS:
            # Partial or failed runs legitimately lack methods; a missing
            # column must not crash the whole Table 3 report.
            mean = self.embedding_mean.get(method)
            cells.append(f"{mean:9.5f}" if mean is not None else f"{'n/a':>9}")
        cells.append(
            f"[engine={self.embedding_engine}, n_jobs={self.embedding_n_jobs}]"
        )
        return " ".join(cells)


def time_census_per_node(
    graph: HeteroGraph,
    nodes,
    emax: int = 3,
    dmax_percentile: float = 90.0,
    mask_start_label: bool = True,
    engine: EngineMode = "fast",
    store: ArtifactStore | None = None,
) -> np.ndarray:
    """Wall-clock seconds of the rooted census for each node.

    ``engine`` selects the census implementation so the report can
    compare the incremental engine against the reference path on the
    same roots (the perf benchmarks do exactly that).  When ``store`` is
    given, stored roots are served (and counted as hits) — their rows
    then time the lookup, i.e. the *memoised* runtime — and fresh
    censuses are written back.  Per-root timing also lands in the
    ``census/root_timed`` telemetry timer.
    """
    dmax = percentile_degree(graph, dmax_percentile)
    config = CensusConfig(
        max_edges=emax, max_degree=dmax, mask_start_label=mask_start_label
    )
    telemetry = get_telemetry()
    telemetry.annotate("census/engine", engine)
    graph.flat()  # warm the adjacency snapshot outside the timed region
    times = np.empty(len(nodes))
    for i, node in enumerate(nodes):
        node = int(node)
        started = time.perf_counter()
        counts = get_census(store, graph, config, node) if store is not None else None
        if counts is None:
            counts = subgraph_census(graph, node, config, engine=engine)
            if store is not None:
                put_census(store, graph, config, node, counts)
                telemetry.count("census/cache_misses")
        elif store is not None:
            telemetry.count("census/cache_hits")
        times[i] = time.perf_counter() - started
        telemetry.timer("census/root_timed", times[i])
    return times


def time_embeddings_per_node(
    graph: HeteroGraph,
    params: EmbeddingParams,
    seed: int = 0,
    engine: str = "fast",
    n_jobs: int = 1,
    ctx: RunContext | None = None,
) -> dict[str, float]:
    """Total embedding training time divided by node count, per method.

    ``engine`` and ``n_jobs`` select the pipeline being timed; the report
    row records them so runs with different pipelines stay comparable.
    When ``ctx`` carries an artifact store, warm reruns time the memoised
    lookup (same caveat as the census cache).
    """
    telemetry = get_telemetry()
    telemetry.annotate("embed/engine", engine)
    per_node = {}
    probe = [0]
    for method in EMBEDDING_METHODS:
        with telemetry.span(f"phase/embed_{method}") as span:
            embedding_matrix(
                graph,
                probe,
                method,
                params,
                seed=seed,
                engine=engine,
                n_jobs=n_jobs,
                ctx=ctx,
            )
        per_node[method] = span.elapsed / graph.num_nodes
    return per_node


def runtime_report(
    dataset: str,
    graph: HeteroGraph,
    nodes,
    emax: int = 3,
    dmax_percentile: float = 90.0,
    embedding_params: EmbeddingParams | None = None,
    seed: int = 0,
    engine: EngineMode = "fast",
    embedding_engine: str = "fast",
    embedding_n_jobs: int = 1,
    ctx: RunContext | None = None,
) -> RuntimeReport:
    """Build one Table 3 row for a dataset.

    ``engine`` selects the census implementation, ``embedding_engine`` and
    ``embedding_n_jobs`` the embedding pipeline; both are recorded.  The
    census and embedding phases land in the ``phase/*`` telemetry timers
    the run manifest reports.  A context store memoises both censuses and
    embeddings.
    """
    ctx = RunContext.ensure(ctx)
    telemetry = get_telemetry()
    with telemetry.span("phase/census"):
        times = time_census_per_node(
            graph, nodes, emax, dmax_percentile, engine=engine, store=ctx.store
        )
    params = embedding_params if embedding_params is not None else EmbeddingParams.fast()
    with telemetry.span("phase/embeddings"):
        embedding_mean = time_embeddings_per_node(
            graph,
            params,
            seed=seed,
            engine=embedding_engine,
            n_jobs=embedding_n_jobs,
            ctx=RunContext(store=ctx.store),
        )
    return RuntimeReport(
        dataset=dataset,
        census_mean=float(times.mean()),
        census_p75=float(np.percentile(times, 75)),
        census_p90=float(np.percentile(times, 90)),
        census_p95=float(np.percentile(times, 95)),
        census_max=float(times.max()),
        embedding_mean=embedding_mean,
        num_nodes_timed=len(nodes),
        embedding_engine=embedding_engine,
        embedding_n_jobs=embedding_n_jobs,
    )
