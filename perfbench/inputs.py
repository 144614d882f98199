"""Seeded inputs of the four workloads, and their content fingerprints.

Everything a workload consumes is built here: the synthetic MAG world
(``rank``, ``label``), the affinity graph the serving daemon loads
(``serve-read``, ``serve-write``), and the sampled roots the correctness
checks census.  The world and the serving graph are the same for every
seed (see ``mag_world`` and ``SERVE_DATA_SEED``); ``input_seed(seed)``
draws the rest: the experiments' own seed, the reads, and the roots.
``fingerprint`` hashes a graph from its public content (ids, labels,
edges) with the benchmark's own formula, so a change to
``HeteroGraph.fingerprint`` cannot hide a change of input.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: Seeds map onto this many recorded input sets (``expected.json``); any
#: integer ``--seed`` is accepted and the same seed always gives the same
#: inputs.
SEED_SLOTS = 10

RANK_CONFERENCES = ("KDD", "FSE")
RANK_FAMILIES = ("classic", "subgraph", "deepwalk")
RANK_TRAIN_YEARS = (2011, 2012, 2013, 2014)
RANK_TEST_YEAR = 2015
RANK_EMAX = 3
RANK_TREES = 150

LABEL_FEATURES = ("subgraph", "deepwalk")
LABEL_EMAX = 4
LABEL_DMAX_PERCENTILE = 90.0
LABEL_N_JOBS = 2

SERVE_EMAX = 3
SERVE_DMAX = 6
#: Node count per label of the serving graph, per serve workload.
SERVE_SIZES = {
    "serve-read": {"a": 400, "b": 350, "c": 250},
    "serve-write": {"a": 120, "b": 105, "c": 75},
}
SERVE_AFFINITY = {("a", "b"): 1.0, ("b", "c"): 0.7, ("a", "c"): 0.3}
SERVE_MEAN_DEGREE = 3.0
#: The serving graph and the write trace (which requests are writes, and
#: which edges they add or remove) are drawn from this seed for every
#: ``--seed``; ``--seed`` draws the reads.  What a write costs depends on
#: the graph and on the edge: across the ten input seeds warm-up took
#: 1.1-7.9 s and the median mutation 37-717 ms, and the median of one
#: run's ~38 random writes on one graph spread 0.20-0.34 across seeds,
#: against a bound of at most 0.25 (perfbench/NOTES.md has the figures).
SERVE_DATA_SEED = 0

#: Roots per run whose fast census is checked against the reference engine.
CHECK_ROOTS = 3


def input_seed(seed: int) -> int:
    return seed % SEED_SLOTS


def fingerprint(graph) -> str:
    """sha256 of node ids, their labels and the sorted edge list."""
    digest = hashlib.sha256()
    names = graph.labelset.names
    for i, node_id in enumerate(graph.node_ids):
        digest.update(f"{node_id}\t{names[graph.label_of(i)]}\n".encode())
    ids = graph.node_ids
    edges = sorted(
        tuple(sorted((str(ids[u]), str(ids[v])))) for u, v in graph.edges()
    )
    for u, v in edges:
        digest.update(f"{u}\t{v}\n".encode())
    return digest.hexdigest()[:16]


def mag_world():
    """The default MAG world, the one ``repro rank`` builds at ``--seed 0``.

    It is the same for every seed: with a world drawn per seed, the
    bigger worlds made ``rank`` calls 10-20% longer than the median in
    both sets of ten runs (perfbench/NOTES.md).  The seed still draws
    each experiment's own seed.
    """
    from repro.datasets.mag import MagConfig, SyntheticMAG

    return SyntheticMAG(MagConfig())


def rank_fingerprint(mag) -> str:
    """One hash over every conference graph the rank grid censuses."""
    parts = [
        fingerprint(mag.build_rank_graph(conference, year - 1))
        for conference in RANK_CONFERENCES
        for year in (*RANK_TRAIN_YEARS, RANK_TEST_YEAR)
    ]
    return hashlib.sha256("".join(parts).encode()).hexdigest()[:16]


def label_graph(mag):
    return mag.build_label_graph(years=mag.config.years[-3:])


def serve_graph(workload: str):
    from repro.datasets.synthetic import affinity_graph

    return affinity_graph(
        label_sizes=SERVE_SIZES[workload],
        affinity=SERVE_AFFINITY,
        mean_degree=SERVE_MEAN_DEGREE,
        rng=np.random.default_rng(SERVE_DATA_SEED),
    )


def sample_roots(candidates, seed: int, count: int = CHECK_ROOTS) -> list[int]:
    """A seeded sample of root indices for the reference-census check."""
    rng = np.random.default_rng(1000 + input_seed(seed))
    candidates = sorted(int(c) for c in candidates)
    picks = rng.choice(len(candidates), size=min(count, len(candidates)), replace=False)
    return [candidates[int(i)] for i in sorted(picks)]


def census_matches_reference(graph, roots, config) -> bool:
    """The fast census of ``roots`` equals ``engine="reference"`` root by root."""
    from repro.core.census import subgraph_census
    from repro.core.features import SubgraphFeatureExtractor

    fast = SubgraphFeatureExtractor(config).census_many(graph, roots)
    return all(
        census == subgraph_census(graph, root, config, engine="reference")
        for root, census in zip(roots, fast)
    )
