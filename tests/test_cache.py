"""Unit tests for census memoisation through the artifact store.

Covers the census keys of :mod:`repro.core.cache`, the
:func:`get_census`/:func:`put_census` pair over an
:class:`~repro.runtime.store.ArtifactStore`, and the extractor's use of
its context store.  Store mechanics shared by every stage (atomic save,
load statuses, eviction) are covered in ``tests/test_runtime.py``; the
tests here drive them with census entries.
"""

from __future__ import annotations

import pickle
from collections import Counter

import numpy as np
import pytest

from repro.core.cache import census_store_config, get_census, put_census
from repro.core.census import CensusConfig, subgraph_census
from repro.core.features import SubgraphFeatureExtractor
from repro.core.graph import HeteroGraph
from repro.runtime import ArtifactStore, RunContext
from repro.runtime.store import STAGE_CENSUS
from tests.test_runtime import captured_store_warnings


@pytest.fixture
def config() -> CensusConfig:
    return CensusConfig(max_edges=3)


def _census_counts(store: ArtifactStore) -> tuple[int, int]:
    """(hits, misses) of the census stage."""
    return (
        store.stage_hits.get(STAGE_CENSUS, 0),
        store.stage_misses.get(STAGE_CENSUS, 0),
    )


class TestCensusKey:
    def test_key_varies_with_each_component(self, publication_graph, config):
        base = census_store_config(config, 0)
        assert census_store_config(config, 1) != base
        assert census_store_config(CensusConfig(max_edges=4), 0) != base
        store = ArtifactStore()
        put_census(store, publication_graph, config, 0, Counter({"k": 1}))
        other_graph = HeteroGraph.from_edges(
            {"a": "A", "b": "B"}, [("a", "b")]
        )
        assert get_census(store, other_graph, config, 0) is None

    def test_key_normalises_numpy_roots(self, publication_graph, config):
        assert census_store_config(config, np.int64(2)) == census_store_config(
            config, 2
        )
        store = ArtifactStore()
        put_census(store, publication_graph, config, np.int64(2), Counter({"k": 1}))
        assert get_census(store, publication_graph, config, 2) == Counter({"k": 1})


class TestCensusMemo:
    def test_roundtrip_and_stats(self, publication_graph, config):
        store = ArtifactStore()
        assert get_census(store, publication_graph, config, 0) is None
        census = subgraph_census(publication_graph, 0, config)
        put_census(store, publication_graph, config, 0, census)
        assert get_census(store, publication_graph, config, 0) == census
        assert _census_counts(store) == (1, 1)
        assert store.stage_entries(STAGE_CENSUS) == 1

    def test_persistence_roundtrip(self, publication_graph, config, tmp_path):
        path = tmp_path / "store.pkl"
        store = ArtifactStore(path)
        census = subgraph_census(publication_graph, 1, config)
        put_census(store, publication_graph, config, 1, census)
        store.save()

        reloaded = ArtifactStore(path)
        assert reloaded.stage_entries(STAGE_CENSUS) == 1
        assert get_census(reloaded, publication_graph, config, 1) == census

    def test_clear_resets_everything(self, publication_graph, config):
        store = ArtifactStore()
        put_census(store, publication_graph, config, 0, Counter({"k": 1}))
        get_census(store, publication_graph, config, 0)
        store.clear()
        assert len(store) == 0
        assert _census_counts(store) == (0, 0)


class TestExtractorCacheIntegration:
    def test_second_extraction_is_all_hits(self, publication_graph, config):
        store = ArtifactStore()
        extractor = SubgraphFeatureExtractor(config, ctx=RunContext(store=store))
        nodes = [0, 2, 4]
        first = extractor.census_many(publication_graph, nodes)
        assert _census_counts(store) == (0, len(nodes))
        second = extractor.census_many(publication_graph, nodes)
        assert _census_counts(store) == (len(nodes), len(nodes))
        assert first == second

    def test_cached_results_match_uncached(self, publication_graph, config):
        nodes = list(range(publication_graph.num_nodes))
        plain = SubgraphFeatureExtractor(config).census_many(
            publication_graph, nodes
        )
        cached_extractor = SubgraphFeatureExtractor(
            config, ctx=RunContext(store=ArtifactStore())
        )
        cached_extractor.census_many(publication_graph, nodes)  # warm
        warm = cached_extractor.census_many(publication_graph, nodes)
        assert warm == plain

    def test_config_change_misses(self, publication_graph):
        ctx = RunContext(store=ArtifactStore())
        SubgraphFeatureExtractor(
            CensusConfig(max_edges=2), ctx=ctx
        ).census_many(publication_graph, [0])
        SubgraphFeatureExtractor(
            CensusConfig(max_edges=3), ctx=ctx
        ).census_many(publication_graph, [0])
        assert _census_counts(ctx.store)[0] == 0
        assert ctx.store.stage_entries(STAGE_CENSUS) == 2


class TestDurability:
    """Census entries survive saves into an existing store file."""

    def test_save_replaces_stale_contents(self, publication_graph, config, tmp_path):
        path = tmp_path / "store.pkl"
        store = ArtifactStore(path)
        put_census(store, publication_graph, config, 0, Counter({"k": 1}))
        store.save()
        fresh = ArtifactStore(path)
        put_census(fresh, publication_graph, config, 1, Counter({"k": 2}))
        fresh.save()
        assert ArtifactStore(path).stage_entries(STAGE_CENSUS) == 2

    def test_save_to_explicit_path(self, publication_graph, config, tmp_path):
        store = ArtifactStore()
        put_census(store, publication_graph, config, 0, Counter({"k": 1}))
        target = store.save(tmp_path / "explicit.pkl")
        assert target.exists()
        assert get_census(
            ArtifactStore(target), publication_graph, config, 0
        ) == Counter({"k": 1})


class TestLoadStatus:
    """Failed loads must warn and be inspectable, never silent."""

    def test_no_path_is_none(self):
        assert ArtifactStore().load_status is None

    def test_loaded(self, publication_graph, config, tmp_path):
        path = tmp_path / "store.pkl"
        store = ArtifactStore(path)
        put_census(store, publication_graph, config, 0, Counter({"k": 1}))
        store.save()
        assert ArtifactStore(path).load_status == "loaded"

    def test_corrupt_file_warns(self, tmp_path):
        path = tmp_path / "store.pkl"
        path.write_bytes(b"not a pickle")
        with captured_store_warnings() as records:
            store = ArtifactStore(path)
        assert store.load_status == "corrupt"
        assert len(records) == 1
        message = records[0].getMessage()
        assert "unreadable" in message
        assert str(path) in message

    def test_version_mismatch_warns_and_ignores(self, tmp_path):
        path = tmp_path / "store.pkl"
        path.write_bytes(
            pickle.dumps({"version": 999, "entries": {("fp", "census", ()): Counter()}})
        )
        with captured_store_warnings() as records:
            store = ArtifactStore(path)
        assert store.load_status == "version-mismatch"
        assert len(store) == 0
        assert len(records) == 1
        assert "version" in records[0].getMessage()


class TestEviction:
    def test_fifo_eviction_beyond_bound(self, publication_graph, config):
        store = ArtifactStore(max_entries=2)
        for root in (0, 1, 2):
            put_census(store, publication_graph, config, root, Counter({"k": root}))
        assert len(store) == 2
        assert store.evictions == 1
        # Oldest entry (root 0) is gone; newest two survive.
        assert get_census(store, publication_graph, config, 0) is None
        assert get_census(store, publication_graph, config, 1) == Counter({"k": 1})
        assert get_census(store, publication_graph, config, 2) == Counter({"k": 2})

    def test_overwrite_does_not_evict(self, publication_graph, config):
        store = ArtifactStore(max_entries=2)
        put_census(store, publication_graph, config, 0, Counter({"k": 1}))
        put_census(store, publication_graph, config, 1, Counter({"k": 2}))
        put_census(store, publication_graph, config, 0, Counter({"k": 3}))
        assert store.evictions == 0
        assert get_census(store, publication_graph, config, 0) == Counter({"k": 3})
