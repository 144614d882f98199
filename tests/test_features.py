"""Unit tests for feature spaces and the subgraph feature extractor."""

import numpy as np
import pytest

from repro.core.census import CensusConfig, subgraph_census
from repro.core.features import FeatureSpace, SubgraphFeatureExtractor
from repro.exceptions import FeatureError


class TestFeatureSpace:
    def test_add_assigns_columns_in_order(self):
        space = FeatureSpace()
        assert space.add("a") == 0
        assert space.add("b") == 1
        assert space.add("a") == 0  # idempotent
        assert len(space) == 2

    def test_fit_absorbs_counter_keys(self):
        from collections import Counter

        space = FeatureSpace().fit([Counter({"x": 1}), Counter({"y": 2, "x": 1})])
        assert set(space.keys) == {"x", "y"}

    def test_index_unknown_raises(self):
        space = FeatureSpace(["a"])
        with pytest.raises(FeatureError):
            space.index("b")

    def test_key_at_roundtrip(self):
        space = FeatureSpace(["a", "b"])
        assert space.key_at(space.index("b")) == "b"

    def test_key_at_out_of_range(self):
        with pytest.raises(FeatureError):
            FeatureSpace(["a"]).key_at(5)

    def test_contains(self):
        space = FeatureSpace(["a"])
        assert "a" in space
        assert "b" not in space

    def test_to_matrix_aligns_and_drops_unknown(self):
        from collections import Counter

        space = FeatureSpace(["a", "b"])
        matrix = space.to_matrix([Counter({"a": 3}), Counter({"b": 1, "zzz": 9})])
        assert matrix.shape == (2, 2)
        assert matrix[0].tolist() == [3.0, 0.0]
        assert matrix[1].tolist() == [0.0, 1.0]

    def test_to_matrix_empty_space_raises(self):
        from collections import Counter

        with pytest.raises(FeatureError):
            FeatureSpace().to_matrix([Counter()])


class TestExtractor:
    def test_fit_transform_counts_match_census(self, publication_graph):
        config = CensusConfig(max_edges=3)
        extractor = SubgraphFeatureExtractor(config)
        nodes = [0, 3, 5]
        features = extractor.fit_transform(publication_graph, nodes)
        assert features.matrix.shape[0] == 3
        assert features.nodes == (0, 3, 5)
        for row, node in enumerate(nodes):
            reference = subgraph_census(publication_graph, node, config)
            total = features.matrix[row].sum()
            assert total == sum(reference.values())

    def test_transform_aligns_to_existing_space(self, publication_graph):
        config = CensusConfig(max_edges=3)
        extractor = SubgraphFeatureExtractor(config)
        train = extractor.fit_transform(publication_graph, [0, 1])
        test = extractor.transform(publication_graph, [2], train.space)
        assert test.matrix.shape == (1, train.num_features)

    def test_deterministic_columns(self, publication_graph):
        config = CensusConfig(max_edges=3)
        a = SubgraphFeatureExtractor(config).fit_transform(publication_graph, [0, 1])
        b = SubgraphFeatureExtractor(config).fit_transform(publication_graph, [0, 1])
        assert a.space.keys == b.space.keys
        assert np.array_equal(a.matrix, b.matrix)

    def test_isolated_nodes_raise_on_empty_vocabulary(self):
        from repro.core.graph import HeteroGraph

        graph = HeteroGraph.from_edges({"a": "A", "b": "B"}, [])
        extractor = SubgraphFeatureExtractor(CensusConfig(max_edges=2))
        with pytest.raises(FeatureError, match="isolated"):
            extractor.fit_transform(graph, [0, 1])

    def test_bad_n_jobs(self):
        with pytest.raises(FeatureError):
            SubgraphFeatureExtractor(n_jobs=0)

    def test_parallel_matches_serial(self, publication_graph):
        config = CensusConfig(max_edges=3)
        serial = SubgraphFeatureExtractor(config, n_jobs=1).fit_transform(
            publication_graph, list(range(publication_graph.num_nodes))
        )
        parallel = SubgraphFeatureExtractor(config, n_jobs=2).fit_transform(
            publication_graph, list(range(publication_graph.num_nodes))
        )
        assert serial.space.keys == parallel.space.keys
        assert np.array_equal(serial.matrix, parallel.matrix)

    def test_masked_extraction_hides_root_label(self, publication_graph):
        """With masking, two same-neighbourhood nodes of different labels
        produce identical features."""
        config = CensusConfig(max_edges=1, mask_start_label=True)
        extractor = SubgraphFeatureExtractor(config)
        g = publication_graph
        # a1 and a2 have identical neighbourhoods (i1, p1).
        features = extractor.fit_transform(g, [g.index("a1"), g.index("a2")])
        assert np.array_equal(features.matrix[0], features.matrix[1])


class TestCensusManyScheduling:
    def test_empty_nodes_returns_empty(self, publication_graph):
        extractor = SubgraphFeatureExtractor(CensusConfig(max_edges=3), n_jobs=4)
        assert extractor.census_many(publication_graph, []) == []

    def test_small_batch_never_spawns_pool(self, publication_graph, monkeypatch):
        """Fewer pending roots than workers must run in-process."""
        import repro.runtime.executor as executor_module

        def boom(*args, **kwargs):  # pragma: no cover - defensive
            raise AssertionError("ProcessPoolExecutor should not be created")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", boom)
        extractor = SubgraphFeatureExtractor(CensusConfig(max_edges=3), n_jobs=8)
        results = extractor.census_many(publication_graph, [0, 1])
        expected = [
            subgraph_census(publication_graph, n, extractor.config) for n in (0, 1)
        ]
        assert results == expected

    def test_parallel_results_keep_input_order(self, publication_graph):
        """Degree-sorted scheduling must not leak into result order."""
        config = CensusConfig(max_edges=3)
        # Ascending-degree order: the scheduler reverses it internally.
        nodes = sorted(
            range(publication_graph.num_nodes),
            key=lambda n: publication_graph.degree(n),
        )
        parallel = SubgraphFeatureExtractor(config, n_jobs=2).census_many(
            publication_graph, nodes
        )
        serial = [subgraph_census(publication_graph, n, config) for n in nodes]
        assert parallel == serial

    def test_duplicate_nodes_each_get_a_row(self, publication_graph):
        config = CensusConfig(max_edges=2)
        results = SubgraphFeatureExtractor(config).census_many(
            publication_graph, [3, 3, 0]
        )
        assert results[0] == results[1]
        assert results[0] == subgraph_census(publication_graph, 3, config)
        assert results[2] == subgraph_census(publication_graph, 0, config)


class TestCensusManyDedup:
    """Duplicate roots must be censused once and fanned out."""

    def _counting_census(self, monkeypatch):
        import repro.core.features as features_module

        calls = []
        real = features_module.subgraph_census

        def counting(graph, node, config, **kwargs):
            calls.append(int(node))
            return real(graph, node, config, **kwargs)

        monkeypatch.setattr(features_module, "subgraph_census", counting)
        return calls

    def test_duplicates_computed_once(self, publication_graph, monkeypatch):
        calls = self._counting_census(monkeypatch)
        config = CensusConfig(max_edges=2)
        nodes = [0, 0, 2, 0]
        results = SubgraphFeatureExtractor(config).census_many(
            publication_graph, nodes
        )
        assert sorted(calls) == [0, 2]  # one census per unique root
        expected = subgraph_census(publication_graph, 0, config)
        assert results[0] == results[1] == results[3] == expected
        assert results[2] == subgraph_census(publication_graph, 2, config)

    def test_fanned_out_rows_are_independent(self, publication_graph):
        config = CensusConfig(max_edges=2)
        results = SubgraphFeatureExtractor(config).census_many(
            publication_graph, [3, 3]
        )
        results[0]["poisoned"] = 99
        assert "poisoned" not in results[1]

    def test_duplicates_hit_cache_not_census(self, publication_graph, monkeypatch):
        """With a cache, duplicates must not turn into extra misses."""
        from repro.runtime import ArtifactStore, RunContext

        calls = self._counting_census(monkeypatch)
        config = CensusConfig(max_edges=2)
        store = ArtifactStore()
        extractor = SubgraphFeatureExtractor(config, ctx=RunContext(store=store))
        extractor.census_many(publication_graph, [0, 0, 2, 0])
        assert sorted(calls) == [0, 2]
        # One miss per unique root, not per occurrence.
        assert store.stage_misses == {"census": 2}
        assert store.stage_hits == {}

    def test_dedup_savings_counted(self, publication_graph):
        from repro.obs.telemetry import fresh_telemetry

        config = CensusConfig(max_edges=2)
        with fresh_telemetry() as telemetry:
            SubgraphFeatureExtractor(config).census_many(
                publication_graph, [0, 0, 2, 0]
            )
        assert telemetry.counters["census/requested"] == 4
        assert telemetry.counters["census/dedup_saved"] == 2


class TestCensusManyTelemetry:
    """Worker-side stats must merge into the parent registry."""

    def _run(self, graph, n_jobs):
        from repro.obs.telemetry import fresh_telemetry

        nodes = list(range(graph.num_nodes))
        with fresh_telemetry() as telemetry:
            results = SubgraphFeatureExtractor(
                CensusConfig(max_edges=3), n_jobs=n_jobs
            ).census_many(graph, nodes)
        return results, telemetry

    def test_parallel_stats_match_serial(self, publication_graph):
        serial_results, serial = self._run(publication_graph, n_jobs=1)
        parallel_results, parallel = self._run(publication_graph, n_jobs=2)
        assert parallel_results == serial_results
        # Same roots censused, whether in-process or shipped back from
        # pool workers as snapshots.
        assert (
            parallel.counters["census/requested"]
            == serial.counters["census/requested"]
        )
        assert (
            parallel.timers["census/root"].count
            == serial.timers["census/root"].count
        )
        assert parallel.timers["census/chunk"].count >= 1

    def test_cache_hits_counted(self, publication_graph):
        from repro.obs.telemetry import fresh_telemetry
        from repro.runtime import ArtifactStore, RunContext

        config = CensusConfig(max_edges=2)
        extractor = SubgraphFeatureExtractor(
            config, ctx=RunContext(store=ArtifactStore())
        )
        with fresh_telemetry() as telemetry:
            extractor.census_many(publication_graph, [0, 1])
            extractor.census_many(publication_graph, [0, 1])
        assert telemetry.counters["census/cache_misses"] == 2
        assert telemetry.counters["census/cache_hits"] == 2


class TestFeatureSpaceUtilities:
    def test_merged_preserves_existing_columns(self):
        a = FeatureSpace(["x", "y"])
        b = FeatureSpace(["y", "z"])
        merged = a.merged(b)
        assert merged.keys == ("x", "y", "z")
        assert merged.index("x") == a.index("x")

    def test_prune_drops_rare_codes(self):
        from collections import Counter

        space = FeatureSpace(["common", "rare"])
        censuses = [Counter({"common": 1}), Counter({"common": 2, "rare": 1})]
        pruned = space.prune(censuses, min_nodes=2)
        assert pruned.keys == ("common",)

    def test_prune_min_nodes_one_keeps_observed(self):
        from collections import Counter

        space = FeatureSpace(["a", "b", "never"])
        censuses = [Counter({"a": 1}), Counter({"b": 1})]
        pruned = space.prune(censuses, min_nodes=1)
        assert set(pruned.keys) == {"a", "b"}

    def test_prune_validation(self):
        with pytest.raises(FeatureError):
            FeatureSpace(["a"]).prune([], min_nodes=0)


class TestSparseLayout:
    """``layout="sparse"`` is a bit-exact reformulation of the dense path."""

    def _censuses(self):
        from collections import Counter

        return [
            Counter({"a": 3, "c": 1}),
            Counter(),
            Counter({"b": 2, "unseen": 9}),
            Counter({"a": 1, "b": 1, "c": 1}),
        ]

    def test_to_matrix_layouts_agree_exactly(self):
        space = FeatureSpace(["a", "b", "c"])
        censuses = self._censuses()
        dense = space.to_matrix(censuses)
        sparse = space.to_matrix(censuses, layout="sparse")
        assert np.array_equal(sparse.toarray(), dense)

    def test_to_matrix_rejects_unknown_layout(self):
        with pytest.raises(FeatureError):
            FeatureSpace(["a"]).to_matrix([], layout="csc")

    def test_prune_from_csr_matches_counters(self):
        space = FeatureSpace(["a", "b", "c"])
        censuses = self._censuses()
        from_counters = space.prune(censuses, min_nodes=2)
        from_csr = space.prune(
            space.to_matrix(censuses, layout="sparse"), min_nodes=2
        )
        assert from_csr.keys == from_counters.keys

    def test_prune_ignores_unindexed_keys(self):
        """Keys outside the space's vocabulary (e.g. codes from masked
        censuses) must not count toward support — and must not survive."""
        from collections import Counter

        space = FeatureSpace(["a"])
        censuses = [Counter({"a": 1, "ghost": 5}), Counter({"ghost": 2})]
        pruned = space.prune(censuses, min_nodes=1)
        assert pruned.keys == ("a",)

    def test_prune_csr_column_mismatch(self):
        from repro.core.sparse import CSRMatrix

        space = FeatureSpace(["a", "b"])
        wrong = CSRMatrix.from_dense(np.zeros((2, 3)))
        with pytest.raises(FeatureError):
            space.prune(wrong)

    def test_extractor_sparse_layout_matches_dense(self, publication_graph):
        config = CensusConfig(max_edges=3)
        nodes = list(range(4))
        dense = SubgraphFeatureExtractor(config).fit_transform(
            publication_graph, nodes
        )
        sparse = SubgraphFeatureExtractor(config).fit_transform(
            publication_graph, nodes, layout="sparse"
        )
        assert np.array_equal(sparse.matrix.toarray(), dense.matrix)
