"""Tests for the unified execution runtime: context, store, pipeline.

Covers the :class:`RunContext` resolution shims, the single
:func:`resolve_engine` validator (every call site must enumerate its
valid choices), and the content-addressed :class:`ArtifactStore` —
cross-stage key isolation, durability statuses, and FIFO eviction
across mixed stage types — plus the process-pool executor
(:func:`parallel_map`) and the telemetry parity it gives every parallel
site across worker counts.
"""

import logging
import multiprocessing
import operator
import os
import pickle
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.census import CensusConfig, subgraph_census
from repro.embeddings.line import LINE
from repro.embeddings.skipgram import SkipGramTrainer, walks_to_pairs
from repro.embeddings.walks import node2vec_walks, uniform_random_walks
from repro.exceptions import CensusError
from repro.ml.forest import RandomForestRegressor
from repro.obs import fresh_telemetry, get_telemetry
from repro.runtime import (
    ArtifactStore,
    Pipeline,
    RunContext,
    artifact_key,
    freeze_config,
    parallel_map,
    resolve_engine,
    resolve_n_jobs,
)

FP = "fingerprint-a"


class TestResolveEngine:
    def test_valid_name_passes_through(self):
        assert resolve_engine("fast", ("fast", "reference")) == "fast"

    def test_message_enumerates_choices(self):
        with pytest.raises(
            ValueError,
            match="unknown engine 'turbo': valid choices are 'fast', 'reference'",
        ):
            resolve_engine("turbo", ("fast", "reference"))

    def test_custom_param_and_error(self):
        class Boom(Exception):
            pass

        with pytest.raises(Boom, match="unknown widget engine 'x'"):
            resolve_engine("x", ("a",), param="widget engine", error=Boom)


class TestEngineValidationCallSites:
    """Every engine dispatch shares the unified wording (the PR-5 bugfix:
    previously each site raised a differently-shaped error, some without
    naming the valid choices)."""

    def test_census_site(self, publication_graph):
        with pytest.raises(
            CensusError,
            match="unknown census engine 'turbo': valid choices are "
            "'fast', 'reference'",
        ):
            subgraph_census(
                publication_graph, 0, CensusConfig(max_edges=2), engine="turbo"
            )

    def test_walks_site(self, publication_graph):
        with pytest.raises(ValueError, match="unknown walk engine 'turbo'"):
            uniform_random_walks(
                publication_graph, num_walks=1, walk_length=2, engine="turbo"
            )

    def test_node2vec_walks_site(self, publication_graph):
        with pytest.raises(ValueError, match="unknown walk engine 'turbo'"):
            node2vec_walks(
                publication_graph, num_walks=1, walk_length=2, q=2.0, engine="turbo"
            )

    def test_pairs_site(self):
        walks = np.array([[0, 1, 2]], dtype=np.int64)
        with pytest.raises(
            ValueError, match="unknown pairs engine 'turbo': valid choices are"
        ):
            walks_to_pairs(walks, 1, np.random.default_rng(0), engine="turbo")

    def test_trainer_site(self):
        with pytest.raises(
            ValueError, match="unknown trainer engine 'turbo': valid choices are"
        ):
            SkipGramTrainer(dim=4, engine="turbo")

    def test_line_site(self):
        with pytest.raises(
            ValueError, match="unknown LINE engine 'turbo': valid choices are"
        ):
            LINE(dim=4, engine="turbo")

    def test_forest_site(self):
        with pytest.raises(
            ValueError,
            match="unknown forest engine 'turbo': valid choices are "
            "'fast', 'reference'",
        ):
            RandomForestRegressor(n_estimators=2, engine="turbo")


class TestRunContext:
    def test_ensure_builds_fresh_context(self):
        ctx = RunContext.ensure(None, engine="reference")
        assert ctx.engine == "reference"
        assert ctx.n_jobs is None

    def test_ensure_legacy_kwargs_override_context(self):
        base = RunContext(engine="fast", n_jobs=2)
        ctx = RunContext.ensure(base, engine="reference")
        assert ctx.engine == "reference"
        assert ctx.n_jobs == 2  # untouched fields survive
        assert base.engine == "fast"  # original context is not mutated

    def test_ensure_none_overrides_are_ignored(self):
        base = RunContext(engine="reference")
        assert RunContext.ensure(base, engine=None) is base

    def test_resolve_engine_uses_default_when_unset(self):
        assert RunContext().resolve_engine(("fast", "reference")) == "fast"

    def test_resolved_n_jobs_auto(self):
        assert RunContext(n_jobs=0).resolved_n_jobs() >= 1
        assert RunContext().resolved_n_jobs(default=3) == 3

    def test_resolve_n_jobs_rejects_negative(self):
        with pytest.raises(ValueError, match="n_jobs"):
            resolve_n_jobs(-2)
        assert resolve_n_jobs("auto") >= 1

    def test_resolved_seed(self):
        assert RunContext(seed=9).resolved_seed() == 9
        assert RunContext().resolved_seed(default=4) == 4

    def test_resolved_executor(self):
        from repro.runtime.context import VALID_EXECUTORS

        assert RunContext().resolved_executor() == "local"
        assert RunContext(executor="remote").resolved_executor() == "remote"
        assert "remote" in VALID_EXECUTORS
        with pytest.raises(ValueError, match="executor"):
            RunContext(executor="warp").resolved_executor()

    def test_executor_and_workers_in_provenance(self):
        from repro.obs import fresh_telemetry

        ctx = RunContext(
            executor="remote", workers=("h1:9000", "h2:9000")
        )
        with fresh_telemetry() as telemetry:
            ctx.annotate_provenance()
            annotations = telemetry.as_dict()["annotations"]
        assert annotations["run/executor"] == "remote"
        assert annotations["run/workers"] == "2"


class TestFreezeConfig:
    def test_dict_order_is_canonicalised(self):
        assert freeze_config({"b": 1, "a": [1, 2]}) == freeze_config(
            {"a": (1, 2), "b": 1}
        )

    def test_sets_are_sorted(self):
        assert freeze_config({3, 1, 2}) == (1, 2, 3)

    def test_nested_structures_hashable(self):
        frozen = freeze_config({"x": [{"y": {1, 2}}, "s"]})
        hash(frozen)  # must not raise


class TestArtifactStoreKeys:
    def test_cross_stage_isolation(self):
        store = ArtifactStore()
        config = (2, None)
        store.put(FP, "census", config, {"code": 1})
        store.put(FP, "walks", config, np.arange(3))
        assert store.get(FP, "census", config) == {"code": 1}
        np.testing.assert_array_equal(store.get(FP, "walks", config), np.arange(3))
        assert store.get(FP, "embed", config) is None

    def test_fingerprint_isolation(self):
        store = ArtifactStore()
        store.put(FP, "census", (1,), "a")
        assert store.get("fingerprint-b", "census", (1,)) is None

    def test_hits_are_defensive_copies(self):
        store = ArtifactStore()
        store.put(FP, "embed", (1,), np.zeros(3))
        first = store.get(FP, "embed", (1,))
        first[:] = 99.0
        np.testing.assert_array_equal(store.get(FP, "embed", (1,)), np.zeros(3))

    def test_counters_track_per_stage(self):
        store = ArtifactStore()
        store.put(FP, "census", (1,), "x")
        store.get(FP, "census", (1,))
        store.get(FP, "embed", (1,))
        assert store.stage_hits == {"census": 1}
        assert store.stage_misses == {"embed": 1}
        stats = store.stage_stats()
        assert stats["census"] == {"hits": 1, "misses": 0, "entries": 1}
        assert stats["embed"]["misses"] == 1

    def test_artifact_key_freezes_config(self):
        key = artifact_key(FP, "census", {"b": 1, "a": 2})
        assert key == (FP, "census", (("a", 2), ("b", 1)))


@contextmanager
def captured_store_warnings():
    """Collect warning records from the store module's logger.

    ``caplog`` cannot be used: the ``repro`` hierarchy sets
    ``propagate = False`` once the CLI has configured logging (other
    tests in the session do), so records never reach the root logger
    pytest listens on.  A handler on the module logger sees them
    regardless.
    """
    records: list[logging.LogRecord] = []

    class _Collector(logging.Handler):
        def emit(self, record: logging.LogRecord) -> None:
            records.append(record)

    store_logger = logging.getLogger("repro.runtime.store")
    handler = _Collector(level=logging.WARNING)
    old_level = store_logger.level
    store_logger.addHandler(handler)
    store_logger.setLevel(logging.WARNING)
    try:
        yield records
    finally:
        store_logger.removeHandler(handler)
        store_logger.setLevel(old_level)


class TestArtifactStoreDurability:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "store.pkl"
        store = ArtifactStore(path)
        assert store.load_status == "missing"
        store.put(FP, "census", (1,), {"c": 2})
        store.save()
        reloaded = ArtifactStore(path)
        assert reloaded.load_status == "loaded"
        assert reloaded.get(FP, "census", (1,)) == {"c": 2}

    def test_corrupt_file_reported(self, tmp_path):
        path = tmp_path / "store.pkl"
        path.write_bytes(b"not a pickle")
        with captured_store_warnings() as records:
            store = ArtifactStore(path)
        assert store.load_status == "corrupt"
        assert len(store) == 0
        assert any("unreadable" in record.getMessage() for record in records)

    def test_version_mismatch_reported(self, tmp_path):
        path = tmp_path / "store.pkl"
        path.write_bytes(pickle.dumps({"version": 1, "entries": {"k": "v"}}))
        with captured_store_warnings() as records:
            store = ArtifactStore(path)
        assert store.load_status == "version-mismatch"
        assert len(store) == 0
        assert any("version" in record.getMessage() for record in records)

    def test_save_is_atomic_leaves_no_temp(self, tmp_path):
        path = tmp_path / "store.pkl"
        store = ArtifactStore(path)
        store.put(FP, "walks", (1,), np.arange(2))
        store.save()
        assert not list(tmp_path.glob("store.pkl.*.tmp"))

    def test_save_without_path_raises(self):
        with pytest.raises(ValueError, match="path"):
            ArtifactStore().save()

    def test_save_creates_missing_directory(self, tmp_path):
        path = tmp_path / "no" / "such" / "dir" / "store.pkl"
        store = ArtifactStore(path)
        assert store.load_status == "missing"
        store.put(FP, "census", (1,), {"c": 2})
        assert store.save() == path
        assert ArtifactStore(path).get(FP, "census", (1,)) == {"c": 2}

    def test_interrupted_save_leaves_original_intact(self, tmp_path, monkeypatch):
        """A crash mid-write (kill -9 style) must not clobber the file."""
        path = tmp_path / "store.pkl"
        store = ArtifactStore(path)
        store.put(FP, "census", (0,), {"c": 1})
        store.save()
        good_bytes = path.read_bytes()

        def dying_dump(obj, fh, protocol=None):
            fh.write(b"\x80\x04partial-garbage")
            raise KeyboardInterrupt("simulated kill")

        monkeypatch.setattr(pickle, "dump", dying_dump)
        store = ArtifactStore(path)
        store.put(FP, "census", (1,), {"new": 1})
        with pytest.raises(KeyboardInterrupt):
            store.save()

        # Original contents untouched; the stray bytes live in a temp file.
        assert path.read_bytes() == good_bytes
        assert len(list(tmp_path.glob("store.pkl.*.tmp"))) == 1
        reloaded = ArtifactStore(path)
        assert reloaded.load_status == "loaded"
        assert reloaded.get(FP, "census", (0,)) == {"c": 1}

    def test_garbage_text_warns(self, tmp_path):
        """Text garbage parses as protocol-0 opcodes raising ValueError."""
        path = tmp_path / "store.pkl"
        path.write_bytes(b"garbage\n")
        with captured_store_warnings() as records:
            assert ArtifactStore(path).load_status == "corrupt"
        assert len(records) == 1

    def test_truncated_pickle_warns(self, tmp_path):
        path = tmp_path / "store.pkl"
        store = ArtifactStore(path)
        store.put(FP, "census", (0,), {"c": 1})
        store.save()
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with captured_store_warnings() as records:
            assert ArtifactStore(path).load_status == "corrupt"
        assert len(records) == 1

    def test_legacy_payload_is_version_mismatch(self, tmp_path):
        """Pre-versioned files (a bare dict) are ignored, not crashed on."""
        path = tmp_path / "store.pkl"
        path.write_bytes(pickle.dumps({("fp", (), 0): {"k": 1}}))
        with captured_store_warnings() as records:
            store = ArtifactStore(path)
        assert store.load_status == "version-mismatch"
        assert len(store) == 0
        assert len(records) == 1


class TestArtifactStoreEviction:
    def test_fifo_across_mixed_stages(self):
        store = ArtifactStore(max_entries=2)
        store.put(FP, "census", (1,), "a")
        store.put(FP, "walks", (1,), "b")
        store.put(FP, "embed", (1,), "c")
        assert store.get(FP, "census", (1,)) is None  # oldest, evicted
        assert store.get(FP, "walks", (1,)) == "b"
        assert store.get(FP, "embed", (1,)) == "c"
        assert store.evictions == 1
        assert len(store) == 2

    def test_overwrite_does_not_evict(self):
        store = ArtifactStore(max_entries=2)
        store.put(FP, "census", (1,), "a")
        store.put(FP, "census", (2,), "b")
        store.put(FP, "census", (1,), "a2")
        assert store.evictions == 0
        assert store.get(FP, "census", (1,)) == "a2"

    def test_bad_max_entries_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            ArtifactStore(max_entries=0)


class TestPipeline:
    def test_stages_record_spans_and_order(self):
        with fresh_telemetry() as telemetry:
            pipeline = Pipeline("demo", RunContext(engine="fast", n_jobs=1))
            with pipeline.stage("dataset"):
                pass
            with pipeline.stage("experiment"):
                pass
            assert pipeline.executed == ["dataset", "experiment"]
            data = telemetry.as_dict()
            assert "stage/dataset" in data["timers"]
            assert "stage/experiment" in data["timers"]
            assert data["annotations"]["pipeline/name"] == "demo"
            # Annotations are stringified by the registry.
            assert data["annotations"]["pipeline/stages"] == str(
                ("dataset", "experiment")
            )
            assert data["annotations"]["run/engine"] == "fast"
            assert data["annotations"]["run/n_jobs"] == "1"


class TestStoreDrivenStages:
    def test_walk_corpus_cached_for_int_seed(self, publication_graph):
        store = ArtifactStore()
        ctx = RunContext(store=store)
        first = uniform_random_walks(
            publication_graph, num_walks=2, walk_length=5, rng=7, ctx=ctx
        )
        second = uniform_random_walks(
            publication_graph, num_walks=2, walk_length=5, rng=7, ctx=ctx
        )
        np.testing.assert_array_equal(first, second)
        assert store.stage_hits.get("walks") == 1

    def test_generator_rng_is_never_cached(self, publication_graph):
        store = ArtifactStore()
        ctx = RunContext(store=store)
        uniform_random_walks(
            publication_graph,
            num_walks=1,
            walk_length=4,
            rng=np.random.default_rng(0),
            ctx=ctx,
        )
        assert len(store) == 0


class TestStoreStats:
    def test_stats_summarise_entries_and_payload(self):
        store = ArtifactStore(max_entries=2)
        store.put(FP, "census", (1,), "x")
        store.put(FP, "census", (2,), "y")
        store.put(FP, "embed", (1,), "z")  # evicts the oldest census entry
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == 1
        assert stats["approx_payload_bytes"] > 0
        assert stats["stages"]["census"]["entries"] == 1
        assert stats["stages"]["embed"]["entries"] == 1

    def test_record_stats_emits_store_gauges(self):
        store = ArtifactStore()
        store.put(FP, "census", (1,), "x")
        store.put(FP, "partition", (1,), "p")
        with fresh_telemetry() as telemetry:
            store.record_stats(telemetry)
            gauges = telemetry.as_dict()["gauges"]
        assert gauges["store/entries"] == 2
        assert gauges["store/evictions"] == 0
        assert gauges["store/approx_payload_bytes"] > 0
        assert gauges["store/entries/census"] == 1
        assert gauges["store/entries/partition"] == 1

    def test_save_records_stats(self, tmp_path):
        store = ArtifactStore(tmp_path / "store.pkl")
        store.put(FP, "features", (1,), [1, 2, 3])
        with fresh_telemetry() as telemetry:
            store.save()
            gauges = telemetry.as_dict()["gauges"]
        assert gauges["store/entries"] == 1
        assert gauges["store/entries/features"] == 1


class TestArtifactStoreLRU:
    def test_get_refreshes_recency(self):
        store = ArtifactStore(max_entries=2)
        store.put(FP, "census", (1,), "a")
        store.put(FP, "census", (2,), "b")
        assert store.get(FP, "census", (1,)) == "a"  # touch: a is now newest
        store.put(FP, "census", (3,), "c")
        assert store.get(FP, "census", (2,)) is None  # b was the LRU victim
        assert store.get(FP, "census", (1,)) == "a"
        assert store.get(FP, "census", (3,)) == "c"

    def test_overwrite_refreshes_recency(self):
        store = ArtifactStore(max_entries=2)
        store.put(FP, "census", (1,), "a")
        store.put(FP, "census", (2,), "b")
        store.put(FP, "census", (1,), "a2")  # overwrite: a is now newest
        store.put(FP, "census", (3,), "c")
        assert store.get(FP, "census", (2,)) is None
        assert store.get(FP, "census", (1,)) == "a2"

    def test_partition_floor_survives_census_flood(self):
        # The regression this guards: a long census run used to evict the
        # halo-complete partition sets it was itself iterating over.
        store = ArtifactStore(max_entries=6)
        for i in range(4):
            store.put(FP, "partition", (i,), f"part-{i}")
        for i in range(40):
            store.put(FP, "census", (i,), i)
        assert store.stage_entries("partition") == 4
        for i in range(4):
            assert store.get(FP, "partition", (i,)) == f"part-{i}"
        assert store.stage_entries("census") == 2
        assert len(store) == 6

    def test_embed_floor_is_default_protected(self):
        store = ArtifactStore(max_entries=4)
        store.put(FP, "embed", (0,), "matrix")
        for i in range(20):
            store.put(FP, "census", (i,), i)
        assert store.get(FP, "embed", (0,)) == "matrix"

    def test_floor_overflow_rather_than_evict_protected(self):
        # When everything evictable is protected the store runs over
        # max_entries instead of dropping protected artifacts.
        store = ArtifactStore(max_entries=2)
        for i in range(4):
            store.put(FP, "partition", (i,), i)
        assert len(store) == 4
        assert store.evictions == 0

    def test_custom_floors_override_defaults(self):
        # An explicit empty mapping clears the default partition floor.
        store = ArtifactStore(max_entries=2, stage_floors={})
        store.put(FP, "partition", (1,), "p")
        store.put(FP, "census", (1,), "a")
        store.put(FP, "census", (2,), "b")
        assert store.get(FP, "partition", (1,)) is None  # no floor: evicted
        assert store.get(FP, "census", (1,)) == "a"

    def test_floor_keeps_stage_at_floor_not_above(self):
        # A floor of 1 protects the *last* entry of a stage, not every
        # entry: the oldest one is still evictable while count > floor.
        store = ArtifactStore(max_entries=2, stage_floors={"census": 1})
        store.put(FP, "census", (1,), "a")
        store.put(FP, "partition", (1,), "p")
        store.put(FP, "census", (2,), "b")
        assert store.get(FP, "census", (1,)) is None  # oldest, above floor
        assert store.get(FP, "census", (2,)) == "b"
        assert store.get(FP, "partition", (1,)) == "p"

    def test_discard_removes_without_counting_eviction(self):
        store = ArtifactStore()
        store.put(FP, "census", (1,), "a")
        assert store.discard(FP, "census", (1,)) is True
        assert store.discard(FP, "census", (1,)) is False
        assert store.get(FP, "census", (1,)) is None
        assert store.evictions == 0
        assert store.stage_entries("census") == 0

    def test_counter_artifacts_fast_copied(self):
        from collections import Counter as _Counter

        store = ArtifactStore()
        census = _Counter({101: 3, 202: 1})
        store.put(FP, "census", (1,), census)
        census[999] = 7  # caller mutation must not reach the store
        got = store.get(FP, "census", (1,))
        assert got == _Counter({101: 3, 202: 1})
        got[555] = 1  # nor must reader mutation
        assert store.get(FP, "census", (1,)) == _Counter({101: 3, 202: 1})


class TestArtifactStoreMove:
    # Regression for the serve-layer key migration, which emulated a move
    # with get() + discard() + put(): the payload/stage accounting saw
    # phantom traffic (hits inflated once per migrated root) and every
    # migration paid two deep copies of the artifact.

    def test_move_rekeys_entry(self):
        store = ArtifactStore()
        store.put(FP, "census", (1,), {"rows": [1, 2]})
        assert store.move(FP, "f" * 32, "census", (1,)) is True
        assert store.get(FP, "census", (1,)) is None
        assert store.get("f" * 32, "census", (1,)) == {"rows": [1, 2]}

    def test_move_missing_source_returns_false(self):
        store = ArtifactStore()
        assert store.move(FP, "f" * 32, "census", (1,)) is False

    def test_move_does_not_touch_hit_counters(self):
        store = ArtifactStore()
        for root in range(10):
            store.put(FP, "census", (root,), root)
        for root in range(10):
            assert store.move(FP, "f" * 32, "census", (root,))
        # Migration is bookkeeping, not lookups: the old emulation left
        # hits == 10 here, poisoning the manifest's hit-rate stats.
        assert store.hits == 0
        assert store.misses == 0
        assert store.stage_stats().get("census", {}).get("hits", 0) == 0

    def test_move_keeps_payload_and_stage_counts_exact(self):
        store = ArtifactStore()
        for root in range(8):
            store.put(FP, "census", (root,), list(range(64)))
        before = store.stats()
        for root in range(8):
            store.move(FP, "f" * 32, "census", (root,))
        after = store.stats()
        assert after["entries"] == before["entries"] == 8
        assert after["stages"]["census"]["entries"] == 8
        assert after["approx_payload_bytes"] == before["approx_payload_bytes"]
        assert store.stage_entries("census") == 8

    def test_move_onto_existing_destination_replaces(self):
        store = ArtifactStore()
        store.put(FP, "census", (1,), "old-fp-entry")
        store.put("f" * 32, "census", (1,), "new-fp-entry")
        assert store.move(FP, "f" * 32, "census", (1,)) is True
        assert store.get(FP, "census", (1,)) is None
        assert store.get("f" * 32, "census", (1,)) == "old-fp-entry"
        assert store.stage_entries("census") == 1
        assert len(store) == 1

    def test_move_avoids_deep_copies(self):
        store = ArtifactStore()
        payload = {"big": list(range(16))}
        store.put(FP, "census", (1,), payload)
        stored_before = store.get(FP, "census", (1,))
        store.move(FP, "f" * 32, "census", (1,))
        # The stored object is re-addressed, not round-tripped through
        # the defensive-copy path of get()/put(); reads still copy.
        got = store.get("f" * 32, "census", (1,))
        assert got == stored_before
        got["big"].append(99)
        assert store.get("f" * 32, "census", (1,)) == stored_before

    def test_move_lands_at_newest_lru_position(self):
        store = ArtifactStore(max_entries=2)
        store.put(FP, "census", (1,), "a")
        store.put(FP, "census", (2,), "b")
        store.move(FP, "f" * 32, "census", (1,))  # a becomes newest
        store.put(FP, "census", (3,), "c")  # evicts b, the true LRU
        assert store.get(FP, "census", (2,)) is None
        assert store.get("f" * 32, "census", (1,)) == "a"


class TestArtifactStoreConcurrency:
    def test_threaded_stress(self, tmp_path):
        # Regression for the unsynchronised store: concurrent put/get/
        # stats used to corrupt the entry dict and the stage tallies.
        import threading

        store = ArtifactStore(tmp_path / "store.pkl", max_entries=64)
        stages = ("census", "walks", "embed", "features", "partition")
        errors = []
        barrier = threading.Barrier(8)

        def worker(seed: int) -> None:
            rng = np.random.default_rng(seed)
            barrier.wait()
            try:
                for i in range(300):
                    stage = stages[int(rng.integers(len(stages)))]
                    config = (int(rng.integers(24)),)
                    roll = rng.random()
                    if roll < 0.5:
                        store.put(FP, stage, config, (seed, i))
                    elif roll < 0.9:
                        store.get(FP, stage, config)
                    elif roll < 0.97:
                        store.stats()
                        store.stage_stats()
                    else:
                        store.save()
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        # The incremental stage tallies must agree with the entry dict.
        assert sum(
            store.stage_entries(stage) for stage in stages
        ) == len(store)
        if store.max_entries is not None:
            protected = sum(store.stage_floors.values())
            assert len(store) <= store.max_entries + protected

    def test_concurrent_get_put_same_key(self):
        import threading

        store = ArtifactStore()
        stop = threading.Event()
        errors = []

        def writer():
            i = 0
            while not stop.is_set():
                store.put(FP, "census", (1,), {"i": i})
                i += 1

        def reader():
            try:
                while not stop.is_set():
                    value = store.get(FP, "census", (1,))
                    if value is not None:
                        assert "i" in value
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        import time as _time

        _time.sleep(0.3)
        stop.set()
        for thread in threads:
            thread.join()
        assert errors == []


# -- the process-pool executor ----------------------------------------------
def _sleep_then_echo(state, task):
    index, seconds = task
    time.sleep(seconds)
    return index


def _setup_token():
    return os.urandom(8)


def _pid_and_state(state, task):
    return os.getpid(), state


def _raise_on_three(state, task):
    if task == 3:
        raise CensusError(f"bad root {task}")
    return task


class TestParallelMap:
    def test_results_keep_input_order_under_uneven_durations(self):
        # Early tasks are the slowest, so later ones finish first.
        tasks = [(i, 0.3 if i < 2 else 0.0) for i in range(6)]
        assert parallel_map(_sleep_then_echo, tasks, n_jobs=2) == list(range(6))

    def test_setup_runs_once_per_worker(self):
        results = parallel_map(
            _pid_and_state, range(8), n_jobs=2, setup=_setup_token
        )
        tokens_by_pid: dict = {}
        for pid, token in results:
            tokens_by_pid.setdefault(pid, set()).add(token)
        assert os.getpid() not in tokens_by_pid
        assert 1 <= len(tokens_by_pid) <= 2
        # One setup per worker: each worker saw one state, no two the same.
        assert all(len(tokens) == 1 for tokens in tokens_by_pid.values())
        assert len(set().union(*tokens_by_pid.values())) == len(tokens_by_pid)

    def test_in_process_path_runs_setup_once_and_records_globally(self):
        calls = []

        def setup(value):
            calls.append(value)
            return value

        def task(state, item):
            get_telemetry().count("test/tasks")
            return state + item

        with fresh_telemetry() as telemetry:
            assert parallel_map(
                task, [1, 2, 3], n_jobs=1, setup=setup, setup_args=(10,)
            ) == [11, 12, 13]
            # One task never needs a pool, whatever n_jobs says.
            assert parallel_map(
                task, [5], n_jobs=4, setup=setup, setup_args=(20,)
            ) == [25]
        assert calls == [10, 20]
        assert telemetry.counters["test/tasks"] == 4

    def test_no_setup_passes_setup_args_as_state(self):
        assert parallel_map(
            operator.getitem, [0, 2], n_jobs=1, setup_args=("a", "b", "c")
        ) == ["a", "c"]

    def test_worker_error_reraises_with_type_and_message(self):
        with pytest.raises(CensusError, match=r"^bad root 3$"):
            parallel_map(_raise_on_three, range(6), n_jobs=2)

    def test_empty_tasks_skip_setup(self):
        def setup():  # pragma: no cover - must not run
            raise AssertionError("setup ran for no tasks")

        assert parallel_map(operator.getitem, [], n_jobs=4, setup=setup) == []

    @pytest.mark.parametrize(
        "mp_context", ["spawn", multiprocessing.get_context("spawn")]
    )
    def test_spawn_start_method(self, mp_context):
        assert parallel_map(
            operator.getitem,
            [0, 2, 1],
            n_jobs=2,
            setup_args=("a", "b", "c"),
            mp_context=mp_context,
        ) == ["a", "c", "b"]


# -- telemetry parity: n_jobs changes where tasks run, not what they record --
#: Spans opened once per chunk of work: their call counts follow the
#: chunking, which depends on n_jobs by design.
_CHUNK_TIMERS = {"census/chunk", "forest/chunk"}


def _recorded(run) -> tuple:
    with fresh_telemetry() as telemetry:
        result = run()
    counts = {
        name: stat.count
        for name, stat in telemetry.timers.items()
        if name not in _CHUNK_TIMERS
    }
    return result, telemetry.counters, counts


def _assert_parity(make_run):
    serial_result, serial_counters, serial_counts = _recorded(make_run(1))
    pooled_result, pooled_counters, pooled_counts = _recorded(make_run(2))
    # approx: sampled-census counters are float sums, added per chunk.
    assert pooled_counters == pytest.approx(serial_counters, rel=1e-12)
    assert pooled_counts == serial_counts
    return serial_result, pooled_result


@pytest.fixture(scope="module")
def parity_graph():
    from repro.datasets.synthetic import affinity_graph

    return affinity_graph(
        label_sizes={"a": 40, "b": 30, "c": 20},
        affinity={("a", "b"): 1.0, ("b", "c"): 0.7, ("a", "c"): 0.3},
        mean_degree=4.0,
        rng=np.random.default_rng(0),
    )


class TestTelemetryParity:
    @pytest.mark.parametrize("engine", ["fast", "sampled"])
    def test_census_many(self, parity_graph, engine):
        from repro.core.features import SubgraphFeatureExtractor
        from repro.core.sampled import SampledCensusConfig

        roots = list(range(0, parity_graph.num_nodes, 2))
        sampled = SampledCensusConfig(budget=64) if engine == "sampled" else None

        def make_run(n_jobs):
            extractor = SubgraphFeatureExtractor(
                CensusConfig(max_edges=3),
                sampled=sampled,
                ctx=RunContext(engine=engine, n_jobs=n_jobs),
            )
            return lambda: extractor.census_many(parity_graph, roots)

        serial, pooled = _assert_parity(make_run)
        assert pooled == serial

    def test_partitioned_census(self, parity_graph):
        from repro.core.features import SubgraphFeatureExtractor

        roots = list(range(parity_graph.num_nodes))

        def make_run(n_jobs):
            extractor = SubgraphFeatureExtractor(
                CensusConfig(max_edges=2), n_jobs=n_jobs, partitions=3
            )
            return lambda: extractor.census_many(parity_graph, roots)

        serial, pooled = _assert_parity(make_run)
        assert pooled == serial

    def test_forest(self):
        rng = np.random.default_rng(0)
        X, y = rng.normal(size=(60, 5)), rng.normal(size=60)

        def make_run(n_jobs):
            forest = RandomForestRegressor(
                n_estimators=6, random_state=0, n_jobs=n_jobs
            )
            return lambda: forest.fit(X, y).predict(X)

        serial, pooled = _assert_parity(make_run)
        assert np.array_equal(pooled, serial)

    def test_uniform_walks(self, parity_graph):
        def make_run(n_jobs):
            return lambda: uniform_random_walks(
                parity_graph, num_walks=4, walk_length=6, rng=3, n_jobs=n_jobs
            )

        serial, pooled = _assert_parity(make_run)
        assert np.array_equal(pooled, serial)
