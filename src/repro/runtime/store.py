"""Content-addressed artifact store shared by every pipeline stage.

Census counters, walk corpora, embedding matrices, and feature matrices
all memoise through one store, so a warm rerun of ``repro rank``/``repro
label``/``repro runtime`` skips every already-computed stage end to end.
Per-root census keys and the capped-census fallback live in
:mod:`repro.core.cache`.

Keys are content-addressed triples::

    (graph fingerprint, stage name, frozen stage config)

The fingerprint (see :meth:`repro.core.graph.HeteroGraph.fingerprint`)
hashes the labelled structure, the stage name namespaces artifact kinds
(``"census"``, ``"walks"``, ``"embed"``, ``"features"``), and the frozen
config captures every parameter the artifact depends on — a different
graph, stage, or parameterisation simply misses, so the store never
serves stale results.

Durability semantics:

* :meth:`ArtifactStore.save` writes a temp file in the target directory
  (creating the directory if needed) and atomically ``os.replace``\\ s it
  over the destination — a crash mid-save (including ``kill -9``) can
  never corrupt an existing file;
* a file that fails to load (corrupt bytes, old format version) is
  reported through ``logging`` and :attr:`ArtifactStore.load_status`
  instead of silently looking like an empty store;
* optional LRU eviction bounds the entry count across *all* stages,
  with per-stage protected floors so a flood of cheap entries cannot
  evict the expensive, tiny artifacts of another stage.

The store is thread-safe: every dict mutation and every snapshot taken
for persistence/stats happens under one re-entrant lock, so the serving
daemon's concurrent readers and writers (see :mod:`repro.serve`) share
one store without torn reads or lost updates.  Stored values are never
mutated in place (both :meth:`ArtifactStore.get` and
:meth:`ArtifactStore.put` copy), so payload copying can safely happen
outside the lock.
"""

from __future__ import annotations

import copy
import os
import pickle
import tempfile
import threading
from collections import Counter
from pathlib import Path
from typing import Mapping

from repro.obs.log import get_logger
from repro.obs.telemetry import get_telemetry

#: Bumped whenever the on-disk layout changes; mismatching files are
#: ignored rather than risking unpickling into the wrong shape.  Version 1
#: was the census-only layout; version 2 introduced the
#: ``(fingerprint, stage, config)`` key scheme.
_FORMAT_VERSION = 2

#: Canonical stage names used by the built-in pipelines.  Stage names are
#: open-ended — these exist so the layers agree on spelling.
STAGE_CENSUS = "census"
STAGE_WALKS = "walks"
STAGE_EMBED = "embed"
STAGE_FEATURES = "features"
STAGE_PARTITION = "partition"

#: Default per-stage eviction floors: the last N entries of these stages
#: are never evicted to make room for another stage's flood.  Partition
#: sets and embedding matrices are exactly the "expensive to rebuild,
#: few in number" artifacts a census burst used to wash out.
DEFAULT_STAGE_FLOORS: Mapping[str, int] = {
    STAGE_PARTITION: 4,
    STAGE_EMBED: 4,
}

ArtifactKey = tuple[str, str, tuple]

logger = get_logger(__name__)


def freeze_config(value):
    """Recursively convert a stage config into a hashable, picklable key.

    Dicts become sorted ``(key, value)`` tuples, sequences become tuples,
    sets become sorted tuples; scalars pass through.  Dataclass configs
    should be flattened by the caller (field order is part of the key) —
    see ``repro.core.cache.census_config_key`` for the census example.
    """
    if isinstance(value, Mapping):
        return tuple(
            (str(key), freeze_config(value[key])) for key in sorted(value)
        )
    if isinstance(value, (list, tuple)):
        return tuple(freeze_config(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(freeze_config(item) for item in value))
    return value


def artifact_key(fingerprint: str, stage: str, config) -> ArtifactKey:
    """The content address of one stage artifact."""
    return (str(fingerprint), str(stage), freeze_config(config))


def _copy_artifact(value):
    """Defensive copy so callers mutating a hit cannot corrupt later hits.

    ``numpy`` arrays get a C-level ``.copy()`` and ``Counter`` values (the
    census artifact — by far the hottest lookup in the serving path) get a
    shallow ``.copy()``, which is exact because their keys and counts are
    immutable and which preserves ``SampledCensus`` subclasses along with
    their confidence reports; everything else (tuples of arrays,
    dataclasses of plain data) goes through :func:`copy.deepcopy`.
    """
    copier = getattr(value, "copy", None)
    if copier is not None and type(value).__module__ == "numpy":
        return copier()
    if isinstance(value, Counter):
        return value.copy()
    return copy.deepcopy(value)


class ArtifactStore:
    """Content-addressed artifact memo with optional pickle persistence.

    Parameters
    ----------
    path:
        Optional file backing the store.  When given, existing entries are
        loaded eagerly and :meth:`save` writes the current contents back
        (atomically).  :attr:`load_status` records how the eager load
        went: ``None`` (no path), ``"missing"`` (no file yet),
        ``"loaded"``, ``"corrupt"``, or ``"version-mismatch"``.
    max_entries:
        Optional bound on the number of retained entries across all
        stages; inserting beyond it evicts the least-recently-used
        entries (every :meth:`get` hit and :meth:`put` overwrite
        refreshes an entry's recency).  ``None`` (default) never evicts.
    stage_floors:
        Per-stage protected floors for eviction: an entry is skipped by
        the eviction scan whenever removing it would drop its stage's
        entry count to below (or at) the floor, so e.g. a flood of
        census entries can never push out the last few ``partition`` or
        ``embed`` artifacts.  Defaults to :data:`DEFAULT_STAGE_FLOORS`;
        pass ``{}`` to disable protection.  When nothing is evictable
        the store temporarily overflows ``max_entries`` rather than
        dropping a protected artifact.

    Hits and misses are tracked globally (:attr:`hits`/:attr:`misses`)
    and per stage (:attr:`stage_hits`/:attr:`stage_misses`), and every
    lookup is counted in the run telemetry as ``artifact/{stage}/hits``
    or ``artifact/{stage}/misses`` — the run manifest's per-stage cache
    accounting reads exactly those counters.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        max_entries: int | None = None,
        *,
        stage_floors: Mapping[str, int] | None = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.path = Path(path) if path is not None else None
        self.max_entries = max_entries
        self.stage_floors = dict(
            DEFAULT_STAGE_FLOORS if stage_floors is None else stage_floors
        )
        # One re-entrant lock guards _entries, _stage_counts, and the
        # hit/miss/eviction tallies; re-entrant because locked methods
        # (save, stats) call other locked methods.
        self._lock = threading.RLock()
        self._entries: dict[ArtifactKey, object] = {}
        self._stage_counts: Counter = Counter()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stage_hits: dict[str, int] = {}
        self.stage_misses: dict[str, int] = {}
        self.load_status: str | None = None
        if self.path is not None:
            if self.path.exists():
                self._load(self.path)
            else:
                self.load_status = "missing"
                get_telemetry().annotate("cache/load_status", self.load_status)

    # -- persistence ------------------------------------------------------
    def _load(self, path: Path) -> None:
        telemetry = get_telemetry()
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        # Corrupt bytes surface from pickle as almost any exception type
        # (the docs name UnpicklingError, AttributeError, EOFError,
        # ImportError, and IndexError; garbage opcodes also raise
        # ValueError/KeyError), so treat every failure as a corrupt file.
        except Exception as exc:
            self.load_status = "corrupt"
            telemetry.count("cache/load_corrupt")
            telemetry.annotate("cache/load_status", self.load_status)
            logger.warning(
                "artifact store %s is unreadable (%s: %s); starting empty "
                "— the next save() will replace it",
                path,
                type(exc).__name__,
                exc,
            )
            return
        if (
            isinstance(payload, dict)
            and payload.get("version") == _FORMAT_VERSION
            and isinstance(payload.get("entries"), dict)
        ):
            with self._lock:
                self._entries.update(payload["entries"])
                self._stage_counts = Counter(
                    stage for _fp, stage, _cfg in self._entries
                )
            self.load_status = "loaded"
            telemetry.count("cache/loads")
            telemetry.count("cache/load_entries", len(payload["entries"]))
        else:
            found = payload.get("version") if isinstance(payload, dict) else None
            self.load_status = "version-mismatch"
            telemetry.count("cache/load_version_mismatch")
            logger.warning(
                "artifact store %s has format version %r (expected %d); "
                "ignoring its contents — the next save() will upgrade it",
                path,
                found,
                _FORMAT_VERSION,
            )
        telemetry.annotate("cache/load_status", self.load_status)

    def save(self, path: str | Path | None = None) -> Path:
        """Atomically write the store to ``path`` (default: constructor path).

        The payload is written to a temp file in the destination
        directory and moved into place with :func:`os.replace`, so an
        interrupted save never clobbers the previous on-disk contents; a
        crash can only leave a stray temp file behind.  A missing
        destination directory is created first.
        """
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("artifact store has no path; pass one to save()")
        # Snapshot under the lock, pickle outside it: entries are never
        # mutated in place (only replaced), so the shallow copy is a
        # consistent point-in-time view even while other threads write.
        with self._lock:
            entries = dict(self._entries)
        payload = {"version": _FORMAT_VERSION, "entries": entries}
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=target.parent, prefix=f"{target.name}.", suffix=".tmp"
        )
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, target)
        telemetry = get_telemetry()
        telemetry.count("cache/saves")
        telemetry.count("cache/save_entries", len(entries))
        # Every persisted run gets store-wide stats in its manifest for
        # free (entry counts per stage, evictions, payload size).
        self.record_stats(telemetry)
        logger.debug("artifact store saved: %d entries -> %s", len(entries), target)
        return target

    # -- memoisation ------------------------------------------------------
    def get(self, fingerprint: str, stage: str, config):
        """The stored artifact for the address, or ``None`` on a miss.

        A hit refreshes the entry's recency (touch-on-get), so LRU
        eviction spares working-set entries that are read repeatedly.
        """
        key = artifact_key(fingerprint, stage, config)
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                self.misses += 1
                self.stage_misses[stage] = self.stage_misses.get(stage, 0) + 1
            else:
                # Reinsert at the newest position: dicts iterate in
                # insertion order, so the eviction scan sees true LRU.
                self._entries[key] = entry
                self.hits += 1
                self.stage_hits[stage] = self.stage_hits.get(stage, 0) + 1
        if entry is None:
            get_telemetry().count(f"artifact/{stage}/misses")
            return None
        get_telemetry().count(f"artifact/{stage}/hits")
        # Copy outside the lock: stored values are only ever replaced,
        # never mutated, so the reference stays consistent.
        return _copy_artifact(entry)

    def _evict_locked(self) -> int:
        """Evict LRU entries to fit ``max_entries``; honours stage floors.

        Caller holds the lock, has already counted the incoming entry in
        ``_stage_counts``, and inserts it after this returns.  Entries
        are scanned oldest-first; one whose removal would leave its
        stage with fewer than its floor's worth of entries is skipped.
        Returns the number of evictions (0 when everything left is
        protected — the store then overflows rather than dropping a
        protected artifact).
        """
        overshoot = len(self._entries) - self.max_entries + 1
        if overshoot <= 0:
            return 0
        floors = self.stage_floors
        victims: list[ArtifactKey] = []
        if floors:
            # Track how many entries each stage would retain as victims
            # accumulate, so a floor cannot be breached by evicting two
            # entries of one protected stage in a single scan.
            remaining = Counter(self._stage_counts)
            for key in self._entries:
                stage = key[1]
                if remaining[stage] - 1 < floors.get(stage, 0):
                    continue
                remaining[stage] -= 1
                victims.append(key)
                if len(victims) == overshoot:
                    break
        else:
            victims = [
                key
                for key, _ in zip(self._entries, range(overshoot))
            ]
        for key in victims:
            del self._entries[key]
            self._stage_counts[key[1]] -= 1
        self.evictions += len(victims)
        return len(victims)

    def put(self, fingerprint: str, stage: str, config, value) -> None:
        """Store an artifact (overwrites any existing entry at the address).

        When ``max_entries`` is set, inserting a novel key beyond the
        bound evicts the least-recently-used entries first, skipping
        entries protected by a stage floor (see the constructor docs).
        An overwrite also refreshes the entry's recency.
        """
        key = artifact_key(fingerprint, stage, config)
        stored = _copy_artifact(value)
        evicted = 0
        with self._lock:
            if key in self._entries:
                # Refresh recency on overwrite; never triggers eviction.
                del self._entries[key]
            else:
                self._stage_counts[stage] += 1
                if self.max_entries is not None:
                    evicted = self._evict_locked()
            self._entries[key] = stored
        if evicted:
            get_telemetry().count("cache/evictions", evicted)

    def discard(self, fingerprint: str, stage: str, config) -> bool:
        """Drop the entry at the address, if present; returns whether it was.

        Used by the serving daemon's repair path to retire entries keyed
        under a superseded graph fingerprint after migrating them; a
        discard is not an eviction (it counts in neither tally).
        """
        key = artifact_key(fingerprint, stage, config)
        with self._lock:
            if key not in self._entries:
                return False
            del self._entries[key]
            self._stage_counts[stage] -= 1
            return True

    def move(self, fingerprint: str, new_fingerprint: str, stage: str, config) -> bool:
        """Atomically re-address one entry under a new fingerprint.

        The serve-layer key migration used to emulate this with
        ``get()`` + ``discard()`` + ``put()``, which deep-copied the
        artifact twice per migrated root and polluted the hit counters
        — and therefore :meth:`stats`'s hit-rate and payload accounting
        — with pure bookkeeping traffic.  ``move`` re-keys the stored
        object in place under the lock: no copies, no hit/miss
        mutation, and exact stage entry counts (a pre-existing entry at
        the destination is replaced, never double-counted).  The moved
        entry lands at the newest LRU position, matching the recency
        refresh the old emulation produced.  Returns whether a source
        entry existed.
        """
        src = artifact_key(fingerprint, stage, config)
        dst = artifact_key(new_fingerprint, stage, config)
        with self._lock:
            entry = self._entries.pop(src, None)
            if entry is None:
                return False
            if dst in self._entries:
                del self._entries[dst]
                self._stage_counts[stage] -= 1
            self._entries[dst] = entry
            return True

    # -- introspection ----------------------------------------------------
    def stage_stats(self) -> dict[str, dict[str, int]]:
        """Per-stage ``{"hits": ..., "misses": ..., "entries": ...}`` view."""
        with self._lock:
            stages: dict[str, dict[str, int]] = {}
            for name in set(self.stage_hits) | set(self.stage_misses):
                stages[name] = {
                    "hits": self.stage_hits.get(name, 0),
                    "misses": self.stage_misses.get(name, 0),
                    "entries": 0,
                }
            for stage, count in self._stage_counts.items():
                if not count:
                    continue
                stages.setdefault(stage, {"hits": 0, "misses": 0, "entries": 0})
                stages[stage]["entries"] = count
            return stages

    def approx_payload_bytes(self) -> int:
        """Approximate pickled size of all stored artifacts, in bytes.

        Computed on demand (one pickle pass over the entries), not per
        ``put`` — call it at manifest/save time, not in hot loops.
        """
        with self._lock:
            entries = list(self._entries.values())
        return sum(
            len(pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL))
            for entry in entries
        )

    def stats(self) -> dict:
        """Store-wide summary: totals, per-stage breakdown, payload size."""
        with self._lock:
            head = {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
        head["approx_payload_bytes"] = self.approx_payload_bytes()
        head["stages"] = self.stage_stats()
        return head

    def record_stats(self, telemetry=None) -> dict:
        """Record :meth:`stats` into the run telemetry (``store/*`` gauges).

        The run manifest's ``artifact_store`` section reads exactly
        these gauges, so partition-artifact reuse (and every other
        stage's residency) is visible alongside census hit rates.
        Returns the recorded stats dict.
        """
        telemetry = telemetry if telemetry is not None else get_telemetry()
        stats = self.stats()
        telemetry.gauge("store/entries", stats["entries"])
        telemetry.gauge("store/evictions", stats["evictions"])
        telemetry.gauge("store/approx_payload_bytes", stats["approx_payload_bytes"])
        for stage, entry in stats["stages"].items():
            telemetry.gauge(f"store/entries/{stage}", entry["entries"])
        return stats

    def stage_entries(self, stage: str) -> int:
        """Number of stored entries belonging to one stage."""
        with self._lock:
            return int(self._stage_counts.get(stage, 0))

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: ArtifactKey) -> bool:
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._stage_counts.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.stage_hits.clear()
            self.stage_misses.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ArtifactStore(entries={len(self._entries)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
