"""JSON run manifests: one auditable record per CLI invocation.

``repro census|features|embed|runtime|rank|label --telemetry-out run.json``
writes a manifest capturing *what the run did*: the resolved CLI config,
engine/n_jobs/version provenance, census and per-stage
artifact-store hit rates, per-phase and per-pipeline-stage wall clock,
every telemetry counter/timer/gauge, and peak RSS.  The schema is
documented in ``docs/observability.md``; bump :data:`SCHEMA_VERSION`
whenever a field changes meaning.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

from repro.obs.log import get_logger
from repro.obs.telemetry import Telemetry, get_telemetry

SCHEMA_VERSION = 1

#: Timer-name prefix marking coarse run phases (``phase/census`` ...);
#: the manifest surfaces these in their own section.
PHASE_PREFIX = "phase/"

#: Timer-name prefix of declared pipeline stages (``stage/dataset`` ...,
#: see :mod:`repro.runtime.pipeline`); surfaced as the ``stages`` section.
STAGE_PREFIX = "stage/"

#: Counter-name prefix of per-stage artifact-store lookups
#: (``artifact/census/hits`` ...); surfaced as the ``artifact_store``
#: section.
ARTIFACT_PREFIX = "artifact/"

logger = get_logger(__name__)


def peak_rss_kb() -> float | None:
    """Peak resident set size of this process in KiB (``None`` off-POSIX)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    peak = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if sys.platform == "darwin":  # pragma: no cover - reported in bytes there
        peak /= 1024.0
    return peak


def _json_safe(value):
    """Best-effort conversion of config values into JSON-encodable data."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_json_safe(v) for v in value]
    if isinstance(value, Path):
        return str(value)
    return repr(value)


def build_manifest(
    command: str,
    config: dict | None = None,
    telemetry: Telemetry | None = None,
    extra: dict | None = None,
) -> dict:
    """Assemble the manifest dict (see ``docs/observability.md``).

    ``config`` is the resolved run configuration (CLI args); ``extra``
    merges additional top-level sections provided by the command.
    """
    from repro import __version__  # local import: repro/__init__ imports obs

    telemetry = telemetry if telemetry is not None else get_telemetry()
    data = telemetry.as_dict()
    config = _json_safe(config or {})

    phases = {
        name[len(PHASE_PREFIX):]: stats
        for name, stats in data["timers"].items()
        if name.startswith(PHASE_PREFIX)
    }
    stages = {
        name[len(STAGE_PREFIX):]: stats
        for name, stats in data["timers"].items()
        if name.startswith(STAGE_PREFIX)
    }
    counters = data["counters"]
    hits = counters.get("census/cache_hits", 0)
    misses = counters.get("census/cache_misses", 0)
    looked_up = hits + misses
    census_cache = {
        "hits": hits,
        "misses": misses,
        "hit_rate": (hits / looked_up) if looked_up else 0.0,
        "dedup_saved": counters.get("census/dedup_saved", 0),
        "load_status": data["annotations"].get("cache/load_status"),
    }

    # Per-stage artifact-store accounting: every ArtifactStore lookup
    # counts into ``artifact/{stage}/hits|misses``, so a warm rerun is
    # auditable stage by stage (misses == 0 means the stage was skipped).
    artifact_stages: dict[str, dict] = {}
    for name, count in counters.items():
        if not name.startswith(ARTIFACT_PREFIX):
            continue
        parts = name.split("/", 2)
        if len(parts) != 3 or parts[2] not in ("hits", "misses"):
            continue
        entry = artifact_stages.setdefault(parts[1], {"hits": 0, "misses": 0})
        entry[parts[2]] = count
    for entry in artifact_stages.values():
        entry_lookups = entry["hits"] + entry["misses"]
        entry["hit_rate"] = (entry["hits"] / entry_lookups) if entry_lookups else 0.0
    # Store-wide residency recorded by ``ArtifactStore.record_stats`` as
    # ``store/*`` gauges (entry counts, evictions, approximate payload
    # bytes); absent when the run never touched a store.
    gauges = data["gauges"]
    stage_entries_prefix = "store/entries/"
    for name, value in gauges.items():
        if name.startswith(stage_entries_prefix):
            stage = name[len(stage_entries_prefix):]
            entry = artifact_stages.setdefault(stage, {"hits": 0, "misses": 0})
            entry["entries"] = int(value)
    artifact_store = {
        "stages": artifact_stages,
        "load_status": data["annotations"].get("cache/load_status"),
        "path": data["annotations"].get("cache/path"),
    }
    if "store/entries" in gauges:
        artifact_store["entries"] = int(gauges["store/entries"])
        artifact_store["evictions"] = int(gauges.get("store/evictions", 0))
        artifact_store["approx_payload_bytes"] = int(
            gauges.get("store/approx_payload_bytes", 0)
        )

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "created_unix": time.time(),
        "config": config,
        "provenance": {
            "engine": config.get("engine") if isinstance(config, dict) else None,
            "n_jobs": config.get("n_jobs") if isinstance(config, dict) else None,
            "repro_version": __version__,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "annotations": data["annotations"],
        },
        "census_cache": census_cache,
        "artifact_store": artifact_store,
        "phases": phases,
        "stages": stages,
        "counters": counters,
        "timers": data["timers"],
        "gauges": data["gauges"],
        # Latency-style histograms recorded via Telemetry.observe(); each
        # entry carries count/mean/min/max and p50/p90/p99 estimates (the
        # serving daemon's ``serve/latency_s`` lands here).
        "distributions": data.get("distributions", {}),
        "peak_rss_kb": peak_rss_kb(),
    }
    if extra:
        manifest.update(_json_safe(extra))
    return manifest


def write_manifest(
    path: str | Path,
    command: str,
    config: dict | None = None,
    telemetry: Telemetry | None = None,
    extra: dict | None = None,
) -> Path:
    """Build the manifest and write it to ``path`` as indented JSON."""
    target = Path(path)
    manifest = build_manifest(command, config=config, telemetry=telemetry, extra=extra)
    target.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    logger.info("telemetry manifest -> %s", target)
    return target
