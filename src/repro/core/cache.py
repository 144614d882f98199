"""Per-root census memoisation through the artifact store.

Rank and label experiments repeatedly census the same roots under the
same :class:`~repro.core.census.CensusConfig` — ablation grids, repeated
train/test splits, and the CLI all re-touch overlapping node sets.  The
census is deterministic given ``(graph, config, root)``, so its results
are memoised in the :class:`repro.runtime.store.ArtifactStore` under the
``"census"`` stage, next to walk corpora, embeddings and feature
matrices.  :func:`get_census` and :func:`put_census` are the lookup and
write-back; this module is the one place that knows how a census is
keyed (:func:`census_config_key`, :func:`census_store_config`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

from repro.core.census import CensusConfig, _cap_exceeded, census_total
from repro.core.graph import HeteroGraph
from repro.core.sampled import SampledCensusConfig, sampled_config_key
from repro.runtime.store import STAGE_CENSUS, ArtifactStore

# Kept importable: perfbench/tracer.py wraps repro.core.cache.artifact_key.
from repro.runtime.store import artifact_key  # noqa: F401


def census_config_key(
    config: CensusConfig, sampled: SampledCensusConfig | None = None
) -> tuple:
    """Flatten a census config to the plain tuple used in cache keys.

    Flattening (rather than keying on the dataclass) keeps keys
    comparable across library versions that add config fields with
    defaults — and keeps a pickled store independent of the
    ``CensusConfig`` class itself.

    A sampled census keys on the estimator knobs too (budget, seed,
    rel_err, ...) via a tuple *suffix*, so sampled estimates can never
    collide with exact counts — nor with estimates under a different
    budget or seed — while every exact key stays byte-identical to what
    older stores hold.
    """
    key = (
        config.max_edges,
        config.max_degree,
        config.mask_start_label,
        config.key,
        config.group_by_label,
        config.include_trivial,
        config.max_subgraphs,
    )
    if sampled is not None:
        key += sampled_config_key(sampled)
    return key


def census_store_config(
    config: CensusConfig,
    root: int,
    sampled: SampledCensusConfig | None = None,
) -> tuple:
    """The artifact-store stage config for one rooted census.

    The serving daemon's repair path addresses census entries directly on
    the store (to migrate unaffected roots between graph fingerprints
    without recomputing them), so it derives keys here too.
    """
    return (*census_config_key(config, sampled), int(root))


def get_census(
    store: ArtifactStore,
    graph: HeteroGraph,
    config: CensusConfig,
    root: int,
    sampled: SampledCensusConfig | None = None,
) -> Counter | None:
    """The stored census for ``root``, or ``None`` on a miss.

    A capped exact request (``config.max_subgraphs`` set) that misses
    also consults the *uncapped* entry for the same config: a stored
    total at or under the cap is exactly what the capped census would
    have produced, so it is served; a total over the cap means the live
    census would have raised, so this raises the same
    :class:`~repro.exceptions.CensusError` instead of serving a result
    the caller asked to be protected from.
    """
    fingerprint = graph.fingerprint()
    census = store.get(
        fingerprint, STAGE_CENSUS, census_store_config(config, root, sampled)
    )
    cap = config.max_subgraphs
    if census is None and cap is not None and sampled is None:
        uncapped = replace(config, max_subgraphs=None)
        census = store.get(
            fingerprint, STAGE_CENSUS, census_store_config(uncapped, root)
        )
        if census is not None and census_total(census) > cap:
            raise _cap_exceeded(root, cap)
    return census


def put_census(
    store: ArtifactStore,
    graph: HeteroGraph,
    config: CensusConfig,
    root: int,
    census: Counter,
    sampled: SampledCensusConfig | None = None,
) -> None:
    """Store the census for ``root`` (overwrites any existing entry)."""
    store.put(
        graph.fingerprint(),
        STAGE_CENSUS,
        census_store_config(config, root, sampled),
        census,
    )
