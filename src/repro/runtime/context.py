"""Execution context: one object answering "how should this run execute?".

Before this layer existed every stage of the library grew its own
``engine=``/``n_jobs=`` keyword pair with subtly different validation
(``census.py`` raised :class:`~repro.exceptions.CensusError` without
naming the choices, ``walks.py`` said "unknown walk engine", ``forest.py``
enumerated its tuple) and its own cache handle.  :class:`RunContext`
bundles those execution concerns — engine selection, worker count, seed
policy, the telemetry registry, and the :class:`~repro.runtime.store.ArtifactStore`
handle — into a single object that every layer accepts as ``ctx=``.

Legacy call signatures keep working: public entry points still take
their old ``engine=``/``n_jobs=`` keywords and route them through
:meth:`RunContext.ensure`, the deprecation shim that builds (or
specialises) a context from them.  New code should construct one context
per run and pass it down.

:func:`resolve_engine` is the single validator behind every engine
dispatch; its error message always enumerates the valid choices, so a
typo'd ``--engine`` reads the same no matter which stage rejects it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

from repro.obs.telemetry import Telemetry, get_telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.runtime.store import ArtifactStore


#: The engine registry — the single source of truth for engine names.
#: Every ``--engine`` choice list and every ``resolve_engine`` call site
#: derives from these constants instead of repeating string literals.
ENGINE_FAST = "fast"
ENGINE_REFERENCE = "reference"
ENGINE_SAMPLED = "sampled"

#: Engines that produce bit-identical exact results (interchangeable for
#: cache keys and any stage without a sampled implementation).
EXACT_ENGINES = (ENGINE_FAST, ENGINE_REFERENCE)

#: Every engine the library knows about.  Only the census implements
#: ``"sampled"``; stages without an approximate path validate against
#: :data:`EXACT_ENGINES`.
VALID_ENGINES = (ENGINE_FAST, ENGINE_REFERENCE, ENGINE_SAMPLED)

#: Where the sharded census fan-out executes: a local process pool, or
#: ``repro worker`` daemons reached over :mod:`repro.net`.
EXECUTOR_LOCAL = "local"
EXECUTOR_REMOTE = "remote"
VALID_EXECUTORS = (EXECUTOR_LOCAL, EXECUTOR_REMOTE)


def resolve_engine(
    name: str,
    choices: Sequence[str],
    *,
    param: str = "engine",
    error: type[Exception] = ValueError,
) -> str:
    """Validate an engine spec against ``choices``.

    Returns ``name`` unchanged when valid; otherwise raises ``error`` with
    a message that *always* enumerates the valid choices — the unified
    wording every call site shares::

        unknown engine 'turbo': valid choices are 'fast', 'reference'

    ``param`` names the parameter in the message (``"engine"``,
    ``"walk engine"``, ...); ``error`` lets domain layers keep their
    exception hierarchy (the census raises :class:`CensusError`).
    """
    if name in choices:
        return name
    listed = ", ".join(repr(str(choice)) for choice in choices)
    raise error(f"unknown {param} {name!r}: valid choices are {listed}")


def resolve_n_jobs(n_jobs) -> int:
    """Map an ``n_jobs`` spec to a worker count: ``0``/``None``/"auto" = all cores."""
    if n_jobs is None or n_jobs == 0 or n_jobs == "auto":
        return max(1, os.cpu_count() or 1)
    count = int(n_jobs)
    if count < 1:
        raise ValueError(f"n_jobs must be >= 1 (or 0/None for auto), got {n_jobs}")
    return count


@dataclass
class RunContext:
    """Execution policy for one run.

    Every field defaults to ``None`` meaning *unset* — resolution helpers
    fall back to the caller's legacy default, so a context only overrides
    what it explicitly carries.  This is what lets the :meth:`ensure` shim
    layer a context under existing keyword arguments without changing any
    default behaviour.

    Attributes
    ----------
    engine:
        Implementation selector shared by the census, walk/SGNS/LINE, and
        forest engines (each validates against its own choice tuple via
        :meth:`resolve_engine`).
    n_jobs:
        Worker-process count; ``0``/``"auto"`` means all cores.  Stages
        resolve it through :meth:`resolved_n_jobs`.
    partitions:
        Shard count for the partitioned census (see :mod:`repro.dist`);
        ``None`` keeps the single-shard root-fanning path.  Stages
        resolve it through :meth:`resolved_partitions`.
    executor:
        Where shard tasks run: ``"local"`` (process pool) or
        ``"remote"`` (``repro worker`` daemons over :mod:`repro.net`).
        Resolved through :meth:`resolved_executor`.
    workers:
        Worker endpoint specs (``host:port`` / ``unix:path``) for
        ``executor="remote"``.
    seed:
        Base RNG seed for stages that need one (embedding pipelines, the
        experiment drivers).
    store:
        Optional :class:`~repro.runtime.store.ArtifactStore`; stages that
        support artifact caching consult it and a warm store lets a rerun
        skip the stage entirely.
    telemetry:
        Registry to record into; ``None`` uses the process-global one.
    """

    engine: str | None = None
    n_jobs: int | None = None
    partitions: int | None = None
    executor: str | None = None
    workers: "tuple | list | None" = None
    seed: int | None = None
    store: "ArtifactStore | None" = None
    telemetry: Telemetry | None = field(default=None, repr=False)

    # -- construction shims ------------------------------------------------
    @classmethod
    def ensure(cls, ctx: "RunContext | None" = None, **overrides) -> "RunContext":
        """The deprecation shim behind every legacy call signature.

        Returns ``ctx`` specialised with any non-``None`` keyword
        overrides (``engine=``, ``n_jobs=``, ``seed=``, ``store=``), or a
        fresh context built from just the overrides when ``ctx`` is
        ``None``.  Explicit legacy keywords therefore keep winning over a
        passed context, which is exactly how the pre-context signatures
        behaved.
        """
        base = ctx if ctx is not None else cls()
        updates = {
            key: value for key, value in overrides.items() if value is not None
        }
        return replace(base, **updates) if updates else base

    # -- resolution --------------------------------------------------------
    def resolve_engine(
        self,
        choices: Sequence[str],
        *,
        default: str = "fast",
        param: str = "engine",
        error: type[Exception] = ValueError,
    ) -> str:
        """The context engine (or ``default``), validated against ``choices``."""
        name = self.engine if self.engine is not None else default
        return resolve_engine(name, choices, param=param, error=error)

    def resolved_n_jobs(self, default: int = 1) -> int:
        """The context worker count (or ``default``), ``0``/"auto"-expanded."""
        spec = self.n_jobs if self.n_jobs is not None else default
        return resolve_n_jobs(spec)

    def resolved_partitions(self, default: int | None = None) -> int | None:
        """The census shard count, or ``default`` when unset (validated)."""
        spec = self.partitions if self.partitions is not None else default
        if spec is None:
            return None
        count = int(spec)
        if count < 1:
            raise ValueError(f"partitions must be >= 1, got {spec}")
        return count

    def resolved_executor(self, default: str = EXECUTOR_LOCAL) -> str:
        """The shard executor (or ``default``), validated."""
        name = self.executor if self.executor is not None else default
        return resolve_engine(name, VALID_EXECUTORS, param="executor")

    def resolved_seed(self, default: int = 0) -> int:
        """The context seed, or ``default`` when unset."""
        return int(self.seed) if self.seed is not None else default

    # -- conveniences ------------------------------------------------------
    @property
    def telemetry_registry(self) -> Telemetry:
        """The registry to record into (context-local or process-global)."""
        return self.telemetry if self.telemetry is not None else get_telemetry()

    def span(self, name: str):
        """Shortcut for ``ctx.telemetry_registry.span(name)``."""
        return self.telemetry_registry.span(name)

    def annotate_provenance(self, prefix: str = "run") -> None:
        """Record the resolved execution policy into the run telemetry.

        Lands in the manifest's provenance annotations uniformly
        (``run/engine``, ``run/n_jobs``, ``run/seed``, ``run/store``),
        replacing the per-command ``_annotate_experiment`` helpers the CLI
        used to carry.
        """
        telemetry = self.telemetry_registry
        if self.engine is not None:
            telemetry.annotate(f"{prefix}/engine", self.engine)
        if self.n_jobs is not None:
            telemetry.annotate(f"{prefix}/n_jobs", self.resolved_n_jobs())
        if self.partitions is not None:
            telemetry.annotate(f"{prefix}/partitions", self.resolved_partitions())
        if self.executor is not None:
            telemetry.annotate(f"{prefix}/executor", self.resolved_executor())
        if self.workers:
            telemetry.annotate(f"{prefix}/workers", len(self.workers))
        if self.seed is not None:
            telemetry.annotate(f"{prefix}/seed", self.seed)
        if self.store is not None and self.store.path is not None:
            telemetry.annotate(f"{prefix}/store", self.store.path)
