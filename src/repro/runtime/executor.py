"""The one process-pool executor behind every parallel site.

The paper parallelises the census by start node, every worker reading
one shared edge list.  The library makes that decision at seven sites —
census roots, graph shards, walk epochs, LINE orders, forest tree
chunks, the rank grid and the label sweep — and all of them go through
:func:`parallel_map`:

* ``setup(*setup_args)`` builds the read-only state the tasks share.
  In-process it runs once; in a pool it runs once per worker, inside the
  worker (the pool initializer), so the graph ships once per worker and
  each worker builds its own state in parallel.
* Every task runs the same body, ``fn(state, task)``, in both modes.  A
  pool task runs under a fresh telemetry registry; the parent merges the
  snapshots in task order.  Telemetry therefore does not depend on
  ``n_jobs``, and callers that pre-draw their seeds get bit-identical
  results at any worker count.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable

from repro.obs.telemetry import fresh_telemetry, get_telemetry

# The task body and shared state of this pool worker, set by _init_worker.
_worker_fn: Callable | None = None
_worker_state: Any = None


def _build_state(setup, setup_args):
    return setup(*setup_args) if setup is not None else setup_args


def _init_worker(fn, setup, setup_args) -> None:
    global _worker_fn, _worker_state
    _worker_fn = fn
    _worker_state = _build_state(setup, setup_args)


def _run_task(task):
    with fresh_telemetry() as telemetry:
        result = _worker_fn(_worker_state, task)
    return result, telemetry.snapshot()


def parallel_map(
    fn: Callable[[Any, Any], Any],
    tasks: Iterable,
    *,
    n_jobs: int,
    setup: Callable | None = None,
    setup_args: tuple = (),
    mp_context=None,
) -> list:
    """``[fn(state, task) for task in tasks]``, over up to ``n_jobs`` processes.

    ``state`` is ``setup(*setup_args)``, or ``setup_args`` itself when
    ``setup`` is ``None``.  With ``min(n_jobs, len(tasks)) <= 1`` the
    tasks run in this process and record straight into the global
    telemetry registry; otherwise they run on a process pool of that many
    workers and their telemetry is merged back in task order.  Results
    come back in input order either way, and a task's exception re-raises
    here with its own type and message.

    ``fn`` and ``setup`` must be picklable (module-level functions) for
    the ``"spawn"`` and ``"forkserver"`` start methods.  ``mp_context`` is
    a start-method name, a ready context object, or ``None`` for the
    platform default.
    """
    tasks = list(tasks)
    workers = min(n_jobs, len(tasks))
    if workers <= 1:
        if not tasks:
            return []
        state = _build_state(setup, setup_args)
        return [fn(state, task) for task in tasks]
    if isinstance(mp_context, str):
        mp_context = multiprocessing.get_context(mp_context)
    telemetry = get_telemetry()
    results = []
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=mp_context,
        initializer=_init_worker,
        initargs=(fn, setup, setup_args),
    ) as pool:
        for result, snapshot in pool.map(_run_task, tasks):
            telemetry.merge(snapshot)
            results.append(result)
    return results
