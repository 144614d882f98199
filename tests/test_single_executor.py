"""Repo-policy check: one process-pool executor for the whole library.

Every parallel site under ``src/repro/`` fans its tasks through
:func:`repro.runtime.executor.parallel_map`, which owns the process
pool, the per-worker setup and the telemetry merge.  No other module may
import ``ProcessPoolExecutor`` or ``multiprocessing``, or keep a
per-worker state dict (``_WORKER_STATE`` / ``_WALK_STATE``) of its own.
"""

from __future__ import annotations

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The one module allowed to own a process pool.
ALLOWED = SRC / "runtime" / "executor.py"

FORBIDDEN = re.compile(
    r"\bProcessPoolExecutor\b"
    r"|^\s*(?:import|from)\s+multiprocessing\b"
    r"|^\s*_(?:WORKER|WALK)_STATE\s*[:=]"
)


def iter_offenders():
    for path in sorted(SRC.rglob("*.py")):
        if path == ALLOWED:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            stripped = line.lstrip()
            if stripped.startswith("#"):
                continue
            if FORBIDDEN.search(line):
                yield f"{path.relative_to(SRC.parent)}:{lineno}: {stripped}"


def test_process_pools_only_in_the_executor():
    offenders = list(iter_offenders())
    assert not offenders, (
        "process pool outside repro.runtime.executor; fan tasks out with "
        "repro.runtime.executor.parallel_map instead:\n" + "\n".join(offenders)
    )
