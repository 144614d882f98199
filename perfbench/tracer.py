"""Spans recorded from outside the program, around each layer's public calls.

``install(Tracer(out_dir))`` replaces every call named in ``TARGETS`` with
a wrapper at the place its caller looks it up: a class attribute for
methods, the importing module's global for functions imported by name
(``deepwalk.py`` binds ``uniform_random_walks`` at import, so that is
where the walks are wrapped).  Each span records its id, parent, name,
pid, thread, start and end; spans are kept in memory and written to
``spans-<pid>.jsonl`` at the end.

Forked pool workers inherit the wrappers.  Each worker clears the buffer
it inherited, keeps the open-span stack of the thread that forked it (so
its spans hang under the span that dispatched the pool) and writes its
own file when it exits.  ``summarize`` merges the files and computes
self times: a span's duration minus the part of it its children cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import multiprocessing.util
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

#: (module, attribute, span name, options).  ``absorb`` makes calls nested
#: inside the span part of it (a forest's trees are the forest's time);
#: ``count`` maps the call's arguments to a work count for the span name.
TARGETS = [
    ("repro.datasets.mag", "SyntheticMAG.build_rank_graph", "datasets.rank_graph", {}),
    (
        "repro.core.features",
        "SubgraphFeatureExtractor.census_many",
        "core.census",
        {"count": lambda args, kwargs: len(args[2])},
    ),
    ("repro.core.features", "FeatureSpace.fit", "core.features", {}),
    ("repro.core.features", "FeatureSpace.to_matrix", "core.features", {}),
    (
        "repro.experiments.classic_features",
        "ClassicFeatureExtractor.matrix",
        "experiments.classic",
        {},
    ),
    ("repro.experiments.rank_prediction", "embedding_matrix", "experiments.embedding", {}),
    ("repro.experiments.label_prediction", "embedding_matrix", "experiments.embedding", {}),
    ("repro.embeddings.deepwalk", "uniform_random_walks", "embeddings.walks", {}),
    ("repro.embeddings.skipgram", "SkipGramTrainer.fit", "embeddings.sgns", {}),
    ("repro.ml.forest", "RandomForestRegressor.fit", "ml.forest_fit", {"absorb": True}),
    ("repro.ml.forest", "RandomForestRegressor.predict", "ml.forest_fit", {"absorb": True}),
    *(
        (module, f"{cls}.{method}", "ml.models", {"absorb": True})
        for module, cls, methods in (
            ("repro.ml.linear", "LinearRegression", ("fit", "predict")),
            ("repro.ml.tree", "DecisionTreeRegressor", ("fit", "predict")),
            ("repro.ml.bayes", "BayesianRidge", ("fit", "predict")),
            ("repro.ml.selection", "SelectKBest", ("fit_transform", "transform")),
            ("repro.ml.preprocessing", "StandardScaler", ("fit", "transform")),
            ("repro.ml.logistic", "LogisticRegression", ("predict",)),
            ("repro.ml.logistic", "OneVsRestLogisticRegression", ("predict",)),
        )
        for method in methods
    ),
    (
        "repro.experiments.label_prediction",
        "tune_regularization",
        "ml.logreg_tune",
        {"absorb": True},
    ),
    ("repro.experiments.rank_prediction", "ndcg_at", "ml.eval", {}),
    ("repro.experiments.label_prediction", "macro_f1", "ml.eval", {}),
    *(
        ("repro.runtime.store", f"ArtifactStore.{method}", "runtime.store", {})
        for method in ("get", "put", "move", "discard")
    ),
    ("repro.runtime.store", "artifact_key", "runtime.artifact_key", {"counter": True}),
    ("repro.core.cache", "artifact_key", "runtime.artifact_key", {"counter": True}),
    ("repro.serve.service", "FeatureService.handle", "serve.handle", {}),
    ("repro.serve.service", "FeatureService.features", "serve.features", {}),
    ("repro.serve.service", "FeatureService.rank", "serve.rank", {}),
    ("repro.serve.service", "FeatureService.label", "serve.label", {}),
    ("repro.serve.service", "FeatureService.apply_mutation", "serve.mutation", {}),
    ("repro.serve.service", "repair_ball", "serve.repair_ball", {}),
    ("repro.serve.daemon", "decode_request", "net.decode", {}),
    ("repro.serve.daemon", "ok_response", "net.encode", {}),
    # Pool tasks: containers whose children are the worker's layer spans.
    ("repro.experiments.label_prediction", "_label_feature_worker", "bench.task", {}),
    ("repro.experiments.rank_prediction", "_rank_chunk_worker", "bench.task", {}),
]

#: Spans that hold layer spans but are no layer themselves.
CONTAINERS = ("bench.pipeline", "bench.task", "serve.handle")


class Tracer:
    """In-memory span buffer of one process (and, after fork, its children)."""

    def __init__(self, out_dir) -> None:
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        # Runs in a freshly forked multiprocessing child, after its
        # finalizer registry is cleared: drop the parent's spans and write
        # this worker's own when it exits.
        self.pid = os.getpid()
        self.spans = []
        self.counts = defaultdict(int)
        self._lock = threading.Lock()
        multiprocessing.util.Finalize(self, self.flush, exitpriority=100)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> tuple:
        stack = self._stack()
        sid = f"{self.pid}:{next(self._ids)}"
        parent = stack[-1][0] if stack else None
        stack.append((sid, name))
        return sid, parent, time.perf_counter()

    def close(self, name: str, token: tuple) -> None:
        end = time.perf_counter()
        sid, parent, start = token
        self._stack().pop()
        self.spans.append(
            (sid, parent, name, self.pid, threading.get_ident(), start, end)
        )

    def add_count(self, name: str, amount: int) -> None:
        with self._lock:
            self.counts[name] += amount

    def inside(self, name: str) -> bool:
        return any(frame_name == name for _sid, frame_name in self._stack())

    def wrap(self, fn, name: str, *, absorb=False, count=None, counter=False):
        tracer = self
        local = self._local

        if counter:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.add_count(name, 1)
                if tracer.inside("serve.mutation"):
                    tracer.add_count(name + ".write", 1)
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if getattr(local, "absorbing", False):
                return fn(*args, **kwargs)
            token = tracer.open(name)
            if absorb:
                local.absorbing = True
            try:
                return fn(*args, **kwargs)
            finally:
                if absorb:
                    local.absorbing = False
                tracer.close(name, token)
                if count is not None:
                    tracer.add_count(name, count(args, kwargs))

        return wrapper

    def flush(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with path.open("a", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
            out.write(json.dumps({"counts": dict(self.counts)}) + "\n")
        self.spans = []
        self.counts = defaultdict(int)


def install(tracer: Tracer) -> None:
    """Wrap every call in ``TARGETS`` where its callers look it up."""
    for module_name, attr, name, options in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        setattr(owner, member, tracer.wrap(getattr(owner, member), name, **options))


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def load(out_dir) -> tuple[list[dict], dict[str, int]]:
    """Every span and summed count written under ``out_dir``."""
    spans: list[dict] = []
    counts: dict[str, int] = defaultdict(int)
    keys = ("id", "parent", "name", "pid", "tid", "start", "end")
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if isinstance(record, dict):
                for name, amount in record["counts"].items():
                    counts[name] += amount
            else:
                spans.append(dict(zip(keys, record)))
    return spans, dict(counts)


def summarize(spans: list[dict]) -> dict:
    """Per span name: calls, total duration, total self time.

    Also ``by_pid`` (self time per name in each process), ``rekey``
    (mutation time not covered by census or repair-ball children) and
    ``worker_busy`` (pool-task seconds per worker pid).
    """
    children: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    names: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    by_pid: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    rekey = 0.0
    worker_busy: dict[int, float] = defaultdict(float)
    for span in spans:
        start, end = span["start"], span["end"]
        kids = children.get(span["id"], ())
        entry = names[span["name"]]
        entry["calls"] += 1
        entry["total"] += end - start
        own = (end - start) - _covered(
            [(kid["start"], kid["end"]) for kid in kids], start, end
        )
        entry["self"] += own
        by_pid[span["pid"]][span["name"]] += own
        if span["name"] == "serve.mutation":
            rekey += (end - start) - _covered(
                [
                    (kid["start"], kid["end"])
                    for kid in kids
                    if kid["name"] in ("core.census", "serve.repair_ball")
                ],
                start,
                end,
            )
        elif span["name"] == "bench.task":
            worker_busy[span["pid"]] += end - start
    return {
        "names": dict(names),
        "by_pid": {pid: dict(times) for pid, times in by_pid.items()},
        "rekey": rekey,
        "worker_busy": dict(worker_busy),
    }
