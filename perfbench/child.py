"""Work process of the benchmark: one pipeline run, or the serving daemon.

    python3 perfbench/child.py pipeline rank --seed 3 --mode run --seconds 10
    python3 perfbench/child.py serve [--trace DIR] [--cpus 1] -- GRAPH --tcp HOST:PORT ...

``pipeline`` sets up a workload (imports, seeded inputs, experiment
construction), prints ``READY``, and with ``--mode run`` makes
``ceil(seconds / first run)`` pipeline calls, each on a fresh experiment
object; its peak RSS is taken after the first call.  Then it
runs the correctness checks outside the timed region and prints
``RESULT <json>``.  ``serve`` calls ``repro.cli.main(["serve", ...])``, the
code path of ``repro serve``, pinned to ``--cpus`` when given; for each
line it reads on stdin it prints ``CPU <seconds>``, the CPU time the
process has used so far (all threads), so the benchmark can take the
daemon's CPU over a stretch of load without a wrapper in its code.  With
``--trace DIR`` either one installs the span wrappers of ``tracer.py``
first and writes its spans to ``DIR``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import tracer as tracing  # noqa: E402


def _peak_rss_mb() -> float:
    """Peak RSS of this process and of its reaped children (pool workers)."""
    usage = (resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return max(u.ru_maxrss for u in usage) / 1024.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


class RankRun:
    def __init__(self, seed: int) -> None:
        from repro.experiments.rank_prediction import (
            REGRESSOR_NAMES,
            RankPredictionExperiment,
            RankTaskConfig,
        )

        self.seed = seed
        self.mag = inputs.mag_world()
        self.config = RankTaskConfig(
            train_years=inputs.RANK_TRAIN_YEARS,
            test_year=inputs.RANK_TEST_YEAR,
            conferences=inputs.RANK_CONFERENCES,
            emax=inputs.RANK_EMAX,
            forest_trees=inputs.RANK_TREES,
            seed=inputs.input_seed(seed),
            n_jobs=1,
        )
        self._experiment_cls = RankPredictionExperiment
        self._regressors = REGRESSOR_NAMES
        self.experiment = self.new_experiment()

    def new_experiment(self):
        return self._experiment_cls(self.mag, self.config)

    def run(self, experiment) -> float:
        result = experiment.run(
            families=inputs.RANK_FAMILIES, regressors=self._regressors
        )
        return _mean(result.ndcg.values())

    def fingerprint(self) -> str:
        return inputs.rank_fingerprint(self.mag)

    def check_census(self) -> bool:
        from repro.core.census import CensusConfig

        graph = self.mag.build_rank_graph(
            inputs.RANK_CONFERENCES[0], inputs.RANK_TEST_YEAR - 1
        )
        roots = inputs.sample_roots(
            [graph.index(inst) for inst in self.mag.institutions], self.seed
        )
        return inputs.census_matches_reference(
            graph, roots, CensusConfig(max_edges=inputs.RANK_EMAX)
        )


class LabelRun:
    def __init__(self, seed: int) -> None:
        from repro.experiments.label_prediction import (
            LabelPredictionExperiment,
            LabelTaskConfig,
        )

        self.seed = seed
        self.graph = inputs.label_graph(inputs.mag_world())
        self.config = LabelTaskConfig(
            emax=inputs.LABEL_EMAX,
            dmax_percentile=inputs.LABEL_DMAX_PERCENTILE,
            seed=inputs.input_seed(seed),
            n_jobs=inputs.LABEL_N_JOBS,
        )
        self._experiment_cls = LabelPredictionExperiment
        self.experiment = self.new_experiment()

    def new_experiment(self):
        return self._experiment_cls(self.graph, self.config)

    def run(self, experiment) -> float:
        sweep = experiment.run_training_sweep(features=inputs.LABEL_FEATURES)
        return _mean(score for scores in sweep.scores.values() for score in scores)

    def fingerprint(self) -> str:
        return inputs.fingerprint(self.graph)

    def check_census(self) -> bool:
        from repro.core.census import CensusConfig
        from repro.experiments.common import percentile_degree

        config = CensusConfig(
            max_edges=inputs.LABEL_EMAX,
            max_degree=percentile_degree(self.graph, inputs.LABEL_DMAX_PERCENTILE),
            mask_start_label=True,
        )
        roots = inputs.sample_roots(self.experiment.nodes, self.seed)
        return inputs.census_matches_reference(self.graph, roots, config)


PIPELINES = {"rank": RankRun, "label": LabelRun}


def pipeline_main(args) -> int:
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(args.trace)
        tracing.install(tracer)
    work = PIPELINES[args.workload](args.seed)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    walls, scores = [], []
    repeats = 1
    while len(walls) < repeats:
        experiment = work.new_experiment() if walls else work.experiment
        token = tracer.open("bench.pipeline") if tracer else None
        started = time.perf_counter()
        scores.append(work.run(experiment))
        walls.append(time.perf_counter() - started)
        if tracer:
            tracer.close("bench.pipeline", token)
        if len(walls) == 1:
            # Whole runs covering --seconds, counted from the first so the
            # count does not flip between runs of nearly that length.  The
            # first run is the pipeline as a user runs it: its RSS counts.
            repeats = max(1, math.ceil(args.seconds / walls[0]))
            rss_mb = _peak_rss_mb()
    if tracer:
        tracer.flush()
    result = {
        "walls": walls,
        "scores": scores,
        "rss_mb": rss_mb,
        "fingerprint": work.fingerprint(),
        "census_ok": work.check_census(),
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def _answer_cpu_queries() -> None:
    for _ in sys.stdin:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        sys.stdout.write(f"CPU {usage.ru_utime + usage.ru_stime!r}\n")
        sys.stdout.flush()


def serve_main(args) -> int:
    threading.Thread(target=_answer_cpu_queries, daemon=True).start()
    if args.cpus:
        os.sched_setaffinity(0, {int(cpu) for cpu in args.cpus.split(",")})
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(args.trace)
        tracing.install(tracer)
    from repro.cli import main

    try:
        return main(["serve", *args.serve_args])
    finally:
        if tracer:
            tracer.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="kind", required=True)
    p_pipe = sub.add_parser("pipeline")
    p_pipe.add_argument("workload", choices=sorted(PIPELINES))
    p_pipe.add_argument("--seed", type=int, required=True)
    p_pipe.add_argument("--mode", choices=("setup", "run"), default="run")
    p_pipe.add_argument("--seconds", type=float, default=0.0)
    p_pipe.add_argument("--trace", default=None)
    p_pipe.set_defaults(func=pipeline_main)
    p_serve = sub.add_parser("serve")
    p_serve.add_argument("--trace", default=None)
    p_serve.add_argument("--cpus", default=None)
    p_serve.add_argument("serve_args", nargs=argparse.REMAINDER)
    p_serve.set_defaults(func=serve_main)
    args = parser.parse_args(argv)
    if args.kind == "serve" and args.serve_args[:1] == ["--"]:
        args.serve_args = args.serve_args[1:]
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
