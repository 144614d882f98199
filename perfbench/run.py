"""The repository's benchmark: Table-1 and Fig-5 pipelines, read and write serving.

    python3 perfbench/run.py --workload rank --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0      # every workload in turn

Run from the repository root.  Each workload runs in fresh child
processes (``perfbench/child.py``): the pipelines call the same public API
as ``repro rank`` / ``repro label``; the serve workloads start
``repro serve`` over TCP loopback and drive it open loop up a ladder of
rates (``perfbench/loadgen.py``).  Inputs come from ``--seed`` (for serve,
the reads; the graph and the write trace are fixed, see
``inputs.SERVE_DATA_SEED``), and every run checks its outputs: pipeline
scores and input fingerprints against ``perfbench/expected.json``, a
seeded sample of censuses against the reference engine, and after each
serve trace the daemon's features against a cold service built on the
final graph.

The report lines come first; the last line is one JSON object.  With
``--trace 0`` its metrics are the gated end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the run is made once untraced and
once with span wrappers installed (``perfbench/tracer.py``), and its
metrics are the per-layer ones.  The exit code is 1 when a check fails.
See ``perfbench/NOTES.md`` for the reasons behind each workload.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import platform
import queue
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))

#: Each run must end within this many seconds of starting.
RUN_BUDGET_S = 170.0
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
PIPELINES = ("rank", "label")


@dataclass(frozen=True)
class ServeSpec:
    write_fraction: float
    #: (offered req/s, share of ``--seconds``); the first is the low rate.
    ladder: tuple
    nominal: float
    read_p99_limit_ms: float


SERVE = {
    "serve-read": ServeSpec(
        write_fraction=0.0,
        ladder=((100, 0.3), (250, 0.15), (500, 0.25), (750, 0.15), (1000, 0.15)),
        nominal=500,
        read_p99_limit_ms=25.0,
    ),
    "serve-write": ServeSpec(
        write_fraction=0.05,
        ladder=((20, 0.3), (35, 0.1), (50, 0.3), (75, 0.15), (100, 0.15)),
        nominal=50,
        read_p99_limit_ms=150.0,
    ),
}
WORKLOADS = (*PIPELINES, *SERVE)

#: Metric names and units, from ``BENCHMARK.json``: ``end_to_end`` is what
#: an untraced run prints, ``per_layer`` what a traced run prints.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
#: Every end-to-end figure a run reports (printed, not all gated).
REPORTED = {
    "setup_s": "s",
    "op_ms": "ms",
    "peak_rss_mb": "MB",
    "score": "-",
    "error_rate": "ratio",
    "read_p50_ms.low": "ms",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "write_p50_ms": "ms",
    "write_p90_ms": "ms",
    "max_rps_slo": "req/s",
}


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        left = self.end - time.perf_counter()
        if left <= 0:
            raise TimeoutError("run exceeded its time budget")
        return left


class Child:
    """A work process whose stdout lines are timestamped as they arrive."""

    def __init__(self, argv, log_path: Path) -> None:
        self.log_path = log_path
        self._log = log_path.open("w", encoding="utf-8")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *argv],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
            # Own process group, so a kill also reaches forked pool workers.
            start_new_session=True,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put((time.perf_counter(), line.rstrip("\n")))
        self._lines.put((time.perf_counter(), None))

    def wait_line(self, prefix: str, deadline: Deadline) -> tuple[float, str]:
        while True:
            try:
                at, line = self._lines.get(timeout=deadline.left())
            except queue.Empty:
                raise TimeoutError(f"no {prefix!r} from child") from None
            if line is None:
                raise RuntimeError(f"child exited before {prefix!r}: {self.log_tail()}")
            if line.startswith(prefix):
                return at, line[len(prefix):].strip()

    def reap(self, deadline: Deadline) -> tuple[int, float]:
        """Wait for exit; returns (exit code, peak RSS in MB incl. reaped children)."""
        if self.proc.returncode is not None:  # already reaped by Popen.poll()
            self._close()
            return self.proc.returncode, 0.0
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            try:
                deadline.left()
            except TimeoutError:
                os.killpg(self.proc.pid, signal.SIGKILL)
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._reader.join(timeout=5)
        self.proc.stdout.close()
        self._close()
        return self.proc.returncode, usage.ru_maxrss / 1024.0

    def kill(self) -> None:
        if self.proc.returncode is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
            os.waitpid(self.proc.pid, 0)
            self.proc.returncode = -9
        self._close()

    def _close(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:  # the child is gone and the pipe is broken
            pass
        self._log.close()

    def log_tail(self, lines: int = 20) -> str:
        self._log.flush()
        text = self.log_path.read_text(encoding="utf-8", errors="replace")
        return "\n".join(text.splitlines()[-lines:])


def median(values) -> float:
    return float(statistics.median(values))


def finite(value) -> float:
    """``value`` as a float, with NaN (a rung never reached) as 0 to keep JSON valid."""
    value = float(value)
    return value if math.isfinite(value) else 0.0


# -- pipelines ----------------------------------------------------------------
def measure_pipeline(workload, seed, seconds, work: Path, deadline, *, setups, trace_dir=None):
    checks = {}
    setup_s = []
    for i in range(setups - 1):
        argv = ["pipeline", workload, "--seed", str(seed), "--mode", "setup"]
        child = Child(argv, work / f"setup{i}.log")
        try:
            at, _ = child.wait_line("READY", deadline)
            setup_s.append(at - child.started)
        finally:
            child.reap(deadline)
    argv = ["pipeline", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace_dir is not None:
        argv += ["--trace", str(trace_dir)]
    child = Child(argv, work / f"{workload}.log")
    try:
        at, _ = child.wait_line("READY", deadline)
        setup_s.append(at - child.started)
        _, payload = child.wait_line("RESULT", deadline)
    except BaseException:
        child.kill()
        raise
    code, _ = child.reap(deadline)
    result = json.loads(payload)
    checks["exit code 0"] = code == 0
    checks["census equals reference engine"] = result["census_ok"]
    return {
        "setup_s": setup_s,
        "walls": result["walls"],
        "scores": result["scores"],
        "fingerprint": result["fingerprint"],
        "peak_rss_mb": result["rss_mb"],
        "checks": checks,
    }


def pipeline_metrics(run: dict) -> dict:
    return {
        "setup_s": median(run["setup_s"]),
        "op_ms": median(run["walls"]) * 1e3,
        "peak_rss_mb": run["peak_rss_mb"],
        "score": run["scores"][0],
        "error_rate": 0.0,
    }


# -- serving ------------------------------------------------------------------
def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Daemon:
    """``repro serve`` over TCP loopback, launched through ``child.py serve``."""

    HOST = "127.0.0.1"

    def __init__(self, graph_path, log_path, cpus, *, manifest=None, trace_dir=None) -> None:
        self.port = free_port()
        argv = ["serve", "--cpus", ",".join(map(str, cpus))]
        if trace_dir is not None:
            argv += ["--trace", str(trace_dir)]
        argv += [
            "--", str(graph_path), "--tcp", f"{self.HOST}:{self.port}",
            "--emax", str(inputs.SERVE_EMAX), "--dmax", str(inputs.SERVE_DMAX),
        ]
        if manifest is not None:
            argv += ["--telemetry-out", str(manifest)]
        self.child = Child(argv, log_path)

    def wait_ready(self, deadline: Deadline) -> float:
        """Seconds from launch until the daemon answers a ``ping``."""
        while True:
            try:
                if self.request({"id": 0, "op": "ping"}, deadline).get("ok"):
                    return time.perf_counter() - self.child.started
            except (ConnectionRefusedError, ConnectionResetError):
                if self.child.proc.poll() is not None:
                    raise RuntimeError(f"daemon exited: {self.child.log_tail()}") from None
                time.sleep(0.005)

    def request(self, payload: dict, deadline: Deadline) -> dict:
        """One request on a fresh connection; returns the decoded response."""
        address = (self.HOST, self.port)
        with socket.create_connection(address, timeout=deadline.left()) as sock:
            sock.sendall((json.dumps(payload) + "\n").encode())
            buffer = b""
            while not buffer.endswith(b"\n"):
                chunk = sock.recv(65536)
                if not chunk:
                    raise ConnectionError("daemon closed the connection")
                buffer += chunk
        return json.loads(buffer)

    def cpu_s(self, deadline: Deadline) -> float:
        """CPU seconds the daemon process has used so far (every thread)."""
        self.child.proc.stdin.write("cpu\n")
        self.child.proc.stdin.flush()
        _, value = self.child.wait_line("CPU", deadline)
        return float(value)

    def stop(self, deadline: Deadline) -> tuple[int, float]:
        """The ``shutdown`` op, then reap: (exit code, peak RSS MB)."""
        try:
            self.request({"id": 0, "op": "shutdown"}, deadline)
        except OSError:
            pass
        return self.child.reap(deadline)


def check_nodes(stream, seed: int) -> list:
    """A seeded sample of nodes, plus endpoints of edges the trace added."""
    rng = np.random.default_rng(2000 + inputs.input_seed(seed))
    ids = stream.ids
    picks = [ids[int(i)] for i in rng.choice(len(ids), size=8, replace=False)]
    for u, v in stream.added[-2:]:
        picks += [u, v]
    return list(dict.fromkeys(picks))


def measure_serve(workload, seed, seconds, work: Path, deadline, *, setups, trace_dir=None):
    from repro.io import write_graph_json
    from repro.serve import FeatureService, ServeConfig

    from loadgen import RequestStream, run_ladder, step_summary

    spec = SERVE[workload]
    graph = inputs.serve_graph(workload)
    graph_path = work / "graph.json"
    write_graph_json(graph, graph_path)
    # The daemon on the last core, the load generator on the others, so
    # neither preempts the other (an error ends the run, so no restore then).
    cpus = sorted(os.sched_getaffinity(0))
    daemon_cpus = cpus[-1:]
    os.sched_setaffinity(0, cpus[:-1] or cpus)
    setup_s = []
    for i in range(setups - 1):
        daemon = Daemon(graph_path, work / f"setup{i}.log", daemon_cpus)
        try:
            setup_s.append(daemon.wait_ready(deadline))
        finally:
            daemon.stop(deadline)
    manifest = work / "manifest.json"
    daemon = Daemon(
        graph_path, work / "daemon.log", daemon_cpus, manifest=manifest, trace_dir=trace_dir
    )
    checks = {}
    try:
        setup_s.append(daemon.wait_ready(deadline))
        stream = RequestStream(
            graph, inputs.input_seed(seed), spec.write_fraction, inputs.SERVE_DATA_SEED
        )
        ladder = [(rate, share * seconds) for rate, share in spec.ladder]
        cpu_before = daemon.cpu_s(deadline)
        results = asyncio.run(
            run_ladder(Daemon.HOST, daemon.port, stream, ladder, os.cpu_count() or 1)
        )
        ladder_cpu_s = daemon.cpu_s(deadline) - cpu_before
        checks["every ladder step ran"] = len(results) == len(ladder)
        config = ServeConfig(emax=inputs.SERVE_EMAX, dmax=inputs.SERVE_DMAX)
        cold = FeatureService(stream.final, config)
        same = True
        for node in check_nodes(stream, seed):
            for masked in (False, True):
                request = {"id": 1, "op": "features", "node": node, "masked": masked}
                got = daemon.request(request, deadline)
                want = json.loads(json.dumps(cold.features(node, masked=masked)))
                same = same and got.get("ok") and got["result"] == want
        checks["features equal a cold service on the final graph"] = bool(same)
        stats = daemon.request({"id": 2, "op": "stats"}, deadline)["result"]
        checks["daemon graph equals the trace's final graph"] = (
            stats["graph"]["fingerprint"] == stream.final.fingerprint()
        )
    except BaseException:
        daemon.child.kill()
        raise
    code, rss = daemon.stop(deadline)
    os.sched_setaffinity(0, cpus)
    checks["exit code 0"] = code == 0
    latency = json.loads(manifest.read_text())["distributions"].get("serve/latency_s", {})
    return {
        "setup_s": setup_s,
        "steps": [step_summary(result, spec.read_p99_limit_ms) for result in results],
        "client_ms": [ms for r in results for ms in (*r.read_ms, *r.write_ms)],
        "ladder_cpu_s": ladder_cpu_s,
        "late_ms": [ms for r in results for ms in r.late_ms],
        "stats": stats,
        "server_latency": latency,
        "fingerprint": inputs.fingerprint(graph),
        "peak_rss_mb": rss,
        "checks": checks,
    }


def serve_metrics(workload: str, run: dict) -> dict:
    spec = SERVE[workload]
    steps = run["steps"]
    # A ladder cut short by a step that did not drain fails its checks;
    # the rungs it never reached read as NaN.
    missing = dict.fromkeys(
        ("read_p50_ms", "read_p99_ms", "write_p50_ms", "write_p90_ms"), math.nan
    )
    nominal = next((step for step in steps if step["rate"] == spec.nominal), missing)
    sent = sum(step["sent"] for step in steps)
    passing = [step["rate"] for step in steps if step["within_slo"]]
    metrics = {
        "setup_s": median(run["setup_s"]),
        # The daemon's mean service demand: its CPU over the ladder per request.
        "op_ms": run["ladder_cpu_s"] / max(1, sent) * 1e3,
        "peak_rss_mb": run["peak_rss_mb"],
        "error_rate": sum(step["failed"] for step in steps) / max(1, sent),
        "read_p50_ms.low": steps[0]["read_p50_ms"],
        "read_p50_ms": nominal["read_p50_ms"],
        "read_p99_ms": nominal["read_p99_ms"],
        "max_rps_slo": max(passing) if passing else 0.0,
    }
    if spec.write_fraction:
        metrics["write_p50_ms"] = nominal["write_p50_ms"]
        metrics["write_p90_ms"] = nominal["write_p90_ms"]
    return metrics


# -- one workload -------------------------------------------------------------
def measure(workload, seed, seconds, work, deadline, *, setups, trace_dir=None):
    args = (workload, seed, seconds, work, deadline)
    if workload in PIPELINES:
        run = measure_pipeline(*args, setups=setups, trace_dir=trace_dir)
        run["metrics"] = pipeline_metrics(run)
        run["attempted"] = len(run["walls"])
        run["failed"] = 0
    else:
        run = measure_serve(*args, setups=setups, trace_dir=trace_dir)
        run["metrics"] = serve_metrics(workload, run)
        run["attempted"] = sum(step["sent"] for step in run["steps"])
        run["failed"] = sum(step["failed"] for step in run["steps"])
    expected = EXPECTED.get(workload, {}).get(str(inputs.input_seed(seed)))
    checks = run["checks"]
    if expected is None:
        checks["inputs recorded for this seed (perfbench/record.py)"] = False
    else:
        same_input = run["fingerprint"] == expected["fingerprint"]
        checks["input fingerprint equals the recorded one"] = same_input
        if workload in PIPELINES:
            checks["score equals the recorded one"] = all(
                score == expected["score"] for score in run["scores"]
            )
    checks["no failed operation"] = run["failed"] == 0
    return run


def critical_path(summary: dict) -> str:
    """Self time by layer in the process that sets the wall time.

    That is the busiest pool worker when there is a pool, otherwise the
    process with the most traced time.
    """
    by_pid = summary["by_pid"]
    busy = summary["worker_busy"]
    pid = max(busy, key=busy.get) if busy else max(by_pid, key=lambda p: sum(by_pid[p].values()))
    times = by_pid[pid]
    total = sum(times.values())
    top = sorted(times.items(), key=lambda item: -item[1])[:6]
    shares = ", ".join(f"{name} {seconds:.2f} s ({seconds / total:.0%})" for name, seconds in top)
    role = "busiest pool worker" if busy else "process"
    return f"  critical path: {role} {pid}, {total:.2f} s traced: {shares}"


def layer_metrics(workload: str, traced: dict, untraced: dict, trace_dir: Path) -> tuple[dict, str]:
    """Per-layer figures of the traced run (see NOTES.md for definitions)."""
    import tracer

    spans, counts = tracer.load(trace_dir)
    summary = tracer.summarize(spans)
    names = summary["names"]
    path = critical_path(summary)

    def self_s(name):
        return names.get(name, {}).get("self", 0.0)

    def mean_ms(name):
        entry = names.get(name)
        return entry["total"] / entry["calls"] * 1e3 if entry else 0.0

    all_self = sum(entry["self"] for entry in names.values())
    container_self = sum(self_s(name) for name in tracer.CONTAINERS)
    metrics = {
        "datasets.rank_graph_s": self_s("datasets.rank_graph"),
        "core.census_s": self_s("core.census"),
        "core.census_roots": counts.get("core.census", 0),
        "core.features_s": self_s("core.features"),
        "experiments.classic_s": self_s("experiments.classic"),
        "experiments.embedding_s": self_s("experiments.embedding"),
        "embeddings.walks_s": self_s("embeddings.walks"),
        "embeddings.sgns_s": self_s("embeddings.sgns"),
        "ml.forest_fit_s": self_s("ml.forest_fit"),
        "ml.models_s": self_s("ml.models"),
        "ml.logreg_tune_s": self_s("ml.logreg_tune"),
        "ml.eval_s": self_s("ml.eval"),
        "runtime.pool_overhead_s": 0.0,
        "runtime.store_s": self_s("runtime.store"),
        "bench.uncovered_share": container_self / all_self if all_self else 0.0,
    }
    busy = summary["worker_busy"]
    if busy:
        metrics["runtime.pool_overhead_s"] = names["bench.pipeline"]["total"] - max(busy.values())
    metrics["bench.trace_overhead"] = traced["metrics"]["op_ms"] / untraced["metrics"]["op_ms"]
    if workload in PIPELINES:
        return metrics, path
    stats = traced["stats"]
    store = stats["store"]
    lookups = store["hits"] + store["misses"]
    mutations = stats["mutations"]
    server = traced["server_latency"]
    server_mean_ms = server.get("mean", 0.0) * 1e3
    handle = names.get("serve.handle")
    metrics.update(
        {
            "runtime.store_hit_ratio": store["hits"] / lookups if lookups else 0.0,
            "runtime.artifact_keys_per_write": (
                counts.get("runtime.artifact_key.write", 0) / mutations if mutations else 0.0
            ),
            "serve.features_ms": mean_ms("serve.features"),
            "serve.rank_ms": mean_ms("serve.rank"),
            "serve.label_ms": mean_ms("serve.label"),
            "serve.mutation_ms": mean_ms("serve.mutation"),
            "serve.repair_ball_s": self_s("serve.repair_ball"),
            "serve.rekey_s": summary["rekey"],
            "serve.repaired_per_write": stats["repaired_roots"] / mutations if mutations else 0.0,
            "serve.migrated_per_write": stats["migrated_roots"] / mutations if mutations else 0.0,
            "serve.server_p50_ms": server.get("p50", 0.0) * 1e3,
            "serve.server_p99_ms": server.get("p99", 0.0) * 1e3,
            "serve.queue_wait_ms": statistics.fmean(traced["client_ms"]) - server_mean_ms,
            "serve.lock_wait_ms": server_mean_ms - (mean_ms("serve.handle") if handle else 0.0),
            "net.decode_ms": mean_ms("net.decode"),
            "net.encode_ms": mean_ms("net.encode"),
            "bench.gen_late_ms": float(np.percentile(traced["late_ms"], 99)),
        }
    )
    return metrics, path


# -- reporting ----------------------------------------------------------------
def provenance(seed: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = done.stdout.strip() or commit
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "commit": commit,
        "seed": seed,
        "input_seed": inputs.input_seed(seed),
    }


def report(workload: str, run: dict, lines: list) -> None:
    lines.append(f"== {workload}")
    for name, unit in REPORTED.items():
        if name in run["metrics"]:
            lines.append(f"  {name:<16} {run['metrics'][name]:>14.4f} {unit}")
    if "ladder_cpu_s" in run:
        lines.append(f"  op_ms from {run['ladder_cpu_s']:.3f} s of daemon CPU over the ladder")
    for step in run.get("steps", ()):
        lines.append(
            "  step {rate:>6.0f} req/s: sent {sent} ok {succeeded} failed {failed}; "
            "read p50 {read_p50_ms:.2f} p99 {read_p99_ms:.2f} ms (n={reads}); "
            "write p50 {write_p50_ms:.1f} p90 {write_p90_ms:.1f} ms (n={writes}); "
            "from send: rank p50 {rank_sent_p50_ms:.2f} write p50 {write_sent_p50_ms:.1f} ms; "
            "gen late p99 {gen_late_p99_ms:.2f} ms; backlog {backlog_end}; "
            "{verdict}".format(
                verdict=(
                    "invalid (generator late)"
                    if not step["valid"]
                    else ("within SLO" if step["within_slo"] else "over SLO")
                ),
                **step,
            )
        )
    for check, ok in run["checks"].items():
        lines.append(f"  check {'ok  ' if ok else 'FAIL'} {check}")


def run_workload(workload, seed, seconds, trace: bool) -> tuple[dict, list]:
    deadline = Deadline(RUN_BUDGET_S)
    work = ROOT / ".perfbench" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    lines = [f"provenance {json.dumps(provenance(seed))}"]
    try:
        if not trace:
            run = measure(workload, seed, seconds, work, deadline, setups=SETUPS)
            report(workload, run, lines)
            metrics = {name: run["metrics"][name] for name in END_TO_END}
            units = END_TO_END
            runs = [run]
        else:
            # Pipelines run once per pass; serve climbs the same ladder twice.
            pass_seconds = 0 if workload in PIPELINES else seconds
            (work / "untraced").mkdir()
            (work / "traced").mkdir()
            untraced = measure(
                workload, seed, pass_seconds, work / "untraced", deadline, setups=1
            )
            trace_dir = work / "spans"
            traced = measure(
                workload, seed, pass_seconds, work / "traced", deadline,
                setups=1, trace_dir=trace_dir,
            )
            report(workload + " (untraced pass)", untraced, lines)
            report(workload + " (traced pass)", traced, lines)
            metrics, path = layer_metrics(workload, traced, untraced, trace_dir)
            lines.append(path)
            lines += [
                f"  {name:<32} {metrics.get(name, 0.0):>12.4f} {unit}"
                for name, unit in PER_LAYER.items()
            ]
            units = PER_LAYER
            runs = [untraced, traced]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass
    result = {
        "correct": all(ok for run in runs for ok in run["checks"].values()),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {
            name: {"value": finite(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("error: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        result, lines = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        for line in lines:
            print(line, flush=True)
        results[workload] = result
    print(json.dumps(results[workloads[0]] if len(workloads) == 1 else results))
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
