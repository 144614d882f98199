"""Open-loop load for the serving daemon: a seeded request stream and a rate ladder.

The benchmark owns this generator, so a change to ``repro.serve.replay``
cannot change the workload.  Requests are due on a fixed schedule (evenly
spaced at the step's rate) whether or not earlier ones were answered, and
every latency is timed from the request's due time, so a stall is charged
to every request queued behind it.  How late the generator itself sent
each request is recorded; a step whose generator fell behind is invalid
rather than counted as server latency.  Each answer is also timed from
the moment its request was actually sent (``sent_ms``, per op), which
leaves the generator's own lateness out.

Writes go on their own connection, in stream order, so each one is valid
against the graph the stream simulated; reads are dealt round-robin over
the remaining connections.  The daemon answers a connection's requests in
order, so responses are matched first-in first-out.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

READ_MIX = (("features", 0.8), ("rank", 0.1), ("label", 0.1))
WRITE_OPS = ("add_edge", "remove_edge")

#: A step is invalid when the generator's p99 lateness exceeds this, or a
#: tenth of the read-p99 limit when that is larger.
MAX_GEN_LATE_MS = 5.0
#: Give up on a step's stragglers after this long (its rest counts failed).
DRAIN_TIMEOUT_S = 20.0


class RequestStream:
    """Seeded request stream that tracks the graph its writes produce.

    ``seed`` draws the reads; ``write_seed`` draws which requests are
    writes and what they write.  ``final`` is a mutable copy of the input
    graph with every generated write applied: after the trace it is the
    graph the daemon should hold.  Deletions only remove edges the stream
    added itself.
    """

    def __init__(self, graph, seed: int, write_fraction: float, write_seed: int) -> None:
        from repro.core.graph import MutableHeteroGraph

        self.rng = np.random.default_rng(seed)
        self.write_rng = np.random.default_rng(write_seed)
        self.final = MutableHeteroGraph.from_graph(graph)
        self.ids = list(self.final.node_ids)
        self.write_fraction = write_fraction
        self.added: list[tuple] = []
        self._ops = [op for op, _ in READ_MIX]
        weights = np.asarray([weight for _, weight in READ_MIX])
        self._weights = weights / weights.sum()
        self._next_id = 0

    def next(self) -> dict:
        self._next_id += 1
        rng = self.write_rng
        if rng.random() < self.write_fraction:
            if self.added and rng.random() < 0.5:
                u, v = self.added.pop(int(rng.integers(len(self.added))))
                self.final.remove_edge(u, v)
                return {"id": self._next_id, "op": "remove_edge", "u": u, "v": v}
            while True:
                a, b = (int(x) for x in rng.integers(len(self.ids), size=2))
                if a != b and not self.final.has_edge(a, b):
                    u, v = self.ids[a], self.ids[b]
                    self.final.add_edge(u, v)
                    self.added.append((u, v))
                    return {"id": self._next_id, "op": "add_edge", "u": u, "v": v}
        rng = self.rng
        op = self._ops[int(rng.choice(len(self._ops), p=self._weights))]
        node = self.ids[int(rng.integers(len(self.ids)))]
        request = {"id": self._next_id, "op": op, "node": node}
        if op == "rank":
            request["k"] = 5
        return request


@dataclass
class StepResult:
    rate: float
    seconds: float
    sent: int = 0
    succeeded: int = 0
    failed: int = 0
    backlog_end: int = 0
    drain_s: float = 0.0
    read_ms: list = field(default_factory=list)
    write_ms: list = field(default_factory=list)
    late_ms: list = field(default_factory=list)
    #: op -> latencies timed from the actual send rather than the due time.
    sent_ms: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)


class Lane:
    """One connection: a sender on the schedule and a FIFO receiver."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: deque = deque()
        self.received = 0

    async def send(self, scheduled, result: StepResult) -> None:
        for due, request in scheduled:
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = time.perf_counter()
            self.pending.append((due, sent, request))
            self.writer.write((json.dumps(request) + "\n").encode())
            result.sent += 1
            result.late_ms.append((sent - due) * 1e3)
            await self.writer.drain()

    async def receive(self, count: int, result: StepResult) -> None:
        for _ in range(count):
            line = await self.reader.readline()
            now = time.perf_counter()
            if not line:
                raise ConnectionError("daemon closed the connection")
            due, sent, request = self.pending.popleft()
            response = json.loads(line)
            self.received += 1
            if response.get("id") != request["id"] or not response.get("ok"):
                code = response.get("error", {}).get("code", "id_mismatch")
                result.failed += 1
                result.errors[code] = result.errors.get(code, 0) + 1
                continue
            result.succeeded += 1
            result.sent_ms.setdefault(request["op"], []).append((now - sent) * 1e3)
            latency = (now - due) * 1e3
            if request["op"] in WRITE_OPS:
                result.write_ms.append(latency)
            else:
                result.read_ms.append(latency)


async def run_step(read_lanes, write_lane, stream, rate, seconds) -> StepResult:
    """Offer ``rate`` req/s for ``seconds``; wait for every answer."""
    result = StepResult(rate=rate, seconds=seconds)
    count = int(round(rate * seconds))
    requests = [stream.next() for _ in range(count)]
    start = time.perf_counter() + 0.05
    plans = {id(lane): [] for lane in (*read_lanes, write_lane) if lane is not None}
    reads = 0
    for i, request in enumerate(requests):
        due = start + i / rate
        if request["op"] in WRITE_OPS:
            plans[id(write_lane)].append((due, request))
        else:
            lane = read_lanes[reads % len(read_lanes)]
            plans[id(lane)].append((due, request))
            reads += 1
    lanes = [lane for lane in (*read_lanes, write_lane) if lane is not None]
    before = sum(lane.received for lane in lanes)
    end = start + count / rate

    async def snapshot_backlog() -> None:
        await asyncio.sleep(max(0.0, end - time.perf_counter()))
        answered = sum(lane.received for lane in lanes) - before
        result.backlog_end = result.sent - answered

    receivers = [
        asyncio.ensure_future(lane.receive(len(plans[id(lane)]), result))
        for lane in lanes
    ]
    await asyncio.gather(
        *(lane.send(plans[id(lane)], result) for lane in lanes), snapshot_backlog()
    )
    drain_started = time.perf_counter()
    done, pending = await asyncio.wait(receivers, timeout=DRAIN_TIMEOUT_S)
    result.drain_s = time.perf_counter() - drain_started
    for task in pending:
        task.cancel()
    for task in done:
        task.result()
    if pending:
        unanswered = result.sent - result.succeeded - result.failed
        result.failed += unanswered
        result.errors["unanswered"] = unanswered
        raise StepAborted(result)
    return result


class StepAborted(Exception):
    """A step's answers did not all arrive; the connections are unusable."""

    def __init__(self, result: StepResult) -> None:
        super().__init__(f"step at {result.rate} req/s did not drain")
        self.result = result


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if len(values) else float("nan")


def step_summary(result: StepResult, limit_ms: float) -> dict:
    """Counts, percentiles and the step's validity and SLO verdict."""
    late_p99 = percentile(result.late_ms, 99)
    read_p99 = percentile(result.read_ms, 99)
    valid = late_p99 <= max(MAX_GEN_LATE_MS, limit_ms / 10)
    within = (
        valid
        and result.failed == 0
        and read_p99 <= limit_ms
        and result.backlog_end <= max(1, result.rate * limit_ms / 1e3)
    )
    return {
        "rate": result.rate,
        "seconds": result.seconds,
        "sent": result.sent,
        "succeeded": result.succeeded,
        "failed": result.failed,
        "errors": result.errors,
        "reads": len(result.read_ms),
        "writes": len(result.write_ms),
        "read_p50_ms": percentile(result.read_ms, 50),
        "read_p99_ms": read_p99,
        "write_p50_ms": percentile(result.write_ms, 50),
        "write_p90_ms": percentile(result.write_ms, 90),
        "rank_sent_p50_ms": percentile(result.sent_ms.get("rank", ()), 50),
        "write_sent_p50_ms": percentile(
            [ms for op in WRITE_OPS for ms in result.sent_ms.get(op, ())], 50
        ),
        "gen_late_p99_ms": late_p99,
        "backlog_end": result.backlog_end,
        "drain_s": result.drain_s,
        "valid": valid,
        "within_slo": within,
    }


async def run_ladder(host, port, stream, ladder, connections: int) -> list:
    """Climb ``ladder`` (``[(rate, seconds), ...]``) on fresh connections."""
    writes = stream.write_fraction > 0
    read_count = max(1, connections - (1 if writes else 0))
    lanes = [Lane(*await asyncio.open_connection(host, port)) for _ in range(read_count)]
    write_lane = Lane(*await asyncio.open_connection(host, port)) if writes else None
    results = []
    try:
        for rate, seconds in ladder:
            results.append(await run_step(lanes, write_lane, stream, rate, seconds))
    except StepAborted as exc:
        results.append(exc.result)
    finally:
        for lane in (*lanes, write_lane):
            if lane is not None:
                lane.writer.close()
    return results
