"""The ``serve-zipf`` workload: ``repro serve`` over TCP, open loop.

One process drives one TCP connection with two threads: the main thread
sends newline-delimited JSON on a fixed schedule, a reader thread stamps
each response on arrival.  The load is observes plus about one query in
eight (``predict`` / ``expects``).  Receiver keys are Zipf-popular over a
population ten times the server's total LRU cap; each key's observe stream
is a logical receive stream of a simulated paper workload, entered at an
offset drawn from the seed.  Hot keys stay resident and give the DPD
detection work; the tail churns through create and evict.

The session is a fixed sequence of segments, so its responses are a
deterministic function of (seed, seconds) and are checked line by line
against the in-process ``ServeService.handle_line`` on the same lines:

1. set-up: spawn the server, first ``stats`` (repeated, median);
   then a warm-up written at once, untimed, which fills the LRU tables and
   gives the hot streams their history, so later batches cost the same;
2. the ladder: fixed offered rates, each rung ending with a ``flush``;
   after each rung, saturation batches: a fixed number of lines written at
   once, timed until the closing ``flush`` is answered (``job_s``).  The
   batches are spread over the run so that their median does not hinge on
   one stretch of host speed;
3. ``stats``, ``snapshot``, ``shutdown``; a new server started with
   ``--restore`` answers queries (``restart_s`` ends at its first answer).
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.analysis.experiments import paper_sweep
from repro.scenario.scenario import Scenario
from repro.serve.protocol import encode_response, parse_event_line
from repro.serve.service import ServeService

from spans import OUT_DIR, NullRecorder, SpanRecorder

__all__ = ["run_serve", "reference_digest"]

PREDICTOR = "periodicity"
SHARDS = 2
MAX_STREAMS = 48  # per shard: total LRU cap 96 streams
POPULATION = 960  # ten times the total cap
ZIPF_S = 1.1
QUERY_EVERY = 8
#: Paper cells whose receive streams feed the keys (fixed simulation seed).
SOURCE_CELLS = ("bt.9", "cg.8", "lu.8", "is.8", "sw.6")
SOURCE_SEED = 2003

#: (offered lines/s, share of --seconds).  The rates bracket the TCP
#: server's saturation on this mix, near 1600 lines/s on a two-vCPU host;
#: the nominal rung runs longest so its query p99 has at least ten samples
#: beyond it.
LADDER = ((500, 0.1), (1000, 0.4), (1250, 0.1), (1500, 0.1), (2000, 0.1))
NOMINAL_RATE = 1000
P99_LIMIT_MS = 50.0  # a rung is met when its query p99 stays within this
DRAIN_LIMIT_S = 0.25  # ... and its closing flush is answered this soon
GEN_LATE_LIMIT_MS = 5.0  # p99 generator lateness beyond this: rung invalid
WARMUP_LINES = 6000
BATCHES_PER_RUNG = 3
BATCH_LINES = 800
POST_RESTORE_QUERIES = 200
SETUP_REPEATS = 7
TIMEOUT_S = 60.0


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def source_streams() -> list[list[tuple[int, int]]]:
    """Logical (sender, nbytes) receive streams of small paper cells."""
    streams = []
    for spec in paper_sweep(seed=SOURCE_SEED, scale=0.05).expand():
        if spec.label not in SOURCE_CELLS:
            continue
        result = Scenario(spec).run()
        for rank in range(spec.workload.nprocs):
            senders = result.stream("sender", "logical", rank).tolist()
            sizes = result.stream("size", "logical", rank).tolist()
            if len(senders) >= 32:
                streams.append(list(zip(senders, sizes)))
    return streams


class LineGenerator:
    """Seeded Zipf key choice over per-key receive streams."""

    def __init__(self, seed: int, sources) -> None:
        self.rng = random.Random(seed)
        weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(POPULATION)]
        self.cumulative = []
        total = 0.0
        for weight in weights:
            total += weight
            self.cumulative.append(total)
        # Names, hence shard placement, and sources follow popularity rank
        # alone, so every seed offers the same mix of streams at each
        # popularity on each shard; the seed picks offsets and the draws.
        self.names = [f"r{rank}" for rank in range(POPULATION)]
        self.sources = [sources[rank % len(sources)] for rank in range(POPULATION)]
        self.cursor = [self.rng.randrange(len(src)) for src in self.sources]

    def _key(self) -> int:
        return bisect.bisect_left(self.cumulative, self.rng.random() * self.cumulative[-1])

    def lines(self, count: int, queries_only: bool = False) -> list[bytes]:
        out = []
        for _ in range(count):
            key = self._key()
            name = self.names[key]
            source = self.sources[key]
            if queries_only or self.rng.randrange(QUERY_EVERY) == 0:
                if self.rng.random() < 0.5:
                    event = {"op": "predict", "receiver": name}
                else:
                    sender, _nbytes = source[self.cursor[key]]
                    event = {"op": "expects", "receiver": name, "sender": sender}
            else:
                sender, nbytes = source[self.cursor[key]]
                self.cursor[key] = (self.cursor[key] + 1) % len(source)
                event = {"receiver": name, "sender": sender, "nbytes": nbytes}
            out.append(_line(event))
        return out


def _line(event: dict) -> bytes:
    return (json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n").encode()


FLUSH = _line({"op": "flush"})
STATS = _line({"op": "stats"})
SHUTDOWN = _line({"op": "shutdown"})


def _answers(line: bytes) -> bool:
    """Whether the server answers this line (observes get no response)."""
    return b'"op"' in line


def build_session(seed: int, seconds: float) -> dict:
    """Every line of the session, by segment, from the seed alone.

    The snapshot directory is relative to the repository root (the working
    directory of the benchmark and of the servers) and is part of the
    ``snapshot`` answer, so it depends on nothing but the seed.
    """
    snapshot_dir = f"{OUT_DIR}/serve-snapshot-{seed}"
    generator = LineGenerator(seed, source_streams())
    warmup = generator.lines(WARMUP_LINES) + [FLUSH]
    segments = []  # (offered rate, lines) of each rung; rate None: a batch
    for rate, share in LADDER:
        segments.append((rate, generator.lines(int(rate * share * seconds)) + [FLUSH]))
        for _ in range(BATCHES_PER_RUNG):
            segments.append((None, generator.lines(BATCH_LINES) + [FLUSH]))
    closing = [STATS, _line({"op": "snapshot", "dir": snapshot_dir}), SHUTDOWN]
    restored = generator.lines(POST_RESTORE_QUERIES, queries_only=True) + [STATS, SHUTDOWN]
    return {
        "warmup": warmup, "segments": segments, "closing": closing, "restored": restored
    }


def main_lines(session: dict) -> list[bytes]:
    """The first server's lines in order (setup ``stats`` first)."""
    lines = [STATS] + session["warmup"]
    for _rate, segment in session["segments"]:
        lines += segment
    return lines + session["closing"]


# ----------------------------------------------------------------------
# The in-process reference
# ----------------------------------------------------------------------
def _new_service() -> ServeService:
    return ServeService(PREDICTOR, num_shards=SHARDS, max_streams=MAX_STREAMS)


def reference_responses(session: dict) -> list[str]:
    """Responses of ``ServeService.handle_line`` on the session's lines."""
    responses = []
    service = _new_service()
    for number, line in enumerate(main_lines(session), start=1):
        response = service.handle_line(line.decode(), number)
        if response is not None:
            responses.append(encode_response(response))
    service = ServeService.restore(_snapshot_dir(session))
    for number, line in enumerate(session["restored"], start=1):
        response = service.handle_line(line.decode(), number)
        if response is not None:
            responses.append(encode_response(response))
    return responses


#: Stats fields that estimate memory: the table refreshes them every 64
#: observations of a stream *per call*, and the TCP server feeds observes
#: in batches, so they legitimately differ from the line-by-line reference.
ESTIMATES = ("resident_bytes", "resident_bytes_per_stream")


def comparable(answer: str) -> str:
    """An answer with the memory estimates of ``stats`` taken out."""
    if '"op":"stats"' not in answer:
        return answer
    stats = json.loads(answer)
    for table in (stats, *stats.get("shards", ())):
        for field in ESTIMATES:
            table.pop(field, None)
    return encode_response(stats)


def digest(responses: list[str]) -> str:
    return hashlib.sha256("\n".join(responses).encode()).hexdigest()[:24]


def reference_digest(seed: int, seconds: float) -> str:
    session = build_session(seed, seconds)
    try:
        return digest(reference_responses(session))
    finally:
        shutil.rmtree(_snapshot_dir(session), ignore_errors=True)


def _snapshot_dir(session: dict) -> str:
    return parse_event_line(session["closing"][1].decode()).dir


def timed_replay(session: dict) -> tuple[dict, list[str], list[float]]:
    """Replay through ``parse_event_line`` and ``ServeService.handle``,
    timing each call; returns (layer totals, responses, per-batch seconds)."""
    totals = {"parse_s": 0.0, "observe_s": 0.0, "query_s": 0.0, "snapshot_s": 0.0,
              "restore_s": 0.0, "lines": 0}
    responses = []
    batch_s = []
    clock = time.perf_counter

    def replay(service, lines):
        spent = 0.0
        for number, line in enumerate(lines, start=1):
            t0 = clock()
            event = parse_event_line(line.decode(), number)
            t1 = clock()
            response = service.handle(event)
            t2 = clock()
            totals["parse_s"] += t1 - t0
            if event.op == "observe":
                totals["observe_s"] += t2 - t1
            elif event.op in ("predict", "expects"):
                totals["query_s"] += t2 - t1
            elif event.op == "snapshot":
                totals["snapshot_s"] += t2 - t1
            spent += t2 - t0
            if response is not None:
                responses.append(encode_response(response))
        totals["lines"] += len(lines)
        return spent

    service = _new_service()
    replay(service, [STATS] + session["warmup"])
    for rate, segment in session["segments"]:
        spent = replay(service, segment)
        if rate is None:
            batch_s.append(spent)
    replay(service, session["closing"])
    t0 = clock()
    service = ServeService.restore(_snapshot_dir(session))
    totals["restore_s"] = clock() - t0
    replay(service, session["restored"])
    return totals, responses, batch_s


# ----------------------------------------------------------------------
# The TCP side
# ----------------------------------------------------------------------
class Connection:
    """One TCP connection; a reader thread stamps each response line."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.arrivals: list[tuple[float, bytes]] = []
        self.due: list[float] = []  # due time of each answered line, in order
        self._target = 0
        self._reached = threading.Event()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        try:
            with self.sock.makefile("rb") as stream:
                for line in stream:
                    self.arrivals.append((time.perf_counter(), line))
                    if len(self.arrivals) >= self._target:
                        self._reached.set()
        except OSError:
            pass  # connection torn down; missing answers are counted by the caller
        self._reached.set()  # wake a waiter at end of stream

    def send(self, lines: list[bytes], due: list[float]) -> None:
        """Write ``lines`` now; ``due`` holds each line's scheduled time."""
        for line, when in zip(lines, due):
            if _answers(line):
                self.due.append(when)
        self.sock.sendall(b"".join(lines))

    def wait(self, count: int) -> float:
        """Block until ``count`` answers arrived; returns the last one's time."""
        self._target = count
        self._reached.clear()
        if len(self.arrivals) < count:
            self._reached.wait(TIMEOUT_S)
        if len(self.arrivals) < count:
            raise TimeoutError(f"{len(self.arrivals)} of {count} answers arrived")
        return self.arrivals[count - 1][0]

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._reader.join(TIMEOUT_S)
        self.sock.close()


class Server:
    """A ``python -m repro serve --port 0`` child process."""

    def __init__(self, root: Path, log, extra: list[str]) -> None:
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *extra],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=log, text=True,
        )
        banner = self.proc.stdout.readline()
        if not banner.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"serve did not start: {banner!r}")
        self.port = int(banner.rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for row in status:
                if row.startswith("VmHWM:"):
                    return int(row.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        try:
            self.proc.wait(TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _spawn_and_stats(root, log, extra) -> tuple[float, Server, Connection]:
    start = time.perf_counter()
    server = Server(root, log, extra)
    conn = Connection(server.port)
    conn.send([STATS], [start])
    return conn.wait(1) - start, server, conn


def send_open_loop(conn: Connection, lines: list[bytes], rate: float) -> list[float]:
    """Send ``lines`` at ``rate`` per second; returns each line's lateness."""
    clock = time.perf_counter
    t0 = clock() + 0.002
    late = []
    index, count = 0, len(lines)
    while index < count:
        now = clock()
        due = t0 + index / rate
        if now < due:
            time.sleep(due - now)
            continue
        upto = min(count, int((now - t0) * rate) + 1)
        dues = [t0 + k / rate for k in range(index, upto)]
        conn.send(lines[index:upto], dues)
        sent = clock()
        late.extend(sent - when for when in dues)
        index = upto
    return late


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# ----------------------------------------------------------------------
# One benchmark run
# ----------------------------------------------------------------------
def run_serve(root: Path, seed: int, seconds: float, trace: bool):
    """Run serve-zipf from ``root``; returns (attempted, failed, metrics,
    report, digest of the reference answers)."""
    rec = SpanRecorder() if trace else NullRecorder()
    out_dir = root / OUT_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    with rec.span("inputs"):
        session = build_session(seed, seconds)
    snapshot_dir = _snapshot_dir(session)
    shutil.rmtree(snapshot_dir, ignore_errors=True)
    extra = ["--predictor", PREDICTOR, "--shards", str(SHARDS), "--max-streams", str(MAX_STREAMS)]
    report: dict = {"rungs": []}
    log = open(out_dir / "serve-stderr.log", "a", encoding="utf-8")
    servers: list[Server] = []
    conns: list[Connection] = []
    try:
        setups = []
        for index in range(SETUP_REPEATS):
            rec.set_trace(f"setup-{index}")
            with rec.span("serve.setup"):
                setup_s, server, conn = _spawn_and_stats(root, log, extra)
            servers.append(server)
            conns.append(conn)
            setups.append(setup_s)
            if index < SETUP_REPEATS - 1:
                conn.send([SHUTDOWN], [time.perf_counter()])
                conn.wait(2)
                conn.close()
                server.stop()
        report["setup_s"] = setups

        rec.set_trace("ladder")
        with rec.span("serve.warmup"):
            conn.send(session["warmup"], [time.perf_counter()] * len(session["warmup"]))
            answered = 1 + sum(1 for line in session["warmup"] if _answers(line))
            conn.wait(answered)
        batch_s = []
        for rate, segment in session["segments"]:
            answers = sum(1 for line in segment if _answers(line))
            if rate is None:
                with rec.span("serve.batch"):
                    start = time.perf_counter()
                    conn.send(segment, [start] * len(segment))
                    answered += answers
                    batch_s.append(conn.wait(answered) - start)
                continue
            with rec.span("serve.rung", rate=rate):
                late = send_open_loop(conn, segment, rate)
                flush_at = conn.wait(answered + answers)
            lat = [
                (conn.arrivals[i][0] - conn.due[i]) * 1000.0
                for i in range(answered, answered + answers - 1)
            ]
            drain_s = flush_at - conn.due[answered + answers - 1]
            answered += answers
            row = {
                "rate": rate, "samples": len(lat),
                "p50_ms": _quantile(lat, 0.5), "p99_ms": _quantile(lat, 0.99),
                "gen_late_p99_ms": _quantile(late, 0.99) * 1000.0, "drain_s": drain_s,
            }
            row["valid"] = row["gen_late_p99_ms"] <= GEN_LATE_LIMIT_MS
            row["met"] = row["valid"] and row["p99_ms"] <= P99_LIMIT_MS and drain_s <= DRAIN_LIMIT_S
            report["rungs"].append(row)
        report["job_s"] = batch_s

        rec.set_trace("restart")
        stats_line, snapshot_line, shutdown_line = session["closing"]
        conn.send([stats_line], [time.perf_counter()])
        conn.wait(answered + 1)
        rss = server.peak_rss_mb()
        final_stats = json.loads(conn.arrivals[answered][1])
        with rec.span("serve.restart"):
            start = time.perf_counter()
            conn.send([snapshot_line, shutdown_line], [start, start])
            conn.wait(answered + 3)
            conn.close()
            server.stop()
            restored = Server(root, log, ["--restore", snapshot_dir])
            servers.append(restored)
            conn2 = Connection(restored.port)
            conns.append(conn2)
            first, rest = session["restored"][:1], session["restored"][1:]
            conn2.send(first, [start])
            restart_s = conn2.wait(1) - start
        conn2.send(rest, [time.perf_counter()] * len(rest))
        conn2.wait(sum(1 for line in session["restored"] if _answers(line)))
        conn2.close()
        restored.stop()
    finally:
        for each in conns:
            each.close()
        for each in servers:
            if each.proc.poll() is None:
                each.proc.kill()
            each.stop()
        log.close()

    # Check every answer against the in-process reference.
    tcp = [line.decode().strip() for _at, line in conn.arrivals]
    tcp += [line.decode().strip() for _at, line in conn2.arrivals]
    rec.set_trace("reference")
    with rec.span("serve.reference"):
        expected = reference_responses(session)
    wrong = [
        (index, got, want)
        for index, (got, want) in enumerate(zip(tcp, expected))
        if comparable(got) != comparable(want) or '"error"' in got
    ]
    report["mismatches"] = wrong[:3]
    failed = abs(len(expected) - len(tcp)) + len(wrong)
    attempted = len(main_lines(session)) + len(session["restored"])

    nominal = next(row for row in report["rungs"] if row["rate"] == NOMINAL_RATE)
    met = [row["rate"] for row in report["rungs"] if row["met"]]
    job_s = statistics.median(batch_s)
    report["ladder_met"] = met
    report["resolved"] = {"serve_stats": final_stats}
    metrics = {"setup_s": statistics.median(setups), "job_s": job_s, "peak_rss_mb": rss}
    if trace:
        # The reference replay above warmed this process.  Timed and untimed
        # replays then go in ABBA order, so drift in host speed cancels.
        untimed_s, timed_s = [], []
        for timed in (True, False, False, True):
            start = time.perf_counter()
            if timed:
                with rec.span("serve.timed_replay"):
                    totals, responses, replay_batch_s = timed_replay(session)
                timed_s.append(time.perf_counter() - start)
                failed += sum(1 for got, want in zip(responses, expected) if got != want)
                failed += abs(len(responses) - len(expected))
            else:
                reference_responses(session)
                untimed_s.append(time.perf_counter() - start)
        inproc_s = totals["parse_s"] + totals["observe_s"] + totals["query_s"]
        observations = final_stats["observations"]
        metrics = {
            "serve.streams_created": sum(
                shard["streams_created"] for shard in final_stats["shards"]
            ),
            "serve.evictions": final_stats["evictions"],
            "serve.resident_bytes": final_stats["resident_bytes"],
            "serve.parse_errors": final_stats["parse_errors"],
            "serve.parse_s": totals["parse_s"],
            "serve.observe_s": totals["observe_s"],
            "serve.query_s": totals["query_s"],
            "serve.snapshot_s": totals["snapshot_s"],
            "serve.restore_s": totals["restore_s"],
            "serve.inproc_lines_per_s": totals["lines"] / inproc_s,
            "serve.wire_share": 1.0 - statistics.median(replay_batch_s) / job_s,
            "serve.gen_late_ms": nominal["gen_late_p99_ms"],
            "serve.drain_s": nominal["drain_s"],
            "serve.query_p50_ms": nominal["p50_ms"],
            "serve.query_p99_ms": nominal["p99_ms"],
            "serve.query_samples": nominal["samples"],
            "serve.max_rate": max(met, default=0),
            "serve.restart_s": restart_s,
            "spans.overhead": sum(timed_s) / sum(untimed_s) - 1.0,
        }
        metrics["serve.resident_hit_ratio"] = (
            1.0 - metrics["serve.streams_created"] / observations if observations else 0.0
        )
        rec.write_ndjson(out_dir / f"serve-zipf-seed{seed}-spans.ndjson", metrics)
    report["query_p50_ms"] = nominal["p50_ms"]
    report["query_p99_ms"] = nominal["p99_ms"]
    report["query_samples"] = nominal["samples"]
    report["max_rate"] = max(met, default=0)
    report["restart_s"] = restart_s
    shutil.rmtree(snapshot_dir, ignore_errors=True)
    return attempted, failed, metrics, report, digest(expected)
