"""``service-mix``: a closed loop of HTTP/1.1 keep-alive clients on the service.

``python -m repro.service`` runs as a subprocess with its defaults (journal
on, 2 job workers) on a fresh cache directory.  Two client threads each hold
one persistent connection and run their own seeded stream: submit a job,
poll it every :data:`POLL_INTERVAL_S` until it is terminal, submit the next.
One operation is one job, timed from the POST to the poll that reports it
terminal.  A *round* is one service process serving both streams; a run
repeats rounds while its time lasts.

The streams mix fresh ``recommend``s on TPC-H tables at seeded scale factors,
exact resubmissions of the same thread's earlier requests (always
deduplicated), ``compare``s over explicit sub-grids of ``small`` (cells are
computed once and read from the cache by later sub-grids) and measured
``validate``s at small row counts.  Fresh requests never repeat across
threads, so which submissions deduplicate does not depend on timing.

The mix is an assumption, not a measurement: the repository has no recorded
traffic, and its one client (``examples/service_client.py``) submits a
single ``compare`` and resubmits it.  :data:`SHARES` says how the
proportions were chosen.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from common import (
    ROOT,
    Context,
    GCPauses,
    HostSpeed,
    Result,
    Spans,
    child_env,
    median,
    peak_rss_mb,
    percentile,
    ratio,
    settle,
)

THREADS = 2
JOBS_PER_THREAD = 120
SMOKE_JOBS_PER_THREAD = 6
POLL_INTERVAL_S = 0.01
#: Service starts measured only for ``setup_s``; every round adds one more.
SETUP_PROBES = 4
#: Host-speed samples after each set-up probe and after the rounds, taken
#: in the client while the service is stopped or idle; they scale ``setup_s``.
HOST_SAMPLES = 2
TERMINAL = ("done", "failed", "cancelled")

RECOMMEND_TABLES = ("customer", "orders", "part", "partsupp", "supplier", "nation")
VALIDATE_TABLES = ("partsupp", "customer", "orders", "part")
SMALL_ALGORITHMS = ("autopart", "hillclimb", "hyrise", "navathe", "o2p", "trojan")
SMALL_WORKLOADS = ("tpch:partsupp@0.1", "tpch:customer@0.1", "star:tiny", "telemetry:small")
SMALL_COST_MODELS = ("hdd", "mainmemory")

#: Each job kind's share of a thread's stream; ``recommend`` fills the rest.
#: No recorded traffic exists to derive these from, so they are chosen for
#: the metrics, not for realism: at 120 jobs per thread, the two slow kinds
#: get 24 (``compare``) and 12 (``validate``) fresh jobs per thread, so with
#: two threads every ``service.run_ms.<kind>.p50`` is a median of at least
#: 24 jobs a round; a quarter of the jobs are resubmissions so that dedup is
#: a large, fixed share of the traffic; ``recommend``, the cheapest kind,
#: fills the rest.  The recommend scale factors (0.1-10) and the
#: validate row counts (1k-4k, so a validate takes tens of milliseconds, not
#: seconds) are assumptions of the same kind.
SHARES = {"resubmit": 0.25, "compare": 0.2, "validate": 0.1}

Request = Tuple[str, Dict[str, object]]


def job_streams(seed: int, per_thread: int) -> List[List[Request]]:
    """One seeded request stream per client thread.

    Every stream holds the same number of jobs of each kind, and each kind
    cycles through its tables, so seeds change the scale factors, sub-grids,
    data seeds and order, not how much work a stream carries.
    """
    rng = random.Random(seed)
    used = set()
    drawn: Dict[str, int] = {}

    def fresh(kind: str) -> Request:
        index = drawn[kind] = drawn.get(kind, -1) + 1
        while True:
            if kind == "compare":
                body = {
                    "algorithms": sorted(rng.sample(SMALL_ALGORITHMS, 2)),
                    "workloads": sorted(rng.sample(SMALL_WORKLOADS, 1 + index % 2)),
                    "cost_models": [SMALL_COST_MODELS[index // 2 % 2]],
                }
            elif kind == "validate":
                body = {
                    "workload": f"tpch:{VALIDATE_TABLES[index % len(VALIDATE_TABLES)]}@1",
                    "rows": rng.choice((1000, 2000, 4000)),
                    "data_seed": rng.randrange(1_000_000),
                }
            else:
                table = RECOMMEND_TABLES[index % len(RECOMMEND_TABLES)]
                body = {
                    "workload": f"tpch:{table}@{rng.uniform(0.1, 10.0):.3f}",
                    "cost_model": ("hdd", "mainmemory")[index // len(RECOMMEND_TABLES) % 2],
                }
            key = (kind, json.dumps(body, sort_keys=True))
            if key not in used:
                used.add(key)
                return kind, body

    counts = {kind: int(per_thread * share) for kind, share in SHARES.items()}
    quota = [kind for kind, count in counts.items() for _ in range(count)]
    quota += ["recommend"] * (per_thread - len(quota))
    plans = []
    for _ in range(THREADS):
        plan = list(quota)
        rng.shuffle(plan)
        # A resubmission needs an earlier job of the same thread.
        first = next(i for i, kind in enumerate(plan) if kind != "resubmit")
        plan.insert(0, plan.pop(first))
        plans.append(plan)
    streams: List[List[Request]] = [[] for _ in range(THREADS)]
    # Fresh requests are drawn in interleaved order so both threads see the
    # same table rotation.
    for step in range(per_thread):
        for plan, own in zip(plans, streams):
            kind = plan[step]
            own.append(rng.choice(own) if kind == "resubmit" else fresh(kind))
    return streams


def answer(kind: str, result: Dict[str, object]) -> object:
    """The deterministic part of a job result (timings and cache flags dropped)."""
    if kind == "recommend":
        return {
            "best": result["best"],
            "row_cost": result["row_cost"],
            "column_cost": result["column_cost"],
            "recommendations": [
                {key: row[key] for key in ("algorithm", "estimated_cost_s", "partitions", "layout")}
                for row in result["recommendations"]
            ],
        }
    if kind == "compare":
        return [
            {key: cell.get(key) for key in ("label", "ok", "estimated_cost", "layout")}
            for cell in result["cells"]
        ]
    return {
        "rank_correlation": result["rank_correlation"],
        "rows": [
            {key: row[key] for key in ("layout", "parts", "predicted (s)", "measured io (s)", "blocks", "seeks")}
            for row in result["rows"]
        ],
    }


def reference_answer(kind: str, body: Dict[str, object]) -> object:
    """The answer ``execute_job`` gives for a request run directly, no HTTP."""
    from repro.service.jobs import Job, execute_job, job_id_for, normalize_request

    normalized = normalize_request(kind, body)
    job = Job(id=job_id_for(kind, normalized), kind=kind, request=normalized)
    return answer(kind, json.loads(json.dumps(execute_job(job, cache_dir=None))))


# -- the service process -------------------------------------------------------


class Service:
    """One ``python -m repro.service`` subprocess on a fresh cache directory."""

    def __init__(self, workdir: str, name: str) -> None:
        self.cache_dir = os.path.join(workdir, name)
        started = time.perf_counter()
        self._log = open(os.path.join(workdir, f"{name}.log"), "w", encoding="utf-8")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0", "--cache-dir", self.cache_dir],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=child_env(workdir),
            cwd=ROOT,
            text=True,
        )
        try:
            banner = self.process.stdout.readline().split()
            if not banner or not banner[-1].startswith("http://"):
                raise RuntimeError("service did not print its address")
            self.host, port = banner[-1][len("http://"):].rstrip("/").split(":")
            self.port = int(port)
            while self.status("/health/ready") != 200:
                time.sleep(0.002)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - started

    def status(self, path: str) -> int:
        """Status of one GET on a fresh connection; 0 while the port is closed."""
        connection = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            response.read()
            return response.status
        except ConnectionError:
            return 0
        finally:
            connection.close()

    def get_json(self, path: str) -> Dict[str, object]:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            connection.request("GET", path)
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def cpu_seconds(self) -> float:
        """User plus system CPU seconds the service process has used so far."""
        with open(f"/proc/{self.process.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def journal_bytes(self) -> int:
        path = os.path.join(self.cache_dir, "service-journal.jsonl")
        return os.path.getsize(path) if os.path.exists(path) else 0

    def stop(self) -> None:
        """Graceful SIGTERM, a kill if it hangs; always waits for the exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


# -- the clients ---------------------------------------------------------------


@dataclass
class JobRecord:
    kind: str
    body: Dict[str, object]
    latency_s: float = 0.0
    deduped: bool = False
    polls: int = 0
    state: str = "refused"
    job: Dict[str, object] = field(default_factory=dict)
    error: Optional[str] = None


def drive(service: Service, stream: List[Request], spans: Spans, records: List[JobRecord]) -> None:
    """One client thread: a closed loop over ``stream`` on one connection."""
    connection = http.client.HTTPConnection(service.host, service.port, timeout=60)

    def call(method: str, path: str, body: Optional[bytes] = None):
        with spans.span(f"service.{method.lower()}", path=path.split("/")[2]):
            headers = {"Content-Type": "application/json"} if body is not None else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()

    record = None
    try:
        for kind, body in stream:
            record = JobRecord(kind=kind, body=body)
            records.append(record)
            with spans.span("service-mix.job", kind=kind):
                started = time.perf_counter()
                status, data = call("POST", f"/v1/{kind}", json.dumps(body).encode("utf-8"))
                if status != 202:
                    record.error = f"POST /v1/{kind} answered {status}"
                    continue
                document = json.loads(data)
                job, record.deduped = document["job"], document["deduped"]
                while job["state"] not in TERMINAL:
                    time.sleep(POLL_INTERVAL_S)
                    status, data = call("GET", f"/v1/jobs/{job['id']}")
                    record.polls += 1
                    if status != 200:
                        record.error = f"GET /v1/jobs answered {status}"
                        break
                    job = json.loads(data)
                record.latency_s = time.perf_counter() - started
            record.job, record.state = job, job["state"]
            if record.state != "done":
                record.error = record.error or f"job ended {record.state}: {job.get('error')}"
    except (OSError, http.client.HTTPException, ValueError) as error:
        # The job in flight is lost, and the rest of this stream with it.
        if record is None:
            record = JobRecord(kind="?", body={})
            records.append(record)
        record.error = f"{type(error).__name__}: {error}"
    finally:
        connection.close()


@dataclass
class Round:
    records: List[JobRecord]
    wall_s: float
    cpu_s: float
    health: Dict[str, object]
    journal_bytes: int
    gc_pause_s: float
    spans_from: int


def serve_round(ctx: Context, index: int, streams: List[List[Request]], spans: Spans,
                setup: List[float]) -> Round:
    service = Service(ctx.workdir, f"round-{index}")
    try:
        setup.append(service.ready_s)
        per_thread: List[List[JobRecord]] = [[] for _ in streams]
        spans_from = len(spans.records)
        settle()
        with GCPauses() as pauses:
            cpu0 = service.cpu_seconds()
            started = time.perf_counter()
            threads = [
                threading.Thread(target=drive, args=(service, stream, spans, records), daemon=True)
                for stream, records in zip(streams, per_thread)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            wall = time.perf_counter() - started
            cpu = service.cpu_seconds() - cpu0
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a client thread did not finish")
        health = service.get_json("/health")
        journal_bytes = service.journal_bytes()
    finally:
        service.stop()
    return Round(
        records=[record for records in per_thread for record in records],
        wall_s=wall, cpu_s=cpu, health=health, journal_bytes=journal_bytes,
        gc_pause_s=pauses.total, spans_from=spans_from,
    )


def layer_metrics(round_: Round, spans: Spans) -> Dict[str, float]:
    """Per-layer figures of one traced round."""
    records = [record for record in round_.records if record.state == "done"]
    fresh = [record for record in records if not record.deduped]
    recorded = spans.records[round_.spans_from:]

    def route_ms(name: str) -> List[float]:
        return [1e3 * span["wall"] for span in recorded if span["name"] == name]

    def stamp(record: JobRecord, key: str) -> float:
        return float(record.job.get(key) or 0.0)

    metrics = {
        "service.jobs_per_s": ratio(len(round_.records), round_.wall_s),
        "service.job_p90_ms": 1e3 * percentile([r.latency_s for r in records], 0.9),
        "service.post_ms.p50": median(route_ms("service.post")),
        "service.get_ms.p50": median(route_ms("service.get")),
        "service.overhead_ms.p50": 1e3 * median([
            r.latency_s - (stamp(r, "finished_at") - stamp(r, "submitted_at")) for r in fresh
        ]),
        "service.queue_wait_ms.p90": 1e3 * percentile([
            stamp(r, "started_at") - stamp(r, "submitted_at") for r in fresh
        ], 0.9),
        "service.polls_per_job": ratio(sum(r.polls for r in round_.records), len(round_.records)),
        "service.dedup_ratio": ratio(sum(r.deduped for r in round_.records), len(round_.records)),
        "service.journal.appends": round_.health["journal"]["appends"],
        "service.journal.compactions": round_.health["journal"]["compactions"],
        "service.journal.bytes_per_job": ratio(round_.journal_bytes, len(round_.records)),
        "python.gc_pause_s": round_.gc_pause_s,
    }
    for kind in ("recommend", "compare", "validate"):
        metrics[f"service.run_ms.{kind}.p50"] = 1e3 * median([
            stamp(r, "finished_at") - stamp(r, "started_at") for r in fresh if r.kind == kind
        ])
    compares = [r.job["result"]["cache"] for r in fresh if r.kind == "compare"]
    hits = sum(cache["hits"] for cache in compares)
    cells = sum(cache["hits"] + cache["computed"] + cache["failed"] for cache in compares)
    metrics["grid.cache.hits"] = hits
    metrics["grid.cache.hit_ratio"] = ratio(hits, cells)
    return metrics


def run(ctx: Context, spans: Spans) -> Result:
    result = Result(bypassed=("grid.", "algorithms.", "cost.", "storage.", "exec.", "engine_x."))
    per_thread = SMOKE_JOBS_PER_THREAD if ctx.smoke else JOBS_PER_THREAD
    streams = job_streams(ctx.seed, per_thread)
    setup: List[float] = []
    host = HostSpeed()
    for probe in range(1 if ctx.smoke else SETUP_PROBES):
        service = Service(ctx.workdir, f"probe-{probe}")
        service.stop()
        setup.append(service.ready_s)
        host.sample(HOST_SAMPLES)
    rounds: List[Tuple[Round, bool]] = []
    deadline = ctx.deadline()
    while True:
        started = time.perf_counter()
        # The traced pass alternates untraced and traced rounds.
        traced = ctx.trace and len(rounds) % 2 == 1
        spans.enabled = traced
        rounds.append((serve_round(ctx, len(rounds), streams, spans, setup), traced))
        last = time.perf_counter() - started
        enough = len(rounds) >= (2 if ctx.trace else 1)
        if enough and time.perf_counter() + last > deadline:
            break
    spans.enabled = ctx.trace
    host.sample(HOST_SAMPLES * (1 if ctx.smoke else SETUP_PROBES))
    client_rss = peak_rss_mb(include_children=False)

    # Output checks, after the timed rounds: every job done, every answer
    # equal to the answer of the same request executed directly.
    references: Dict[Tuple[str, str], object] = {}
    for round_, _ in rounds:
        for record in round_.records:
            result.attempted += 1
            if record.error is not None:
                result.failed += 1
                result.problems.append(record.error)
                continue
            key = (record.kind, json.dumps(record.body, sort_keys=True))
            if key not in references:
                references[key] = reference_answer(record.kind, record.body)
            if answer(record.kind, record.job["result"]) != references[key]:
                result.problems.append(f"{record.kind} {key[1]}: answer differs from direct execution")

    untraced = [round_ for round_, traced in rounds if not traced]
    latencies = [r.latency_s for round_ in untraced for r in round_.records if r.state == "done"]
    jobs = sum(len(round_.records) for round_ in untraced)
    wall = sum(round_.wall_s for round_ in untraced)
    result.metrics = {
        "setup_s": median(setup) * host.factor,
        "peak_rss_mb": max(client_rss, peak_rss_mb(include_self=False)),
        # Not scaled: most of a job's latency is the keep-alive stall, a timer
        # that the host's speed does not move, and the service's CPU per job
        # moved far less than the calibration measured in the client.
        "op_p50_ms": 1e3 * median(latencies),
        "cpu_ms_per_op": 1e3 * ratio(sum(round_.cpu_s for round_ in untraced), jobs),
    }
    result.named = {
        "host_factor": host.factor,
        "raw_setup_s": median(setup),
        "rounds": len(untraced),
        "jobs": jobs,
        "jobs_per_s": ratio(jobs, wall),
        "job_p50_ms": 1e3 * median(latencies),
        "job_p90_ms": 1e3 * percentile(latencies, 0.9),
    }
    if ctx.trace:
        layer: Dict[str, List[float]] = {}
        for round_, traced in rounds:
            if traced:
                for name, value in layer_metrics(round_, spans).items():
                    layer.setdefault(name, []).append(value)
        result.metrics.update({name: median(values) for name, values in layer.items()})
        traced_wall = median([round_.wall_s for round_, traced in rounds if traced])
        result.metrics["obs.trace_overhead_ratio"] = traced_wall / median(
            [round_.wall_s for round_ in untraced]
        ) - 1.0
    return result
