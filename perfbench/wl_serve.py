"""Workload ``serve-mix``: a closed-loop client against the job server.

``python -m repro serve --port 0`` runs as a subprocess with its
defaults.  One client POSTs a job, long-polls ``GET /jobs/<id>?wait=``
until it is done, then sends the next.  Jobs are synthetic s9234 at
harness scale (0.12, 60 cycles), Multilevel k=2, drawn from a seeded
sequence in three classes:

- ``repeat`` (7 in 20): a request sent before -> result-cache hit;
- ``new-stimulus`` (10 in 20): a new stimulus seed on a partition seed
  already used -> partition-cache hit, runs on the warm ring;
- ``new-partition`` (3 in 20): a new partition seed -> partition-cache
  miss.

Every block of 20 jobs holds exactly that mix, shuffled, and a run
ends on a block boundary, so each run times the same mix.  The repeat
share sits far enough from one half that the median job stays inside
the ``new-stimulus`` class.  Served results are checked
against the sequential oracle after the timed window.

Exercises ``serve`` (HTTP app, JobManager, both caches, RingPool) and
``parallel`` on warm rings; bypasses the virtual ``warped`` kernel and
``harness``.  The traced run adds the cold process-backend probe of
``cold_probe.py`` after the window, for the ``parallel.*`` metrics of
cold spawns on a paper-size circuit.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time

import cold_probe
from hostspeed import at_reference, reference_work
from measure import percentile, peak_rss_mb, trace_overhead
from spans import SpanRecorder
from world import OUT, ROOT, SRC, BenchError, Report, same_as_oracle

SETUPS = 3
#: A run holds at least this many jobs, so ten lie beyond p90.
MIN_JOBS = 100
#: ... but the timed window never exceeds this.
MAX_WINDOW_S = 120.0
#: Job classes of one block; a run is a whole number of blocks.
BLOCK = ("repeat",) * 7 + ("new-partition",) * 3 + ("new-stimulus",) * 10
#: Repeats draw from this many most recent distinct requests, well
#: inside the server's default result-cache capacity (128).
RECENT = 64
BOOT_TIMEOUT_S = 60.0
JOB_WAIT_S = 60.0

BASE_REQUEST = {
    "circuit": "s9234",
    "scale": 0.12,
    "circuit_seed": 2000,
    "algorithm": "Multilevel",
    "nodes": 2,
    "num_cycles": 60,
    "period": 100,
    "activity": 0.5,
    "gvt_interval": 512,
    "optimism_window": 100,
}


class JobStream:
    """The seeded request sequence; seed 0 starts from partition seed 3
    and stimulus seed 7, the harness defaults."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.next_partition = 3 + 1000 * seed
        self.next_stimulus = 7 + 1000 * seed
        self.partitions: list[int] = []
        self.stimuli: list[int] = []
        self.history: list[dict] = []
        self._block: list[str] = []

    def _request(self, partition_seed: int, stimulus_seed: int) -> dict:
        request = dict(BASE_REQUEST, partition_seed=partition_seed,
                       stimulus_seed=stimulus_seed)
        self.history.append(request)
        return request

    def _new_partition(self) -> int:
        self.partitions.append(self.next_partition)
        self.next_partition += 1
        return self.partitions[-1]

    def _new_stimulus(self) -> int:
        self.stimuli.append(self.next_stimulus)
        self.next_stimulus += 1
        return self.stimuli[-1]

    def first(self) -> dict:
        return self._request(self._new_partition(), self._new_stimulus())

    def next(self) -> tuple[str, dict]:
        if not self._block:
            self._block = list(BLOCK)
            self.rng.shuffle(self._block)
        kind = self._block.pop()
        if kind == "repeat":
            return kind, self.rng.choice(self.history[-RECENT:])
        if kind == "new-partition":
            stimulus = self.rng.choice(self.stimuli[-RECENT:])
            return kind, self._request(self._new_partition(), stimulus)
        partition = self.rng.choice(self.partitions[-RECENT:])
        return kind, self._request(partition, self._new_stimulus())


class Server:
    """One ``python -m repro serve --port 0`` subprocess (own session, so
    a stuck server and its ring workers can be killed as a group)."""

    def __init__(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self._stderr_path = OUT / f"serve-{os.getpid()}.stderr"
        self._stderr = open(self._stderr_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self._stderr,
            start_new_session=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], BOOT_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "listening on http://" not in line:
            self.stop()
            raise BenchError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def call(self, method: str, path: str, body: dict | None = None) -> tuple[int, dict]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=JOB_WAIT_S + 30)
        try:
            payload = None if body is None else json.dumps(body)
            headers = {} if body is None else {"Content-Type": "application/json"}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGINT (the server drains and closes its rings), then the
        whole session if it lingers; waits until every member is gone."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                break
            os.killpg(self.proc.pid, signal.SIGKILL)
            time.sleep(0.05)
        self.proc.stdout.close()
        self._stderr.close()
        if self._stderr_path.stat().st_size == 0:
            self._stderr_path.unlink()  # kept only when the server complained


def submit(server: Server, request: dict) -> dict:
    """POST one job and long-poll it to a terminal state."""
    status, job = server.call("POST", "/jobs", request)
    if status != 202:
        return {"state": "refused", "error": job.get("error")}
    # The submit reply never carries the result, even for a cache hit.
    path = f"/jobs/{job['id']}?wait={JOB_WAIT_S:g}"
    while True:
        status, job = server.call("GET", path)
        if status != 200:
            return {"state": "refused", "error": job.get("error")}
        if job["state"] not in ("queued", "running"):
            return job


def boot(stream_first: dict) -> tuple[Server, float]:
    """Start a server and run one warm-up job (spawns the ring, builds
    the circuit, fills both caches); returns the server and the time."""
    t0 = time.perf_counter()
    server = Server()
    try:
        job = submit(server, stream_first)
        if job["state"] != "done":
            raise BenchError(f"warm-up job failed: {job.get('error')}")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - t0


def _cache_counts(metrics: dict) -> dict:
    return {
        tier: (metrics[tier]["hits"], metrics[tier]["misses"])
        for tier in ("result_cache", "partition_cache")
    }


def _verify(jobs: list[dict], report: Report, spans: SpanRecorder) -> dict:
    """Check every served result against the sequential oracle."""
    from repro.circuit.iscas89 import load_benchmark
    from repro.sim.kernel import SequentialSimulator
    from repro.sim.stimulus import RandomStimulus

    t0 = time.perf_counter()
    with spans.span("circuit"):
        circuit = load_benchmark(BASE_REQUEST["circuit"], scale=BASE_REQUEST["scale"],
                                 seed=BASE_REQUEST["circuit_seed"])
    build_s = time.perf_counter() - t0
    oracles: dict[int, object] = {}
    for job in jobs:
        if job["state"] != "done":
            continue
        seed = job["request"]["stimulus_seed"]
        if seed not in oracles:
            stimulus = RandomStimulus(
                circuit, num_cycles=BASE_REQUEST["num_cycles"],
                period=BASE_REQUEST["period"], activity=BASE_REQUEST["activity"],
                seed=seed,
            )
            with spans.span("sequential", job=job["id"]):
                oracles[seed] = SequentialSimulator(circuit, stimulus).run()
        result = job.get("result")
        if result is None or not same_as_oracle(
            result["final_values"], result["committed_captures"], oracles[seed]
        ):
            report.failed += 1
            report.fail(f"{job['id']}: served result differs from the oracle")
    return {"build_s": build_s, "circuit": circuit}


def _partition_layer(jobs: list[dict], circuit, spans: SpanRecorder) -> dict:
    """Re-run, in this process, the partitioner calls the server made
    for the run's partition-cache misses (the server does not expose
    its own partition time)."""
    from repro.partition.metrics import edge_cut
    from repro.partition.registry import get_partitioner

    seeds = sorted({j["request"]["partition_seed"] for j in jobs
                    if j["kind"] == "new-partition"})
    total = 0.0
    cuts = []
    for seed in seeds:
        t0 = time.perf_counter()
        with spans.span("partition"):
            assignment = get_partitioner(
                BASE_REQUEST["algorithm"], seed=seed
            ).partition(circuit, BASE_REQUEST["nodes"])
        total += time.perf_counter() - t0
        cuts.append(edge_cut(assignment))
    return {"partition_s": total, "edge_cuts": cuts}


def run(seed: int, seconds: float, trace: bool, spans: SpanRecorder) -> Report:
    report = Report()
    stream = JobStream(seed)
    first = stream.first()
    setups: list[float] = []
    server = None
    try:
        for _ in range(SETUPS):
            if server is not None:
                server.stop()
            before = reference_work()
            server, took = boot(first)
            setups.append(at_reference(took, (before, reference_work())))
        _, before = server.call("GET", "/metrics")
        jobs: list[dict] = []
        probing = 0.0
        start = time.perf_counter()
        while (
            len(jobs) < MIN_JOBS
            or len(jobs) % len(BLOCK)
            or time.perf_counter() - start - probing < seconds
        ):
            if time.perf_counter() - start - probing > MAX_WINDOW_S:
                break
            probing += report.host.sample()
            kind, request = stream.next()
            # The traced run records spans on every other job only, so
            # the untraced half gives the tracing overhead.
            job_spans = spans if trace and len(jobs) % 2 == 0 else SpanRecorder(False)
            report.attempted += 1
            t0 = time.perf_counter()
            with job_spans.span("job", job=str(len(jobs))):
                job = submit(server, request)
            job["latency"] = time.perf_counter() - t0
            job["kind"] = kind
            job["traced"] = job_spans.enabled
            if job["state"] != "done":
                report.failed += 1
                report.fail(f"job {len(jobs)} {job['state']}: {job.get('error')}")
            jobs.append(job)
        window = time.perf_counter() - start - probing
        _, after = server.call("GET", "/metrics")
    finally:
        if server is not None:
            server.stop()

    report.info["transport"] = sorted(
        {j["result"]["transport"] for j in jobs if "result" in j}
    )
    report.info["classes"] = {
        k: sum(1 for j in jobs if j["kind"] == k)
        for k in ("repeat", "new-stimulus", "new-partition")
    }
    checked = _verify(jobs, report, spans)
    latencies = [j["latency"] for j in jobs]
    if not trace:
        report.put("setup_s", statistics.median(setups), "s", len(setups),
                   scaled=True)
        report.put("job_s.p50", percentile(latencies, 50), "s", len(latencies))
        report.put("job_s.p90", percentile(latencies, 90), "s", len(latencies))
        report.put("jobs_per_s", len(jobs) / window, "1/s", len(jobs))
        report.put("peak_rss_mb", peak_rss_mb(), "MB", 1)
        return report
    checked.update(_partition_layer(jobs, checked["circuit"], spans))
    _put_layers(report, jobs, before, after, checked)
    cold_probe.probe(seed, spans, report)
    return report


def _put_layers(report, jobs, before, after, checked) -> None:
    done = [j for j in jobs if j["state"] == "done" and "result" in j]
    hits = [j for j in done if j["cache"].get("result") == "hit"]
    misses = [j for j in done if j["cache"].get("result") == "miss"]
    part_hit = [j for j in misses if j["cache"].get("partition") == "hit"]

    def med(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    def exec_s(job):
        return job["finished"] - job["started"]

    def node_wall(job):
        return max(s["wall_time"] for s in job["result"]["node_stats"])

    report.put("serve.hit_s.p50", med(j["latency"] for j in hits), "s", len(hits))
    report.put("serve.miss_s.p50", med(j["latency"] for j in misses), "s", len(misses))
    report.put("serve.http_s.p50",
               med(j["latency"] - (j["finished"] - j["created"]) for j in done),
               "s", len(done))
    report.put("serve.queue_s.p50", med(j["started"] - j["created"] for j in done),
               "s", len(done))
    report.put("serve.exec_s.p50", med(exec_s(j) for j in misses), "s", len(misses))
    start, end = _cache_counts(before), _cache_counts(after)
    for tier in ("result_cache", "partition_cache"):
        hits_n = end[tier][0] - start[tier][0]
        lookups = hits_n + end[tier][1] - start[tier][1]
        report.put(f"serve.{tier}.hit_ratio", hits_n / lookups if lookups else 0.0,
                   "ratio", lookups)
        report.put(f"serve.{tier}.lookups", lookups, "count", 1)
    report.put("serve.rings_spawned", after["pool"]["spawned"], "count", 1)
    report.put("serve.ring_reuses", after["pool"]["reused"], "count", 1)

    report.put("circuit.build_s", checked["build_s"], "s", 1)
    cuts = checked["edge_cuts"]
    report.put("partition.s", checked["partition_s"], "s", len(cuts),
               note="the run's partition-cache misses, re-run in-process")
    report.put("partition.edge_cut", med(cuts), "count", len(cuts))
    report.put("serve.ring_overhead_s.p50",
               med(exec_s(j) - node_wall(j) for j in part_hit), "s", len(part_hit),
               note="server exec minus slowest node wall, partition-cache hits")
    traced = [j["latency"] for j in jobs if j["traced"]]
    untraced = [j["latency"] for j in jobs if not j["traced"]]
    report.put("obs.trace_overhead", trace_overhead(traced, untraced), "ratio",
               len(traced))
