"""Cold process-backend runs on a paper-size circuit, made by the
``serve-mix`` traced run.

Full-scale synthetic s9234 (5,633 gates), 20 cycles, Multilevel k=2,
partitioned before the first run.  Each round runs a
``SequentialSimulator`` reference, one cold
``ProcessTimeWarpSimulator(...).run()`` on the default transport, and
one more with the program's ``trace_path`` on, whose worker
``node_summary`` records split node time into compute, transport and
idle.  The probe gives the ``parallel.*`` metrics of cold spawns
(spawn and arm, node engines, the wire, GVT) that the server's warm
rings skip.
"""

from __future__ import annotations

import json
import os
import statistics
import time
import traceback

from measure import (
    children_cpu_s,
    driver_seconds,
    self_cpu_s,
    speedup_vs_seq,
)
from spans import SpanRecorder
from world import TMP, Report, same_as_oracle

CIRCUIT = "s9234"
ROUNDS = 3


def build_world(seed: int, spans: SpanRecorder) -> dict:
    from repro.circuit.iscas89 import load_benchmark
    from repro.partition.registry import get_partitioner
    from repro.sim.kernel import SequentialSimulator
    from repro.sim.stimulus import RandomStimulus
    from repro.warped.machine import VirtualMachine

    with spans.span("circuit"):
        circuit = load_benchmark(CIRCUIT, scale=1.0, seed=2000)
    with spans.span("partition"):
        assignment = get_partitioner("Multilevel", seed=3).partition(circuit, 2)
    stimulus = RandomStimulus(
        circuit, num_cycles=20, period=100, activity=0.5, seed=7 + seed
    )
    machine = VirtualMachine(num_nodes=2, gvt_interval=512, optimism_window=100)
    with spans.span("sequential"):
        oracle = SequentialSimulator(circuit, stimulus).run()
    return {
        "circuit": circuit, "assignment": assignment, "stimulus": stimulus,
        "machine": machine, "oracle": oracle,
    }


def _process_job(world: dict, spans: SpanRecorder, job: str,
                 trace_path: str | None = None) -> dict:
    from repro.warped.parallel import ProcessTimeWarpSimulator

    cpu_children = children_cpu_s()
    cpu_self = self_cpu_s()
    t0 = time.perf_counter()
    with spans.span("process_run", job=job):
        result = ProcessTimeWarpSimulator(
            world["circuit"], world["assignment"], world["stimulus"],
            world["machine"], timeout=120.0, trace_path=trace_path,
        ).run()
    run_s = time.perf_counter() - t0
    return {
        "result": result,
        "run_s": run_s,
        "worker_cpu_s": children_cpu_s() - cpu_children,
        "parent_cpu_s": self_cpu_s() - cpu_self,
    }


def _check(job: dict, world: dict, report: Report, committed: set) -> None:
    result = job["result"]
    committed.add(result.events_committed)
    if result.degraded:
        report.failed += 1
        report.fail("process run degraded to the virtual backend")
    elif not same_as_oracle(
        result.final_values, result.committed_captures, world["oracle"]
    ):
        report.failed += 1
        report.fail("process run differs from the sequential oracle")


def _node_attribution(trace_path: str) -> dict[str, float]:
    """Summed compute/transport/idle over the nodes' ``node_summary``
    records; deletes the merged trace afterwards."""
    totals = {"compute": 0.0, "transport": 0.0, "idle": 0.0}
    with open(trace_path) as fh:
        for line in fh:
            if '"node_summary"' not in line:
                continue
            record = json.loads(line)
            for key in totals:
                totals[key] += record["attr"][key]
    os.remove(trace_path)
    return totals


def probe(seed: int, spans: SpanRecorder, report: Report) -> None:
    """Run the probe's rounds and put the ``parallel.*`` metrics and the
    paper-size ``sim.*`` reference into *report*."""
    from repro.sim.kernel import SequentialSimulator

    world = build_world(seed, spans)
    committed: set[int] = set()
    plain: list[dict] = []
    attribution: list[dict] = []
    seq_times: list[float] = []
    trace_path = str(TMP / "process.trace.jsonl")
    for index in range(1, ROUNDS + 1):
        report.host.sample()
        t0 = time.perf_counter()
        with spans.span("sequential", job=f"seq-{index}"):
            SequentialSimulator(world["circuit"], world["stimulus"]).run()
        seq_times.append(time.perf_counter() - t0)
        for path in (None, trace_path):
            report.host.sample()
            report.attempted += 1
            try:
                job = _process_job(world, spans, f"cold-{index}", path)
            except Exception:  # noqa: BLE001 - count it, keep measuring
                report.failed += 1
                report.fail(traceback.format_exc(limit=3))
                continue
            _check(job, world, report, committed)
            if path is None:
                plain.append(job)
            else:
                attribution.append(_node_attribution(path))

    report.info["cold_transport"] = sorted({j["result"].transport for j in plain})
    report.info["cold_events_committed"] = sorted(committed)
    if len(committed) > 1:
        report.fail(f"committed event count varies between cold runs: "
                    f"{sorted(committed)}")
    report.put("sim.seq_s.p50", statistics.median(seq_times), "s", len(seq_times))
    report.put("sim.events", world["oracle"].events_processed, "count", 1)
    if not plain:
        return

    def med(values):
        return statistics.median(list(values))

    n = len(plain)
    results = [j["result"] for j in plain]
    run_times = [j["run_s"] for j in plain]
    report.put("parallel.run_s.p50", med(run_times), "s", n)
    report.put("parallel.node_wall_s.p50",
               med(max(s.wall_time for s in r.node_stats) for r in results), "s", n)
    report.put(
        "parallel.driver_s.p50",
        med(driver_seconds(j["run_s"], [s.wall_time for s in j["result"].node_stats])
            for j in plain),
        "s", n,
    )
    report.put("parallel.worker_cpu_s", med(j["worker_cpu_s"] for j in plain), "s", n)
    report.put("parallel.parent_cpu_s", med(j["parent_cpu_s"] for j in plain), "s", n)
    report.put(
        "parallel.us_per_event",
        med(j["worker_cpu_s"] * 1e6 / j["result"].events_processed for j in plain),
        "us", n,
    )
    report.put("parallel.busy_s",
               med(sum(s.busy_time for s in r.node_stats) for r in results), "s", n)
    if attribution:
        report.put("parallel.transport_s", med(a["transport"] for a in attribution),
                   "s", len(attribution))
        report.put("parallel.idle_s", med(a["idle"] for a in attribution),
                   "s", len(attribution))
    report.put("parallel.events", med(r.events_processed for r in results), "count", n)
    report.put("parallel.committed", med(r.events_committed for r in results),
               "count", n)
    report.put("parallel.rolled_back", med(r.events_rolled_back for r in results),
               "count", n)
    report.put("parallel.efficiency", med(r.efficiency for r in results), "ratio", n)
    report.put("parallel.app_messages", med(r.app_messages for r in results),
               "count", n)
    report.put("parallel.anti_messages", med(r.anti_messages for r in results),
               "count", n)
    report.put("parallel.gvt_rounds", med(r.gvt_rounds for r in results), "count", n)
    report.put("parallel.speedup_vs_seq", speedup_vs_seq(seq_times, run_times),
               "x", min(len(seq_times), n))
