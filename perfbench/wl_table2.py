"""Workload ``table2``: the paper's Table 2 at harness scale.

s5378, s9234 and s15850 under all six partitioners at their Table 2
node counts (66 cells), driven cell by cell through a fresh
``ExperimentRunner`` per pass, the way ``repro table2`` drives it.
A job is one cell (``runner.record``).  A pass first runs the three
sequential baselines, then the 66 cells in an order shuffled by the
workload seed.  Cells are independent, so the order changes no result;
it spreads each circuit's cells over the whole pass, so that the cell
median samples the host over the pass and not over one circuit's few
seconds of it.

The seed changes only that order.  The stimulus stays the harness
default (seed 7), the study as published: a new stimulus seed moves the
median cell's work by up to 20% (its processed events ranged from
21,284 to 26,620 over six seeds while the pass total moved 3%), which
would put the seed, not the program, into ``job_s.p50``.

Exercises ``harness``, ``circuit``, ``partition``, ``sim`` and the
virtual ``warped`` kernel; bypasses ``parallel`` and ``serve``.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time
import traceback

from hostspeed import at_reference, reference_work
from measure import percentile, peak_rss_mb, trace_overhead
from spans import SpanRecorder, total_self
from world import Report, same_as_oracle

#: Set-ups made before the timed window, and again after it; setup_s
#: is the median of all of them.
SETUPS = 6


def make_config():
    from repro.harness.config import ExperimentConfig

    # Every field the workload depends on, spelled out (not from_env).
    return ExperimentConfig(
        scale=0.12,
        num_cycles=60,
        period=100,
        activity=0.5,
        circuit_seed=2000,
        stimulus_seed=7,
        partition_seed=3,
        window_periods=1.0,
        repetitions=1,
        gvt_interval=512,
        backend="virtual",
    )


def _fresh_runner(config, spans: SpanRecorder):
    """A runner with its circuits built; returns (runner, build seconds
    at reference speed)."""
    from repro.harness.config import TABLE2_NODE_COUNTS
    from repro.harness.experiment import ExperimentRunner

    before = reference_work()
    runner = ExperimentRunner(config)
    if spans.enabled:
        for method in ("circuit", "partition", "sequential", "run"):
            spans.wrap_method(runner, method, method)
    start = time.perf_counter()
    for name in TABLE2_NODE_COUNTS:
        runner.circuit(name)
        runner.stimulus(name)
    built = time.perf_counter() - start
    return runner, at_reference(built, (before, reference_work()))


def _cell_stats(result) -> tuple:
    return (
        result.execution_time,
        result.events_processed,
        result.events_rolled_back,
        result.rollbacks,
        result.app_messages,
        result.anti_messages,
        result.gvt_rounds,
    )


def table2_cells() -> list[tuple[str, str, int]]:
    """Every (circuit, algorithm, nodes) cell of Table 2."""
    from repro.harness.config import ALGORITHMS, TABLE2_NODE_COUNTS

    return [
        (name, algorithm, nodes)
        for name, node_counts in TABLE2_NODE_COUNTS.items()
        for nodes in node_counts
        for algorithm in ALGORITHMS
    ]


def cell_order(seed: int, cells: list) -> list:
    """*cells* shuffled by *seed* (a new list)."""
    order = list(cells)
    random.Random(seed).shuffle(order)
    return order


def _run_pass(runner, order, spans: SpanRecorder, report: Report) -> dict:
    """One Table 2 pass; returns cell times, wall and the stats digest."""
    from repro.harness.config import TABLE2_NODE_COUNTS

    cells: list[float] = []
    seq_times: list[float] = []
    stats: list[tuple] = []
    probes: list[float] = []
    start = time.perf_counter()
    for name in TABLE2_NODE_COUNTS:
        t0 = time.perf_counter()
        with spans.span("sequential_time", job=name):
            runner.sequential_time(name)
        seq_times.append(time.perf_counter() - t0)
    for name, algorithm, nodes in order:
        job = f"{name}/{algorithm}/{nodes}"
        probes.append(report.host.sample())
        report.attempted += 1
        t0 = time.perf_counter()
        try:
            with spans.span("cell", job=job):
                runner.record(name, algorithm, nodes)
        except Exception:  # noqa: BLE001 - count it, keep measuring
            report.failed += 1
            report.fail(f"{job}: {traceback.format_exc(limit=3)}")
            continue
        cells.append(time.perf_counter() - t0)
        result = runner.run(name, algorithm, nodes)
        oracle = runner.sequential(name)
        if not same_as_oracle(
            result.final_values, result.committed_captures, oracle
        ):
            report.failed += 1
            report.fail(f"{job}: differs from the sequential oracle")
        stats.append((job, *_cell_stats(result)))
    wall = time.perf_counter() - start - sum(probes)
    stats.sort()
    digest = hashlib.sha256(repr(stats).encode()).hexdigest()[:16]
    return {"cells": cells, "wall": wall, "seq": seq_times, "digest": digest,
            "stats": stats, "probes": probes}


def _put_end_to_end(report, setups, passes) -> None:
    cells = [t for p in passes for t in p["cells"]]
    report.put("setup_s", statistics.median(setups), "s", len(setups), scaled=True)
    report.put("job_s.p50", percentile(cells, 50), "s", len(cells))
    report.put("job_s.p90", percentile(cells, 90), "s", len(cells))
    report.put(
        "jobs_per_s", len(cells) / sum(p["wall"] for p in passes), "1/s",
        len(cells),
    )


def _put_layers(report, runner, spans, setups, traced, untraced) -> None:
    from repro.harness.config import ALGORITHMS, TABLE2_NODE_COUNTS
    from repro.partition.metrics import edge_cut

    recorded = spans.spans
    stats = traced["stats"]
    events = sum(s[2] for s in stats)
    run_self = total_self(recorded, "run")
    report.put("circuit.build_s", statistics.median(setups), "s", len(setups),
               scaled=True)
    report.put("partition.s", total_self(recorded, "partition"), "s", 1)
    report.put(
        "partition.edge_cut",
        sum(
            edge_cut(runner.partition(name, algorithm, nodes))
            for name, node_counts in TABLE2_NODE_COUNTS.items()
            for nodes in node_counts
            for algorithm in ALGORITHMS
        ),
        "count", len(stats),
    )
    report.put("sim.seq_s.p50", statistics.median(traced["seq"]), "s",
               len(traced["seq"]))
    report.put(
        "sim.events",
        sum(runner.sequential(name).events_processed
            for name in TABLE2_NODE_COUNTS),
        "count", len(TABLE2_NODE_COUNTS),
    )
    report.put("warped.run_s", run_self, "s", len(stats))
    report.put("warped.us_per_event", run_self * 1e6 / events, "us", len(stats))
    report.put("warped.modelled_s", sum(s[1] for s in stats), "sim_s", len(stats))
    report.put("warped.events", events, "count", len(stats))
    report.put("warped.rolled_back", sum(s[3] for s in stats), "count", len(stats))
    report.put("warped.app_messages", sum(s[5] for s in stats), "count",
               len(stats))
    report.put("harness.self_s", total_self(recorded, "cell"), "s", len(stats))
    # Each pass's cells in units of its own reference time, so that host
    # drift between the two passes cancels.
    report.put(
        "obs.trace_overhead",
        trace_overhead(
            [t / statistics.mean(traced["probes"]) for t in traced["cells"]],
            [t / statistics.mean(untraced["probes"]) for t in untraced["cells"]],
        ),
        "ratio", len(traced["cells"]),
    )


def run(seed: int, seconds: float, trace: bool, spans: SpanRecorder) -> Report:
    report = Report()
    config = make_config()
    order = cell_order(seed, table2_cells())
    report.info["config"] = config.describe()
    setups: list[float] = []
    for _ in range(SETUPS):
        runner, built = _fresh_runner(config, spans)
        setups.append(built)

    passes = []
    if trace:
        # One traced pass for the layer split, one untraced pass for the
        # tracing overhead; both always run in full.
        traced = _run_pass(runner, order, spans, report)
        plain, built = _fresh_runner(config, SpanRecorder(False))
        setups.append(built)
        untraced = _run_pass(plain, order, SpanRecorder(False), report)
        passes = [traced, untraced]
        _put_layers(report, runner, spans, setups, traced, untraced)
    else:
        # Whole passes only, so every run times the same mix of cells,
        # until at least `seconds` of passes are measured.
        while True:
            passes.append(_run_pass(runner, order, spans, report))
            if sum(p["wall"] for p in passes) >= seconds:
                break
            runner, built = _fresh_runner(config, spans)
            setups.append(built)
        for _ in range(SETUPS):
            setups.append(_fresh_runner(config, spans)[1])
        _put_end_to_end(report, setups, passes)
        report.put("peak_rss_mb", peak_rss_mb(), "MB", 1)

    digests = {p["digest"] for p in passes}
    report.info["table2_stats_sha256"] = sorted(digests)
    if len(digests) > 1:
        report.fail(f"Table 2 statistics differ between passes: {sorted(digests)}")
    return report
