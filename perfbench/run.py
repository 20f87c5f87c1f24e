"""The repository's benchmark: one command per workload run.

    python3 perfbench/run.py --workload table2 --seed 0 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` makes the
separate traced run that gives the per-layer metrics and writes its
spans to ``.bench_out/spans-<workload>-seed<seed>.jsonl``.  Metric
names and units come from ``BENCHMARK.json``; ``perfbench/README.md``
says what each one measures and which end-to-end metric it should move.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A wrong result
prints it with ``"correct": false`` and exits 1; a benchmark that
cannot run at all (no program sources, a ``REPRO_*`` variable set)
exits 2 without a result line.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import wl_serve
import wl_table2
from measure import failed_ratio, tail_supported
from spans import SpanRecorder
from world import (
    OUT, ROOT, TMP, BenchError, import_program, refuse_repro_env, world_info,
)

#: The workloads import the program lazily, after import_program().
WORKLOADS = {"table2": wl_table2, "serve-mix": wl_serve}


def _catalogue(trace: bool) -> dict[str, str]:
    """Metric name -> unit for this kind of run, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 is the default world")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="least length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    try:
        refuse_repro_env()
        import_program()
        catalogue = _catalogue(trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    info = world_info(args.workload, args.seed)
    spans = SpanRecorder(enabled=trace)
    try:
        report = WORKLOADS[args.workload].run(args.seed, args.seconds, trace, spans)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    info.update(report.info)
    factor = report.host.factor()
    report.scale_to_reference(factor)

    missing = set(catalogue) - set(report.metrics)
    if not trace and missing:
        report.fail(f"end-to-end metrics not measured: {sorted(missing)}")
    for name in sorted(missing if trace else ()):
        # Per-layer metric of a layer this workload bypasses.
        report.put(name, 0.0, catalogue[name], 0, note="layer bypassed")
    for name, metric in report.metrics.items():
        if name in catalogue and metric.unit != catalogue[name]:
            report.fail(f"{name}: unit {metric.unit} != {catalogue[name]}")
    if trace:
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans.write_jsonl(str(path), header=info)
        info["spans"] = str(path.relative_to(ROOT))

    ratio = failed_ratio(report.attempted, report.failed) if report.attempted else 1.0
    print(f"# world {json.dumps(info)}")
    print(f"# {'metric':32s} {'value':>14s} {'unit':6s} {'n':>5s}")
    print(f"# {'failed_ratio':32s} {ratio:14.6g} {'ratio':6s} {report.attempted:5d}")
    print(f"# {'host_speed_factor':32s} {factor:14.6g} {'ratio':6s} "
          f"{len(report.host.samples):5d}  (times below are scaled by it)")
    for name in sorted(report.metrics):
        metric = report.metrics[name]
        note = metric.note
        if name.endswith(".p90") and not tail_supported(metric.n, 90):
            note = "fewer than 10 samples beyond p90"
        note = f"  ({note})" if note else ""
        print(f"# {name:32s} {metric.value:14.6g} {metric.unit:6s} {metric.n:5d}{note}")
    for problem in report.problems:
        print(f"# PROBLEM {problem}")
    correct = not report.problems and report.failed == 0 and report.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(report.attempted, 1),
        "failed": report.failed if report.attempted else 1,
        "metrics": {
            name: {"value": report.metrics[name].value, "unit": catalogue[name]}
            for name in catalogue if name in report.metrics
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
