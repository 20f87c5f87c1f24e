"""Tests for the benchmark's own arithmetic and bookkeeping.

Run with ``python -m pytest perfbench``; nothing here simulates.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest

import hostspeed
import measure
from spans import Span, SpanRecorder, self_times, total_self
from cold_probe import _check
from wl_serve import BLOCK, JobStream
from wl_table2 import cell_order
from world import BenchError, Report, refuse_repro_env, same_as_oracle


class TestPercentile:
    def test_interpolates_between_closest_ranks(self):
        values = list(range(1, 11))
        assert measure.percentile(values, 50) == 5.5
        assert measure.percentile(values, 90) == pytest.approx(9.1)
        assert measure.percentile(values, 0) == 1
        assert measure.percentile(values, 100) == 10

    def test_order_of_samples_does_not_matter(self):
        assert measure.percentile([3, 1, 2], 50) == 2

    def test_single_sample_is_every_percentile(self):
        assert measure.percentile([0.25], 90) == 0.25

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            measure.percentile([], 50)
        with pytest.raises(ValueError):
            measure.percentile([1.0], 101)


class TestSampleCountRule:
    def test_p90_needs_a_hundred_samples(self):
        assert measure.samples_beyond(100, 90) == pytest.approx(10)
        assert measure.tail_supported(100, 90)
        assert not measure.tail_supported(99, 90)

    def test_one_table2_pass_is_too_short_for_p90(self):
        assert not measure.tail_supported(66, 90)
        assert measure.tail_supported(2 * 66, 90)
        assert measure.tail_supported(66, 50)


class TestSpans:
    def test_self_time_subtracts_the_union_of_child_cover(self):
        spans = [
            Span(0, "parent", 0.0, 10.0, None, "j"),
            Span(1, "a", 1.0, 3.0, 0, "j"),
            Span(2, "b", 2.0, 5.0, 0, "j"),  # overlaps a: counted once
            Span(3, "c", 7.0, 8.0, 0, "j"),
            Span(4, "grandchild", 7.2, 7.5, 3, "j"),
        ]
        own = self_times(spans)
        assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
        assert own[3] == pytest.approx(1.0 - 0.3)
        assert own[4] == pytest.approx(0.3)
        assert total_self(spans, "parent") == pytest.approx(5.0)

    def test_cover_is_clipped_to_the_parent(self):
        assert measure.interval_cover([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0
        assert measure.interval_cover([], 0.0, 10.0) == 0.0

    def test_recorder_nests_and_inherits_the_job(self):
        recorder = SpanRecorder()
        with recorder.span("outer", job="job-1"):
            with recorder.span("inner"):
                pass
        outer, inner = recorder.spans
        assert inner.parent == outer.id
        assert inner.job == "job-1"
        assert outer.start <= inner.start <= inner.end <= outer.end

    def test_wrapped_methods_nest_through_self_calls(self):
        class Runner:
            def leaf(self):
                return 1

            def root(self):
                return self.leaf() + 1

        runner = Runner()
        recorder = SpanRecorder()
        recorder.wrap_method(runner, "leaf", "leaf")
        recorder.wrap_method(runner, "root", "root")
        assert runner.root() == 2
        root, leaf = recorder.spans
        assert (root.name, leaf.name, leaf.parent) == ("root", "leaf", root.id)

    def test_disabled_recorder_records_nothing(self):
        recorder = SpanRecorder(enabled=False)
        with recorder.span("x"):
            pass
        assert recorder.spans == []


class TestFailures:
    def test_failed_ratio(self):
        assert measure.failed_ratio(4, 1) == 0.25
        with pytest.raises(ValueError):
            measure.failed_ratio(0, 0)
        with pytest.raises(ValueError):
            measure.failed_ratio(2, 3)

    def test_a_wrong_result_counts_as_failed(self):
        oracle = SimpleNamespace(
            final_values=[0, 1, 1], committed_captures=[(2, 1, 1)]
        )
        world = {"oracle": oracle}

        def result(values, committed=10):
            return SimpleNamespace(
                final_values=values, committed_captures=[(2, 1, 1)],
                degraded=False, events_committed=committed,
            )

        report = Report()
        committed: set[int] = set()
        for values in ([0, 1, 1], [0, 1, 0]):
            report.attempted += 1
            _check({"result": result(values)}, world, report, committed)
        assert report.failed == 1
        assert measure.failed_ratio(report.attempted, report.failed) == 0.5
        assert report.problems

    def test_oracle_comparison_accepts_json_captures(self):
        oracle = SimpleNamespace(
            final_values=[1, 0], committed_captures=[(3, 2, 1), (4, 2, 0)]
        )
        assert same_as_oracle([1, 0], [[3, 2, 1], [4, 2, 0]], oracle)
        assert not same_as_oracle([1, 0], [[3, 2, 1]], oracle)
        assert not same_as_oracle([1, 1], [[3, 2, 1], [4, 2, 0]], oracle)


class TestDerivedTimes:
    def test_driver_seconds_is_run_minus_slowest_node(self):
        assert measure.driver_seconds(2.0, [1.5, 1.8]) == pytest.approx(0.2)

    def test_speedup_is_median_over_median(self):
        seq = [0.3, 0.5, 0.4]
        process = [1.0, 2.0, 1.5]
        assert measure.speedup_vs_seq(seq, process) == pytest.approx(0.4 / 1.5)

    def test_trace_overhead(self):
        assert measure.trace_overhead([1.2, 1.4, 1.3], [1.0, 1.0]) == pytest.approx(0.3)
        assert math.isclose(measure.trace_overhead([1.0], [1.0]), 0.0)


class TestHostSpeed:
    def test_factor_is_reference_over_mean_sample(self):
        assert hostspeed.speed_factor([0.02, 0.01, 0.03], 0.01) == pytest.approx(0.5)
        assert hostspeed.speed_factor([0.005], 0.01) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            hostspeed.speed_factor([])

    def test_set_ups_scale_by_their_own_samples(self):
        assert hostspeed.at_reference(1.0, (0.015, 0.025), 0.01) == pytest.approx(0.5)

    def test_scaling_moves_host_times_and_rates_only(self):
        report = Report()
        report.put("setup_s", 0.3, "s", 5, scaled=True)
        report.put("job_s.p50", 2.0, "s", 10)
        report.put("jobs_per_s", 4.0, "1/s", 10)
        report.put("parallel.us_per_event", 3.0, "us", 1)
        report.put("warped.events", 100, "count", 1)
        report.put("warped.modelled_s", 5.0, "sim_s", 1)
        report.put("parallel.efficiency", 0.9, "ratio", 1)
        report.scale_to_reference(0.5)
        values = {name: m.value for name, m in report.metrics.items()}
        assert values == {
            "setup_s": 0.3, "job_s.p50": 1.0, "jobs_per_s": 8.0, "parallel.us_per_event": 1.5,
            "warped.events": 100, "warped.modelled_s": 5.0,
            "parallel.efficiency": 0.9,
        }

    def test_reference_work_is_timed(self):
        assert hostspeed.reference_work(100) > 0.0


class TestPinning:
    def test_refuses_repro_variables(self):
        refuse_repro_env({"PATH": "/bin"})
        with pytest.raises(BenchError, match="REPRO_TW_TRANSPORT"):
            refuse_repro_env({"REPRO_TW_TRANSPORT": "shm"})

    def test_cell_order_is_a_seeded_permutation(self):
        cells = [("s5378", "Random", 2), ("s9234", "Multilevel", 4),
                 ("s15850", "DFS", 8)]
        assert cell_order(4, cells) == cell_order(4, cells)
        assert sorted(cell_order(4, cells)) == sorted(cells)
        assert {tuple(cell_order(s, cells)) for s in range(20)} != {tuple(cells)}

    def test_job_stream_is_seeded_and_mixed(self):
        a, b = JobStream(5), JobStream(5)
        a.first(), b.first()
        draws = [a.next() for _ in range(5 * len(BLOCK))]
        assert draws == [b.next() for _ in range(5 * len(BLOCK))]
        kinds = [kind for kind, _ in draws]
        for start in range(0, len(kinds), len(BLOCK)):
            block = kinds[start:start + len(BLOCK)]
            assert sorted(block) == sorted(BLOCK)
        assert kinds != sorted(kinds)

    def test_repeats_are_earlier_requests(self):
        stream = JobStream(1)
        stream.first()
        for _ in range(3 * len(BLOCK)):
            kind, request = stream.next()
            if kind == "repeat":
                assert request in stream.history
            else:
                assert request is stream.history[-1]

    def test_seed_zero_starts_from_the_harness_defaults(self):
        first = JobStream(0).first()
        assert (first["partition_seed"], first["stimulus_seed"]) == (3, 7)
