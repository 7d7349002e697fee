"""The BENCH call-count gate (``benchmarks/check_bench_counts.py``)."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / \
    "check_bench_counts.py"
_SPEC = importlib.util.spec_from_file_location("check_bench_counts", _PATH)
gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gate)


class TestCountRegressions:
    def test_equal_and_lower_counts_pass(self):
        recorded = {"fleet.kv.calls": {"value": 10},
                    "fleet.pool.calls": {"value": 5}}
        measured = {"fleet.kv.calls": {"value": 10},
                    "fleet.pool.calls": {"value": 4}}
        assert gate.count_regressions(recorded, measured) == []

    def test_higher_count_fails(self):
        recorded = {"fleet.kv.calls": {"value": 10}}
        measured = {"fleet.kv.calls": {"value": 11}}
        (problem,) = gate.count_regressions(recorded, measured)
        assert problem.startswith("fleet.kv.calls")

    def test_timings_and_other_metrics_are_not_gated(self):
        recorded = {"fleet.kv.s": {"value": 0.1},
                    "fleet.grouping.windows": {"value": 1}}
        measured = {"fleet.kv.s": {"value": 9.0},
                    "fleet.grouping.windows": {"value": 9}}
        assert gate.count_regressions(recorded, measured) == []

    def test_missing_count_fails(self):
        recorded = {"fleet.latency.calls": {"value": 3}}
        assert gate.count_regressions(recorded, {}) == [
            "fleet.latency.calls: missing from the run"]


class TestShareRegressions:
    def test_equal_and_higher_shares_pass(self):
        recorded = {"a.grouping.grouped_share": {"value": 0.75},
                    "b.grouping.grouped_share": {"value": 0.0}}
        measured = {"a.grouping.grouped_share": {"value": 1.0},
                    "b.grouping.grouped_share": {"value": 0.0}}
        assert gate.share_regressions(recorded, measured) == []

    def test_lower_share_fails(self):
        recorded = {"a.grouping.grouped_share": {"value": 1.0}}
        measured = {"a.grouping.grouped_share": {"value": 0.99}}
        assert gate.share_regressions(recorded, measured) == [
            "a.grouping.grouped_share: 0.99 < 1.0 recorded"]

    def test_missing_share_fails(self):
        recorded = {"a.grouping.grouped_share": {"value": 1.0}}
        assert gate.share_regressions(recorded, {}) == [
            "a.grouping.grouped_share: missing from the run"]

    def test_lower_replayed_share_fails(self):
        recorded = {"cycle.dram.replayed_share": {"value": 0.96},
                    "serving.dram.replayed_share": {"value": 0.0}}
        measured = {"cycle.dram.replayed_share": {"value": 0.88},
                    "serving.dram.replayed_share": {"value": 0.0}}
        assert gate.share_regressions(recorded, measured) == [
            "cycle.dram.replayed_share: 0.88 < 0.96 recorded"]

    def test_counts_and_windows_are_not_shares(self):
        recorded = {"a.kv.calls": {"value": 5},
                    "a.grouping.windows": {"value": 5}}
        measured = {"a.kv.calls": {"value": 1},
                    "a.grouping.windows": {"value": 1}}
        assert gate.share_regressions(recorded, measured) == []

    def test_saved_result_with_lower_share_fails(self, tmp_path):
        recorded = {"w.grouping.grouped_share": {"value": 1.0}}
        bench = tmp_path / "BENCH_1.json"
        bench.write_text(json.dumps(
            {"trace": {"result": {"metrics": recorded}}}))
        result = tmp_path / "out.txt"
        args = ["--bench", str(bench), "--result", str(result)]
        result.write_text(json.dumps({"correct": True, "metrics": recorded}))
        assert gate.main(args) == 0
        result.write_text(json.dumps({"correct": True, "metrics": {
            "w.grouping.grouped_share": {"value": 0.5}}}))
        assert gate.main(args) == 1


class TestIterationMismatches:
    def test_equal_iterations_pass(self):
        measured = {"w.scheduler.iterations": {"value": 7},
                    "w.device.iterations": {"value": 7},
                    "refute.scheduler.iterations": {"value": 0},
                    "refute.device.iterations": {"value": 0}}
        assert gate.iteration_mismatches(measured) == []

    def test_iterations_routed_around_the_device_fail(self):
        measured = {"w.scheduler.iterations": {"value": 7},
                    "w.device.iterations": {"value": 5}}
        assert gate.iteration_mismatches(measured) == [
            "w: device.iterations 5 != scheduler.iterations 7"]

    def test_missing_device_count_fails(self):
        (problem,) = gate.iteration_mismatches(
            {"w.scheduler.iterations": {"value": 7}})
        assert problem.startswith("w: device.iterations None")

    def test_saved_result_with_mismatch_fails(self, tmp_path):
        recorded = {"w.kv.calls": {"value": 5}}
        bench = tmp_path / "BENCH_1.json"
        bench.write_text(json.dumps(
            {"trace": {"result": {"metrics": recorded}}}))
        result = tmp_path / "out.txt"
        result.write_text(json.dumps({"correct": True, "metrics": {
            **recorded, "w.scheduler.iterations": {"value": 3},
            "w.device.iterations": {"value": 2}}}))
        assert gate.main(["--bench", str(bench),
                          "--result", str(result)]) == 1


class TestGateEntry:
    def test_newest_bench_by_number(self, tmp_path):
        for n in (2, 10, 9):
            (tmp_path / f"BENCH_{n}.json").write_text("{}")
        (tmp_path / "BENCH_draft.json").write_text("{}")
        assert gate.newest_bench(tmp_path).name == "BENCH_10.json"

    def test_no_bench_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            gate.newest_bench(tmp_path)

    def test_saved_result_checked_against_bench(self, tmp_path):
        recorded = {"w.kv.calls": {"value": 5, "unit": "count"}}
        bench = tmp_path / "BENCH_1.json"
        bench.write_text(json.dumps(
            {"trace": {"result": {"metrics": recorded}}}))
        result = tmp_path / "out.txt"
        result.write_text("report line\n" + json.dumps(
            {"correct": True, "metrics": recorded}) + "\n")
        args = ["--bench", str(bench), "--result", str(result)]
        assert gate.main(args) == 0
        result.write_text(json.dumps(
            {"correct": True,
             "metrics": {"w.kv.calls": {"value": 6}}}))
        assert gate.main(args) == 1
        result.write_text(json.dumps(
            {"correct": False, "metrics": recorded}))
        assert gate.main(args) == 1

    def test_committed_bench_has_a_trace_pass(self):
        bench = json.loads(gate.newest_bench().read_text())
        counted = [key for key in bench["trace"]["result"]["metrics"]
                   if key.split(".", 1)[1] in gate.COUNTS]
        assert len(counted) == 4 * len(gate.COUNTS)
        shared = [key for key in bench["trace"]["result"]["metrics"]
                  if key.split(".", 1)[1] in gate.SHARES]
        assert len(shared) == 4 * len(gate.SHARES)
