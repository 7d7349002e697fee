"""The chaos harness: invariants hold and reports are deterministic."""

import pytest

from repro.api import Session
from repro.faults import chaos_spec, run_chaos, verify_session
from repro.faults.chaos import TERMINAL_STATUSES


class TestChaosSweep:
    def test_three_seeds_no_violations(self):
        report = run_chaos(seeds=3)
        assert report["violations"] == []
        # 3 seeds x grouping {auto, off} x mode {batch, stream}.
        assert len(report["cells"]) == 12

    def test_resilience_paths_actually_exercise(self):
        report = run_chaos(seeds=2)
        totals = {"retries": 0, "faults": 0}
        non_completed = 0
        for cell in report["cells"]:
            totals["retries"] += cell["retries"]
            totals["faults"] += cell["faults"]
            non_completed += (cell["timed_out"] + cell["shed"]
                              + cell["aborted"])
        # The chaos scenario is tuned so faults bite: every sweep must
        # see injected faults, retries, and non-completed terminals.
        assert totals["faults"] > 0
        assert totals["retries"] > 0
        assert non_completed > 0

    def test_auto_cells_commit_grouped_windows(self):
        report = run_chaos(seeds=1)
        for cell in report["cells"]:
            if cell["grouping"] == "auto":
                assert cell["windows"] > 0
                assert 0 < cell["grouped_iterations"] <= cell["iterations"]
            else:
                assert cell["windows"] == cell["grouped_iterations"] == 0

    def test_auto_cells_without_windows_are_a_violation(self, monkeypatch):
        # With every window refused, auto == off would hold vacuously.
        from repro.faults import ResilienceRuntime
        monkeypatch.setattr(ResilienceRuntime, "window_guard",
                            lambda self, now, batch, pool: None)
        report = run_chaos(seeds=1)
        assert report["violations"] == [
            "vacuous: grouping auto cells committed no grouped iteration"]

    def test_report_is_deterministic(self):
        assert run_chaos(seeds=1) == run_chaos(seeds=1)

    def test_invalid_seeds_rejected(self):
        with pytest.raises(ValueError):
            run_chaos(seeds=0)


class TestVerifySession:
    def test_clean_session_has_no_violations(self):
        session = Session(chaos_spec(0))
        session.run()
        assert verify_session(session) == []

    def test_statuses_are_terminal(self):
        session = Session(chaos_spec(1))
        result = session.run()
        assert result.requests
        assert {r["status"] for r in result.requests} <= TERMINAL_STATUSES

    def test_undrained_pool_is_flagged(self):
        session = Session(chaos_spec(0))
        # Run only a few iterations, leaving live requests in the pool.
        session.step()
        session.step()
        problems = verify_session(session)
        assert any("conservation" in p for p in problems)

    def test_chaos_spec_grouping_variants(self):
        for grouping in ("auto", "off"):
            spec = chaos_spec(0, grouping=grouping)
            assert spec.serving.grouping == grouping
            assert spec.faults == "seeded"
