"""The benchmark's own tests.

Run from the repository root (they take about a minute)::

    python3 -m pytest -q perfbench/selftest.py

Each workload runs at the tiny size; every named metric must appear with
its unit, a corrupted pinned digest or a broken invariant must fail the
command, simulated results must not depend on the hash seed, and a
checkout without the simulator sources must fail without a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(*args, env=None, cwd=ROOT):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600,
                          env=env, check=False)


def tiny(workload, trace="0", seed="0", env=None):
    return run_bench("--workload", workload, "--seed", seed,
                     "--seconds", "0.2", "--trace", trace, "--size", "tiny",
                     env=env)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def digest_line(stdout):
    return [line.split()[1] for line in stdout.splitlines()
            if line.strip().startswith("digest ")]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_every_metric_reported_with_unit(workload, trace, section):
    done = tiny(workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _main_in_process(monkeypatch, *args):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import run
    return run.main(["--seconds", "0.2", "--size", "tiny", *args])


def test_corrupted_digest_fails(monkeypatch, capsys, tmp_path):
    pins = json.loads((HERE / "digests.json").read_text())
    pins["canary"]["sharegpt-poisson"]["digest"] = "0" * 64
    corrupted = tmp_path / "digests.json"
    corrupted.write_text(json.dumps(pins))
    monkeypatch.syspath_prepend(str(HERE))
    import run
    monkeypatch.setattr(run, "DIGESTS", corrupted)
    code = _main_in_process(monkeypatch, "--workload", "sharegpt-poisson")
    out = capsys.readouterr().out
    assert code != 0
    assert last_json(out)["correct"] is False
    assert "does not match the pinned" in out


def test_broken_fleet_conservation_fails(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from repro.cluster.result import FleetResult
    monkeypatch.setattr(FleetResult, "conserved", lambda self: False)
    code = _main_in_process(monkeypatch, "--workload", "fleet-failover")
    out = capsys.readouterr().out
    assert code != 0
    assert "ledger does not balance" in out


def test_truncated_waves_fail(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(HERE))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import workloads
    # A KV budget far below one wave's footprint cuts requests short.
    monkeypatch.setattr(workloads.BucketedWaves, "KV_BYTES", 1 << 24)
    code = _main_in_process(monkeypatch, "--workload", "bucketed-waves")
    out = capsys.readouterr().out
    assert code != 0
    assert "sum(output_len)" in out


def test_simulated_results_ignore_hash_seed():
    digests = []
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = tiny("fleet-failover", "0", "3", env=env)
        assert done.returncode == 0, done.stdout + done.stderr
        digests.append(digest_line(done.stdout))
    assert digests[0] and digests[0] == digests[1]


def test_checkout_without_sources_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [*BENCHMARK["command"], "--workload", WORKLOADS[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        check=False)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
