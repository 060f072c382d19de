"""The command itself: every workload end to end, and its hygiene."""

import json
import os
import subprocess
import sys

import run
import workloads as W
from conftest import LADDER, ROOT

RUN = os.path.join(LADDER, "run.py")


def shm():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def test_smoke_drives_all_six_workloads(tmp_path):
    before = shm()
    done = subprocess.run(
        [sys.executable, RUN, "--smoke", "--traced", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300, cwd=str(tmp_path))
    assert done.returncode == 0, done.stdout + done.stderr
    results = json.loads((tmp_path / "results.json").read_text())
    assert results["correct"] is True
    assert sorted(results["workloads"]) == sorted(W.BY_NAME)
    for name, both in results["workloads"].items():
        untraced, traced = both["untraced"], both["traced"]
        assert untraced["failed"] == 0 and traced["failed"] == 0, name
        for metric in W.END_TO_END:
            assert untraced["end_to_end"][metric.name]["value"] >= 0
        assert untraced["end_to_end"]["output_error"]["value"] \
            <= untraced["unchecked_error"]
        assert (tmp_path / f"trace-{name}.json").exists()
        for metric in W.PER_LAYER:
            if name in metric.measured_on:
                assert metric.name in traced["per_layer"], (name, metric.name)
    digests = {results["workloads"][n]["untraced"]["outputs_sha256"]
               for n in W.IDENTICAL_OUTPUTS}
    assert len(digests) == 1
    assert "byte-identical" in done.stdout
    assert "| serve_thread |" in (tmp_path / "ladder.md").read_text()
    assert shm() == before
    assert not os.path.exists(os.path.join(LADDER, ".run"))


def test_driver_form_prints_the_contract_line(tmp_path):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "serve_thread", "--seed", "11",
         "--seconds", "2", "--trace", "1"],
        capture_output=True, text=True, timeout=120, cwd=str(tmp_path))
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {m.name for m in W.PER_LAYER}
    assert line["metrics"]["nn.forward_us"]["value"] > 0
    assert line["metrics"]["core.self_us"]["value"] >= 0
    # begin+complete against the whole call, and the depth-1 parts against
    # client.rtt, are checked by the traced pass itself.
    assert "BENCHMARK BUG" not in done.stdout


def test_a_workload_that_times_out_leaves_nothing_behind():
    before = shm()
    doc = run.supervise("cluster_relay", seed=1, trials=3, traced=False,
                        smoke=False, timeout_s=2.0)
    assert doc["correct"] is False and doc["failed"] >= 1
    assert any("timed out" in p for p in doc["problems"])
    assert shm() == before
    assert not os.path.exists(os.path.join(LADDER, ".run"))
    listing = subprocess.run(["ps", "-eo", "args"], capture_output=True,
                             text=True).stdout
    assert "repro serve" not in listing and "repro cluster" not in listing


def test_without_the_program_the_command_fails_fast(tmp_path):
    """In a directory that holds only the benchmark there is nothing to
    measure: exit non-zero and print no result."""
    import shutil

    target = tmp_path / "benchmarks" / "ladder"
    shutil.copytree(LADDER, target, ignore=shutil.ignore_patterns(
        "__pycache__", ".run", "out", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/ladder/run.py", "--workload",
         "loop_accel", "--seed", "1", "--seconds", "6", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout.strip() == ""
