import copy

import compare
import workloads as W


def entry(value, trials=None, status="measured"):
    trials = trials or [value]
    ordered = sorted(trials)
    return {"value": value, "unit": "x", "trials": trials, "q1": ordered[0],
            "q3": ordered[-1], "samples": 10, "status": status}


# The rules are tested at fixed bounds, whatever workloads.py sets today.
RPS = W.EndToEnd("throughput_rps", "1/s", "higher", 0.10)
P50 = W.EndToEnd("latency_p50_ms", "ms", "lower", 0.10)
FAILED = W.EndToEnd("failed_share", "ratio", "lower", 0.001, absolute=True,
                    timing=False)


def test_verdicts_follow_direction_and_bound():
    assert compare.verdict(RPS, entry(100), entry(95))[0] == "same"
    assert compare.verdict(RPS, entry(100), entry(89))[0] == "worse"
    assert compare.verdict(RPS, entry(100), entry(111))[0] == "better"
    assert compare.verdict(P50, entry(1.0), entry(1.11))[0] == "worse"
    assert compare.verdict(P50, entry(1.0), entry(0.89))[0] == "better"


def test_failed_share_uses_an_absolute_bound():
    assert compare.verdict(FAILED, entry(0.0), entry(0.0))[0] == "same"
    assert compare.verdict(FAILED, entry(0.0), entry(0.0005))[0] == "same"
    assert compare.verdict(FAILED, entry(0.0), entry(0.002))[0] == "worse"


def test_wide_spread_is_unresolved_unless_every_trial_wins():
    noisy = entry(100, [80, 100, 120])
    assert compare.verdict(RPS, noisy, entry(101, [85, 101, 118]))[0] == "unresolved"
    assert compare.verdict(RPS, noisy, entry(150, [130, 150, 170]))[0] == "better"
    # worse beats unresolved: a regression is not hidden by noise
    assert compare.verdict(RPS, noisy, entry(70, [50, 70, 90]))[0] == "worse"


def test_unresolved_inputs_and_hosts():
    flagged = entry(100, status="unresolved")
    assert compare.verdict(RPS, flagged, entry(100))[0] == "unresolved"
    assert compare.verdict(RPS, None, entry(100))[0] == "unresolved"
    assert compare.verdict(RPS, entry(100), entry(50), same_host=False)[0] == "unresolved"
    quality = W.E2E_BY_NAME["output_error"]
    assert compare.verdict(quality, entry(0.02), entry(0.02), same_host=False)[0] == "same"


def result_set(rps=100.0, calib=5.0, host=None):
    doc = {"calib_ms": [calib, calib], "end_to_end": {
        m.name: entry(rps if m.name == "throughput_rps" else 1.0)
        for m in W.END_TO_END}}
    doc["end_to_end"]["failed_share"] = entry(0.0)
    return {"host": host or {"cpu_count": 2}, "git_sha": "x",
            "workloads": {"serve_thread": {"untraced": doc}}}


def test_compare_sets_and_exit_code(tmp_path, capsys):
    import json

    a, b = result_set(), result_set(rps=50.0)
    rows = compare.compare(a, b)
    assert len(rows) == len(W.END_TO_END)
    assert [r for r in rows if r[2] == "worse"] == [
        ("serve_thread", "throughput_rps", "worse", "+50.00%")]
    for name, doc in (("a.json", a), ("b.json", b)):
        (tmp_path / name).write_text(json.dumps(doc))
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 1
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "a.json")]) == 0
    capsys.readouterr()


def test_a_moved_host_makes_timing_unresolved():
    slow = result_set(rps=50.0, calib=6.5)
    by_metric = {r[1]: r[2] for r in compare.compare(result_set(), slow)}
    assert by_metric["throughput_rps"] == "unresolved"
    assert by_metric["output_error"] == "same"
    other = copy.deepcopy(result_set(rps=50.0))
    other["host"] = {"cpu_count": 64}
    assert {r[1]: r[2] for r in compare.compare(result_set(), other)}[
        "throughput_rps"] == "unresolved"
