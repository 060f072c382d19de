#!/usr/bin/env python3
"""The layer ladder: one benchmark from ``MLP.forward`` to ``ClusterRouter``.

    PYTHONPATH=src python benchmarks/ladder/run.py [--workload NAME]
        [--seed 7] [--trials 5] [--traced] [--out DIR]

prints every metric by name with its unit and verifies outputs; see
``README.md`` beside this file.  The benchmark driver's form is

    python3 benchmarks/ladder/run.py --workload W --seed N --seconds S --trace 0|1

whose last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).

This file is the supervisor: it imports nothing from the program.  Every
workload runs in a child interpreter (``--child``) in its own process
group under a hard timeout; afterwards the supervisor checks that no
process of the group survived, that ``/dev/shm`` holds no new segment and
that the run's temp directory is empty, on every exit path.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import uuid
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import workloads as W  # noqa: E402  (sibling module, after the path fix)

SHM_DIR = "/dev/shm"


# --------------------------------------------------------------------- #
# Child: one workload, one pass, in this interpreter                    #
# --------------------------------------------------------------------- #
def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, SRC)
    try:
        import harness

        shape = (harness.Shape.smoke() if args.smoke
                 else harness.Shape(trials=args.trials))
        doc = harness.run_workload(
            args.workload[0], args.seed, shape, traced=bool(args.trace),
            trace_path=args.trace_file or None,
        )
    except Exception:
        doc = {"correct": False, "attempted": 1, "failed": 1,
               "problems": [traceback.format_exc()],
               "end_to_end": {}, "per_layer": {}}
    with open(args.result_file, "w") as handle:
        json.dump(doc, handle)
    return 0


# --------------------------------------------------------------------- #
# Supervisor                                                            #
# --------------------------------------------------------------------- #
def _group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes whose process group is ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def _clear_group(pgid: int, grace_s: float) -> List[int]:
    """Wait ``grace_s`` for the group to empty, then kill what is left.

    Returns the pids that had to be killed (a hygiene failure).
    """
    deadline = time.monotonic() + grace_s
    members = _group_members(pgid)
    while members and time.monotonic() < deadline:
        time.sleep(0.05)
        members = _group_members(pgid)
    if members:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return members


def _shm_names() -> set:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def supervise(name: str, seed: int, trials: int, traced: bool, smoke: bool,
              trace_file: Optional[str] = None,
              timeout_s: float = W.WORKLOAD_TIMEOUT_S) -> dict:
    """Run one pass of one workload in a child process group."""
    run_dir = os.path.join(HERE, ".run", f"{os.getpid()}-{uuid.uuid4().hex[:8]}")
    tmp_dir = os.path.join(run_dir, "tmp")
    os.makedirs(tmp_dir)
    result_file = os.path.join(run_dir, "result.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH", "")) if p)
    env["TMPDIR"] = tmp_dir
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", name, "--seed", str(seed), "--trials", str(trials),
        "--trace", "1" if traced else "0", "--result-file", result_file,
    ]
    if smoke:
        command.append("--smoke")
    if trace_file:
        command += ["--trace-file", os.path.abspath(trace_file)]
    shm_before = _shm_names()
    problems: List[str] = []
    doc: Optional[dict] = None
    # fd 2, not sys.stderr: the child's chatter must stay off the result
    # stream whatever object stands in for sys.stderr.
    child = subprocess.Popen(command, env=env, cwd=ROOT, stdout=2,
                             start_new_session=True)
    try:
        try:
            child.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            problems.append(f"{name}: timed out after {timeout_s:.0f}s")
        finally:
            # Also reached on KeyboardInterrupt: a child still running is
            # taken down with its whole group at once; one that exited gets
            # a moment for its helpers (resource tracker) to follow.
            running = child.poll() is None
            survivors = _clear_group(child.pid, 0.0 if running else 3.0)
            if running:
                child.wait(timeout=10.0)
            elif survivors:
                problems.append(
                    f"{name}: processes survived the workload: {survivors}")
        if child.returncode not in (0, None) and not problems:
            problems.append(f"{name}: child exited with {child.returncode}")
        try:
            with open(result_file) as handle:
                doc = json.load(handle)
        except (OSError, ValueError):
            problems.append(f"{name}: the child wrote no result")
        leaked = sorted(_shm_names() - shm_before)
        if leaked:
            problems.append(f"{name}: new {SHM_DIR} segments: {leaked}")
            for segment in leaked:
                try:
                    os.unlink(os.path.join(SHM_DIR, segment))
                except OSError:
                    pass
        left = os.listdir(tmp_dir)
        if left:
            problems.append(f"{name}: temp files left behind: {sorted(left)}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:
            pass   # another run is using it
    if doc is None:
        doc = {"correct": False, "attempted": 1, "failed": 1, "problems": [],
               "end_to_end": {}, "per_layer": {}, "workload": name,
               "traced": traced}
    if problems:
        doc["correct"] = False
        doc["failed"] = doc.get("failed", 0) + len(problems)
        doc["attempted"] = max(doc.get("attempted", 0), doc["failed"])
        doc["problems"] = doc.get("problems", []) + problems
    return doc


# --------------------------------------------------------------------- #
# Reporting                                                             #
# --------------------------------------------------------------------- #
def host_fingerprint() -> Dict[str, object]:
    """What the numbers were measured on."""
    import numpy

    governor = "unknown"
    try:
        with open("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor") as f:
            governor = f.read().strip()
    except OSError:
        pass
    affinity = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    return {
        "cpu_count": os.cpu_count() or 1,
        "cpu_affinity": affinity,
        "governor": governor,
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10.0)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def applicable(doc: dict) -> Dict[str, dict]:
    """A pass's per-layer metrics that are defined on its workload."""
    name = doc.get("workload", "")
    return {
        metric: entry for metric, entry in doc.get("per_layer", {}).items()
        if name in W.PER_LAYER_BY_NAME[metric].measured_on
    }


def print_pass(doc: dict) -> None:
    label = f"{doc.get('workload')} ({'traced' if doc.get('traced') else 'untraced'})"
    print(f"== {label}: attempted {doc.get('attempted')}, failed "
          f"{doc.get('failed')}, correct {doc.get('correct')}")
    for name, entry in doc.get("end_to_end", {}).items():
        if entry["status"] != "measured":
            print(f"  {name:<44} unresolved  ({entry.get('why', '')})")
            continue
        print(f"  {name:<44} {entry['value']:>14.6g} {entry['unit']:<6}"
              f" q1 {entry['q1']:.6g} q3 {entry['q3']:.6g}"
              f" trials {len(entry['trials'])} n {entry['samples']}")
    for name, entry in sorted(applicable(doc).items()):
        print(f"  {name:<44} {entry['value']:>14.6g} {entry['unit']}")
    for problem in doc.get("problems", []):
        print(f"  ! {problem}")


def contract_line(doc: dict) -> str:
    """The driver's result object for one pass of one workload."""
    if doc.get("traced"):
        have = doc.get("per_layer", {})
        # The driver wants every per-layer name on every workload; a
        # metric that is not defined on this one reads 0.
        metrics = {
            m.name: {"value": have.get(m.name, {}).get("value", 0.0),
                     "unit": m.unit}
            for m in W.PER_LAYER
        }
    else:
        have = doc.get("end_to_end", {})
        metrics = {
            m.name: {"value": have[m.name]["value"], "unit": m.unit}
            for m in W.END_TO_END if m.manifest and m.name in have
        }
    return json.dumps({
        "correct": bool(doc.get("correct")),
        "attempted": max(int(doc.get("attempted", 1)), 1),
        "failed": int(doc.get("failed", 0)),
        "metrics": metrics,
    })


def ladder_rows(results: Dict[str, dict]) -> List[dict]:
    """Rung, throughput, p50 and the µs/request each rung adds.

    The serving rungs share one request shape (fft, 8 rows, batches of
    8), so each difference is one transport's cost; the kernel rungs are
    the traced serve_thread pass at that batch shape, per request.
    """
    rows: List[dict] = []

    def e2e(name: str, metric: str) -> Optional[float]:
        entry = (results.get(name, {}).get("untraced") or {}).get(
            "end_to_end", {}).get(metric)
        if entry and entry["status"] == "measured":
            return entry["value"]
        return None

    traced_doc = results.get("serve_thread", {}).get("traced") or {}
    traced = traced_doc.get("per_layer", {})
    # Per-layer timings are raw; the ladder puts them on the reference
    # host's scale, where the end-to-end rungs already are.
    factor = traced_doc.get("host_factor") or 1.0
    below: Optional[float] = None
    for rung, metric in (("nn.forward", "nn.forward_us"),
                         ("approx.forward", "approx.forward_us"),
                         ("core.run_invocation", "core.invocation_us")):
        if metric in traced:
            per_request = traced[metric]["value"] / W.BATCH_REQUESTS / factor
            rows.append({
                "rung": rung, "throughput_rps": 1e6 / per_request,
                "latency_p50_ms": traced[metric]["value"] / factor / 1e3,
                "us_per_request": per_request,
                "added_us": None if below is None else per_request - below,
            })
            below = per_request
    for rung in ("serve_thread", "net_direct", "cluster_relay"):
        rps = e2e(rung, "throughput_rps")
        if rps is None:
            continue
        per_request = 1e6 / rps
        rows.append({
            "rung": rung, "throughput_rps": rps,
            "latency_p50_ms": e2e(rung, "latency_p50_ms"),
            "us_per_request": per_request,
            "added_us": None if below is None else per_request - below,
        })
        below = per_request
    for rung in ("serve_proc", "loop_accel", "loop_recover"):
        rps = e2e(rung, "throughput_rps")
        if rps is not None:
            rows.append({
                "rung": f"{rung} (own shape)", "throughput_rps": rps,
                "latency_p50_ms": e2e(rung, "latency_p50_ms"),
                "us_per_request": 1e6 / rps, "added_us": None,
            })
    return rows


def ladder_table(rows: List[dict]) -> str:
    lines = ["| rung | throughput (1/s) | p50 (ms) | us/request | added us |",
             "|---|---:|---:|---:|---:|"]
    for row in rows:
        added = "" if row["added_us"] is None else f"{row['added_us']:.1f}"
        p50 = ("" if row["latency_p50_ms"] is None
               else f"{row['latency_p50_ms']:.3f}")
        lines.append(
            f"| {row['rung']} | {row['throughput_rps']:.1f} | {p50} | "
            f"{row['us_per_request']:.1f} | {added} |")
    return "\n".join(lines)


def findings_table(results: Dict[str, dict], sha: str, host: dict) -> str:
    """What the ladder shows about the program, each row as measured.

    Written beside ``results.json`` so that the README can point at
    numbers that carry their commit and host instead of typed prose.
    """
    where = (f"{sha}, {host['cpu_affinity']} cpu {host['machine']}, "
             f"python {host['python']}, numpy {host['numpy']}")

    def value(workload: str, which: str, metric: str) -> Optional[float]:
        doc = results.get(workload, {}).get(which) or {}
        section = "end_to_end" if metric in W.E2E_BY_NAME else "per_layer"
        entry = doc.get(section, {}).get(metric)
        return None if entry is None else entry["value"]

    rows = []

    def row(finding: str, text: Optional[str]) -> None:
        if text is not None:
            rows.append(f"| {finding} | {text} | measured | {where} |")

    rss = value("serve_thread", "untraced", "process.rss_growth_mb_per_kreq")
    rps = value("serve_thread", "untraced", "throughput_rps")
    decay = value("serve_thread", "untraced", "serving.server.rps_decay_pct")
    if None not in (rss, rps, decay):
        row("record retention (serve_thread keeps every InvocationRecord)",
            f"RSS grows {rss:.3f} MB per 1000 requests = "
            f"{rss * rps / 1e3:.2f} MB/s at {rps:.0f} req/s; within a "
            f"{W.TRIAL_SECONDS:g} s trial on a fresh server the last third "
            f"runs {-decay:+.2f} % against the first")
    for workload in ("net_direct", "cluster_relay"):
        wait = value(workload, "traced", "serving.batching.flush_wait_p50_ms")
        rtt = value(workload, "traced", "client.rtt_p50_ms")
        if None not in (wait, rtt) and rtt:
            row(f"flush timer at depth 1 ({workload})",
                f"{wait:.3f} ms of a {rtt:.3f} ms round trip "
                f"({wait / rtt:.0%}) is the wait for the "
                f"{W.FLUSH_MS:g} ms flush timer")
    relay = value("cluster_relay", "traced", "serving.cluster.relay_p50_ms")
    added = value("cluster_relay", "traced", "serving.cluster.added_us_per_req")
    share = value("cluster_relay", "traced",
                  "serving.cluster.relay_overhead_pct")
    if None not in (relay, added, share):
        row("router relay (one node, decode/re-encode)",
            f"adds {relay:.3f} ms to a depth-1 round trip and {added:.0f} "
            f"us/request at 16 outstanding: the direct node's throughput "
            f"less {share:.1f} % (ROADMAP target < 10 %)")
    edge = value("net_direct", "traced", "serving.net.added_us_per_req")
    if edge is not None:
        row("TCP edge over an identical request shape",
            f"adds {edge:.0f} us/request over the in-process thread server")
    header = ["| finding | value | status | commit and host |",
              "|---|---|---|---|"]
    return "\n".join(header + rows)


# --------------------------------------------------------------------- #
# Entry point                                                           #
# --------------------------------------------------------------------- #
def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w.name for w in W.WORKLOADS],
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=7,
                        help="selects the input slices and their order")
    parser.add_argument("--trials", type=int, default=None,
                        help=f"timed trials of {W.TRIAL_SECONDS:g}s, each on "
                             f"a fresh system (default {W.DEFAULT_TRIALS})")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload; sets --trials "
                             f"to seconds/{W.TRIAL_SECONDS:g}")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run only the untraced (0) or traced (1) pass")
    parser.add_argument("--traced", action="store_true",
                        help="run the traced pass after the untraced one")
    parser.add_argument("--smoke", action="store_true",
                        help="0.3s trials, one per workload (self-test)")
    parser.add_argument("--out", default=None,
                        help="write results.json, ladder.md and the span "
                             "files here")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--result-file", help=argparse.SUPPRESS)
    parser.add_argument("--trace-file", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.trials is None:
        args.trials = (max(int(round(args.seconds / W.TRIAL_SECONDS)), 1)
                       if args.seconds else W.DEFAULT_TRIALS)
    if args.trials < 1:
        parser.error("--trials must be at least 1")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    names = args.workload or [w.name for w in W.WORKLOADS]
    passes = [bool(args.trace)] if args.trace is not None else (
        [False, True] if args.traced else [False])
    out_dir = os.path.abspath(args.out) if args.out else None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    results: Dict[str, dict] = {}
    last: Optional[dict] = None
    for name in names:
        for traced in passes:
            trace_file = (os.path.join(out_dir, f"trace-{name}.json")
                          if out_dir and traced else None)
            doc = supervise(name, args.seed, args.trials, traced, args.smoke,
                            trace_file)
            results.setdefault(name, {})["traced" if traced else "untraced"] = doc
            print_pass(doc)
            last = doc
    ok = all(doc.get("correct") for both in results.values()
             for doc in both.values())

    digests = {
        name: results[name]["untraced"].get("outputs_sha256")
        for name in W.IDENTICAL_OUTPUTS
        if "untraced" in results.get(name, {})
    }
    if len(set(digests.values())) > 1:
        ok = False
        print(f"! outputs differ between rungs that may not change a bit: "
              f"{digests}")
    elif len(digests) > 1:
        print(f"outputs byte-identical across {sorted(digests)}")

    for name, both in results.items():
        if "untraced" in both and "traced" in both:
            base = both["untraced"].get("end_to_end", {}).get("throughput_rps")
            if base and both["traced"].get("traced_rps"):
                both["traced"]["bench_trace_overhead_pct"] = (
                    1.0 - both["traced"]["traced_rps"] / base["value"]) * 100.0
    rows = ladder_rows(results)
    if len(rows) > 1 and len(names) > 1:
        print("\n" + ladder_table(rows))
    if out_dir:
        calib = [c for both in results.values() for doc in both.values()
                 for c in doc.get("calib_ms", [])]
        document = {
            "schema": 1,
            "git_sha": git_sha(),
            "host": host_fingerprint(),
            "seed": args.seed,
            "trials": args.trials,
            "trial_seconds": 0.3 if args.smoke else W.TRIAL_SECONDS,
            "calib_ms": statistics.median(calib) if calib else None,
            "correct": ok,
            "workloads": results,
            "ladder": rows,
        }
        with open(os.path.join(out_dir, "results.json"), "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
        with open(os.path.join(out_dir, "ladder.md"), "w") as handle:
            handle.write(ladder_table(rows) + "\n")
        with open(os.path.join(out_dir, "findings.md"), "w") as handle:
            handle.write(findings_table(results, document["git_sha"],
                                        document["host"]) + "\n")
        print(f"wrote {out_dir}/results.json")
    if len(names) == 1 and len(passes) == 1:
        print(contract_line(last))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
