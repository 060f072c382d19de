#!/usr/bin/env python3
"""Compare two result sets of ``run.py --out``: ``compare.py A.json B.json``.

One verdict per workload x end-to-end metric, A being the baseline:

``worse``       B's median is worse than A's by more than the metric's bound
``unresolved``  the hosts differ (fingerprint, or ``host.calib_ms`` apart by
                more than 25 %) for a timing metric; a side marked the metric
                unresolved; or the trial-to-trial spread of a side is wider
                than the bound and B's trials do not all beat A's
``better``      B improved by more than the bound (or every trial of B beats
                every trial of A when the spread is wide)
``same``        anything else

Exits non-zero when any verdict is ``worse``.  Two runs of one commit
must compare without a ``worse``: that is the benchmark's A/A test.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import List, Optional, Tuple

import workloads as W

#: Timing metrics are already scaled by the host probe, which takes out
#: most of a speed difference (README, "Host-speed normalisation"); what is
#: left of a difference this large is no longer small against the bounds.
CALIB_TOLERANCE = 0.25


def _spread(entry: dict) -> float:
    trials = entry.get("trials", [])
    if len(trials) < 2 or not entry["value"]:
        return 0.0
    return abs(entry["q3"] - entry["q1"]) / abs(entry["value"])


def _all_better(metric: W.EndToEnd, a: dict, b: dict) -> bool:
    if metric.better == "lower":
        return max(b["trials"]) < min(a["trials"])
    return min(b["trials"]) > max(a["trials"])


def verdict(metric: W.EndToEnd, a: Optional[dict], b: Optional[dict],
            same_host: bool = True) -> Tuple[str, str]:
    """``(verdict, reason)`` for one metric on one workload."""
    if a is None or b is None:
        return "unresolved", "missing on one side"
    for side, entry in (("A", a), ("B", b)):
        if entry.get("status") != "measured":
            return "unresolved", f"{side}: {entry.get('why', 'unresolved')}"
    if metric.timing and not same_host:
        return "unresolved", "hosts differ"
    delta = b["value"] - a["value"]
    if metric.better == "higher":
        delta = -delta
    worse_by = delta if metric.absolute else (
        delta / abs(a["value"]) if a["value"] else (1.0 if delta > 0 else 0.0))
    note = f"{worse_by:+.2%}" if not metric.absolute else f"{worse_by:+.4f}"
    if worse_by > metric.bound:
        return "worse", note
    if not metric.absolute and max(_spread(a), _spread(b)) > metric.bound:
        if _all_better(metric, a, b):
            return "better", note + " (every trial)"
        return "unresolved", note + " but spread exceeds the bound"
    if -worse_by > metric.bound:
        return "better", note
    return "same", note


def _calib(doc: dict) -> Optional[float]:
    values = doc.get("calib_ms") or []
    return statistics.median(values) if values else None


def compare(a: dict, b: dict) -> List[Tuple[str, str, str, str]]:
    """Rows ``(workload, metric, verdict, reason)`` for two result sets."""
    same_fingerprint = a.get("host") == b.get("host")
    rows = []
    for workload in W.WORKLOADS:
        doc_a = (a["workloads"].get(workload.name) or {}).get("untraced")
        doc_b = (b["workloads"].get(workload.name) or {}).get("untraced")
        if doc_a is None and doc_b is None:
            continue
        same_host = same_fingerprint
        if doc_a and doc_b:
            calib_a, calib_b = _calib(doc_a), _calib(doc_b)
            if calib_a and calib_b and (
                    abs(calib_b - calib_a) / calib_a > CALIB_TOLERANCE):
                same_host = False
        for metric in W.END_TO_END:
            entry_a = (doc_a or {}).get("end_to_end", {}).get(metric.name)
            entry_b = (doc_b or {}).get("end_to_end", {}).get(metric.name)
            rows.append((workload.name, metric.name,
                         *verdict(metric, entry_a, entry_b, same_host)))
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0]) as handle:
        a = json.load(handle)
    with open(argv[1]) as handle:
        b = json.load(handle)
    rows = compare(a, b)
    print(f"A: {argv[0]} @ {a.get('git_sha')}   B: {argv[1]} @ {b.get('git_sha')}")
    for workload, metric, result, reason in rows:
        print(f"{workload:<14} {metric:<16} {result:<11} {reason}")
    worse = [r for r in rows if r[2] == "worse"]
    print(f"{len(rows)} verdicts, {len(worse)} worse, "
          f"{sum(1 for r in rows if r[2] == 'unresolved')} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
