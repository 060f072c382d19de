"""Thread and process backends must be semantically interchangeable.

With one worker and lockstep submission both backends drive an identical
clone of the same prototype through the same invocation sequence, so the
outputs must match byte for byte and the quality stats exactly."""

import numpy as np
import pytest

from repro.core import prepare_system
from repro.observability import MetricsRegistry
from repro.serving import (
    BatchingConfig,
    EnsembleConfig,
    JournalConfig,
    RumbaServer,
    ServerConfig,
    read_journal,
)


def _lockstep(backend, prototype, requests, journal_path=None,
              registry=None):
    """One worker, one request in flight at a time: a deterministic
    serial schedule on either backend."""
    server = RumbaServer(
        prototype=prototype.clone_shard(),
        registry=registry,
        config=ServerConfig(
            backend=backend,
            n_workers=1,
            batching=BatchingConfig(max_batch_requests=1,
                                    flush_interval_s=0.0),
            journal=JournalConfig(path=journal_path),
        ),
    )
    outputs, fixes, degraded = [], [], []
    with server:
        for request in requests:
            result = server.submit_wait(request, timeout=60)
            outputs.append(result.outputs)
            fixes.append(result.fix_fraction)
            degraded.append(result.degraded)
        stats = server.stats()
    return outputs, fixes, degraded, stats


@pytest.fixture(scope="module")
def request_stream(fft_input_pool):
    return [fft_input_pool[i * 48:(i + 1) * 48] for i in range(8)]


class TestBackendEquivalence:
    def test_outputs_byte_identical(self, fft_prototype, request_stream):
        thread_out, _, _, _ = _lockstep("thread", fft_prototype,
                                        request_stream)
        process_out, _, _, _ = _lockstep("process", fft_prototype,
                                         request_stream)
        for a, b in zip(thread_out, process_out):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def test_quality_stats_identical(self, fft_prototype, request_stream):
        _, thread_fix, thread_deg, thread_stats = _lockstep(
            "thread", fft_prototype, request_stream
        )
        _, process_fix, process_deg, process_stats = _lockstep(
            "process", fft_prototype, request_stream
        )
        assert thread_fix == process_fix
        assert thread_deg == process_deg
        tw = thread_stats["workers"][0]
        pw = process_stats["workers"][0]
        for key in ("batches", "elements", "invocations", "threshold",
                    "degradation_level"):
            assert tw[key] == pw[key], key
        for key in ("inflight_requests", "degradation_level", "degraded"):
            assert thread_stats[key] == process_stats[key], key

    def test_stats_shape_matches_across_backends(self, fft_prototype,
                                                 request_stream):
        _, _, _, thread_stats = _lockstep("thread", fft_prototype,
                                          request_stream[:2])
        _, _, _, process_stats = _lockstep("process", fft_prototype,
                                           request_stream[:2])
        assert set(thread_stats) == set(process_stats)
        assert (set(thread_stats["workers"][0])
                == set(process_stats["workers"][0]))


    def test_workers_export_the_same_loop_series(self, fft_prototype,
                                                 request_stream):
        """One served batch registers the same per-worker families on
        either backend, and — the schedule being the same — the same
        counts in them.  Process workers used to export none of the loop
        series: their telemetry could not cross the process boundary."""
        exported = {}
        for backend in ("thread", "process"):
            registry = MetricsRegistry()
            _lockstep(backend, fft_prototype, request_stream[:1],
                      registry=registry)
            exported[backend] = {
                name: [
                    getattr(child, "value", None)
                    for labels, child in registry.get(name).series()
                ]
                for name in registry.names()
                if name.startswith("rumba_")
                and "worker" in registry.get(name).labelnames
            }
        assert set(exported["thread"]) == set(exported["process"])
        assert {"rumba_fires_total", "rumba_recovered_total",
                "rumba_phase_seconds_total"} <= set(exported["process"])
        for name in ("rumba_invocations_total", "rumba_checks_total",
                     "rumba_fires_total", "rumba_recovered_total",
                     "rumba_phase_spans_total", "rumba_tuner_moves_total",
                     "rumba_threshold"):
            assert exported["thread"][name] == exported["process"][name], name


@pytest.fixture(scope="module")
def ensemble_prototype():
    spec = EnsembleConfig(enabled=True, margin=0.21).to_spec()
    return prepare_system("fft", scheme="treeErrors", seed=0, ensemble=spec)


class TestJournalEquivalence:
    """Both transports hand the core the same report type, so the two
    journals of one lockstep schedule must say the same thing."""

    def _journals(self, tmp_path, prototype, requests):
        out = {}
        for backend in ("thread", "process"):
            path = str(tmp_path / f"{backend}.journal")
            _lockstep(backend, prototype, requests, journal_path=path)
            out[backend] = read_journal(path).records
        return out["thread"], out["process"]

    def _assert_same(self, thread, process, n_requests):
        assert len(thread) == len(process) == n_requests
        for t, p in zip(thread, process):
            assert set(t.header) == set(p.header)
            assert t.header["request_id"] == p.header["request_id"]
            assert t.bits is not None and t.bits.tolist() == p.bits.tolist()
            assert t.header["threshold"] == p.header["threshold"]
            assert t.header["fix_fraction"] == p.header["fix_fraction"]
            assert t.header.get("backend_ids") == p.header.get("backend_ids")
            assert t.outputs.tobytes() == p.outputs.tobytes()

    def test_plain_journals_match(self, tmp_path, fft_prototype,
                                  request_stream):
        thread, process = self._journals(tmp_path, fft_prototype,
                                         request_stream)
        self._assert_same(thread, process, len(request_stream))
        assert "backend_ids" not in thread[0].header

    def test_ensemble_journals_match(self, tmp_path, ensemble_prototype,
                                     request_stream):
        thread, process = self._journals(tmp_path, ensemble_prototype,
                                         request_stream)
        self._assert_same(thread, process, len(request_stream))
        assert len(thread[0].header["backend_ids"]) == 48
