"""Golden-journal replay tests.

A short chaos run (one worker SIGKILLed mid-stream on the process
backend) is captured once per module; every test then replays that
golden journal and asserts the determinism contract: both backends
reproduce the recorded outputs, decision bits, and quality metrics bit
for bit, torn tails degrade to skipped batches (not errors), and a
tampered journal makes the replay — and the CLI — fail loudly.
"""

import os

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.serving import (
    BatchingConfig,
    ChaosConfig,
    EnsembleConfig,
    JournalConfig,
    RumbaServer,
    ServerConfig,
    read_journal,
    replay_journal,
)
from repro.serving.journal import JournalRecord, RequestJournal

N_REQUESTS = 24
ROWS_PER_REQUEST = 8


@pytest.fixture(scope="module")
def golden_journal(tmp_path_factory):
    """Capture a chaos run: process backend, one SIGKILL mid-stream."""
    path = str(tmp_path_factory.mktemp("golden") / "journal.bin")
    config = ServerConfig(
        app="fft",
        scheme="treeErrors",
        backend="process",
        n_workers=2,
        seed=0,
        batching=BatchingConfig(max_batch_requests=4,
                                flush_interval_s=0.002),
        # seed-only chaos: the monkey exists (so we can murder a worker
        # deterministically) but injects nothing by itself.
        chaos=ChaosConfig(seed=1),
        journal=JournalConfig(path=path),
    )
    server = RumbaServer(config=config)
    server.prepare()
    rng = np.random.default_rng(7)
    pool = np.atleast_2d(server.prototype.app.test_inputs(rng))
    failed = 0
    with server:
        handles = []
        for i in range(N_REQUESTS):
            lo = (i * ROWS_PER_REQUEST) % (
                pool.shape[0] - ROWS_PER_REQUEST
            )
            handles.append(
                server.submit(pool[lo: lo + ROWS_PER_REQUEST],
                              deadline_s=60.0)
            )
            if i == N_REQUESTS // 2:
                assert server.chaos_monkey.kill_one_worker()
        for handle in handles:
            try:
                handle.result(timeout=120.0)
            except Exception:
                failed += 1
    journal = read_journal(path)
    assert journal.meta["backend"] == "process"
    assert len(journal.ok_records()) == N_REQUESTS - failed
    assert journal.batches(), "chaos run recorded no replayable batches"
    return path


class TestRestartReplay:
    def test_restart_after_relax_replays_without_divergence(
        self, restart_after_relax, tmp_path
    ):
        """The three batches a restarted worker serves after the fleet
        left degradation are recorded undegraded, so replay compares them
        — and they must have run at the threshold replay runs at."""
        path = str(tmp_path / "restart.journal")
        restart_after_relax(journal_path=path)
        report = replay_journal(path, backend="thread")
        assert report.divergences == [], report.summary()
        assert report.skipped_degraded == 1
        assert report.compared == 3


class TestGoldenReplay:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_chaos_run_replays_bit_for_bit(self, golden_journal, backend):
        report = replay_journal(golden_journal, backend=backend)
        assert report.ok, report.summary()
        assert report.compared > 0
        assert report.backend == backend
        # The replay-side journal is scratch and must be cleaned up.
        assert not os.path.exists(golden_journal + ".replay")

    def test_torn_tail_skips_batch_but_stays_ok(self, golden_journal,
                                                tmp_path):
        torn = str(tmp_path / "torn.bin")
        with open(golden_journal, "rb") as src:
            blob = src.read()
        with open(torn, "wb") as dst:
            dst.write(blob[:-31])  # cut the final frame mid-record
        whole = read_journal(golden_journal)
        parsed = read_journal(torn)
        assert len(parsed.records) == len(whole.records) - 1
        report = replay_journal(torn, backend="thread")
        assert report.ok, report.summary()
        # The batch the torn record belonged to is incomplete, so it is
        # skipped rather than mis-compared.
        assert report.batches + report.skipped_incomplete >= len(
            parsed.batches()
        )

    def test_tampered_outputs_diverge(self, golden_journal, tmp_path):
        tampered = self._tamper(golden_journal, tmp_path, "outputs")
        report = replay_journal(tampered, backend="thread")
        assert not report.ok
        assert any(d.field == "outputs" for d in report.divergences)

    def test_tampered_bits_diverge(self, golden_journal, tmp_path):
        tampered = self._tamper(golden_journal, tmp_path, "bits")
        report = replay_journal(tampered, backend="thread")
        assert not report.ok
        assert any(d.field == "bits" for d in report.divergences)

    @staticmethod
    def _tamper(path, tmp_path, what):
        """Rewrite the journal with one record's payload falsified."""
        journal = read_journal(path)
        out = str(tmp_path / f"tampered-{what}.bin")
        victim = journal.ok_records()[0].request_id
        with RequestJournal(out) as writer:
            writer.write_meta(journal.meta)
            for record in journal.records:
                outputs, bits = record.outputs, record.bits
                if record.request_id == victim:
                    if what == "outputs" and outputs is not None:
                        outputs = outputs + 1e-9
                    elif what == "bits" and bits is not None:
                        bits = ~bits
                writer.record_request(record.header, inputs=record.inputs,
                                      outputs=outputs, bits=bits)
        return out


@pytest.fixture(scope="module")
def golden_ensemble_journal(tmp_path_factory):
    """Ensemble chaos capture: per-row routed members ride the journal.

    Same shape as ``golden_journal`` (process backend, one SIGKILL
    mid-stream) but with a three-member ensemble routing every batch.
    Requests sample rows from across the whole test pool and margin
    0.21 sits on fft's routing boundary, so traffic genuinely splits
    across members — including *within* single batches.
    """
    path = str(tmp_path_factory.mktemp("golden-ens") / "journal.bin")
    config = ServerConfig(
        app="fft",
        scheme="treeErrors",
        backend="process",
        n_workers=2,
        seed=0,
        batching=BatchingConfig(max_batch_requests=4,
                                flush_interval_s=0.002),
        chaos=ChaosConfig(seed=1),
        journal=JournalConfig(path=path),
        ensemble=EnsembleConfig(enabled=True, margin=0.21),
    )
    server = RumbaServer(config=config)
    server.prepare()
    rng = np.random.default_rng(7)
    pool = np.atleast_2d(server.prototype.app.test_inputs(rng))
    failed = 0
    with server:
        handles = []
        for i in range(N_REQUESTS):
            rows = rng.choice(pool.shape[0], size=ROWS_PER_REQUEST,
                              replace=False)
            handles.append(
                server.submit(pool[rows], deadline_s=60.0)
            )
            if i == N_REQUESTS // 2:
                assert server.chaos_monkey.kill_one_worker()
        for handle in handles:
            try:
                handle.result(timeout=120.0)
            except Exception:
                failed += 1
    journal = read_journal(path)
    recorded = journal.ok_records()
    assert len(recorded) == N_REQUESTS - failed
    # Every successful record journaled its routed member per row...
    assert all(r.header.get("backend_ids") is not None for r in recorded)
    # ...traffic actually split across members...
    chosen = {i for r in recorded for i in r.header["backend_ids"]}
    assert len(chosen) >= 2
    # ...and some rows went unrecovered (the tamper test flips the
    # routing of un-fired rows, whose outputs stay approximate).
    assert any(r.bits is not None and not r.bits.all() for r in recorded)
    return path


class TestEnsembleReplay:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_ensemble_chaos_run_replays_bit_for_bit(
        self, golden_ensemble_journal, backend
    ):
        report = replay_journal(golden_ensemble_journal, backend=backend)
        assert report.ok, report.summary()
        assert report.compared > 0
        assert report.backend == backend

    def test_meta_round_trips_ensemble_config(self,
                                              golden_ensemble_journal):
        meta = read_journal(golden_ensemble_journal).meta
        assert meta["config"]["ensemble_enabled"] is True
        assert meta["config"]["ensemble_margin"] == 0.21
        assert meta["config"]["ensemble_members"] == \
            "mlp:large,mlp:small,memo"

    def test_tampered_backend_ids_diverge(self, golden_ensemble_journal,
                                          tmp_path):
        """Falsified routing decisions must fail the replay loudly: the
        forced (tampered) members produce different approximate outputs
        on the rows recovery never touched."""
        journal = read_journal(golden_ensemble_journal)
        victim = next(
            r.request_id for r in journal.ok_records()
            if r.bits is not None and not r.bits.all()
            and r.header.get("backend_ids")
        )
        out = str(tmp_path / "tampered-backend-ids.bin")
        with RequestJournal(out) as writer:
            writer.write_meta(journal.meta)
            for record in journal.records:
                header = dict(record.header)
                if record.request_id == victim:
                    header["backend_ids"] = [
                        (int(c) + 1) % 3
                        for c in header["backend_ids"]
                    ]
                writer.record_request(header, inputs=record.inputs,
                                      outputs=record.outputs,
                                      bits=record.bits)
        report = replay_journal(out, backend="thread")
        assert not report.ok
        assert any(d.field == "outputs" for d in report.divergences)


class TestBackendIdDiff:
    """The backend_ids comparison in the batch differ: it guards the
    forcing path itself (a replay that ignored the journaled choices
    would re-route live and show up here)."""

    @staticmethod
    def _record(ids, rows=2):
        header = {"request_id": 0, "status": "ok", "batch": 0,
                  "row_offset": 0, "batch_rows": rows,
                  "fix_fraction": 0.0}
        if ids is not None:
            header["backend_ids"] = ids
        return JournalRecord(
            header=header,
            inputs=np.arange(rows, dtype=float).reshape(-1, 1),
            outputs=np.zeros((rows, 2)),
        )

    def _diff(self, recorded_ids, replayed_ids):
        from repro.serving.replay import _diff_batch

        return _diff_batch(
            0, [self._record(recorded_ids)], self._record(replayed_ids)
        )

    def test_matching_ids_clean(self):
        assert self._diff([0, 2], [0, 2]) == []

    def test_missing_replay_ids_flagged(self):
        divergences = self._diff([0, 2], None)
        assert [d.field for d in divergences] == ["backend_ids"]
        assert "no member choices" in divergences[0].detail

    def test_flipped_ids_flagged(self):
        divergences = self._diff([0, 2], [0, 1])
        assert [d.field for d in divergences] == ["backend_ids"]
        assert "1 rows" in divergences[0].detail

    def test_length_mismatch_flagged(self):
        divergences = self._diff([0, 2], [0, 2, 1])
        assert [d.field for d in divergences] == ["backend_ids"]
        assert "different lengths" in divergences[0].detail

    def test_non_ensemble_records_skip_comparison(self):
        assert self._diff(None, None) == []


class TestReplayEdges:
    def test_journal_without_meta_is_rejected(self, tmp_path):
        path = str(tmp_path / "headless.bin")
        with RequestJournal(path) as journal:
            journal.record_request({"request_id": 0, "status": "ok"})
        with pytest.raises(ConfigurationError, match="no META"):
            replay_journal(path)

    def test_retired_config_keys_in_meta_still_replay(self, golden_journal,
                                                      tmp_path):
        """Journals recorded before ``ServerConfig`` shed its unset
        options (five in ISSUE 14, ``degrade_factor`` in ISSUE 15, the
        recovery pool's two in ISSUE 24) carry them in META's flat config
        — and ``n_recovery_workers`` at META's top level too.  Replay reads the keys it names and
        nothing else, so such a journal must still replay with zero
        divergence."""
        journal = read_journal(golden_journal)
        meta = dict(journal.meta)
        meta["config"] = dict(
            meta["config"],
            max_degradation=8,
            flight_log_max_bytes=16 << 20,
            trace_slow_threshold_s=0.1,
            trace_max_exemplars=8,
            journal_record_errors=True,
            degrade_factor=1.5,
            n_recovery_workers=1,
            recovery_backlog_capacity=16,
        )
        meta["n_recovery_workers"] = 1
        old = str(tmp_path / "pre-retirement.bin")
        with RequestJournal(old) as writer:
            writer.write_meta(meta)
            for record in journal.records:
                writer.record_request(record.header, inputs=record.inputs,
                                      outputs=record.outputs,
                                      bits=record.bits)
        assert "max_degradation" in read_journal(old).meta["config"]
        report = replay_journal(old, backend="thread")
        assert report.ok, report.summary()
        assert report.divergences == []
        assert report.batches == replay_journal(
            golden_journal, backend="thread"
        ).batches

    def test_cli_exit_codes(self, golden_journal, tmp_path):
        from repro.__main__ import main

        assert main(["replay", golden_journal, "--backend", "thread"]) == 0
        tampered = TestGoldenReplay._tamper(
            golden_journal, tmp_path, "outputs"
        )
        assert main(["replay", tampered, "--backend", "thread"]) == 1

    def test_cli_fails_when_every_batch_is_skipped(self, golden_journal,
                                                   tmp_path, capsys):
        """A journal whose every batch ran degraded (what an unpaced
        burst deeper than the backpressure watermarks records) compares
        nothing; before, the CLI said "OK — no divergence" and exited 0."""
        from repro.__main__ import main

        journal = read_journal(golden_journal)
        degraded = str(tmp_path / "all-degraded.bin")
        with RequestJournal(degraded) as writer:
            writer.write_meta(journal.meta)
            for record in journal.records:
                writer.record_request(dict(record.header, degraded=True),
                                      inputs=record.inputs,
                                      outputs=record.outputs,
                                      bits=record.bits)
        report = replay_journal(degraded, backend="thread")
        assert report.compared == 0
        assert report.skipped_degraded == len(journal.batches()) > 0
        capsys.readouterr()
        assert main(["replay", degraded, "--backend", "thread"]) == 1
        printed = capsys.readouterr().out
        assert "NOTHING VERIFIED" in printed
        assert "OK" not in printed
