"""Deterministic replay of a recorded request journal.

``python -m repro replay <journal>`` re-drives a captured trace through a
fresh :class:`~repro.serving.server.RumbaServer` and diffs the two runs
bit for bit.  The journal (see :mod:`repro.serving.journal`) recorded,
per request, the batch it rode in — sequence number, total rows, row
offset, backpressure level — plus the inputs, outputs, per-row decision
bits, and quality metrics.  Replay reconstructs each recorded batch
*exactly* (same rows, same order, one invocation per batch via
``max_batch_requests=1``, forced to the recorded level), journals its
own run, and compares record against record:

* **outputs** — raw float64 blocks, byte equality;
* **decision bits** — the checker's per-row recovery verdicts;
* **backend ids** — on ensemble runs, the per-row member choices the
  replay router re-derives against the recorded ones: the router is fit
  once and reads only the rows, threshold and level, so a diff here
  means routing stopped being deterministic (or the journal predates
  the read-only router, see docs/replay.md);
* **quality metrics** — threshold, fix fraction, and (when the recorded
  run measured quality) the measured error, exact float equality.

Exact reproduction holds because the default tuner mode (TOQ) pins the
detection threshold and the checker is a stateless per-row function of
its inputs — given the same batch composition and backpressure level,
every backend produces the same bits and the same recovered outputs.  A
record without a ``level`` (journals written before the level was
recorded) replays at level 0, so such a journal's degraded batch
diverges on ``threshold``.

Divergence means one of the determinism claims broke — a kernel stopped
being pure, a codec corrupted a block, a backend diverged from the other
— and the CLI exits non-zero, which is what the CI replay smoke and the
golden-journal tests key on.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.framedlog import generations
from repro.serving.journal import Journal, JournalRecord, read_journal

__all__ = ["Divergence", "ReplayReport", "replay_journal"]

#: Per-batch deadline of the replay server's submissions.
_DEADLINE_S = 30.0


@dataclass
class Divergence:
    """One bit-for-bit mismatch between a recorded and replayed batch."""

    batch: int
    field: str  # "outputs" | "bits" | "fix_fraction" | ...
    detail: str

    def to_dict(self) -> Dict[str, object]:
        return {"batch": self.batch, "field": self.field,
                "detail": self.detail}


@dataclass
class ReplayReport:
    """Outcome of one replay run; ``ok`` is what the CLI exit code keys on."""

    journal_path: str
    backend: str
    app: str
    scheme: str
    total_records: int
    error_records: int
    batches: int
    skipped_incomplete: int
    replayed: int
    compared: int
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_dict(self) -> Dict[str, object]:
        return {
            "journal": self.journal_path,
            "backend": self.backend,
            "app": self.app,
            "scheme": self.scheme,
            "total_records": self.total_records,
            "error_records": self.error_records,
            "batches": self.batches,
            "skipped_incomplete": self.skipped_incomplete,
            "replayed": self.replayed,
            "compared": self.compared,
            "ok": self.ok,
            "divergences": [d.to_dict() for d in self.divergences],
        }

    def summary(self) -> str:
        verdict = (f"{len(self.divergences)} DIVERGENCES" if not self.ok
                   else "OK — no divergence" if self.compared
                   else "NOTHING VERIFIED — every recorded batch was skipped")
        lines = [
            f"replayed {self.replayed}/{self.batches} recorded batches "
            f"({self.total_records} records, {self.error_records} errors) "
            f"on backend={self.backend}",
            f"compared {self.compared} batches bit-for-bit: {verdict}",
        ]
        if self.skipped_incomplete:
            lines.append(
                f"skipped {self.skipped_incomplete} incomplete batches "
                "(torn tail or partial write)"
            )
        for div in self.divergences[:20]:
            lines.append(f"  batch {div.batch} {div.field}: {div.detail}")
        if len(self.divergences) > 20:
            lines.append(f"  ... and {len(self.divergences) - 20} more")
        return "\n".join(lines)


def _complete_batches(journal: Journal) -> Dict[int, List[JournalRecord]]:
    """The recorded batches whose member records form a full row cover.

    A torn tail (or a crash between a batch's per-request appends) can
    leave a batch with missing members; those cannot be reconstructed and
    are skipped (counted in the report).
    """
    complete: Dict[int, List[JournalRecord]] = {}
    for seq, members in journal.batches().items():
        rows = 0
        contiguous = True
        for member in members:
            if member.inputs is None or member.row_offset != rows:
                contiguous = False
                break
            rows += member.inputs.shape[0]
        if contiguous and members and rows == members[0].batch_rows:
            complete[seq] = members
    return complete


def _concat(blocks: List[Optional[np.ndarray]]) -> Optional[np.ndarray]:
    if any(block is None for block in blocks):
        return None
    return np.concatenate([np.atleast_2d(b) for b in blocks], axis=0)


def _diff_batch(
    seq: int,
    members: List[JournalRecord],
    new: JournalRecord,
) -> List[Divergence]:
    """Bit-for-bit comparison of one recorded batch vs its replay record."""
    divergences: List[Divergence] = []

    recorded_inputs = _concat([m.inputs for m in members])
    if new.inputs is None or recorded_inputs.tobytes() != new.inputs.tobytes():
        divergences.append(Divergence(
            seq, "inputs",
            "replayed inputs differ from the recorded rows "
            "(journal corruption or replay harness bug)",
        ))
        return divergences  # downstream comparisons would be meaningless

    recorded_outputs = _concat([m.outputs for m in members])
    if recorded_outputs is None or new.outputs is None:
        divergences.append(Divergence(
            seq, "outputs", "a side recorded no output block"
        ))
    elif recorded_outputs.tobytes() != new.outputs.tobytes():
        delta = float(np.max(np.abs(recorded_outputs - new.outputs)))
        divergences.append(Divergence(
            seq, "outputs",
            f"output rows differ (max abs delta {delta:.3e})",
        ))

    recorded_choices = [m.header.get("backend_ids") for m in members]
    if all(ids is not None for ids in recorded_choices):
        recorded_ids = [int(v) for ids in recorded_choices for v in ids]
        new_ids = new.header.get("backend_ids")
        if new_ids is None:
            divergences.append(Divergence(
                seq, "backend_ids",
                "recorded run routed an ensemble but replay recorded "
                "no member choices",
            ))
        elif [int(v) for v in new_ids] != recorded_ids:
            flips = sum(
                1 for a, b in zip(recorded_ids, new_ids) if int(a) != int(b)
            ) if len(recorded_ids) == len(new_ids) else -1
            divergences.append(Divergence(
                seq, "backend_ids",
                f"routed member choices differ ({flips} rows)" if flips >= 0
                else "routed-choice vectors have different lengths",
            ))

    member_bits = [m.bits for m in members]
    if all(bits is not None for bits in member_bits):
        recorded_bits = np.concatenate(member_bits)
        if new.bits is None:
            divergences.append(Divergence(
                seq, "bits", "replay recorded no decision bits"
            ))
        elif (
            recorded_bits.shape != new.bits.shape
            or not np.array_equal(recorded_bits, new.bits)
        ):
            flips = (
                int(np.sum(recorded_bits != new.bits))
                if recorded_bits.shape == new.bits.shape else -1
            )
            divergences.append(Divergence(
                seq, "bits",
                f"decision bits differ ({flips} flipped)" if flips >= 0
                else "decision-bit vectors have different lengths",
            ))

    if members[0].fix_fraction != new.fix_fraction:
        divergences.append(Divergence(
            seq, "fix_fraction",
            f"recorded {members[0].fix_fraction!r} "
            f"vs replayed {new.fix_fraction!r}",
        ))

    recorded_threshold = members[0].header.get("threshold")
    new_threshold = new.header.get("threshold")
    if (
        recorded_threshold is not None
        and new_threshold is not None
        and float(recorded_threshold) != float(new_threshold)
    ):
        divergences.append(Divergence(
            seq, "threshold",
            f"recorded {recorded_threshold!r} vs replayed {new_threshold!r}",
        ))

    recorded_err = members[0].header.get("measured_error")
    new_err = new.header.get("measured_error")
    if (
        recorded_err is not None
        and new_err is not None
        and float(recorded_err) != float(new_err)
    ):
        divergences.append(Divergence(
            seq, "measured_error",
            f"recorded {recorded_err!r} vs replayed {new_err!r}",
        ))
    return divergences


def _remove_journal(path: str) -> None:
    for candidate in generations(path):
        try:
            os.remove(candidate)
        except FileNotFoundError:
            pass


def replay_journal(
    path: str,
    backend: Optional[str] = None,
    journal_out: Optional[str] = None,
) -> ReplayReport:
    """Re-run a recorded journal and diff the two runs bit for bit.

    Parameters
    ----------
    backend:
        Replay backend; defaults to the one the journal's META records.
        Cross-backend replay (record on ``process``, replay on
        ``thread``, or vice versa) is the two-backends-identical check.
    journal_out:
        Where the replay server writes its own journal, which is kept;
        defaults to ``<path>.replay``, which is deleted afterwards.
    """
    # Imported here, not at module top: server pulls in the full serving
    # stack, and journal reading alone must stay import-light.
    from repro.serving.config import (
        BatchingConfig,
        EnsembleConfig,
        JournalConfig,
        ServerConfig,
        TracingConfig,
    )
    from repro.serving.server import RumbaServer

    recorded = read_journal(path)
    if recorded.meta is None:
        raise ConfigurationError(
            f"{path} has no META record — not a request journal, or its "
            "head generation was lost"
        )
    meta = recorded.meta
    batches = recorded.batches()
    complete = _complete_batches(recorded)
    error_records = sum(1 for r in recorded.records if not r.ok)

    replay_backend = str(backend or meta.get("backend", "thread"))
    keep_journal_out = journal_out is not None
    journal_out = journal_out or (path + ".replay")
    _remove_journal(journal_out)

    # The META's flattened config round-trips the ensemble spec, so an
    # ensemble-enabled recording rebuilds the identical member set (same
    # seed ⇒ same trained members); the journaled per-row choices below
    # then force the router, so an older journal's online-learned routing
    # does not matter.  Keys of retired ensemble options (older METAs
    # carry them, at the values that are now constants) are skipped.
    flat_config = meta.get("config") or {}
    ensemble_kwargs = {
        f.name: flat_config["ensemble_" + f.name]
        for f in fields(EnsembleConfig)
        if "ensemble_" + f.name in flat_config
    }
    config = ServerConfig(
        ensemble=EnsembleConfig(**ensemble_kwargs),
        app=str(meta.get("app", "fft")),
        scheme=str(meta.get("scheme", "treeErrors")),
        backend=replay_backend,
        # Replay submits and waits one batch at a time.
        n_workers=1,
        seed=int(meta.get("seed", 0)),
        measure_quality=bool(meta.get("measure_quality", False)),
        # One recorded batch = one submission = one invocation: batching
        # must not re-mix rows, or BLAS batch-shape sensitivity alone
        # would diverge the outputs.
        batching=BatchingConfig(max_batch_requests=1, flush_interval_s=0.0),
        tracing=TracingConfig(enabled=False),
        journal=JournalConfig(path=journal_out),
    )
    server = RumbaServer(config=config)
    order = sorted(complete)
    replayed = 0
    server.start()
    try:
        for seq in order:
            members = complete[seq]
            inputs = _concat([m.inputs for m in members])
            # Sequential submit-and-wait: request_id i corresponds to
            # order[i], and no two invocations can interleave state.
            server.submit(
                inputs, deadline_s=_DEADLINE_S,
                level=members[0].header.get("level", 0),
            ).result(_DEADLINE_S)
            replayed += 1
    finally:
        server.stop()

    new_journal = read_journal(journal_out)
    by_request = {r.request_id: r for r in new_journal.records}
    report = ReplayReport(
        journal_path=path,
        backend=replay_backend,
        app=config.app,
        scheme=config.scheme,
        total_records=len(recorded.records),
        error_records=error_records,
        batches=len(batches),
        skipped_incomplete=len(batches) - len(complete),
        replayed=replayed,
        compared=0,
    )
    for index, seq in enumerate(order):
        new = by_request.get(index)
        if new is None or not new.ok:
            report.divergences.append(Divergence(
                seq, "status",
                "replay produced no successful record for this batch"
                + (f" (status {new.status!r})" if new is not None else ""),
            ))
            continue
        report.compared += 1
        report.divergences.extend(_diff_batch(seq, complete[seq], new))
    if not keep_journal_out:
        _remove_journal(journal_out)
    return report
