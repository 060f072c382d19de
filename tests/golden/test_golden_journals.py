"""The committed replay oracle (ROADMAP item 4.1; ``README.md`` beside).

Four journals replayed here on both backends: three recorded at commit
``d133502`` — before the descent of ``predictors/tree.py`` was
rewritten — and the kmeans ensemble one re-recorded on top of
``a165b0e``, when replay stopped forcing the routing (``README.md`` has
why).  Every
batch must come back bit for bit: outputs, decision bits, quality
metrics and the routed members replay re-derives.  The journals are data, not fixtures: a
test that fails here is answered by fixing the code, and the files
change only under the rule the README states (the digests below make
that a deliberate edit).
"""

import hashlib
import os

import numpy as np
import pytest

from repro.serving import read_journal, replay_journal

HERE = os.path.dirname(os.path.abspath(__file__))

# name -> (sha256, app, recording backend, ensemble?)
RECORDED = {
    "thread_plain_blackscholes.journal": (
        "6072e6c5aca84d66d8d38ba15e81bd8ed3cedf60848002be1721c113befd4420",
        "blackscholes", "thread", False,
    ),
    "process_chaos_sobel.journal": (
        "c7db6f1c561e250d59fc7564d77f6a461320e6942340eb556a6975d410b3f01c",
        "sobel", "process", False,
    ),
    "thread_ensemble_fft.journal": (
        "d621f0dab978c44dc002748a3f6b4d4b0e1d4e414eafe9ba1e585fb31655e4f4",
        "fft", "thread", True,
    ),
    "process_ensemble_kmeans.journal": (
        "63f9d1c749ef54fd65ecc7cb42fe6f26fb1d4e07a30370522b3dcdf9b4d06b0f",
        "kmeans", "process", True,
    ),
}


def test_the_directory_holds_exactly_the_recorded_journals():
    on_disk = sorted(f for f in os.listdir(HERE) if f.endswith(".journal"))
    assert on_disk == sorted(RECORDED)


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_journal_is_the_recorded_file_and_decides_something(name):
    digest, app, backend, ensemble = RECORDED[name]
    path = os.path.join(HERE, name)
    with open(path, "rb") as handle:
        blob = handle.read()
    assert hashlib.sha256(blob).hexdigest() == digest, (
        f"{name} differs from the recording: regenerate only under the "
        "rule in tests/golden/README.md"
    )
    assert len(blob) <= 64 << 10
    journal = read_journal(path)
    assert journal.meta["app"] == app
    assert journal.meta["backend"] == backend
    assert len(journal.records) == 48 and all(r.ok for r in journal.records)
    assert all(
        ("backend_ids" in r.header) == ensemble for r in journal.records
    )
    # A journal whose checker fired on every row (or none) would replay
    # clean under any descent: each must hold both verdicts.
    bits = np.concatenate([r.bits for r in journal.records])
    assert 0 < int(bits.sum()) < bits.size


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("name", sorted(RECORDED))
def test_replays_bit_for_bit(name, backend, tmp_path):
    report = replay_journal(
        os.path.join(HERE, name),
        backend=backend,
        journal_out=str(tmp_path / "replay.journal"),
    )
    assert report.ok, report.summary()
    assert report.skipped_incomplete == 0
    assert report.compared == report.batches > 0
