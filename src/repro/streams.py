"""The one place a seed becomes the generator seeds of the data it draws:
the trainers, the evaluation, the ledger's experiments and the CLI's rows.
Outside :mod:`repro.core`, whose package imports the whole stack."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields

__all__ = ["Streams", "streams"]


@dataclass(frozen=True)
class Streams:
    """The generator seed of every data stream one seed draws.

    The defaults are seed 0's.  ``accelerator`` is both topologies'
    training rows, weight initialisation and trainer, so the topology
    ablation compares two networks trained on the same rows.  A stream
    in :data:`_WIDTHS` also draws the seeds after its own; ``fig3`` draws
    one flower image per row at ``fig3 * 100003 + i``
    (:func:`~repro.apps.mosaic.perforation_error_survey`).
    """

    accelerator: int = 0
    checker_training: int = 1
    evaluation: int = 2
    checker: int = 0            # the Random checker's scores
    tuner: int = 123            # the tuner modes' live fft stream
    fig2_image: int = 42
    fig2_noise: int = 0
    fig3: int = 0
    fig5: int = 0
    alt_train: int = 9          # the Sec. 4 substrates
    alt_test: int = 10
    alt_random: int = 11
    alt_calibration: int = 0
    alt_noise: int = 1
    memo_probe: int = 11        # the memoization extension
    memo_warm: int = 12
    memo_calibration: int = 0
    memo_manager: int = 0
    ensemble_small: int = 12    # the ensemble's members and router
    ensemble_calibration: int = 0
    ensemble_warm: int = 13
    ensemble_router: int = 21
    cli: int = 100              # the rows the CLI's commands send
    sampling_train: int = 10_000  # one flower image per row
    sampling_test: int = 20_000


#: How many consecutive generator seeds a stream draws, where more than one.
_WIDTHS = {"memo_manager": 2, "sampling_train": 300, "sampling_test": 400}
#: Seed ``s >= 1`` owns the generator seeds ``[s * _BLOCK, (s + 1) * _BLOCK)``.
#: Seed 0's streams lie below ``_BLOCK`` except Fig. 3's images, which, like
#: every seed's, lie at or above ``100003 * _BLOCK``: so no seed below
#: 100,003 draws a generator seed another seed draws.
_BLOCK = 1_000_000


def streams(seed: int) -> Streams:
    """The generator seed of each data stream at ``seed``.

    Seed 0 keeps the streams the snapshot, the golden journals and the
    ladder were recorded with; seed ``s >= 1`` lays its streams out in
    order from ``s * _BLOCK``, each as wide as it draws.
    """
    if seed == 0:
        return Streams()
    names = [f.name for f in fields(Streams)]
    offsets = itertools.accumulate((_WIDTHS.get(n, 1) for n in names), initial=0)
    return Streams(**{n: seed * _BLOCK + at for n, at in zip(names, offsets)})
