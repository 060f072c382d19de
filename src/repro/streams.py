"""The one place a seed becomes the generator seeds of the data it draws:
the trainers, the evaluation, the ledger's experiments and the CLI's rows.
Outside :mod:`repro.core`, whose package imports the whole stack."""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["Streams", "streams"]


@dataclass(frozen=True)
class Streams:
    """The generator seed of every data stream one seed draws.

    The defaults are seed 0's.  ``accelerator`` is both topologies'
    training rows, weight initialisation and trainer, so the topology
    ablation compares two networks trained on the same rows.  ``fig3``
    draws one flower image per row at ``fig3 * 100003 + i``
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
    ensemble_small: int = 12    # the ensemble's members and router
    ensemble_calibration: int = 0
    ensemble_warm: int = 13
    ensemble_router: int = 21
    cli: int = 100              # the rows the CLI's commands send


#: Seed ``s >= 1`` owns the generator seeds ``[s * _BLOCK, (s + 1) * _BLOCK)``.
#: Seed 0's streams lie below ``_BLOCK`` except Fig. 3's images, which, like
#: every seed's, lie at or above ``100003 * _BLOCK``: so no seed below
#: 100,003 draws a generator seed another seed draws.
_BLOCK = 1_000_000


def streams(seed: int) -> Streams:
    """The generator seed of each data stream at ``seed``.

    Seed 0 keeps the streams the snapshot, the golden journals and the
    ladder were recorded with; seed ``s >= 1`` gives its streams the
    generator seeds from ``s * _BLOCK`` on, one each, in order.
    """
    if seed == 0:
        return Streams()
    return Streams(**{f.name: seed * _BLOCK + at
                      for at, f in enumerate(fields(Streams))})
