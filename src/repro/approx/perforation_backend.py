"""Rumba for a software approximation: loop-perforated reductions.

The paper argues its design principles "can apply to other accelerator
based approximate computing systems" and that software techniques "need a
quality management system" (Secs. 4 and 6).  This module applies the full
Rumba recipe to the mosaic case study's loop-perforated brightness phase:

* the *approximate execution* keeps a strided sample of each image's
  pixels and averages it,
* the *light-weight checker* is a decision tree over statistics of the
  kept sample itself — information the approximate execution already has,
  so checking costs O(kept pixels), and
* *recovery* re-runs the exact reduction for flagged images only.

:class:`PerforationQualityManager` mirrors the accelerator-side flow:
score every invocation, fire above a threshold, selectively re-execute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.apps.mosaic import average_brightness
from repro.approx.loop_perforation import perforation_mask
from repro.errors import ConfigurationError, NotFittedError
from repro.predictors.tree import DecisionTreeErrorPredictor

__all__ = [
    "sample_statistics",
    "PerforationOutcome",
    "PerforationQualityManager",
]

#: Number of features extracted from the kept-pixel sample + probe.
N_SAMPLE_FEATURES = 9


def sample_statistics(kept_pixels: np.ndarray) -> np.ndarray:
    """Light-weight features of the perforation's own kept sample.

    All of these are computable in one pass over the pixels the
    approximate execution already reads: mean, standard deviation,
    min, max, lag-1 autocorrelation (stride-aliasing indicator), the
    sample size, and two jackknife disagreement terms — the kept sample
    split into interleaved and front/back halves; when independent
    sub-samples of the same reduction disagree, the sample is unreliable,
    which directly predicts the perforation error.  Returns shape ``(8,)``
    (the quality manager appends a 9th out-of-phase probe feature).
    """
    kept = np.asarray(kept_pixels, dtype=float).ravel()
    if kept.size == 0:
        raise ConfigurationError("empty kept sample")
    mean = kept.mean()
    std = kept.std()
    if kept.size > 1 and std > 0:
        centered = kept - mean
        lag1 = float(
            np.dot(centered[:-1], centered[1:])
            / ((kept.size - 1) * std * std)
        )
    else:
        lag1 = 0.0
    if kept.size > 1:
        interleaved_gap = abs(kept[::2].mean() - kept[1::2].mean())
        half = kept.size // 2
        halves_gap = abs(kept[:half].mean() - kept[half:].mean()) if half else 0.0
    else:
        interleaved_gap = 0.0
        halves_gap = 0.0
    return np.array([mean, std, kept.min(), kept.max(), lag1,
                     float(kept.size), interleaved_gap, halves_gap])


@dataclass
class PerforationOutcome:
    """Result of quality-managed perforation over an image stream."""

    approx_values: np.ndarray   # perforated reductions, before recovery
    final_values: np.ndarray    # after selective exact re-execution
    exact_values: np.ndarray    # ground truth (for evaluation)
    scores: np.ndarray          # predicted relative errors
    recovered: np.ndarray       # bool per image

    @property
    def n_recovered(self) -> int:
        return int(self.recovered.sum())

    @property
    def recovered_fraction(self) -> float:
        return self.n_recovered / self.recovered.size if self.recovered.size else 0.0

    def errors(self, values: Optional[np.ndarray] = None) -> np.ndarray:
        """Relative errors of ``values`` (default: the managed outputs)."""
        values = self.final_values if values is None else values
        denom = np.maximum(np.abs(self.exact_values), 1e-9)
        return np.abs(values - self.exact_values) / denom


class PerforationQualityManager:
    """Rumba-style detection and recovery for perforated reductions.

    Parameters
    ----------
    skip_rate:
        Loop-perforation aggressiveness (fraction of pixels dropped).
    threshold:
        Tuning threshold on the predicted relative error.
    """

    def __init__(self, skip_rate: float = 0.995, threshold: float = 0.05,
                 tree_depth: int = 7):
        if not (0.0 <= skip_rate < 1.0):
            raise ConfigurationError("skip_rate must be in [0, 1)")
        if threshold < 0:
            raise ConfigurationError("threshold must be >= 0")
        self.skip_rate = skip_rate
        self.threshold = threshold
        self.predictor = DecisionTreeErrorPredictor(max_depth=tree_depth)

    # ------------------------------------------------------------------ #
    # Approximate execution                                              #
    # ------------------------------------------------------------------ #
    def _run_approx(self, image: np.ndarray):
        pixels = np.asarray(image, dtype=float).ravel()
        mask = perforation_mask(pixels.size, self.skip_rate, mode="uniform")
        kept = pixels[mask]
        # Out-of-phase probe: a second strided sample half a stride away
        # from the kept one.  Strided perforation errors come from aliasing
        # against the image's structure, and an aliased sample looks
        # perfectly normal *from inside* — only a sample at a different
        # phase can expose the bias.  The probe doubles the checker's reads
        # but the total stays ~2x the keep fraction (<1% of the pixels),
        # far below re-executing the reduction.
        stride = max(int(round(1.0 / (1.0 - self.skip_rate))), 1)
        probe_idx = (np.flatnonzero(mask) + stride // 2) % pixels.size
        probe_gap = abs(float(pixels[probe_idx].mean()) - float(kept.mean()))
        stats = np.concatenate([sample_statistics(kept), [probe_gap]])
        return float(kept.mean()), stats

    # ------------------------------------------------------------------ #
    # Offline training (the second trainer of Fig. 4, for perforation)   #
    # ------------------------------------------------------------------ #
    def fit(self, training_images: Sequence[np.ndarray]) -> "PerforationQualityManager":
        """Fit the checker on (sample statistics -> observed error)."""
        if not len(training_images):
            raise ConfigurationError("need training images")
        features = []
        errors = []
        for image in training_images:
            approx, stats = self._run_approx(image)
            exact = average_brightness(image)
            features.append(stats)
            errors.append(abs(approx - exact) / max(abs(exact), 1e-9))
        self.predictor.fit(np.asarray(features), np.asarray(errors))
        return self

    # ------------------------------------------------------------------ #
    # Online management                                                  #
    # ------------------------------------------------------------------ #
    def process_stream(
        self, images: Sequence[np.ndarray]
    ) -> PerforationOutcome:
        """Run perforation with detection and selective recovery."""
        if not self.predictor.is_fitted:
            raise NotFittedError("call fit() before process_stream()")
        if not len(images):
            raise ConfigurationError("empty image stream")
        approx_values = np.empty(len(images))
        exact_values = np.empty(len(images))
        feature_rows = np.empty((len(images), N_SAMPLE_FEATURES))
        for i, image in enumerate(images):
            approx_values[i], feature_rows[i] = self._run_approx(image)
            exact_values[i] = average_brightness(image)
        scores = self.predictor.scores(features=feature_rows)
        recovered = scores > self.threshold
        final = approx_values.copy()
        final[recovered] = exact_values[recovered]
        return PerforationOutcome(
            approx_values=approx_values,
            final_values=final,
            exact_values=exact_values,
            scores=scores,
            recovered=recovered,
        )
