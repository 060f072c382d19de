"""Unit and property tests for the fft benchmark."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.fft import (
    generate_fractions,
    make_application,
    twiddle_kernel,
)
from repro.errors import ConfigurationError
from tests.apps.oracles import fft_transform


class TestTwiddleKernel:
    def test_unit_magnitude(self, rng):
        x = rng.random((100, 1)) * 0.5
        tw = twiddle_kernel(x)
        np.testing.assert_allclose(np.hypot(tw[:, 0], tw[:, 1]), 1.0)

    def test_known_values(self):
        tw = twiddle_kernel(np.array([[0.0], [0.25], [0.5]]))
        np.testing.assert_allclose(tw[0], [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(tw[1], [0.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(tw[2], [-1.0, 0.0], atol=1e-12)

    def test_wrong_width(self):
        with pytest.raises(ConfigurationError):
            twiddle_kernel(np.ones((3, 2)))


class TestFftTransform:
    def test_matches_numpy_fft(self, rng):
        signal = rng.normal(size=64)
        np.testing.assert_allclose(
            fft_transform(signal), np.fft.fft(signal), atol=1e-9
        )

    def test_complex_signal(self, rng):
        signal = rng.normal(size=32) + 1j * rng.normal(size=32)
        np.testing.assert_allclose(
            fft_transform(signal), np.fft.fft(signal), atol=1e-9
        )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 8))
    def test_matches_numpy_all_power_of_two_sizes(self, log_n):
        rng = np.random.default_rng(log_n)
        signal = rng.normal(size=2**log_n)
        np.testing.assert_allclose(
            fft_transform(signal), np.fft.fft(signal), atol=1e-8
        )

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigurationError, match="power of two"):
            fft_transform(np.ones(12))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            fft_transform(np.empty(0))

    def test_parseval_property(self, rng):
        """Energy is conserved: sum |x|^2 == sum |X|^2 / N."""
        signal = rng.normal(size=128)
        spectrum = fft_transform(signal)
        assert np.sum(np.abs(signal) ** 2) == pytest.approx(
            np.sum(np.abs(spectrum) ** 2) / 128
        )

    def test_approximate_twiddles_change_spectrum(self, rng, fft_backend):
        signal = rng.normal(size=256)
        exact = fft_transform(signal)
        approx = fft_transform(signal, twiddle_fn=fft_backend)
        # Approximate twiddles produce a nearby but different spectrum.
        rel = np.linalg.norm(approx - exact) / np.linalg.norm(exact)
        assert 0.0 < rel < 1.0


class TestGenerator:
    def test_range_is_dit_twiddle_range(self, rng):
        x = generate_fractions(rng, 5000)
        assert x.shape == (5000, 1)
        assert x.min() >= 0.0 and x.max() < 0.5


class TestApplication:
    def test_table1_row(self):
        app = make_application()
        assert str(app.rumba_topology) == "1->1->2"
        assert str(app.npu_topology) == "1->4->4->2"
        assert app.domain == "Signal Processing"
