"""Unit and property tests for the jpeg benchmark."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.apps.datasets import image_to_blocks, natural_image
from repro.apps.jpeg import (
    STANDARD_LUMINANCE_QTABLE,
    dct2_block,
    idct2_block,
    jpeg_block_kernel,
    make_application,
)
from repro.errors import ConfigurationError
from tests.apps.oracles import compress_image

blocks = arrays(
    dtype=float,
    shape=st.tuples(st.integers(1, 5), st.just(64)),
    elements=st.floats(0.0, 255.0, allow_nan=False),
)


class TestDCT:
    def test_roundtrip(self, rng):
        data = rng.uniform(0, 255, size=(10, 64))
        np.testing.assert_allclose(idct2_block(dct2_block(data)), data, atol=1e-9)

    def test_constant_block_has_only_dc(self):
        block = np.full((1, 64), 100.0)
        coeffs = dct2_block(block)
        assert abs(coeffs[0, 0]) > 0
        np.testing.assert_allclose(coeffs[0, 1:], 0.0, atol=1e-9)

    def test_dc_value(self):
        block = np.full((1, 64), 8.0)
        coeffs = dct2_block(block)
        # Orthonormal DCT: DC = mean * 8 (sqrt(1/8)*sqrt(1/8)*64*v = 8v).
        assert coeffs[0, 0] == pytest.approx(64.0)

    def test_energy_preserved(self, rng):
        """Orthonormal transform preserves the L2 norm (Parseval)."""
        data = rng.uniform(-128, 128, size=(5, 64))
        coeffs = dct2_block(data)
        np.testing.assert_allclose(
            np.sum(coeffs**2, axis=1), np.sum(data**2, axis=1), rtol=1e-9
        )

    def test_wrong_width(self):
        with pytest.raises(ConfigurationError):
            dct2_block(np.ones((2, 63)))
        with pytest.raises(ConfigurationError):
            idct2_block(np.ones((2, 16)))


class TestJpegKernel:
    def test_output_in_pixel_range(self, rng):
        data = rng.uniform(0, 255, size=(20, 64))
        out = jpeg_block_kernel(data)
        assert out.min() >= 0.0 and out.max() <= 255.0

    def test_lossy_but_close(self, rng):
        img = natural_image((64, 64), seed=1)
        data = image_to_blocks(img)
        out = jpeg_block_kernel(data)
        err = np.abs(out - data).mean()
        assert 0.0 < err < 20.0  # visible compression, reasonable quality

    def test_constant_block_nearly_exact(self):
        block = np.full((1, 64), 96.0)
        out = jpeg_block_kernel(block)
        np.testing.assert_allclose(out, 96.0, atol=1.0)

    def test_coarser_quantization_more_error(self, rng):
        img = natural_image((64, 64), seed=3, detail=1.0)
        data = image_to_blocks(img)
        fine = np.abs(jpeg_block_kernel(data, quality_scale=1.0) - data).mean()
        coarse = np.abs(jpeg_block_kernel(data, quality_scale=4.0) - data).mean()
        assert coarse > fine

    def test_invalid_quality(self):
        with pytest.raises(ConfigurationError):
            jpeg_block_kernel(np.ones((1, 64)), quality_scale=0.0)

    @settings(max_examples=25, deadline=None)
    @given(blocks)
    def test_idempotent_property(self, data):
        """Re-compressing an already-compressed block is a fixed point.

        Quantized coefficients re-quantize to themselves, up to clipping.
        """
        once = jpeg_block_kernel(data)
        if once.min() > 0.5 and once.max() < 254.5:  # clipping inactive
            twice = jpeg_block_kernel(once)
            np.testing.assert_allclose(twice, once, atol=1e-6)


class TestCompressImage:
    def test_shape_cropped_to_blocks(self):
        img = natural_image((67, 70), seed=2)
        out = compress_image(img)
        assert out.shape == (64, 64)

    def test_custom_block_fn(self):
        img = natural_image((32, 32), seed=2)
        out = compress_image(img, block_fn=lambda blocks: blocks * 0.0)
        np.testing.assert_array_equal(out, 0.0)


class TestQTable:
    def test_standard_values(self):
        assert STANDARD_LUMINANCE_QTABLE[0, 0] == 16
        assert STANDARD_LUMINANCE_QTABLE[7, 7] == 99
        assert STANDARD_LUMINANCE_QTABLE.shape == (8, 8)


class TestApplication:
    def test_table1_row(self):
        app = make_application()
        assert str(app.rumba_topology) == "64->16->64"
        assert str(app.npu_topology) == "64->16->64"
        assert app.metric_name == "Mean Pixel Diff"
