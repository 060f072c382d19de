"""Cross-module integration tests: the full Rumba story, end to end."""

import numpy as np
import pytest

from repro.apps import get_application
from repro.apps.datasets import natural_image
from repro.core import RumbaConfig, prepare_system
from repro.eval import evaluate_benchmark, quality_target_analysis
from tests.apps.oracles import compress_image, fft_transform, sobel_image


class TestErrorReductionStory:
    """The headline claim on the two cheap benchmarks."""

    @pytest.mark.parametrize("name", ["fft", "inversek2j"])
    def test_rumba_beats_unchecked(self, name):
        system = prepare_system(name, scheme="treeErrors", seed=0)
        rng = np.random.default_rng(31)
        inputs = np.atleast_2d(system.app.test_inputs(rng))[:3000]
        record = system.run_invocation(inputs)
        assert record.measured_error < record.unchecked_error
        # The TOQ threshold (10% per element) keeps residual errors small.
        residual = system.app.element_errors(
            record.outputs, system.app.exact(inputs)
        )
        fixed = record.recovery.recovery_indices
        np.testing.assert_allclose(residual[fixed], 0.0, atol=1e-9)

    def test_scheme_ordering_holds_on_stream(self):
        """Ideal <= treeErrors <= Random in achieved error at equal fixes."""
        evaluation = evaluate_benchmark("inversek2j", seed=0, n_test_cap=4000)
        analyses = quality_target_analysis(evaluation)
        assert analyses["Ideal"].n_fixed <= analyses["treeErrors"].n_fixed
        assert analyses["treeErrors"].n_fixed <= analyses["Random"].n_fixed


class TestWholeApplicationPipelines:
    """Approximate kernels embedded in their real applications."""

    def test_fft_application_spectrum_improves_with_rumba(self):
        """Run a whole FFT with approximate twiddles, then with Rumba-
        repaired twiddles, and compare spectral error."""
        system = prepare_system("fft", scheme="treeErrors", seed=0)
        rng = np.random.default_rng(5)
        signal = rng.normal(size=512)
        exact = fft_transform(signal)

        approx_spectrum = fft_transform(signal, twiddle_fn=system.backend)

        def rumba_twiddles(fractions):
            record = system.run_invocation(fractions, measure_quality=False)
            return record.outputs

        rumba_spectrum = fft_transform(signal, twiddle_fn=rumba_twiddles)
        err_approx = np.linalg.norm(approx_spectrum - exact)
        err_rumba = np.linalg.norm(rumba_spectrum - exact)
        assert err_rumba < err_approx

    def test_sobel_application_edge_map(self):
        system = prepare_system("sobel", scheme="treeErrors", seed=0)
        image = natural_image((64, 64), seed=11, detail=1.5)
        exact_edges = sobel_image(image)

        def rumba_kernel(patches):
            return system.run_invocation(patches, measure_quality=False).outputs

        rumba_edges = sobel_image(image, kernel=rumba_kernel)
        unchecked_edges = sobel_image(image, kernel=system.backend)
        err_rumba = np.abs(rumba_edges - exact_edges).mean()
        err_unchecked = np.abs(unchecked_edges - exact_edges).mean()
        assert err_rumba < err_unchecked

    def test_jpeg_application_reconstruction(self):
        system = prepare_system("jpeg", scheme="treeErrors", seed=0)
        image = natural_image((64, 64), seed=12, detail=1.5)
        exact_recon = compress_image(image)

        def rumba_kernel(blocks):
            return system.run_invocation(blocks, measure_quality=False).outputs

        rumba_recon = compress_image(image, block_fn=rumba_kernel)
        unchecked_recon = compress_image(image, block_fn=system.backend)
        err_rumba = np.abs(rumba_recon - exact_recon).mean()
        err_unchecked = np.abs(unchecked_recon - exact_recon).mean()
        assert err_rumba <= err_unchecked


class TestCrossSchemeConsistency:
    def test_all_schemes_produce_valid_invocations(self):
        rng = np.random.default_rng(17)
        inputs = get_application("fft").test_inputs(rng)[:800]
        for scheme in ("Ideal", "Random", "Uniform", "EMA", "linearErrors",
                       "treeErrors"):
            system = prepare_system("fft", scheme=scheme, seed=0)
            record = system.run_invocation(inputs)
            assert record.outputs.shape == (800, 2)
            assert record.measured_error <= record.unchecked_error + 1e-12

    def test_tuning_threshold_consistency_between_config_and_detection(self):
        config = RumbaConfig(scheme="treeErrors", target_output_quality=0.85)
        system = prepare_system("fft", scheme="treeErrors", config=config,
                                seed=0)
        rng = np.random.default_rng(3)
        system.run_invocation(get_application("fft").test_inputs(rng)[:500])
        assert system.detection.threshold == pytest.approx(0.15)


class TestFaultInjection:
    def test_corrupted_accelerator_outputs_recovered(self):
        """Inject NaN rows into the accelerator output path: detection
        flags them unconditionally and recovery restores exact values."""
        system = prepare_system("fft", scheme="EMA", seed=0)

        class _FaultyBackend:
            """Wraps the trained backend, corrupting a slice of outputs."""

            def __init__(self, inner):
                self._inner = inner
                self.topology = inner.topology

            def features(self, inputs):
                return self._inner.features(inputs)

            def __call__(self, inputs):
                out = self._inner(inputs)
                out[::17] = np.nan  # a stuck-at fault on some elements
                return out

        system.backend = _FaultyBackend(system.backend)
        rng = np.random.default_rng(13)
        inputs = get_application("fft").test_inputs(rng)[:600]
        record = system.run_invocation(inputs)
        # Every corrupted element was flagged and re-executed exactly.
        assert np.all(np.isfinite(record.outputs))
        corrupted = np.zeros(600, dtype=bool)
        corrupted[::17] = True
        assert np.all(record.recovery.recovery_indices is not None)
        flagged = np.zeros(600, dtype=bool)
        flagged[record.recovery.recovery_indices] = True
        assert np.all(flagged[corrupted])


class TestDeterminism:
    def test_same_seed_same_results(self):
        rng_inputs = np.random.default_rng(9)
        inputs = get_application("fft").test_inputs(rng_inputs)[:1000]
        records = []
        for _ in range(2):
            from repro.core.offline import clear_cache

            clear_cache()
            system = prepare_system("fft", scheme="treeErrors", seed=0,
                                    cache=False)
            records.append(system.run_invocation(inputs))
        np.testing.assert_array_equal(records[0].outputs, records[1].outputs)
        assert records[0].measured_error == records[1].measured_error
