"""Unit tests for the benchmark registry (Table 1)."""

import numpy as np
import pytest

from repro.apps import APPLICATION_NAMES, all_applications, get_application
from repro.errors import UnknownApplicationError

TABLE1 = {
    "blackscholes": ("Financial Analysis", "3->8->8->1", "6->8->8->1",
                     "Mean Relative Error"),
    "fft": ("Signal Processing", "1->1->2", "1->4->4->2",
            "Mean Relative Error"),
    "inversek2j": ("Robotics", "2->2->2", "2->8->2", "Mean Relative Error"),
    "jmeint": ("3D Gaming", "18->32->2->2", "18->32->8->2", "# of mismatches"),
    "jpeg": ("Compression", "64->16->64", "64->16->64", "Mean Pixel Diff"),
    "kmeans": ("Machine Learning", "6->4->4->1", "6->8->4->1",
               "Mean Output Diff"),
    "sobel": ("Image Processing", "9->8->1", "9->8->1", "Mean Pixel Diff"),
}


class TestRegistry:
    def test_table1_order(self):
        assert APPLICATION_NAMES == tuple(TABLE1)

    @pytest.mark.parametrize("name", list(TABLE1))
    def test_table1_contents(self, name):
        domain, rumba, npu, metric = TABLE1[name]
        app = get_application(name)
        assert app.name == name
        assert app.domain == domain
        assert str(app.rumba_topology) == rumba
        assert str(app.npu_topology) == npu
        assert metric in app.metric_name

    def test_unknown_name(self):
        with pytest.raises(UnknownApplicationError):
            get_application("raytracer")

    def test_all_applications(self):
        apps = all_applications()
        assert [a.name for a in apps] == list(TABLE1)

    def test_fresh_instances(self):
        assert get_application("fft") is not get_application("fft")

    @pytest.mark.parametrize("name", list(TABLE1))
    def test_generators_match_kernel_signature(self, name):
        app = get_application(name)
        rng = np.random.default_rng(0)
        train = np.atleast_2d(app.train_inputs(rng))
        test = np.atleast_2d(app.test_inputs(rng))
        assert train.shape[1] == app.n_kernel_inputs
        assert test.shape[1] == app.n_kernel_inputs

    @pytest.mark.parametrize("name", list(TABLE1))
    def test_kernels_are_pure(self, name):
        """Re-execution safety (paper Sec. 2.2): every Table 1 kernel is pure."""
        from repro.core.recovery import verify_purity

        app = get_application(name)
        rng = np.random.default_rng(1)
        sample = np.atleast_2d(app.test_inputs(rng))[:32]
        verify_purity(app.exact, sample)  # raises PurityError if impure

    @pytest.mark.parametrize("name", list(TABLE1))
    def test_offload_fraction_valid(self, name):
        app = get_application(name)
        assert 0.0 < app.offload_fraction <= 1.0
