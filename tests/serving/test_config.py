"""ServerConfig tests: validation, the journal-META flat view, and the
removed flat-kwarg constructor.

Every invalid combination fails at construction with
:class:`ConfigurationError` — before any thread or process is spawned —
and ``RumbaServer`` takes its knobs through ``config=`` only.
"""

from __future__ import annotations

import warnings

import pytest

from repro.errors import ConfigurationError
from repro.serving import (
    BackpressureConfig,
    BatchingConfig,
    RetryConfig,
    RumbaServer,
    ServerConfig,
)
from repro.serving.config import EnsembleConfig, replace


class TestSectionValidation:
    @pytest.mark.parametrize("kwargs", [
        {"max_batch_requests": 0},
        {"flush_interval_s": -0.001},
        {"admission_capacity": 0},
    ])
    def test_batching_rejects(self, kwargs):
        with pytest.raises(ConfigurationError):
            BatchingConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"high_watermark": 2, "low_watermark": 2},
        {"high_watermark": 2, "low_watermark": 4},
        {"low_watermark": -1, "high_watermark": 8},
    ])
    def test_backpressure_rejects(self, kwargs):
        with pytest.raises(ConfigurationError):
            BackpressureConfig(**kwargs)

    def test_backpressure_watermark_defaults(self):
        """Plain ints: the defaults are what a 16-deep recovery backlog
        used to derive (capacity/2, capacity/8); the capacity is gone."""
        config = BackpressureConfig()
        assert (config.high_watermark, config.low_watermark) == (8, 2)
        with pytest.raises(TypeError):
            BackpressureConfig(recovery_backlog_capacity=32)

    def test_retired_recovery_workers_argument(self):
        """``n_recovery_workers`` is the one retired argument the
        constructor tolerates (the ladder harness passes it): accepted,
        validated, read by nothing — not a field, so it reaches neither
        ``flat()`` nor a derived config."""
        import dataclasses

        config = ServerConfig(n_recovery_workers=1)
        assert config == ServerConfig()
        assert "n_recovery_workers" not in {
            f.name for f in dataclasses.fields(config)
        }
        assert "n_recovery_workers" not in config.flat()
        assert replace(config, n_workers=3).n_workers == 3

    @pytest.mark.parametrize("kwargs", [
        {"max_retries": -1},
        {"default_deadline_s": 0.0},
        {"default_deadline_s": -1.0},
        {"retry_backoff_s": -0.1},
        {"max_worker_restarts": -1},
    ])
    def test_retry_rejects(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"n_workers": 0},
        {"n_recovery_workers": 0},
        {"backend": "fiber"},
        {"ring_capacity_bytes": 16},
    ])
    def test_server_config_rejects(self, kwargs):
        with pytest.raises(ConfigurationError):
            ServerConfig(**kwargs)

    @pytest.mark.parametrize("members,match", [
        ("mlp:large,bogus", "unknown ensemble member"),
        ("mlp:large,memo,memo", "repeated ensemble member"),
        ("mlp,mlp:large", "unknown ensemble member"),
        ("mlp:large,analog", "unknown ensemble member"),
    ])
    def test_ensemble_rejects_bad_member_lists(self, members, match):
        """At construction, not from inside ``RumbaServer.prepare()``."""
        with pytest.raises(ConfigurationError, match=match):
            EnsembleConfig(enabled=True, members=members)
        with pytest.raises(ConfigurationError, match=match):
            ServerConfig(
                ensemble=EnsembleConfig(enabled=True, members=members)
            )

    def test_configs_are_frozen(self):
        config = ServerConfig()
        with pytest.raises(AttributeError):
            config.n_workers = 8
        with pytest.raises(AttributeError):
            config.batching.max_batch_requests = 1

    def test_replace_derives_variants(self):
        base = ServerConfig(n_workers=4)
        quick = replace(
            base, batching=replace(base.batching, flush_interval_s=0.001)
        )
        assert quick.n_workers == 4
        assert quick.batching.flush_interval_s == 0.001
        assert base.batching.flush_interval_s == 0.005  # untouched


class TestFlatShim:
    def test_flat_round_trips(self):
        """``flat()`` is what the journal META records and ``repro
        replay`` reads back: every sectioned field under its flat key."""
        config = ServerConfig(
            n_workers=5,
            batching=BatchingConfig(max_batch_requests=2),
            retry=RetryConfig(max_retries=9),
        )
        flat = config.flat()
        assert set(flat) == {"app", "scheme"} | set(ServerConfig._FLAT_FIELDS)
        assert flat["n_workers"] == 5
        assert flat["max_batch_requests"] == 2
        assert flat["max_retries"] == 9
        assert flat["ensemble_members"] == config.ensemble.members
        assert flat["journal_path"] is None

    def test_with_overrides(self):
        base = ServerConfig()
        derived = base.with_overrides(n_workers=7, app="sobel")
        assert derived.n_workers == 7
        assert derived.app == "sobel"
        assert derived.batching == base.batching


class TestDeprecatedKwargs:
    """The flat kwargs are gone: ``config=`` is the only spelling."""

    def test_config_path_does_not_warn(self, fft_prototype):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            server = RumbaServer(
                prototype=fft_prototype.clone_shard(),
                config=ServerConfig(n_workers=1),
            )
        server.stop()

    def test_mixing_config_and_legacy_kwargs_rejected(self):
        with pytest.raises(TypeError, match="max_retries"):
            RumbaServer(config=ServerConfig(), max_retries=1)

    @pytest.mark.parametrize("kwargs", [
        {"retry": {"default_deadline_s": -1.0}},
        {"retry": {"max_retries": -1}},
        {"backend": "fiber"},
    ])
    def test_legacy_validation_errors_preserved(self, kwargs):
        """The values the flat kwargs used to reject still fail with
        ConfigurationError when a config carrying them is built for the
        server."""
        with pytest.raises(ConfigurationError):
            retry = RetryConfig(**kwargs.pop("retry", {}))
            RumbaServer(config=ServerConfig(retry=retry, **kwargs))

    def test_unknown_legacy_kwarg_rejected(self):
        with pytest.raises(TypeError, match="flush_ms"):
            RumbaServer(flush_ms=5)

    def test_app_scheme_args_override_config(self, fft_prototype):
        config = ServerConfig(app="sobel", scheme="gaussianEVP")
        server = RumbaServer(app="fft", scheme="treeErrors", config=config)
        assert server.config.app == "fft"
        assert server.config.scheme == "treeErrors"
        server.stop()
