"""Unit tests for the chaos harness (config parsing, fault channels,
frame corruption detection)."""

import random
from dataclasses import fields

import numpy as np
import pytest

from repro.errors import ConfigurationError, ServingError, WorkerCrashError
from repro.serving import ChaosConfig, ChaosMonkey, InjectedFault
from repro.serving.shm import FRAME_BATCH, ShmRing
from tests.serving.frame_faults import corrupt_next_frame


class TestChaosConfig:
    def test_parse_full_spec(self):
        config = ChaosConfig.parse("kill=2,fail=0.05,seed=7")
        assert config.kill_rate == 2.0
        assert config.fail_prob == 0.05
        assert config.seed == 7
        assert config.enabled
        assert [f.name for f in fields(config)] == [
            "kill_rate", "fail_prob", "seed",
        ]

    def test_parse_accepts_field_names_and_whitespace(self):
        config = ChaosConfig.parse(" kill_rate = 1 , fail = 0.5 ")
        assert config.kill_rate == 1.0
        assert config.fail_prob == 0.5

    def test_empty_spec_enables_nothing(self):
        assert not ChaosConfig.parse("").enabled
        assert not ChaosConfig().enabled
        assert not ChaosConfig(seed=42).enabled  # seed alone is not chaos

    def test_parse_rejects_unknown_keys_and_bad_values(self):
        with pytest.raises(ConfigurationError, match="unknown chaos key"):
            ChaosConfig.parse("explode=1")
        # The control-frame faults went with the control channel: the
        # degradation level rides on each batch.
        for spec in ("drop=0.1", "delay=0.005", "corrupt=0.01"):
            with pytest.raises(ConfigurationError,
                               match="unknown chaos key"):
                ChaosConfig.parse(spec)
        with pytest.raises(ConfigurationError, match="bad chaos value"):
            ChaosConfig.parse("kill=lots")
        with pytest.raises(ConfigurationError, match="key=value"):
            ChaosConfig.parse("kill")

    def test_validation_bounds(self):
        with pytest.raises(ConfigurationError):
            ChaosConfig(fail_prob=1.5)
        with pytest.raises(ConfigurationError):
            ChaosConfig(kill_rate=-1)


class TestInjectedFault:
    def test_is_retryable_worker_crash(self):
        # The server's retry classification keys on WorkerCrashError:
        # injected faults must ride the same path as real crashes.
        assert issubclass(InjectedFault, WorkerCrashError)
        assert issubclass(InjectedFault, ServingError)

    def test_maybe_fail_counts_and_raises(self):
        monkey = ChaosMonkey(ChaosConfig(fail_prob=1.0, seed=0))
        with pytest.raises(InjectedFault, match="dispatch"):
            monkey.maybe_fail()
        with pytest.raises(InjectedFault, match="w3"):
            monkey.maybe_fail(where="w3")
        assert monkey.injected_faults == 2

    def test_maybe_fail_never_fires_at_zero(self):
        monkey = ChaosMonkey(ChaosConfig(fail_prob=0.0, seed=0))
        for _ in range(100):
            monkey.maybe_fail()
        assert monkey.injected_faults == 0


class TestChaosMonkey:
    def test_quiet_monkey_counts_nothing(self):
        monkey = ChaosMonkey(ChaosConfig(seed=0))
        for _ in range(100):
            monkey.maybe_fail()
        assert not monkey.kill_one_worker()
        assert monkey.summary() == {"kills": 0, "injected_faults": 0}

    def test_kill_without_pool_is_noop(self):
        monkey = ChaosMonkey(ChaosConfig(kill_rate=5.0, seed=0))
        assert not monkey.kill_one_worker()
        assert monkey.kills == 0


class TestFrameCorruption:
    def test_corrupted_frame_is_detected_not_decoded(self):
        # The transport must *detect* a torn frame (bad magic) rather
        # than hand garbage rows to the worker.
        ring = ShmRing(capacity_bytes=1 << 12)
        try:
            assert ring.try_write(FRAME_BATCH, seq=1, payload=np.ones((2, 3)))
            assert corrupt_next_frame(ring, random.Random(0))
            with pytest.raises(ServingError, match="bad frame magic"):
                ring.try_read()
        finally:
            ring.close()
            ring.unlink()

    def test_empty_ring_cannot_be_corrupted(self):
        ring = ShmRing(capacity_bytes=1 << 12)
        try:
            assert not corrupt_next_frame(ring)
        finally:
            ring.close()
            ring.unlink()
