"""Unit and property tests for the pipelined overlap model (Fig. 8 / 18)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import (
    max_keepup_fix_fraction,
    simulate_pipeline,
)
from repro.errors import ConfigurationError


def _simulate(bits, *args, **kwargs):
    """``simulate_pipeline`` over a recovery-bits vector."""
    bits = np.asarray(bits, dtype=bool)
    return simulate_pipeline(np.flatnonzero(bits), bits.size, *args, **kwargs)


class TestSimulatePipeline:
    def test_no_recovery_pure_accelerator(self):
        result = _simulate(np.zeros(10, dtype=bool), 5.0, 20.0)
        assert result.makespan == pytest.approx(50.0)
        assert result.cpu_busy == 0.0
        assert result.cpu_kept_up
        assert result.n_recovered == 0

    def test_fig8_example_overlap(self):
        """Fig. 8: checks fire for iterations 0, 2, 5 and 6; with a 2x-fast
        accelerator the CPU keeps up."""
        bits = np.array([1, 0, 1, 0, 0, 1, 1, 0], dtype=bool)
        result = _simulate(bits, accel_cycles_per_iteration=1.0,
                           cpu_cycles_per_iteration=2.0)
        assert result.n_recovered == 4
        # Iterations 5 and 6 are adjacent (not uniformly spread), so the
        # tail drains just after the accelerator -- still "keeping up".
        assert result.cpu_kept_up
        assert result.makespan <= result.accel_finish + 2 * 2.0

    def test_cpu_falls_behind_when_overloaded(self):
        bits = np.ones(10, dtype=bool)  # fix everything
        result = _simulate(bits, 1.0, 5.0)
        assert not result.cpu_kept_up
        assert result.makespan > result.accel_finish
        assert result.slowdown_vs_accelerator > 1.0

    def test_half_fixes_at_2x_keeps_up(self):
        """Sec. 3.3: at a 2x accelerator gain the CPU sustains 50% fixes."""
        bits = np.zeros(100, dtype=bool)
        bits[::2] = True
        result = _simulate(bits, 1.0, 2.0)
        assert result.cpu_kept_up

    def test_recovery_bits_served_fifo(self):
        bits = np.array([True, True, False, True], dtype=bool)
        result = _simulate(bits, 1.0, 10.0)
        served = [seg[2] for seg in result.cpu_segments]
        assert served == [0, 1, 3]
        starts = [seg[0] for seg in result.cpu_segments]
        assert starts == sorted(starts)

    def test_cpu_cannot_start_before_verdict(self):
        bits = np.array([False, False, True], dtype=bool)
        result = _simulate(bits, 4.0, 1.0, detector_placement=2)
        start = result.cpu_segments[0][0]
        assert start >= 3 * 4.0  # verdict arrives when accel finishes iter 2

    def test_placement1_verdicts_early_but_slower_stream(self):
        bits = np.array([True, False], dtype=bool)
        par = _simulate(bits, 4.0, 1.0, detector_placement=2,
                        checker_cycles=1.0)
        pre = _simulate(bits, 4.0, 1.0, detector_placement=1,
                        checker_cycles=1.0)
        # Config 1 serializes the checker: accelerator stream is longer.
        assert pre.accel_finish > par.accel_finish
        # But its first verdict (and recovery start) comes earlier.
        assert pre.cpu_segments[0][0] < par.cpu_segments[0][0]

    def test_empty_invocation(self):
        result = _simulate(np.zeros(0, dtype=bool), 1.0, 1.0)
        assert result.makespan == 0.0

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            _simulate(np.zeros(3, dtype=bool), 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            _simulate(np.zeros(3, dtype=bool), 1.0, -1.0)
        with pytest.raises(ConfigurationError):
            _simulate(np.zeros(3, dtype=bool), 1.0, 1.0,
                      detector_placement=0)

    def test_activity_trace_covers_busy_time(self):
        bits = np.array([True, False, False, True], dtype=bool)
        result = _simulate(bits, 2.0, 3.0)
        trace = result.activity_trace(resolution=1)
        # Total busy samples roughly match cpu_busy cycles.
        assert trace.sum() >= int(result.cpu_busy) - 2
        assert set(np.unique(trace)) <= {0, 1}

    def test_activity_trace_resolution_validated(self):
        result = _simulate(np.zeros(2, dtype=bool), 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            result.activity_trace(resolution=0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.booleans(), min_size=1, max_size=60),
        st.floats(0.5, 10.0),
        st.floats(0.5, 50.0),
    )
    def test_invariants_property(self, bits, accel, cpu):
        bits = np.asarray(bits)
        result = _simulate(bits, accel, cpu)
        assert result.makespan >= result.accel_finish - 1e-9
        assert result.cpu_busy == pytest.approx(bits.sum() * cpu)
        assert result.n_recovered == int(bits.sum())
        # Segments never overlap (single CPU).
        ends = [0.0] + [seg[1] for seg in result.cpu_segments[:-1]]
        for (start, _, _), prev_end in zip(result.cpu_segments, ends):
            assert start >= prev_end - 1e-9


def _reference_segments(bits, accel, cpu, placement, checker):
    """The model as it was written before arrivals were computed for
    flagged iterations only: every iteration's verdict time, then indexed."""
    n = bits.shape[0]
    if placement == 1:
        effective = accel + checker
        arrivals = np.arange(n) * effective + checker
    else:
        effective = accel
        arrivals = (np.arange(n) + 1) * effective
    flagged = np.flatnonzero(bits)
    rank = np.arange(flagged.size, dtype=float)
    ends = (np.maximum.accumulate(arrivals[flagged] - rank * cpu)
            + (rank + 1.0) * cpu)
    finish = n * effective
    makespan = max(finish, float(ends[-1])) if flagged.size else finish
    return makespan, flagged.size * cpu, ends - cpu, ends, flagged


class TestMatchesAllIterationsFormula:
    """Arrival times computed for the flagged iterations alone are the
    same floats as the all-iterations array indexed afterwards."""

    @pytest.mark.parametrize("placement", [1, 2])
    @pytest.mark.parametrize("k", [0, 1, 37, 256])
    def test_bit_identical(self, placement, k):
        n = 256
        rng = np.random.default_rng(100 * placement + k)
        bits = np.zeros(n, dtype=bool)
        bits[rng.choice(n, size=k, replace=False)] = True
        accel, cpu, checker = 0.7312, 3.119, 0.0413
        result = _simulate(bits, accel, cpu, placement, checker)
        makespan, busy, starts, ends, ids = _reference_segments(
            bits, accel, cpu, placement, checker
        )
        assert result.makespan == makespan
        assert result.cpu_busy == busy
        assert result.n_recovered == k
        assert [s[0] for s in result.cpu_segments] == starts.tolist()
        assert [s[1] for s in result.cpu_segments] == ends.tolist()
        assert [s[2] for s in result.cpu_segments] == ids.tolist()


class TestKeepupFraction:
    def test_matches_inverse_speedup(self):
        assert max_keepup_fix_fraction(1.0, 2.0) == pytest.approx(0.5)
        assert max_keepup_fix_fraction(1.0, 6.67) == pytest.approx(1 / 6.67)

    def test_capped_at_one(self):
        assert max_keepup_fix_fraction(10.0, 1.0) == 1.0

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            max_keepup_fix_fraction(0.0, 1.0)

    def test_keepup_fraction_is_tight(self):
        """Fixing exactly the keep-up fraction (uniformly) never extends
        the makespan; fixing a bit more does."""
        accel, cpu = 1.0, 4.0
        n = 400
        frac = max_keepup_fix_fraction(accel, cpu)
        stride = int(1 / frac)
        bits = np.zeros(n, dtype=bool)
        bits[::stride] = True
        assert _simulate(bits, accel, cpu).slowdown_vs_accelerator < 1.02
        bits_over = np.zeros(n, dtype=bool)
        bits_over[:: max(stride - 1, 1)] = True
        assert _simulate(
            bits_over, accel, cpu
        ).slowdown_vs_accelerator > 1.02
