"""Unit tests for the Table 2 microarchitecture parameters."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware.microarch import TABLE2_X86_64, MicroArchParams


class TestTable2:
    def test_paper_values(self):
        p = TABLE2_X86_64
        assert p.fetch_width == 4
        assert p.issue_width == 6
        assert p.int_alus == 2 and p.fpus == 2
        assert p.issue_queue_entries == 32
        assert p.rob_entries == 96
        assert p.int_physical_registers == 256
        assert p.fp_physical_registers == 256
        assert p.btb_entries == 2048
        assert p.ras_entries == 16
        assert p.load_queue_entries == 48
        assert p.store_queue_entries == 48
        assert p.l1_icache_bytes == 32 * 1024
        assert p.l1_dcache_bytes == 32 * 1024
        assert p.l1_hit_latency_cycles == 3
        assert p.l2_hit_latency_cycles == 12
        assert p.l1_associativity == 8
        assert p.itlb_entries == 128
        assert p.dtlb_entries == 256
        assert p.l2_bytes == 2 * 1024 * 1024
        assert p.branch_predictor == "tournament"

    def test_immutable(self):
        with pytest.raises(AttributeError):
            TABLE2_X86_64.rob_entries = 128

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            MicroArchParams(rob_entries=0)
        with pytest.raises(ConfigurationError):
            MicroArchParams(clock_ghz=-1.0)

    def test_custom_config(self):
        p = MicroArchParams(issue_width=4, l2_bytes=1024 * 1024)
        assert p.issue_width == 4
        assert p.l2_bytes == 1024 * 1024
