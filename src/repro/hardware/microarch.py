"""Microarchitectural parameters of the host CPU (paper Table 2).

The paper models an out-of-order X86-64 core in GEM5 and feeds activity
counts to McPAT.  We capture the same parameters in
:class:`MicroArchParams` and use them to parameterize the analytical energy
and timing models in :mod:`repro.hardware.energy`.

``TABLE2_X86_64`` is the exact configuration from Table 2 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.errors import ConfigurationError

__all__ = ["MicroArchParams", "TABLE2_X86_64"]


@dataclass(frozen=True)
class MicroArchParams:
    """Out-of-order core configuration (Table 2 of the paper).

    Sizes are entries unless a unit is in the name; cache sizes are bytes.
    """

    fetch_width: int = 4
    issue_width: int = 6
    int_alus: int = 2
    fpus: int = 2
    load_store_fus: int = 1
    issue_queue_entries: int = 32
    rob_entries: int = 96
    int_physical_registers: int = 256
    fp_physical_registers: int = 256
    btb_entries: int = 2048
    ras_entries: int = 16
    load_queue_entries: int = 48
    store_queue_entries: int = 48
    l1_icache_bytes: int = 32 * 1024
    l1_dcache_bytes: int = 32 * 1024
    l1_hit_latency_cycles: int = 3
    l2_hit_latency_cycles: int = 12
    l1_associativity: int = 8
    l2_associativity: int = 8
    itlb_entries: int = 128
    dtlb_entries: int = 256
    l2_bytes: int = 2 * 1024 * 1024
    branch_predictor: str = "tournament"
    clock_ghz: float = 3.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (int, float)) and value <= 0:
                raise ConfigurationError(
                    f"microarchitectural parameter {f.name} must be positive, "
                    f"got {value!r}"
                )


#: The exact configuration evaluated in the paper (Table 2).
TABLE2_X86_64 = MicroArchParams()
