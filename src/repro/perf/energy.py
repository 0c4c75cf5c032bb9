"""Data-movement energy model (paper Section VI's qualitative argument).

The paper dismisses swapping partly on energy grounds: vDNN keeps the
PCIe link and both DRAM buses busy with every stashed map, while Gist's
codecs make one extra on-device pass.  This module makes that argument
quantitative with standard per-byte transfer energies:

* GDDR5 access ~ 20 pJ/bit  (~2.5e-9 J per byte end-to-end read+write)
* PCIe 3.0     ~ 40 pJ/bit  (~5.0e-9 J per byte, both PHYs)

Absolute joules inherit the usual caveats of constant-energy models; the
*ratio* between strategies is the reproducible quantity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.sparsity import SparsityModel
from repro.core.policy import GistConfig
from repro.core.schedule_builder import build_gist_plan
from repro.graph.graph import Graph
from repro.graph.liveness import ROLE_FEATURE_MAP
from repro.graph.schedule import schedule_of
from repro.memory.planner import CLASS_STASHED, build_memory_plan

#: Joules per byte moved through GPU DRAM (read or write).
DRAM_J_PER_BYTE = 2.5e-9
#: Joules per byte across the PCIe link (including both controllers).
PCIE_J_PER_BYTE = 5.0e-9


@dataclass(frozen=True)
class EnergyReport:
    """Extra data-movement energy per training step, by strategy."""

    model: str
    gist_j: float
    vdnn_j: float

    @property
    def ratio(self) -> float:
        """How many times more energy swapping costs than Gist codecs."""
        return self.vdnn_j / self.gist_j if self.gist_j else float("inf")


def measure_transfer_energy(
    graph: Graph,
    config: Optional[GistConfig] = None,
    sparsity_model: Optional[SparsityModel] = None,
) -> EnergyReport:
    """Energy of Gist's codec passes vs vDNN's PCIe round trips.

    Gist: every encoded map costs one DRAM read of the FP32 data plus a
    write of the encoded form at encode time, and the reverse at decode.
    vDNN: every stashed map crosses PCIe twice (offload + prefetch) and
    touches DRAM on each side of each transfer.
    """
    config = config or GistConfig()
    plan = build_gist_plan(graph, config, sparsity_model)
    gist_j = 0.0
    for decision in plan.decisions.values():
        moved = decision.fp32_bytes + decision.resident_bytes
        passes = 2.0 if decision.decoded_bytes else 1.0
        gist_j += passes * moved * DRAM_J_PER_BYTE

    schedule = schedule_of(graph)
    base_plan = build_memory_plan(graph, schedule)
    stashed_bytes = sum(
        t.size_bytes
        for t in base_plan.tensors
        if t.role == ROLE_FEATURE_MAP and base_plan.classify(t) == CLASS_STASHED
    )
    vdnn_j = 2.0 * stashed_bytes * (PCIE_J_PER_BYTE + 2.0 * DRAM_J_PER_BYTE)
    return EnergyReport(graph.name, gist_j, vdnn_j)
