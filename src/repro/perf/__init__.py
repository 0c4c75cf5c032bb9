"""Analytical performance substrate: device model, kernel costs, Gist
overhead, swapping baselines (naive / vDNN) and utilisation modelling."""

from repro.perf.cost import CostModel, StepTime
from repro.perf.device import DeviceSpec, TITAN_X_MAXWELL
from repro.perf.energy import (
    DRAM_J_PER_BYTE,
    EnergyReport,
    PCIE_J_PER_BYTE,
    measure_transfer_energy,
)
from repro.perf.overhead import (
    OverheadReport,
    encoding_time_delta,
    measure_overhead,
)
from repro.perf.swap import SwapReport, simulate_cdma, simulate_swapping
from repro.perf.utilization import (
    SpeedupReport,
    deepest_trainable,
    larger_minibatch_speedup,
    max_minibatch,
    throughput_images_per_s,
    training_footprint_bytes,
)

__all__ = [
    "CostModel",
    "DRAM_J_PER_BYTE",
    "EnergyReport",
    "PCIE_J_PER_BYTE",
    "DeviceSpec",
    "OverheadReport",
    "SpeedupReport",
    "StepTime",
    "SwapReport",
    "TITAN_X_MAXWELL",
    "deepest_trainable",
    "encoding_time_delta",
    "larger_minibatch_speedup",
    "max_minibatch",
    "measure_overhead",
    "measure_transfer_energy",
    "simulate_cdma",
    "simulate_swapping",
    "throughput_images_per_s",
    "training_footprint_bytes",
]
