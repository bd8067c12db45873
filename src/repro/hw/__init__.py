"""The MAUPITI smart-sensor hardware platform (Sec. III-B)."""

from .isa import ABI_NAMES, Instruction, decode, encode, reg
from .sdotp import pack_lanes, sdotp4, sdotp8, to_signed, to_unsigned, unpack_lanes
from .memory import DMEM_BASE, DMEM_SIZE, IMEM_BASE, IMEM_SIZE, Memory, MemoryError_
from .cycles import CycleModel, DEFAULT_CYCLE_MODEL
from .core import ExecutionStats, IbexCore, SIM_MODES, SimulationError
from .sensor import TmosArray, TmosArrayConfig
from .energy import (
    IBEX_SPEC,
    MAUPITI_SPEC,
    STM32_SPEC,
    PlatformSpec,
    area_overhead_fraction,
    power_overhead_fraction,
    sensor_energy_per_frame_j,
    system_energy_per_frame_j,
)
from .platform import (
    PlatformLimits,
    SmartSensorPlatform,
    ibex_platform,
    maupiti_platform,
)

__all__ = [
    "Instruction",
    "encode",
    "decode",
    "reg",
    "ABI_NAMES",
    "sdotp8",
    "sdotp4",
    "pack_lanes",
    "unpack_lanes",
    "to_signed",
    "to_unsigned",
    "Memory",
    "MemoryError_",
    "IMEM_BASE",
    "IMEM_SIZE",
    "DMEM_BASE",
    "DMEM_SIZE",
    "IbexCore",
    "CycleModel",
    "DEFAULT_CYCLE_MODEL",
    "ExecutionStats",
    "SimulationError",
    "SIM_MODES",
    "TmosArray",
    "TmosArrayConfig",
    "PlatformSpec",
    "IBEX_SPEC",
    "MAUPITI_SPEC",
    "STM32_SPEC",
    "sensor_energy_per_frame_j",
    "system_energy_per_frame_j",
    "area_overhead_fraction",
    "power_overhead_fraction",
    "SmartSensorPlatform",
    "PlatformLimits",
    "maupiti_platform",
    "ibex_platform",
]
