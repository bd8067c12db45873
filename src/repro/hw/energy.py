"""Power, energy and area models for the three deployment targets.

The numbers are calibrated on the figures reported in the paper:

* MAUPITI: 130 nm CMOS, 20 MHz, digital block ~0.9 mW in FF conditions,
  sensor array 0.62 mW, SDOTP extension adds <7 % core area and ~2.2 %
  post-synthesis power compared to the vanilla IBEX.
* Vanilla IBEX: same chip without the SDOTP unit (reference for the ISA
  extension gains).
* STM32L4R5 + X-CUBE-AI: 120 MHz Cortex-M4-class MCU; the paper measures a
  13.2x higher power than MAUPITI and up to 9x lower latency.

Energy per inference is simply ``cycles / frequency * power``; the sensor
energy per frame can be added on top for whole-node accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cycles import CycleModel, DEFAULT_CYCLE_MODEL


@dataclass(frozen=True)
class PlatformSpec:
    """Static description of one deployment platform.

    ``cycle_model`` is the per-instruction timing configuration every
    simulator (reference interpreter and JIT alike)
    must use for this platform; the IBEX and MAUPITI specs share the single
    :data:`~repro.hw.cycles.DEFAULT_CYCLE_MODEL` instance so timing cannot
    drift between platforms or engine backends.
    """

    name: str
    frequency_hz: float
    active_power_w: float
    supports_sdotp: bool
    supports_int4: bool
    relative_core_area: float
    code_overhead_bytes: int
    description: str = ""
    cycle_model: CycleModel = field(default=DEFAULT_CYCLE_MODEL)

    def cycles_to_seconds(self, cycles: int) -> float:
        return cycles / self.frequency_hz

    def energy_per_inference_j(self, cycles: int) -> float:
        """Digital-block energy for one inference taking ``cycles`` cycles."""
        return self.cycles_to_seconds(cycles) * self.active_power_w

    def energy_per_inference_uj(self, cycles: int) -> float:
        return self.energy_per_inference_j(cycles) * 1e6


# Vanilla IBEX inside the MAUPITI digital block, custom instructions unused.
IBEX_SPEC = PlatformSpec(
    name="IBEX",
    frequency_hz=20e6,
    active_power_w=0.8806e-3,
    supports_sdotp=False,
    supports_int4=True,
    relative_core_area=1.0,
    code_overhead_bytes=256,
    description="Unmodified IBEX RV32IMC core, 20 MHz, scalar kernels",
)

# The customized core: +2.2% post-synthesis power, <7% area, SDOTP enabled.
MAUPITI_SPEC = PlatformSpec(
    name="MAUPITI",
    frequency_hz=20e6,
    active_power_w=0.9e-3,
    supports_sdotp=True,
    supports_int4=True,
    relative_core_area=1.07,
    code_overhead_bytes=256,
    description="IBEX + SDOTP ISA extension, 20 MHz, SIMD kernels",
)

# Off-the-shelf MCU with the proprietary X-CUBE-AI runtime (8-bit only).
STM32_SPEC = PlatformSpec(
    name="STM32",
    frequency_hz=120e6,
    active_power_w=11.88e-3,
    supports_sdotp=False,
    supports_int4=False,
    relative_core_area=4.0,
    code_overhead_bytes=20 * 1024,
    description="STM32L4R5 @ 120 MHz with X-CUBE-AI, INT8 only",
)

SENSOR_POWER_W = 0.62e-3
SENSOR_FRAME_RATE_HZ = 10.0


def sensor_energy_per_frame_j() -> float:
    """Energy of the TMOS array over one frame period (0.62 mW at 10 FPS)."""
    return SENSOR_POWER_W / SENSOR_FRAME_RATE_HZ


def system_energy_per_frame_j(inference_cycles: int, spec: PlatformSpec) -> float:
    """Whole smart-sensor energy per frame: acquisition plus inference.

    Only meaningful for the on-chip platforms (IBEX / MAUPITI); the STM32
    comparison in the paper considers the MCU alone.
    """
    return sensor_energy_per_frame_j() + spec.energy_per_inference_j(inference_cycles)


def area_overhead_fraction() -> float:
    """Core area overhead of the SDOTP extension w.r.t. the vanilla IBEX."""
    return MAUPITI_SPEC.relative_core_area / IBEX_SPEC.relative_core_area - 1.0


def power_overhead_fraction() -> float:
    """Post-synthesis power overhead of MAUPITI w.r.t. the vanilla IBEX."""
    return MAUPITI_SPEC.active_power_w / IBEX_SPEC.active_power_w - 1.0
