"""Memory subsystem of the MAUPITI digital block.

The chip integrates 16 KB of instruction RAM, 16 KB of data RAM and an 80 B
one-time-programmable memory (Sec. III-B1).  The simulator exposes them as a
single byte-addressable address space with region bounds checking, so a model
that does not fit the on-chip memories fails loudly at load time instead of
silently overflowing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .sdotp import to_signed, to_unsigned

IMEM_BASE = 0x0000_0000
IMEM_SIZE = 16 * 1024
DMEM_BASE = 0x0010_0000
DMEM_SIZE = 16 * 1024
OTP_BASE = 0x0020_0000
OTP_SIZE = 80


class MemoryError_(Exception):
    """Raised on out-of-bounds or misaligned accesses."""


@dataclass
class MemoryRegion:
    name: str
    base: int
    size: int
    writable: bool = True

    def contains(self, address: int, width: int = 1) -> bool:
        return self.base <= address and address + width <= self.base + self.size


class Memory:
    """Byte-addressable memory with named regions.

    Parameters
    ----------
    imem_size / dmem_size / otp_size:
        Region sizes in bytes; defaults follow the taped-out MAUPITI chip.
    """

    def __init__(
        self,
        imem_size: int = IMEM_SIZE,
        dmem_size: int = DMEM_SIZE,
        otp_size: int = OTP_SIZE,
    ):
        self.regions = {
            "imem": MemoryRegion("imem", IMEM_BASE, imem_size),
            "dmem": MemoryRegion("dmem", DMEM_BASE, dmem_size),
            "otp": MemoryRegion("otp", OTP_BASE, otp_size, writable=False),
        }
        self._data: Dict[str, bytearray] = {
            name: bytearray(region.size) for name, region in self.regions.items()
        }

    # ------------------------------------------------------------------ #
    def _locate(self, address: int, width: int) -> tuple[MemoryRegion, int]:
        for region in self.regions.values():
            if region.contains(address, width):
                return region, address - region.base
        raise MemoryError_(
            f"access of {width} byte(s) at 0x{address:08x} hits no memory region"
        )

    def load_bytes(self, address: int, count: int) -> bytes:
        region, offset = self._locate(address, count)
        return bytes(self._data[region.name][offset : offset + count])

    def store_bytes(self, address: int, payload: bytes, force: bool = False) -> None:
        region, offset = self._locate(address, len(payload))
        if not region.writable and not force:
            raise MemoryError_(f"region {region.name} is read-only")
        self._data[region.name][offset : offset + len(payload)] = payload

    # ------------------------------------------------------------------ #
    # Word / half / byte accessors (little endian, like RISC-V)
    # ------------------------------------------------------------------ #
    def load_word(self, address: int, signed: bool = True) -> int:
        raw = int.from_bytes(self.load_bytes(address, 4), "little")
        return to_signed(raw, 32) if signed else raw

    def load_half(self, address: int, signed: bool = True) -> int:
        raw = int.from_bytes(self.load_bytes(address, 2), "little")
        return to_signed(raw, 16) if signed else raw

    def load_byte(self, address: int, signed: bool = True) -> int:
        raw = self.load_bytes(address, 1)[0]
        return to_signed(raw, 8) if signed else raw

    def store_word(self, address: int, value: int) -> None:
        self.store_bytes(address, to_unsigned(value, 32).to_bytes(4, "little"))

    def store_half(self, address: int, value: int) -> None:
        self.store_bytes(address, to_unsigned(value, 16).to_bytes(2, "little"))

    def store_byte(self, address: int, value: int) -> None:
        self.store_bytes(address, to_unsigned(value, 8).to_bytes(1, "little"))

    # ------------------------------------------------------------------ #
    def clone(self, dmem_buffer=None) -> "Memory":
        """Deep copy sharing region descriptors but not the byte contents.

        Used by the batched simulator to give each frame its own memory
        image; clones stay valid targets for the raw dmem views the JIT
        binds because their buffers are never replaced, only mutated.

        ``dmem_buffer`` may supply an external writable buffer (a
        memoryview over a row of a shared numpy matrix) to back the
        clone's dmem — the batched executor uses this so that one ``(F,
        dmem_size)`` matrix holds every frame's data memory and kernel
        gathers become zero-copy column slices.  The buffer must be
        exactly ``dmem_size`` bytes; the current contents are copied in.
        """
        out = Memory.__new__(Memory)
        out.regions = dict(self.regions)
        out._data = {
            name: bytearray(data)
            for name, data in self._data.items()
            if dmem_buffer is None or name != "dmem"
        }
        if dmem_buffer is not None:
            dmem_buffer[:] = self._data["dmem"]
            out._data["dmem"] = dmem_buffer
        return out

    def copy_from(self, other: "Memory") -> None:
        """Adopt another memory's byte contents in place (regions must match)."""
        for name, data in other._data.items():
            self._data[name][:] = data

    # ------------------------------------------------------------------ #
    def region_usage(self, name: str) -> int:
        """Highest initialized byte offset + 1 in a region (rough fill level)."""
        data = self._data[name]
        for i in range(len(data) - 1, -1, -1):
            if data[i]:
                return i + 1
        return 0
