"""Flash device simulator substrate.

This subpackage models a raw NAND flash device: blocks of sequentially
programmable pages with spare areas, erase-before-write semantics, bounded
block lifetime, and per-operation IO accounting. It is the substrate on which
all FTLs in this repository (GeckoFTL and the competitor FTLs) run.
"""

from .address import LogicalAddress, PhysicalAddress
from .block import FlashBlock
from .config import (
    BLOCK_KEY_BYTES,
    MAPPING_ENTRY_BYTES,
    DeviceConfig,
    LatencyConfig,
    paper_configuration,
    simulation_configuration,
)
from .device import (
    FlashDevice,
    FlashSnapshot,
    TappedFlashDevice,
)
from .errors import (
    BlockWornOutError,
    ConfigurationError,
    DeviceFullError,
    EraseActiveBlockError,
    FlashError,
    InvalidAddressError,
    NonSequentialWriteError,
    ReadFreePageError,
    SpareAreaImmutableError,
    WriteToNonFreePageError,
)
from .page import FlashPage, PageState, SpareArea
from .stats import IOKind, IOPurpose, IOStats

__all__ = [
    "BLOCK_KEY_BYTES",
    "MAPPING_ENTRY_BYTES",
    "BlockWornOutError",
    "ConfigurationError",
    "DeviceConfig",
    "DeviceFullError",
    "EraseActiveBlockError",
    "FlashBlock",
    "FlashDevice",
    "FlashSnapshot",
    "FlashError",
    "FlashPage",
    "InvalidAddressError",
    "IOKind",
    "IOPurpose",
    "IOStats",
    "LatencyConfig",
    "LogicalAddress",
    "NonSequentialWriteError",
    "PageState",
    "PhysicalAddress",
    "ReadFreePageError",
    "SpareAreaImmutableError",
    "SpareArea",
    "TappedFlashDevice",
    "WriteToNonFreePageError",
    "paper_configuration",
    "simulation_configuration",
]
