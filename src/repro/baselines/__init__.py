"""Compared storage systems packaged as uniform setups."""

from .setups import (
    SYSTEM_SETUPS,
    GPFSSetup,
    HVACSetup,
    LPCCLikeSetup,
    StorageSetup,
    SystemHandle,
    XFSSetup,
    build_allocation,
    build_hvac,
)

__all__ = [
    "GPFSSetup",
    "HVACSetup",
    "LPCCLikeSetup",
    "StorageSetup",
    "SystemHandle",
    "SYSTEM_SETUPS",
    "XFSSetup",
    "build_allocation",
    "build_hvac",
]
