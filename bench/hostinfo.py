"""The host header every ledger carries beside its numbers."""

from __future__ import annotations

import os
import platform
from importlib import metadata
from typing import Any, Dict


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity support
        return os.cpu_count() or 1


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def host_header() -> Dict[str, Any]:
    return {
        "cores": usable_cores(),
        "kernel": platform.release(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "networkx": _version("networkx"),
    }
