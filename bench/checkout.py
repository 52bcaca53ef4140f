"""Locate the checkout this benchmark belongs to and import ``macc`` from its sources."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def has_sources() -> bool:
    return (SRC / "macc" / "__init__.py").is_file()


def import_macc():
    """Import ``macc`` from ``src/`` of this checkout, never from an installed copy."""
    if not has_sources():
        raise SystemExit(f"error: no macc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import macc

    if Path(macc.__file__).resolve().parent != SRC / "macc":
        raise SystemExit(f"error: imported macc from {macc.__file__}, not from {SRC}")
    return macc
