"""Put the program from this checkout's ``src/`` on the import path.

The benchmark measures the sources next to it, never an installed copy:
``import_program`` fails when ``src/kolmo_rfn`` is missing here.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program():
    """Import ``kolmo_rfn`` from ``SRC``; raise ImportError if it is not there."""

    if not (SRC / "kolmo_rfn" / "__init__.py").is_file():
        raise ImportError(f"no kolmo_rfn sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import kolmo_rfn

    if Path(kolmo_rfn.__file__).resolve().parent != SRC / "kolmo_rfn":
        raise ImportError(f"kolmo_rfn was imported from {kolmo_rfn.__file__}, not {SRC}")
    return kolmo_rfn
