"""Locate the weakhopf sources of the checkout this benchmark sits in.

The benchmark measures the library from source: the in-process runs import
``src/weakhopf`` of this checkout, and every ``whw`` job is the same entry
point (``weakhopf.cli:main``) started as ``python -m weakhopf.cli`` with
``PYTHONPATH`` pointing at the same directory, so an installed copy of the
package can never be measured by mistake.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def use_sources() -> None:
    """Put this checkout's ``src/`` first on ``sys.path``.

    Raises FileNotFoundError when the checkout holds no weakhopf sources.
    """
    if not (SRC / "weakhopf" / "__init__.py").is_file():
        raise FileNotFoundError(f"no weakhopf sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def whw_env() -> dict:
    """Environment for ``whw`` subprocesses: this checkout's sources only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env
