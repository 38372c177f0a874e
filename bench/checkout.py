"""Locate the norsim sources of the checkout this benchmark sits in.

The benchmark always measures the program next to it, never an installed
copy: ``require_src`` puts ``<checkout>/src`` first on ``sys.path`` and
refuses to run when the sources are missing.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"  # span files and worker output, never committed


def require_src() -> None:
    """Make ``import norsim`` resolve to this checkout, or exit nonzero."""
    package = SRC / "norsim"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no norsim sources at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import norsim

    if Path(norsim.__file__).resolve().parent != package:
        raise SystemExit(f"bench: norsim resolved to {norsim.__file__}, not {package}")


def git_commit() -> str:
    """Commit of the checkout read from .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
