"""Entry point: ``python -m benchmarks.ledger`` or, as ``BENCHMARK.json``
runs it, ``python3 benchmarks/ledger/__main__.py``."""

import sys
from pathlib import Path

if __package__ in (None, ""):
    # Run by path: the checkout root is not on sys.path yet.
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.ledger.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
