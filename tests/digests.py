"""Canonical result digests for the tests that pin simulated results.

One helper for every pinned-result suite: the digest is the one the
repository benchmark checks (``perfbench/digest.py``), so a test pin and
a benchmark pin of the same result agree by construction.
"""

import importlib.util
from pathlib import Path

_DIGEST = Path(__file__).resolve().parents[1] / "perfbench" / "digest.py"
_spec = importlib.util.spec_from_file_location("_perfbench_digest", _DIGEST)
_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_module)

canonical = _module.canonical
digest = _module.digest
