"""Re-freeze ``digests.json``: the output digests of every workload on the default seed.

    python3 perfbench/freeze.py

Run it only when a change is meant to alter simulated results, and say so
in the change.  ``region-sharded`` is frozen on the serial backend, so the
benchmark's process-pool runs must reproduce the serial result.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from checks import DIGESTS_PATH, cell_digest  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, RegionSharded  # noqa: E402


def main() -> int:
    digests = {}
    for name, cls in WORKLOADS.items():
        workload = RegionSharded(backend="serial") if cls is RegionSharded else cls()
        outcome = workload.run(workload.setup(DEFAULT_SEED))
        digests[name] = {cell.name: cell_digest(cell) for cell in outcome.cells}
        print(name, digests[name])
    DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
