"""Output checks: frozen digests for the default seed, conservation for any seed.

A cell's digest is the sha256 of its canonical content: every completed
record's ``as_dict()`` row in job-id order (or the streaming aggregates),
plus the cell's extra content (event counts, failed and rejected job ids,
migrations).  Floats enter as ``repr``, so a digest changes when any
simulated statistic changes in any digit.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import List

from workloads import Cell

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


def cell_digest(cell: Cell) -> str:
    payload = {
        "counts": [cell.submitted, cell.completed, cell.failed, cell.rejected],
        "records": None
        if cell.records is None
        else [record.as_dict() for record in sorted(cell.records, key=lambda r: r.job_id)],
        "extra": cell.extra,
    }
    blob = json.dumps(payload, sort_keys=True, default=repr).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def conservation_errors(cell: Cell) -> List[str]:
    """Invariants every seed must satisfy; an empty list means the cell passed."""
    errors = []
    if cell.submitted <= 0:
        errors.append("no jobs submitted")
    if cell.submitted != cell.completed + cell.failed + cell.rejected:
        errors.append(
            f"submitted {cell.submitted} != completed {cell.completed} + "
            f"failed {cell.failed} + rejected {cell.rejected}"
        )
    if cell.arrived is not None and cell.arrived != cell.submitted:
        errors.append(f"{cell.arrived} arrivals logged for {cell.submitted} jobs submitted")
    if cell.records is not None:
        for record in cell.records:
            first = record.effective_first_start
            if not record.arrival_time <= first <= record.start_time <= record.finish_time:
                errors.append(
                    f"job {record.job_id}: arrival {record.arrival_time!r}, first start "
                    f"{first!r}, start {record.start_time!r}, finish {record.finish_time!r}"
                )
                break
    else:
        # Streaming runs keep no records: check what the aggregates pin down.
        aggregates = cell.extra["aggregates"]
        counts = aggregates["event_counts"]
        if counts.get("finish", 0) != cell.completed or counts.get("start", 0) < cell.completed:
            errors.append(f"event counts {counts} disagree with {cell.completed} completions")
        for p in ("50", "95", "99"):
            wait, turnaround = aggregates[f"wait_p{p}"], aggregates[f"turnaround_p{p}"]
            if wait is None or turnaround is None or not 0.0 <= wait <= turnaround:
                errors.append(f"p{p}: wait {wait!r} and turnaround {turnaround!r}")
    return errors
