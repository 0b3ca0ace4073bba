"""Write bench/bounds_reference.json, the norm-table rows of the bounds-norms reports.

Run from the root of a checkout whose library gives the reference values:

    python3 bench/make_reference.py

The bounds-norms gate checks the set of rows of each table against this file,
exact rows against numpy, and ALS rows against the values here: an ALS row
must reach its reference value within jobs.ALS_TOLERANCE.  ALS values agree
to about 1e-10 relative across restart seeds on these inputs, so the file is
made with seed 0 only.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import jobs  # noqa: E402


def main() -> int:
    out = {}
    for job in jobs.jobs_for("bounds-norms", 0):
        report, _ = job.make()
        out[job.label] = {table: {f"{row['I']}/{row['partition']}": row["value"]
                                  for row in report[table]}
                          for table in ("norm_rows", "gram_rows")}
    jobs.REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
