"""Regenerate the reference report the correctness gate compares against.

    python3 perfbench/make_reference.py

Runs ``python -m hqmaps.cli verify --suite all`` on the source tree of this
checkout and stores, per row, the key (inequality_id, mapping_id, k, p, r)
followed by verdict, lhs, rhs, tol and the membership ``detail.actual`` in
perfbench/reference/verify_all.json.gz. The stored file was made at the
commit that introduced the benchmark; regenerate it only when the set of
rows changes on purpose.
"""

from __future__ import annotations

import gzip
import json
import os
import subprocess
import sys
import tempfile

from gate import REFERENCE, row_key
from run import ROOT, WORK, child_env


def main() -> int:
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as out:
        cmd = [sys.executable, "-m", "hqmaps.cli", "verify", "--suite", "all", "--out", out]
        subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True)
        with open(os.path.join(out, "verify_report.json")) as fh:
            rows = json.load(fh)["rows"]
    reduced = [
        list(row_key(row))
        + [row["verdict"], row["lhs"], row["rhs"], row["tol"], row["detail"].get("actual")]
        for row in rows
    ]
    REFERENCE.parent.mkdir(exist_ok=True)
    with gzip.GzipFile(REFERENCE, "wb", mtime=0) as fh:
        fh.write(json.dumps({"rows": reduced}, separators=(",", ":")).encode())
    print(f"{len(reduced)} rows -> {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
