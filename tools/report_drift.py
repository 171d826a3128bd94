"""How far one verification report's rows moved from another's, per inequality.

    python3 tools/report_drift.py OLD NEW

OLD and NEW are ``verify_report.json`` files as ``hqmaps verify`` writes
them, or the reduced reference perfbench keeps
(``perfbench/reference/verify_all.json.gz``: per row the key, verdict, lhs,
rhs, tol and membership ``detail.actual``); a ``.gz`` name is read through
gzip. Rows are matched by (inequality_id, mapping_id, k, p, r).

For each inequality id it prints the rows it holds, how many changed (lhs,
rhs, tol, verdict or membership verdict), the largest |new lhs - old lhs|
and |new rhs - old rhs| in units of the old row's ``tol``, and the verdict
flips. Between two full reports it also prints, for each inequality id
with a changed ``detail``, how many rows' detail changed and, per detail
key, on how many rows; the reduced reference keeps no detail, so against it
none is compared. The exit status is 1 when a key is missing from either
report, a verdict flips, or lhs or rhs moves by more than ``tol``; else 0,
whatever the details. Nothing is written.
"""

from __future__ import annotations

import argparse
import gzip
import json
import sys
from collections import Counter, defaultdict


def load_rows(path: str) -> dict:
    """key -> (verdict, lhs, rhs, tol, actual, detail) of every row of a
    report; detail is None in the reduced reference."""
    with (gzip.open(path, "rt") if path.endswith(".gz") else open(path)) as fh:
        rows = json.load(fh)["rows"]
    out = {}
    for row in rows:
        if isinstance(row, dict):
            key = tuple(row[name] for name in ("inequality_id", "mapping_id", "k", "p", "r"))
            detail = row.get("detail", {})
            fields = (row["verdict"], row["lhs"], row["rhs"], row["tol"], detail.get("actual"), detail)
        else:  # the reduced reference: key, then verdict, lhs, rhs, tol, actual
            key, fields = tuple(row[:5]), tuple(row[5:]) + (None,)
        out[key] = fields
    return out


def drift(old: dict, new: dict) -> tuple:
    """(per inequality id: rows, changed, max |dlhs|/tol, max |drhs|/tol,
    flips, rows beyond tol, rows whose detail changed and a count of rows
    per changed detail key; keys only in old; keys only in new)."""
    table = defaultdict(lambda: {"rows": 0, "changed": 0, "lhs": 0.0, "rhs": 0.0,
                                 "flips": 0, "beyond_tol": 0, "details": 0, "keys": Counter()})
    for key in old.keys() & new.keys():
        (verdict, lhs, rhs, tol, actual, detail), now = old[key], new[key]
        entry = table[key[0]]
        entry["rows"] += 1
        entry["changed"] += now[:5] != old[key][:5]
        if detail is not None and now[5] is not None:
            moved = [name for name in detail.keys() | now[5].keys()
                     if detail.get(name) != now[5].get(name)]
            entry["details"] += bool(moved)
            entry["keys"].update(moved)
        entry["flips"] += (now[0], now[4]) != (verdict, actual)
        deltas = [abs(now[1] - lhs), abs(now[2] - rhs)]
        # a zero tol makes any move infinite; NaN counts as beyond tol
        scaled = [d / tol if tol > 0 else (0.0 if d == 0 else float("inf")) for d in deltas]
        entry["lhs"], entry["rhs"] = max(entry["lhs"], scaled[0]), max(entry["rhs"], scaled[1])
        entry["beyond_tol"] += not all(d <= tol for d in deltas)
    missing, extra = sorted(old.keys() - new.keys()), sorted(new.keys() - old.keys())
    return dict(sorted(table.items())), missing, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="reference report (.json or .json.gz)")
    parser.add_argument("new", help="report to compare (.json or .json.gz)")
    args = parser.parse_args(argv)
    table, missing, extra = drift(load_rows(args.old), load_rows(args.new))
    width = max([len("inequality_id")] + [len(name) for name in table])
    print(f"{'inequality_id':<{width}}  {'rows':>5}  {'changed':>7}  "
          f"{'max|dlhs|/tol':>13}  {'max|drhs|/tol':>13}  {'flips':>5}")
    for name, e in table.items():
        print(f"{name:<{width}}  {e['rows']:>5}  {e['changed']:>7}  "
              f"{e['lhs']:>13.3g}  {e['rhs']:>13.3g}  {e['flips']:>5}")
    for name, e in table.items():
        if e["details"]:
            keys = ", ".join(f"{k} {n}" for k, n in sorted(e["keys"].items()))
            print(f"detail changed: {name}: {e['details']} rows ({keys})")
    for label, keys in (("missing from NEW", missing), ("extra in NEW", extra)):
        for key in keys:
            print(f"{label}: {key}")
    flips = sum(e["flips"] for e in table.values())
    beyond = sum(e["beyond_tol"] for e in table.values())
    print(f"{sum(e['rows'] for e in table.values())} rows matched, {len(missing)} missing, "
          f"{len(extra)} extra, {flips} verdict flips, {beyond} rows moved beyond tol")
    return 1 if missing or extra or flips or beyond else 0


if __name__ == "__main__":
    sys.exit(main())
