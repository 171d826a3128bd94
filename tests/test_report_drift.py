"""tools/report_drift.py: per-inequality drift of one report from another."""

import gzip
import importlib.util
import json
from pathlib import Path

from hqmaps.verify import VerificationReport, VerificationRow

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_drift.py"
spec = importlib.util.spec_from_file_location("report_drift", TOOL)
report_drift = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_drift)


def _rows():
    return [
        VerificationRow("a", "means-convex-hprime", 0.5, 1.0, 0.9, 1.0, 2.0, 1e-6),
        VerificationRow("b", "means-convex-hprime", 0.5, 1.0, 0.9, 1.0, 1.0, 1e-6),
        VerificationRow("a", "star-ctc-gprime", 0.5, 0.0, 0.99, 0.0, 0.0, 1e-8),
        VerificationRow(
            "c", "membership-hardy", 0.5, 0.4, 0.9998, 0.0, 0.0, 0.5,
            detail={"expected": "member", "actual": "member"},
        ),
    ]


def _write(path: Path, rows) -> str:
    path.write_text(VerificationReport(rows).to_json())
    return str(path)


def _write_reduced(path: Path, rows) -> str:
    # the reference perfbench keeps: key, then verdict, lhs, rhs, tol, actual
    reduced = [
        [r.inequality_id, r.mapping_id, r.k, r.p, r.r, r.verdict, r.lhs, r.rhs, r.tol,
         r.detail.get("actual")]
        for r in rows
    ]
    with gzip.open(path, "wt") as fh:
        json.dump({"rows": reduced}, fh)
    return str(path)


def test_report_drift_passes_moves_within_tol_from_either_format(tmp_path, capsys):
    old = _write_reduced(tmp_path / "old.json.gz", _rows())
    rows = _rows()
    rows[0].lhs += 0.5e-6
    rows[2].lhs = 3e-9
    assert report_drift.main([old, _write(tmp_path / "new.json", rows)]) == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("means-convex-hprime"))
    assert line.split()[1:] == ["2", "1", "0.5", "0", "0"]
    line = next(l for l in out.splitlines() if l.startswith("star-ctc-gprime"))
    assert line.split()[1:] == ["1", "1", "0.3", "0", "0"]
    assert "4 rows matched, 0 missing, 0 extra, 0 verdict flips, 0 rows moved beyond tol" in out


def test_report_drift_fails_on_a_flip_and_on_a_move_beyond_tol(tmp_path, capsys):
    old = _write(tmp_path / "old.json", _rows())
    rows = _rows()
    rows[1].lhs += 1.0  # a means row now fails: a flip beyond its tol
    rows[3].detail["actual"] = "divergent"  # a membership verdict flips alone
    rows[2].rhs = 2e-8  # a star row moves by twice its tol, still passing
    assert report_drift.main([old, _write(tmp_path / "new.json", rows)]) == 1
    out = capsys.readouterr().out
    assert "2 verdict flips, 2 rows moved beyond tol" in out
    line = next(l for l in out.splitlines() if l.startswith("star-ctc-gprime"))
    assert line.split()[1:] == ["1", "1", "0", "2", "0"]
    line = next(l for l in out.splitlines() if l.startswith("membership-hardy"))
    assert line.split()[1:] == ["1", "1", "0", "0", "1"]


def test_report_drift_fails_on_a_missing_or_extra_key(tmp_path, capsys):
    old = _write(tmp_path / "old.json", _rows())
    assert report_drift.main([old, _write(tmp_path / "fewer.json", _rows()[1:])]) == 1
    assert "missing from NEW: ('means-convex-hprime', 'a'" in capsys.readouterr().out
    assert report_drift.main([_write(tmp_path / "fewer.json", _rows()[1:]), old]) == 1
    assert "extra in NEW: ('means-convex-hprime', 'a'" in capsys.readouterr().out


def test_report_drift_counts_changed_details_by_key_between_full_reports(tmp_path, capsys):
    old_rows, rows = _rows(), _rows()
    old_rows[3].detail["beta"], rows[3].detail["beta"] = 0.05, 0.06
    old = _write(tmp_path / "old.json", old_rows)
    # a moved detail is reported, and changes neither the table nor the exit
    assert report_drift.main([old, _write(tmp_path / "new.json", rows)]) == 0
    out = capsys.readouterr().out
    assert "detail changed: membership-hardy: 1 rows (beta 1)" in out
    assert out.count("detail changed") == 1
    line = next(l for l in out.splitlines() if l.startswith("membership-hardy"))
    assert line.split()[1:] == ["1", "0", "0", "0", "0"]
    # the reduced reference keeps no detail: nothing to compare
    reduced = _write_reduced(tmp_path / "old.json.gz", old_rows)
    assert report_drift.main([reduced, _write(tmp_path / "new.json", rows)]) == 0
    assert "detail changed" not in capsys.readouterr().out
