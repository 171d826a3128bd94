"""Correctness gate: report rows against the stored reference, queries against
independent oracles.

A report row fails when its (inequality_id, mapping_id, k, p, r) key is
missing, its verdict differs, its membership ``detail.actual`` differs, or
its lhs or rhs moves by more than the reference row's ``tol``. The largest
relative change of lhs/rhs is returned for information only.

A ``means`` query at p = 2 must match the Parseval sum of the exact Taylor
coefficients of its catalog target, computed here in closed form; every
other query result must be finite, and a ``growth`` query at p < 1/2 (every
shear is quasiconformal and close-to-convex) must read ``member``.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference" / "verify_all.json.gz"
MEMBERSHIP_ID = "membership-hardy"
SWEEP_SUITES = ("means", "star", "cumulative", "classic")  # every suite but membership
PARSEVAL_RTOL = 1e-9  # integral_means' own default relative tolerance
THEOREM_P = 0.5  # QC close-to-convex maps lie in h^p for p < 1/2


def load_reference(path=REFERENCE) -> dict:
    """key -> reference row (verdict, lhs, rhs, tol, actual)."""
    with gzip.open(path, "rt") as fh:
        doc = json.load(fh)
    return {tuple(row[:5]): row[5:] for row in doc["rows"]}


def row_key(row: dict) -> tuple:
    return (row["inequality_id"], row["mapping_id"], row["k"], row["p"], row["r"])


def check_rows(rows: list, reference: dict) -> tuple:
    """(failed row keys, largest relative lhs/rhs change) of ``rows`` against
    ``reference``; every reference key is attempted."""
    got = {row_key(row): row for row in rows}
    failed, max_rel = [], 0.0
    for key, (verdict, lhs, rhs, tol, actual) in reference.items():
        row = got.get(key)
        if row is None:
            failed.append(key)
            continue
        bad = row["verdict"] != verdict or row.get("detail", {}).get("actual") != actual
        for new, old in ((row["lhs"], lhs), (row["rhs"], rhs)):
            delta = abs(new - old)
            bad = bad or not delta <= tol
            if old != 0:
                max_rel = max(max_rel, delta / abs(old))
        if bad:
            failed.append(key)
    return failed, max_rel


def _rational_taylor(a2: float, a1: float, a0: float, k: float, n: int) -> np.ndarray:
    """First n coefficients of A(z)/(1 - k z) where A has coefficients
    a2 m^2 + a1 m + a0: the recurrence c_m = k c_{m-1} + A_m solved in closed
    form as a quadratic particular solution plus a multiple of k^m."""
    m = np.arange(n, dtype=float)
    alpha = a2 / (1.0 - k)
    beta = (a1 - 2.0 * k * alpha) / (1.0 - k)
    gamma = (a0 + k * alpha - k * beta) / (1.0 - k)
    return alpha * m**2 + beta * m + gamma + (a0 - gamma) * k**m


def catalog_taylor(name: str, k: float, n: int) -> np.ndarray:
    """Exact first n Taylor coefficients of H_k, G_k, scrH_k or scrG_k.

    (1+z)/(1-z)^2 has coefficients 2m+1 and (1+z)^2/(1-z)^3 has 2m^2+2m+1;
    H and scrH divide these by (1 - k z), and G = k z H, scrG = k z scrH.
    """
    base = {"H": (0.0, 2.0, 1.0), "G": (0.0, 2.0, 1.0), "scrH": (2.0, 2.0, 1.0), "scrG": (2.0, 2.0, 1.0)}
    c = _rational_taylor(*base[name], k, n)
    if name in ("G", "scrG"):
        c = np.concatenate([[0.0], k * c[:-1]])
    return c


def parseval_m2(name: str, k: float, r: float) -> float:
    """M_2(r) = sqrt(sum |a_m|^2 r^(2m)) with enough terms that r^(2m) < e^-100."""
    n = int(50.0 / (1.0 - r)) + 64
    c = catalog_taylor(name, k, n)
    return math.sqrt(float(np.sum(c**2 * r ** (2.0 * np.arange(n)))))


def check_query(q: dict, out: dict) -> str:
    """'' when the result passes, else the reason it fails."""
    if "error" in out:
        return out["error"]
    if q["kind"] == "means":
        value = out["value"]
        if not (math.isfinite(value) and value > 0):
            return f"M_p = {value!r} is not finite and positive"
        if q["p"] == 2.0:
            exact = parseval_m2(q["name"], q["k"], q["r"])
            if abs(value - exact) > PARSEVAL_RTOL * exact:
                return f"M_2 = {value!r} but the Parseval sum gives {exact!r}"
        return ""
    if q["kind"] == "star":
        if out["n"] < 2 or not all(math.isfinite(out[key]) for key in ("min", "max", "last")):
            return f"star function not finite: {out}"
        return ""
    if not math.isfinite(out["beta"]):
        return f"growth exponent {out['beta']!r} is not finite"
    if q["p"] < THEOREM_P and out["verdict"] != "member":
        return f"verdict {out['verdict']!r} at p = {q['p']} < 1/2 contradicts the theorem"
    return ""
