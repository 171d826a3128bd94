"""Self-test of the benchmark: the gates catch planted faults, the oracle
agrees with a direct recurrence, short runs emit every metric that
BENCHMARK.json names, a traced run fails when a layer cannot be traced, and
a tree without the package is refused.

    python3 perfbench/selftest.py

Takes a few minutes: it runs every workload once with and once without
tracing. Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import gate
import run
import tracer


def check(condition: bool, what: str) -> None:
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        check.failed += 1


check.failed = 0


def reference_rows(reference: dict) -> list:
    """Report rows rebuilt from the reference, as a passing run writes them."""
    rows = []
    for (ineq, mapping, k, p, r), (verdict, lhs, rhs, tol, actual) in reference.items():
        detail = {} if actual is None else {"actual": actual}
        rows.append(dict(inequality_id=ineq, mapping_id=mapping, k=k, p=p, r=r,
                         verdict=verdict, lhs=lhs, rhs=rhs, tol=tol, detail=detail))
    return rows


def test_row_gate() -> None:
    reference = gate.load_reference()
    rows = reference_rows(reference)
    check(gate.check_rows(rows, reference)[0] == [], "reference rows pass their own gate")

    key = next(iter(reference))
    flipped = dict(reference)
    verdict = flipped[key][0]
    flipped[key] = ["fail" if verdict == "pass" else "pass"] + flipped[key][1:]
    check(gate.check_rows(rows, flipped)[0] == [key], "one flipped reference verdict is flagged")

    check(len(gate.check_rows(rows[1:], reference)[0]) == 1, "a missing row is flagged")

    moved = [dict(row) for row in rows]
    moved[5]["lhs"] += 2 * moved[5]["tol"] + 1e-300
    failed, max_rel = gate.check_rows(moved, reference)
    check(len(failed) == 1 and max_rel > 0, "lhs moved by twice its tol is flagged")

    member = next(i for i, row in enumerate(rows) if row["inequality_id"] == gate.MEMBERSHIP_ID)
    changed = [dict(row) for row in rows]
    changed[member]["detail"] = {"actual": "inconclusive"}
    check(len(gate.check_rows(changed, reference)[0]) == 1, "a changed membership verdict is flagged")


def test_parseval_oracle() -> None:
    worst = 0.0
    for name in ("H", "G", "scrH", "scrG"):
        for k in (0.0, 0.37, 0.89):
            base = (0, 2, 1) if name in ("H", "G") else (2, 2, 1)
            c, direct = 0.0, []
            for m in range(200):  # c_m = k c_{m-1} + A_m
                c = k * c + base[0] * m * m + base[1] * m + base[2]
                direct.append(c)
            if name in ("G", "scrG"):
                direct = [0.0] + [k * x for x in direct[:-1]]
            closed = gate.catalog_taylor(name, k, 200)
            worst = max(worst, max(abs(a - b) / max(abs(a), 1.0) for a, b in zip(direct, closed)))
    check(worst < 1e-12, f"closed-form Taylor coefficients match the recurrence ({worst:.1e})")


def test_query_gate() -> None:
    sys.path.insert(0, str(run.SRC))
    import child

    deck = [q for q in run.make_deck(1, 0) if q["kind"] == "means"]
    results = [child.run_query(q) for q in deck]
    check(all(gate.check_query(q, out) == "" for q, out in zip(deck, results)), "means queries pass the oracle")
    i = next(i for i, q in enumerate(deck) if q["p"] == 2.0)
    perturbed = dict(results[i], value=results[i]["value"] * (1 + 1e-7))
    check(gate.check_query(deck[i], perturbed) != "", "one perturbed M_2 value is flagged")

    growth = {"kind": "growth", "phi": "strip", "power": 1, "kappa": 0.5, "p": 0.3}
    check(gate.check_query(growth, {"verdict": "divergent", "beta": 0.2}) != "",
          "a non-member verdict at p < 1/2 is flagged")
    star = {"kind": "star", "phi": "strip", "power": 1, "kappa": 0.5, "r": 0.9}
    check(gate.check_query(star, {"n": 4097, "min": 0.0, "max": math.nan, "last": 1.0}) != "",
          "a NaN star value is flagged")
    check(gate.check_query(star, {"error": "NonConvergenceError: stalled"}) != "", "a raised error is flagged")


def run_bench(cwd, workload: str, trace: int):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return out.returncode, out.stdout


def test_runs() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workloads match BENCHMARK.json")
    check(all(run.END_TO_END_UNITS.get(m["name"]) == m["unit"] for m in spec["end_to_end"]),
          "end-to-end units match BENCHMARK.json")
    check(all(tracer.unit(m["name"]) == m["unit"] for m in spec["per_layer"]), "per-layer units match BENCHMARK.json")
    for workload in run.WORKLOADS:
        for trace, names in ((0, e2e), (1, layers)):
            code, stdout = run_bench(run.ROOT, workload, trace)
            try:
                result = json.loads(stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                result = {}
            metrics = result.get("metrics", {})
            ok = code == 0 and result.get("correct") is True and sorted(metrics) == sorted(names)
            check(ok, f"{workload} --trace {trace} emits every named metric and passes its gate")


def copy_tree(name: str, with_src: bool):
    """A copy of the benchmark (and the package) under the work directory."""
    tree = run.WORK / name
    shutil.rmtree(tree, ignore_errors=True)
    tree.mkdir(parents=True)
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copy(run.ROOT / "BENCHMARK.json", tree)
    shutil.copytree(run.BENCH, tree / "perfbench", ignore=skip)
    if with_src:
        shutil.copytree(run.SRC, tree / "src", ignore=skip)
    return tree


def test_bare_directory() -> None:
    bare = copy_tree("selftest-bare", with_src=False)
    try:
        code, stdout = run_bench(bare, "sweep", 0)
        check(code != 0 and '"correct"' not in stdout, "a directory without the package is refused")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_untraceable_layer() -> None:
    tree = copy_tree("selftest-untraced", with_src=True)
    try:
        # a renamed or removed layer function, as a refactor would leave it
        path = tree / "perfbench" / "tracer.py"
        text = path.read_text()
        path.write_text(text.replace("TARGETS = (\n", 'TARGETS = (\n    ("hqmaps.means", "gone", "means.gone"),\n', 1))
        code, stdout = run_bench(tree, "sweep", 1)
        try:
            result = json.loads(stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            result = {}
        failed = code == 0 and result.get("correct") is False and "not traced: hqmaps.means.gone" in stdout
        check(failed, "a traced run with an untraceable layer fails")
    finally:
        shutil.rmtree(tree, ignore_errors=True)


def main() -> int:
    test_row_gate()
    test_parseval_oracle()
    test_query_gate()
    test_bare_directory()
    test_untraceable_layer()
    test_runs()
    print(f"{check.failed} failed")
    return 1 if check.failed else 0


if __name__ == "__main__":
    sys.exit(main())
