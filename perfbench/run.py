"""hqmaps benchmark: end-to-end and per-layer timings with a correctness gate.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is ``verify-all``, ``sweep``, ``queries``, or ``all`` (the three in turn);
perfbench/README.md describes the workloads and every metric. Each
repetition runs in a fresh interpreter, one thread, closed loop with one
client: ``means._CACHE`` and ``_COROLLARY_CACHE`` are module globals, so an
in-process repeat would time warm caches that no command-line user gets. A
repetition starts only while one more fits in S seconds, and at least one
runs. Children import ``hqmaps`` from ``src/`` of this checkout.

--trace 0 reports the end-to-end metrics; --trace 1 runs one untraced and
one traced repetition (perfbench/tracer.py) and reports the per-layer
metrics. Lines starting with ``#`` are for people; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
from scipy.stats.mstats import hdquantiles

import gate
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("verify-all", "sweep", "queries")
SETUP_RUNS = 9
CHILD_TIMEOUT_S = 120  # keeps one run inside the 180 s a run may take

# The queries deck: one third each of means, star and growth queries, the
# three query commands weighted equally (an assumed mix; no usage data
# exists). Within a command every combination of the discrete parameters
# comes equally often and each continuous one is drawn stratified over its
# range, so decks of different seeds hold the same mix of cheap and costly
# queries and their percentiles compare.
PER_COMMAND = 54  # queries per command and repetition; a multiple of 18
MEANS_NAMES = ("H", "G", "scrH", "scrG")
MEANS_P = (0.25, 0.5, 1.0, 2.0, 4.0)  # the verify suites' p grid
MEANS_DEPTH = (1.0, 13.0)  # r = 1 - 2^-t down to the membership suite's depth
SHEAR_PHIS = ("identity", "halfplane", "strip")
SHEAR_POWERS = (1, 2)
KAPPA = (0.05, 0.9)
STAR_RADII = (0.5, 0.9, 0.99)
# equal shares of the theorem's member range p < 1/2, the open range below
# p = 1 where a verdict costs about three times as much, and p >= 1
GROWTH_P_BANDS = ((0.1, 0.5), (0.5, 1.0), (1.0, 1.5))

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(argv: list, log_path: Path) -> tuple:
    """(wall seconds, peak RSS in MiB, exit code) of one child process."""
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=log, stderr=log
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        reaped = False
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
        finally:
            timer.cancel()
            if not reaped:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list:
    """n draws from [lo, hi), one from each of n equal strata, in random order."""
    draws = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(draws)
    return draws


def _balanced(rng: random.Random, options: tuple, n: int) -> list:
    """n picks from options, each as often as n allows, in random order."""
    picks = [options[i % len(options)] for i in range(n)]
    rng.shuffle(picks)
    return picks


def _latin(rng: random.Random, lo: float, hi: float, cells: int, m: int) -> list:
    """m draws from [lo, hi) for each of ``cells`` cells, in random order.

    The range is cut into cells * m equal strata. Each cell draws once from
    each m-th of the range, and the cells together draw once from every
    stratum: past a cost step that all cells share, the number of draws
    varies by at most one between seeds, not by one per cell."""
    n = cells * m
    columns = [rng.sample(range(cells), cells) for _ in range(m)]
    draws = []
    for j in range(cells):
        cell = [lo + (hi - lo) * (i * cells + columns[i][j] + rng.random()) / n for i in range(m)]
        rng.shuffle(cell)
        draws.append(cell)
    return draws


def make_deck(seed: int, rep: int) -> list:
    """Queries of one repetition; the same (seed, rep) gives the same deck."""
    rng = random.Random(seed * 1000 + rep)
    n = PER_COMMAND
    # means costs double with each unit of depth t, so t is continuous:
    # integer depths would cluster the latencies
    means = [
        {"kind": "means", "name": name, "k": k, "p": p, "r": 1.0 - 2.0**-t}
        for name, k, p, t in zip(
            _balanced(rng, MEANS_NAMES, n), _strata(rng, 0.0, 0.9, n),
            _balanced(rng, MEANS_P, n), _strata(rng, *MEANS_DEPTH, n),
        )
    ]
    star_cells = list(itertools.product(SHEAR_PHIS, SHEAR_POWERS, STAR_RADII))
    m = n // len(star_cells)
    star = [
        {"kind": "star", "phi": phi, "power": power, "r": r, "kappa": kappa}
        for (phi, power, r), kappas in zip(star_cells, _latin(rng, *KAPPA, len(star_cells), m))
        for kappa in kappas
    ]
    shears = list(itertools.product(SHEAR_PHIS, SHEAR_POWERS))
    growth_p = {band: dict(zip(shears, _latin(rng, *band, len(shears), m))) for band in GROWTH_P_BANDS}
    growth_cells = [(phi, power, band) for phi, power in shears for band in GROWTH_P_BANDS]
    growth = [
        {"kind": "growth", "phi": phi, "power": power, "kappa": kappa, "p": p}
        for (phi, power, band), kappas in zip(growth_cells, _latin(rng, *KAPPA, len(growth_cells), m))
        for kappa, p in zip(kappas, growth_p[band][phi, power])
    ]
    for queries in (means, star, growth):
        rng.shuffle(queries)
    # commands take turns, as a mixed stream of users' queries would
    return [q for triple in zip(means, star, growth) for q in triple]


class Tally:
    """Attempted and failed operations of one workload, checked by ``gate``."""

    def __init__(self):
        reference = gate.load_reference()
        self.reference = {"verify-all": reference}
        self.reference["sweep"] = {
            key: row for key, row in reference.items() if key[0] != gate.MEMBERSHIP_ID
        }
        self.attempted = 0
        self.failed = 0
        self.max_rel = 0.0
        self.messages: list = []

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.messages) < 10:
            self.messages.append(message)

    def rows(self, workload: str, paths: list) -> None:
        reference = self.reference[workload]
        self.attempted += len(reference)
        rows = []
        for path in paths:
            try:
                with open(path) as fh:
                    rows += json.load(fh)["rows"]
            except (OSError, ValueError) as e:
                self.fail(0, f"{path.name}: {e}")
        failed, max_rel = gate.check_rows(rows, reference)
        self.max_rel = max(self.max_rel, max_rel)
        if failed:
            self.fail(len(failed), f"{len(failed)} rows fail, first {failed[0]}")

    def queries(self, deck: list, results) -> None:
        self.attempted += len(deck)
        if results is None:
            self.fail(len(deck), "no query results")
            return
        for q, out in zip(deck, results):
            reason = gate.check_query(q, out)
            if reason:
                self.fail(1, f"{q}: {reason}")


def run_rep(workload: str, rep_dir: Path, tally: Tally, deck=None, trace=False) -> dict:
    """Run and gate one repetition: its wall time, peak RSS, latencies and result."""
    rep_dir.mkdir(parents=True)
    # the CLI exits 1 when a row is a violation, which the row gate judges;
    # child.py exits 0 or has failed
    ok_codes = (0,)
    if workload == "verify-all" and not trace:
        argv = [sys.executable, "-m", "hqmaps.cli", "verify", "--suite", "all", "--out", str(rep_dir)]
        ok_codes = (0, 1)
    else:
        argv = [sys.executable, str(BENCH / "child.py"), workload, str(rep_dir)]
        if deck is not None:
            (rep_dir / "deck.json").write_text(json.dumps(deck))
            argv += ["--deck", str(rep_dir / "deck.json")]
        if trace:
            argv.append("--trace")
    wall, rss, code = run_child(argv, rep_dir / "log.txt")
    try:
        result = json.loads((rep_dir / "result.json").read_text())
    except (OSError, ValueError):
        result = {}
    if code not in ok_codes:
        tally.fail(0, f"{workload} child exited {code}: {(rep_dir / 'log.txt').read_text()[-500:]}")
    if workload == "verify-all":
        tally.rows(workload, [rep_dir / "verify_report.json"])
    elif workload == "sweep":
        tally.rows(workload, [rep_dir / f"{name}.json" for name in gate.SWEEP_SUITES])
    else:
        tally.queries(deck, result.get("results"))
    # the untraced verify-all repetition is one CLI run: one operation
    latencies = result.get("latencies") or [wall]
    return {"wall": wall, "rss": rss, "latencies": latencies, "result": result}


def measure_setup(run_dir: Path) -> list:
    """Wall times of fresh interpreters running import hqmaps; build_corpus()."""
    argv = [sys.executable, "-c", "import hqmaps; hqmaps.build_corpus()"]
    run_child(argv, run_dir / "setup-warmup.log")  # fills byte-code and page caches
    times = []
    for i in range(SETUP_RUNS):
        wall, _, code = run_child(argv, run_dir / f"setup-{i}.log")
        if code != 0:
            raise RuntimeError(f"set-up child exited {code}: " + (run_dir / f"setup-{i}.log").read_text()[-500:])
        times.append(wall)
    return times


def quantile(values: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a weighted mean of all order
    statistics, so it does not jump when the few latencies around q move
    between the deck's cost levels, as a single order statistic does."""
    if len(values) == 1:
        return values[0]
    return float(hdquantiles(values, [q])[0])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    run_dir.mkdir(parents=True)
    tally = Tally()
    metrics, lines = {}, []
    if trace:
        deck = make_deck(seed, 0) if workload == "queries" else None
        plain = run_rep(workload, run_dir / "plain", tally, deck)
        traced = run_rep(workload, run_dir / "traced", tally, deck, trace=True)
        layer = traced["result"].get("trace", {})
        # a layer that could not be traced would read 0, the best value of
        # most metrics, so the run fails instead
        if not layer:
            tally.fail(0, "the traced repetition reported no trace")
        missing = traced["result"].get("trace_missing")
        if missing:
            tally.fail(0, "not traced: " + ", ".join(missing))
        metrics = {name: layer.get(name, 0) for name in tracer.PER_LAYER}
        metrics["trace.overhead_frac"] = traced["wall"] / plain["wall"] - 1.0
        body = traced["result"].get("body_s", 0.0)
        metrics["trace.attributed_frac"] = layer.get("trace.self_total_s", 0.0) / body if body else 0.0
        spans = run_dir / "traced" / "spans.npz"
        if spans.exists():
            shutil.copy(spans, WORK / f"spans-{workload}.npz")
        lines.append(f"traced wall {traced['wall']:.3f} s, untraced {plain['wall']:.3f} s, "
                     f"{layer.get('trace.spans', 0)} spans")
        for name, value in metrics.items():
            lines.append(f"{name:48s} {value:12.6g} {tracer.unit(name)}")
        units = {name: tracer.unit(name) for name in metrics}
    else:
        setup = measure_setup(run_dir)
        reps = []
        start = time.perf_counter()
        # start another repetition only if one more of average length fits
        while not reps or (time.perf_counter() - start) * (len(reps) + 1) / len(reps) <= seconds:
            i = len(reps)
            deck = make_deck(seed, i) if workload == "queries" else None
            reps.append(run_rep(workload, run_dir / f"rep{i}", tally, deck))
        samples = {
            "wall_s": [r["wall"] for r in reps],
            "setup_s": setup,
            "peak_rss_mib": [r["rss"] for r in reps],
        }
        latencies = [x for r in reps for x in r["latencies"]]
        lines.append("repetitions: " + ", ".join(f"{r['wall']:.3f} s/{r['rss']:.0f} MiB" for r in reps))
        for name, values in samples.items():
            metrics[name] = statistics.median(values)
            lines.append(f"{name:14s} {metrics[name]:12.6g} {END_TO_END_UNITS[name]:4s} "
                         f"median of {len(values)}, quartiles {np.percentile(values, 25):.6g} "
                         f".. {np.percentile(values, 75):.6g}")
        metrics["query_p50_ms"] = quantile(latencies, 0.5) * 1e3
        metrics["query_p90_ms"] = quantile(latencies, 0.9) * 1e3
        beyond = sum(x * 1e3 > metrics["query_p90_ms"] for x in latencies)
        for name in ("query_p50_ms", "query_p90_ms"):
            lines.append(f"{name:14s} {metrics[name]:12.6g} ms   "
                         f"of {len(latencies)} operations, {beyond} beyond p90")
        units = END_TO_END_UNITS
    base = "queries" if workload == "queries" else "rows"
    lines.append(f"failed_frac    {tally.failed}/{tally.attempted} {base}")
    if workload != "queries":
        lines.append(f"max relative lhs/rhs change vs reference {tally.max_rel:.3g} (information only)")
    lines += ["gate: " + m for m in tally.messages]
    return {
        "correct": tally.failed == 0 and not tally.messages,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "lines": lines,
    }


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hqmaps" / "__init__.py").is_file():
        print(f"error: no hqmaps source tree at {SRC}", file=sys.stderr)
        return 2

    env = {
        "git": git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
    }
    print("# env " + json.dumps(env))
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"run-{os.getpid()}"
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(
                workload, args.seed, args.seconds, bool(args.trace), run_dir / workload
            )
            print(f"# {workload} (trace={args.trace}, seconds={args.seconds:g})")
            for line in results[workload].pop("lines"):
                print("#   " + line)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
