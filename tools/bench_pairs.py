"""Alternating parent/change pairs of perfbench runs, summarised as BENCH_<topic>.json.

    python3 tools/bench_pairs.py --parent REV --change REV --workload queries \
        --pairs 10 --out BENCH_topic.json

REV is a git revision of this repository. Each side is a ``git archive`` of
its commit, unpacked into a temporary directory, so only committed files
are measured. Each pair runs
``python3 perfbench/run.py --workload W --seed 1 --seconds 30`` once in each
tree, the command every speed claim of ROADMAP.md quotes; the parent goes
first in even pairs and the change in odd ones, so a drift of the machine's
speed does not favour one side. The JSON object on the last line of each
run's standard output is kept.

The output records both commits and, under ``<workload>_pairs``, the
command, every run, and per end-to-end metric the median and quartiles of
each side, the median's relative change and the number of pairs in which
the change read lower (every end-to-end metric of the benchmark is
lower-is-better). An existing output file is updated, so one file can
gather several workloads of the same two commits. The exit status is 1 when
any run failed the benchmark's correctness gate (``correct`` false), which
the file then records.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
REPO = Path(__file__).resolve().parent.parent
COMMAND = ["perfbench/run.py", "--seed", "1", "--seconds", "30"]


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(REPO), *args], capture_output=True, check=True).stdout


def run_once(tree: Path, workload: str) -> dict:
    """One perfbench run in ``tree``: its last output line, each metric as its
    bare value (BENCHMARK.json gives the units), plus the elapsed time."""
    start = time.perf_counter()
    out = subprocess.run([sys.executable, *COMMAND, "--workload", workload],
                         cwd=tree, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    result["elapsed_s"] = time.perf_counter() - start
    return result


def summarise(runs: list) -> dict:
    """Medians, quartiles and pairs won per metric, from alternating runs."""
    by_side = {side: [r for r in runs if r["side"] == side] for side in SIDES}
    summary = {}
    for metric in by_side["parent"][0]["metrics"]:
        values = {side: [r["metrics"][metric] for r in by_side[side]] for side in SIDES}
        medians = {side: statistics.median(values[side]) for side in SIDES}
        summary[metric] = {
            "parent_median": medians["parent"],
            "parent_quartiles": statistics.quantiles(values["parent"], n=4, method="inclusive")[::2],
            "change_median": medians["change"],
            "change_quartiles": statistics.quantiles(values["change"], n=4, method="inclusive")[::2],
            "median_change_rel": medians["change"] / medians["parent"] - 1.0,
            "pairs_change_lower": sum(c < p for p, c in zip(values["parent"], values["change"])),
            "pairs": len(values["parent"]),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision")
    parser.add_argument("--change", required=True, help="git revision")
    parser.add_argument("--workload", required=True, choices=("verify-all", "sweep", "queries"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("quartiles need at least two pairs")
    commits = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
               for side, rev in (("parent", args.parent), ("change", args.change))}
    bench = json.loads(args.out.read_text()) if args.out.is_file() else {}
    if any(bench.get(side, commits[side]) != commits[side] for side in SIDES):
        parser.error(f"{args.out} holds runs of other commits")

    runs = []
    with tempfile.TemporaryDirectory() as scratch:
        trees = {side: Path(scratch, side) for side in SIDES}
        for side, tree in trees.items():
            tarfile.open(fileobj=io.BytesIO(git("archive", commits[side]))).extractall(tree)
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                result = run_once(trees[side], args.workload)
                runs.append({"workload": args.workload, "pair": pair, "side": side,
                             "first": order[0], **result})
                print(f"# pair {pair} {side}: " + json.dumps(result["metrics"]),
                      file=sys.stderr, flush=True)

    bench["topic"] = args.out.stem.removeprefix("BENCH_")
    bench["machine"] = (
        f"{platform.machine()}, {len(os.sched_getaffinity(0))} CPUs available, "
        f"Python {platform.python_version()}; parent and change run alternately"
    )
    bench.update(commits)
    bench[f"{args.workload}_pairs"] = {
        "command": " ".join(["python3", *COMMAND, "--workload", args.workload]),
        "summary": summarise(runs),
        "correct": all(r["correct"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "runs": runs,
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    wrong = [f"pair {r['pair']} {r['side']}" for r in runs if not r["correct"]]
    if wrong:
        print(f"error: {len(wrong)} runs failed the correctness gate ({', '.join(wrong)}); "
              f"{args.out} records them", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
