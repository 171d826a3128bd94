"""One repetition of a benchmark workload, run in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD OUT_DIR [--deck FILE] [--trace]

Writes OUT_DIR/result.json with the latency of every operation (seconds),
the query results for ``queries``, and, with --trace, the per-layer metrics
of the in-process run. ``sweep`` also writes one report per suite as
OUT_DIR/<suite>.json. The untraced ``verify-all`` repetition does not come
through here: it runs ``python -m hqmaps.cli`` exactly as a user would.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

# layer functions are looked up on their modules at call time, so the
# tracer's wrappers are seen
from hqmaps import analytic, cli, harmonic, means, star, verify

from gate import SWEEP_SUITES

GROWTH_DEPTH = 12  # the growth command's default depth


def run_query(q: dict) -> dict:
    """One query as the means/star/growth commands make it, target built fresh."""
    if q["kind"] == "means":
        F = analytic.catalog(q["name"], q["k"])
        return {"value": means.integral_means(F, q["p"], q["r"])}
    f = harmonic.corpus_shear(q["phi"], q["kappa"], q["power"])
    if q["kind"] == "star":
        n = star.star_grid_size(q["r"])
        values = star.star_function(star.sample_log_modulus(f, q["r"], n)).values
        # min/max/last propagate any NaN or inf, so the gate sees them
        return {
            "n": int(values.size),
            "min": float(np.min(values)),
            "max": float(np.max(values)),
            "last": float(values[-1]),
        }
    v = verify.hardy_membership_verdict(f, q["p"], GROWTH_DEPTH)
    return {"verdict": v.verdict, "beta": v.beta}


def run_queries(deck: list) -> tuple:
    latencies, results = [], []
    clock = time.perf_counter
    for q in deck:
        t0 = clock()
        try:
            out = run_query(q)
        except Exception as e:  # a failed query is counted by the gate
            out = {"error": f"{type(e).__name__}: {e}"}
        latencies.append(clock() - t0)
        results.append(out)
    return latencies, results


def run_sweep(out_dir: str) -> list:
    """Latencies of building the corpus and of each suite run on it."""
    t0 = time.perf_counter()
    corpus = harmonic.build_corpus()
    latencies = [time.perf_counter() - t0]
    for name in SWEEP_SUITES:
        t0 = time.perf_counter()
        report = verify.run_suite(name, corpus=corpus)
        latencies.append(time.perf_counter() - t0)
        with open(os.path.join(out_dir, name + ".json"), "w") as fh:
            fh.write(report.to_json())
    return latencies


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=("verify-all", "sweep", "queries"))
    parser.add_argument("out_dir")
    parser.add_argument("--deck")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"hqmaps imported from {cli.__file__}, not from {src}")

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    result = {}
    t0 = time.perf_counter()
    try:
        if args.workload == "verify-all":
            cli.main(["verify", "--suite", "all", "--out", args.out_dir])
            result["latencies"] = [time.perf_counter() - t0]
        elif args.workload == "sweep":
            result["latencies"] = run_sweep(args.out_dir)
        else:
            with open(args.deck) as fh:
                deck = json.load(fh)
            result["latencies"], result["results"] = run_queries(deck)
        result["body_s"] = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.restore()
    if tracer is not None:
        result["trace"] = tracer.metrics()
        result["trace_missing"] = tracer.missing
        tracer.dump(os.path.join(args.out_dir, "spans.npz"))
    with open(os.path.join(args.out_dir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
