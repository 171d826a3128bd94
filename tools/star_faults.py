"""In-process cost of 2^16-point star functions: milliseconds and minor page faults.

    python3 tools/star_faults.py [--passes 3]

Imports ``hqmaps`` from ``src/`` of the tree the script sits in and, in this
one fresh process, measures with ``time.perf_counter`` and the minor page
faults of ``resource.getrusage`` (``ru_minflt``):

- each ``star`` query at r = 0.99 as the benchmark's queries deck makes it,
  ``star_function(sample_log_modulus(f, 0.99, 2**16))`` with the shear f
  built fresh, over the 18 shears of the built-in corpus in turn;
- the star suite's r = 0.99 pass, ``verify.suite_star(corpus,
  r_grid=(0.99,))``, ``--passes`` times;
- one whole star suite, ``verify.suite_star(corpus)``, every radius of
  ``R_GRID``; its radii below 0.99 take their star functions on 2^12 points.

Queries run first, so the first one meets the heap of a fresh interpreter.
Prints one line per query and per pass, the medians, then the whole suite.
"""

from __future__ import annotations

import argparse
import itertools
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hqmaps import harmonic, star, verify  # noqa: E402

R = 0.99


def measured(fn):
    """Elapsed ms and minor page faults of one call of fn."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    fn()
    elapsed = 1e3 * (time.perf_counter() - start)
    return elapsed, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def star_query(phi: str, kappa: float, power: int) -> None:
    f = harmonic.corpus_shear(phi, kappa, power)
    star.star_function(star.sample_log_modulus(f, R, star.star_grid_size(R)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--passes", type=int, default=3, help="star-suite passes at r = 0.99")
    args = parser.parse_args(argv)

    queries = []
    for phi, power, kappa in itertools.product(("identity", "halfplane", "strip"), (1, 2),
                                               (0.25, 0.5, 0.8)):
        ms, faults = measured(lambda: star_query(phi, kappa, power))
        queries.append((ms, faults))
        print(f"query {phi} kappa={kappa} m={power}: {ms:.2f} ms, {faults} faults")
    corpus = harmonic.build_corpus()
    passes = []
    for i in range(args.passes):
        ms, faults = measured(lambda: verify.suite_star(corpus, r_grid=(R,)))
        passes.append((ms, faults))
        print(f"star pass {i}: {ms:.1f} ms, {faults} faults")
    for name, runs in (("query", queries), ("star pass", passes)):
        ms, faults = zip(*runs)
        print(f"median {name}: {statistics.median(ms):.2f} ms, "
              f"{statistics.median(faults):.0f} faults ({sum(faults)} in all)")
    ms, faults = measured(lambda: verify.suite_star(corpus))
    print(f"star suite, all radii: {ms:.1f} ms, {faults} faults")
    return 0


if __name__ == "__main__":
    sys.exit(main())
