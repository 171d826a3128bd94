"""Span tracer for the hqmaps layers, installed from outside the package.

Each wrapped callable records one span (label, parent, start, end) in flat
in-memory arrays; nothing is written until ``dump``. Module-level functions
are replaced at every binding site: ``verify`` and ``cli`` import names such
as ``corollary_bound`` at import time, so patching only the defining module
would miss their calls. Methods are replaced on their class. ``restore`` puts
every original back.

Self time of a span is its duration minus the durations of its direct child
spans; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute, span label); "Class.method" attributes patch the class
TARGETS = (
    ("hqmaps.analytic", "PowerSeries.__call__", "analytic.PowerSeries.call"),
    ("hqmaps.analytic", "RadialIntegral.circle_values", "analytic.RadialIntegral.circle_values"),
    ("hqmaps.analytic", "radial_path_integral", "analytic.radial_path_integral"),
    ("hqmaps.analytic", "ClosedForm.__call__", "analytic.ClosedForm.call"),
    ("hqmaps.harmonic", "build_corpus", "harmonic.build_corpus"),
    ("hqmaps.harmonic", "make_shear", "harmonic.make_shear"),
    ("hqmaps.harmonic", "HarmonicMap.circle_values", "harmonic.HarmonicMap.circle_values"),
    ("hqmaps.means", "_mean_pow", "means._mean_pow"),
    ("hqmaps.means", "circle_modulus", "means.circle_modulus"),
    ("hqmaps.means", "corollary_bound", "means.corollary_bound"),
    ("hqmaps.means", "hardy_norm_bound", "means.hardy_norm_bound"),
    ("hqmaps.means", "dyadic_means_curve", "means.dyadic_means_curve"),
    ("hqmaps.star", "sample_log_modulus", "star.sample_log_modulus"),
    ("hqmaps.star", "star_function", "star.star_function"),
    ("hqmaps.star", "star_dominates", "star.star_dominates"),
    ("hqmaps.probes", "qc_certify", "probes.qc_certify"),
    ("hqmaps.probes", "convexity_probe", "probes.convexity_probe"),
    ("hqmaps.verify", "suite_means", "verify.suite_means"),
    ("hqmaps.verify", "suite_star", "verify.suite_star"),
    ("hqmaps.verify", "suite_cumulative", "verify.suite_cumulative"),
    ("hqmaps.verify", "suite_classic", "verify.suite_classic"),
    ("hqmaps.verify", "suite_membership", "verify.suite_membership"),
    ("hqmaps.verify", "hardy_membership_verdict", "verify.hardy_membership_verdict"),
    ("hqmaps.verify", "VerificationReport.to_json", "verify.report_serialize"),
    ("hqmaps.verify", "VerificationReport.to_csv", "verify.report_serialize"),
    ("hqmaps.cli", "main", "cli.main"),
    ("hqmaps.cli", "_write_atomic", "cli.write"),
)

# Per-layer metrics a traced run reports, in output order. "<label>.self_s"
# is self time, "<label>.s" the inclusive time of outermost spans,
# "<label>.calls" the span count; every other name is a counter or ratio
# that ``metrics`` derives below.
PER_LAYER = (
    "analytic.PowerSeries.call.self_s",
    "analytic.PowerSeries.call.calls",
    "analytic.PowerSeries.call.ops",
    "analytic.RadialIntegral.circle_values.self_s",
    "analytic.RadialIntegral.circle_values.points",
    "analytic.radial_path_integral.self_s",
    "analytic.radial_path_integral.calls",
    "analytic.ClosedForm.call.self_s",
    "analytic.ClosedForm.call.points",
    "harmonic.build_corpus.s",
    "harmonic.make_shear.self_s",
    "harmonic.make_shear.calls",
    "harmonic.HarmonicMap.circle_values.self_s",
    "harmonic.HarmonicMap.circle_values.calls",
    "means._mean_pow.self_s",
    "means._mean_pow.calls",
    "means._mean_pow.doublings",
    "means._mean_pow.unconverged",
    "means.circle_modulus.self_s",
    "means.circle_modulus.calls",
    "means.circle_modulus.samples_computed",
    "means.circle_modulus.hit_ratio",
    "means.cache.peak_mib",
    "means.cache.evicted_mib",
    "means.corollary_bound.self_s",
    "means.corollary_bound.calls",
    "means.corollary_bound.hit_ratio",
    "means.hardy_norm_bound.self_s",
    "means.hardy_norm_bound.calls",
    "means.hardy_norm_bound.unconverged",
    "means.dyadic_means_curve.self_s",
    "means.dyadic_means_curve.dropped_radii",
    "star.sample_log_modulus.self_s",
    "star.sample_log_modulus.points",
    "star.star_function.self_s",
    "star.star_function.calls",
    "star.star_dominates.self_s",
    "probes.qc_certify.self_s",
    "probes.qc_certify.calls",
    "probes.qc_certify.distinct_ratio",
    "probes.convexity_probe.self_s",
    "verify.suite_means.s",
    "verify.suite_star.s",
    "verify.suite_cumulative.s",
    "verify.suite_classic.s",
    "verify.suite_membership.s",
    "verify.hardy_membership_verdict.self_s",
    "verify.report_serialize.s",
    "cli.main.s",
    "cli.write.s",
)


def unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Records spans around the TARGETS and counts work at the same calls."""

    def __init__(self):
        self.labels: list = []
        self._label_ids: dict = {}
        self.label = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._qc_pairs: set = set()
        self.missing: list = []
        self._broken: set = set()
        self._restore: list = []

    # -- recording --------------------------------------------------------

    def wrap(self, label: str, fn, before=None, after=None):
        """fn wrapped in a span; ``before`` runs ahead of the span and its
        return value reaches ``after``, which runs once the span has ended."""
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        lid = self._label_ids[label]
        stack, clock = self._stack, time.perf_counter
        lab, par, beg, end = self.label, self.parent, self.start, self.end

        def hook(fn, *args, **kwargs):
            # a counter that no longer fits the program is dropped and
            # reported in ``missing``, which fails the benchmark run; the
            # traced program itself goes on
            try:
                return fn(*args, **kwargs)
            except Exception as e:
                if label not in self._broken:
                    self._broken.add(label)
                    self.missing.append(f"{label} counters ({type(e).__name__}: {e})")
                return None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = hook(before, *args, **kwargs) if before is not None else None
            idx = len(lab)
            lab.append(lid)
            par.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            beg.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                hook(after, result, state, *args, **kwargs)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every TARGET that exists; absent ones are listed in ``missing``."""
        import hqmaps.cli  # noqa: F401  (binds the names cli imports)

        hooks = self._hooks()
        for module, attr, label in TARGETS:
            mod = sys.modules.get(module)
            owner, _, name = attr.rpartition(".")
            before, after = hooks.get(label, (None, None))
            if owner:
                cls = getattr(mod, owner, None)
                orig = cls.__dict__.get(name) if isinstance(cls, type) else None
                if orig is None:
                    self.missing.append(f"{module}.{attr}")
                    continue
                setattr(cls, name, self.wrap(label, orig, before, after))
                self._restore.append((cls, name, orig))
                continue
            orig = getattr(mod, name, None)
            if orig is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrapped = self.wrap(label, orig, before, after)
            for m in list(sys.modules.values()):
                if getattr(m, "__name__", "").split(".")[0] != "hqmaps":
                    continue
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
                        self._restore.append((m, key, orig))

    def restore(self) -> None:
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore.clear()

    def _hooks(self) -> dict:
        """Counters taken at the wrapped calls, keyed by span label."""
        means = sys.modules["hqmaps.means"]
        c = self.counts

        def power_series_after(result, state, *args, **kwargs):
            series, z = args[0], _arg(args, kwargs, 1, "z")
            c["analytic.PowerSeries.call.ops"] += np.size(z) * np.size(series.coeffs)

        def points_arg(index, metric):
            def after(result, state, *args, **kwargs):
                c[metric] += np.size(_arg(args, kwargs, index, "z"))
            return after

        def count_arg(index, name, metric):
            def after(result, state, *args, **kwargs):
                c[metric] += int(_arg(args, kwargs, index, name))
            return after

        def mean_pow_after(result, state, *args, **kwargs):
            n, converged = result[1], result[2]
            c["means._mean_pow.doublings"] += round(math.log2(n / means.N_START))
            c["means._mean_pow.unconverged"] += not converged

        def modulus_before(*args, **kwargs):
            F, r, n = (_arg(args, kwargs, i, name) for i, name in enumerate(("F", "r", "n")))
            hit = (F.uid, float(r), int(n)) in getattr(means, "_CACHE", {})
            return hit, int(n), getattr(means, "_CACHE_BYTES", 0)

        def modulus_after(result, state, *args, **kwargs):
            hit, n, bytes_before = state
            bytes_after = getattr(means, "_CACHE_BYTES", 0)
            if hit:
                c["means.circle_modulus.hits"] += 1
            else:
                c["means.circle_modulus.samples_computed"] += n
                c["means.cache.evicted_bytes"] += bytes_before + result.nbytes - bytes_after
            c["means.cache.peak_bytes"] = max(c["means.cache.peak_bytes"], bytes_after)

        def corollary_before(*args, **kwargs):
            key = (
                float(_arg(args, kwargs, 0, "k")),
                float(_arg(args, kwargs, 1, "p")),
                float(_arg(args, kwargs, 2, "r")),
                _arg(args, kwargs, 3, "extremal", "H"),
            )
            return key in getattr(means, "_COROLLARY_CACHE", {})

        def corollary_after(result, hit, *args, **kwargs):
            c["means.corollary_bound.hits"] += hit

        def hardy_after(result, state, *args, **kwargs):
            c["means.hardy_norm_bound.unconverged"] += not result.all_converged

        def curve_after(result, state, *args, **kwargs):
            if result.converged is not None:
                c["means.dyadic_means_curve.dropped_radii"] += int(np.sum(~result.converged))

        def qc_after(result, state, *args, **kwargs):
            f, k = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "k")
            self._qc_pairs.add((f.uid, float(k)))

        return {
            "analytic.PowerSeries.call": (None, power_series_after),
            "analytic.RadialIntegral.circle_values": (
                None, count_arg(2, "n", "analytic.RadialIntegral.circle_values.points")
            ),
            "analytic.ClosedForm.call": (None, points_arg(1, "analytic.ClosedForm.call.points")),
            "means._mean_pow": (None, mean_pow_after),
            "means.circle_modulus": (modulus_before, modulus_after),
            "means.corollary_bound": (corollary_before, corollary_after),
            "means.hardy_norm_bound": (None, hardy_after),
            "means.dyadic_means_curve": (None, curve_after),
            "star.sample_log_modulus": (None, count_arg(2, "n", "star.sample_log_modulus.points")),
            "probes.qc_certify": (None, qc_after),
        }

    # -- results ----------------------------------------------------------

    def _arrays(self):
        return (
            np.array(self.label, dtype=np.int32),
            np.array(self.parent, dtype=np.int32),
            np.array(self.start, dtype=float),
            np.array(self.end, dtype=float),
        )

    def dump(self, path) -> None:
        """Write every span to an .npz file: labels, label, parent, start, end."""
        label, parent, start, end = self._arrays()
        np.savez(path, labels=np.array(self.labels), label=label, parent=parent, start=start, end=end)

    def metrics(self) -> dict:
        """Every PER_LAYER metric plus the total self time of all spans."""
        label, parent, start, end = self._arrays()
        nl = len(self.labels)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_time = np.bincount(label, weights=dur - child, minlength=nl)
        calls = np.bincount(label, minlength=nl)
        # inclusive time counts only spans whose parent carries another label
        outer = ~nested | (label != label[np.where(nested, parent, 0)])
        inclusive = np.bincount(label[outer], weights=dur[outer], minlength=nl)

        out = {}
        for i, name in enumerate(self.labels):
            out[name + ".self_s"] = float(self_time[i])
            out[name + ".s"] = float(inclusive[i])
            out[name + ".calls"] = int(calls[i])
        c = self.counts
        mod_calls = out.get("means.circle_modulus.calls", 0)
        cor_calls = out.get("means.corollary_bound.calls", 0)
        qc_calls = out.get("probes.qc_certify.calls", 0)
        out.update(c)
        out["means.circle_modulus.hit_ratio"] = c["means.circle_modulus.hits"] / mod_calls if mod_calls else 0.0
        out["means.corollary_bound.hit_ratio"] = c["means.corollary_bound.hits"] / cor_calls if cor_calls else 0.0
        out["probes.qc_certify.distinct_ratio"] = len(self._qc_pairs) / qc_calls if qc_calls else 0.0
        out["means.cache.peak_mib"] = c["means.cache.peak_bytes"] / 2**20
        out["means.cache.evicted_mib"] = c["means.cache.evicted_bytes"] / 2**20
        result = {name: out.get(name, 0) for name in PER_LAYER}
        result["trace.self_total_s"] = float(np.sum(dur - child))
        result["trace.spans"] = int(dur.size)
        return result
