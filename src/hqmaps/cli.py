"""Command line front end: means and star curves, growth fits, verification.

Config files are flat key=value text whose entries replace the command's
built-in defaults; command-line flags win over both. All file writes go
through a temp-then-rename step so partially written outputs never appear
under the final name.

Exit codes: 0 success, 1 verification violations, 2 usage errors,
3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from .analytic import DomainError, NonConvergenceError, catalog
from .csvio import csv_lines, parse_rows
from .harmonic import build_corpus, corpus_shear
from .means import MeansCurve, _integral_means_grid
from .star import StarFunction, sample_log_modulus, star_function, star_grid_size
from .svgplot import polyline_svg
from .verify import (
    DEFAULT_DEPTH, K_GRID, MAX_DEPTH, MIN_DEPTH, REL_TOL, SUITES, _json_nested,
    hardy_membership_verdict, run_suite,
)

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

OUT_ENV = "HQMAPS_OUT"

GROWTH_CSV_HEADER = (
    "mapping_id,p,beta,beta_pp,verdict,"
    "threshold_theorem,threshold_nowak,threshold_astala_koskela"
)


class UsageError(ValueError):
    """Malformed invocation; reported on one line and mapped to exit 2."""


# ---------------------------------------------------------------------------
# value parsing shared by flags and config entries; argparse reports a
# ArgumentTypeError under the option's name and exits 2


def _float_list(text: str) -> list:
    try:
        vals = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed number list {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError(f"empty number list {text!r}")
    return vals


def _formats(text: str) -> list:
    out = []
    for fmt in text.split(","):
        fmt = fmt.strip()
        if not fmt:
            continue
        if fmt not in ("csv", "json", "svg"):
            raise argparse.ArgumentTypeError(f"unknown format {fmt!r}; use csv, json, svg")
        out.append(fmt)
    if not out:
        raise argparse.ArgumentTypeError("empty format list")
    return out


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"config key 'stamp': malformed boolean {text!r}")


def _load_config(path: str) -> dict:
    entries = {}
    try:
        fh = open(path)
    except OSError as e:
        raise UsageError(f"cannot read config {path!r}: {e}")
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            entries[key.strip()] = value.strip()
    return entries


def _config_defaults(ns: argparse.Namespace) -> dict:
    """ns.config's entries as defaults for ns.command, keyed by option dest.
    ns, parsed without them, holds every option the command has: no other key."""
    defaults = {}
    for key, raw in _load_config(ns.config).items():
        dest = "cls" if key == "class" else key
        if key in ("cls", "command", "config", "func") or dest not in ns:
            raise UsageError(f"unknown config key {key!r} for command {ns.command!r}")
        # argparse type-converts a string default, but --stamp is store_const
        defaults[dest] = _bool(raw) if key == "stamp" else raw
    return defaults


# ---------------------------------------------------------------------------
# output plumbing


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", text).strip("_") or "target"


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(ns: argparse.Namespace, stem: str, lines: list, doc: dict, series: list, **plot) -> None:
    """Write the csv/json/svg renderings that ns.formats asks for to ns.out/stem.*"""
    base = os.path.join(ns.out, stem)
    if "csv" in ns.formats:
        _write_atomic(base + ".csv", "\n".join(lines) + "\n")
    if "json" in ns.formats:
        _write_atomic(base + ".json", _json_nested(doc, 0) + "\n")
    if "svg" in ns.formats:
        _write_atomic(base + ".svg", polyline_svg(series, **plot))


def read_csv(path: str) -> tuple:
    """(header, rows) with numeric fields parsed; the round-trip reader."""
    with open(path) as fh:
        parsed = parse_rows(fh.read())
    if not parsed:
        raise UsageError(f"{path}: empty CSV")
    header, rows = parsed[0], []
    for line in parsed[1:]:
        row = []
        for fieldtext in line:
            try:
                row.append(float(fieldtext))
            except ValueError:
                row.append(fieldtext)
        rows.append(row)
    return header, rows


# ---------------------------------------------------------------------------
# target selection


_OMEGA_RE = re.compile(r"^([0-9][0-9.eE+-]*)z(\^2)?$")


def parse_shear_spec(spec: str):
    """phi=identity|halfplane|strip with omega=<coeff>z or <coeff>z^2."""
    fields = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"shear spec parts are key=value, got {part!r}")
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in ("phi", "omega"):
            raise UsageError(f"unknown shear key {key!r}")
        fields[key] = value.strip()
    if set(fields) != {"phi", "omega"}:
        raise UsageError("shear spec needs both phi= and omega=")
    m = _OMEGA_RE.match(fields["omega"])
    if m is None:
        raise UsageError(
            f"omega must look like 0.5z or 0.5z^2, got {fields['omega']!r}"
        )
    try:
        kappa = float(m.group(1))
    except ValueError:
        raise UsageError(f"malformed omega coefficient {m.group(1)!r}")
    return corpus_shear(fields["phi"], kappa, 2 if m.group(2) else 1)


def _resolve_target(ns: argparse.Namespace):
    picked = [
        name
        for name in ("catalog", "corpus", "shear")
        if getattr(ns, name, None) is not None
    ]
    if len(picked) != 1:
        # only a command with --catalog has the attribute
        wanted = "--catalog, --corpus, or --shear" if "catalog" in ns else "--corpus or --shear"
        raise UsageError(f"choose exactly one target: {wanted}")
    if picked[0] == "catalog":
        return catalog(ns.catalog, ns.k)
    if picked[0] == "shear":
        return parse_shear_spec(ns.shear)
    members = {f.uid: f for f in build_corpus()}
    if ns.corpus not in members:
        raise UsageError(
            f"unknown corpus id {ns.corpus!r}; available: " + ", ".join(sorted(members))
        )
    return members[ns.corpus]


# ---------------------------------------------------------------------------
# commands


def cmd_means(ns: argparse.Namespace) -> int:
    if ns.r is None:
        raise UsageError("means needs --r (comma-separated radii)")
    r_list = sorted(set(ns.r))
    target = _resolve_target(ns)
    uid = target.uid
    lines = [MeansCurve.csv_header()]
    curves_doc = []
    series = []
    (by_r,) = _integral_means_grid([target], ns.p, r_list)  # one batch of the angular rule
    for p, values in zip(ns.p, map(list, zip(*by_r))):
        curve = MeansCurve(
            p=p, radii=np.array(r_list), values=np.array(values), target=uid
        )
        lines += curve.csv_rows()
        curves_doc.append({"p": p, "r": list(r_list), "value": values})
        series.append((f"p={p:g}", list(r_list), values))
        for r, v in zip(r_list, values):
            print(f"{uid} p={p:g} r={r:g}: M_p = {v:.9g}")
    _emit(
        ns, f"means_{_slug(uid)}", lines, {"target": uid, "curves": curves_doc}, series,
        title=f"integral means of {uid}", xlabel="r", ylabel="M_p(r)", logy=True,
    )
    return EXIT_OK


def cmd_star(ns: argparse.Namespace) -> int:
    if ns.r is None:
        raise UsageError("star needs --r (comma-separated radii)")
    r_list = sorted(set(ns.r))
    target = _resolve_target(ns)
    uid = target.uid
    lines = [StarFunction.csv_header()]
    doc = []
    series = []
    for r in r_list:
        n = star_grid_size(r) if ns.n is None else ns.n
        sf = star_function(sample_log_modulus(target, r, n))
        lines += sf.csv_rows()
        doc.append(
            {"r": r, "n": n, "theta": sf.thetas.tolist(), "value": sf.values.tolist()}
        )
        series.append((f"r={r:g}", sf.thetas.tolist(), sf.values.tolist()))
        print(
            f"{uid} r={r:g}: star peak = {float(np.max(sf.values)):.9g}, "
            f"full mass = {sf.values[-1]:.9g}"
        )
    _emit(
        ns, f"star_{_slug(uid)}", lines, {"target": uid, "curves": doc}, series,
        title=f"star function of log|{uid}|", xlabel="theta",
        ylabel="cumulative rearranged mass",
    )
    return EXIT_OK


def _fmt_threshold(value) -> str:
    return "" if value is None else f"{value:.12g}"


def cmd_growth(ns: argparse.Namespace) -> int:
    f = _resolve_target(ns)
    fields = []
    doc = []
    series = []
    for p in ns.p:
        v = hardy_membership_verdict(f, p, ns.depth)
        thr = v.thresholds
        fields.append(
            [
                v.mapping_id,
                f"{p:.12g}",
                f"{v.beta:.12g}",
                f"{v.beta_pp:.12g}",
                v.verdict,
                _fmt_threshold(thr["theorem"]),
                _fmt_threshold(thr["nowak"]),
                _fmt_threshold(thr["astala_koskela"]),
            ]
        )
        doc.append(
            {
                "mapping_id": v.mapping_id,
                "p": p,
                "beta": v.beta,
                "beta_pp": v.beta_pp,
                "verdict": v.verdict,
                "thresholds": thr,
            }
        )
        mask = v.curve.converged
        series.append(
            (
                f"p={p:g}",
                (1.0 / (1.0 - v.curve.radii[mask])).tolist(),
                v.curve.values[mask].tolist(),
            )
        )
        print(
            f"{v.mapping_id} p={p:g}: {v.verdict} (beta = {v.beta:.4f}, "
            f"theorem threshold {_fmt_threshold(thr['theorem']) or 'n/a'}, "
            f"earlier bound {_fmt_threshold(thr['nowak']) or 'n/a'}, "
            f"distortion-only {_fmt_threshold(thr['astala_koskela']) or 'n/a'})"
        )
    _emit(
        ns, f"growth_{_slug(f.uid)}", [GROWTH_CSV_HEADER] + csv_lines(fields),
        {"target": f.uid, "rows": doc}, series,
        title=f"dyadic means growth of {f.uid}", xlabel="1/(1-r)", ylabel="M_p(r)",
        logx=True, logy=True,
    )
    return EXIT_OK


def cmd_verify(ns: argparse.Namespace) -> int:
    report = run_suite(
        ns.suite, K_grid=tuple(ns.K), tol=ns.tol, depth=ns.depth, class_filter=ns.cls
    )
    if ns.stamp:
        report.metadata["timestamp"] = datetime.now(timezone.utc).isoformat()
    base = os.path.join(ns.out, "verify_report")
    _write_atomic(base + ".json", report.to_json())
    _write_atomic(base + ".csv", report.to_csv())
    failures = report.failures
    print(
        f"{len(report.rows)} rows, {len(failures)} violations -> {base}.json, {base}.csv"
    )
    for line in csv_lines(row.csv_fields() for row in failures[:20]):
        print("FAIL " + line)
    return report.exit_status()


# ---------------------------------------------------------------------------
# parser


def _add_target_flags(sub, with_catalog: bool = True):
    if with_catalog:
        sub.add_argument("--catalog", help="catalog function name")
        sub.add_argument("--k", type=float, default=0.0, help="parameter k of the family")
    sub.add_argument("--corpus", help="built-in corpus member id")
    sub.add_argument("--shear", help='shear spec, e.g. "phi=halfplane,omega=0.5z"')


def build_parser(config: Optional[dict] = None) -> argparse.ArgumentParser:
    """The hqmaps parser; config maps a command to defaults, keyed by option
    dest, that replace its built-in ones (string values are type-converted)."""
    parser = argparse.ArgumentParser(
        prog="hqmaps",
        description="harmonic quasiconformal mapping toolkit: integral means, "
        "star functions, extremal verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shown = argparse.ArgumentDefaultsHelpFormatter  # --help prints each default

    means = sub.add_parser("means", help="integral means along radii", formatter_class=shown)
    _add_target_flags(means)
    means.add_argument("--p", type=_float_list, default="2", help="comma-separated exponents")
    means.add_argument("--r", type=_float_list, help="comma-separated radii in (0,1)")
    means.set_defaults(func=cmd_means)

    star = sub.add_parser(
        "star", help="star function of log-modulus on a circle", formatter_class=shown
    )
    _add_target_flags(star)
    star.add_argument("--r", type=_float_list, help="comma-separated radii in (0,1)")
    star.add_argument(
        "--n", type=int,
        help="samples per circle, a power of two >= 512; None: 2^12, 2^16 at r >= 0.99",
    )
    star.set_defaults(func=cmd_star)

    growth = sub.add_parser(
        "growth", help="dyadic growth fit and membership verdict", formatter_class=shown
    )
    _add_target_flags(growth, with_catalog=False)
    growth.add_argument("--p", type=_float_list, default="0.5", help="comma-separated exponents")
    growth.add_argument(
        "--depth", type=int, default=12, help=f"dyadic depth, {MIN_DEPTH}..{MAX_DEPTH}"
    )
    growth.set_defaults(func=cmd_growth)

    verify = sub.add_parser("verify", help="run the inequality suites", formatter_class=shown)
    verify.add_argument("--suite", default="all", help="one of " + ", ".join(SUITES + ("all",)))
    verify.add_argument("--class", dest="cls", help="corpus filter: convex or ctc")
    verify.add_argument("--K", type=_float_list, default=K_GRID, help="comma-separated K grid")
    verify.add_argument("--tol", type=float, default=REL_TOL, help="relative inequality tolerance")
    verify.add_argument(
        "--depth", type=int, default=DEFAULT_DEPTH,
        help=f"dyadic depth of membership rows, {MIN_DEPTH}..{MAX_DEPTH}",
    )
    verify.add_argument(
        "--stamp", action="store_const", const=True, default=False,
        help="record a wall-clock timestamp (breaks byte determinism)",
    )
    verify.set_defaults(func=cmd_verify)

    out = os.environ.get(OUT_ENV) or "."
    for name, sp in sub.choices.items():
        sp.add_argument("--config", help="flat key=value file of defaults for these flags")
        sp.add_argument("--out", default=out, help=f"output directory; ${OUT_ENV} sets the default")
        if sp is not verify:  # verify always writes verify_report.{json,csv}
            sp.add_argument("--formats", type=_formats, default="csv", help="csv, json, svg")
        sp.set_defaults(**(config or {}).get(name, {}))
    return parser


def main(argv: Optional[list] = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        if ns.config:
            # the config's entries become the command's defaults and the
            # flags parse again over them: flag > config > built-in default
            ns = build_parser({ns.command: _config_defaults(ns)}).parse_args(argv)
        return ns.func(ns)
    except (UsageError, DomainError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except NonConvergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
