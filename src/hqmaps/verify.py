"""Inequality harness: domination sweeps, growth fits, membership verdicts.

Every check produces rows of a common shape (mapping, inequality, parameters,
lhs, rhs, margin) so reports serialize uniformly and reruns are byte-stable.
The means and star rows of g' and of the companions G_k = k z H_k, scrG_k =
k z scrH_k come from those of h', H_k and scrH_k by the map's declared
``dilatation``: only a map that declares none has g' sampled.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .analytic import DomainError, catalog
from .csvio import csv_lines
from .harmonic import HarmonicMap, K_of_k, build_corpus, corpus_manifest, k_of_K
from .means import (
    MAX_DEPTH,
    HardyTail,
    MeansCurve,
    _corollary_bounds,
    _dyadic_means_curves,
    _integral_means_grid,
    dyadic_means_curve,
    hardy_tail,
    loglog_slope,
)
from .probes import qc_certify
from .star import (
    StarFunction,
    sample_log_modulus,
    star_dominates,
    star_function,
    star_grid_size,
)

R_GRID = (0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99)
P_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
K_GRID = (1.0, 1.5, 2.0, 3.0, 5.0)
CUMULATIVE_P_GRID = (1.0, 2.0, 4.0)
CUMULATIVE_R_GRID = (0.5, 0.9, 0.99)
REL_TOL = 1e-6
CLASSIC_TOL = 1e-8
STAR_TOL = 1e-8
MEMBER_BETA = 0.02
DIVERGENT_BETA = 0.05
CERT_TAIL = -0.95
DEFAULT_DEPTH = 13
MIN_DEPTH = 6  # a membership fit takes six converged dyadic radii


class _Family(NamedTuple):
    prefix: str  # of its inequality ids
    tags: frozenset  # any of these makes a map eligible
    companion: str  # the extremal g' is held to
    theorem: float  # Hardy-membership threshold of this work
    nowak: float  # Nowak's earlier threshold
    member_ps: tuple  # where membership rows expect 'member'


# extremal h' family -> its facts, tightest first
_FAMILIES = {
    "H": _Family("convex", frozenset({"convex"}), "G", 1.0, 0.5, (0.9,)),
    "scrH": _Family(
        "ctc",
        frozenset({"close-to-convex", "starlike", "convex-in-one-direction", "convex"}),
        "scrG", 0.5, 1.0 / 3.0, (0.25, 0.45),
    ),
}


class ClassTagError(DomainError):
    """The mapping lacks the class tag an inequality requires."""


class CertificationError(DomainError):
    """The quasiconformal certificate for (f, k) did not pass."""


# ---------------------------------------------------------------------------
# rows and reports


CSV_HEADER = "inequality_id,mapping_id,k,p,r,lhs,rhs,margin,tol,verdict"


@dataclass
class VerificationRow:
    mapping_id: str
    inequality_id: str
    k: float
    p: float
    r: float
    lhs: float
    rhs: float
    tol: float
    detail: dict = field(default_factory=dict)

    def __post_init__(self):
        # numpy scalars become plain str/float, so reports serialize alike
        self.mapping_id, self.inequality_id = str(self.mapping_id), str(self.inequality_id)
        self.k, self.p, self.r = float(self.k), float(self.p), float(self.r)
        self.lhs, self.rhs, self.tol = float(self.lhs), float(self.rhs), float(self.tol)
        self.detail = dict(self.detail or {})

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def verdict(self) -> str:
        return "pass" if self.margin >= -self.tol else "fail"

    def sort_key(self) -> tuple:
        return (self.inequality_id, self.mapping_id, self.k, self.p, self.r)

    def as_dict(self) -> dict:
        return {
            "mapping_id": self.mapping_id,
            "inequality_id": self.inequality_id,
            "k": self.k,
            "p": self.p,
            "r": self.r,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "tol": self.tol,
            "verdict": self.verdict,
            "detail": self.detail,
        }

    def csv_fields(self) -> list:
        """The row's fields in ``CSV_HEADER`` order, numbers to 12 digits."""
        return [
            self.inequality_id,
            self.mapping_id,
            f"{self.k:.12g}",
            f"{self.p:.12g}",
            f"{self.r:.12g}",
            f"{self.lhs:.12g}",
            f"{self.rhs:.12g}",
            f"{self.margin:.12g}",
            f"{self.tol:.12g}",
            self.verdict,
        ]


def _grid_rows(uid, inequality_id, k, ps, rs, lhs, rhs, tol, relative=True) -> list:
    """A row per (r, p) from lhs and rhs, per radius a list by p; the row's
    tolerance is tol times the larger side (at least 1), or tol itself."""
    return [
        VerificationRow(
            uid, inequality_id, k, p, r, a, b, tol * max(abs(a), abs(b), 1.0) if relative else tol
        )
        for r, lhs_r, rhs_r in zip(rs, lhs, rhs) for p, a, b in zip(ps, lhs_r, rhs_r)
    ]


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: float) -> str:
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


_JSON_SCALARS = {
    type(None): lambda v: "null",
    bool: lambda v: "true" if v else "false",
    int: int.__repr__,
    float: _json_float,
    str: encode_basestring_ascii,
}


def _json_nested(value, level: int) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` placed at indent level
    ``level`` (JSON strings hold no raw newline). Lists, and dicts keyed by
    str, are laid out here, a list of finite floats joined from
    ``float.__repr__``; every other value goes to json.dumps, whose
    indenting encoder is pure Python."""
    pad = "\n" + "  " * (level + 1)
    if type(value) is list and value:
        if all(type(x) is float for x in value) and math.isfinite(sum(value)):
            items = map(float.__repr__, value)
        else:
            items = (_json_nested(x, level + 1) for x in value)
        return "[" + pad + ("," + pad).join(items) + pad[:-2] + "]"
    if type(value) is dict and value and all(type(key) is str for key in value):
        items = (f"{encode_basestring_ascii(key)}: {_json_nested(x, level + 1)}"
                 for key, x in sorted(value.items()))
        return "{" + pad + ("," + pad).join(items) + pad[:-2] + "}"
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", pad[:-2])


def _json_value(value) -> str:
    encode = _JSON_SCALARS.get(type(value))
    return encode(value) if encode is not None else _json_nested(value, 4)


def _json_detail(detail: dict) -> str:
    if not detail:
        return "{}"
    try:
        items = [
            f"        {encode_basestring_ascii(key)}: {_json_value(value)}"
            for key, value in sorted(detail.items())
        ]
    except TypeError:  # a key that is no str: json converts or rejects it
        return _json_nested(detail, 3)
    return "{\n" + ",\n".join(items) + "\n      }"


def _json_row(row: VerificationRow) -> str:
    """One element of the report's "rows", keys sorted, at indent level 2."""
    margin = row.margin
    # float.__repr__ is json's spelling of a finite float; the sum is finite
    # only if all seven are (one that overflows takes the slower exact path)
    finite = math.isfinite(row.k + row.p + row.r + row.lhs + row.rhs + margin + row.tol)
    num = float.__repr__ if finite else _json_float
    return (
        "    {\n"
        f'      "detail": {_json_detail(row.detail)},\n'
        f'      "inequality_id": {encode_basestring_ascii(row.inequality_id)},\n'
        f'      "k": {num(row.k)},\n'
        f'      "lhs": {num(row.lhs)},\n'
        f'      "mapping_id": {encode_basestring_ascii(row.mapping_id)},\n'
        f'      "margin": {num(margin)},\n'
        f'      "p": {num(row.p)},\n'
        f'      "r": {num(row.r)},\n'
        f'      "rhs": {num(row.rhs)},\n'
        f'      "tol": {num(row.tol)},\n'
        f'      "verdict": "{row.verdict}"\n'
        "    }"
    )


@dataclass
class VerificationReport:
    rows: list
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.rows = sorted(self.rows, key=VerificationRow.sort_key)

    @property
    def failures(self) -> list:
        return [row for row in self.rows if row.verdict != "pass"]

    def to_json(self) -> str:
        """The report as ``json.dumps({"metadata": ..., "rows": [row.as_dict()
        ...]}, sort_keys=True, indent=2) + "\\n"`` writes it, byte for byte,
        NaN and infinities included, with each row filled into a template."""
        rows = ",\n".join(map(_json_row, self.rows))
        return (
            f'{{\n  "metadata": {_json_nested(self.metadata, 1)},\n  "rows": '
            + (f"[\n{rows}\n  ]" if rows else "[]")
            + "\n}\n"
        )

    def to_csv(self) -> str:
        return "\n".join([CSV_HEADER] + csv_lines(row.csv_fields() for row in self.rows)) + "\n"

    def exit_status(self) -> int:
        return 0 if not self.failures else 1


# ---------------------------------------------------------------------------
# preconditions


def _families_of(f: HarmonicMap, families) -> list:
    """The extremal families in families, in order, whose tags f carries."""
    if not set(families) <= _FAMILIES.keys():
        raise DomainError(f"extremal must be 'H' or 'scrH', got {list(families)!r}")
    return [e for e in families if _FAMILIES[e].tags & f.class_tags]


def _require_tags(f: HarmonicMap, extremal: str) -> str:
    """Return the inequality-id prefix for the extremal family, or raise."""
    if not _families_of(f, [extremal]):
        raise ClassTagError(
            f"{f.uid}: comparison against the {extremal} extremal needs one of the "
            f"tags {sorted(_FAMILIES[extremal].tags)}"
        )
    return _FAMILIES[extremal].prefix


def _require_certificate(f: HarmonicMap, k: float):
    cert = qc_certify(f, k)
    if not cert.ok:
        raise CertificationError(
            f"{f.uid}: sup|g'/h'| = {cert.sup_dilatation:.6f} is not certified at k = {k:g}"
        )
    return cert


def _checked_pairs(f: HarmonicMap, pairs) -> list:
    """(prefix, extremal, k) for every (extremal, k) in pairs, once the tags
    and the certificate at the least k have passed: its sup|g'/h'| does not
    depend on k, so it passes at every larger k too."""
    checked = [(_require_tags(f, extremal), extremal, k) for extremal, k in pairs]
    if checked:
        _require_certificate(f, min(k for _, _, k in checked))
    return checked


def _check_depth(depth: int) -> None:
    if not MIN_DEPTH <= depth <= MAX_DEPTH:
        raise DomainError(f"depth must lie in {MIN_DEPTH}..{MAX_DEPTH}, got {depth}")


def _k_values(f: HarmonicMap, K_grid: Sequence[float] = K_GRID) -> list:
    """Own declared k plus every grid k at or above it; [] if not QC."""
    if f.qc_k is None or f.qc_k >= 1.0:
        return []
    grid = {round(k_of_K(K), 12) for K in K_grid}
    return sorted({float(f.qc_k)} | {k for k in grid if k >= f.qc_k - 1e-12})


# ---------------------------------------------------------------------------
# inequality checks


def check_means_domination(
    f: HarmonicMap,
    extremal: str,
    k: float,
    p_grid: Sequence[float] = P_GRID,
    r_grid: Sequence[float] = R_GRID,
) -> list:
    """Rows for M_p(r, h') vs the extremal and M_p(r, g') vs its companion."""
    return _means_rows([(f, _checked_pairs(f, [(extremal, k)]))], p_grid, r_grid, REL_TOL)


def _means_rows(groups, p_grid, r_grid, tol) -> list:
    """``check_means_domination`` for every map f and (prefix, extremal, k)
    in checked, for each (f, checked) in groups. Only each h' and each
    extremal, once per (name, k), take the adaptive angular rule, all in one
    batch over r_grid and p_grid; g' = kappa z^m h' and G_k = k z H_k have
    kappa r^m and k r times their means (g' joins the batch when f declares
    no dilatation)."""
    groups = [(f, checked) for f, checked in groups if checked]
    extremals = list(dict.fromkeys((e, k) for _, checked in groups for _, e, k in checked))
    targets = [f.h_prime for f, _ in groups] + [f.g_prime for f, _ in groups if f.dilatation is None]
    targets += [catalog(e, k) for e, k in extremals]
    means = iter(_integral_means_grid(targets, p_grid, r_grid, 1e-8))
    lhs_h = [next(means) for _ in groups]
    lhs_g = [next(means) if f.dilatation is None else _times_monomial(lhs, r_grid, *f.dilatation)
             for (f, _), lhs in zip(groups, lhs_h)]
    rhs_h = dict(zip(extremals, means))
    rows = []
    for (f, checked), h, g in zip(groups, lhs_h, lhs_g):
        for side, lhs in (("hprime", h), ("gprime", g)):
            for prefix, extremal, k in checked:
                rhs = rhs_h[extremal, k]
                if side == "gprime":
                    rhs = _times_monomial(rhs, r_grid, k, 1)
                rows += _grid_rows(f.uid, f"means-{prefix}-{side}", k, p_grid, r_grid, lhs, rhs, tol)
    return rows


def _times_monomial(means, r_grid, kappa: float, m: int) -> list:
    """The means of kappa z^m F, per radius a list by p, from those of F."""
    return [[kappa * r**m * v for v in means_r] for r, means_r in zip(r_grid, means)]


def check_star_chain(
    f: HarmonicMap,
    k: float,
    r: float,
    extremal: Optional[str] = None,
) -> list:
    """Star-function domination of log|h'| (and log|g'|) by the extremal pair.

    Pointwise on the star grid this is strictly stronger than any single
    means comparison. Rows carry p = 0 as a sentinel; lhs is the largest
    violation, so margin = -lhs.
    """
    if extremal is None:
        # the tightest family f's tags allow; an untagged map fails on scrH's
        extremal = (_families_of(f, _FAMILIES) or ["scrH"])[0]
    return _star_rows(f, _checked_pairs(f, [(extremal, k)]), r, {})


def _star_rows(f, checked, r, extremal_stars: dict) -> list:
    """``check_star_chain`` at radius r for every (prefix, extremal, k) in
    checked, whose tags and certificates have passed. Only h' and each
    extremal, kept in extremal_stars under (name, k) for the maps that share
    it at r, are sampled: log|g'| and log|G_k| differ from log|h'| and
    log|H_k| by constants (g' is sampled when f declares no dilatation)."""
    if not checked:
        return []
    n = star_grid_size(r)
    star_h = star_function(sample_log_modulus(f.h_prime, r, n))
    star_g = None
    rows = []
    for prefix, extremal, k in checked:
        if (extremal, k) not in extremal_stars:
            E = catalog(extremal, k)
            extremal_stars[extremal, k] = star_function(sample_log_modulus(E, r, n))
        sides = [("hprime", star_h, extremal)]
        # the companion row needs log|g'|; skip it when g vanishes identically
        if k > 0 and not f.is_analytic():
            if star_g is None:
                star_g = (
                    star_function(sample_log_modulus(f.g_prime, r, n)) if f.dilatation is None
                    else _plus_log_monomial(star_h, *f.dilatation)
                )
            companion = _FAMILIES[extremal].companion
            if (companion, k) not in extremal_stars:
                extremal_stars[companion, k] = _plus_log_monomial(extremal_stars[extremal, k], k, 1)
            sides.append(("gprime", star_g, companion))
        for side, star_f, name in sides:
            # every star function on this n-point grid shares its thetas
            star_E = StarFunction(star_f.thetas, extremal_stars[name, k].values)
            scale = max(1.0, float(np.max(np.abs(star_E.values))))
            v = star_dominates(star_f, star_E, tol=STAR_TOL * scale)
            rows.append(
                VerificationRow(
                    f.uid, f"star-{prefix}-{side}", k, 0.0, r,
                    v.max_violation, 0.0, STAR_TOL * scale,
                    detail={"n": n, "at_theta": float(v.theta_at_max)},
                )
            )
    return rows


def _plus_log_monomial(star: StarFunction, kappa: float, m: int) -> StarFunction:
    """The star function of log|kappa z^m F| from that of log|F|: each sample gains
    c = log(kappa rho^m), rho = star.radius, so node theta_j, j cells, gains 2 theta_j c."""
    c = math.log(kappa * star.radius**m)
    return StarFunction(star.thetas, star.values + (2.0 * c) * star.thetas, radius=star.radius)


# ---------------------------------------------------------------------------
# growth and membership


def growth_exponent(curve: MeansCurve) -> float:
    """Least-squares slope of log M vs -log(1-r) over the last 6 dyadic radii."""
    radii = np.asarray(curve.radii, dtype=float)
    if radii.size < 6:
        raise DomainError("growth fit needs at least six dyadic radii")
    js = np.log2(1.0 / (1.0 - radii))
    if float(np.max(np.abs(js - np.round(js)))) > 1e-9:
        raise DomainError("growth fit needs radii of the form 1 - 2**-j")
    return loglog_slope(1.0 - radii[-6:], np.asarray(curve.values, dtype=float)[-6:])


def _thresholds(f: HarmonicMap) -> dict:
    """Membership thresholds for context: this work, the earlier unconditioned
    bounds, and the distortion-only bound 1/(2K)."""
    family = next((_FAMILIES[e] for e in _families_of(f, _FAMILIES)), None)
    theorem, nowak = (family.theorem, family.nowak) if family else (None, None)
    ak = 1.0 / (2.0 * K_of_k(f.qc_k)) if f.qc_k is not None and f.qc_k < 1.0 else None
    return {"theorem": theorem, "nowak": nowak, "astala_koskela": ak}


@dataclass
class MembershipVerdict:
    mapping_id: str
    p: float
    verdict: str  # member | divergent | inconclusive
    beta: float  # fitted exponent of M_p over converged dyadic radii
    beta_pp: float  # same fit for M_p^p, i.e. p * beta
    cauchy: bool
    certificate: Optional[HardyTail]
    thresholds: dict
    curve: MeansCurve


def hardy_membership_verdict(
    f: HarmonicMap, p: float, depth: int = DEFAULT_DEPTH, curve: Optional[MeansCurve] = None
) -> MembershipVerdict:
    """Classify boundedness of M_p(r, f) as r -> 1.

    Order of evidence: a flat fitted exponent together with a Cauchy-like
    increment tail certifies membership outright; otherwise, for p < 1, the
    ``hardy_tail`` fit of the weighted h'-integrand at six radii decides (it
    must beat exponent -1 with margin); only then does a steep exponent mean divergent.
    The fit uses converged radii only: M_p comes from the adaptive angular
    rule, which converges at all 13 default radii for every corpus map, and
    a radius where it fails its check is dropped, so verdicts rest on
    trustworthy data. ``curve``, if given, is f's curve at p, depth.
    """
    if not (0.0 < p < math.inf):
        raise DomainError(f"p must lie in (0, inf), got {p}")
    _check_depth(depth)
    if curve is None:
        curve = dyadic_means_curve(f, p, depth)
    radii = curve.radii[curve.converged]
    vals = curve.values[curve.converged]
    if vals.size < MIN_DEPTH:
        raise DomainError(
            f"{f.uid}: only {vals.size} converged dyadic radii at p = {p}; "
            "increase depth"
        )
    beta = growth_exponent(MeansCurve(p=p, radii=radii, values=vals, target=curve.target))

    rel_inc = np.diff(vals) / vals[1:]
    tail = rel_inc[-2:]
    literal = bool(np.all(np.abs(tail) < 1e-4))
    flat = bool(tail[-1] <= 1e-12)
    geometric = bool(tail[0] > 0 and 0 < tail[1] <= 0.97 * tail[0])
    cauchy = literal or flat or geometric

    verdict = None
    certificate = None
    if abs(beta) < MEMBER_BETA and cauchy:
        verdict = "member"
    elif p < 1.0:
        certificate = hardy_tail(f, p)
        if not certificate.divergent and certificate.tail_exponent > CERT_TAIL:
            verdict = "member"
    if verdict is None:
        verdict = "divergent" if beta > DIVERGENT_BETA else "inconclusive"
    return MembershipVerdict(
        mapping_id=f.uid,
        p=float(p),
        verdict=verdict,
        beta=beta,
        beta_pp=float(p * beta),
        cauchy=cauchy,
        certificate=certificate,
        thresholds=_thresholds(f),
        curve=curve,
    )


def membership_row(
    f: HarmonicMap, p: float, expected: str, depth: int = DEFAULT_DEPTH,
    curve: Optional[MeansCurve] = None,
) -> VerificationRow:
    """Pattern row: lhs is 0/1 mismatch against the expected verdict."""
    v = hardy_membership_verdict(f, p, depth, curve)
    detail = {
        "expected": expected,
        "actual": v.verdict,
        "beta": v.beta,
        "beta_pp": v.beta_pp,
        "cauchy": v.cauchy,
        "threshold_theorem": v.thresholds["theorem"],
        "threshold_nowak": v.thresholds["nowak"],
        "threshold_astala_koskela": v.thresholds["astala_koskela"],
        "certificate_tail": (
            v.certificate.tail_exponent if v.certificate is not None else None
        ),
        "certificate_converged": (
            v.certificate.all_converged if v.certificate is not None else None
        ),
        "converged_radii": int(np.sum(v.curve.converged)),
    }
    k, r = f.qc_k if f.qc_k is not None else 1.0, v.curve.radii[-1]
    lhs = 0.0 if v.verdict == expected else 1.0
    return VerificationRow(f.uid, "membership-hardy", k, p, r, lhs, 0.0, 0.5, detail)


# ---------------------------------------------------------------------------
# suites


def suite_means(corpus, K_grid=K_GRID, tol=REL_TOL, families=tuple(_FAMILIES)):
    """Means domination rows for every tagged map, from one batch of the
    angular rule for every map's h' (and g' where it declares no
    dilatation) and every extremal (name, k) once."""
    groups = [
        (f, _checked_pairs(f, [(e, k) for e in _families_of(f, families) for k in _k_values(f, K_grid)]))
        for f in corpus
    ]
    return _means_rows(groups, P_GRID, R_GRID, tol)


def suite_star(corpus, r_grid=R_GRID, K_grid=K_GRID, families=tuple(_FAMILIES)):
    """Star-chain rows for every tagged map, each map certified once.
    Radii run outermost: at each radius a map's star functions serve all its
    (extremal, k) pairs, and each extremal's is computed once per (name, k)
    and dropped when the radius moves on."""
    groups = []
    for f in corpus:
        pairs = [(e, k) for e in _families_of(f, families) for k in _k_values(f, K_grid)]
        groups.append((f, _checked_pairs(f, pairs)))
    rows = []
    for r in r_grid:
        extremal_stars = {}
        for f, checked in groups:
            rows += _star_rows(f, checked, r, extremal_stars)
    return rows


def suite_cumulative(corpus, tol=REL_TOL, families=tuple(_FAMILIES)):
    """M_p(r, f) against (1+k) int_0^r M_p(s, extremal) ds at the map's own k.

    Each member is held to the first family in families whose tags it
    carries, so by default convex members meet the tighter convex-family
    bound; a member with none of their tags gets no row.
    Members with the same k share their bounds, so each distinct one is
    computed once: at each r one radius-line integral, whose vector
    integrand covers every distinct bound and the whole p grid. The
    members' means take one batch of the adaptive angular rule.
    """
    p_grid, r_grid = CUMULATIVE_P_GRID, CUMULATIVE_R_GRID
    members = []  # (f, extremal, k)
    for f in corpus:
        eligible = _families_of(f, families)
        if f.qc_k is None or f.qc_k >= 1.0 or not eligible:
            continue
        _require_certificate(f, float(f.qc_k))
        members.append((f, eligible[0], float(f.qc_k)))
    if not members:
        return []
    pairs = list(dict.fromkeys((extremal, k) for _, extremal, k in members))
    bounds = dict(zip(pairs, zip(*(_corollary_bounds(pairs, p_grid, r) for r in r_grid))))
    lhs = _integral_means_grid([f for f, _, _ in members], p_grid, r_grid, 1e-8)
    rows = []
    for (f, extremal, k), lhs_f in zip(members, lhs):
        inequality = f"cumulative-bound-{_FAMILIES[extremal].prefix}"
        rows += _grid_rows(f.uid, inequality, k, p_grid, r_grid, lhs_f, bounds[extremal, k], tol)
    return rows


def suite_classic(corpus):
    """Analytic starlike members against the slit-plane extremal and its
    derivative, all from one batch of the angular rule; tolerance is
    absolute by contract."""
    members = [f for f in corpus if {"analytic", "starlike"} <= f.class_tags]
    if not members:
        return []
    K = catalog("koebe")
    targets = [K] + [f.h for f in members] + [K.derivative_function()] + [f.h_prime for f in members]
    means = iter(_integral_means_grid(targets, P_GRID, R_GRID, 1e-9))
    rows = []
    for inequality in ("means-classic-koebe", "means-classic-koebe-deriv"):
        rhs = next(means)
        for f, lhs in zip(members, means):  # zip stops at the last member
            rows += _grid_rows(
                f.uid, inequality, 0, P_GRID, R_GRID, lhs, rhs, CLASSIC_TOL, relative=False
            )
    return rows


def suite_membership(corpus, depth=DEFAULT_DEPTH):
    """Expected verdict pattern: QC close-to-convex members below 1/2, QC
    convex-certified members below 1, the non-QC contrast case divergent.
    The maps that expect verdicts at the same p take one batch of adaptive
    means for their curves at all those p."""
    groups = {}  # expected (p, verdict) pairs -> the maps that expect them
    for f in corpus:
        if f.uid == "harmonic-koebe":
            expected = ((0.4, "divergent"),)
        elif f.qc_k is not None and f.qc_k < 1.0:
            ps = {p for e in _families_of(f, _FAMILIES) for p in _FAMILIES[e].member_ps}
            expected = tuple((p, "member") for p in sorted(ps))
        else:
            continue
        groups.setdefault(expected, []).append(f)
    rows = []
    for expected, maps in groups.items():
        for f, curves in zip(maps, _dyadic_means_curves(maps, [p for p, _ in expected], depth)):
            rows += [membership_row(f, p, v, depth, c) for (p, v), c in zip(expected, curves)]
    return rows


SUITES = ("means", "star", "cumulative", "classic", "membership")


def run_suite(
    name: str = "all",
    corpus: Optional[list] = None,
    K_grid: Sequence[float] = K_GRID,
    tol: float = REL_TOL,
    depth: int = DEFAULT_DEPTH,
    class_filter: Optional[str] = None,
) -> VerificationReport:
    """Assemble the named suite (or all of them) into one report.

    A class filter ('convex', or 'ctc' alias 'close-to-convex') picks one
    extremal family: the corpus narrows to the maps whose tags admit it,
    every suite holds them to it alone, and the suites whose statements
    concern the other classes drop out.
    """
    if name == "all":
        # a class filter means "the rows about that family's theorem and
        # corollary"; the proof-mechanism and classifier suites stay out
        names = ("means", "cumulative") if class_filter is not None else SUITES
    else:
        names = (name,)
    for nm in names:
        if nm not in SUITES:
            raise DomainError(f"unknown suite {nm!r}; choose from " + ", ".join(SUITES + ("all",)))
    filters = {"convex": ("H",), "ctc": ("scrH",), "close-to-convex": ("scrH",)}
    if class_filter is not None and class_filter not in filters:
        raise DomainError(f"unknown class filter {class_filter!r}; use 'convex' or 'ctc'")
    families = filters.get(class_filter, tuple(_FAMILIES))
    # checked for every suite, since the metadata records them
    _check_depth(depth)
    for K in K_grid:
        k_of_K(K)
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"tol must be finite and >= 0, got {tol:g}")
    if corpus is None:
        corpus = build_corpus()
    if class_filter is not None:
        corpus = [f for f in corpus if _families_of(f, families)]
    rows = []
    if "means" in names:
        rows += suite_means(corpus, K_grid, tol, families=families)
    if "star" in names:
        rows += suite_star(corpus, K_grid=K_grid, families=families)
    if "cumulative" in names:
        rows += suite_cumulative(corpus, tol=tol, families=families)
    if "classic" in names and class_filter is None:
        rows += suite_classic(corpus)
    if "membership" in names and class_filter is None:
        rows += suite_membership(corpus, depth)
    metadata = {
        "corpus_hash": hashlib.sha256(corpus_manifest(corpus).encode()).hexdigest(),
        "corpus_size": len(corpus),
        "grid": {"p": list(P_GRID), "r": list(R_GRID), "K": list(K_grid)},
        "tolerances": {
            "inequality_rel": tol,
            "star_rel": STAR_TOL,
            "classic_abs": CLASSIC_TOL,
            "membership_beta": [MEMBER_BETA, DIVERGENT_BETA],
            "certificate_tail": CERT_TAIL,
        },
        "depth": depth,
        "suites": list(names),
        "class_filter": class_filter,
        "timestamp": None,
    }
    return VerificationReport(rows=rows, metadata=metadata)
