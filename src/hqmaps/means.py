"""Integral means, sup-means, and the integral bounds built from them.

The p-mean M_p(r, F) = ((1/2pi) int |F(r e^{i theta})|^p dtheta)^{1/p} is
computed by the periodic trapezoid rule with grid doubling; the integrand is
smooth and periodic for r < 1, so convergence is geometric with a rate set by
the distance from the nearest singularity to the sampled circle. Circle
samples are point values for every target, so the grid levels of a doubling
chain nest: each level keeps the one below and evaluates only the new
midpoints. Nothing is kept between calls; a caller asks for its whole p grid
and all its radii at once, and the chains of all the radii advance together,
each serving every p, the target evaluated once per level.

That distance is about 1 - r, so near the boundary the trapezoid needs about
1/(1 - r) samples. The Hardy-norm certificate, the boundary-kernel integral
and the dyadic means curves behind the membership verdicts therefore use
Gauss-Legendre panels in theta, graded geometrically toward the singular
directions that a target declares (a ``ClosedForm`` directly, a radial
integral through its integrand, a harmonic map when both components do,
plus the radius-dependent ``dip_angles`` of harmonic Koebe); two grading
depths are compared to judge convergence, a radius where they disagree is
run once more at twice the depth, and the target is evaluated once on the
nodes of many radii for a whole p grid. A target that declares no direction
stays on the trapezoid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .analytic import (
    RADIUS_CAP,
    AnalyticFunction,
    ClosedForm,
    DomainError,
    NonConvergenceError,
    catalog,
    circle_values,
    gauss_panels,
    graded_breaks,
    graded_integral,
    unit_circle,
)
from .csvio import join_row
from .harmonic import HarmonicMap

Evaluable = Union[AnalyticFunction, HarmonicMap]

N_START = 2**9
N_MAX = 2**20
HARDY_CUTOFF_EXP = 16  # improper r-integrals stop at 1 - 2**-16


def circle_modulus(F: Evaluable, r: float, n: int, half: Optional[np.ndarray] = None) -> np.ndarray:
    """|F| sampled on the uniform n-point circle grid at radius r.

    Grid levels nest for every target: handed ``half``, the level n/2 that a
    doubling chain holds, level n keeps it and evaluates F only at the n/2
    midpoints; without it the level comes from ``circle_values``. A chain
    thus takes one whole-circle pass, at its first level.
    """
    return np.abs(circle_values(F, float(r), int(n))) if half is None else _next_level(F, r, half)


def _next_level(F: Evaluable, r, half: np.ndarray) -> np.ndarray:
    """The level of twice the points of ``half`` at radius r, or at each of an
    array of radii, a row of ``half`` each: F runs once, on the midpoints."""
    n = 2 * half.shape[-1]
    midpoints = np.abs(F(np.multiply.outer(r, unit_circle(n, 1, 2))))
    return np.stack((half, midpoints), axis=-1).reshape(half.shape[:-1] + (n,))


def _mean_pow_grid(F: Evaluable, ps, rs, rel_tol: float = 1e-9, n_max: int = N_MAX) -> list:
    """``_mean_pow`` for every p in ps at every r in rs: per radius, a list of
    results by p. The doubling chains of all radii advance together, F
    running once per level on the radii not yet converged for every p, until
    none is left or n reaches n_max. Each p keeps the first level that agrees
    with the level below: bitwise what its own chain at its own radius gives.
    """
    rs = np.asarray(rs, dtype=float)
    n, level = N_START, np.abs(circle_values(F, rs, N_START))
    first = zip(*(np.mean(level**p, axis=1).tolist() for p in ps))
    out = [[(v, n, False, (v, v)) for v in row] for row in first]
    live = list(range(rs.size))
    while n < n_max:
        keep = [j for j, i in enumerate(live) if not all(res[2] for res in out[i])]
        if not keep:
            break
        live, n = [live[j] for j in keep], 2 * n
        level = _next_level(F, rs[live], level[keep])
        for j, p in enumerate(ps):
            for i, cur in zip(live, np.mean(level**p, axis=1).tolist()):
                if not out[i][j][2]:
                    prev = out[i][j][0]
                    out[i][j] = (cur, n, abs(cur - prev) <= rel_tol * abs(cur), (prev, cur))
    return out


def _mean_pow(
    F: Evaluable,
    p: float,
    r: float,
    rel_tol: float = 1e-9,
    n_max: int = N_MAX,
):
    """Raw power mean (1/2pi) int |F|^p dtheta with doubling; p may be negative.

    Returns (value, n, converged, last_two); last_two are the values at the
    last two grid sizes, n/2 and n.
    """
    return _mean_pow_grid(F, (p,), (r,), rel_tol, n_max)[0][0]


def integral_means(
    F: Evaluable,
    p: float,
    r: float,
    rel_tol: float = 1e-9,
    n_max: int = N_MAX,
) -> float:
    """M_p(r, F) by periodic trapezoid sums with grid doubling.

    Doubles from n = 2**9 until the successive relative change drops below
    rel_tol; hitting n_max raises, with the last two iterates attached.
    """
    return _integral_means_grid(F, (p,), (r,), rel_tol, n_max)[0][0]


def _integral_means_grid(F: Evaluable, ps, rs, rel_tol: float = 1e-9, n_max=N_MAX) -> list:
    """``integral_means`` for every p in ps at every r in rs, per radius a
    list by p, from the doubling chains of ``_mean_pow_grid``."""
    for p in ps:
        if not (0 < p < math.inf):
            raise DomainError(f"p must lie in (0, inf), got {p}")
    for r in rs:
        if not (0 < r <= RADIUS_CAP):
            raise DomainError(f"r must lie in (0, {RADIUS_CAP}], got {r}")
    out = []
    for r, results in zip(rs, _mean_pow_grid(F, ps, rs, rel_tol, n_max)):
        for p, (value, n, converged, last_two) in zip(ps, results):
            if not converged:
                raise NonConvergenceError(
                    f"trapezoid means for {F.uid} at p={p}, r={r} hit n={n}",
                    last_two=tuple(v ** (1.0 / p) for v in last_two),
                )
        out.append([value ** (1.0 / p) for p, (value, *_) in zip(ps, results)])
    return out


def sup_mean(F: Evaluable, r: float) -> float:
    """M_inf(r, F): grid max refined by golden-section on the best cell."""
    if not (0 < r <= RADIUS_CAP):
        raise DomainError(f"r must lie in (0, {RADIUS_CAP}], got {r}")
    n = 2**12
    theta = (2.0 * np.pi / n) * np.arange(n)
    vals = np.abs(F(r * np.exp(1j * theta)))
    i = int(np.argmax(vals))
    a = theta[i] - 2.0 * np.pi / n
    b = theta[i] + 2.0 * np.pi / n

    invphi = (math.sqrt(5.0) - 1.0) / 2.0

    def fval(t: float) -> float:
        return float(np.abs(F(r * np.exp(1j * t))))

    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fval(c), fval(d)
    while b - a > 1e-10:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fval(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fval(d)
    return max(float(vals[i]), fc, fd)


# ---------------------------------------------------------------------------
# graded quadrature in the angle


def _angular_breaks(angles, depth: int) -> np.ndarray:
    """Panel ends a +- pi 2^-j, j = 0..depth, of every angle a, over one period.

    The breakpoints of all angles are merged; coincident ones (closer than
    1e-12, far below the smallest panel) are kept once. The last entry is
    the first plus 2 pi.
    """
    a = np.asarray(angles, dtype=float)[:, None]
    ends = graded_breaks(a + np.array([-np.pi, np.pi]), a, depth)  # by angle, then side
    ends = np.sort(np.mod(ends, 2.0 * np.pi), axis=None)
    ends = ends[np.diff(ends, append=ends[0] + 2.0 * np.pi) > 1e-12]
    return np.append(ends, ends[0] + 2.0 * np.pi)


def _graded_mean_pows(F: Evaluable, ps, rs, rel_tol: float) -> list:
    """Raw power means (1/2pi) int |F(r e^{i theta})|^p dtheta for every p in
    ps at every r in rs on panels graded toward the directions F declares:
    ``singular_angles``, and at each radius those its ``dip_angles`` give.

    At r, panels halve toward each direction down to width pi 2^-J <= 1 - r,
    J = ceil(log2(pi/(1 - r))), under 16 nodes each; a second rule two levels
    deeper takes 24. The finer value is kept, and r counts as converged when
    the two agree to rel_tol. A radius where they disagree is run once more
    at depth 2J, panels about (1 - r)^2 wide, and that run's check is its
    flag, for each p apart. |F| is taken once on the nodes of all radii and
    both rules, per 2^20 points, and once more for the radii run again; each
    p only raises it to its power. Undeclared targets take the trapezoid
    chains of ``_mean_pow_grid``. Returns, per radius, (value, nodes,
    converged, last_two) by p, like ``_mean_pow``; p may be < 0.
    """
    angles = getattr(F, "singular_angles", None)
    if not angles:
        return _mean_pow_grid(F, ps, rs, rel_tol)
    dips = getattr(F, "dip_angles", None)
    depths = [math.ceil(math.log2(math.pi / (1.0 - r))) for r in rs]
    keys = [(J, angles + tuple(d)) for J, d in zip(depths, dips(rs) if dips else [()] * len(rs))]
    out = _graded_batch(F, ps, rs, keys, rel_tol)
    again = [i for i, res in enumerate(out) if not all(converged for _, _, converged, _ in res)]
    deeper = [(2 * keys[i][0], keys[i][1]) for i in again]
    for i, res in zip(again, _graded_batch(F, ps, [rs[i] for i in again], deeper, rel_tol)):
        out[i] = [old if old[2] else new for old, new in zip(out[i], res)]
    return out


def _graded_batch(F: Evaluable, ps, rs, keys, rel_tol: float) -> list:
    """The two graded rules for every p in ps at every r in rs, keys[i] =
    (depth, directions) of rs[i]; radii of one key share their panels, and
    F is evaluated once per 2^20 points."""
    rules = {}  # key: the unit points of both rules, then each rule's weights
    for J, directions in set(keys):
        (t16, w16), (t24, w24) = (
            gauss_panels(_angular_breaks(directions, J + d), 16 + 4 * d) for d in (0, 2)
        )
        rules[J, directions] = (np.exp(1j * np.concatenate((t16, t24))), w16, w24)
    ends = np.cumsum([rules[key][0].size for key in keys])
    out = []
    for _, piece in itertools.groupby(range(len(rs)), key=lambda i: (ends[i] - 1) // 2**20):
        piece = list(piece)
        mods = np.abs(F(np.concatenate([rs[i] * rules[keys[i]][0] for i in piece])))
        pows = [mods**p for p in ps]
        for i in piece:
            unit, w16, w24 = rules[keys[i]]
            coarse = [float(w16 @ vals[: w16.size]) / (2.0 * np.pi) for vals in pows]
            fine = [float(w24 @ vals[w16.size : unit.size]) / (2.0 * np.pi) for vals in pows]
            out.append([(f, w24.size, abs(f - c) <= rel_tol * abs(f), (c, f))
                        for c, f in zip(coarse, fine)])
            pows = [vals[unit.size :] for vals in pows]
    return out


def _graded_mean_pow(F: Evaluable, p: float, r: float, rel_tol: float):
    """``_graded_mean_pows`` at the one p and radius r."""
    return _graded_mean_pows(F, (p,), (r,), rel_tol)[0][0]


def corollary_bound(k: float, p: float, r: float, extremal: str = "H") -> float:
    """(1 + k) * int_0^r M_p(s, E_k) ds for E in {H, scrH}.

    The precondition p >= 1 mirrors the Minkowski step the bound rests on;
    smaller p is a domain error by contract.
    """
    return float(_corollary_bounds(k, (p,), r, extremal)[0])


def _corollary_bounds(k: float, ps, r: float, extremal: str = "H") -> np.ndarray:
    """``corollary_bound`` for every p in ps from one vector integrand on shared
    radius-line panels; the new nodes of each depth run their chains together."""
    if min(ps) < 1:
        raise DomainError(f"cumulative bound requires p >= 1, got {min(ps)}")
    if not (0.0 <= k < 1.0):
        raise DomainError(f"k must lie in [0, 1), got {k}")
    if extremal not in ("H", "scrH"):
        raise DomainError(f"extremal must be 'H' or 'scrH', got {extremal!r}")
    if not (0 < r <= RADIUS_CAP):
        raise DomainError(f"r must lie in (0, {RADIUS_CAP}], got {r}")
    E = catalog(extremal, k)
    means = {}  # radius node: M_p there by p; each depth keeps the panels of the one before

    def integrand(s: np.ndarray) -> np.ndarray:
        new = [x for x in dict.fromkeys(map(float, s)) if x not in means]
        means.update(zip(new, _integral_means_grid(E, ps, new, rel_tol=1e-8)))
        return np.array([means[x] for x in map(float, s)])

    return (1.0 + k) * graded_integral(integrand, 0.0, r, 8, 1e-7)


def lemmaF_integral(p: float, r: float) -> float:
    """int_0^{2pi} dtheta / |1 - r e^{i theta}|^p, no normalization.

    The graded angular rule resolves the kernel's one singular direction,
    theta = 0, at every admitted radius; its two rules must agree to 1e-10.
    """
    if p <= 1:
        raise DomainError(f"the boundary-kernel integral needs p > 1, got {p}")
    if not (0 <= r < 1.0 - 2.0**-20):
        raise DomainError(f"r must lie in [0, 1 - 2^-20), got {r}")
    if r == 0:
        return 2.0 * math.pi
    one_minus = ClosedForm("one-minus-z", lambda z: 1.0 - z, singular_angles=(0.0,))
    value, _, converged, last_two = _graded_mean_pow(one_minus, -p, r, rel_tol=1e-10)
    if not converged:
        raise NonConvergenceError(
            f"boundary-kernel integral stalled at p={p}, r={r}", last_two=last_two
        )
    return 2.0 * math.pi * value


def lemmaF_ratio(p: float, r: float) -> float:
    """The integral normalized by its predicted growth (1-r)^{1-p}."""
    return lemmaF_integral(p, r) * (1.0 - r) ** (p - 1.0)


def envelope_ratio(k: float, p: float, r: float, extremal: str = "H") -> float:
    """M_p(r, E_k) * (1-k) * (1-r)^e with e = 2 - 1/p (H) or 3 - 1/p (scrH).

    Boundedness of this ratio over r is the growth-envelope claim; the value
    at r -> 0 is 1 - k since both extremals equal 1 at the origin.
    """
    if p <= 1:
        raise DomainError(f"envelope exponents need p > 1, got {p}")
    if extremal not in ("H", "scrH"):
        raise DomainError(f"extremal must be 'H' or 'scrH', got {extremal!r}")
    e = (2.0 if extremal == "H" else 3.0) - 1.0 / p
    E = catalog(extremal, k)
    return integral_means(E, p, r, rel_tol=1e-8) * (1.0 - k) * (1.0 - r) ** e


@dataclass
class HardyBound:
    """Result of the weighted h'-integral: value, tail behavior, flags."""

    value: float
    tail_exponent: float
    divergent: bool
    all_converged: bool

    def __float__(self) -> float:
        return math.inf if self.divergent else float(self.value)


def loglog_slope(one_minus_r, values) -> float:
    """Least-squares slope of log(values) against log(1/(1 - r)), the
    exponent beta of a power law values ~ (1 - r)**-beta."""
    x = -np.log(np.asarray(one_minus_r, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    A = np.vstack([x, np.ones_like(x)]).T
    return float(np.linalg.lstsq(A, y, rcond=None)[0][0])


def hardy_norm_bound(f: HarmonicMap, p: float) -> HardyBound:
    """int_0^{1 - 2^-16} (1-r)^{p-1} M_p^p(r, h') dr with the constant set to 1.

    The full integral to r = 1 is classified by a log-log fit of the
    integrand over the last six dyadic radii: fitted exponent alpha <= -1
    means the improper integral diverges. M_p^p comes from the graded
    angular rule when h' declares its singular directions, from the
    trapezoid chain otherwise; all_converged is False when either one fails
    its convergence check at some radius, and the value then is best-effort.
    Each radius node is computed once; the new nodes of each depth of the
    r-integral, the dyadic tail and the fit's radii take one batch each.
    """
    if not (0.0 < p < 1.0):
        raise DomainError(f"the weighted h' integral needs p in (0, 1), got {p}")
    z0 = np.asarray(0.0, dtype=complex)
    if abs(f(z0)) > 1e-12:
        raise DomainError("normalization f(0) = 0 required")
    hp = f.h_prime
    means = {}  # radius node: _graded_mean_pow there, each node computed once

    def integrand(rs: np.ndarray) -> np.ndarray:
        new = [r for r in dict.fromkeys(map(float, rs)) if r not in means]
        means.update((r, res[0]) for r, res in zip(new, _graded_mean_pows(hp, (p,), new, 1e-7)))
        return np.array([(1.0 - r) ** (p - 1.0) * means[r][0] for r in map(float, rs)])

    total = float(graded_integral(integrand, 0.0, 1.0 - 2.0**-6, 8, 1e-6))
    t, w = gauss_panels(1.0 - 2.0 ** -np.arange(6, HARDY_CUTOFF_EXP + 1), 8)  # dyadic tail
    total += float(w @ integrand(t))

    gaps = 2.0 ** -np.arange(HARDY_CUTOFF_EXP - 5, HARDY_CUTOFF_EXP + 1)
    slope = -loglog_slope(gaps, integrand(1.0 - gaps))
    all_converged = all(converged for _, _, converged, _ in means.values())
    return HardyBound(
        value=total,
        tail_exponent=slope,
        divergent=slope <= -1.0,
        all_converged=all_converged,
    )


@dataclass
class MeansCurve:
    """M_p(r) along a radius grid for one target function."""

    p: float
    radii: np.ndarray
    values: np.ndarray
    target: str
    converged: Optional[np.ndarray] = None

    def __post_init__(self):
        self.radii = np.asarray(self.radii, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if np.any(np.diff(self.radii) <= 0):
            raise DomainError("curve radii must be strictly increasing")
        if self.radii[-1] > RADIUS_CAP:
            raise DomainError(f"curve radii capped at {RADIUS_CAP}")

    def csv_rows(self) -> list:
        return [
            join_row([self.target, f"{self.p:.12g}", f"{r:.12g}", f"{v:.12g}"])
            for r, v in zip(self.radii, self.values)
        ]

    @staticmethod
    def csv_header() -> str:
        return "target_id,p,r,value"


def dyadic_means_curve(
    F: Evaluable, p: float, depth: int, rel_tol: float = 1e-7
) -> MeansCurve:
    """M_p at radii 1 - 2^-j, j = 1..depth, from one batch of
    ``_graded_mean_pows``: ``_dyadic_means_curves`` at the one p.

    Targets that declare their singular directions take the graded angular
    rule: among harmonic maps, the shears, whose components evaluate exactly
    at any point, the analytic maps, whose g = 0 has no such direction, and
    harmonic Koebe, graded also toward the two dips of |f| at each radius.
    Identity declares none and stays on the trapezoid chain, best-effort
    past its sample cap. The per-radius convergence mask lets downstream
    fits discard radii where either rule failed its check.
    """
    return _dyadic_means_curves(F, (p,), depth, rel_tol)[0]


def _dyadic_means_curves(F: Evaluable, ps, depth: int, rel_tol: float = 1e-7) -> list:
    """``dyadic_means_curve`` for every p in ps, from one batch for them all."""
    if depth < 1:
        raise DomainError("depth must be >= 1")
    radii = 1.0 - 2.0 ** -np.arange(1, depth + 1)
    by_p = zip(ps, zip(*_graded_mean_pows(F, ps, radii, rel_tol=rel_tol)))
    return [
        MeansCurve(p, radii, [value ** (1.0 / p) for value, *_ in means], getattr(F, "uid", "?"),
                   converged=np.array([converged for _, _, converged, _ in means]))
        for p, means in by_p
    ]
