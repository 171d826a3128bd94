"""Integral means and the integral bounds built from them.

The p-mean M_p(r, F) = ((1/2pi) int |F(r e^{i theta})|^p dtheta)^{1/p} is
taken by one globally adaptive Gauss-Legendre rule in theta, for every
caller: the means and their suites, the cumulative bounds, the Hardy-norm
certificate, the boundary-kernel integral and the dyadic means curves. The
integrand is smooth and periodic for r < 1, but near the boundary it is
hard only in a few directions, about 1 - r wide, that no target declares:
the rule finds them by itself, since panels split where halving them
changes their value, until the summed change is within the tolerance: a
few thousand nodes a radius, where a uniform grid would need about
1/(1 - r). A target that declares real coefficients has |F| even in theta
and is taken on [0, pi] alone. Nothing is kept between calls; a caller
asks for its whole p grid, all its radii and all its targets at once, and
each step of the rule takes each target once on the active panels of its
radii, each p only raising |F| to its power.
"""

from __future__ import annotations

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
    graded_integral,
)
from .csvio import csv_lines
from .harmonic import HarmonicMap

Evaluable = Union[AnalyticFunction, HarmonicMap]

N_MAX = 2**20
HARDY_CUTOFF_EXP = 16  # improper r-integrals stop at 1 - 2**-16
MAX_DEPTH = -int(math.log2(1.0 - RADIUS_CAP))  # 20: the dyadic radius 1 - 2**-20 is RADIUS_CAP


def circle_modulus(F: Evaluable, r: float, n: int) -> np.ndarray:
    """|F| sampled on the uniform n-point circle grid at radius r."""
    return np.abs(circle_values(F, float(r), int(n)))


def _mean_pow(F: Evaluable, p: float, r: float, rel_tol: float = 1e-9):
    """Raw power mean (1/2pi) int |F|^p dtheta at one radius by the adaptive
    rule of ``_graded_mean_pows``, at rel_tol itself; p may be negative.

    Returns (value, nodes, converged, last_two); last_two are the totals of
    the rule's last two steps.
    """
    return _graded_mean_pows([F], (p,), (r,), rel_tol)[0][0][0]


def integral_means(F: Evaluable, p: float, r: float, rel_tol: float = 1e-9) -> float:
    """M_p(r, F) by the adaptive angular rule, to rel_tol or better.

    Raises NonConvergenceError with the last two iterates of M_p where the
    rule stops unconverged at its node cap.
    """
    return _integral_means_grid([F], (p,), (r,), rel_tol)[0][0][0]


def _integral_means_grid(Fs, ps, rs, rel_tol: float = 1e-9) -> list:
    """``integral_means`` for every target in Fs, p in ps and r in rs, per
    target and radius a list by p, from one batch of ``_graded_mean_pows``.

    The rule runs at rel_tol / 100. Its check bounds the change that halving
    the panels makes, an estimate of the coarser total's error; the finer
    total it returns is often, not always, far better than that. Callers
    read more digits than rel_tol: the report's rows against their
    reference, the Parseval and 2F1 oracles to 1e-12. At rel_tol = 1e-9
    itself, M_p of strip-like at p = 0.25, r = 0.99 is 3.0e-12 off its
    hypergeometric closed form.
    """
    for p in ps:
        if not (0 < p < math.inf):
            raise DomainError(f"p must lie in (0, inf), got {p}")
    for r in rs:
        if not (0 < r <= RADIUS_CAP):
            raise DomainError(f"r must lie in (0, {RADIUS_CAP}], got {r}")
    out, scales = [], []  # the rule fills scales: per target, s by p, a row per radius
    for F, by_r, scales_F in zip(Fs, _graded_mean_pows(Fs, ps, rs, rel_tol / 100, scales), scales):
        out.append([])
        for r, results, st in zip(rs, by_r, scales_F):
            for p, t, (value, n, converged, last_two) in zip(ps, st, results):
                if not converged:
                    raise NonConvergenceError(
                        f"angular means for {F.uid} at p={p}, r={r} stopped at n={n} nodes",
                        last_two=tuple(v ** (1.0 / p) * t for v in last_two),
                    )
            out[-1].append([value ** (1.0 / p) * t for p, t, (value, *_) in zip(ps, st, results)])
    return out


# ---------------------------------------------------------------------------
# adaptive quadrature in the angle
#
# A row of breaks holds a panel's ends and its midpoint.


def _halves(breaks: np.ndarray) -> np.ndarray:
    """The rows of breaks of both halves of each panel."""
    halves = breaks.repeat((1, 4, 1), axis=1).reshape(-1, 3)  # columns 0, 1, 1, 1, 1, 2
    halves[:, 1] = 0.5 * (halves[:, 0] + halves[:, 2])
    return halves


def _rule_nodes(breaks: np.ndarray) -> tuple:
    """e^{i theta} and the weights at the nodes of the 16-node rule on both
    halves of each panel, panel after panel."""
    t, w = gauss_panels(breaks, 16)
    return np.exp(1j * t), w


# The rule starts from eight panels whose halves are the 16 start panels.
# Every radius takes its first two steps alike, on the start panels and on
# their halves, so the nodes of those two are taken once, here.
_START = np.linspace(0.0, 2.0 * np.pi, 9)
_START_BREAKS = np.stack((_START[:-1], 0.5 * (_START[:-1] + _START[1:]), _START[1:]), axis=1)
_START_NODES = (_rule_nodes(_START_BREAKS), _rule_nodes(_halves(_START_BREAKS)))


def _graded_mean_pows(Fs, ps, rs, rel_tol: float, scales: Optional[list] = None) -> list:
    """Raw power means (1/2pi) int |F(r e^{i theta})|^p dtheta for every
    target F in Fs, p in ps and r in rs, by one globally adaptive
    Gauss-Legendre rule on a panel tree per (target, radius) row.

    A step takes the 16-node rule on both halves of every active panel. The
    first step takes it on the 16 uniform start panels of each row, and
    all of them split. From then on a panel's error is
    |Q(left) + Q(right) - Q(panel)|, for each p. A row converges when its
    retired and active errors sum to at most rel_tol |total| for every p;
    otherwise the panels whose error is at most 0.1 rel_tol |total| over
    the number of active panels, for every p, retire, and the rest split in
    halves. A row with no panel left to split, or that the next step would
    take past N_MAX nodes, stops unconverged. Each step takes each target
    once on the active panels of its live rows, in pieces of 2^20 points,
    and raises |F| to each p by a scalar exponent; no row depends on the
    others, so each is bitwise what a call for its target and radius alone
    returns. A target declaring real coefficients takes the first 4 start
    panels, [0, pi], at twice the weight: each panel, node and decision is
    the whole circle's, as a half panel's error doubles where the active
    count halves.

    Where a row's largest |F|^p at the first step's nodes is out of
    2^-960 .. 2^960, that p averages |F/s|^p, s a power of two near that
    |F|, so tiny and huge targets keep their relative precision; handed a
    list ``scales``, the call appends per target a row of s by p per radius
    and returns the scaled means, else it returns raw ones. M_p is at most
    that largest |F|, and where it comes near the least normal double it is
    exact only to 2^-1022: rel_tol is raised to |p| 2^-1022 / max |F| there.

    Returns, per target and radius, (value, nodes, converged, last_two) by
    p: nodes counts the whole circle's points, last_two are the totals of
    the last two steps. p may be < 0.
    """
    Fs, ps, rs = list(Fs), np.asarray(ps, dtype=float), np.asarray(rs, dtype=float)
    by_target = lambda rows: [rows[i : i + rs.size] for i in range(0, len(rows), rs.size)]
    if not (rs.size and Fs):
        return [[] for _ in Fs]
    halved = [2 if getattr(F, "real_coefficients", False) else 1 for F in Fs for _ in rs]  # by row
    mirror, radius = np.array(halved), np.concatenate([rs] * len(Fs))  # by live row
    out = [None] * radius.size
    breaks = np.concatenate([_START_BREAKS[: 8 // m] for m in halved])
    live, count, nodes = np.arange(radius.size), 8 // mirror, np.zeros(radius.size, dtype=int)
    acc = np.zeros((3, ps.size, radius.size))  # retired value and error, last total: by p, live row
    bounds = np.arange(len(Fs) + 1) * rs.size  # each target's first row
    step = 0
    while live.size:
        unit, w = ((np.concatenate([x[: x.size // m] for m in halved]) for x in _START_NODES[step])
                   if step < 2 else _rule_nodes(breaks))
        step += 1
        cum = np.concatenate(([0], count.cumsum()))
        first = cum[:-1]  # each live row's first panel
        ends = (32 * cum[live.searchsorted(bounds)]).tolist()  # each target's first node
        z = radius.repeat(32 * count) * unit
        mods = np.concatenate([np.abs(F(z[i : min(i + 2**20, b)]))
                               for F, a, b in zip(Fs, ends, ends[1:]) for i in range(a, b, 2**20)])
        if step == 1:
            e = np.round(np.log2(np.maximum(np.maximum.reduceat(mods, 32 * first), 5e-324)))
            s = np.where(np.abs(np.multiply.outer(ps, e)) > 960, 2.0**e, 1.0)  # by p and row
            plain = bool(np.all(s == 1.0))
            tol = np.maximum(rel_tol, np.abs(ps)[:, None] * 2.0 ** (-1022 - e))
        scaled = [mods] * ps.size if plain else mods / s[:, live].repeat(32 * count, axis=1)
        pows = np.empty((ps.size, mods.size))
        for base, p, row in zip(scaled, ps.tolist(), pows):
            np.multiply(base ** p, w, out=row)
        halves = np.add.reduce(pows.reshape(ps.size, -1, 2, 16), axis=3)
        halves /= np.pi  # so a whole-circle row sums to twice its mean, exactly
        fine = np.add.reduce(halves, axis=2)
        total = acc[0] + np.add.reduceat(fine, first, axis=1)
        nodes += 32 * count  # on the part of the circle taken
        if step == 1:  # the start panels: nothing to judge, all split
            acc[2], coarse, breaks, count = total, halves.reshape(ps.size, -1), _halves(breaks), 2 * count
            continue
        err = np.abs(fine - coarse)
        bound = tol * np.abs(total)
        done = np.logical_and.reduce(acc[1] + np.add.reduceat(err, first, axis=1) <= bound)
        retire = np.logical_and.reduce(err <= (0.1 * bound / count).repeat(count, axis=1))
        splits = np.add.reduceat(~retire, first, dtype=int)
        stop = done | (splits == 0) | (nodes + 64 * splits > N_MAX // mirror)
        acc[:2] += np.add.reduceat(np.where(retire, (fine, err), 0.0), first, axis=2)
        split = ~retire
        if stop.any():
            j, keep = np.flatnonzero(stop), ~stop
            stopped = (live[j], mirror[j], nodes[j], done[j], acc[2][:, j].T, total[:, j].T)
            for i, m, n, c, us, vs in zip(*(x.tolist() for x in stopped)):
                out[i] = [(v * m / 2, n * m, c, (u * m / 2, v * m / 2)) for u, v in zip(us, vs)]
            split &= keep.repeat(count)
            live, splits, nodes, mirror = live[keep], splits[keep], nodes[keep], mirror[keep]
            radius, acc, total, tol = radius[keep], acc[:, :, keep], total[:, keep], tol[:, keep]
        acc[2] = total
        breaks = _halves(breaks[split])
        coarse = halves[:, split].reshape(ps.size, -1)
        count = 2 * splits
    if scales is not None:
        scales.extend(by_target(s.T.tolist()))
    elif not plain:  # the raw means, s^p times the scaled ones
        u = np.stack([t ** p for t, p in zip(s, ps.tolist())])
        out = [[(v * su, n, c, (a * su, b * su)) for su, (v, n, c, (a, b)) in zip(us, row)]
               for us, row in zip(u.T.tolist(), out)]
    return by_target(out)


def corollary_bound(k: float, p: float, r: float, extremal: str = "H") -> float:
    """(1 + k) * int_0^r M_p(s, E_k) ds for E in {H, scrH}.

    The precondition p >= 1 mirrors the Minkowski step the bound rests on;
    smaller p is a domain error by contract.
    """
    return float(_corollary_bounds([(extremal, k)], (p,), r)[0][0])


def _corollary_bounds(pairs, ps, r: float) -> np.ndarray:
    """``corollary_bound`` for every (extremal, k) in pairs and p in ps, a
    row by p per pair, from one vector integrand on the radius line; each
    depth's new nodes take one batch of the angular rule for every pair."""
    if min(ps) < 1:
        raise DomainError(f"cumulative bound requires p >= 1, got {min(ps)}")
    for extremal, _ in pairs:
        if extremal not in ("H", "scrH"):
            raise DomainError(f"extremal must be 'H' or 'scrH', got {extremal!r}")
    if not (0 < r <= RADIUS_CAP):
        raise DomainError(f"r must lie in (0, {RADIUS_CAP}], got {r}")
    Es = [catalog(extremal, k) for extremal, k in pairs]
    # by radius node, every pair's means by p in one row
    means = lambda s: np.array(_integral_means_grid(Es, ps, s, 1e-8)).swapaxes(0, 1).reshape(len(s), -1)
    ks = np.array([k for _, k in pairs])
    return (1.0 + ks)[:, None] * graded_integral(means, 0.0, r, 8, 1e-7).reshape(len(pairs), -1)


def lemmaF_integral(p: float, r: float) -> float:
    """int_0^{2pi} dtheta / |1 - r e^{i theta}|^p, no normalization.

    The adaptive angular rule resolves the kernel's peak at theta = 0 at
    every admitted radius, to 1e-10.
    """
    if p <= 1:
        raise DomainError(f"the boundary-kernel integral needs p > 1, got {p}")
    if not (0 <= r < 1.0 - 2.0**-20):
        raise DomainError(f"r must lie in [0, 1 - 2^-20), got {r}")
    if r == 0:
        return 2.0 * math.pi
    one_minus = ClosedForm("one-minus-z", lambda z: 1.0 - z, real_coefficients=True)
    value, _, converged, last_two = _mean_pow(one_minus, -p, r, 1e-10)
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
class HardyTail:
    """The weighted h'-integral's fitted tail exponent and flags."""

    tail_exponent: float
    divergent: bool
    all_converged: bool


@dataclass
class HardyBound(HardyTail):
    """A ``HardyTail`` with the value of the integral up to 1 - 2^-16."""

    value: float

    def __float__(self) -> float:
        return math.inf if self.divergent else float(self.value)


def loglog_slope(one_minus_r, values) -> float:
    """Least-squares slope of log(values) against log(1/(1 - r)), the
    exponent beta of a power law values ~ (1 - r)**-beta."""
    x = -np.log(np.asarray(one_minus_r, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    A = np.vstack([x, np.ones_like(x)]).T
    return float(np.linalg.lstsq(A, y, rcond=None)[0][0])


def hardy_tail(f: HarmonicMap, p: float) -> HardyTail:
    """The membership verdicts' certificate: the tail_exponent of (1-r)^{p-1} M_p^p(r, h')
    fitted at r = 1 - 2^-11 .. 1 - 2^-16 (<= -1: divergent, the integral to r = 1 diverges)
    from one batch of the adaptive angular rule, all_converged if it passed at each."""
    if not (0.0 < p < 1.0):
        raise DomainError(f"the weighted h' integral needs p in (0, 1), got {p}")
    if abs(f(np.asarray(0.0, dtype=complex))) > 1e-12:
        raise DomainError("normalization f(0) = 0 required")
    gaps = 2.0 ** -np.arange(HARDY_CUTOFF_EXP - 5, HARDY_CUTOFF_EXP + 1)
    means = [res[0] for res in _graded_mean_pows([f.h_prime], (p,), 1.0 - gaps, 1e-9)[0]]
    values = [(1.0 - r) ** (p - 1.0) * m[0] for r, m in zip((1.0 - gaps).tolist(), means)]
    slope = -loglog_slope(gaps, values)
    return HardyTail(slope, slope <= -1.0, all(m[2] for m in means))


def hardy_norm_bound(f: HarmonicMap, p: float) -> HardyBound:
    """int_0^{1 - 2^-16} (1-r)^{p-1} M_p^p(r, h') dr with the constant set to 1,
    plus the ``hardy_tail`` fit, which alone the membership verdicts read.

    all_converged is False when the adaptive angular rule fails its check at
    some radius of the integral or the fit; the value then is best-effort.
    Each depth's new radius nodes and the dyadic tail take one batch each.
    """
    tail = hardy_tail(f, p)
    hp, flags = f.h_prime, []  # each radius node's converged flag

    def integrand(rs: np.ndarray) -> np.ndarray:
        means = [res[0] for res in _graded_mean_pows([hp], (p,), rs, 1e-9)[0]]
        flags.extend(c for _, _, c, _ in means)
        return np.array([(1.0 - r) ** (p - 1.0) * m[0] for r, m in zip(rs.tolist(), means)])

    total = float(graded_integral(integrand, 0.0, 1.0 - 2.0**-6, 8, 1e-6))
    t, w = gauss_panels(1.0 - 2.0 ** -np.arange(6, HARDY_CUTOFF_EXP + 1), 8)  # dyadic tail
    total += float(w @ integrand(t))
    converged = tail.all_converged and all(flags)
    return HardyBound(tail.tail_exponent, tail.divergent, converged, value=total)


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
        p = f"{self.p:.12g}"
        return csv_lines(
            (self.target, p, f"{r:.12g}", f"{v:.12g}")
            for r, v in zip(self.radii.tolist(), self.values.tolist())
        )

    @staticmethod
    def csv_header() -> str:
        return "target_id,p,r,value"


def dyadic_means_curve(F: Evaluable, p: float, depth: int) -> MeansCurve:
    """M_p at radii 1 - 2^-j, j = 1..depth, from one batch of
    ``_graded_mean_pows`` at rel_tol 1e-9: ``_dyadic_means_curves`` at the one p.

    Every target takes the adaptive angular rule, which converges at all 13
    default radii for every corpus map. The per-radius convergence mask lets
    downstream fits discard radii where the rule failed its check.
    """
    return _dyadic_means_curves([F], (p,), depth)[0][0]


def _dyadic_radii(depth: int) -> np.ndarray:
    if not 1 <= depth <= MAX_DEPTH:
        raise DomainError(f"depth must lie in 1..{MAX_DEPTH}, got {depth}: 1 - 2^-depth must "
                          f"not exceed RADIUS_CAP = 1 - 2^-{MAX_DEPTH}")
    return 1.0 - 2.0 ** -np.arange(1, depth + 1)


def _dyadic_means_curves(Fs, ps, depth: int) -> list:
    """``dyadic_means_curve`` for every target in Fs and p in ps, per target
    a list by p, from one batch, scaled as in ``_integral_means_grid``, so
    huge and tiny targets keep their precision."""
    radii, scales = _dyadic_radii(depth), []  # s by p, a row per target and radius
    results = _graded_mean_pows(Fs, ps, radii, 1e-9, scales)
    return [
        [MeansCurve(p, radii, [value ** (1.0 / p) * t for (value, *_), t in zip(means, st)],
                    getattr(F, "uid", "?"), converged=np.array([converged for _, _, converged, _ in means]))
         for p, means, st in zip(ps, zip(*by_r), zip(*scales_F))]
        for F, by_r, scales_F in zip(Fs, results, scales)
    ]
