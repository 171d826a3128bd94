"""Baernstein star-functions over circle samples.

The star-function of an integrable g on [-pi, pi) is
g*(theta) = sup over sets E of measure 2 theta of int_E g. For cell-sampled
data the sup is attained by taking the largest cells first, so g* is the
cumulative integral of the decreasing rearrangement; the small-n exhaustive
oracle in the test suite pins this identity rather than assuming it.

Grid convention: n uniform angles on [-pi, pi) put the star grid at
theta_m = pi m / n, m = 0..n, so every grid node corresponds to a whole
number of cells and no fractional cell enters at nodes. Three shortcuts
give the plain expressions' bits: a stable sort (linear on the two runs of
a target monotone in |theta|), log|F| on the half circle for an even one,
and one read-only theta table for every n dividing 2^16.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .analytic import RADIUS_CAP, AnalyticFunction, DomainError, RadialIntegral, circle_values
from .csvio import csv_lines

MIN_CIRCLE_SAMPLES = 2**9
# pi m / 2^16: bitwise pi m' / n, m' = m n / 2^16, for n | 2^16 (as ``unit_circle``)
_THETAS = np.arange(2**16 + 1.0) * np.pi / 2**16
_THETAS.flags.writeable = False


def _check_count(n: int) -> None:
    if n < MIN_CIRCLE_SAMPLES or n & (n - 1):
        raise DomainError(f"need a power-of-two sample count >= {MIN_CIRCLE_SAMPLES}")


@dataclass
class SampledCircle:
    """Real samples of a boundary functional on the uniform angle grid."""

    radius: float
    values: np.ndarray
    source_id: str = "samples"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        _check_count(self.values.size)
        if not np.all(np.isfinite(self.values)):
            raise DomainError("samples must be finite")
        if not (0.0 < self.radius < 1.0):
            raise DomainError("radius must lie in (0, 1)")

    @property
    def n(self) -> int:
        return self.values.size


def sample_log_modulus(F: AnalyticFunction, r: float, n: int) -> SampledCircle:
    """log|F| on the n-point circle grid at radius r itself.

    A sample where F is exactly 0 or not finite is a DomainError: log|F|
    has no finite value there (``SampledCircle`` rejects an infinite one).
    The circle grid starts at theta = 0; rolling it by n/2 puts the samples
    on [-pi, pi). A target with real coefficients sampled pointwise mirrors
    exactly (j and n - j are conjugates), so |F| and its log are taken at
    j <= n/2 alone and mirrored; a spectral ``RadialIntegral`` mirrors only
    to roundoff and takes the whole circle. Either way the bits are the
    whole-circle log's (abs runs forward: a reversed stride changes them).
    """
    if not (0 < r <= RADIUS_CAP):
        raise DomainError(f"r must lie in (0, {RADIUS_CAP}], got {r}")
    _check_count(n)
    values, half = circle_values(F, r, n), n // 2
    even = getattr(F, "real_coefficients", False) and not isinstance(F, RadialIntegral)
    mod = np.abs(values[: half + 1] if even else values)
    if not np.min(mod) > 0.0:  # a zero or a NaN
        raise DomainError(f"{F.uid} vanishes or is not finite on the sampled circle at r = {r}")
    np.log(mod, out=mod)
    # j = n/2 .. 1 lie at theta < 0; an even target's are its mirror
    mod = np.concatenate((mod[:0:-1], mod[:half])) if even else np.roll(mod, half)
    return SampledCircle(radius=r, values=mod, source_id=F.uid)


@dataclass
class StarFunction:
    """Cumulative rearrangement values on the uniform grid over [0, pi]."""

    thetas: np.ndarray
    values: np.ndarray
    source_id: str = ""
    radius: Optional[float] = None

    def __post_init__(self):
        self.thetas = np.asarray(self.thetas, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.thetas.shape != self.values.shape:
            raise DomainError("theta and value grids must align")

    def csv_rows(self) -> list:
        rid = "" if self.radius is None else f"{self.radius:.12g}"
        return csv_lines(
            (f"{t:.12g}", f"{v:.12g}", self.source_id, rid)
            for t, v in zip(self.thetas.tolist(), self.values.tolist())
        )

    @staticmethod
    def csv_header() -> str:
        return "theta,value,source_id,radius"


def star_function(samples: Union[SampledCircle, Sequence[float], np.ndarray]) -> StarFunction:
    """Star-function of circle samples via the decreasing rearrangement.

    values[m] = (2 pi / n) * (sum of the m largest samples); the grid node
    theta_m = pi m / n carries exactly m cells of measure 2 theta_m, so node
    values need no fractional cell. The sums are built in the output: the
    negated samples sorted ascending, summed and scaled by -(2 pi / n), give
    the descending sums' bits, since rounding is odd; adding +0.0 makes an
    exact cancellation, and values[0], +0.0 as there. Any sort gives these
    bits (sorted floats are one sequence, up to the zeros' signs): timsort
    merges a monotone target's two runs in linear time. The thetas view
    ``_THETAS`` (read-only) where n divides 2^16; any other n computes them.
    """
    if isinstance(samples, SampledCircle):
        vals = samples.values
        source, radius = samples.source_id, samples.radius
    else:
        vals = np.asarray(samples, dtype=float)
        source, radius = "samples", None
        if vals.ndim != 1 or vals.size < 2:
            raise DomainError("need at least 2 samples")
        if not np.all(np.isfinite(vals)):
            raise DomainError("samples must be finite")
    n = vals.size
    values = np.zeros(n + 1)
    sums = np.negative(vals, out=values[1:])
    sums.sort(kind="stable")
    np.cumsum(sums, out=sums)
    values *= -(2.0 * np.pi / n)
    values += 0.0
    thetas = _THETAS[:: 2**16 // n] if 2**16 % n == 0 else np.arange(n + 1.0) * np.pi / n
    return StarFunction(
        thetas=thetas,
        values=values,
        source_id=source,
        radius=radius,
    )


@dataclass
class DominationVerdict:
    ok: bool
    max_violation: float
    theta_at_max: float
    detail: str = ""


def star_dominates(a: StarFunction, b: StarFunction, tol: float = 1e-9) -> DominationVerdict:
    """True iff a* <= b* + tol pointwise on the common grid."""
    same = a.thetas is b.thetas  # star functions of one grid share its thetas
    if not same and (a.thetas.shape != b.thetas.shape or np.max(np.abs(a.thetas - b.thetas)) > 1e-12):
        raise DomainError("star functions live on different grids")
    gap = a.values - b.values
    i = int(np.argmax(gap))
    return DominationVerdict(
        ok=bool(gap[i] <= tol),
        max_violation=float(max(gap[i], 0.0)),
        theta_at_max=float(a.thetas[i]),
    )


def phi_means_dominates(
    a: SampledCircle,
    b: SampledCircle,
    p_grid: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0),
    t_grid: Optional[Sequence[float]] = None,
) -> DominationVerdict:
    """Domination of Phi-means for the exponential and hinge families.

    Checks mean(e^{p a}) <= mean(e^{p b}) + 1e-9 for each p and
    mean(max(a - t, 0)) <= mean(max(b - t, 0)) + 1e-9 for each hinge level t.
    Exponentials are max-shifted before evaluation, so the comparison is
    overflow-safe; the tolerance then applies on the shifted scale.
    """
    if a.values.size != b.values.size:
        raise DomainError("sampled circles live on different grids")
    av, bv = a.values, b.values
    if t_grid is None:
        lo = float(min(av.min(), bv.min()))
        hi = float(max(av.max(), bv.max()))
        t_grid = np.linspace(lo, hi, 9)[:-1]
    worst = DominationVerdict(ok=True, max_violation=0.0, theta_at_max=0.0)
    shift = float(max(av.max(), bv.max()))
    for p in p_grid:
        gap = float(np.mean(np.exp(p * (av - shift))) - np.mean(np.exp(p * (bv - shift))))
        if gap > worst.max_violation:
            worst = DominationVerdict(False, gap, 0.0, detail=f"exp family p={p:g}")
    for t in t_grid:
        gap = float(np.mean(np.maximum(av - t, 0.0)) - np.mean(np.maximum(bv - t, 0.0)))
        if gap > worst.max_violation:
            worst = DominationVerdict(False, gap, 0.0, detail=f"hinge family t={t:g}")
    if worst.max_violation <= 1e-9:
        return DominationVerdict(ok=True, max_violation=worst.max_violation, theta_at_max=0.0, detail=worst.detail)
    return worst


def star_grid_size(r: float) -> int:
    """Default sampling: 2^12 angles, escalated to 2^16 once r >= 0.99."""
    return 2**16 if r >= 0.99 else 2**12
