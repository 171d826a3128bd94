"""Numerical certification of map hypotheses on finite grids.

Probes certify, they never prove: each verdict records the grid it was
computed on, and a passing verdict means "no counterexample at this
resolution". Class membership of the corpus rests on construction theorems
plus these spot checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .analytic import DomainError, circle_values
from .harmonic import HarmonicMap

DEFAULT_RADII = (0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99)


class SenseReversalError(DomainError):
    """The Jacobian failed to stay positive on the probe grid."""


@dataclass(frozen=True)
class ProbeGrid:
    radii: Tuple[float, ...] = DEFAULT_RADII
    angles_per_circle: int = 2**10

    def __post_init__(self):
        rr = self.radii
        if any(r2 <= r1 for r1, r2 in zip(rr, rr[1:])) or rr[-1] >= 1.0 or rr[0] <= 0:
            raise DomainError("probe radii must be strictly increasing inside (0, 1)")

    def points(self) -> np.ndarray:
        theta = 2.0 * np.pi * np.arange(self.angles_per_circle) / self.angles_per_circle
        ring = np.exp(1j * theta)
        return (np.asarray(self.radii)[:, None] * ring[None, :]).ravel()


@dataclass
class QCVerdict:
    ok: bool
    sup_dilatation: float
    max_distortion: float
    implied_K: float
    grid: ProbeGrid

    def __bool__(self) -> bool:
        return self.ok


def qc_certify(f: HarmonicMap, k: float, grid: Optional[ProbeGrid] = None) -> QCVerdict:
    """Certify |g'/h'| <= k on the grid; error out on sense reversal.

    Also reports the pointwise distortion (1 + |omega|)/(1 - |omega|) max and
    the K it implies.
    """
    if not (0.0 <= k < 1.0):
        raise DomainError(f"k must lie in [0, 1), got {k}")
    grid = grid or ProbeGrid()
    z = grid.points()
    hp = np.asarray(f.h.derivative(z))
    gp = np.asarray(f.g.derivative(z))
    jac = np.abs(hp) ** 2 - np.abs(gp) ** 2
    if np.min(jac) <= 0:
        i = int(np.argmin(jac))
        raise SenseReversalError(
            f"{f.uid}: Jacobian {jac[i]:.3e} <= 0 at z = {z[i]:.6f}"
        )
    sup = float(np.max(np.abs(gp) / np.abs(hp)))
    distortion = (1.0 + sup) / (1.0 - sup) if sup < 1 else np.inf
    return QCVerdict(
        ok=bool(sup <= k + 1e-10),
        sup_dilatation=sup,
        max_distortion=float(distortion),
        implied_K=float(distortion),
        grid=grid,
    )


@dataclass
class ConvexityVerdict:
    ok: bool
    min_cross: float
    total_turning: float
    n: int

    def __bool__(self) -> bool:
        return self.ok


def convexity_probe(f: HarmonicMap, r: float, n: int = 2**10) -> ConvexityVerdict:
    """Certify convexity of the image curve f(r e^{i theta}).

    Traces the closed curve, requires every cross product of successive
    secants to be >= -1e-9 on the curve's own scale and the total turning to
    be 2 pi within 1e-6. Coincident consecutive points are a degeneracy
    error.
    """
    gamma = circle_values(f, r, n)
    sec = np.roll(gamma, -1) - gamma
    norms = np.abs(sec)
    if np.min(norms) < 1e-14:
        raise DomainError(f"{f.uid}: degenerate image curve at r = {r}")
    prev = np.roll(sec, 1)
    # scale each cross product by its own secant pair: the result is the sine
    # of the local turning angle, so the threshold is resolution-independent
    cross = np.imag(np.conj(prev) * sec) / (norms * np.roll(norms, 1))
    turning = float(np.sum(np.angle(sec / prev)))
    ok = bool(np.min(cross) >= -1e-9) and abs(turning - 2.0 * np.pi) <= 1e-6
    return ConvexityVerdict(
        ok=ok, min_cross=float(np.min(cross)), total_turning=turning, n=n
    )
