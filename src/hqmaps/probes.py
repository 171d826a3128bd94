"""Numerical certification of map hypotheses on finite grids.

Probes certify, they never prove: a passing verdict means "no
counterexample at this resolution". The quasiconformality certificate is
taken on one fixed grid, ``PROBE_POINTS``, a map with real coefficients on
its upper half circles. Class membership of the corpus rests on
construction theorems plus these spot checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import DomainError, circle_values, unit_circle
from .harmonic import HarmonicMap

# the one probe grid, built once: PROBE_N angles on each radius, circle after circle
PROBE_RADII = (0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99)
PROBE_N = 2**10
PROBE_POINTS = (np.asarray(PROBE_RADII)[:, None] * unit_circle(PROBE_N)[None, :]).ravel()
PROBE_POINTS.flags.writeable = False


class SenseReversalError(DomainError):
    """The Jacobian failed to stay positive on the probe grid."""


@dataclass
class QCVerdict:
    ok: bool
    sup_dilatation: float
    max_distortion: float


def qc_certify(f: HarmonicMap, k: float) -> QCVerdict:
    """Certify |g'/h'| <= k on ``PROBE_POINTS``; error out where the
    Jacobian |h'|^2 - |g'|^2 is not positive (sense reversal).

    Also reports the pointwise distortion (1 + |omega|)/(1 - |omega|) max,
    the K that the grid implies.
    """
    if not (0.0 <= k < 1.0):
        raise DomainError(f"k must lie in [0, 1), got {k}")
    z = PROBE_POINTS
    if f.real_coefficients:  # |h'| and |g'| are even: angles j = 0..512 of each circle
        z = z.reshape(-1, PROBE_N)[:, : PROBE_N // 2 + 1].ravel()
    hp, gp = f.h_prime(z), f.g_prime(z)
    jac = np.abs(hp) ** 2 - np.abs(gp) ** 2
    if np.min(jac) <= 0:
        i = int(np.argmin(jac))
        raise SenseReversalError(
            f"{f.uid}: Jacobian {jac[i]:.3e} <= 0 at z = {z[i]:.6f}"
        )
    sup = float(np.max(np.abs(gp) / np.abs(hp)))
    distortion = (1.0 + sup) / (1.0 - sup) if sup < 1 else np.inf
    return QCVerdict(ok=bool(sup <= k + 1e-10), sup_dilatation=sup, max_distortion=float(distortion))


@dataclass
class ConvexityVerdict:
    ok: bool
    min_cross: float
    total_turning: float
    n: int


def convexity_probe(f: HarmonicMap, r: float) -> ConvexityVerdict:
    """Certify convexity of the image curve f(r e^{i theta}).

    Traces the closed curve at PROBE_N angles, requires every cross product
    of successive secants to be >= -1e-9 on the curve's own scale and the
    total turning to be 2 pi within 1e-6. Coincident consecutive points are
    a degeneracy error.
    """
    gamma = circle_values(f, r, PROBE_N)
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
        ok=ok, min_cross=float(np.min(cross)), total_turning=turning, n=PROBE_N
    )
