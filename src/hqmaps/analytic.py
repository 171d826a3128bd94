"""Analytic functions on the unit disk: closed forms, power series, radial integrals.

Every evaluator is vectorized over numpy arrays of complex points. Three
representations cover the whole library:

``ClosedForm``
    explicit formula with an exact derivative (a formula, or a ``ClosedForm``
    with its own Taylor generator) and an optional Taylor generator.
``PowerSeries``
    truncated Taylor series; calculus is term-wise.
``RadialIntegral``
    antiderivative of a closed-form integrand: pointwise values by
    composite Gauss-Legendre panels along [0, z] graded toward the
    endpoint, whole circles by a spectral FFT pass, Taylor coefficients by
    integrating term by term. No map of the library is built from one.

``graded_breaks``, ``gauss_panels`` and ``graded_integral`` are the one graded
Gauss-Legendre quadrature: radial integrals here, radius-line integrals and
the adaptive angular rule in ``means``.

``circle_values`` is the one circle sampler: it takes a target's
whole-circle method when it has one and evaluates pointwise otherwise. Every
sample it returns is a point value; a spectral pass oversamples until its
aliasing is below double precision, so grids at any level nest. Pointwise
targets take ``CIRCLE_BLOCK`` points a call, so temporaries stay under
glibc's 128 KiB mmap threshold and reuse heap pages (no bit changes), and a
target that declares ``real_coefficients`` only the upper half of the grid,
which ``unit_circle`` makes conjugate-symmetric: the rest is mirrored.

Evaluation is capped at |z| <= 1 - 2**-20; all the closed forms of interest
blow up at z = 1 and double precision carries no information beyond that.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

RADIUS_CAP = 1.0 - 2.0**-20
SERIES_CAP = 4096
# building a rule costs a fraction of a millisecond, so rules are tabled
_GAUSS = {m: np.polynomial.legendre.leggauss(m) for m in (8, 16)}
# points per call of a pointwise target on a circle: 64 KiB a complex array
CIRCLE_BLOCK = 2**12


class DomainError(ValueError):
    """Argument outside the domain a precondition demands."""


class NonConvergenceError(RuntimeError):
    """Iterative refinement stalled; carries the last two iterates."""

    def __init__(self, message: str, last_two: Optional[tuple] = None):
        if last_two is not None:
            message = f"{message} (last two iterates: {last_two[0]!r}, {last_two[1]!r})"
        super().__init__(message)
        self.last_two = last_two


def _check_radius(z: np.ndarray) -> None:
    if np.max(np.abs(z)) > RADIUS_CAP + 1e-15:
        raise DomainError(f"evaluation requires |z| <= {RADIUS_CAP}")


# ---------------------------------------------------------------------------
# power series arithmetic


def series_mul(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """First n coefficients of the Cauchy product of two coefficient arrays."""
    a = np.asarray(a, dtype=complex)[:n]
    b = np.asarray(b, dtype=complex)[:n]
    out = np.convolve(a, b)[:n]
    if out.size < n:
        out = np.pad(out, (0, n - out.size))
    return out


def series_integrate(c: np.ndarray, n: int) -> np.ndarray:
    """Coefficients of the antiderivative vanishing at 0, truncated to n."""
    c = np.asarray(c, dtype=complex)[: max(n - 1, 0)]
    out = np.zeros(n, dtype=complex)
    out[1 : c.size + 1] = c / np.arange(1, c.size + 1)
    return out


def series_differentiate(c: np.ndarray) -> np.ndarray:
    c = np.asarray(c, dtype=complex)
    if c.size <= 1:
        return np.zeros(1, dtype=complex)
    return c[1:] * np.arange(1, c.size)


def geometric_coefficients(a: complex, power: int, n: int) -> np.ndarray:
    """Coefficients of (1 - a z)**(-power) for integer power >= 1.

    The binomial identity gives coefficient C(m + power - 1, power - 1) a**m;
    computed by a stable running product.
    """
    out = np.empty(n, dtype=complex)
    out[0] = 1.0
    for m in range(1, n):
        out[m] = out[m - 1] * a * (m + power - 1) / m
    return out


# ---------------------------------------------------------------------------
# function kinds


class AnalyticFunction:
    """Evaluatable analytic map on the disk with derivative access;
    ``real_coefficients`` declares real Taylor coefficients, F(conj z) = conj F(z)."""

    real_coefficients = False

    def __init__(self, uid: str):
        self.uid = uid

    def __call__(self, z):
        raise NotImplementedError

    def derivative_function(self) -> "AnalyticFunction":
        """The derivative as a first-class AnalyticFunction."""
        raise NotImplementedError

    def taylor(self, n: int) -> np.ndarray:
        """First n Taylor coefficients at the origin."""
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.uid}>"


class ClosedForm(AnalyticFunction):
    def __init__(
        self,
        uid: str,
        fn: Callable,
        dfn: Optional[Callable] = None,
        taylor_fn: Optional[Callable[[int], np.ndarray]] = None,
        real_coefficients: bool = False,
    ):
        super().__init__(uid)
        self._fn = fn
        self._dfn = dfn
        self._taylor_fn = taylor_fn
        self.real_coefficients = real_coefficients

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        _check_radius(z)
        return self._fn(z)

    def derivative_function(self) -> "ClosedForm":
        if self._dfn is None:
            raise DomainError(f"{self.uid} carries no derivative formula")
        if isinstance(self._dfn, ClosedForm):
            return self._dfn
        dtaylor = None
        if self._taylor_fn is not None:
            base = self._taylor_fn
            dtaylor = lambda n: series_differentiate(base(n + 1))[:n]
        return ClosedForm(self.uid + "'", self._dfn, taylor_fn=dtaylor,
                          real_coefficients=self.real_coefficients)

    def taylor(self, n: int) -> np.ndarray:
        if n < 1:
            raise DomainError("need n >= 1 coefficients")
        if self._taylor_fn is None:
            raise DomainError(f"{self.uid} carries no Taylor coefficient generator")
        out = np.asarray(self._taylor_fn(n), dtype=complex)
        if out.size < n:
            out = np.pad(out, (0, n - out.size))
        return out[:n]


class PowerSeries(AnalyticFunction):
    def __init__(self, coeffs: Sequence[complex], uid: str = "series"):
        super().__init__(uid)
        self.coeffs = np.asarray(coeffs, dtype=complex)
        if self.coeffs.size > SERIES_CAP:
            raise DomainError(f"series truncation exceeds hard cap {SERIES_CAP}")
        self.real_coefficients = not np.any(self.coeffs.imag)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        _check_radius(z)
        return np.polynomial.polynomial.polyval(z, self.coeffs)

    def derivative_function(self) -> "PowerSeries":
        return PowerSeries(series_differentiate(self.coeffs), self.uid + "'")

    def taylor(self, n: int) -> np.ndarray:
        if n < 1:
            raise DomainError("need n >= 1 coefficients")
        out = np.zeros(n, dtype=complex)
        m = min(n, self.coeffs.size)
        out[:m] = self.coeffs[:m]
        return out


# ---------------------------------------------------------------------------
# graded Gauss-Legendre quadrature


def graded_breaks(lo: float, hi: float, depth: int) -> np.ndarray:
    """lo, hi - (hi - lo) 2^-j for j = 1..depth, and hi: panels halving toward
    hi. A deeper grading shares every panel of this one but the last."""
    return np.concatenate([[lo], hi - (hi - lo) * 2.0 ** -np.arange(1, depth + 1), [hi]])


def gauss_panels(breaks: np.ndarray, order: int) -> tuple:
    """Nodes and weights of the order-node rule (8 or 16) on every panel; each
    row of a 2-d ``breaks`` is a run of panels, taken row after row."""
    nodes, weights = _GAUSS[order]
    lo, hi = breaks[..., :-1], breaks[..., 1:]
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return (mid[..., None] + half[..., None] * nodes).ravel(), (half[..., None] * weights).ravel()


def graded_integral(fn: Callable, lo, hi, order: int, rel_tol: float, floor: float = 0.0):
    """int_lo^hi fn(t) dt on panels graded toward hi; fn maps nodes to values
    along its first axis. The depth doubles from 6 to 96 until two values
    agree to rel_tol relative to max(|value|, floor), in every component.
    Each node is taken once: a depth keeps the values on the panels it
    shares with the one before and calls fn only at its new panels' nodes."""
    cur, vals, kept = None, None, 0
    for depth in (6, 12, 24, 48, 96):
        t, w = gauss_panels(graded_breaks(lo, hi, depth), order)
        new = fn(t[kept * order :])
        vals = new if vals is None else np.concatenate([vals[: kept * order], new])
        prev, cur, kept = cur, w @ vals, depth
        scale = rel_tol * np.maximum(np.abs(cur), floor)
        if prev is not None and np.all(np.abs(cur - prev) <= scale):
            return cur
    raise NonConvergenceError("graded quadrature stalled", last_two=(prev, cur))


def radial_path_integral(fn: Callable, z) -> np.ndarray:
    """Antiderivative F(z) = z int_0^1 fn(t z) dt of ``fn`` at each z, from
    ``graded_integral``; fn is analytic on the segment, so the panels graded
    toward z converge geometrically."""
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    value = flat * graded_integral(lambda t: fn(t[:, None] * flat), 0.0, 1.0, 16, 1e-12, 1.0)
    return value.reshape(z.shape) if z.shape else value[0]


class RadialIntegral(AnalyticFunction):
    """F(z) = integral of a given derivative along [0, z].

    The derivative is exact (it is the integrand). Pointwise values come
    from graded Gauss-Legendre quadrature, whole circles from an oversampled
    spectral pass, whose samples are point values too, and Taylor
    coefficients from the integrand's, integrated term by term.
    """

    def __init__(self, integrand: AnalyticFunction, uid: str):
        super().__init__(uid)
        self.integrand = integrand
        self.real_coefficients = integrand.real_coefficients

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        _check_radius(z)
        return radial_path_integral(self.integrand, z)

    def circle_values(self, r: float, n: int) -> np.ndarray:
        """F at the n points of the uniform circle grid via spectral integration.

        FFT of the integrand samples recovers its Taylor data on the circle;
        dividing mode j by j+1 and rotating once integrates term by term. A
        pass over m points folds mode j + m onto mode j with weight about
        r**m, so it runs over m = n 2**i >= 40/(1 - r) points (r**m <= e**-40)
        and keeps every 2**i-th value. Where that would take more than 2**20
        points, F is evaluated at the n points instead.
        """
        m = n
        while m * (1.0 - r) < 40.0 and m < 2**20:
            m *= 2
        if m * (1.0 - r) < 40.0:
            return pointwise_circle_values(self, r, n)
        unit = unit_circle(m)
        z = r * unit
        _check_radius(z)
        coeffs = np.fft.fft(self.integrand(z)) / m
        coeffs *= r / np.arange(1.0, m + 1.0)
        return (np.fft.ifft(coeffs) * m * unit)[:: m // n]

    def derivative_function(self) -> AnalyticFunction:
        return self.integrand

    def taylor(self, n: int) -> np.ndarray:
        if n < 1:
            raise DomainError("need n >= 1 coefficients")
        return series_integrate(self.integrand.taylor(n), n)


def unit_circle(n: int) -> np.ndarray:
    """e^{2 pi i j / n}, j < n: exp below n/2, -1 at n/2, the mirror's conjugate
    above; a view of a table when n divides 2^16, bitwise this rule at n, as
    2 pi / n and 2 pi / 2^16 differ by an exact power of two."""
    if 2**16 % n == 0:
        return _UNIT_CIRCLE[:: 2**16 // n]
    half, out = n // 2, np.empty(n, dtype=complex)
    out[: half + 1] = np.exp(1j * ((2.0 * np.pi / n) * np.arange(half + 1)))
    if n % 2 == 0:
        out[half] = -1.0
    out[half + 1 :] = np.conj(out[n - half - 1 : 0 : -1])
    return out


# 1 MiB: the rule at 2^16, taken as every other point of the rule at 2^17,
# which needs no table; every grid of n | 2^16 points is a stride of it
_UNIT_CIRCLE = unit_circle(2**17)[::2].copy()
_UNIT_CIRCLE.flags.writeable = False


def pointwise_circle_values(fn, r: float, n: int) -> np.ndarray:
    """fn at the n circle grid points r e^{i theta_j}, CIRCLE_BLOCK points a
    call into one output: bitwise one call on the whole grid. A target with
    real coefficients is taken at j <= n/2 alone, every other point being
    its mirror's conjugate (imaginary part 0.0 - y, so zeros stay +0)."""
    unit, out = unit_circle(n), np.empty(n, dtype=complex)
    stop = n // 2 + 1 if getattr(fn, "real_coefficients", False) else n
    for j in range(0, stop, CIRCLE_BLOCK):
        out[j : min(j + CIRCLE_BLOCK, stop)] = fn(r * unit[j : min(j + CIRCLE_BLOCK, stop)])
    mirror = out[n - stop : 0 : -1]
    out.real[stop:], out.imag[stop:] = mirror.real, 0.0 - mirror.imag
    return out


def circle_values(F, r: float, n: int) -> np.ndarray:
    """F at the n points theta_j = 2 pi j / n of the circle |z| = r.

    Targets with a whole-circle ``circle_values`` method (radial integrals,
    harmonic maps) use it; any other target is evaluated pointwise, in
    blocks. Either way every sample is a point value, free of aliasing.
    """
    fast = getattr(F, "circle_values", None)
    return pointwise_circle_values(F, r, n) if fast is None else np.asarray(fast(r, n))


# ---------------------------------------------------------------------------
# the extremal catalog


def _extremal_taylor(numerator, power: int, k: float, n: int) -> np.ndarray:
    """Taylor coefficients of numerator(z) / ((1 - z)^power (1 - k z))."""
    out = series_mul(numerator, geometric_coefficients(1.0, power, n), n)
    if k != 0.0:
        out = series_mul(out, geometric_coefficients(k, 1, n), n)
    return out


def _shift_up(coeff_fn: Callable[[int], np.ndarray], factor: float):
    """Taylor generator for factor * z * F(z) given F's generator."""

    def gen(n: int) -> np.ndarray:
        out = np.zeros(n, dtype=complex)
        if n > 1:
            out[1:] = factor * coeff_fn(n - 1)
        return out

    return gen


def catalog(name: str, k: float = 0.0) -> AnalyticFunction:
    """Closed-form extremal and classical comparison functions.

    Parametrized entries (H, G, scrH, scrG) require 0 <= k < 1; the classical
    entries ignore k. Returned objects carry exact derivatives and exact
    coefficient generators, and all have real coefficients.
    """
    if name in ("H", "G", "scrH", "scrG") and not (0.0 <= k < 1.0):
        raise DomainError(f"catalog({name!r}) needs k in [0, 1), got {k}")
    kk = float(k)

    if name == "identity":
        return ClosedForm(
            "identity",
            lambda z: z,
            dfn=lambda z: np.ones_like(z),
            taylor_fn=lambda n: np.array([0.0, 1.0][:n], dtype=complex), real_coefficients=True,
        )
    if name == "koebe":
        return ClosedForm(
            "koebe",
            lambda z: z / (1 - z) ** 2,
            dfn=lambda z: (1 + z) / (1 - z) ** 3,
            taylor_fn=lambda n: np.arange(n, dtype=complex), real_coefficients=True,
        )
    if name == "half-plane":
        return ClosedForm(
            "half-plane",
            lambda z: z / (1 - z),
            dfn=lambda z: 1 / (1 - z) ** 2, real_coefficients=True,
            taylor_fn=lambda n: np.concatenate([[0.0], np.ones(n - 1)]).astype(complex),
        )
    if name == "strip-like":
        def strip_taylor(n: int) -> np.ndarray:
            out = np.zeros(n, dtype=complex)
            out[1::2] = 1.0
            return out

        return ClosedForm(
            "strip-like",
            lambda z: z / (1 - z**2),
            dfn=lambda z: (1 + z**2) / (1 - z**2) ** 2,
            taylor_fn=strip_taylor, real_coefficients=True,
        )
    if name == "H":
        def H(z):
            return (1 + z) / ((1 - z) ** 2 * (1 - kk * z))

        def dH(z):
            num = (1 - z) * (1 - kk * z) + 2 * (1 + z) * (1 - kk * z) + kk * (1 - z**2)
            return num / ((1 - z) ** 3 * (1 - kk * z) ** 2)

        tf = lambda n: _extremal_taylor([1.0, 1.0], 2, kk, n)
        return ClosedForm(f"H[k={kk!r}]", H, dfn=dH, taylor_fn=tf, real_coefficients=True)
    if name == "scrH":
        def scrH(z):
            return (1 + z) ** 2 / ((1 - z) ** 3 * (1 - kk * z))

        def dscrH(z):
            num = (
                2 * (1 - z) * (1 - kk * z)
                + 3 * (1 + z) * (1 - kk * z)
                + kk * (1 - z**2)
            )
            return (1 + z) * num / ((1 - z) ** 4 * (1 - kk * z) ** 2)

        tf = lambda n: _extremal_taylor([1.0, 2.0, 1.0], 3, kk, n)
        return ClosedForm(f"scrH[k={kk!r}]", scrH, dfn=dscrH, taylor_fn=tf, real_coefficients=True)
    if name in ("G", "scrG"):
        # k z E(z), with E the H entry for G and the scrH entry for scrG
        Ef = catalog(name.replace("G", "H"), kk)
        E, dE = Ef._fn, Ef._dfn  # unchecked: this entry's own call checks the radius
        return ClosedForm(
            f"{name}[k={kk!r}]",
            lambda z: kk * z * E(z),
            dfn=lambda z: kk * E(z) + kk * z * dE(z),
            taylor_fn=_shift_up(Ef._taylor_fn, kk), real_coefficients=True,
        )
    raise DomainError(f"unknown catalog name {name!r}; choose from " + ", ".join(CATALOG_NAMES))


CATALOG_NAMES = ("identity", "koebe", "half-plane", "strip-like", "H", "G", "scrH", "scrG")


def taylor_coefficients(F: AnalyticFunction, n: int) -> np.ndarray:
    """First n Taylor coefficients of F at the origin."""
    return F.taylor(n)
