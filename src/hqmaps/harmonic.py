"""Harmonic mappings f = h + conj(g): construction, evaluation, and the corpus.

A harmonic map is stored as its canonical pair (h, g) of analytic functions
together with declared class tags and, when quasiconformal, the dilatation
bound. Shears are built from a named conformal slice phi and a dilatation
omega = kappa z^m: h' = phi'/(1 - omega) and g' = omega h' are closed forms,
h is exact by partial fractions and g = h - phi, so a shear evaluates at any
point, whole circles included, without quadrature, as
f = h + conj(h - phi) = 2 Re h - conj(phi): Re h takes no angle when the
partial-fraction coefficients are real (every named slice with m <= 2), and
Im f is Im phi exactly, free of the cancellation in h - phi.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .analytic import (
    AnalyticFunction,
    ClosedForm,
    DomainError,
    catalog,
    geometric_coefficients,
    pointwise_circle_values,
    series_integrate,
    series_mul,
)

CLASS_TAGS = ("convex", "close-to-convex", "starlike", "convex-in-one-direction", "analytic")


@dataclass
class HarmonicMap:
    """f = h + conj(g) with class tags and an optional quasiconformal bound.

    ``dilatation`` is (kappa, m) when g' = kappa z^m h' exactly; only the
    builders set it (so, like ``slice_phi``, ``dataclasses.replace`` drops
    it), and None, as on maps built by hand, means g' must be sampled.
    """

    h: AnalyticFunction
    g: AnalyticFunction
    uid: str
    class_tags: frozenset = frozenset()
    qc_k: Optional[float] = None
    meta: dict = field(default_factory=dict)
    # phi and Re h when g = h - phi exactly (every make_shear result):
    # f = h + conj(h - phi) = 2 Re h - conj(phi), so Im f is Im phi exactly
    slice_phi: Optional[AnalyticFunction] = field(default=None, init=False, repr=False)
    slice_re_h: Optional[Callable] = field(default=None, init=False, repr=False)
    dilatation: Optional[tuple] = field(default=None, init=False, repr=False)

    def __call__(self, z):
        if self.slice_phi is None:
            return self.h(z) + np.conj(self.g(z))
        phi = self.slice_phi(z)  # a ClosedForm, which checks the radius
        f = np.empty(phi.shape, dtype=complex)
        f.real = 2.0 * self.slice_re_h(np.asarray(z, dtype=complex)) - phi.real
        f.imag = phi.imag
        return f

    @property
    def h_prime(self) -> AnalyticFunction:
        return self.h.derivative_function()

    @property
    def g_prime(self) -> AnalyticFunction:
        return self.g.derivative_function()

    # h and g both declare real coefficients: then |f| is even in the angle
    real_coefficients = property(lambda self: self.h.real_coefficients and self.g.real_coefficients)

    def is_analytic(self) -> bool:
        return "analytic" in self.class_tags

    def circle_values(self, r: float, n: int) -> np.ndarray:
        """f on the uniform n-point circle grid by its point formula, in the
        blocks of ``pointwise_circle_values``."""
        return pointwise_circle_values(self, r, n)

    def __repr__(self):
        return f"<HarmonicMap {self.uid}>"


def k_of_K(K: float) -> float:
    """Dilatation bound k = (K-1)/(K+1) of a K-quasiconformal map."""
    if K < 1:
        raise DomainError(f"K must be >= 1, got {K}")
    return (K - 1.0) / (K + 1.0)


def K_of_k(k: float) -> float:
    """Maximal dilatation K = (1+k)/(1-k) from the bound on |omega|."""
    if not (0.0 <= k < 1.0):
        raise DomainError(f"k must lie in [0, 1), got {k}")
    return (1.0 + k) / (1.0 - k)


# ---------------------------------------------------------------------------
# shears

# each named slice phi: its catalog uid, and phi' = c + sum w (1 - z/b)^-2
# over its double poles b, as (c, ((w, b), ...)); the strip-like slice has
# phi' = (1 + z^2)/(1 - z^2)^2
_SLICES = {
    "identity": ("identity", (1.0, ())),
    "halfplane": ("half-plane", (0.0, ((1.0, 1.0),))),
    "strip": ("strip-like", (0.0, ((0.5, 1.0), (0.5, -1.0)))),
}


def _exact_shear_h(phi_prime_terms, kappa: float, m: int):
    """h with h(0) = 0 and h' = phi'/(1 - kappa z^m), kappa > 0, exactly;
    ``h(z, real=True)`` is Re h alone.

    With u = 1/(1 - kappa z^m), the partial fractions of h' are
    w u(b) (1 - z/b)^-2 - w b u'(b) (1 - z/b)^-1 at each double pole b of
    phi', and (phi'(a)/m) (1 - z/a)^-1 at each of the m roots a of
    1 - kappa z^m. Integrated from 0, (1 - z/c)^-2 gives z/(1 - z/c) and
    (1 - z/c)^-1 gives -c log(1 - z/c). Every pole c lies on or outside the
    unit circle and |z| <= RADIUS_CAP, so w = 1 - z/c has Re w > 0: the right
    branch is the principal one, taken in real arithmetic, log|w| + i arg w.
    For m <= 2 the roots are the real numbers +-kappa^(-1/m), so every
    coefficient is real and Re h needs log|w| alone.
    """
    const, doubles = phi_prime_terms
    u = [1.0 / (1.0 - kappa * b**m) for _, b in doubles]
    rational = [(w * ub, b) for (w, b), ub in zip(doubles, u)]  # c z/(1 - z/b)
    # c log(1 - z/b) from -w b u'(b), u'(b) = kappa m b^(m-1) u(b)^2
    logs = [(w * kappa * m * b ** (m + 1) * ub**2, b) for (w, b), ub in zip(doubles, u)]
    roots = np.array([1.0, -1.0][:m]) if m <= 2 else np.exp(2j * np.pi * np.arange(m) / m)
    for a in kappa ** (-1.0 / m) * roots:
        phi_prime_a = const + sum(w / (1.0 - a / b) ** 2 for w, b in doubles)
        logs.append((-a * phi_prime_a / m, a))

    def h(z, real=False):
        # in place, in scratch arrays, each term bitwise its plain expression:
        # c z / (1 - z/b) and c (log|w| + i angle(w)), or their real parts
        # (c z / (1 - z/b)).real and Re c log|w| - Im c angle(w)
        out, w, t = np.zeros(z.shape, float if real else complex), np.empty_like(z), np.empty_like(z)
        log_w = np.empty(z.shape) if real else t.real
        for c, b in rational:
            np.subtract(1.0, np.divide(z, b, out=w), out=w)
            np.divide(np.multiply(c, z, out=t), w, out=t)
            out += t.real if real else t
        for c, b in logs:
            np.subtract(1.0, np.divide(z, b, out=w), out=w)
            np.log(np.abs(w, out=log_w), out=log_w)
            if real:
                out += np.multiply(c.real, log_w, out=log_w)
                if c.imag:
                    out -= c.imag * np.angle(w)
            else:
                np.arctan2(w.imag, w.real, out=t.imag)
                out += np.multiply(c, t, out=t)
        return out

    return h


def _shear_parts(phi_name: str, kappa: float, m: int):
    """(catalog uid of phi, its phi' partial fractions, omega = kappa z^m,
    uid of the shear) for a named slice; kappa in [0, 1), m >= 1 an integer."""
    if phi_name not in _SLICES:
        raise DomainError(f"phi must be one of {sorted(_SLICES)}, got {phi_name!r}")
    omega = shear_omega(kappa, m)
    return (*_SLICES[phi_name], omega, f"shear[phi={phi_name},omega={omega.uid}]")


def make_shear(phi_name: str, kappa: float, m: int) -> HarmonicMap:
    """Shear of a named slice phi by omega = kappa z^m: h - g = phi,
    g' = omega h', h' = phi'/(1 - omega).

    phi_name is a key of ``_SLICES`` (identity, halfplane, strip),
    0 < kappa < 1 and m >= 1 an integer; another name, kappa or m is a
    DomainError. The result is tagged convex-in-one-direction and
    close-to-convex, with qc_k = kappa, the exact sup of |omega| over the
    disk. h is exact by partial fractions and g = h - phi, both
    ``ClosedForm``s whose derivatives h' and g' carry their own Taylor
    generators: phi' times the geometric series of 1/(1 - kappa z^m), and
    omega times that.
    """
    name, terms, omega, uid = _shear_parts(phi_name, kappa, m)
    if kappa == 0.0:
        raise DomainError("a shear needs 0 < kappa < 1; kappa = 0 leaves the slice itself")
    kappa, m = float(kappa), int(m)
    phi = catalog(name)
    phi_prime = phi.derivative_function()
    # hp and gp check the radius; inside them phi' and omega need not again
    dphi, omega_fn = phi._dfn, omega._fn

    def hp_fn(z):
        return dphi(z) / (1.0 - omega_fn(z))

    def hp_taylor(n: int) -> np.ndarray:
        geometric = np.zeros(n, dtype=complex)  # 1/(1 - kappa z^m)
        geometric[::m] = geometric_coefficients(kappa, 1, -(-n // m))
        return series_mul(phi_prime.taylor(n), geometric, n)

    hp = ClosedForm(uid + ":h'", hp_fn, taylor_fn=hp_taylor, real_coefficients=True)
    gp = ClosedForm(
        uid + ":g'",
        lambda z: omega_fn(z) * hp_fn(z), real_coefficients=True,
        taylor_fn=lambda n: series_mul(omega.taylor(n), hp_taylor(n), n),
    )
    h_exact = _exact_shear_h(terms, kappa, m)
    integrate = lambda F: (lambda n: series_integrate(F.taylor(n), n))
    f = HarmonicMap(
        h=ClosedForm(uid + ":h", h_exact, dfn=hp, taylor_fn=integrate(hp), real_coefficients=True),
        g=ClosedForm(uid + ":g", lambda z: h_exact(z) - phi(z), dfn=gp, taylor_fn=integrate(gp),
                     real_coefficients=True),
        uid=uid,
        class_tags=frozenset({"convex-in-one-direction", "close-to-convex"}),
        qc_k=kappa,
        meta={"phi": name, "omega": omega.uid},
    )
    f.slice_phi, f.slice_re_h = phi, lambda z: h_exact(z, real=True)
    f.dilatation = (kappa, m)
    return f


# ---------------------------------------------------------------------------
# named harmonic maps


def harmonic_koebe() -> HarmonicMap:
    """The harmonic Koebe map: dilatation z, image the slit plane.

    Not quasiconformal (|omega| -> 1 at the boundary); the canonical contrast
    case for membership thresholds, in h^p exactly for p < 1/3. The leading
    terms of h and g cancel in Im f = Im(z/(1 - z)^2), so |f| dips, about
    (1 - r)^2 wide, where Re f changes sign: at +-theta*(r), with
    theta*(r)/(1 - r) -> 1/sqrt(3).
    """
    h = ClosedForm(
        "harmonic-koebe:h",
        lambda z: (z - z**2 / 2 + z**3 / 6) / (1 - z) ** 3,
        dfn=lambda z: (1 + z) / (1 - z) ** 4, real_coefficients=True,
        taylor_fn=lambda n: series_mul(
            np.array([0, 1.0, -0.5, 1.0 / 6]), geometric_coefficients(1.0, 3, n), n
        ),
    )
    g = ClosedForm(
        "harmonic-koebe:g",
        lambda z: (z**2 / 2 + z**3 / 6) / (1 - z) ** 3,
        dfn=lambda z: z * (1 + z) / (1 - z) ** 4, real_coefficients=True,
        taylor_fn=lambda n: series_mul(
            np.array([0, 0, 0.5, 1.0 / 6]), geometric_coefficients(1.0, 3, n), n
        ),
    )
    f = HarmonicMap(
        h=h, g=g, uid="harmonic-koebe", class_tags=frozenset({"close-to-convex", "starlike"})
    )
    f.dilatation = (1.0, 1)  # g' = z h'
    return f


def analytic_map(name: str) -> HarmonicMap:
    """Wrap a conformal catalog entry as a HarmonicMap with g = 0."""
    F = catalog(name)
    tags = {"analytic", "close-to-convex", "starlike"}
    if name in ("identity", "half-plane"):
        tags.add("convex")
    if name == "strip-like":
        tags.add("convex-in-one-direction")
    zero = ClosedForm(
        "zero",
        lambda z: np.zeros_like(np.asarray(z, dtype=complex)),
        dfn=lambda z: np.zeros_like(np.asarray(z, dtype=complex)),
        taylor_fn=lambda n: np.zeros(n, dtype=complex), real_coefficients=True,
    )
    f = HarmonicMap(h=F, g=zero, uid=name, class_tags=frozenset(tags), qc_k=0.0)
    f.dilatation = (0.0, 0)  # g' = 0 h'
    return f


def shear_omega(kappa: float, power: int) -> AnalyticFunction:
    """omega(z) = kappa z**power, 0 <= kappa < 1 and power >= 1 an integer."""
    if power != int(power) or power < 1:
        raise DomainError(f"omega power must be an integer >= 1, got {power}")
    if not (0.0 <= kappa < 1.0):
        raise DomainError(f"omega coefficient must lie in [0, 1), got {kappa}")
    power = int(power)

    def taylor(n: int) -> np.ndarray:
        out = np.zeros(n, dtype=complex)
        if n > power:
            out[power] = kappa
        return out

    # products, not numpy's general complex power: z**0 and z**1 cost 8x more
    if power == 1:
        fn, dfn = (lambda z: kappa * z), (lambda z: np.full_like(z, kappa))
    elif power == 2:
        fn, dfn = (lambda z: kappa * (z * z)), (lambda z: (2 * kappa) * z)
    else:
        fn, dfn = (lambda z: kappa * z**power), (lambda z: (power * kappa) * z ** (power - 1))
    uid = f"{float(kappa)!r}z" + (f"^{power}" if power > 1 else "")
    return ClosedForm(uid, fn, dfn=dfn, taylor_fn=taylor, real_coefficients=True)


def corpus_shear(phi_name: str, kappa: float, power: int) -> HarmonicMap:
    """Shear of a named slice by omega = kappa z**power; at kappa = 0 the
    slice itself, as an analytic map under the shear's uid."""
    if kappa != 0.0:
        return make_shear(phi_name, kappa, power)
    name, _, omega, uid = _shear_parts(phi_name, kappa, power)
    f = analytic_map(name)  # its dilatation too: kappa = 0
    f.uid, f.meta = uid, {"phi": name, "omega": omega.uid}
    return f


def build_corpus() -> list:
    """The built-in corpus: analytic references, shears, harmonic Koebe.

    Shears span the three slices, both dilatation shapes, and the dilatation
    strengths {0.25, 0.5, 0.8}; strength 0 collapses onto the analytic slice
    entries, so those appear once under their analytic names. Shears of the
    identity slice are candidates for the convex tag; the tag is added only
    when the convexity probe certifies the image at every probe radius.
    """
    maps = [
        analytic_map("identity"),
        analytic_map("koebe"),
        analytic_map("half-plane"),
        analytic_map("strip-like"),
    ]
    for phi_name in ("identity", "halfplane", "strip"):
        for power in (1, 2):
            for kappa in (0.25, 0.5, 0.8):
                maps.append(corpus_shear(phi_name, kappa, power))
    maps.append(harmonic_koebe())
    from .probes import convexity_probe

    for f in maps:
        if f.meta.get("phi") == "identity" and "convex" not in f.class_tags:
            if all(convexity_probe(f, r).ok for r in (0.5, 0.9, 0.99)):
                f.class_tags = f.class_tags | {"convex"}
    return maps


def corpus_manifest(maps: list) -> str:
    """Deterministic JSON manifest of corpus entries."""
    entries = [
        {
            "id": f.uid,
            "kind": "analytic" if f.is_analytic() else "harmonic",
            "parameters": {k: v for k, v in sorted(f.meta.items()) if k in ("phi", "omega")},
            "class_tags": sorted(f.class_tags),
            "qc_k": f.qc_k,
        }
        for f in maps
    ]
    return json.dumps(entries, indent=2, sort_keys=True)
