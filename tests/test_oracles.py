"""Independent oracles for the integral means.

Parseval: for f = h + conj(g) with h(0) = g(0) = 0, M_2(r, f)^2 equals
sum (|a_n|^2 + |b_n|^2) r^(2n) over the Taylor coefficients of h and g.

Hypergeometric closed forms: with a = p (or p/2),
(1/2pi) int |1 - r e^{i theta}|^{-2a} dtheta equals 2F1(a, a; 1; r^2), the
classical identity behind the growth of integral means. It gives M_p^p of
koebe, half-plane and strip-like exactly, for the trapezoid chain and for
the adaptive angular rule at deep radii, also with the pole moved just
outside the circle in random directions. mpmath evaluates the
hypergeometric function; it is a test-only dependency.

Harmonic Koebe: mpmath's quadrature of |f|^p over the circle, split at 0,
pi and the two directions +-theta*(r) where |f| dips, found by mpmath's
root finder, checks the adaptive rule at deep radii.

Baernstein's hinge family: a* <= b* everywhere exactly when
mean((a - t)+) <= mean((b - t)+) for every level t, and the largest gaps
agree up to the star function's factor 2 pi.

Shear components: the partial-fraction antiderivatives of h' and g' must
match the graded radial quadrature of the same integrands on the whole
corpus, and mpmath's quadrature of the rational h' (with g = h - phi) for
every named slice, in 12 directions that hold the singular ones, at radii from
1e-3 up to the cap; the shears' values f = 2 Re h - conj(phi) match it no
worse than h + conj(h - phi) did.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hqmaps.analytic import RADIUS_CAP, ClosedForm, catalog, radial_path_integral
from hqmaps.harmonic import analytic_map, corpus_shear, harmonic_koebe
from hqmaps.means import (
    _graded_mean_pows,
    corollary_bound,
    dyadic_means_curve,
    hardy_norm_bound,
    integral_means,
    lemmaF_integral,
)
from hqmaps.star import SampledCircle, phi_means_dominates, star_dominates, star_function

mpmath = pytest.importorskip("mpmath")
mpmath.mp.dps = 30

DEEP = 1.0 - 2.0**-16


def hyp(a: float, r: float, power: int = 2) -> float:
    return float(mpmath.hyp2f1(a, a, 1, mpmath.mpf(r) ** power))


def test_parseval_for_every_corpus_member(corpus):
    n = np.arange(1024)
    for f in corpus:
        weights = np.abs(f.h.taylor(n.size)) ** 2 + np.abs(f.g.taylor(n.size)) ** 2
        for r in (0.3, 0.7, 0.95):
            want = float(np.sum(weights * r ** (2.0 * n)))
            got = integral_means(f, 2.0, r) ** 2
            assert abs(got / want - 1.0) <= 1e-12, (f.uid, r)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["H", "G", "scrH", "scrG"]),
    k=st.floats(0.0, 0.95, exclude_max=True),
    r=st.floats(0.3, 0.95),
)
# a subnormal k makes every value of G_k subnormal, so its means are exact
# only to the least normal double
@example(name="G", k=5e-324, r=0.75)
def test_parseval_for_the_extremals_at_random_k(name, k, r):
    n = np.arange(1024)
    E = catalog(name, k)
    want = float(np.sum(np.abs(E.taylor(n.size)) ** 2 * r ** (2.0 * n)))
    got = integral_means(E, 2.0, r) ** 2
    # G_k and scrG_k scale with k: below ~1e-150 their M_2^2 is a subnormal
    # double, which carries an absolute precision only (G_0 = 0 exactly)
    assert abs(got - want) <= 1e-12 * want + np.finfo(float).tiny, (name, k, r)


@pytest.mark.parametrize("k", [1e-160, 1e-165, 1e-300])
def test_integral_means_keep_their_precision_where_the_squares_underflow(k):
    # G_k = k z H_k, and H_k's coefficients are c_m = 2m + 1 + k c_{m-1}, so
    # M_2(r, G_k) is k times a Taylor sum of order 1, while M_2^2 is subnormal
    r, c = 0.3, [1.0]
    for m in range(1, 200):
        c.append(2 * m + 1 + k * c[-1])
    want = k * math.sqrt(math.fsum(x * x * r ** (2 * m + 2) for m, x in enumerate(c)))
    assert abs(integral_means(catalog("G", k), 2.0, r) / want - 1.0) <= 1e-12


def test_integral_means_keep_their_precision_where_the_squares_overflow():
    huge = ClosedForm("huge", lambda z: 1e200 * (1.0 + z))
    want = 1e200 * math.sqrt(1.0 + 0.5**2)
    assert abs(integral_means(huge, 2.0, 0.5) / want - 1.0) <= 1e-12


@pytest.mark.parametrize("extremal", ["H", "scrH"])
def test_cumulative_bound_at_p2_matches_parseval(extremal):
    # (1 + k) int_0^r M_2(s, E_k) ds with M_2 from Parseval's sum, by mpmath.quad
    n = np.arange(1024)
    for k in (0.0, 0.5):
        c2 = np.abs(catalog(extremal, k).taylor(n.size)) ** 2
        m2 = lambda s: math.sqrt(float(np.sum(c2 * float(s) ** (2.0 * n))))
        for r in (0.5, 0.9):
            want = (1.0 + k) * float(mpmath.quad(m2, [0, r]))
            assert abs(corollary_bound(k, 2.0, r, extremal) / want - 1.0) <= 1e-10, (k, r)


# M_p^p(r, F) = r^p 2F1(c p, c p; 1; r^power) for these (c, power)
_MEANS_CLOSED_FORMS = {"koebe": (1.0, 2), "half-plane": (0.5, 2), "strip-like": (0.5, 4)}


@pytest.mark.parametrize("name", sorted(_MEANS_CLOSED_FORMS))
def test_integral_means_match_hypergeometric_closed_forms(name):
    F = catalog(name)
    c, power = _MEANS_CLOSED_FORMS[name]
    for p in (0.25, 0.5, 1.0, 2.0, 4.0):
        for r in (0.5, 0.9, 0.99, 1.0 - 2.0**-10):
            want = r * hyp(c * p, r, power) ** (1.0 / p)
            assert abs(integral_means(F, p, r) / want - 1.0) <= 1e-12, (p, r)


@pytest.mark.parametrize("p", [0.25, 0.45, 0.9, 2.0, 4.0])
def test_graded_rule_matches_hypergeometric_means(p):
    pole = ClosedForm("double-pole", lambda z: 1.0 / (1.0 - z) ** 2)
    value, nodes, converged, _ = _graded_mean_pows([pole], (p,), (DEEP,), 1e-9)[0][0][0]
    assert converged
    assert nodes <= 2560
    assert abs(value / hyp(p, DEEP) - 1.0) <= 1e-10

    value, _, converged, _ = _graded_mean_pows([catalog("koebe")], (p,), (DEEP,), 1e-9)[0][0][0]
    assert converged
    assert abs(value / (DEEP**p * hyp(p, DEEP)) - 1.0) <= 1e-10


def test_graded_rule_matches_hypergeometric_means_on_a_whole_p_grid():
    # one panel tree serves the grid, so it must refine until every p passes
    ps = (0.25, 0.45, 0.9, 2.0, 4.0)
    pole = ClosedForm("double-pole", lambda z: 1.0 / (1.0 - z) ** 2)
    for p, (value, _, converged, _) in zip(ps, _graded_mean_pows([pole], ps, (DEEP,), 1e-9)[0][0]):
        assert converged
        assert abs(value / hyp(p, DEEP) - 1.0) <= 1e-10, p


def test_koebe_p4_mean_converges_next_to_the_pole():
    # koebe's peak lies at theta = 0, where the angle keeps its full relative
    # precision, so the rule on [0, pi] reaches the 1e-11 that integral_means
    # asks of it at r = 0.999999; M_4 = r 2F1(4, 4; 1; r^2)^(1/4)
    r = 0.999999
    got = integral_means(catalog("koebe"), 4.0, r)
    assert abs(got / (r * hyp(4.0, r) ** 0.25) - 1.0) <= 1e-9


@pytest.mark.parametrize("p", [0.45, 2.0])
def test_adaptive_rule_is_never_wrong_about_a_pole_just_outside_the_circle(p):
    # a double pole at rho e^{i alpha}, 2^-20 outside the circle: M_p^p is
    # 2F1(p, p; 1; (r/rho)^2) in every direction alpha, and a feature about
    # 2^-16 wide must be found from 16 panels 2 pi/16 wide
    rho = 1.0 + 2.0**-20
    want = float(mpmath.hyp2f1(p, p, 1, (mpmath.mpf(DEEP) / (1 + mpmath.mpf(2) ** -20)) ** 2))
    converged_in = 0
    for alpha in np.random.default_rng(20).uniform(0.0, 2.0 * np.pi, 8):
        u = np.exp(-1j * alpha) / rho
        pole = ClosedForm("pole", lambda z: 1.0 / (1.0 - u * z) ** 2)
        value, _, converged, _ = _graded_mean_pows([pole], (p,), (DEEP,), 1e-9)[0][0][0]
        if converged:
            assert abs(value / want - 1.0) <= 1e-10, alpha
            converged_in += 1
    assert converged_in > 0


def test_adaptive_rule_matches_parseval_for_an_extremal():
    # H_k = A/(1 - z)^2 + B/(1 - z) + C/(1 - kz), so a_n = A(n + 1) + B + C k^n
    k, r = 0.5, 1.0 - 2.0**-13
    A, C = 2.0 / (1.0 - k), k * (1.0 + k) / (1.0 - k) ** 2
    n = np.arange(400_000)  # r^(2n) < 1e-42 past the last term
    a = A * (n + 1) + (1.0 - A - C) + C * k**n
    H = catalog("H", k)
    assert np.allclose(H.taylor(64), a[:64], rtol=1e-14, atol=0.0)
    value, _, converged, _ = _graded_mean_pows([H], (2.0,), (r,), 1e-9)[0][0][0]
    assert converged
    assert abs(value / float(np.sum(a**2 * r ** (2.0 * n))) - 1.0) <= 1e-10


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("j", [16, 19])
def test_lemmaF_matches_hypergeometric_at_deep_radii(p, j):
    r = 1.0 - 2.0**-j
    want = 2.0 * math.pi * hyp(p / 2.0, r)
    assert abs(lemmaF_integral(p, r) / want - 1.0) <= 1e-9


@pytest.mark.parametrize(
    "f, p, tail",
    [
        (analytic_map("koebe"), 0.45, -0.9),  # -2p: koebe' ~ |1 - z|^-3
        (analytic_map("half-plane"), 0.9, -0.9),  # -p: h' ~ |1 - z|^-2
        (harmonic_koebe(), 0.4, -1.2),  # -3p: h' ~ |1 - z|^-4
    ],
    ids=["koebe", "half-plane", "harmonic-koebe"],
)
def test_report_certificates_converge_with_exact_tails(f, p, tail):
    b = hardy_norm_bound(f, p)
    assert b.all_converged
    assert abs(b.tail_exponent - tail) < 0.01


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shift=st.floats(-0.5, 0.5), noise=st.floats(0.0, 1.0))
def test_star_domination_agrees_with_the_hinge_family(seed, shift, noise):
    # b is a rearrangement of a, moved by shift and blurred by noise: a* <= b*
    # about as often as not. Both hinge means are piecewise linear in t with
    # kinks at the samples, so the samples of a and b are every level t needs.
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(512)
    b = rng.permutation(a) + shift + noise * rng.standard_normal(512)
    A, B = SampledCircle(0.5, a), SampledCircle(0.5, b)
    star = star_dominates(star_function(A), star_function(B))
    hinge = phi_means_dominates(A, B, p_grid=(), t_grid=np.concatenate((a, b)))
    assert abs(star.max_violation - 2.0 * np.pi * hinge.max_violation) <= 1e-12
    # verdicts read their gaps against the same 1e-9: clear of it, they agree
    assume(not 1e-10 <= hinge.max_violation <= 1e-8)
    assert star.ok == hinge.ok


def test_harmonic_koebe_curve_matches_mpmath_at_deep_radii():
    f = harmonic_koebe()
    c = dyadic_means_curve(f, 0.4, 13)
    assert int(np.sum(c.converged)) == 13
    for j in (8, 13):
        r = 1 - mpmath.mpf(2) ** -j

        def f_at(t):
            z = r * mpmath.expj(t)
            h = (z - z**2 / 2 + z**3 / 6) / (1 - z) ** 3
            g = (z**2 / 2 + z**3 / 6) / (1 - z) ** 3
            return h + mpmath.conj(g)

        def power(t):
            return abs(f_at(t)) ** 0.4

        with mpmath.workdps(20):
            # Re f changes sign once on (0, pi), at theta*(r), between
            # (1 - r)/4 and 2(1 - r); Re f/|f| has its sign and is of order 1
            theta = mpmath.findroot(lambda t: mpmath.cos(mpmath.arg(f_at(t))),
                                    ((1 - r) / 4, 2 * (1 - r)), solver="anderson")
            mean = mpmath.quad(power, [-mpmath.pi, -theta, 0, theta, mpmath.pi]) / (2 * mpmath.pi)
        want = float(mean) ** (1 / 0.4)
        assert abs(c.values[j - 1] / want - 1.0) <= 1e-9, j


CORPUS_SHEARS = [
    (phi, kappa, power)
    for phi in ("identity", "halfplane", "strip")
    for power in (1, 2)
    for kappa in (0.25, 0.5, 0.8)
]


def test_exact_shear_components_match_radial_quadrature():
    # one circle of 37 points per row, each compared relative to its largest value
    radii = np.array([0.3, 0.9, 1.0 - 2.0**-13, RADIUS_CAP])
    z = radii[:, None] * np.exp(2j * np.pi * np.arange(37) / 37)
    for phi, kappa, power in CORPUS_SHEARS:
        f = corpus_shear(phi, kappa, power)
        for part in (f.h, f.g):
            want = radial_path_integral(part.derivative_function(), z)
            err = np.max(np.abs(part(z) - want), axis=1) / np.max(np.abs(want), axis=1)
            assert np.all(err <= 1e-11), (part.uid, err)


# phi and phi' of the slices, in mpmath arithmetic
_SLICES = {
    "identity": (lambda t: t, lambda t: mpmath.mpf(1)),
    "halfplane": (lambda t: t / (1 - t), lambda t: 1 / (1 - t) ** 2),
    "strip": (lambda t: t / (1 - t**2), lambda t: (1 + t**2) / (1 - t**2) ** 2),
}


@functools.lru_cache(maxsize=None)
def _mpmath_h_and_g(phi, kappa, power, point):
    """h and g = h - phi of the shear at the point, by mpmath quadrature of
    the rational h' along [0, point], as complex numbers."""
    phi_mp, dphi = _SLICES[phi]
    w = mpmath.mpc(point.real, point.imag)
    # breakpoints 1 - 2^-j of the way to z, down to the distance of z from the circle
    depth = round(-math.log2(1.0 - abs(point)))
    path = [0] + [w * (1 - mpmath.mpf(2) ** -j) for j in range(1, depth + 1, 3)] + [w]
    with mpmath.workdps(20):
        want_h = mpmath.quad(lambda t: dphi(t) / (1 - kappa * t**power), path,
                             method="gauss-legendre")
        return complex(want_h), complex(want_h - phi_mp(w))


_DIRECTIONS = np.exp(2j * np.pi * np.arange(12) / 12)


# every named slice with m in {1, 2} and kappa in {0.25, 0.8}, and one
# kappa = 0.5; the 12 directions hold every direction where h' and g' blow
# up or vanish: the poles of phi' and the roots of 1 - kappa z^m
@pytest.mark.parametrize(
    "phi, kappa, power",
    [(phi, kappa, power) for phi in _SLICES for power in (1, 2) for kappa in (0.25, 0.8)]
    + [("identity", 0.5, 2)],
    ids=lambda v: f"{v:g}" if isinstance(v, float) else str(v),
)
def test_exact_shear_components_match_mpmath_at_singular_directions(phi, kappa, power):
    f = corpus_shear(phi, kappa, power)
    radii = [1e-3, 1e-2, 0.1, 0.5, 0.99, 1.0 - 2.0**-13, RADIUS_CAP]
    z = np.multiply.outer(radii, _DIRECTIONS).ravel()
    for point, h, g in zip(z, f.h(z), f.g(z)):
        want_h, want_g = _mpmath_h_and_g(phi, kappa, power, complex(point))
        # near 0 the partial fractions of h cancel to about 1e-11
        h_tol = 5e-13 if abs(point) >= 0.1 else 2e-11
        assert abs(h - want_h) <= h_tol * abs(want_h), (point, h, want_h)
        # g = h - phi is small near 0, where h'(0) = 1 sets the scale
        assert abs(g - want_g) <= 1e-12 * max(abs(want_g), 1.0), (point, g, want_g)


# largest relative error of f over the 36 points below when f was evaluated
# as h + conj(h - phi), rounded up to two digits; 2 Re h - conj(phi) must
# not do worse on any map
_F_ERROR_OF_H_PLUS_CONJ_G = {
    ("identity", 0.25, 1): 4.5e-15, ("identity", 0.5, 1): 2.2e-15,
    ("identity", 0.8, 1): 1.6e-15, ("identity", 0.25, 2): 1.6e-15,
    ("identity", 0.5, 2): 9.0e-16, ("identity", 0.8, 2): 8.8e-16,
    ("halfplane", 0.25, 1): 7.4e-16, ("halfplane", 0.5, 1): 2.5e-15,
    ("halfplane", 0.8, 1): 6.3e-14, ("halfplane", 0.25, 2): 1.2e-15,
    ("halfplane", 0.5, 2): 6.3e-15, ("halfplane", 0.8, 2): 1.8e-13,
    ("strip", 0.25, 1): 6.2e-16, ("strip", 0.5, 1): 2.0e-15,
    ("strip", 0.8, 1): 1.6e-14, ("strip", 0.25, 2): 1.3e-15,
    ("strip", 0.5, 2): 7.3e-15, ("strip", 0.8, 2): 2.3e-13,
}


def test_exact_shear_values_match_mpmath_no_worse_than_h_plus_conj_g():
    z = np.multiply.outer([0.5, 0.99, 1.0 - 2.0**-13], _DIRECTIONS).ravel()
    for key in CORPUS_SHEARS:
        f = corpus_shear(*key)
        err = 0.0
        for point, value in zip(z, f(z)):
            h, g = _mpmath_h_and_g(*key, complex(point))
            err = max(err, abs(value - (h + np.conj(g))) / abs(h + np.conj(g)))
        assert err <= _F_ERROR_OF_H_PLUS_CONJ_G[key], (f.uid, err)
