"""Closed-form oracles for the graded angular rule at deep radii.

With a = p (or p/2), (1/2pi) int |1 - r e^{i theta}|^{-2a} dtheta equals
2F1(a, a; 1; r^2), the classical identity behind the growth of integral
means. mpmath evaluates the hypergeometric function; it is a test-only
dependency.
"""

import math

import pytest

from hqmaps.analytic import ClosedForm, catalog
from hqmaps.harmonic import analytic_map, harmonic_koebe
from hqmaps.means import _graded_mean_pow, hardy_norm_bound, lemmaF_integral

mpmath = pytest.importorskip("mpmath")
mpmath.mp.dps = 30

DEEP = 1.0 - 2.0**-16


def hyp(a: float, r: float) -> float:
    return float(mpmath.hyp2f1(a, a, 1, mpmath.mpf(r) ** 2))


@pytest.mark.parametrize("p", [0.25, 0.45, 0.9, 2.0, 4.0])
def test_graded_rule_matches_hypergeometric_means(p):
    pole = ClosedForm("double-pole", lambda z: 1.0 / (1.0 - z) ** 2, singular_angles=(0.0,))
    value, nodes, converged, _ = _graded_mean_pow(pole, p, DEEP, rel_tol=1e-7)
    assert converged
    assert nodes <= 1100
    assert abs(value / hyp(p, DEEP) - 1.0) <= 1e-10

    value, _, converged, _ = _graded_mean_pow(catalog("koebe"), p, DEEP, rel_tol=1e-7)
    assert converged
    assert abs(value / (DEEP**p * hyp(p, DEEP)) - 1.0) <= 1e-10


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
