"""Catalog functions: closed forms, series, integration paths."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqmaps.analytic import (
    CATALOG_NAMES,
    CIRCLE_BLOCK,
    RADIUS_CAP,
    ClosedForm,
    DomainError,
    NonConvergenceError,
    RadialIntegral,
    catalog,
    circle_values,
    gauss_panels,
    graded_breaks,
    graded_integral,
    radial_path_integral,
    taylor_coefficients,
    unit_circle,
)
from hqmaps.harmonic import HarmonicMap, corpus_shear
from hqmaps.means import integral_means
from hqmaps.probes import PROBE_POINTS


def test_catalog_names_complete():
    assert set(CATALOG_NAMES) == {
        "identity",
        "koebe",
        "half-plane",
        "strip-like",
        "H",
        "G",
        "scrH",
        "scrG",
    }
    # map-type entries vanish at 0; derivative-type extremals are 1 there
    at_zero = {"identity": 0, "koebe": 0, "half-plane": 0, "strip-like": 0,
               "H": 1, "scrH": 1, "G": 0, "scrG": 0}
    for name in CATALOG_NAMES:
        F = catalog(name, 0.5)
        assert complex(F(np.asarray(0j))) == at_zero[name]


def test_catalog_rejects_unknown_name():
    with pytest.raises(DomainError):
        catalog("lens")
    # the one check of a catalog name: the CLI passes its message on
    with pytest.raises(DomainError) as info:
        catalog("nope")
    assert "'nope'" in str(info.value)
    for name in CATALOG_NAMES:
        assert name in str(info.value), name


def test_catalog_rejects_bad_k():
    with pytest.raises(DomainError):
        catalog("H", 1.0)
    with pytest.raises(DomainError):
        catalog("H", -0.1)


def test_koebe_values():
    k = catalog("koebe")
    z = np.array([0.5 + 0j, 0.3j, -0.2 + 0.1j])
    assert np.allclose(k(z), z / (1 - z) ** 2, rtol=1e-14)
    # derivative formula (1+z)/(1-z)^3
    assert np.allclose(k.derivative_function()(z), (1 + z) / (1 - z) ** 3, rtol=1e-14)


def test_extremal_family_closed_forms():
    k = 0.5
    H = catalog("H", k)
    G = catalog("G", k)
    sH = catalog("scrH", k)
    sG = catalog("scrG", k)
    z = 0.37 * np.exp(1j * np.linspace(0, 6, 11))
    HH = (1 + z) / ((1 - z) ** 2 * (1 - k * z))
    assert np.allclose(H(z), HH, rtol=1e-13)
    assert np.allclose(G(z), k * z * HH, rtol=1e-13)
    sHH = (1 + z) ** 2 / ((1 - z) ** 3 * (1 - k * z))
    assert np.allclose(sH(z), sHH, rtol=1e-13)
    assert np.allclose(sG(z), k * z * sHH, rtol=1e-13)


def test_k_zero_collapses_G_to_zero():
    G0 = catalog("G", 0.0)
    z = np.array([0.1, 0.5j, -0.7])
    assert np.max(np.abs(G0(z))) == 0.0


def test_taylor_coefficients_koebe():
    # z/(1-z)^2 = sum m z^m
    c = taylor_coefficients(catalog("koebe"), 10)
    assert np.allclose(c[1:], np.arange(1, 10), atol=1e-10)
    assert abs(c[0]) < 1e-12


def test_taylor_coefficients_half_plane():
    c = taylor_coefficients(catalog("half-plane"), 8)
    assert np.allclose(c[1:], np.ones(7), atol=1e-10)


def test_taylor_matches_closed_form_inside_series_radius():
    H = catalog("H", 0.25)
    c = taylor_coefficients(H, 256)
    z = 0.4 * np.exp(0.7j)
    series = np.polyval(c[::-1], z)
    assert abs(series - complex(H(np.asarray(z)))) < 1e-12


def test_radius_cap_enforced():
    H = catalog("H", 0.5)
    with pytest.raises(DomainError):
        H(np.asarray(complex(1.0)))
    with pytest.raises(DomainError):
        H(np.asarray(complex(RADIUS_CAP + 1e-9)))


def test_circle_values_matches_direct_evaluation():
    targets = [catalog(name, k) for name, k in (("H", 0.5), ("scrH", 0.25), ("G", 2 / 3))]
    # shear components are closed forms, sampled pointwise
    for f in (corpus_shear("halfplane", 0.5, 1), corpus_shear("strip", 0.8, 2)):
        targets += [f.h, f.g]
    # a radial integral is sampled by its spectral pass
    targets.append(RadialIntegral(catalog("H", 0.5).derivative_function(), "int H'"))
    n = 4096
    theta = 2 * np.pi * np.arange(n) / n
    for F in targets:
        for r in (0.9, 0.99):
            direct = F(r * np.exp(1j * theta))
            sampled = circle_values(F, r, n)
            scale = np.max(np.abs(direct))
            assert np.max(np.abs(sampled - direct)) < 1e-11 * scale, (F.uid, r)


def _half_plane_integral():
    """z/(1 - z) as the radial integral of its derivative."""
    return RadialIntegral(catalog("half-plane").derivative_function(), "int half-plane'")


def test_circle_values_match_pointwise_evaluation_near_boundary():
    # at n = 2^12 and r = 0.9999 a plain whole-circle pass aliases by percents;
    # the pointwise values come from the radial quadrature
    F = _half_plane_integral()
    n, r = 2**12, 0.9999
    idx = np.arange(0, n, 64)
    direct = F(r * np.exp(2j * np.pi * idx / n))
    points = circle_values(F, r, n)[idx]
    assert np.max(np.abs(points - direct)) < 1e-10 * np.max(np.abs(direct))


def test_radial_integral_circle_values_are_point_values():
    # the spectral pass oversamples, so it agrees with the antiderivative z/(1 - z)
    F = _half_plane_integral()
    n, r = 2**12, 0.9999
    z = r * np.exp(1j * (2 * np.pi / n) * np.arange(n))
    direct = z / (1.0 - z)
    sampled = F.circle_values(r, n)
    assert np.max(np.abs(sampled - direct)) < 1e-10 * np.max(np.abs(direct))


def test_circle_values_evaluate_a_pointwise_target_once_per_point():
    # a closed form has no whole-circle pass to alias, so no oversampling;
    # a large circle takes it in blocks, each point once
    koebe = catalog("koebe")
    evaluated = []

    def counted(z):
        evaluated.append(np.size(z))
        return koebe(z)

    # declaring real coefficients, it is taken at j = 0 .. n/2 alone
    blocks = {
        (False, 2**12): [CIRCLE_BLOCK],
        (False, 2**16): [CIRCLE_BLOCK] * 16,
        (True, 2**12): [2**11 + 1],
        (True, 2**16): [CIRCLE_BLOCK] * 8 + [1],
    }
    for (real, n), want in blocks.items():
        F = ClosedForm("counted-koebe", counted, real_coefficients=real)
        for r in (0.999, 0.9999):
            evaluated.clear()
            points = circle_values(F, r, n)
            assert evaluated == want, (real, n, r)
            assert np.array_equal(_bits(points), _bits(koebe(r * unit_circle(n)))), (real, n, r)


def test_blocked_circle_values_are_bitwise_one_evaluation_of_the_grid(corpus):
    targets = [catalog(name, 0.5) for name in CATALOG_NAMES]
    for f in corpus:
        targets.append(f)
        if f.uid.startswith("shear["):
            targets += [f.h_prime, f.g_prime]
    assert len(targets) == 8 + 23 + 2 * 18
    # 3 * 2^11 points: one whole block and one half block
    for n in (2**9, 2**12, 3 * 2**11, 2**16):
        for r in (0.5, 0.99, RADIUS_CAP):
            z = r * unit_circle(n)
            for F in targets:
                assert np.array_equal(_bits(circle_values(F, r, n)), _bits(F(z))), (F.uid, n, r)


def _bits(z):
    return np.ascontiguousarray(z).view(np.int64)


def test_declared_targets_have_real_coefficients(corpus):
    # what a declaration promises: real Taylor coefficients, so
    # F(conj z) = conj F(z) and |F| is even in the angle
    targets = [catalog(name, k) for name in CATALOG_NAMES for k in (0.0, 0.2, 0.5, 0.8)]
    for f in corpus:
        targets += [f, f.h, f.g, f.h_prime, f.g_prime]
    assert len(targets) == 32 + 5 * 23
    for F in targets:
        assert F.real_coefficients, F.uid
        if not isinstance(F, HarmonicMap):
            assert np.all(F.taylor(64).imag == 0), F.uid
        want = np.conj(F(PROBE_POINTS))
        assert np.all(np.abs(F(np.conj(PROBE_POINTS)) - want) <= 1e-15 * np.abs(want)), F.uid


def test_a_complex_coefficient_target_takes_the_whole_circle():
    # (1 - iz)^-2 = sum (n + 1) (iz)^n declares nothing, so every grid point
    # is evaluated, bitwise; its pole lies below the real axis, at z = -i,
    # so a mirrored upper half would miss it. Parseval:
    # M_2^2 = sum (n + 1)^2 r^2n = (1 + r^2)/(1 - r^2)^3
    evaluated = []
    F = ClosedForm("tilted-pole", lambda z: evaluated.append(z.size) or (1 - 1j * z) ** -2)
    assert not F.real_coefficients
    for n in (2**9, 2**16):
        evaluated.clear()
        got = circle_values(F, 0.99, n)
        assert sum(evaluated) == n
        assert np.array_equal(_bits(got), _bits((1 - 1j * (0.99 * unit_circle(n))) ** -2)), n
    for r in (0.5, 0.9, 0.99):
        want = (1.0 + r * r) / (1.0 - r * r) ** 3
        assert abs(integral_means(F, 2.0, r) ** 2 / want - 1.0) <= 1e-12, r


def test_unit_circle_is_bitwise_the_grid_computed_in_place():
    # tabled up to 2^16 points, computed beyond; the expression up to n/2,
    # exactly -1 at n/2 and the conjugate of the mirror point above, so
    # the grid is conjugate-symmetric bit for bit
    for n in [2**k for k in range(21)] + [3, 96, 1000, 1001]:
        half, grid = n // 2, np.exp(1j * ((2.0 * np.pi / n) * np.arange(n)))
        if n % 2 == 0:
            grid[half] = -1.0
        grid[half + 1 :] = np.conj(grid[1 : n - half][::-1])
        unit = unit_circle(n)
        assert np.array_equal(_bits(unit), _bits(grid)), n
        j = np.arange(1, n - half)
        assert np.array_equal(_bits(unit[n - j]), _bits(np.conj(unit[j]))), n


def test_graded_integral_resolves_a_near_endpoint_singularity():
    # (1 + eps - t)^(-1/2) has its branch point just past the end at t = 1;
    # deep breakpoints round to 1 itself, where the integrand is still finite
    eps = 2.0**-40
    value = graded_integral(lambda t: ((1.0 - t) + eps) ** -0.5, 0.0, 1.0, 8, 1e-10)
    assert abs(value / (2.0 * (math.sqrt(1.0 + eps) - math.sqrt(eps))) - 1.0) < 1e-12


def test_graded_integral_integrates_vector_integrands_componentwise():
    powers = np.arange(4)
    value = graded_integral(lambda t: t[:, None] ** powers, 0.0, 2.0, 16, 1e-12, floor=1.0)
    assert value.shape == (4,)
    assert np.allclose(value, 2.0 ** (powers + 1) / (powers + 1), rtol=1e-14, atol=0)


def test_graded_integral_takes_each_node_once_and_keeps_its_value():
    # two components, one with its branch point just past t = 1, need three
    # depths; deeper ones would round nodes of distinct panels to t = 1
    def fn(t):
        seen.append(t.copy())
        return np.stack([((1.0 - t) + 2.0**-16) ** -0.5, np.cos(3.0 * t)], axis=1)

    # the reference takes fn at every node of each depth
    seen, cur = [], None
    for depth in (6, 12, 24, 48, 96):
        t, w = gauss_panels(graded_breaks(0.0, 1.0, depth), 8)
        prev, cur = cur, w @ fn(t)
        if prev is not None and np.all(np.abs(cur - prev) <= 1e-10 * np.abs(cur)):
            break
    reference_calls, seen = len(seen), []
    value = graded_integral(fn, 0.0, 1.0, 8, 1e-10)
    nodes = np.concatenate(seen)
    assert len(seen) == reference_calls >= 3
    assert np.unique(nodes).size == nodes.size
    assert np.array_equal(value, cur)


def test_graded_integral_reports_a_stalled_integrand():
    # int_0^1 dt / (1 - t) diverges, so each doubling of the depth adds to
    # it; the shift 2^-60 keeps the integrand finite at t = 1
    with pytest.raises(NonConvergenceError) as info:
        graded_integral(lambda t: 1.0 / ((1.0 - t) + 2.0**-60), 0.0, 1.0, 8, 1e-7)
    coarse, fine = info.value.last_two
    assert fine > coarse + 1.0


def test_radial_path_integral_matches_the_antiderivative():
    z = 0.9999 * np.exp(1j * np.linspace(0.0, 2 * np.pi, 7))
    got = radial_path_integral(lambda w: 1.0 / (1.0 - w) ** 2, z)
    assert np.allclose(got, z / (1.0 - z), rtol=1e-12, atol=0)
    assert radial_path_integral(lambda w: 2.0 * w, 0.5j) == pytest.approx(-0.25, abs=1e-15)


def test_closed_form_without_derivative_raises():
    F = ClosedForm("cube", lambda z: z**3)
    with pytest.raises(DomainError):
        F.derivative_function()


def test_closed_form_without_taylor_generator_raises_a_domain_error():
    with pytest.raises(DomainError, match="carries no Taylor coefficient generator"):
        ClosedForm("x", lambda z: z).taylor(4)


@given(st.floats(0.05, 0.95), st.floats(0, 2 * math.pi))
@settings(max_examples=60, deadline=None)
def test_koebe_growth_bounds(r, t):
    # classical growth estimates, attained by the function itself on the axis
    z = np.asarray(r * np.exp(1j * t))
    w = abs(complex(catalog("koebe")(z)))
    assert w <= r / (1 - r) ** 2 + 1e-12
    assert w >= r / (1 + r) ** 2 - 1e-12


@given(st.floats(0.05, 0.8), st.integers(0, 7))
@settings(max_examples=40, deadline=None)
def test_extremal_series_consistency(r, idx):
    names = ["identity", "koebe", "half-plane", "strip-like", "H", "G", "scrH", "scrG"]
    F = catalog(names[idx], 0.4)
    c = taylor_coefficients(F, 400)
    z = r * np.exp(1.3j)
    assert abs(np.polyval(c[::-1], z) - complex(F(np.asarray(z)))) < 1e-9
