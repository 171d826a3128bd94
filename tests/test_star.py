"""Star functions: exhaustive oracle, subadditivity, domination lemmas."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqmaps.analytic import (
    ClosedForm,
    DomainError,
    circle_values,
    radial_path_integral,
    unit_circle,
)
from hqmaps.harmonic import corpus_shear
from hqmaps.star import (
    MIN_CIRCLE_SAMPLES,
    SampledCircle,
    StarFunction,
    phi_means_dominates,
    sample_log_modulus,
    star_dominates,
    star_function,
    star_grid_size,
)


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def brute_force_star(values):
    """Max over all index subsets of each size, summed largest-first.

    Independent of the sorted-cumsum implementation; largest-first summation
    makes the float result comparable bit-for-bit.
    """
    values = list(values)
    n = len(values)
    cell = 2.0 * math.pi / n
    out = [0.0]
    for m in range(1, n + 1):
        best = -math.inf
        for combo in itertools.combinations(range(n), m):
            picked = sorted((values[i] for i in combo), reverse=True)
            s = 0.0
            for x in picked:
                s += x
            best = max(best, s)
        out.append(best * cell)
    return np.array(out)


def test_sample_log_modulus_checks_the_count_before_sampling():
    calls = []
    F = ClosedForm("counted", lambda z: calls.append(z.size) or 1.0 + z)
    for n in (-4, 6, 1000, 2**8):
        with pytest.raises(DomainError, match="power-of-two"):
            sample_log_modulus(F, 0.5, n)
    assert calls == []


def test_star_matches_exhaustive_oracle():
    rng = np.random.default_rng(7)
    for trial in range(100):
        n = int(rng.integers(2, 13))
        vals = rng.normal(size=n) * float(rng.uniform(0.1, 10.0))
        sf = star_function(vals)
        oracle = brute_force_star(vals)
        assert np.array_equal(sf.values, oracle), (trial, vals)


def test_star_node_grid():
    sf = star_function(np.arange(8.0))
    assert sf.thetas[0] == 0.0
    assert sf.thetas[-1] == math.pi
    assert sf.values[0] == 0.0
    # total mass at theta = pi is the full mean times 2 pi
    assert abs(sf.values[-1] - 2.0 * math.pi * np.mean(np.arange(8.0))) < 1e-12


def test_star_constant_is_linear():
    sf = star_function(np.full(16, 3.0))
    assert np.allclose(sf.values, 2.0 * sf.thetas * 3.0, atol=1e-12)


def test_star_increments_nonincreasing():
    rng = np.random.default_rng(3)
    vals = rng.normal(size=64)
    sf = star_function(vals)
    inc = np.diff(sf.values)
    assert np.all(np.diff(inc) <= 1e-12), "star must be concave"


def test_star_rotation_invariance():
    rng = np.random.default_rng(11)
    vals = rng.normal(size=32)
    a = star_function(vals).values
    for shift in (1, 5, 17):
        b = star_function(np.roll(vals, shift)).values
        assert np.array_equal(a, b)


def test_star_rejects_bad_input():
    with pytest.raises(DomainError):
        star_function(np.array([1.0]))
    with pytest.raises(DomainError):
        star_function(np.array([1.0, np.nan]))


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=40))
@settings(max_examples=80, deadline=None)
def test_star_subadditivity_property(a):
    rng = np.random.default_rng(len(a))
    b = rng.normal(size=len(a))
    sa = star_function(np.asarray(a)).values
    sb = star_function(b).values
    sab = star_function(np.asarray(a) + b).values
    assert np.all(sab <= sa + sb + 1e-9)


def test_star_subadditivity_200_pairs():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(8, 200))
        a = rng.normal(size=n) * 3.0
        b = rng.standard_cauchy(size=n).clip(-40, 40)
        sab = star_function(a + b).values
        gap = sab - star_function(a).values - star_function(b).values
        assert float(np.max(gap)) <= 1e-9


def symmetric_decreasing_samples(r, n):
    # log|1 + r e^{i theta}| on the [-pi, pi) grid: even in theta,
    # nonincreasing on [0, pi]
    theta = -np.pi + 2.0 * np.pi * np.arange(n) / n
    return np.log(np.abs(1.0 + r * np.exp(1j * theta)))


def test_star_additivity_on_symmetric_decreasing_pairs():
    n = 2**9
    for r1, r2 in ((0.3, 0.6), (0.5, 0.9), (0.05, 0.95)):
        a = symmetric_decreasing_samples(r1, n)
        b = symmetric_decreasing_samples(r2, n)
        lhs = star_function(a + b).values
        rhs = star_function(a).values + star_function(b).values
        assert float(np.max(np.abs(lhs - rhs))) <= 1e-9, (r1, r2)


def herglotz_transport(u, beta):
    return ClosedForm(
        f"transport[u={u:g},beta={beta:g}]",
        lambda z, u=u, beta=beta: np.exp(1j * beta) * (1.0 + u * z) / (1.0 - u * z),
    )


HERGLOTZ_CASES = [
    (0.3, 0.0),
    (0.6, 0.0),
    (0.9, 0.0),
    (1.0, 0.0),
    (0.4, 0.3),
    (0.4, -0.3),
    (0.2, 0.6),
    (0.2, -0.6),
]


def test_positive_real_part_log_domination():
    # any normalized function into the right half-plane is star-dominated by
    # the half-plane kernel (1+z)/(1-z)
    kernel = ClosedForm("rhp-kernel", lambda z: (1.0 + z) / (1.0 - z))
    n = 2**12
    for r in (0.3, 0.6, 0.9):
        top = star_function(sample_log_modulus(kernel, r, n))
        for u, beta in HERGLOTZ_CASES:
            p = herglotz_transport(u, beta)
            v = star_dominates(star_function(sample_log_modulus(p, r, n)), top, tol=1e-8)
            assert v.ok, (u, beta, r, v.max_violation)


def test_star_dominates_grid_mismatch():
    a = star_function(np.zeros(16))
    b = star_function(np.zeros(32))
    with pytest.raises(DomainError):
        star_dominates(a, b)


def test_star_dominates_verdict_fields():
    a = star_function(np.array([1.0, 0.0, 0.0, 0.0]))
    b = star_function(np.zeros(4))
    v = star_dominates(a, b)
    assert not v.ok
    assert v.max_violation > 0
    assert 0.0 <= v.theta_at_max <= math.pi
    assert star_dominates(b, a).ok


def test_sampled_circle_validation():
    with pytest.raises(DomainError):
        SampledCircle(radius=0.5, values=np.zeros(100))  # not a power of two
    with pytest.raises(DomainError):
        SampledCircle(radius=0.5, values=np.zeros(MIN_CIRCLE_SAMPLES // 2))
    with pytest.raises(DomainError):
        SampledCircle(radius=1.5, values=np.zeros(MIN_CIRCLE_SAMPLES))
    with pytest.raises(DomainError):
        SampledCircle(radius=0.5, values=np.full(MIN_CIRCLE_SAMPLES, np.inf))


def test_sample_log_modulus_raises_on_an_exact_zero():
    # z - 1/2 vanishes exactly on the r = 0.5 grid at theta = 0; the radius
    # is never moved, so no finite log|F| exists there
    F = ClosedForm("z-minus-half", lambda z: z - 0.5)
    with pytest.raises(DomainError, match="vanishes or is not finite .* at r = 0.5"):
        sample_log_modulus(F, 0.5, 2**9)
    for value in (np.nan, np.inf):
        with pytest.raises(DomainError):
            sample_log_modulus(ClosedForm("const", lambda z: np.full_like(z, value)), 0.5, 2**9)


def test_sample_log_modulus_of_a_shear_keeps_its_digits_at_the_modulus_minimum():
    # |f| is least near theta = 3.04, where a spectral pass, accurate to
    # 1e-12 of the largest |f| on the circle, was 3.6e-8 off in log|f|
    f = corpus_shear("halfplane", 0.5, 1)
    n = 2**12
    sc = sample_log_modulus(f, 0.9999, n)
    z = sc.radius * np.roll(unit_circle(n), n // 2)
    want = radial_path_integral(f.h_prime, z) + np.conj(radial_path_integral(f.g_prime, z))
    assert np.max(np.abs(sc.values - np.log(np.abs(want)))) <= 1e-12


def test_log_samples_and_star_functions_are_bitwise_their_plain_expressions():
    rng = np.random.default_rng(11)
    f = corpus_shear("strip", 0.8, 2)
    for n in (2**9, 2**12, 2**16):
        sc = sample_log_modulus(f, 0.99, n)
        want = np.log(np.roll(np.abs(circle_values(f, 0.99, n)), n // 2))
        assert np.array_equal(_bits(sc.values), _bits(want)), n
        for vals in (sc.values, rng.normal(size=n), sample_log_modulus(f.g_prime, 0.5, n).values):
            sf = star_function(vals)
            plain = np.concatenate([[0.0], np.cumsum(np.sort(vals)[::-1])]) * (2.0 * np.pi / n)
            assert np.array_equal(_bits(sf.values), _bits(plain)), n
            assert np.array_equal(_bits(sf.thetas), _bits(np.pi * np.arange(n + 1) / n)), n
            assert not np.signbit(sf.values[0])
    # sums that cancel exactly read +0.0, as the descending sums do
    vals = [1.0, 0.5, -0.5, -1.0]
    plain = np.concatenate([[0.0], np.cumsum(np.sort(vals)[::-1])]) * (2.0 * np.pi / 4)
    assert np.array_equal(_bits(star_function(vals).values), _bits(plain))


def test_sample_log_modulus_gives_up_on_zero_function():
    F = ClosedForm("zero", lambda z: 0.0 * z)
    with pytest.raises(DomainError):
        sample_log_modulus(F, 0.5, 2**9)


def test_phi_means_domination_kernel_baseline():
    # constant 0 against the half-plane kernel at r = 0.5: the kernel's
    # p-means are at least 1, so domination holds
    n = 2**12
    kernel = ClosedForm("rhp-kernel", lambda z: (1.0 + z) / (1.0 - z))
    a = SampledCircle(radius=0.5, values=np.zeros(n))
    b = sample_log_modulus(kernel, 0.5, n)
    assert phi_means_dominates(a, b).ok


def test_phi_means_matches_star_order_both_ways():
    n = 2**10  # power of two below the circle minimum is fine for raw arrays
    rng = np.random.default_rng(5)
    raw = rng.normal(size=n)
    lo = SampledCircle(radius=0.5, values=raw - 2.0)
    hi = SampledCircle(radius=0.5, values=raw.max() + np.abs(rng.normal(size=n)))
    assert phi_means_dominates(lo, hi).ok
    v = phi_means_dominates(hi, lo)
    assert not v.ok and v.max_violation > 0


def test_star_grid_size_escalation():
    assert star_grid_size(0.5) == 2**12
    assert star_grid_size(0.989) == 2**12
    assert star_grid_size(0.99) == 2**16
    assert star_grid_size(0.999) == 2**16


def test_star_csv_rows():
    sf = star_function(SampledCircle(radius=0.5, values=np.zeros(2**9), source_id="s"))
    rows = sf.csv_rows()
    assert len(rows) == 2**9 + 1
    assert StarFunction.csv_header() == "theta,value,source_id,radius"
    assert rows[0].endswith(",s,0.5")
