"""Integral means: quadrature vs series oracles, bounds, dyadic curves."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqmaps import analytic, means
from hqmaps.analytic import (
    ClosedForm,
    DomainError,
    NonConvergenceError,
    catalog,
    taylor_coefficients,
)
from hqmaps.harmonic import analytic_map, corpus_shear, harmonic_koebe
from hqmaps.means import (
    MeansCurve,
    _graded_mean_pows,
    _mean_pow,
    corollary_bound,
    dyadic_means_curve,
    envelope_ratio,
    hardy_norm_bound,
    hardy_tail,
    integral_means,
    lemmaF_integral,
    lemmaF_ratio,
)
from hqmaps.harmonic import k_of_K
from hqmaps.verify import K_GRID, P_GRID, R_GRID, hardy_membership_verdict, suite_membership


def coefficient_M2(F, r, n=2048):
    """Independent oracle: M_2^2 = sum |a_m|^2 r^{2m}."""
    c = taylor_coefficients(F, n)
    m = np.arange(c.size)
    return math.sqrt(float(np.sum(np.abs(c) ** 2 * (r ** (2.0 * m)))))


def test_M2_koebe_frozen():
    # sum m^2 x^m = x(1+x)/(1-x)^3 at x = 1/4 gives M_2^2 = 20/27
    got = integral_means(catalog("koebe"), 2.0, 0.5)
    assert abs(got - math.sqrt(20.0 / 27.0)) < 1e-12
    assert abs(got - 0.8606629658238704) < 1e-10


def test_M2_against_coefficient_oracle():
    # the last pair agrees to six digits and must not share cached samples
    pairs = (("H", 0.5), ("scrH", 0.25), ("G", 0.5), ("half-plane", 0.0),
             ("H", 0.3333331), ("H", 0.3333334))
    for name, k in pairs:
        F = catalog(name, k)
        for r in (0.3, 0.7, 0.95):
            got = integral_means(F, 2.0, r)
            want = coefficient_M2(F, r)
            assert abs(got - want) <= 1e-8 * want, (name, r)


def test_identity_means_all_p():
    idm = catalog("identity")
    for p in (0.25, 1.0, 2.0, 4.0):
        assert abs(integral_means(idm, p, 0.5) - 0.5) < 1e-12


def test_domain_errors():
    F = catalog("identity")
    with pytest.raises(DomainError):
        integral_means(F, 0.0, 0.5)
    with pytest.raises(DomainError):
        integral_means(F, -1.0, 0.5)
    with pytest.raises(DomainError):
        integral_means(F, 2.0, 1.0)
    with pytest.raises(DomainError):
        integral_means(F, 2.0, 0.0)


def test_nonconvergence_carries_last_iterates():
    # |1 + z^(2^18)|^2 turns 2^18 times round the circle: past the node cap
    # of the angular rule, which must say so
    lacunary = ClosedForm("lacunary", lambda z: 1 + z**2**18)
    with pytest.raises(NonConvergenceError, match="n=") as info:
        integral_means(lacunary, 2.0, 0.999999)
    assert "trapezoid" not in str(info.value)
    assert len(info.value.last_two) == 2
    # the totals of the last two steps, not the last one twice
    first, last = info.value.last_two
    assert first != last
    value, n, converged, last_two = _mean_pow(lacunary, 2.0, 0.999999)
    # the next step would take it past the cap
    assert (n, converged) == (1048320, False)
    assert last_two[1] == value and last_two[0] != value


def test_the_angular_rule_takes_h_once_per_node_for_a_harmonic_map():
    # a harmonic map has a whole-circle sampler, yet the rule evaluates h
    # only at its own nodes, each once
    f = harmonic_koebe()
    h, evaluated = f.h, []

    def counted(z):
        evaluated.append(np.size(z))
        return h(z)

    f = dataclasses.replace(f, h=ClosedForm(h.uid, counted))
    _, n, converged, _ = _mean_pow(f, 0.4, 1 - 2**-5, 1e-7)
    assert converged and n > 768
    assert sum(evaluated) == n


def test_functions_sharing_a_uid_share_no_samples():
    # the uid names a function; it is no key to another function's samples
    assert abs(integral_means(ClosedForm("same", lambda z: z), 2.0, 0.5) - 0.5) < 1e-14
    assert abs(integral_means(ClosedForm("same", lambda z: 2 * z), 2.0, 0.5) - 1.0) < 1e-14


def test_integral_means_evaluate_a_pointwise_target_once_per_step():
    H, sizes = catalog("H", 0.5), []
    F = ClosedForm(H.uid, lambda z: sizes.append(z.size) or H(z))
    rs = (0.5, 0.9, 0.99)
    # integral_means asks the rule for a hundredth of its tolerance
    nodes = [res[0][1] for res in _graded_mean_pows([H], (1.0, 2.0), rs, 1e-10)[0]]
    means._integral_means_grid([F], (1.0, 2.0), rs, 1e-8)
    # the 16 start panels of every circle at once, their 32 halves, then
    # the active panels of the radii left: each node once, all p served
    assert sizes[:2] == [3 * 256, 3 * 512]
    assert sum(sizes) == sum(nodes) and len(sizes) > 2


def test_declared_targets_take_the_whole_circles_nodes_and_decisions(corpus):
    # a target with real coefficients is integrated on [0, pi]; undeclared,
    # the same function takes the whole circle. Both take the same steps,
    # report the same node counts and agree to roundoff
    targets = list(corpus) + [f.h_prime for f in corpus]
    targets += [catalog(name, k_of_K(K)) for name in ("H", "scrH") for K in K_GRID]
    for F in targets:
        (half,) = _graded_mean_pows([F], P_GRID, R_GRID, 1e-10)
        (whole,) = _graded_mean_pows([ClosedForm(F.uid, F)], P_GRID, R_GRID, 1e-10)
        for r, by_p, want_by_p in zip(R_GRID, half, whole):
            for p, (value, nodes, converged, _), (want, n, c, _) in zip(P_GRID, by_p, want_by_p):
                assert (nodes, converged) == (n, c), (F.uid, r, p)
                assert abs(value / want - 1.0) <= 1e-12, (F.uid, r, p)


def test_cumulative_bound_takes_each_depths_new_nodes_in_one_batch(monkeypatch):
    ps, k, r = (1.0, 2.0, 4.0), 0.5, 0.99
    # the radius-line integrand with one call of the angular rule per node
    E = catalog("H", k)
    one_by_one = (1.0 + k) * analytic.graded_integral(
        lambda s: np.array([means._integral_means_grid([E], ps, (x,), 1e-8)[0][0] for x in s]),
        0.0, r, 8, 1e-7,
    )
    calls, batches = [], []

    def counted(name, k):
        E = catalog(name, k)
        return ClosedForm(E.uid, lambda z: calls.append(z.size) or E(z),
                          real_coefficients=E.real_coefficients)

    def recorded(Fs, ps, rs, *args):
        out = graded(Fs, ps, rs, *args)
        batches.append(sum(row[0][1] for row in out[0]))
        return out

    graded = means._graded_mean_pows
    monkeypatch.setattr(means, "catalog", counted)
    monkeypatch.setattr(means, "_graded_mean_pows", recorded)
    got = means._corollary_bounds([("H", k)], ps, r)[0]
    assert np.array_equal(got, one_by_one)
    # one batch per grading depth, E run on each node of each once: on the
    # upper half circle, while the node counts are the whole circle's
    assert 2 <= len(batches) <= 5
    assert 2 * sum(calls) == sum(batches)


def test_one_radius_line_integral_serves_every_p():
    ps = (1.0, 2.0, 4.0)
    for k, r, extremal in ((0.0, 0.5, "H"), (0.5, 0.9, "scrH"), (0.25, 0.99, "H")):
        got = means._corollary_bounds([(extremal, k)], ps, r)[0]
        for p, value in zip(ps, got):
            want = corollary_bound(k, p, r, extremal)
            assert abs(value / want - 1.0) <= 1e-14, (k, r, extremal, p)


def test_zero_component_mean_is_zero():
    g = analytic_map("identity").g
    assert integral_means(g, 0.5, 0.9) == 0.0


def test_means_of_harmonic_map_dominates_components():
    f = corpus_shear("halfplane", 0.5, 1)
    r, p = 0.8, 2.0
    Mf = integral_means(f, p, r)
    Mh = integral_means(f.h, p, r)
    # |f| <= |h| + |g| pointwise, so a crude triangle bound must hold
    Mg = integral_means(f.g, p, r)
    assert Mf <= Mh + Mg + 1e-9


@given(st.floats(0.05, 0.98), st.floats(0.3, 4.0))
@settings(max_examples=25, deadline=None)
def test_identity_mean_equals_radius(r, p):
    assert abs(integral_means(catalog("identity"), p, r) - r) < 1e-9


def test_means_monotone_in_radius():
    H = catalog("H", 0.5)
    vals = [integral_means(H, 1.0, r) for r in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_means_monotone_in_p():
    # power means are nondecreasing in p
    H = catalog("scrH", 0.5)
    r = 0.6
    vals = [integral_means(H, p, r) for p in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_corollary_bound_requires_p_at_least_one():
    with pytest.raises(DomainError):
        corollary_bound(0.5, 0.5, 0.5)
    with pytest.raises(DomainError):
        corollary_bound(0.5, 0.999, 0.5)


def test_corollary_bound_validation():
    with pytest.raises(DomainError):
        corollary_bound(1.0, 2.0, 0.5)
    with pytest.raises(DomainError):
        corollary_bound(0.5, 2.0, 0.5, extremal="pole")


def test_corollary_bound_frozen():
    # (1+0) * int_0^0.5 M_1(s, H_0) ds, H_0 = (1+z)/(1-z)^2
    got = corollary_bound(0.0, 1.0, 0.5)
    assert abs(got - 0.6084111029) < 1e-8
    # a second call recomputes the bound bit for bit
    assert corollary_bound(0.0, 1.0, 0.5) == got


def test_corollary_bound_monotone_in_r():
    vals = [corollary_bound(0.5, 2.0, r) for r in (0.3, 0.5, 0.7)]
    assert vals[0] < vals[1] < vals[2]


def test_lemmaF_exact_p2():
    # closed form: int dtheta/|1-re^{it}|^2 = 2 pi / (1 - r^2)
    for r in (0.1, 0.5, 0.9, 0.99):
        got = lemmaF_integral(2.0, r)
        want = 2.0 * math.pi / (1.0 - r * r)
        assert abs(got - want) <= 1e-9 * want
    assert abs(lemmaF_integral(2.0, 0.5) - 8.0 * math.pi / 3.0) < 1e-9


def test_lemmaF_validation():
    with pytest.raises(DomainError):
        lemmaF_integral(1.0, 0.5)
    with pytest.raises(DomainError):
        lemmaF_integral(2.0, 1.0)
    assert lemmaF_integral(3.0, 0.0) == 2.0 * math.pi


def test_lemmaF_ratio_bounded():
    for p in (1.5, 2.0, 3.0):
        ratios = [lemmaF_ratio(p, 1.0 - 2.0**-j) for j in range(6, 13)]
        assert max(ratios) / min(ratios) < 2.0, p


def test_envelope_ratio_bounded_band():
    for extremal in ("H", "scrH"):
        ratios = [
            envelope_ratio(0.5, 2.0, 1.0 - 2.0**-j, extremal) for j in range(6, 13)
        ]
        assert max(ratios) / min(ratios) < 4.0, extremal


def test_envelope_ratio_validation():
    with pytest.raises(DomainError):
        envelope_ratio(0.5, 1.0, 0.5)
    with pytest.raises(DomainError):
        envelope_ratio(0.5, 2.0, 0.5, extremal="K")


def test_hardy_norm_bound_identity_frozen():
    # h' = 1: integral of (1-r)^{p-1} up to 1 - 2^-16 is 2(1 - 2^-8) at p = 1/2
    b = hardy_norm_bound(analytic_map("identity"), 0.5)
    assert abs(b.value - 1.9921875) < 1e-6
    assert abs(b.tail_exponent + 0.5) < 1e-3
    assert not b.divergent
    assert b.all_converged
    assert float(b) == b.value


def test_hardy_norm_bound_flags_divergence():
    b = hardy_norm_bound(harmonic_koebe(), 0.4)
    assert b.divergent
    assert b.tail_exponent <= -1.0
    assert math.isinf(float(b))


# the bound by the trapezoid chain, which converges at every radius for this
# shear and p
STRIP_SHEAR_BOUND = 6.8316192320618825


def test_graded_bound_matches_converged_trapezoid():
    b = hardy_norm_bound(corpus_shear("strip", 0.8585, 1), 0.1024)
    assert b.all_converged
    assert abs(b.value - STRIP_SHEAR_BOUND) < 1e-9


_BATCH_RADII = tuple(1.0 - 2.0 ** -np.arange(1, 14)) + (0.05, 0.3, 0.62, 0.9, 0.97, 0.985)


@pytest.mark.parametrize(
    "F, p",
    [
        (corpus_shear("identity", 0.8, 1), 0.45),
        (corpus_shear("halfplane", 0.5, 2), 0.45),
        (corpus_shear("strip", 0.8, 1), 0.3),
        (corpus_shear("strip", 0.25, 2).h_prime, 0.45),
        (analytic_map("half-plane"), 0.9),
        (catalog("koebe"), 0.45),
        (catalog("H", 0.5), 2.0),
        (corpus_shear("strip", 0.8, 2), 4.0),
        (ClosedForm("one-minus-z", lambda z: 1.0 - z), -1.5),
    ],
    ids=lambda v: getattr(v, "uid", None),
)
def test_batched_graded_means_equal_one_radius_at_a_time(F, p):
    # |F| is raised to each p by a scalar exponent, so no radius's result
    # depends on the radii that share its steps, on a p grid too
    for ps in ((p,), P_GRID):
        (batched,) = _graded_mean_pows([F], ps, _BATCH_RADII, 1e-9)
        assert batched == [_graded_mean_pows([F], ps, (r,), 1e-9)[0][0] for r in _BATCH_RADII], ps


def _batch_targets():
    """A target declaring real coefficients, one declaring none, a tiny one
    that averages |F/s|^p at some p, and one that stops unconverged."""
    return [
        catalog("H", 0.5),
        ClosedForm("koebe-whole-circle", catalog("koebe")),
        catalog("G", 1e-300),
        ClosedForm("lacunary", lambda z: 1 + z**2**18),
    ]


def test_a_batch_of_targets_equals_each_targets_own_call():
    Fs, rs = _batch_targets(), (0.5, 0.9, 0.999999)
    scales = []
    batched = _graded_mean_pows(Fs, P_GRID, rs, 1e-9, scales)
    assert [len(s) for s in scales] == [3] * 4 and scales[2][0] != [1.0] * 5
    for F, by_r, scales_F in zip(Fs, batched, scales):
        alone = []
        assert by_r == _graded_mean_pows([F], P_GRID, rs, 1e-9, alone)[0], F.uid
        assert [scales_F] == alone, F.uid
    assert not batched[3][2][0][2] and all(res[2] for by_r in batched[:3] for row in by_r for res in row)
    # the raw means, s^p times the scaled ones
    raw = _graded_mean_pows(Fs[:3], P_GRID, rs, 1e-9)
    assert raw == [_graded_mean_pows([F], P_GRID, rs, 1e-9)[0] for F in Fs[:3]]


def test_an_unconverged_target_is_named_by_its_batch():
    Fs = _batch_targets()
    with pytest.raises(NonConvergenceError, match=r"for lacunary at p=2\.0, r=0\.999999 stopped at n="):
        means._integral_means_grid(Fs, (2.0,), (0.5, 0.999999), 1e-7)


@pytest.mark.parametrize(
    "F, ps",
    [
        (harmonic_koebe(), (0.25, 0.4, 1.0, 2.0)),
        (analytic_map("identity"), (0.25, 0.45, 0.9)),
        (catalog("H", 0.5), (0.25, 0.5, 1.0, 2.0, 4.0)),
        (corpus_shear("strip", 0.8, 2).g_prime, (0.25, 0.5, 1.0, 2.0, 4.0)),
        (catalog("koebe"), (-1.0, 4.0)),
    ],
    ids=lambda v: getattr(v, "uid", None),
)
def test_graded_means_for_a_p_grid_equal_one_p_at_a_time(F, ps):
    # one panel tree serves the whole grid and refines until every p passes,
    # so each p agrees with its own tree to the tolerance, not bitwise
    radii = 1.0 - 2.0 ** -np.arange(1, 14)
    (batched,) = _graded_mean_pows([F], ps, radii, 1e-9)
    for j, p in enumerate(ps):
        for by_p, (alone,) in zip(batched, _graded_mean_pows([F], (p,), radii, 1e-9)[0]):
            assert by_p[j][2] and alone[2]
            assert abs(by_p[j][0] / alone[0] - 1.0) <= 1e-9, p
    (curves,) = means._dyadic_means_curves([F], ps, 13)
    for p, curve in zip(ps, curves):
        alone = dyadic_means_curve(F, p, 13)
        assert curve.p == p
        assert np.all(curve.converged) and np.all(alone.converged)
        assert np.allclose(curve.values, alone.values, rtol=1e-9, atol=0.0)


# hardy_norm_bound's (value, tail_exponent, all_converged) and the number of
# evaluations of h': one per refinement step of each radius-line level
HARDY_PINS = {
    ("koebe", 0.45): (8.5356965830401, -0.9080674925128337, True, 39),
    ("half-plane", 0.9): (4.186246231440147, -0.8999991310284707, True, 40),
    ("shear[phi=strip,omega=0.5z^2]", 0.45): (3.488386720797492, -0.6095706327857777, True, 36),
}


@pytest.mark.parametrize(
    "f, p",
    [
        (analytic_map("koebe"), 0.45),
        (analytic_map("half-plane"), 0.9),
        (corpus_shear("strip", 0.5, 2), 0.45),
    ],
    ids=lambda v: getattr(v, "uid", None),
)
def test_hardy_norm_bound_evaluates_h_prime_once_per_radius_line_level(f, p, monkeypatch):
    hp, calls, batches = f.h_prime, [], []
    graded_mean_pows = means._graded_mean_pows

    def counted(z):
        calls.append(z.size)
        return hp(z)

    def batch(Fs, ps, rs, rel_tol):
        batches.append(len(rs))
        return graded_mean_pows(Fs, ps, rs, rel_tol)

    monkeypatch.setattr(means, "_graded_mean_pows", batch)
    counted_h = ClosedForm(f.h.uid, f.h, dfn=ClosedForm(hp.uid, counted))
    f = dataclasses.replace(f, h=counted_h)
    b = hardy_norm_bound(f, p)
    assert (b.value, b.tail_exponent, b.all_converged, len(calls)) == HARDY_PINS[f.uid, p]
    # two depths of the [0, 1 - 2^-6] integral, the dyadic tail, the gap radii
    assert len(batches) <= 4, batches


@pytest.mark.parametrize(
    "f, p",
    [
        (analytic_map("koebe"), 0.45),
        (analytic_map("half-plane"), 0.9),
        # the growth fit alone makes this one a member: no certificate
        (corpus_shear("strip", 0.5, 2), 0.45),
        (harmonic_koebe(), 0.4),
    ],
    ids=lambda v: getattr(v, "uid", None),
)
def test_verdict_takes_only_the_tail_of_hardy_norm_bound(f, p, monkeypatch):
    batches = []
    graded_mean_pows = means._graded_mean_pows

    def batch(Fs, ps, rs, *args):
        (F,) = Fs
        batches.append((F.uid, len(rs)))
        return graded_mean_pows(Fs, ps, rs, *args)

    monkeypatch.setattr(means, "_graded_mean_pows", batch)
    v = hardy_membership_verdict(f, p)
    certified = v.certificate is not None
    assert certified == (f.uid != "shear[phi=strip,omega=0.5z^2]")
    # the means curve at 13 radii, then h' at the six gap radii in one batch
    assert batches == [(f.uid, 13)] + [(f.h_prime.uid, 6)] * certified
    tail = v.certificate if certified else hardy_tail(f, p)
    assert not hasattr(tail, "value")
    b = hardy_norm_bound(f, p)
    assert dataclasses.astuple(tail) == (b.tail_exponent, b.divergent, b.all_converged)


def test_hardy_norm_bound_validation():
    idm = analytic_map("identity")
    shifted = dataclasses.replace(idm, h=ClosedForm("one-plus-z", lambda z: 1.0 + z))
    for bound in (hardy_norm_bound, hardy_tail):
        with pytest.raises(DomainError):
            bound(idm, 1.0)
        with pytest.raises(DomainError):
            bound(idm, 0.0)
        with pytest.raises(DomainError, match="normalization"):
            bound(shifted, 0.5)


def test_dyadic_curve_shape():
    c = dyadic_means_curve(catalog("identity"), 1.0, 8)
    assert c.radii.size == 8
    assert abs(c.radii[0] - 0.5) < 1e-15
    assert np.all(c.converged)
    assert np.allclose(c.values, c.radii, atol=1e-9)
    rows = c.csv_rows()
    assert len(rows) == 8
    assert MeansCurve.csv_header() == "target_id,p,r,value"


def test_dyadic_curve_depth_lies_in_1_to_20():
    # the deepest radius 1 - 2^-depth may reach RADIUS_CAP = 1 - 2^-20, not pass it
    assert analytic.RADIUS_CAP == 1.0 - 2.0**-20
    c = dyadic_means_curve(catalog("identity"), 1.0, 20)
    assert c.radii[-1] == analytic.RADIUS_CAP
    for depth in (0, 21):
        with pytest.raises(DomainError, match=rf"depth must lie in 1\.\.20, got {depth}"):
            dyadic_means_curve(catalog("identity"), 1.0, depth)


@pytest.mark.parametrize("size", [1e200, 1e-200])
def test_dyadic_curve_keeps_its_precision_where_the_squares_leave_the_doubles(size):
    # M_2(r, c (1 + z)) = c sqrt(1 + r^2); at p = 2 the raw mean c^2 (1 + r^2)
    # overflows (or underflows to 0), the scaled mean does not
    F = ClosedForm("scaled", lambda z: size * (1.0 + z))
    c = dyadic_means_curve(F, 2.0, 6)
    assert np.all(c.converged)
    want = size * np.sqrt(1.0 + c.radii**2)
    assert np.max(np.abs(c.values / want - 1.0)) <= 1e-12
    assert np.array_equal(c.values, [integral_means(F, 2.0, r, 1e-7) for r in c.radii])


def _trapezoid_mean_pow(F, p, r, rel_tol):
    """(1/2pi) int |F|^p by the periodic trapezoid rule, doubling the grid
    until two levels agree to rel_tol; None where 2^20 points do not."""
    prev = None
    for n in 2 ** np.arange(9, 21):
        cur = float(np.mean(np.abs(analytic.circle_values(F, r, int(n))) ** p))
        if prev is not None and abs(cur - prev) <= rel_tol * abs(cur):
            return cur
        prev = cur
    return None


@pytest.mark.parametrize("phi, kappa, power", [("halfplane", 0.5, 1), ("strip", 0.8, 2)])
@pytest.mark.parametrize("p", [0.25, 0.45])
def test_shear_curve_on_graded_panels_matches_the_trapezoid(phi, kappa, power, p):
    f = corpus_shear(phi, kappa, power)
    c = dyadic_means_curve(f, p, 10)
    assert np.all(c.converged)
    for r, value in zip(c.radii, c.values):
        want = _trapezoid_mean_pow(f, p, float(r), 1e-7)
        assert abs(value / want ** (1.0 / p) - 1.0) <= 1e-7, r


# dyadic_means_curve(harmonic_koebe(), 0.4, 13) at its first seven radii by
# the trapezoid chain, which converges there; it hits the sample cap at the
# other six
HARMONIC_KOEBE_CURVE = (
    0.6124435468636646, 1.3726092840491275, 2.4682833065352674, 4.006697967348452,
    6.130225197517701, 9.04366238788777, 13.037606141187865,
)


def test_harmonic_koebe_curve_converges_on_graded_panels():
    # the rule finds the pole at 1, the zeros of h' and g' at -1 and the two
    # dips of |f| at +-theta*(r), about (1 - r)^2 wide, by itself
    c = dyadic_means_curve(harmonic_koebe(), 0.4, 13)
    assert int(np.sum(c.converged)) == 13
    for got, want in zip(c.values, HARMONIC_KOEBE_CURVE):
        assert abs(got / want - 1.0) <= 1e-9


def test_a_copied_harmonic_koebe_converges_like_the_original():
    # nothing is declared on the map, so a copy loses nothing
    f = harmonic_koebe()
    c = dyadic_means_curve(dataclasses.replace(f), 0.4, 13)
    assert c.converged.tolist() == [True] * 13
    assert np.array_equal(c.values, dyadic_means_curve(f, 0.4, 13).values)


class _Counted:
    """A target that records the size of every batch it is evaluated on."""

    def __init__(self, f):
        self.f, self.calls = f, []

    def __getattr__(self, name):
        return getattr(self.f, name)

    def __call__(self, z):
        self.calls.append(np.size(z))
        return self.f(z)


# M_0.45 at r = 1 - 2^-13 and the points of each evaluation of the map by a
# depth-13 curve: every corpus map has real coefficients, so the 8 start
# panels on [0, pi] at 13 radii, then 32 nodes per active panel. Each value
# is within 1.6e-14 of the whole circle's, and each count is half of its
_CURVE_PINS = {
    "koebe": (7.269374735757855, [1664, 3328, 576, 512, 448, 384, 320, 256, 192, 128, 64]),
    "half-plane": (
        1.3178226144251293, [1664, 3328, 576, 512, 448, 384, 320, 256, 192, 128, 64]
    ),
    "strip-like": (
        1.315208777062454, [1664, 3328, 1152, 1024, 896, 768, 640, 512, 384, 256, 128]
    ),
    "shear[phi=identity,omega=0.8z^2]": (1.0007659199739172, [1664, 3328]),
    "shear[phi=halfplane,omega=0.8z]": (
        2.026579372104781, [1664, 3328, 704, 640, 576, 448, 320, 256, 192, 128, 64]
    ),
    "shear[phi=strip,omega=0.8z^2]": (
        2.0615035527078476, [1664, 3328, 1408, 1280, 1152, 1024, 768, 512, 384, 256, 128]
    ),
}


def test_corpus_curves_converge_with_one_evaluation_per_refinement_step(corpus):
    for f in corpus:
        F = _Counted(f)
        c = dyadic_means_curve(F, 0.45, 13)
        assert np.all(c.converged), f.uid
        nodes = [res[0][1] for res in _graded_mean_pows([f], (0.45,), c.radii, 1e-9)[0]]
        # nodes count the whole circle, F is taken on its upper half
        assert F.calls[0] == 13 * 128 and 2 * sum(F.calls) == sum(nodes), f.uid
        if f.uid in _CURVE_PINS:
            assert (c.values[-1], F.calls) == _CURVE_PINS[f.uid], f.uid


def test_membership_suite_evaluates_each_map_once_for_all_its_p(corpus):
    checked = 0
    for f in corpus:
        F = _Counted(f)
        rows = suite_membership([F])
        if len(rows) < 2:
            continue
        one_batch = _Counted(f)
        means._dyadic_means_curves([one_batch], [row.p for row in rows], 13)
        # the normalization probe of a certificate evaluates f at 0 alone
        assert [n for n in F.calls if n > 1] == one_batch.calls, f.uid
        checked += 1
    assert checked == 22


def test_curve_radii_must_increase():
    with pytest.raises(DomainError):
        MeansCurve(p=1.0, radii=np.array([0.5, 0.5]), values=np.zeros(2), target="x")
