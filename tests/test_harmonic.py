"""Harmonic map construction: shears, corpus, tags."""

import dataclasses
import hashlib
import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqmaps import harmonic
from hqmaps.analytic import (
    CIRCLE_BLOCK,
    RADIUS_CAP,
    ClosedForm,
    DomainError,
    RadialIntegral,
    catalog,
    series_integrate,
    unit_circle,
)
from hqmaps.harmonic import (
    K_of_k,
    analytic_map,
    build_corpus,
    corpus_manifest,
    corpus_shear,
    harmonic_koebe,
    k_of_K,
    make_shear,
)

GRID = 0.6 * np.exp(1j * np.linspace(-3, 3, 17))


def test_shear_slice_identity():
    # h - g = phi is the defining relation
    f = corpus_shear("halfplane", 0.5, 1)
    phi = catalog("half-plane")
    assert np.allclose(f.h(GRID) - f.g(GRID), phi(GRID), atol=1e-12)


def test_shear_dilatation():
    f = corpus_shear("strip", 0.8, 2)
    w = f.g_prime(GRID) / f.h_prime(GRID)
    assert np.allclose(w, 0.8 * GRID**2, atol=1e-10)


def test_every_builder_declares_the_dilatation_it_builds(corpus):
    # g' = kappa z^m h' exactly, at points inside and near the rim
    z = np.concatenate([GRID, 0.999 * np.exp(1j * np.linspace(-3, 3, 17))])
    for f in corpus + [corpus_shear("strip", 0.0, 2), make_shear("halfplane", 0.3, 3)]:
        kappa, m = f.dilatation
        assert np.allclose(f.g_prime(z), kappa * z**m * f.h_prime(z), rtol=1e-13, atol=0.0)
    assert make_shear("strip", 0.8, 2).dilatation == (0.8, 2)
    assert analytic_map("koebe").dilatation == corpus_shear("strip", 0.0, 2).dilatation == (0.0, 0)
    assert harmonic_koebe().dilatation == (1.0, 1)
    # a copy may carry another h or g, so it declares nothing
    assert dataclasses.replace(make_shear("strip", 0.8, 2)).dilatation is None


def test_shear_value_frozen():
    # phi = z, omega = 0.5 z: h' = 1/(1 - z/2), so h(1/2) = -2 log(3/4)
    f = corpus_shear("identity", 0.5, 1)
    got = complex(f.h(np.asarray(0.5 + 0j)))
    assert abs(got - (-2.0 * math.log(0.75))) < 1e-12


def test_shear_taylor_integrates_h_prime_without_truncation():
    h = corpus_shear("halfplane", 0.5, 1).h
    want = series_integrate(h.derivative_function().taylor(5000), 5000)
    got = h.taylor(5000)
    assert np.array_equal(got, want)
    # h' = 1/((1-z)^2 (1-z/2)) has coefficients growing like 2m: no zero tail
    assert np.all(got[1:] != 0)


def test_shear_evaluates_as_h_plus_conj_g():
    f = corpus_shear("halfplane", 0.25, 1)
    direct = f(GRID)
    assert np.allclose(direct, f.h(GRID) + np.conj(f.g(GRID)), atol=1e-12)


def test_exact_shear_evaluates_h_once_per_call(monkeypatch, corpus):
    # g = h - phi, so f = h + conj(h - phi) = 2 Re h - conj(phi) bit for bit
    for f in corpus:
        if f.slice_phi is not None:
            assert np.array_equal(_bits(f(GRID)), _bits(_plain_exact_f(f, GRID))), f.uid
    calls = []

    def counted_exact_h(*args):
        h = exact_h(*args)

        def counted(z, real=False):
            calls.append((np.size(z), real))
            return h(z, real)

        return counted

    exact_h = harmonic._exact_shear_h
    monkeypatch.setattr(harmonic, "_exact_shear_h", counted_exact_h)
    f = corpus_shear("strip", 0.5, 2)
    f(GRID)
    f.circle_values(0.99, 2**16)
    # Re h alone, once per point; a 2^16-point circle in blocks, on its
    # upper half, j = 0 .. 2^15, since the shear has real coefficients
    assert calls == [(GRID.size, True)] + [(CIRCLE_BLOCK, True)] * 8 + [(1, True)]
    # a copy with another h must not reuse g = h - phi
    copy = dataclasses.replace(f, h=catalog("koebe"))
    assert copy.slice_phi is None and copy.slice_re_h is None


def test_exact_shear_samples_a_circle_by_its_point_formula(monkeypatch, corpus):
    spectral = []

    def counted_spectral(self, r, n):
        spectral.append(self.uid)
        return spectral_pass(self, r, n)

    spectral_pass = RadialIntegral.circle_values
    monkeypatch.setattr(RadialIntegral, "circle_values", counted_spectral)
    exact = [f for f in corpus if f.slice_phi is not None]
    assert len(exact) == 18
    for f in exact:
        for r in (0.5, 0.99):
            assert np.array_equal(f.circle_values(r, 2**10), f(r * unit_circle(2**10))), f.uid
    assert spectral == []


def _bits(z):
    return np.ascontiguousarray(z).view(np.uint64)


def _exact_terms(f):
    """The (c, b) terms the closure of shear f's exact h holds, by name."""
    h = f.h._fn
    return dict(zip(h.__code__.co_freevars, (cell.cell_contents for cell in h.__closure__)))


def _plain_exact_h(f):
    """The exact h of shear f by the plain expressions c z / (1 - z/b) and
    c (log|w| + i angle(w)), w = 1 - z/b, over the terms its closure holds;
    with real=True, Re h by (c z / (1 - z/b)).real and
    Re c log|w| - Im c angle(w)."""
    terms = _exact_terms(f)

    def plain(z, real=False):
        out = np.zeros(z.shape, float if real else complex)
        for c, b in terms["rational"]:
            term = c * z / (1.0 - z / b)
            out += term.real if real else term
        for c, b in terms["logs"]:
            w = 1.0 - z / b
            if not real:
                out += c * (np.log(np.abs(w)) + 1j * np.angle(w))
                continue
            out += c.real * np.log(np.abs(w))
            if c.imag:
                out -= c.imag * np.angle(w)
        return out

    return plain


def _plain_exact_f(f, z):
    """2 Re h - conj(phi) from the plain Re h, its parts set one by one."""
    phi = f.slice_phi(z)
    parts = np.stack([2.0 * _plain_exact_h(f)(z, real=True) - phi.real, phi.imag], axis=-1)
    return parts.view(complex)[..., 0]


def test_exact_shear_h_in_place_is_bitwise_its_plain_expression(corpus):
    exact = [f for f in corpus if f.slice_phi is not None]
    assert len(exact) == 18
    for f in exact:
        plain = _plain_exact_h(f)
        for r in (0.5, 0.99, 1.0 - 2.0**-13, RADIUS_CAP):
            z = r * unit_circle(2**12)
            assert np.array_equal(_bits(f.h(z)), _bits(plain(z))), (f.uid, r)
            got = f.circle_values(r, 2**12)
            assert np.array_equal(_bits(got), _bits(_plain_exact_f(f, z))), (f.uid, r)


def test_exact_shears_take_their_coefficients_real_and_im_f_from_phi(corpus):
    exact = [f for f in corpus if f.slice_phi is not None]
    assert len(exact) == 18
    for f in exact:
        terms = _exact_terms(f)
        # the roots of 1 - kappa z^m are +-kappa^(-1/m) for m <= 2: no angle enters Re h
        assert all(np.isrealobj(c) for c, _ in terms["rational"] + terms["logs"]), f.uid
        for r in (0.5, 0.99, 1.0 - 2.0**-13, RADIUS_CAP):
            z = r * unit_circle(2**12)
            assert np.array_equal(_bits(f.circle_values(r, 2**12).imag), _bits(f.slice_phi(z).imag))
        assert np.array_equal(_bits(f(GRID).imag), _bits(f.slice_phi(GRID).imag)), f.uid


def test_exact_shear_re_h_keeps_an_angle_for_complex_coefficients():
    # m = 3 has complex roots, so some coefficients are complex: Re h needs
    # their -Im c angle(w), and equals the real part of the complex h
    f = make_shear("halfplane", 0.5, 3)
    h = f.h._fn
    z = 0.99 * unit_circle(2**9)
    assert np.max(np.abs(h(z, real=True) - h(z).real)) <= 1e-14 * np.max(np.abs(h(z)))
    # its coefficients are real, so the circle's upper half is sampled and
    # the lower half mirrored: that matches the point formula, whose
    # complex roots round differently at conjugate points, to roundoff
    sampled, plain = f.circle_values(0.99, 2**9), _plain_exact_f(f, z)
    assert np.array_equal(_bits(sampled[: 2**8 + 1]), _bits(plain[: 2**8 + 1]))
    assert np.max(np.abs(sampled - plain)) <= 1e-14 * np.max(np.abs(plain))
    want = f.h(z) + np.conj(f.g(z))
    assert np.max(np.abs(f(z) - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "phi_name, kappa, m",
    [("wedge", 0.5, 1), ("half-plane", 0.5, 1), ("halfplane", 0.0, 1), ("halfplane", 1.0, 1),
     ("halfplane", -0.5, 2), ("halfplane", 0.5, 0), ("halfplane", 0.5, 1.5)],
)
def test_make_shear_rejects_a_bad_slice_kappa_or_m(phi_name, kappa, m):
    # a slice key outside _SLICES (the catalog uid is not one), kappa outside
    # (0, 1), m not an integer >= 1
    with pytest.raises(DomainError):
        make_shear(phi_name, kappa, m)


def test_shear_needs_a_named_slice_and_a_declared_monomial_omega():
    # omega is declared by (kappa, m) alone: make_shear takes no omega or
    # uid, and a phi object in place of a slice name is rejected
    assert list(inspect.signature(make_shear).parameters) == ["phi_name", "kappa", "m"]
    with pytest.raises(DomainError):
        make_shear(catalog("half-plane"), 0.5, 1)


def test_every_shear_has_closed_form_components(corpus):
    shears = [f for f in corpus if f.uid.startswith("shear[")]
    assert len(shears) == 18
    for f in shears + [make_shear("halfplane", 0.5, 3)]:
        assert isinstance(f.h, ClosedForm) and isinstance(f.g, ClosedForm), f.uid
        # h' and g' are the shear's own closed forms, not differentiated series
        assert f.h_prime is f.h._dfn and f.g_prime is f.g._dfn
        assert f.slice_phi is not None, f.uid


def test_shear_omega_sup_too_large():
    with pytest.raises(DomainError):
        corpus_shear("halfplane", 1.0, 1)


def test_unknown_slice_name():
    with pytest.raises(DomainError):
        corpus_shear("wedge", 0.5, 1)


def test_jacobian_positive_for_shears():
    f = corpus_shear("halfplane", 0.8, 1)
    J = np.abs(f.h_prime(GRID)) ** 2 - np.abs(f.g_prime(GRID)) ** 2
    assert np.all(J > 0)


def test_harmonic_koebe_structure():
    f = harmonic_koebe()
    # h - g integrates h' - g' = (1+z)/(1-z)^3, the koebe derivative
    k = catalog("koebe")
    assert np.allclose(f.h(GRID) - f.g(GRID), k(GRID), atol=1e-10)
    w = f.g_prime(GRID) / f.h_prime(GRID)
    assert np.allclose(w, GRID, atol=1e-10)
    assert f.qc_k is None
    assert "close-to-convex" in f.class_tags
    assert "convex" not in f.class_tags


def test_analytic_map_identity():
    f = analytic_map("identity")
    assert f.is_analytic()
    assert f.qc_k == 0.0
    assert np.allclose(f(GRID), GRID, atol=1e-15)
    assert "convex" in f.class_tags


def test_analytic_map_koebe_not_convex():
    f = analytic_map("koebe")
    assert "convex" not in f.class_tags
    assert "starlike" in f.class_tags


def test_k_of_K_roundtrip_values():
    assert k_of_K(1.0) == 0.0
    assert abs(k_of_K(3.0) - 0.5) < 1e-15
    assert abs(K_of_k(0.5) - 3.0) < 1e-15
    with pytest.raises(DomainError):
        k_of_K(0.5)
    with pytest.raises(DomainError):
        K_of_k(1.0)


@given(st.floats(1.0, 50.0))
@settings(max_examples=80, deadline=None)
def test_k_of_K_inverse(K):
    k = k_of_K(K)
    assert 0.0 <= k < 1.0
    assert abs(K_of_k(k) - K) < 1e-9 * K


def test_corpus_size_and_uids(corpus):
    assert len(corpus) >= 10
    uids = [f.uid for f in corpus]
    assert len(set(uids)) == len(uids)
    assert "harmonic-koebe" in uids
    assert "identity" in uids
    shear_ids = [u for u in uids if u.startswith("shear[")]
    assert len(shear_ids) == 18


def test_corpus_convex_tags(corpus_by_uid):
    # only the mild identity-slice shears get the probe-backed convex tag
    assert "convex" in corpus_by_uid["shear[phi=identity,omega=0.25z]"].class_tags
    assert "convex" not in corpus_by_uid["shear[phi=identity,omega=0.5z]"].class_tags
    assert "convex" not in corpus_by_uid["shear[phi=halfplane,omega=0.25z]"].class_tags


def test_corpus_qc_declarations(corpus_by_uid):
    assert corpus_by_uid["shear[phi=halfplane,omega=0.8z]"].qc_k == 0.8
    assert corpus_by_uid["harmonic-koebe"].qc_k is None
    assert corpus_by_uid["strip-like"].qc_k == 0.0


def test_manifest_deterministic(corpus):
    m1 = corpus_manifest(corpus)
    m2 = corpus_manifest(build_corpus())
    assert m1 == m2
    doc = json.loads(m1)
    assert len(doc) == len(corpus)


def test_kappa_zero_shear_collapses():
    f = corpus_shear("halfplane", 0.0, 1)
    assert f.is_analytic()
    assert np.allclose(f(GRID), catalog("half-plane")(GRID), atol=1e-12)


def test_kappa_zero_shear_records_the_slice_as_every_shear_does():
    for phi_name, uid in (("identity", "identity"), ("halfplane", "half-plane"), ("strip", "strip-like")):
        for power in (1, 2):
            metas = [corpus_shear(phi_name, kappa, power).meta for kappa in (0.0, 0.5)]
            assert [meta["phi"] for meta in metas] == [uid, uid]


def test_corpus_manifest_hash_pinned():
    # every corpus uid, tag, phi/omega parameter and qc_k, through any change
    # to how the corpus is built
    corpus = build_corpus()
    assert len(corpus) == 23
    digest = hashlib.sha256(corpus_manifest(corpus).encode()).hexdigest()
    assert digest == "adc1236d07ab021317e250743826fa397b0e875b8946e53de77e56baceeee738"
