"""Geometry probes: dilatation certificates, sense reversal, convexity."""

import inspect

import numpy as np
import pytest

from hqmaps.harmonic import (
    HarmonicMap,
    analytic_map,
    corpus_shear,
    harmonic_koebe,
)
from hqmaps.probes import (
    PROBE_POINTS,
    PROBE_RADII,
    SenseReversalError,
    convexity_probe,
    qc_certify,
)


def test_qc_certify_at_declared_k():
    f = corpus_shear("halfplane", 0.5, 1)
    v = qc_certify(f, 0.5)
    assert v.ok
    assert v.sup_dilatation <= 0.5 + 1e-10
    assert v.max_distortion <= 3.0 + 1e-6


def test_qc_certify_fails_below_true_sup():
    f = corpus_shear("halfplane", 0.5, 1)
    v = qc_certify(f, 0.4)
    assert not v.ok
    assert v.sup_dilatation > 0.4


def test_qc_certify_analytic_map():
    v = qc_certify(analytic_map("koebe"), 0.0)
    assert v.ok
    assert v.sup_dilatation == 0.0
    assert abs(v.max_distortion - 1.0) < 1e-12


def test_harmonic_koebe_never_certifies():
    f = harmonic_koebe()
    v = qc_certify(f, 0.95)
    assert not v.ok  # |omega| = |z| climbs to the probe rim


def test_sense_reversal_detected():
    base = corpus_shear("halfplane", 0.5, 1)
    flipped = HarmonicMap(
        h=base.g, g=base.h, uid="flipped", class_tags=frozenset(), qc_k=None
    )
    with pytest.raises(SenseReversalError):
        qc_certify(flipped, 0.99)


def test_convexity_probe_koebe_radius():
    # classical convexity radius 2 - sqrt(3) ~ 0.268
    koebe = analytic_map("koebe")
    assert convexity_probe(koebe, 0.25).ok
    assert not convexity_probe(koebe, 0.9).ok


def test_convexity_probe_convex_maps():
    assert convexity_probe(analytic_map("identity"), 0.99).ok
    assert convexity_probe(analytic_map("half-plane"), 0.99).ok


def test_convexity_probe_shears():
    assert convexity_probe(corpus_shear("identity", 0.25, 1), 0.9).ok
    assert not convexity_probe(corpus_shear("halfplane", 0.5, 1), 0.9).ok


def test_qc_certify_takes_a_map_and_k_on_one_fixed_grid():
    assert list(inspect.signature(qc_certify).parameters) == ["f", "k"]
    # 2^10 angles from theta = 0 on each of the 7 radii, circle after circle
    rings = PROBE_POINTS.reshape(len(PROBE_RADII), 2**10)
    assert np.allclose(np.abs(rings), np.array(PROBE_RADII)[:, None], rtol=1e-15, atol=0)
    assert np.all(rings[:, 0].imag == 0)
    assert not PROBE_POINTS.flags.writeable
