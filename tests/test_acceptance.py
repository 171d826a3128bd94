"""Acceptance gate: one test per numbered criterion, shared suite run.

Each test prints one summary line; the pytest -v status line per test is the
per-criterion pass/fail record.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import hqmaps
from hqmaps.analytic import ClosedForm, DomainError, catalog, taylor_coefficients
from hqmaps.harmonic import build_corpus
from hqmaps.means import (
    MeansCurve,
    corollary_bound,
    envelope_ratio,
    integral_means,
    lemmaF_integral,
    lemmaF_ratio,
)
from hqmaps.star import (
    SampledCircle,
    phi_means_dominates,
    sample_log_modulus,
    star_dominates,
    star_function,
)
from hqmaps.verify import growth_exponent, run_suite

K_GRID_K = (0.0, 0.2, 1.0 / 3.0, 0.5, 2.0 / 3.0)  # k of K in {1,1.5,2,3,5}


@pytest.fixture(scope="module")
def suite():
    t0 = time.monotonic()
    report = run_suite("all")
    return report, time.monotonic() - t0


@pytest.fixture(scope="module")
def corpus_maps():
    return build_corpus()


def rows_by_prefix(report, prefix):
    return [r for r in report.rows if r.inequality_id.startswith(prefix)]


def test_criterion_01_means_domination_sweep(suite, corpus_maps):
    report, elapsed = suite
    assert elapsed < 300.0, "theorem sweep must finish within its budget"
    assert len(corpus_maps) >= 10
    rows = rows_by_prefix(report, "means-")
    rows = [r for r in rows if not r.inequality_id.startswith("means-classic")]
    assert len(rows) >= 5000
    assert {r.p for r in rows} == {0.25, 0.5, 1.0, 2.0, 4.0}
    assert {r.r for r in rows} == {0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99}
    ks = {round(r.k, 12) for r in rows}
    assert {round(k, 12) for k in K_GRID_K} <= ks
    bad = [r for r in rows if r.verdict != "pass"]
    assert bad == [], bad[:5]
    # margins are checked relative to the row scale the tolerance encodes
    worst = min((r.margin / r.tol) * 1e-6 for r in rows)
    assert worst >= -1e-6
    print(f"criterion 1 PASS: {len(rows)} domination rows, worst rel margin {worst:.3e}")


def brute_force_star(values):
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


def test_criterion_02_star_machinery():
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    # exhaustive subset oracle, exact at the cell boundaries
    for _ in range(100):
        n = int(rng.integers(2, 13))
        vals = rng.normal(size=n) * float(rng.uniform(0.1, 5.0))
        assert np.array_equal(star_function(vals).values, brute_force_star(vals))
    # subadditivity on 200 random pairs
    for _ in range(200):
        n = int(rng.integers(8, 256))
        a, b = rng.normal(size=n) * 2.0, rng.normal(size=n) * 3.0
        gap = (
            star_function(a + b).values
            - star_function(a).values
            - star_function(b).values
        )
        assert float(np.max(gap)) <= 1e-9
    # equality for symmetric nonincreasing pairs
    n = 2**9
    theta = -np.pi + 2.0 * np.pi * np.arange(n) / n
    for r1, r2 in ((0.2, 0.7), (0.5, 0.9), (0.1, 0.95)):
        a = np.log(np.abs(1.0 + r1 * np.exp(1j * theta)))
        b = np.log(np.abs(1.0 + r2 * np.exp(1j * theta)))
        dev = star_function(a + b).values - star_function(a).values - star_function(b).values
        assert float(np.max(np.abs(dev))) <= 1e-9
    # half-plane kernel dominates the positive-real-part transports
    kernel = ClosedForm("rhp-kernel", lambda z: (1.0 + z) / (1.0 - z))
    cases = [
        (0.3, 0.0), (0.6, 0.0), (0.9, 0.0), (1.0, 0.0),
        (0.4, 0.3), (0.4, -0.3), (0.2, 0.6), (0.2, -0.6),
    ]
    m = 2**12
    for r in (0.3, 0.6, 0.9):
        top = star_function(sample_log_modulus(kernel, r, m))
        for u, beta in cases:
            p = ClosedForm(
                f"transport[u={u:g},beta={beta:g}]",
                lambda z, u=u, beta=beta: np.exp(1j * beta)
                * (1.0 + u * z)
                / (1.0 - u * z),
            )
            v = star_dominates(star_function(sample_log_modulus(p, r, m)), top, tol=1e-8)
            assert v.ok, (u, beta, r, v.max_violation)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"criterion 2 PASS: oracle, subadditivity, transports in {elapsed:.1f}s")


def test_criterion_03_star_implies_phi_means(corpus_maps):
    t0 = time.monotonic()
    by_uid = {f.uid: f for f in corpus_maps}
    picks = [
        "identity",
        "half-plane",
        "koebe",
        "shear[phi=halfplane,omega=0.5z]",
        "shear[phi=identity,omega=0.25z]",
        "shear[phi=strip,omega=0.8z^2]",
        "harmonic-koebe",
    ]
    n, checked, passed_pairs = 2**12, 0, 0
    for uid in picks:
        f = by_uid[uid]
        k = f.qc_k if f.qc_k else 0.5
        E = catalog("scrH", k)
        for r in (0.3, 0.7, 0.95):
            a = sample_log_modulus(f.h_prime, r, n)
            b = sample_log_modulus(E, r, n)
            checked += 1
            if star_dominates(star_function(a), star_function(b), tol=1e-9).ok:
                passed_pairs += 1
                v = phi_means_dominates(a, b)
                assert v.ok, (uid, r, v.detail, v.max_violation)
    assert passed_pairs >= 15  # the implication must actually be exercised
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(
        f"criterion 3 PASS: {passed_pairs}/{checked} star passes, "
        f"all imply the exp/hinge means order ({elapsed:.1f}s)"
    )


def test_criterion_04_quadrature_fidelity():
    functions = [
        catalog("identity"),
        catalog("koebe"),
        catalog("half-plane"),
        catalog("strip-like"),
        catalog("H", 0.5),
        catalog("G", 0.5),
        catalog("scrH", 0.25),
        catalog("scrG", 2.0 / 3.0),
    ]
    worst = 0.0
    for F in functions:
        coeffs = taylor_coefficients(F, 4096)
        m = np.arange(coeffs.size)
        for r in (0.3, 0.7, 0.95):
            oracle = math.sqrt(float(np.sum(np.abs(coeffs) ** 2 * r ** (2.0 * m))))
            got = integral_means(F, 2.0, r)
            if oracle == 0.0:
                assert got == 0.0
                continue
            worst = max(worst, abs(got - oracle) / oracle)
    assert worst <= 1e-8
    # exact kernel identity at p = 2
    worst_kernel = max(
        abs(lemmaF_integral(2.0, r) * (1.0 - r * r) / (2.0 * math.pi) - 1.0)
        for r in (0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99)
    )
    assert worst_kernel <= 1e-9
    print(
        f"criterion 4 PASS: M2 vs series worst rel {worst:.2e}, "
        f"kernel identity worst rel {worst_kernel:.2e}"
    )


def test_criterion_05_growth_envelopes():
    radii = [1.0 - 2.0**-j for j in range(6, 13)]
    for p in (1.5, 2.0, 3.0):
        ratios = [lemmaF_ratio(p, r) for r in radii]
        assert max(ratios) / min(ratios) < 2.0, p
    for extremal in ("H", "scrH"):
        for p in (1.5, 2.0, 3.0):
            band = [envelope_ratio(0.5, p, r, extremal) for r in radii]
            assert max(band) / min(band) < 4.0, (extremal, p)
    print("criterion 5 PASS: kernel ratio factor < 2, envelope bands < 4")


def test_criterion_06_cumulative_bounds(suite, corpus_maps):
    report, _ = suite
    rows = rows_by_prefix(report, "cumulative-bound")
    assert rows, "cumulative suite must emit rows"
    assert {r.p for r in rows} == {1.0, 2.0, 4.0}
    assert {r.r for r in rows} == {0.5, 0.9, 0.99}
    covered = {r.mapping_id for r in rows}
    eligible = {f.uid for f in corpus_maps if f.qc_k is not None}
    assert covered == eligible
    bad = [r for r in rows if r.verdict != "pass"]
    assert bad == [], bad[:5]
    with pytest.raises(DomainError):
        corollary_bound(0.5, 0.5, 0.9)
    print(f"criterion 6 PASS: {len(rows)} cumulative rows over {len(covered)} maps")


def test_criterion_07_membership_pattern(suite, corpus_maps):
    report, _ = suite
    rows = rows_by_prefix(report, "membership")
    assert rows
    bad = [r for r in rows if r.verdict != "pass"]
    assert bad == [], [(r.mapping_id, r.p, r.detail) for r in bad][:5]
    details = {(r.mapping_id, r.p): r.detail for r in rows}
    by_uid = {f.uid: f for f in corpus_maps}
    ctc_qc = [
        f.uid
        for f in corpus_maps
        if f.qc_k is not None and "convex" not in f.class_tags
    ]
    for uid in ctc_qc:
        assert details[(uid, 0.45)]["actual"] == "member", uid
    convex_qc = [f.uid for f in by_uid.values() if "convex" in f.class_tags]
    for uid in convex_qc:
        assert details[(uid, 0.9)]["actual"] == "member", uid
    hk = details[("harmonic-koebe", 0.4)]
    assert hk["actual"] == "divergent"
    assert abs(hk["beta_pp"] - 0.2) <= 0.1
    # synthetic power laws recovered by the fit
    radii = 1.0 - 2.0 ** -np.arange(1, 13)
    for alpha in (0.5, 2.0):
        curve = MeansCurve(
            p=1.0, radii=radii, values=(1.0 - radii) ** -alpha, target="synthetic"
        )
        assert abs(growth_exponent(curve) - alpha) < 1e-3
    print(
        f"criterion 7 PASS: {len(ctc_qc)} ctc members, {len(convex_qc)} convex "
        f"members, harmonic koebe beta_pp {hk['beta_pp']:.3f}"
    )


def test_criterion_08_classical_sanity(suite):
    report, _ = suite
    rows = rows_by_prefix(report, "means-classic")
    assert {r.inequality_id for r in rows} == {
        "means-classic-koebe",
        "means-classic-koebe-deriv",
    }
    assert {r.p for r in rows} == {0.25, 0.5, 1.0, 2.0, 4.0}
    assert {r.r for r in rows} == {0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99}
    bad = [r for r in rows if r.verdict != "pass"]
    assert bad == []
    # star-level domination backs the means rows
    koebe = catalog("koebe")
    kderiv = koebe.derivative_function()
    n = 2**12
    for name in ("identity", "half-plane", "strip-like"):
        F = catalog(name)
        for r in (0.1, 0.5, 0.9, 0.99):
            top = star_function(sample_log_modulus(koebe, r, n))
            v = star_dominates(
                star_function(sample_log_modulus(F, r, n)), top, tol=1e-8
            )
            assert v.ok, (name, r, v.max_violation)
            topd = star_function(sample_log_modulus(kderiv, r, n))
            vd = star_dominates(
                star_function(sample_log_modulus(F.derivative_function(), r, n)),
                topd,
                tol=1e-8,
            )
            assert vd.ok, (name, r, vd.max_violation)
    print(f"criterion 8 PASS: {len(rows)} classical rows plus star-level domination")


def test_criterion_09_determinism_and_interface(tmp_path):
    t0 = time.monotonic()
    # the package root is absolute, so the CLI imports from any working directory
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(hqmaps.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    outs = []
    for sub in ("one", "two"):
        d = tmp_path / sub
        proc = subprocess.run(
            [
                sys.executable, "-m", "hqmaps.cli",
                "verify", "--suite", "all", "--out", str(d),
            ],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "0 violations" in proc.stdout
        outs.append(
            (
                (d / "verify_report.json").read_bytes(),
                (d / "verify_report.csv").read_bytes(),
            )
        )
    assert outs[0][0] == outs[1][0], "JSON must be byte-identical across runs"
    assert outs[0][1] == outs[1][1], "CSV must be byte-identical across runs"
    doc = json.loads(outs[0][0])
    assert doc["metadata"]["timestamp"] is None
    malformed = [
        ["verify", "--suite", "nope"],
        ["means", "--corpus", "identity", "--p", "-1", "--r", "0.5"],
        ["means", "--corpus", "identity", "--p", "1", "--r", "0.5", "--frob"],
    ]
    for args in malformed:
        proc = subprocess.run(
            [sys.executable, "-m", "hqmaps.cli"] + args,
            capture_output=True, text=True, cwd=tmp_path, env=env,
        )
        assert proc.returncode == 2, args
    elapsed = time.monotonic() - t0
    print(f"criterion 9 PASS: byte-identical reports, usage exits 2 ({elapsed:.1f}s)")
