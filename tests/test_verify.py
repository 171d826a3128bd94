"""Verification layer: rows, reports, growth fits, membership verdicts."""

import csv
import dataclasses
import io
import json

import numpy as np
import pytest

from hqmaps import analytic, means, verify
from hqmaps.analytic import DomainError, catalog
from hqmaps.harmonic import HarmonicMap, analytic_map, corpus_shear, harmonic_koebe
from hqmaps.means import MeansCurve, _integral_means_grid, dyadic_means_curve
from hqmaps.star import sample_log_modulus, star_function
from hqmaps.verify import (
    CertificationError,
    ClassTagError,
    K_GRID,
    P_GRID,
    R_GRID,
    VerificationReport,
    VerificationRow,
    check_means_domination,
    check_star_chain,
    growth_exponent,
    hardy_membership_verdict,
    membership_row,
    run_suite,
    suite_star,
)


def test_check_means_domination_rows(corpus_by_uid):
    # the convex tag comes from the corpus-level probe pass
    f = corpus_by_uid["shear[phi=identity,omega=0.25z]"]
    rows = check_means_domination(f, "H", 0.25, p_grid=(1.0, 2.0), r_grid=(0.5, 0.9))
    assert len(rows) == 8  # (h', g') x p x r
    assert {r.inequality_id for r in rows} == {
        "means-convex-hprime",
        "means-convex-gprime",
    }
    assert all(r.verdict == "pass" for r in rows)
    assert all(r.margin >= -1e-6 for r in rows)


def test_check_means_domination_class_tag_error():
    with pytest.raises(ClassTagError):
        check_means_domination(harmonic_koebe(), "H", 0.5)
    # scrH needs a close-to-convex tag; every corpus member has one, so force
    # the failure with a bare analytic wrapper
    f = corpus_shear("halfplane", 0.5, 1)
    stripped = type(f)(
        h=f.h, g=f.g, uid="untagged", class_tags=frozenset(), qc_k=f.qc_k
    )
    with pytest.raises(ClassTagError):
        check_means_domination(stripped, "scrH", 0.5)
    # with no family named, the star chain still refuses the untagged map
    with pytest.raises(ClassTagError):
        check_star_chain(stripped, 0.5, 0.5)


def test_check_means_domination_certification_error(corpus_by_uid):
    f = corpus_by_uid["shear[phi=identity,omega=0.25z]"]
    with pytest.raises(CertificationError):
        check_means_domination(f, "H", 0.1)  # true sup dilatation is 0.25


def test_check_means_domination_unknown_family():
    f = corpus_shear("identity", 0.25, 1)
    with pytest.raises(DomainError):
        check_means_domination(f, "Q", 0.25)


def test_check_star_chain_rows():
    f = corpus_shear("halfplane", 0.5, 1)
    rows = check_star_chain(f, 0.5, 0.7)
    assert len(rows) == 2
    assert all(r.verdict == "pass" for r in rows)
    assert all(r.lhs <= 1e-8 for r in rows)


def test_check_star_chain_skips_trivial_g():
    rows = check_star_chain(analytic_map("identity"), 0.0, 0.5)
    assert len(rows) == 1
    assert rows[0].inequality_id.endswith("hprime")


def test_suite_star_matches_check_star_chain_and_samples_each_target_once(
    corpus_by_uid, monkeypatch
):
    # half-plane carries both families' tags, so its h' serves four pairs per
    # radius; the extremals at k = 0.5 and 2/3 serve both maps
    corpus = [corpus_by_uid["half-plane"], corpus_shear("halfplane", 0.5, 1)]
    r_grid, K_grid = (0.5, 0.99), (1.0, 3.0, 5.0)
    sampled, certified = [], []
    sample = verify.sample_log_modulus
    certify = verify.qc_certify
    monkeypatch.setattr(
        verify, "sample_log_modulus", lambda F, r, n: sampled.append((F.uid, r)) or sample(F, r, n)
    )
    monkeypatch.setattr(
        verify, "qc_certify", lambda f, k: certified.append((f.uid, k)) or certify(f, k)
    )
    rows = suite_star(corpus, r_grid=r_grid, K_grid=K_grid)
    monkeypatch.undo()

    targets = [
        (f, extremal, k)
        for f in corpus
        for extremal in verify._families_of(f, ("H", "scrH"))
        for k in verify._k_values(f, K_grid)
    ]
    assert {(f.uid, k) for f, _, k in targets} >= {
        (f.uid, k) for f in corpus for k in (0.5, round(2 / 3, 12))
    }
    want = [
        row
        for f, extremal, k in targets
        for r in r_grid
        for row in check_star_chain(f, k, r, extremal=extremal)
    ]
    key = VerificationRow.sort_key
    assert [row.as_dict() for row in sorted(rows, key=key)] == [
        row.as_dict() for row in sorted(want, key=key)
    ]

    # each map's h' once per radius and each extremal H or scrH once per
    # (k, r); g' and the companions G and scrG follow from those samples
    by_uid, extremal = {f.uid: f for f in corpus}, {"convex": "H", "ctc": "scrH"}
    distinct = set()
    for row in rows:
        prefix = row.inequality_id.split("-")[1]
        E = catalog(extremal[prefix], row.k)
        distinct |= {(by_uid[row.mapping_id].h_prime.uid, row.r), (E.uid, row.r)}
    assert sorted(sampled) == sorted(distinct)
    # one certificate per map, at its least k: sup|g'/h'| does not depend on k
    assert sorted(certified) == sorted({(f.uid, min(verify._k_values(f, K_grid))) for f in corpus})


def _suite_k_grid(corpus) -> list:
    return sorted({k for f in corpus for k in verify._k_values(f)})


def test_derived_gprime_star_functions_match_the_sampled_ones(corpus):
    # log|g'| = log|h'| + log(kappa r^m) on the circle, so its star function
    # is h''s plus 2 theta log(kappa r^m); likewise G_k = k z H_k
    declared = [f for f in corpus if f.dilatation is not None]
    assert len(declared) == len(corpus)
    pairs = [(f.h_prime, f.g_prime, f.dilatation) for f in declared if f.dilatation[0] > 0]
    pairs += [
        (catalog(E, k), catalog(G, k), (k, 1))
        for E, G in (("H", "G"), ("scrH", "scrG")) for k in _suite_k_grid(corpus) if k > 0
    ]
    assert len(pairs) == 19 + 2 * 6
    for r in R_GRID:
        n = verify.star_grid_size(r)
        for F, G, (kappa, m) in pairs:
            star_F = star_function(sample_log_modulus(F, r, n))
            derived = verify._plus_log_monomial(star_F, kappa, m)
            sampled = star_function(sample_log_modulus(G, r, n)).values
            scale = max(1.0, float(np.max(np.abs(sampled))))
            assert np.max(np.abs(derived.values - sampled)) <= 1e-12 * scale, (G.uid, r)


def test_derived_gprime_means_match_the_integrated_ones(corpus):
    pairs = [(f.h_prime, f.g_prime, f.dilatation) for f in corpus]
    pairs += [
        (catalog(E, k), catalog(G, k), (k, 1))
        for E, G in (("H", "G"), ("scrH", "scrG")) for k in _suite_k_grid(corpus)
    ]
    for F, G, (kappa, m) in pairs:
        (means,) = _integral_means_grid([F], P_GRID, R_GRID, 1e-8)
        derived = np.array(verify._times_monomial(means, R_GRID, kappa, m))
        sampled = np.array(_integral_means_grid([G], P_GRID, R_GRID, 1e-8)[0])
        assert np.all(np.abs(derived - sampled) <= 1e-13 * np.abs(sampled)), G.uid


def test_a_map_without_a_declared_dilatation_samples_g_prime(corpus_by_uid, monkeypatch):
    f = corpus_by_uid["shear[phi=strip,omega=0.5z^2]"]
    bare = dataclasses.replace(f)  # a rebuilt map declares no dilatation
    assert f.dilatation == (0.5, 2) and bare.dilatation is None
    rows, seen = {}, []
    sample, integrate = verify.sample_log_modulus, verify._integral_means_grid
    monkeypatch.setattr(
        verify, "sample_log_modulus", lambda F, r, n: seen.append(F.uid) or sample(F, r, n)
    )
    monkeypatch.setattr(
        verify, "_integral_means_grid", lambda Fs, *a: seen.extend(F.uid for F in Fs) or integrate(Fs, *a)
    )
    for g in (f, bare):
        seen.clear()
        rows[g is f] = check_means_domination(g, "scrH", 0.5) + [
            row for r in (0.5, 0.99) for row in check_star_chain(g, 0.5, r, "scrH")
        ]
        assert (f.g_prime.uid in seen) == (g is bare)
        assert not {"G[k=0.5]", "scrG[k=0.5]"} & set(seen)
    monkeypatch.undo()
    assert len(rows[True]) == len(rows[False]) == 2 * 5 * 7 + 2 * 2
    for a, b in zip(rows[True], rows[False]):
        assert a.sort_key() == b.sort_key() and a.verdict == b.verdict
        assert abs(a.lhs - b.lhs) <= 1e-5 * a.tol and abs(a.rhs - b.rhs) <= 1e-5 * a.tol
        assert a.tol == pytest.approx(b.tol, rel=1e-12)


def test_growth_exponent_synthetic():
    radii = 1.0 - 2.0 ** -np.arange(1, 11)
    curve = MeansCurve(
        p=1.0, radii=radii, values=(1.0 - radii) ** -2.0, target="synthetic"
    )
    beta = growth_exponent(curve)
    assert abs(beta - 2.0) < 1e-3


def test_growth_exponent_H0_M2():
    curve = dyadic_means_curve(catalog("H", 0.0), 2.0, 12)
    assert abs(growth_exponent(curve) - 1.5) < 0.05


def test_growth_exponent_identity():
    curve = dyadic_means_curve(catalog("identity"), 1.0, 14)
    assert abs(growth_exponent(curve)) < 1e-3


def test_growth_exponent_needs_six_radii():
    radii = 1.0 - 2.0 ** -np.arange(1, 5)
    curve = MeansCurve(p=1.0, radii=radii, values=np.ones(4), target="short")
    with pytest.raises(DomainError):
        growth_exponent(curve)


def test_membership_identity():
    v = hardy_membership_verdict(analytic_map("identity"), 0.5)
    assert v.verdict == "member"
    assert abs(v.beta) < 0.02
    assert v.thresholds["theorem"] == 1.0
    assert v.thresholds["astala_koskela"] == 0.5


def test_membership_harmonic_koebe_divergent():
    v = hardy_membership_verdict(harmonic_koebe(), 0.4)
    assert v.verdict == "divergent"
    assert abs(v.beta_pp - 0.2) <= 0.1
    assert v.thresholds["theorem"] == 0.5  # close-to-convex, no QC certificate
    assert v.thresholds["astala_koskela"] is None
    assert int(np.sum(v.curve.converged)) == 13


# f has a pole of order 3 at 1, so harmonic Koebe lies in h^p exactly for p < 1/3
@pytest.mark.parametrize(
    "delta, verdict",
    [(-0.1, "member"), (-0.03, "member"), (0.03, "divergent"), (0.1, "divergent")],
)
def test_membership_harmonic_koebe_on_both_sides_of_its_threshold(delta, verdict):
    v = hardy_membership_verdict(harmonic_koebe(), 1.0 / 3.0 + delta, depth=13)
    assert v.verdict == verdict
    assert int(np.sum(v.curve.converged)) == 13


def test_membership_ctc_shear():
    v = hardy_membership_verdict(corpus_shear("halfplane", 0.5, 1), 0.45)
    assert v.verdict == "member"
    assert abs(v.thresholds["astala_koskela"] - 1.0 / 6.0) < 1e-12


def test_shear_verdict_needs_no_whole_circle_pass_or_radial_quadrature(monkeypatch):
    # the curve runs on adaptive angular panels over the exact components,
    # and the certificate integrates the closed-form h'
    calls = {"circle_values": 0, "radial_path_integral": 0}
    circle, radial = analytic.RadialIntegral.circle_values, analytic.radial_path_integral

    def counted_circle(self, r, n):
        calls["circle_values"] += 1
        return circle(self, r, n)

    def counted_radial(fn, z):
        calls["radial_path_integral"] += 1
        return radial(fn, z)

    monkeypatch.setattr(analytic.RadialIntegral, "circle_values", counted_circle)
    monkeypatch.setattr(analytic, "radial_path_integral", counted_radial)
    v = hardy_membership_verdict(corpus_shear("strip", 0.8, 2), 0.45)
    assert v.verdict == "member"
    assert calls == {"circle_values": 0, "radial_path_integral": 0}


def test_membership_certificate_path():
    # raw slope at p = 0.9 sits above the divergence cutoff; the integral
    # certificate rescues the verdict
    v = hardy_membership_verdict(analytic_map("half-plane"), 0.9)
    assert v.verdict == "member"
    assert v.beta > 0.05
    assert v.certificate is not None
    assert v.certificate.tail_exponent > -0.95


def test_membership_row_reports_certificate_status():
    row = membership_row(analytic_map("half-plane"), 0.9, "member")
    assert row.detail["certificate_converged"] is True
    assert row.detail["converged_radii"] == 13
    row = membership_row(analytic_map("identity"), 0.5, "member")
    assert row.detail["certificate_tail"] is None
    assert row.detail["certificate_converged"] is None
    assert row.detail["converged_radii"] == 13
    json.dumps(row.detail)


def test_membership_needs_valid_p():
    with pytest.raises(DomainError):
        hardy_membership_verdict(analytic_map("identity"), 0.0)


@pytest.mark.parametrize("depth", [5, 21])
def test_membership_depth_lies_in_6_to_20(depth):
    with pytest.raises(DomainError, match=rf"^depth must lie in 6\.\.20, got {depth}$"):
        hardy_membership_verdict(analytic_map("identity"), 0.5, depth)


def test_row_margin_and_verdict():
    row = VerificationRow(
        mapping_id="m", inequality_id="i", k=0.0, p=1.0, r=0.5,
        lhs=1.0, rhs=2.0, tol=1e-6,
    )
    assert row.margin == 1.0
    assert row.verdict == "pass"
    bad = VerificationRow(
        mapping_id="m", inequality_id="i", k=0.0, p=1.0, r=0.5,
        lhs=2.0, rhs=1.0, tol=1e-6,
    )
    assert bad.verdict == "fail"
    assert bad.margin == -1.0


def test_report_sorting_and_serialization():
    rows = [
        VerificationRow("b", "z", 0.5, 1.0, 0.5, 0.0, 1.0, 1e-6),
        VerificationRow("a", "z", 0.5, 1.0, 0.5, 0.0, 1.0, 1e-6),
        VerificationRow("a", "a", 0.5, 1.0, 0.5, 0.0, 1.0, 1e-6),
    ]
    rep = VerificationReport(rows=rows, metadata={"timestamp": None})
    keys = [(r.inequality_id, r.mapping_id) for r in rep.rows]
    assert keys == sorted(keys)
    doc = json.loads(rep.to_json())
    assert len(doc["rows"]) == 3
    assert rep.to_json() == rep.to_json()
    csv = rep.to_csv().splitlines()
    assert csv[0].startswith("inequality_id,mapping_id")
    assert rep.exit_status() == 0


def test_rows_of_numpy_scalars_serialize_as_rows_of_floats():
    plain = VerificationRow("m", "i", 0.5, 1.0, 0.9, 0.25, 0.5, 1e-6, {"n": 4})
    scalars = VerificationRow(
        "m", "i", np.float64(0.5), np.int64(1), np.float64(0.9),
        np.float64(0.25), np.float64(0.5), np.float64(1e-6), {"n": 4},
    )
    for name in ("k", "p", "r", "lhs", "rhs", "tol"):
        assert type(getattr(scalars, name)) is float, name
    reports = [VerificationReport(rows=[row], metadata={}) for row in (plain, scalars)]
    assert reports[0].to_json() == reports[1].to_json()
    assert reports[0].to_csv() == reports[1].to_csv()


def test_report_writers_match_json_dumps_and_a_csv_writer_per_row():
    nan, inf = float("nan"), float("inf")
    detail = {
        "none": None, "yes": True, "no": False, "n": -7, "zero": 0.0, "neg_zero": -0.0,
        "tiny": 1e-300, "nan": nan, "inf": inf, "neg_inf": -inf, "np": np.float64(0.1),
        "text": 'a "quote", a back\\slash,\na newline and na\u00efve \u03b8',
        "list": [1, 2.5, [None, "x"], {}, []], "dict": {"b": [nan], "a": {"c": -inf}},
    }
    rows = [
        VerificationRow('shear[phi=a,"b"],x', 'id-"q"', 0.5, 1.0, 0.9, nan, inf, 1e-6, detail),
        VerificationRow("plain", "ineq", 1.5, 2.0, 0.99, -0.0, 1e-300, 0.0),  # empty detail
        VerificationRow("m", "ineq", 1.0, 4.0, 0.5, -inf, -1.0, inf, {"k\u00e9y": 3}),
        VerificationRow("m", "keys", 1.0, 4.0, 0.5, 1.0, 2.0, 0.0, {2: "two", 0.5: None}),
        VerificationRow("m", "overflow", 1.0, 4.0, 0.5, -1e308, 1e308, 1e-6),  # margin inf
    ]
    metadata = {"grid": {"p": [0.25, 4.0], "nested": {"z": None, "a": [[]]}}, "name": "\u00fc\n"}

    def csv_line(row):
        numbers = (row.k, row.p, row.r, row.lhs, row.rhs, row.rhs - row.lhs, row.tol)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(
            [row.inequality_id, row.mapping_id, *(f"{x:.12g}" for x in numbers), row.verdict]
        )
        return buf.getvalue()

    for rep in (VerificationReport(rows, metadata), VerificationReport([], {}),
                VerificationReport([], metadata), VerificationReport(rows[1:2], {})):
        doc = {"metadata": rep.metadata, "rows": [row.as_dict() for row in rep.rows]}
        assert rep.to_json() == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert rep.to_csv() == (
            "inequality_id,mapping_id,k,p,r,lhs,rhs,margin,tol,verdict\n"
            + "".join(map(csv_line, rep.rows))
        )


def test_nested_json_equals_json_dumps():
    # lists of finite floats are joined here; anything else, a non-finite or
    # overflowing list included, takes json's own path at its indent
    nan, inf = float("nan"), float("inf")
    docs = [
        {"curves": [{"p": 0.5, "r": [0.1, 0.99], "value": [1.0, -0.0, 5e-324, 1e308]}], "target": "x"},
        {"nan": [1.0, nan], "inf": [inf, 2.0], "overflow": [1e308, 1e308], "ints": [1, 2.5],
         "np": [np.float64(0.1), 0.2], "tuple": (0.5, 1.5), "empty": [[], {}], "bool": [True, 1.5]},
        {"rows": [{"thresholds": {"theorem": None, "nowak": 0.5}, "beta": -inf}], "\u00fc\n": "\u03b8"},
        {2: [1.0], 0.5: None}, [[0.25, 4.0], [[nan]], {"z": {"a": [0.5]}}], [], {}, 0.1, "text", None,
    ]
    for doc in docs:
        want = json.dumps(doc, sort_keys=True, indent=2)
        assert verify._json_nested(doc, 0) == want
        assert verify._json_nested(doc, 3) == want.replace("\n", "\n" + "  " * 3)


def test_membership_rows_and_thresholds_follow_the_family_table():
    # a starlike tag alone admits the close-to-convex family only
    koebe = analytic_map("koebe")
    starlike = type(koebe)(
        h=koebe.h, g=koebe.g, uid="starlike-koebe", class_tags=frozenset({"starlike"}), qc_k=0.0
    )
    rows = verify.suite_membership([starlike, analytic_map("half-plane")])
    by_map = {}
    for row in rows:
        by_map.setdefault(row.mapping_id, []).append(row)
    assert [r.p for r in by_map["starlike-koebe"]] == [0.25, 0.45]
    assert [r.p for r in by_map["half-plane"]] == [0.25, 0.45, 0.9]
    for uid, theorem, nowak in (("starlike-koebe", 0.5, 1.0 / 3.0), ("half-plane", 1.0, 0.5)):
        for row in by_map[uid]:
            assert row.detail["expected"] == "member"
            assert row.detail["threshold_theorem"] == theorem
            assert row.detail["threshold_nowak"] == nowak
    assert all(row.verdict == "pass" for row in rows)


def test_report_exit_status_on_failure():
    rows = [VerificationRow("m", "i", 0.0, 1.0, 0.5, 2.0, 1.0, 1e-9)]
    rep = VerificationReport(rows=rows, metadata={})
    assert rep.exit_status() == 1
    assert len(rep.failures) == 1


def test_run_suite_star_small():
    f = corpus_shear("halfplane", 0.5, 1)
    rep = run_suite("star", corpus=[f], K_grid=(1.0, 3.0))
    # rows at own k = 0.5 only (grid k values 0 and 0.5; 0 < own sup)
    ks = sorted({r.k for r in rep.rows})
    assert ks == [0.5]
    assert rep.metadata["corpus_size"] == 1
    assert rep.metadata["timestamp"] is None
    assert len(rep.failures) == 0


def test_run_suite_class_filter_keeps_one_family(corpus_by_uid):
    # the convex identity shear and the half-plane carry both families' tags,
    # the strip shear only close-to-convex ones; under ctc the convex maps are
    # held to the close-to-convex bounds too
    identity, strip = "shear[phi=identity,omega=0.25z]", "shear[phi=strip,omega=0.5z]"
    corpus = [corpus_by_uid[uid] for uid in (identity, "half-plane", strip)]
    third, two_thirds = round(1 / 3, 12), round(2 / 3, 12)
    ks = {
        "half-plane": (0.0, 0.2, third, 0.5, two_thirds),
        identity: (0.25, third, 0.5, two_thirds),
        strip: (0.5, two_thirds),
    }
    own_k = {"half-plane": 0.0, identity: 0.25, strip: 0.5}
    members = {"convex": ("half-plane", identity), "ctc": ("half-plane", identity, strip)}
    for family, uids in members.items():
        rep = run_suite("all", corpus=corpus, class_filter=family)
        want = {
            (f"means-{family}-{side}", uid, k)
            for uid in uids
            for k in ks[uid]
            for side in ("hprime", "gprime")
        } | {(f"cumulative-bound-{family}", uid, own_k[uid]) for uid in uids}
        assert {(r.inequality_id, r.mapping_id, r.k) for r in rep.rows} == want
        assert rep.metadata["suites"] == ["means", "cumulative"]
        assert rep.metadata["class_filter"] == family
        assert not rep.failures


def test_run_suite_unknown_name():
    with pytest.raises(DomainError):
        run_suite("everything")
    with pytest.raises(DomainError):
        run_suite("means", class_filter="starlike")


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"tol": -1.0}, "tol must be finite and >= 0, got -1"),
        ({"tol": float("nan")}, "tol must be finite and >= 0, got nan"),
        ({"K_grid": (0.5,)}, "K must be >= 1, got 0.5"),
        ({"depth": 21}, "depth must lie in 6..20, got 21"),
        ({"depth": 5}, "depth must lie in 6..20, got 5"),
    ],
)
def test_run_suite_checks_its_ranges_on_a_suite_without_qc_rows(kwargs, message, monkeypatch):
    # classic builds no QC row and no membership fit, yet the metadata
    # records tol, K and depth; the checks come before the corpus is built
    monkeypatch.setattr(verify, "build_corpus", lambda: pytest.fail("corpus built"))
    with pytest.raises(DomainError) as info:
        run_suite("classic", **kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize("name", ["means", "star", "cumulative"])
def test_each_suite_certifies_each_map_once(name, corpus, monkeypatch):
    certified = []
    certify = verify.qc_certify
    monkeypatch.setattr(
        verify, "qc_certify", lambda f, k: certified.append(f.uid) or certify(f, k)
    )
    assert not run_suite(name, corpus=corpus).failures
    qc_maps = [f.uid for f in corpus if verify._k_values(f) and verify._families_of(f, ("H", "scrH"))]
    assert len(qc_maps) == 22
    assert sorted(certified) == sorted(qc_maps)


@pytest.mark.parametrize("name", ["means", "classic", "cumulative", "membership"])
def test_each_suite_takes_its_targets_in_one_batch_per_p_grid(name, corpus, monkeypatch):
    batches = []
    graded = means._graded_mean_pows

    def recorded(Fs, ps, rs, *args):
        batches.append((list(Fs), tuple(ps), len(rs)))
        return graded(Fs, ps, rs, *args)

    monkeypatch.setattr(means, "_graded_mean_pows", recorded)
    rows = getattr(verify, f"suite_{name}")(corpus)
    assert rows and not [row for row in rows if row.verdict != "pass"]
    if name == "means":
        # every map's h', g' where it declares no dilatation, each (name, k) once
        (Fs, _, _), = batches
        extremals = {(row.inequality_id.split("-")[1], row.k) for row in rows}
        assert len(Fs) == len({row.mapping_id for row in rows}) + len(extremals)
    elif name == "classic":
        (Fs, _, _), = batches
        assert len(Fs) == 2 + 2 * len({row.mapping_id for row in rows})
    elif name == "cumulative":
        # the maps' left-hand sides; the rest are the bounds' radius lines
        lhs = [Fs for Fs, _, _ in batches if isinstance(Fs[0], HarmonicMap)]
        assert [[f.uid for f in Fs] for Fs in lhs] == [list(dict.fromkeys(row.mapping_id for row in rows))]
    else:
        # the curves at 13 radii; the others are the verdicts' certificates
        curves = [(Fs, ps) for Fs, ps, n in batches if n == verify.DEFAULT_DEPTH]
        ps_of = {}
        for row in rows:
            ps_of.setdefault(row.mapping_id, []).append(row.p)
        assert sorted(ps for _, ps in curves) == sorted(set(map(tuple, ps_of.values())))
        assert sum(len(Fs) for Fs, _ in curves) == len(ps_of)


def test_run_suite_grid_defaults():
    assert K_GRID == (1.0, 1.5, 2.0, 3.0, 5.0)
    assert P_GRID == (0.25, 0.5, 1.0, 2.0, 4.0)
    assert R_GRID == (0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99)
