"""Command line behavior: exits, files, config precedence, round trips."""

import json
import math
import os
import subprocess
import sys

import pytest

import hqmaps
from hqmaps.analytic import CATALOG_NAMES
from hqmaps.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATIONS,
    UsageError,
    main,
    parse_shear_spec,
    read_csv,
)
from hqmaps.verify import VerificationReport, VerificationRow


def run_main(args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_means_corpus_identity(tmp_path, monkeypatch, capsys):
    code, out, _ = run_main(
        ["means", "--corpus", "identity", "--p", "1", "--r", "0.5"],
        tmp_path, monkeypatch, capsys,
    )
    assert code == EXIT_OK
    assert "M_p = 0.5" in out
    header, rows = read_csv(str(tmp_path / "means_identity.csv"))
    assert header == ["target_id", "p", "r", "value"]
    assert rows == [["identity", 1.0, 0.5, 0.5]]


def test_means_catalog_with_k(tmp_path, monkeypatch, capsys):
    code, out, _ = run_main(
        ["means", "--catalog", "H", "--k", "0.5", "--p", "2", "--r", "0.5,0.9"],
        tmp_path, monkeypatch, capsys,
    )
    assert code == EXIT_OK
    header, rows = read_csv(str(tmp_path / "means_H_k_0.5.csv"))
    assert len(rows) == 2
    assert rows[0][0] == "H[k=0.5]"
    assert rows[0][2] == 0.5 and rows[1][2] == 0.9
    assert rows[1][3] > rows[0][3] > 0


def test_means_usage_errors(tmp_path, monkeypatch, capsys):
    bad = [
        ["means", "--corpus", "identity", "--p", "0", "--r", "0.5"],
        ["means", "--corpus", "identity", "--p", "1", "--r", "1.0"],
        ["means", "--corpus", "identity", "--p", "1"],  # missing r
        ["means", "--p", "1", "--r", "0.5"],  # no target
        ["means", "--corpus", "nope", "--p", "1", "--r", "0.5"],
        ["means", "--catalog", "nope", "--p", "1", "--r", "0.5"],
        ["means", "--corpus", "identity", "--catalog", "H", "--p", "1", "--r", "0.5"],
    ]
    for args in bad:
        code, _, err = run_main(args, tmp_path, monkeypatch, capsys)
        assert code == EXIT_USAGE, args
        assert "error" in err.lower()


def test_unknown_catalog_entry_exits_2_listing_the_choices(tmp_path, monkeypatch, capsys):
    code, _, err = run_main(
        ["means", "--catalog", "nope", "--p", "1", "--r", "0.5"], tmp_path, monkeypatch, capsys
    )
    assert code == EXIT_USAGE
    assert "'nope'" in err
    for name in CATALOG_NAMES:
        assert name in err, name


def test_star_bad_sample_count_exits_2_before_sampling(tmp_path, monkeypatch, capsys):
    for n in ("0", "-4", "6", "1000"):
        code, _, err = run_main(
            ["star", "--catalog", "koebe", "--r", "0.5", "--n", n], tmp_path, monkeypatch, capsys
        )
        assert code == EXIT_USAGE, n
        assert "power-of-two" in err


def test_star_near_the_boundary_keeps_a_tiny_modulus(tmp_path, monkeypatch, capsys):
    # |scrH_k| is about 1e-9 at theta = pi on r = 0.9999, but not zero
    code, out, _ = run_main(
        ["star", "--catalog", "scrH", "--k", "0.5", "--r", "0.9999"], tmp_path, monkeypatch, capsys
    )
    assert code == EXIT_OK
    _, rows = read_csv(str(tmp_path / "star_scrH_k_0.5.csv"))
    assert len(rows) == 2**16 + 1
    assert all(math.isfinite(row[1]) and row[3] == 0.9999 for row in rows)
    assert "r=0.9999:" in out


def test_unknown_flag_exits_2(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(["means", "--corpus", "identity", "--p", "1", "--r", "0.5", "--frob"])
    assert info.value.code == EXIT_USAGE


def test_nonconvergence_exits_3(tmp_path, monkeypatch, capsys):
    # means asks for 1e-9, so the angular rule for 1e-11: strip-like's p = 4
    # mean at r = 0.999999 peaks at theta = pi as well as at 0, and near pi
    # the angle keeps only the absolute precision of pi, so the summed panel
    # errors there reach their roundoff floor and the rule stops unconverged
    # (at 705,152 nodes). Koebe's peak lies at theta = 0 alone, and its mean
    # converges (test_oracles)
    code, _, err = run_main(
        ["means", "--catalog", "strip-like", "--p", "4", "--r", "0.999999"],
        tmp_path, monkeypatch, capsys,
    )
    assert code == EXIT_NUMERIC
    assert "n=" in err


def test_config_supplies_and_flags_override(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=1\nr=0.25,0.5\n# comment line\n\n")
    code, out, _ = run_main(
        ["means", "--corpus", "identity", "--config", str(cfg)],
        tmp_path, monkeypatch, capsys,
    )
    assert code == EXIT_OK
    assert "r=0.25" in out and "r=0.5" in out
    code, out, _ = run_main(
        ["means", "--corpus", "identity", "--config", str(cfg), "--r", "0.75"],
        tmp_path, monkeypatch, capsys,
    )
    assert code == EXIT_OK
    assert "r=0.75" in out and "r=0.25" not in out


def test_config_unknown_key_named(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=1\nwibble=3\n")
    code, _, err = run_main(
        ["means", "--corpus", "identity", "--config", str(cfg), "--r", "0.5"],
        tmp_path, monkeypatch, capsys,
    )
    assert code == EXIT_USAGE
    assert "wibble" in err


def test_config_malformed_line(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just some words\n")
    code, _, err = run_main(
        ["means", "--corpus", "identity", "--config", str(cfg), "--r", "0.5"],
        tmp_path, monkeypatch, capsys,
    )
    assert code == EXIT_USAGE


def test_verify_config_writes_the_report_of_its_flags(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("class=convex\nK=3\nstamp=no\n")
    reports = {}
    for name, args in (
        ("config", ["--config", str(cfg)]),
        ("flags", ["--class", "convex", "--K", "3"]),
    ):
        code, _, _ = run_main(
            ["verify", "--out", str(tmp_path / name)] + args, tmp_path, monkeypatch, capsys
        )
        assert code == EXIT_OK
        reports[name] = (tmp_path / name / "verify_report.json").read_bytes()
    assert reports["config"] == reports["flags"]
    meta = json.loads(reports["config"])["metadata"]
    assert meta["timestamp"] is None
    assert meta["class_filter"] == "convex" and meta["grid"]["K"] == [3.0]


def test_verify_flag_beats_config(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("suite=star\ntol=0.5\ndepth=9\n")
    code, _, _ = run_main(
        ["verify", "--config", str(cfg), "--suite", "classic", "--tol", "0.001"],
        tmp_path, monkeypatch, capsys,
    )
    assert code == EXIT_OK
    meta = json.loads((tmp_path / "verify_report.json").read_text())["metadata"]
    assert meta["suites"] == ["classic"]
    assert meta["tolerances"]["inequality_rel"] == 0.001
    assert meta["depth"] == 9  # no flag, so the config entry holds


def test_malformed_value_exits_2_naming_the_option(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("K=abc\n")
    monkeypatch.chdir(tmp_path)
    for args in (
        ["verify", "--suite", "classic", "--config", str(cfg)],
        ["means", "--corpus", "identity", "--r", "abc"],
    ):
        with pytest.raises(SystemExit) as info:
            main(args)
        assert info.value.code == EXIT_USAGE
        flag = "--K" if args[0] == "verify" else "--r"
        assert f"argument {flag}: malformed number list 'abc'" in capsys.readouterr().err
    assert not (tmp_path / "verify_report.json").exists()


def test_verify_config_rejects_formats(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("suite=classic\nformats=csv\n")
    code, _, err = run_main(["verify", "--config", str(cfg)], tmp_path, monkeypatch, capsys)
    assert code == EXIT_USAGE
    assert "unknown config key 'formats'" in err
    assert not (tmp_path / "verify_report.json").exists()


def test_shear_spec_grammar():
    f = parse_shear_spec("phi=halfplane,omega=0.5z")
    assert f.uid == "shear[phi=halfplane,omega=0.5z]"
    f2 = parse_shear_spec("phi=strip, omega=0.8z^2")
    assert f2.qc_k == 0.8
    for bad in (
        "phi=halfplane",
        "omega=0.5z",
        "phi=halfplane,omega=z",
        "phi=halfplane,omega=0.5w",
        "phi=halfplane,omega=0.5z^3",
        "phi=halfplane,omega=0.5z,rho=1",
        "phi halfplane,omega=0.5z",
        "phi=halfplane,omega=0.5e+z",
        "phi=halfplane,omega=1..2z",
    ):
        with pytest.raises(UsageError):
            parse_shear_spec(bad)


def test_malformed_shear_coefficient_exits_2(tmp_path, monkeypatch, capsys):
    # the coefficient passes the omega pattern but is no number
    for omega in ("0.5e+z", "1..2z"):
        code, _, err = run_main(
            ["means", "--shear", f"phi=halfplane,omega={omega}", "--p", "1", "--r", "0.5"],
            tmp_path, monkeypatch, capsys,
        )
        assert code == EXIT_USAGE, omega
        assert "omega" in err


def test_growth_divergent_example(tmp_path, monkeypatch, capsys):
    code, out, _ = run_main(
        ["growth", "--corpus", "harmonic-koebe", "--p", "0.4", "--depth", "12"],
        tmp_path, monkeypatch, capsys,
    )
    assert code == EXIT_OK
    assert "divergent" in out
    header, rows = read_csv(str(tmp_path / "growth_harmonic-koebe.csv"))
    assert header[:5] == ["mapping_id", "p", "beta", "beta_pp", "verdict"]
    assert rows[0][4] == "divergent"
    assert rows[0][7] == ""  # no QC certificate, no distortion threshold


def test_growth_member_example(tmp_path, monkeypatch, capsys):
    code, out, _ = run_main(
        ["growth", "--shear", "phi=halfplane,omega=0.5z", "--p", "0.45",
         "--depth", "14"],
        tmp_path, monkeypatch, capsys,
    )
    assert code == EXIT_OK
    assert "member" in out
    _, rows = read_csv(
        str(tmp_path / "growth_shear_phi_halfplane_omega_0.5z.csv")
    )
    assert rows[0][4] == "member"
    assert abs(rows[0][5] - 0.5) < 1e-12  # close-to-convex theorem threshold
    assert abs(rows[0][7] - 1.0 / 6.0) < 1e-9  # 1/(2K) at K = 3


def test_growth_rejects_catalog_target(tmp_path, monkeypatch, capsys):
    with pytest.raises(SystemExit):
        main(["growth", "--catalog", "koebe", "--p", "0.5"])


def test_growth_depth_floor(tmp_path, monkeypatch, capsys):
    code, _, err = run_main(
        ["growth", "--corpus", "identity", "--p", "0.5", "--depth", "5"],
        tmp_path, monkeypatch, capsys,
    )
    assert code == EXIT_USAGE
    assert "depth" in err


@pytest.mark.parametrize(
    "args",
    [
        ["growth", "--corpus", "identity", "--p", "0.5", "--depth", "21"],
        ["verify", "--suite", "membership", "--depth", "21"],
        # the report records the depth, so every suite checks it
        ["verify", "--suite", "classic", "--depth", "21"],
    ],
)
def test_depth_past_the_radius_cap_exits_2_naming_the_depth(args, tmp_path, monkeypatch, capsys):
    # 1 - 2^-21 lies past RADIUS_CAP = 1 - 2^-20
    code, _, err = run_main(args, tmp_path, monkeypatch, capsys)
    assert code == EXIT_USAGE
    assert "depth must lie in 6..20, got 21" in err
    assert not (tmp_path / "verify_report.json").exists()


@pytest.mark.parametrize("depth, expected", [("3", EXIT_USAGE), ("6", EXIT_OK)])
def test_verify_depth_lies_in_6_to_20_for_every_suite(depth, expected, tmp_path, monkeypatch, capsys):
    code, _, err = run_main(
        ["verify", "--suite", "classic", "--depth", depth], tmp_path, monkeypatch, capsys
    )
    assert code == expected
    if expected == EXIT_USAGE:
        assert "6..20, got 3" in err
        assert not (tmp_path / "verify_report.json").exists()
    else:
        meta = json.loads((tmp_path / "verify_report.json").read_text())["metadata"]
        assert meta["depth"] == 6


def test_verify_fail_lines_are_the_report_csv_lines(tmp_path, monkeypatch, capsys):
    rows = [
        VerificationRow('shear[phi=a,"b"]', "i", 0.5, 1.0, 0.9, 2.0, 1.0, 1e-6),
        VerificationRow("m", "i", 0.5, 1.0, 0.9, 0.0, 1.0, 1e-6),
    ]
    monkeypatch.setattr("hqmaps.cli.run_suite", lambda *a, **kw: VerificationReport(rows))
    code, out, _ = run_main(["verify"], tmp_path, monkeypatch, capsys)
    assert code == EXIT_VIOLATIONS
    fails = [line[len("FAIL "):] for line in out.splitlines() if line.startswith("FAIL ")]
    lines = (tmp_path / "verify_report.csv").read_text().splitlines()
    assert fails == [line for line in lines if line.endswith(",fail")]
    assert fails[0].startswith('i,"shear[phi=a,""b""]",0.5,')


def test_star_csv_round_trip(tmp_path, monkeypatch, capsys):
    code, _, _ = run_main(
        ["star", "--catalog", "koebe", "--r", "0.5,0.7", "--formats", "csv,json"],
        tmp_path, monkeypatch, capsys,
    )
    assert code == EXIT_OK
    header, rows = read_csv(str(tmp_path / "star_koebe.csv"))
    assert header == ["theta", "value", "source_id", "radius"]
    doc = json.loads((tmp_path / "star_koebe.json").read_text())
    flat = [
        (t, v)
        for curve in doc["curves"]
        for t, v in zip(curve["theta"], curve["value"])
    ]
    assert len(flat) == len(rows)
    # round trip: parsed CSV numbers reproduce the JSON values to print precision
    for (t, v), row in zip(flat, rows):
        assert abs(row[0] - t) <= 5e-12 * max(1.0, abs(t))
        assert abs(row[1] - v) <= 5e-12 * max(1.0, abs(v))


@pytest.mark.parametrize(
    "args",
    [
        ["means", "--catalog", "H", "--k", "0.5", "--p", "0.5,2", "--r", "0.5,0.9"],
        ["star", "--catalog", "koebe", "--r", "0.5,0.99"],
        ["growth", "--shear", "phi=halfplane,omega=0.5z", "--p", "0.45,2"],
    ],
    ids=lambda args: args[0],
)
def test_json_files_equal_json_dumps_of_their_contents(args, tmp_path, monkeypatch, capsys):
    code, _, _ = run_main(args + ["--formats", "json"], tmp_path, monkeypatch, capsys)
    assert code == EXIT_OK
    (path,) = tmp_path.glob("*.json")
    text = path.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_svg_output_does_not_change_numbers(tmp_path, monkeypatch, capsys):
    args = ["means", "--corpus", "identity", "--p", "1,2", "--r", "0.3,0.6"]
    d1, d2 = tmp_path / "plain", tmp_path / "plotted"
    code, _, _ = run_main(args + ["--out", str(d1)], tmp_path, monkeypatch, capsys)
    assert code == EXIT_OK
    code, _, _ = run_main(
        args + ["--out", str(d2), "--formats", "csv,svg"],
        tmp_path, monkeypatch, capsys,
    )
    assert code == EXIT_OK
    assert (d1 / "means_identity.csv").read_bytes() == (
        d2 / "means_identity.csv"
    ).read_bytes()
    svg = (d2 / "means_identity.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_out_env_var(tmp_path, monkeypatch, capsys):
    target = tmp_path / "routed"
    monkeypatch.setenv("HQMAPS_OUT", str(target))
    code, _, _ = run_main(
        ["means", "--corpus", "identity", "--p", "1", "--r", "0.5"],
        tmp_path, monkeypatch, capsys,
    )
    assert code == EXIT_OK
    assert (target / "means_identity.csv").exists()


def test_no_temp_files_left(tmp_path, monkeypatch, capsys):
    run_main(
        ["means", "--corpus", "identity", "--p", "1", "--r", "0.5"],
        tmp_path, monkeypatch, capsys,
    )
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp")]
    assert leftovers == []


def test_verify_classic_suite(tmp_path, monkeypatch, capsys):
    code, out, _ = run_main(
        ["verify", "--suite", "classic"], tmp_path, monkeypatch, capsys
    )
    assert code == EXIT_OK
    assert "0 violations" in out
    doc = json.loads((tmp_path / "verify_report.json").read_text())
    assert doc["metadata"]["timestamp"] is None
    ids = {r["inequality_id"] for r in doc["rows"]}
    assert ids == {"means-classic-koebe", "means-classic-koebe-deriv"}


def test_verify_rejects_formats(tmp_path, monkeypatch):
    # verify always writes verify_report.{json,csv}; a formats flag would be ignored
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "classic", "--formats", "svg"])
    assert info.value.code == EXIT_USAGE
    assert not (tmp_path / "verify_report.json").exists()


def test_verify_stamp_sets_timestamp(tmp_path, monkeypatch, capsys):
    code, _, _ = run_main(
        ["verify", "--suite", "classic", "--stamp"], tmp_path, monkeypatch, capsys
    )
    assert code == EXIT_OK
    doc = json.loads((tmp_path / "verify_report.json").read_text())
    assert doc["metadata"]["timestamp"] is not None


def test_verify_rejects_bad_suite_and_K(tmp_path, monkeypatch, capsys):
    code, _, _ = run_main(["verify", "--suite", "nope"], tmp_path, monkeypatch, capsys)
    assert code == EXIT_USAGE
    code, _, _ = run_main(
        ["verify", "--suite", "classic", "--K", "0.5"], tmp_path, monkeypatch, capsys
    )
    assert code == EXIT_USAGE


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_verify_rejects_a_negative_or_non_finite_tol(tol, tmp_path, monkeypatch, capsys):
    code, out, err = run_main(
        ["verify", "--suite", "classic", "--tol", tol], tmp_path, monkeypatch, capsys
    )
    assert code == EXIT_USAGE
    assert "tol must be finite and >= 0" in err and "FAIL" not in out
    assert not (tmp_path / "verify_report.json").exists()


def test_depth_help_gives_the_range(capsys):
    for command in ("growth", "verify"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "6..20" in capsys.readouterr().out


def test_cli_entry_point_runs():
    # the child finds the package by an absolute path, from any working directory
    src = os.path.dirname(os.path.dirname(os.path.abspath(hqmaps.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "hqmaps.cli", "--help"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert "means" in proc.stdout and "verify" in proc.stdout
