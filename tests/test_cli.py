import argparse
import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import time
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdefect
from qdefect import (
    CsvFormatError, NonConvergence, Profile, RadialGrid, read_profile_csv, write_profile_csv,
)
from qdefect.cli import _COMMANDS, _OPTIONS, _json_text, build_parser, main
from qdefect.field import fd_energy_terms
from qdefect.reduced import write_text_atomic


SVG_NS = "{http://www.w3.org/2000/svg}"


def run(tmp_path, *argv):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(list(argv))
    finally:
        os.chdir(cwd)


SOLVE_ARGS = (
    "solve", "--a2", "1", "--c2", "1", "--b2", "0", "--L", "0.05",
    "--R", "1", "--k", "1", "--n", "128",
)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_writes_profile_and_report(tmp_path):
    assert run(tmp_path, *SOLVE_ARGS, "-o", "out") == 0
    prof = read_profile_csv(tmp_path / "out_profile.csv")
    assert prof.grid.nodes.size == 129
    write_profile_csv(tmp_path / "again.csv", prof)
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "out_profile.csv").read_bytes()
    report = json.loads((tmp_path / "out_report.json").read_text())
    assert list(report)[:5] == ["energy", "grad_norm", "residual_norm", "iterations", "converged"]
    assert list(report)[5:] == [
        "stop", "factorizations_failed", "backtracks", "coarse_iterations",
        "residual_peak_r", "residual_core", "checks",
    ]
    assert report["residual_norm"] <= report["residual_core"]
    assert report["converged"] is True and report["stop"] == "tol"
    assert report["grad_norm"] <= 1e-9
    # from the explicit start every Newton step is a full, undamped one
    assert report["factorizations_failed"] == 0 and report["backtracks"] == 0
    checks = report["checks"]
    assert checks["u_positive"] and checks["v_negative"]
    assert checks["v_nondecreasing"] and checks["norm_bound_ok"]


def test_solve_rejects_zero_k(tmp_path, capsys):
    code = run(tmp_path, "solve", "--k", "0")
    assert code == 2
    err = capsys.readouterr().err
    assert "E_CONFIG" in err and "Z \\ {0}" in err


def test_solve_rejects_zero_l(tmp_path, capsys):
    code = run(tmp_path, "solve", "--L", "0")
    assert code == 2
    err = capsys.readouterr().err
    assert "limit" in err


@pytest.mark.parametrize(
    "flag",
    [("--tol", "nan"), ("--tol", "inf"), ("--tol", "0"),
     ("--max-iter", "-5"), ("--max-iter", "0")],
    ids=["tol-nan", "tol-inf", "tol-0", "max-iter--5", "max-iter-0"],
)
def test_solve_rejects_bad_tol_and_max_iter(tmp_path, capsys, flag):
    assert run(tmp_path, *SOLVE_ARGS, *flag, "-o", "bad") == 2
    assert "[E_CONFIG]" in capsys.readouterr().err
    assert not (tmp_path / "bad_report.json").exists()


def test_solve_config_file_and_flag_override(tmp_path):
    cfg = {"a2": 1.0, "c2": 1.0, "L": 0.05, "k": 1, "n": 128, "out": "fromcfg"}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run(tmp_path, "solve", "--config", "cfg.json") == 0
    assert (tmp_path / "fromcfg_profile.csv").exists()
    # flags override the file
    assert run(tmp_path, "solve", "--config", "cfg.json", "--out", "flagged") == 0
    assert (tmp_path / "flagged_profile.csv").exists()


def test_solve_rejects_unknown_config_keys(tmp_path, capsys):
    (tmp_path / "cfg.json").write_text(json.dumps({"n": 128, "bogus": 1}))
    assert run(tmp_path, "solve", "--config", "cfg.json") == 2
    assert "bogus" in capsys.readouterr().err


def _bad_values(kind, default):
    """``(case, flag text or None, config value)`` that an option of ``kind`` rejects."""
    if isinstance(kind, tuple):
        cases = [("choice", "bogus", "bogus"), ("type", None, 1)]
    elif kind is str:
        cases = [("type", None, 5)]
    else:
        cases = [("type", "abc", "abc"), ("bool", "true", True)]
        if kind is int:
            cases.append(("integral", "1.5", 1.5))
    if default is not None:  # null stands for "unset" only where that is the default
        cases.append(("null", None, None))
    return cases


_BAD_OPTIONS = [
    (command, key, *bad)
    for key, kind, default, commands, _ in _OPTIONS
    for command in commands or _COMMANDS
    for bad in _bad_values(kind, default)
]


@pytest.mark.parametrize(
    "command, key, case, text, value", _BAD_OPTIONS,
    ids=[f"{command}-{key}-{case}" for command, key, case, _, _ in _BAD_OPTIONS],
)
def test_flags_and_config_values_are_checked_alike(tmp_path, capsys, command, key, case, text, value):
    flag = "--" + key.replace("_", "-")
    if text is not None:  # a flag's text can only be of the wrong type or choice
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, command, flag, text)
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err
    (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
    assert run(tmp_path, command, "--config", "cfg.json") == 2
    err = capsys.readouterr().err
    assert "[E_CONFIG]" in err and f"config key {key!r}" in err
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_config_values_convert_like_their_flags(tmp_path):
    cfg = {"n": 64.0, "L": "0.05", "k": 1, "out": "conv"}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run(tmp_path, "solve", "--config", "cfg.json") == 0
    assert read_profile_csv(tmp_path / "conv_profile.csv").grid.nodes.size == 65


# flags each command does not read: argparse rejects them, and _effective
# rejects the same keys in a config file
_SOLVER_FLAGS = (("--tol", "1e-8", 1e-8), ("--max-iter", "5", 5), ("--init", "ramp", "ramp"),
                 ("--init-file", "x.csv", "x.csv"))
_DROPPED_FLAGS = [
    *[(cmd, flag) for cmd in ("energy", "residual")
      for flag in (("--n", "64", 64), ("--R", "2", 2.0), *_SOLVER_FLAGS)],
    *[(cmd, flag) for cmd in ("limit", "render") for flag in _SOLVER_FLAGS],
    *[(cmd, ("--m", "128", 128)) for cmd in ("solve", "sweep", "render")],
]


@pytest.mark.parametrize(
    "command, flag", _DROPPED_FLAGS, ids=[f"{cmd}{flag[0]}" for cmd, flag in _DROPPED_FLAGS]
)
def test_commands_accept_only_the_flags_they_read(tmp_path, capsys, command, flag):
    name, text, value = flag
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, command, name, text)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {name}" in capsys.readouterr().err
    key = name[2:].replace("-", "_")
    (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
    assert run(tmp_path, command, "--config", "cfg.json", "-o", "cfgrun") == 2
    err = capsys.readouterr().err
    assert "[E_CONFIG]" in err and f"unknown config keys: [{key!r}]" in err
    assert not list(tmp_path.glob("cfgrun*"))


README_SWEEPS = (
    ("sweep", "--L-list", "0.1,0.03,0.01,0.003", "--k", "1", "--n", "1024", "-o", "sweepL"),
    ("sweep", "--b2-list", "0,0.05,0.1", "--L", "0.1", "--k", "1", "-o", "sweepB"),
)


def test_solve_deterministic_outputs(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for argv in ((*SOLVE_ARGS, "-o", "run"), *README_SWEEPS):
        assert run(a, *argv) == 0
        assert run(b, *argv) == 0
    for name in ("run_profile.csv", "run_report.json", "sweepL_sweep.json", "sweepB_sweep.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# ---------------------------------------------------------------------------
# limit
# ---------------------------------------------------------------------------

def test_limit_energy_table_k1(tmp_path):
    assert run(tmp_path, "limit", "--k", "1", "--n", "256", "--m", "128", "-o", "lim") == 0
    table = json.loads((tmp_path / "lim_energies.json").read_text())
    assert table["Y_minus"]["closed_form"] == pytest.approx(math.pi, rel=1e-12)
    assert table["Y_plus"]["closed_form"] == pytest.approx(3 * math.pi, rel=1e-12)
    assert table["U"] is None and "note" in table
    for tag in ("Y_minus", "Y_plus"):
        row = table[tag]
        assert abs(row["quadrature"] - row["closed_form"]) < 5e-3 * row["closed_form"]
    for name in ("lim_minus.csv", "lim_plus.csv", "lim_eigenvalues_minus.csv"):
        assert (tmp_path / name).exists()


def test_limit_energy_table_k2_includes_escape(tmp_path):
    assert run(tmp_path, "limit", "--k", "2", "--n", "256", "--m", "128", "-o", "lim") == 0
    table = json.loads((tmp_path / "lim_energies.json").read_text())
    assert table["Y_minus"]["closed_form"] == pytest.approx(2 * math.pi, rel=1e-12)
    assert table["Y_plus"]["closed_form"] == pytest.approx(6 * math.pi, rel=1e-12)
    assert table["U"]["closed_form"] == pytest.approx(6 * math.pi, rel=1e-12)
    assert "note" not in table


@pytest.mark.parametrize("radius", ["1e-160", "1e200"])
def test_limit_quadrature_is_scale_free_at_extreme_radii(tmp_path, radius):
    argv = ("limit", "--k", "2", "--n", "64", "--m", "64")
    assert run(tmp_path, *argv, "-o", "one") == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(tmp_path, *argv, "--R", radius, "-o", "far") == 0
    one = json.loads((tmp_path / "one_energies.json").read_text())
    far = json.loads((tmp_path / "far_energies.json").read_text())
    for tag in ("Y_minus", "Y_plus", "U"):
        assert math.isfinite(far[tag]["quadrature"])
        assert far[tag]["quadrature"] == pytest.approx(one[tag]["quadrature"], rel=1e-14, abs=0.0)


def test_limit_rejects_nonzero_b2(tmp_path):
    assert run(tmp_path, "limit", "--b2", "0.3", "--k", "1") == 2


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------

def test_residual_of_solution(tmp_path):
    assert run(tmp_path, *SOLVE_ARGS, "-o", "out") == 0
    code = run(
        tmp_path, "residual", "--input", "out_profile.csv",
        "--L", "0.05", "--k", "1", "--m", "128", "-o", "res",
    )
    assert code == 0
    summary = json.loads((tmp_path / "res_summary.json").read_text())
    assert summary["ode_max_interior"] < 5e-3
    # the norms are computed once; the maxima are those of ResidualField
    profile = read_profile_csv(tmp_path / "out_profile.csv")
    p = qdefect.ModelParams(a2=1.0, b2=0.0, c2=1.0, L=0.05, R=1.0, k=1)
    el = qdefect.el_residual_2d(qdefect.lift(profile, 1, qdefect.PolarGrid(profile.grid, 128)), p)
    assert summary["el2d_max"] == el.max_norm()
    assert summary["el2d_max_bulk"] == el.max_norm(r_min=0.05)
    lines = (tmp_path / "res_residual.csv").read_text().strip().split("\n")
    assert lines[0] == "r,ru,rv"
    assert len(lines) == 128  # interior nodes of a 128-segment grid


def test_residual_of_a_huge_residual_has_finite_norms(tmp_path, capsys):
    # |residual| ~ 1e161: its squares overflow, so the norms and the L2 sum
    # are formed from values divided by a power of two
    assert run(tmp_path, "solve", "--k", "1", "--b2", "1e6", "--n", "16", "-o", "b") == 0
    argv = ("residual", "--input", "b_profile.csv", "--k", "1", "--b2", "1e150", "--L", "0.1")
    assert run(tmp_path, *argv, "-o", "huge") == 0
    summary = json.loads((tmp_path / "huge_summary.json").read_text())
    assert all(isinstance(value, float) and math.isfinite(value) for value in summary.values())
    assert 1e160 < summary["el2d_max_bulk"] <= summary["el2d_max"] < 1e162
    assert 1e160 < summary["el2d_l2"] < 1e162


def test_overflowing_energy_exits_1_as_residual_does(tmp_path, capsys):
    # the bulk sum / L of a b2 = 1e6 profile overflows at L = 1e-308: no
    # energy is printed as null, and no file is written
    assert run(tmp_path, "solve", "--k", "1", "--b2", "1e6", "--n", "16", "-o", "huge") == 0
    capsys.readouterr()
    given = ("--input", "huge_profile.csv", "--L", "1e-308", "--k", "1")
    for cmd, message in (("residual", "the residual overflows"), ("energy", "the energy overflows")):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(tmp_path, cmd, *given, "-o", "out") == 1, cmd
        out, err = capsys.readouterr()
        assert out == "" and err == f"[E_NUMERIC] {message} the float range\n", cmd
    assert sorted(path.name for path in tmp_path.iterdir()) == ["huge_profile.csv", "huge_report.json"]


def test_residual_bulk_keeps_the_last_ring_when_every_ring_is_in_the_core(tmp_path):
    # every interior node of this profile lies below 0.05 R
    r = np.append(np.linspace(0.0, 0.016, 16), 1.0)
    write_profile_csv(tmp_path / "core.csv", Profile(RadialGrid(r), 0.86 * r, np.full_like(r, -0.5)))
    assert run(tmp_path, "residual", "--input", "core.csv", "--L", "0.01", "--k", "1", "-o", "res") == 0
    summary = json.loads((tmp_path / "res_summary.json").read_text())
    profile = read_profile_csv(tmp_path / "core.csv")
    p = qdefect.ModelParams(a2=1.0, b2=0.0, c2=1.0, L=0.01, R=1.0, k=1)
    el = qdefect.el_residual_2d(qdefect.lift(profile, 1, qdefect.PolarGrid(profile.grid, 128)), p)
    assert summary["el2d_max_bulk"] == float(np.max(el.norms()[-1]))


def test_residual_on_limit_profile_reports_large_potential_term(tmp_path):
    # the explicit limit profile solves the constrained problem, not the
    # finite-L one: the ODE residual must be visibly nonzero
    assert run(tmp_path, "limit", "--k", "1", "--n", "128", "-o", "lim") == 0
    code = run(
        tmp_path, "residual", "--input", "lim_minus.csv",
        "--L", "0.01", "--k", "1", "-o", "res",
    )
    assert code == 0
    summary = json.loads((tmp_path / "res_summary.json").read_text())
    assert summary["ode_max_interior"] > 1.0


@pytest.fixture(scope="module")
def wide_profile(tmp_path_factory):
    """Directory holding ``runR_profile.csv``, solved on a disk of radius 2.5."""
    d = tmp_path_factory.mktemp("wide")
    assert run(d, "solve", "--k", "1", "--L", "0.01", "--R", "2.5", "--n", "256", "-o", "runR") == 0
    return d


def test_residual_bulk_cutoff_scales_with_the_profile_radius(wide_profile):
    d = wide_profile
    assert run(d, "residual", "--input", "runR_profile.csv", "--L", "0.01", "--k", "1",
               "-o", "resR") == 0
    summary = json.loads((d / "resR_summary.json").read_text())
    profile = read_profile_csv(d / "runR_profile.csv")
    p = qdefect.ModelParams(a2=1.0, b2=0.0, c2=1.0, L=0.01, R=2.5, k=1)
    el = qdefect.el_residual_2d(qdefect.lift(profile, 1, qdefect.PolarGrid(profile.grid, 128)), p)
    bulk = el.norms()[el.rings >= 0.125]  # r >= 0.05 R
    assert summary["el2d_max_bulk"] == float(np.max(bulk))


def test_residual_missing_and_malformed_inputs(tmp_path, capsys):
    assert run(tmp_path, "residual", "--input", "nope.csv") == 2
    (tmp_path / "empty.csv").write_text("")
    assert run(tmp_path, "residual", "--input", "empty.csv") == 2
    (tmp_path / "bad.csv").write_text("r,u,v\n0.0,0.0\n")
    assert run(tmp_path, "residual", "--input", "bad.csv") == 2
    assert "line 2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------

def test_render_branch_and_profile(tmp_path):
    assert run(
        tmp_path, "render", "--branch", "minus", "--k", "1", "--n", "128",
        "--density", "6", "-o", "img",
    ) == 0
    glyphs = (tmp_path / "img_glyphs.svg").read_text()
    chart = (tmp_path / "img_eigenvalues.svg").read_text()
    assert glyphs.startswith("<?xml") and "svg" in glyphs
    assert chart.count("eigencurve") == 3
    assert run(tmp_path, *SOLVE_ARGS, "-o", "out") == 0
    assert run(
        tmp_path, "render", "--input", "out_profile.csv", "--k", "1",
        "--L", "0.05", "--style", "box", "--density", "5", "-o", "img2",
    ) == 0
    assert "glyph-box" in (tmp_path / "img2_glyphs.svg").read_text()


def test_render_input_draws_the_profile_disk(wide_profile):
    d = wide_profile
    assert run(d, "render", "--input", "runR_profile.csv", "--k", "1", "-o", "imgR") == 0
    root = ET.fromstring((d / "imgR_glyphs.svg").read_text())
    circles = list(root.iter(f"{SVG_NS}circle"))
    assert circles[0].get("class") is None  # the boundary circle comes first
    assert float(circles[0].get("r")) == pytest.approx(0.45 * 640, abs=0.005)
    rods = [el for el in root if el.get("class") == "glyph"]
    last_ring = rods[-4 * 16:]  # default density 16, 4 * density glyphs per ring
    centres = np.array([[float(el.get(a)) for a in ("x1", "y1", "x2", "y2")] for el in last_ring])
    centres = 0.5 * (centres[:, :2] + centres[:, 2:])
    assert np.allclose(np.hypot(*(centres - 320.0).T), 0.45 * 640, atol=2e-3)
    # the ring shows the uniaxial boundary data: zero biaxiality, the ramp's first colour
    assert {el.get("stroke") for el in last_ring} == {"#2654a6"}


@pytest.mark.parametrize(
    "name, shown",
    [
        ("a&b<c>.csv", "a&b<c>.csv"),
        ("pr\u00f3file.csv", "pr\u00f3file.csv"),
        ("a\x01b.csv", "a\ufffdb.csv"),  # a control character XML 1.0 forbids
        ("x\udcffy.csv", "x\ufffdy.csv"),  # the byte 0xff, surrogate-escaped
    ],
    ids=["markup", "non-ascii", "control", "non-utf8"],
)
def test_render_input_with_a_special_file_name_writes_well_formed_svg(tmp_path, name, shown):
    # the file name reaches the chart title as XML text, non-ASCII as character
    # references and characters outside XML 1.0 as U+FFFD
    grid = RadialGrid.uniform(1.0, 32)
    write_profile_csv(tmp_path / name, Profile(grid, np.linspace(0.0, 0.8, 33), np.linspace(-1.0, -0.5, 33)))
    assert run(tmp_path, "render", "--input", name, "--k", "1", "-o", "esc") == 0
    roots = [ET.parse(tmp_path / f"esc_{kind}.svg").getroot() for kind in ("glyphs", "eigenvalues")]
    assert roots[1].find(f"{SVG_NS}text").text == f"profile {shown}, k=1"
    assert not list(tmp_path.glob("*.tmp"))


def test_write_text_atomic_removes_its_temp_file_when_the_write_raises(tmp_path):
    with pytest.raises(UnicodeEncodeError):
        write_text_atomic(tmp_path / "out.svg", "pr\u00f3file")
    assert list(tmp_path.iterdir()) == []


def test_render_requires_exactly_one_source(tmp_path):
    assert run(tmp_path, "render", "--k", "1") == 2
    assert run(
        tmp_path, "render", "--branch", "minus", "--input", "x.csv", "--k", "1"
    ) == 2


def test_render_rejects_bad_density(tmp_path):
    assert run(
        tmp_path, "render", "--branch", "minus", "--k", "1", "--density", "2"
    ) == 2
    assert run(
        tmp_path, "render", "--branch", "minus", "--k", "1", "--density", "257"
    ) == 2
    assert run(
        tmp_path, "render", "--branch", "minus", "--k", "1", "--style", "box",
        "--shift", "nan",
    ) == 2


def test_render_rejects_a_shift_that_leaves_a_box_side_non_positive(tmp_path, capsys):
    argv = ("render", "--branch", "minus", "--k", "1", "--n", "64", "--density", "4",
            "--style", "box")
    for shift in ("-0.1", "-0.40824829046386296"):  # the second: a side of exactly 0
        assert run(tmp_path, *argv, "--shift", shift, "-o", "neg") == 2
        assert "[E_CONFIG] box shift" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
    assert run(tmp_path, *argv, "--shift", "0.5", "-o", "pos") == 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_l_distance_decreases(tmp_path):
    code = run(
        tmp_path, "sweep", "--L-list", "0.1,0.03,0.01", "--k", "1",
        "--n", "256", "-o", "sw",
    )
    assert code == 0
    data = json.loads((tmp_path / "sw_sweep.json").read_text())
    assert data["parameter"] == "L"
    dists = [r["distance_to_minus"] for r in data["records"]]
    assert dists[0] > dists[1] > dists[2]
    assert all(r["converged"] for r in data["records"])


def test_sweep_b2_tracks_s_plus(tmp_path):
    code = run(
        tmp_path, "sweep", "--b2-list", "0,0.05,0.1", "--L", "0.1", "--k", "1",
        "--n", "128", "-o", "sw",
    )
    assert code == 0
    data = json.loads((tmp_path / "sw_sweep.json").read_text())
    from qdefect.params import equilibrium_order_parameter

    for rec in data["records"]:
        s = equilibrium_order_parameter(1.0, rec["b2"], 1.0)
        assert rec["s_plus"] == pytest.approx(s, rel=1e-14)
        assert rec["u_R"] == pytest.approx(s / math.sqrt(2.0), rel=1e-14)
        assert rec["norm_bound_margin"] > -1e-8


def _spy_on_solves(monkeypatch, fail_at=None):
    """Record every solve of a sweep; the step at ``b2 == fail_at`` fails."""
    import qdefect.reduced as reduced

    real = reduced.minimize
    calls = []

    def spy(params, grid, init="explicit", **kw):
        profile, report = real(params, grid, init=init, **kw)
        calls.append({"params": params, "init": init, "kw": kw, "profile": profile})
        if params.b2 == fail_at:
            report.converged = False
            raise NonConvergence("injected failure", profile=profile, report=report)
        return profile, report

    monkeypatch.setattr(reduced, "minimize", spy)
    return calls


def test_sweep_failed_step_is_recorded_and_skipped(tmp_path, monkeypatch, capsys):
    calls = _spy_on_solves(monkeypatch, fail_at=0.05)
    code = run(
        tmp_path, "sweep", "--b2-list", "0,0.05,0.1", "--L", "0.1", "--k", "1",
        "--n", "128", "-o", "sw",
    )
    assert code == 1
    out, err = capsys.readouterr()
    assert "with failures" in out
    assert err == "[E_NUMERIC] sweep step b2=0.05: injected failure\n"
    records = json.loads((tmp_path / "sw_sweep.json").read_text())["records"]
    assert [r["b2"] for r in records] == [0.0, 0.05, 0.1]
    assert [r["converged"] for r in records] == [True, False, True]
    assert records[1]["error"] == "injected failure"
    assert "error" not in records[0] and "error" not in records[2]
    # the step after the failure warm-starts from the last converged (b2 = 0) step
    first, _, last = calls
    scale = last["params"].s_plus / first["params"].s_plus
    start = last["init"]
    assert isinstance(start, Profile)
    assert np.array_equal(start.u[1:-1], first["profile"].u[1:-1] * scale)
    assert np.array_equal(start.v[:-1], first["profile"].v[:-1] * scale)
    assert start.u[0] == 0.0
    assert start.u[-1] == last["params"].boundary_u
    assert start.v[-1] == last["params"].boundary_v


def test_sweep_honours_init_and_iteration_flags(tmp_path, monkeypatch, capsys):
    calls = _spy_on_solves(monkeypatch)
    sweep = ("sweep", "--b2-list", "0,0.05", "--L", "0.1", "--k", "1", "--n", "128")
    assert run(
        tmp_path, *sweep, "--init", "ramp", "--max-iter", "5000", "--tol", "1e-8", "-o", "sw"
    ) == 0
    assert calls[0]["init"] == "ramp"
    assert isinstance(calls[1]["init"], Profile)
    assert [c["kw"] for c in calls] == [{"tol": 1e-8, "max_iter": 5000}] * 2

    # --init file starts the first step from the file's profile
    assert run(tmp_path, *SOLVE_ARGS, "-o", "seed") == 0
    seed = read_profile_csv(tmp_path / "seed_profile.csv")
    calls.clear()
    assert run(tmp_path, *sweep, "--init", "file", "--init-file", "seed_profile.csv") == 0
    assert np.array_equal(calls[0]["init"].u, seed.u)
    assert np.array_equal(calls[0]["init"].v, seed.v)

    capsys.readouterr()
    assert run(tmp_path, *sweep, "--init", "file") == 2
    assert "--init file requires --init-file" in capsys.readouterr().err
    assert run(tmp_path, *sweep, "--init-file", "seed_profile.csv") == 2
    assert "--init-file requires --init file" in capsys.readouterr().err
    assert run(
        tmp_path, *sweep[:-1], "64", "--init", "file", "--init-file", "seed_profile.csv"
    ) == 2


@pytest.mark.parametrize(
    "flag, values",
    [("--L-list", "0.1,0.01,0"), ("--L-list", "0.1,0.01,-0.01"), ("--b2-list", "0,1,inf")],
    ids=["L-zero", "L-negative", "b2-inf"],
)
def test_sweep_checks_every_step_before_the_first_solve(tmp_path, monkeypatch, capsys, flag, values):
    calls = _spy_on_solves(monkeypatch)
    assert run(tmp_path, "sweep", flag, values, "--k", "1", "--n", "64", "-o", "sw") == 2
    assert "[E_CONFIG]" in capsys.readouterr().err
    assert calls == [] and not list(tmp_path.iterdir())


def test_sweep_empty_and_double_lists(tmp_path):
    assert run(tmp_path, "sweep", "--b2-list", "", "--k", "1") == 2
    assert run(tmp_path, "sweep", "--k", "1") == 2
    assert run(
        tmp_path, "sweep", "--b2-list", "0,0.1", "--L-list", "0.1,0.2", "--k", "1"
    ) == 2
    assert run(tmp_path, "sweep", "--L-list", "0.1,0.5,0.2", "--k", "1") == 2


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def test_energy_command(tmp_path, capsys):
    assert run(tmp_path, *SOLVE_ARGS, "-o", "out") == 0
    capsys.readouterr()
    assert run(
        tmp_path, "energy", "--input", "out_profile.csv", "--L", "0.05",
        "--k", "1", "--m", "128",
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reduced"] < 0.0
    assert payload["ldg_2d"] == pytest.approx(2 * math.pi * payload["reduced"], rel=2e-3)
    assert payload["dirichlet_2d"] > 0.0
    # one FD pass feeds both numbers: each equals its library function exactly
    profile = read_profile_csv(tmp_path / "out_profile.csv")
    p = qdefect.ModelParams(a2=1.0, b2=0.0, c2=1.0, L=0.05, R=1.0, k=1)
    lifted = qdefect.lift(profile, 1, qdefect.PolarGrid(profile.grid, 128))
    assert payload["ldg_2d"] == qdefect.ldg_energy_2d(lifted, p)
    assert payload["dirichlet_2d"] == fd_energy_terms(lifted, p)[0]
    assert payload["e0"] == "infinite"  # finite-L minimiser violates the constraint


def test_energy_on_limit_profile_is_finite_e0(tmp_path, capsys):
    assert run(tmp_path, "limit", "--k", "1", "--n", "256", "-o", "lim") == 0
    capsys.readouterr()
    assert run(
        tmp_path, "energy", "--input", "lim_minus.csv", "--L", "0.05",
        "--k", "1", "--m", "64",
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["e0"] == pytest.approx(0.5, rel=1e-4)


def test_energy_writes_json_for_every_given_prefix(tmp_path, capsys):
    # "qdefect" is also the prefix the other commands fall back to
    assert run(tmp_path, *SOLVE_ARGS, "-o", "out") == 0
    energy = ("energy", "--input", "out_profile.csv", "--L", "0.05", "--k", "1", "--m", "64")
    capsys.readouterr()
    assert run(tmp_path, *energy) == 0
    printed = json.loads(capsys.readouterr().out)
    assert not list(tmp_path.glob("*_energy.json"))  # no prefix: print only

    assert run(tmp_path, *energy, "-o", "qdefect") == 0
    assert json.loads((tmp_path / "qdefect_energy.json").read_text()) == printed
    (tmp_path / "qdefect_energy.json").unlink()

    (tmp_path / "cfg.json").write_text(json.dumps({"out": "qdefect"}))
    assert run(tmp_path, *energy, "--config", "cfg.json") == 0
    assert json.loads((tmp_path / "qdefect_energy.json").read_text()) == printed


# ---------------------------------------------------------------------------
# non-finite input and strict JSON
# ---------------------------------------------------------------------------

SRC_DIR = str(Path(qdefect.__file__).resolve().parents[1])


@pytest.fixture(scope="module")
def nan_csv(tmp_path_factory):
    """A valid profile CSV with one interior ``u`` entry set to ``nan``."""
    d = tmp_path_factory.mktemp("nan")
    assert run(d, "limit", "--k", "1", "--n", "64", "-o", "lim") == 0
    lines = (d / "lim_minus.csv").read_text().splitlines()
    cols = lines[20].split(",")
    cols[1] = "nan"
    lines[20] = ",".join(cols)
    path = d / "nan_profile.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--init", "file", "--init-file", "{csv}", "--L", "0.01", "--k", "1",
         "--n", "64", "-o", "{d}/nanrun"),
        ("energy", "--input", "{csv}", "--L", "0.01", "--k", "1"),
        ("residual", "--input", "{csv}", "--L", "0.01", "--k", "1", "-o", "{d}/res"),
        ("render", "--input", "{csv}", "--k", "1", "-o", "{d}/img"),
    ],
    ids=["solve", "energy", "residual", "render"],
)
def test_non_finite_csv_exits_2_promptly(nan_csv, argv):
    # a fresh interpreter, so a hang shows as a timeout instead of a stuck suite
    args = [a.format(csv=nan_csv, d=nan_csv.parent) for a in argv]
    code = "import sys; from qdefect.cli import main; sys.exit(main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": SRC_DIR}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=2.0, env=env,
    )
    assert proc.returncode == 2
    assert "[E_IO]" in proc.stderr and "line 21" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_non_ascii_csv_exits_2(tmp_path, capsys):
    (tmp_path / "accent.csv").write_bytes("r,u,vé\n0.0,0.0,-0.4\n".encode("utf-8"))
    with pytest.raises(CsvFormatError):
        read_profile_csv(tmp_path / "accent.csv")
    assert run(tmp_path, "energy", "--input", "accent.csv", "--L", "0.01", "--k", "1") == 2
    assert "[E_IO]" in capsys.readouterr().err


def _valid_profile_lines():
    grid = RadialGrid.uniform(1.0, 16)
    prof = Profile(grid, 0.7 * grid.nodes, np.full(17, -0.4))
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "p.csv"
        qdefect.write_profile_csv(path, prof)
        read_profile_csv(path)  # the uncorrupted file is valid
        return path.read_text().splitlines()


_VALID_LINES = _valid_profile_lines()


@st.composite
def _corrupted_csv(draw):
    """Bytes of the valid profile CSV with one corruption applied."""
    lines = list(_VALID_LINES)
    kind = draw(st.sampled_from(["non_finite", "non_ascii", "extra", "missing", "non_monotone", "empty"]))
    row = draw(st.integers(1, len(lines) - 1))
    if kind == "empty":
        return draw(st.sampled_from([b"", b"\n", b"  \n\n"]))
    if kind == "non_finite":
        cols = lines[row].split(",")
        cols[draw(st.integers(0, 2))] = draw(st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity"]))
        lines[row] = ",".join(cols)
    elif kind == "extra":
        row = draw(st.integers(0, len(lines) - 1))
        lines[row] += ",0.5"
    elif kind == "missing":
        row = draw(st.integers(0, len(lines) - 1))
        lines[row] = lines[row].rsplit(",", 1)[0]
    elif kind == "non_monotone":  # swap the radii of two neighbouring data rows
        row = max(row, 2)
        a, b = lines[row].split(",", 1)[0], lines[row - 1].split(",", 1)[0]
        lines[row] = b + "," + lines[row].split(",", 1)[1]
        lines[row - 1] = a + "," + lines[row - 1].split(",", 1)[1]
    data = ("\n".join(lines) + "\n").encode("ascii")
    if kind == "non_ascii":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + data[at:]
    return data


@settings(max_examples=80, deadline=None, database=None)
@given(data=_corrupted_csv())
def test_corrupted_csv_is_rejected_with_exit_2(data):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "bad.csv"
        path.write_bytes(data)
        with pytest.raises(CsvFormatError):
            read_profile_csv(path)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["energy", "--input", str(path), "--L", "0.01", "--k", "1"])
        assert code == 2
        assert "[E_IO]" in err.getvalue()


def test_json_output_is_strict_with_non_finite_as_null():
    payload = {"energy": math.nan, "records": [{"g": math.inf, "ok": 1.5}], "tag": "x"}
    text = _json_text(payload)
    assert text == '{"energy": null, "records": [{"g": null, "ok": 1.5}], "tag": "x"}'
    json.loads(text, parse_constant=lambda token: pytest.fail(f"bare {token}"))


def test_overflowing_solve_exits_1_promptly(tmp_path):
    # a tiny L overflows the gradient norm at the start: the solver must stop
    # there instead of iterating on inf, and without a RuntimeWarning on the way
    code = "import sys; from qdefect.cli import main; sys.exit(main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": SRC_DIR}
    runs = [("solve", "--L", L) for L in ("1e-300", "1e-200", "1e-160")]
    runs += [("sweep", "--L-list", "1e-300"), ("sweep", "--b2-list", "0,0.5", "--L", "1e-300")]
    for argv in runs:
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", code, *argv,
             "--n", "256", "-o", "tiny"],
            capture_output=True, text=True, timeout=2.0, env=env, cwd=tmp_path,
        )
        assert proc.returncode == 1, argv
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr, argv
        if argv[0] == "solve":
            assert "[E_NUMERIC]" in proc.stderr
            report = json.loads((tmp_path / "tiny_report.json").read_text())
            assert report["iterations"] == 0
            reports = [report]
        else:
            reports = json.loads((tmp_path / "tiny_sweep.json").read_text())["records"]
            assert all("grad_norm inf" in report["error"] for report in reports)
        for report in reports:
            assert report["converged"] is False and report["grad_norm"] is None


def test_l_with_an_overflowing_inverse_exits_2_before_any_work(tmp_path, capsys):
    # 1/L = inf: ModelParams rejects such an L, so no solve or lift overflows
    assert run(tmp_path, "solve", "--k", "1", "--n", "16", "-o", "p") == 0
    runs = [
        ("solve", "--k", "2", "--n", "16", "--L", "5e-324"),
        ("solve", "--k", "2", "--n", "16", "--L", "3e-309"),
        ("sweep", "--L-list", "1e-320,5e-324", "--k", "1", "--n", "16"),
        *[(cmd, "--input", "p_profile.csv", "--k", "1", "--L", "5e-324")
          for cmd in ("residual", "energy")],
    ]
    capsys.readouterr()
    for argv in runs:
        assert run(tmp_path, *argv, "-o", "tiny") == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("[E_CONFIG]") and "1/L overflows" in err, argv
    assert not list(tmp_path.glob("tiny*"))


def test_lifted_field_past_its_bound_exits_2(tmp_path, capsys):
    # residual and energy lift the profile's N + 1 rings x m samples
    grid = RadialGrid.uniform(1.0, 64)
    write_profile_csv(tmp_path / "p.csv", Profile(grid, 0.5 * grid.nodes, np.full(65, -0.4)))
    for cmd in ("residual", "energy"):
        assert run(tmp_path, cmd, "--input", "p.csv", "--m", "64528", "-o", "big") == 2
        err = capsys.readouterr().err
        assert err.startswith("[E_CONFIG]")
        assert "65 rings x m = 64528 exceed the bound of 4194304 lifted samples" in err
    assert not list(tmp_path.glob("big*"))


def _all_pairs(factors):
    """Rows of one value per factor that hold every pair of values of two
    factors at least once: each row starts from an uncovered pair and takes,
    factor by factor, the value that covers the most uncovered pairs."""
    names = list(factors)

    def pair(a, i, b, j):  # ((factor, value index), ...) in factor order
        return ((a, i), (b, j)) if names.index(a) < names.index(b) else ((b, j), (a, i))

    uncovered = {
        pair(a, i, b, j)
        for x, a in enumerate(names) for b in names[x + 1:]
        for i in range(len(factors[a])) for j in range(len(factors[b]))
    }
    rows = []
    while uncovered:
        (a, i), (b, j) = min(uncovered)
        row = {a: i, b: j}
        for name in names:
            if name not in row:
                row[name] = max(range(len(factors[name])), key=lambda v: sum(
                    pair(name, v, other, w) in uncovered for other, w in row.items()))
        uncovered -= {pair(a, row[a], b, row[b]) for x, a in enumerate(names) for b in names[x + 1:]}
        rows.append({name: factors[name][v] for name, v in row.items()})
    return rows


_SPACE = {
    "command": ("solve", "sweep", "residual", "energy", "limit", "render"),
    "k": (1, -1, 2, -2, 3, 4, 7, 1000, -1000, 2**62, 10**150, 10**200),
    "b2": (0.0, 0.5, 3.0, 1e6, 1e150),
    "L": (5e-324, 1e-308, 1e-12, 1e-4, 1e-2, 1.0, 1e300),
    "a2_c2": ((1e-300, 1.0), (1.0, 1e-300), (1e150, 1e150), (1e-150, 1e150)),
}
_SHIFTS = (None, 0.5, 1e308)  # box shifts: auto, small, overflowing
_SPACE_RUNS = _all_pairs(_SPACE) + [
    # from a run of the full product: an inf Dirichlet part meets a -inf
    # bulk part, and L lap Q overflows
    {"command": "solve", "k": 2**62, "b2": 0.0, "L": 1e-12, "a2_c2": (1.0, 1e-300)},
    {"command": "residual", "k": 2**62, "b2": 0.0, "L": 1e300, "a2_c2": (1e150, 1e150)},
]


def _space_argv(i, run_):
    """The argv of one run of the parameter-space test; residual, energy and
    render with b2 != 0 read the profile of a b2 = 1e6 solve."""
    cmd, b2 = run_["command"], run_["b2"]
    a2, c2 = run_["a2_c2"]
    model = ["--k", str(run_["k"]), "--b2", repr(b2), "--a2", repr(a2), "--c2", repr(c2)]
    if cmd == "sweep":
        argv = [cmd, "--L-list", repr(run_["L"]), "--n", "16"]
    else:
        argv = [cmd, "--L", repr(run_["L"])]
    if cmd in ("solve", "limit"):
        argv += ["--n", "16"]
    if cmd in ("residual", "energy", "limit"):
        argv += ["--m", "64"]
    if cmd in ("residual", "energy"):
        argv += ["--input", "huge_profile.csv"]
    if cmd == "render":
        argv += ["--branch", "minus", "--n", "16"] if b2 == 0.0 else ["--input", "huge_profile.csv"]
        shift = _SHIFTS[i % len(_SHIFTS)]
        argv += ["--style", "box"] + ([] if shift is None else ["--shift", repr(shift)])
    return argv + model + ["-o", f"case{i}"]


@pytest.fixture(scope="module")
def space_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("space")
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(d, "solve", "--k", "1", "--b2", "1e6", "--n", "16", "-o", "huge") == 0
    return d


def test_parameter_space_covers_every_value_pairwise():
    for a, b in ((a, b) for x, a in enumerate(_SPACE) for b in list(_SPACE)[x + 1:]):
        seen = {(run_[a], run_[b]) for run_ in _SPACE_RUNS}
        assert len(seen) == len(_SPACE[a]) * len(_SPACE[b]), (a, b)
    shifts = {_SHIFTS[i % 3] for i, run_ in enumerate(_SPACE_RUNS) if run_["command"] == "render"}
    assert shifts == set(_SHIFTS)


@pytest.mark.parametrize("i", range(len(_SPACE_RUNS)))
def test_cli_parameter_space_ends_cleanly(space_dir, i):
    # every accepted flag value ends promptly in success or a tagged error,
    # with no traceback, no RuntimeWarning and strict JSON only
    argv = _space_argv(i, _SPACE_RUNS[i])
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = run(space_dir, *argv)
    assert time.perf_counter() - start < 2.0, argv
    assert code == 0 or (code in (1, 2) and "[E_" in err.getvalue()), (argv, code, err.getvalue())
    texts = [out.getvalue()] if argv[0] in ("residual", "energy") and code == 0 else []
    texts += [path.read_text() for path in space_dir.glob(f"case{i}_*.json")]
    for text in texts:
        json.loads(text, parse_constant=lambda token: pytest.fail(f"bare {token} in {argv}"))


def test_solving_leaves_scipy_linalg_unimported(tmp_path):
    # scipy.linalg is ~300 modules and ~25 MB; a solve loads only its
    # LAPACK extension, and importing the package loads none of scipy
    code = (
        "import sys, qdefect, qdefect.cli\n"
        "assert not any(name.split('.')[0] == 'scipy' for name in sys.modules)\n"
        "from qdefect import ModelParams, RadialGrid, continuation_in_b2, minimize\n"
        "p = ModelParams(a2=1.0, b2=0.0, c2=1.0, L=0.05, R=1.0, k=1)\n"
        "grid = RadialGrid.uniform(1.0, 64)\n"
        "minimize(p, grid)\n"
        "continuation_in_b2(p, [0.0, 0.5], grid)\n"
        "assert qdefect.cli.main(['solve', '--k', '1', '--n', '64', '-o', 'run']) == 0\n"
        "assert qdefect.cli.main(['sweep', '--L-list', '0.1,0.05', '--n', '64', '-o', 'sw']) == 0\n"
        "assert 'scipy.linalg._flapack' in sys.modules\n"
        "sys.exit('scipy.linalg' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": SRC_DIR}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60.0, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


_CLI_ARGUMENT_CHECKS = {
    # a config null means "not given" for an option with no default
    "config-null-input": (("residual",), {"input": None}, "residual requires --input"),
    # a valid choice from a config passes, and --init file then needs its file
    "config-valid-choice": (("solve",), {"init": "file"}, "--init file requires --init-file"),
    # an --init-file that --init file does not ask for is rejected, not ignored
    "init-file-without-init-file": (
        ("solve", "--init-file", "missing.csv"), None, "--init-file requires --init file"),
    "config-init-file-without-init-file": (
        ("sweep", "--L-list", "0.1,0.05"), {"init_file": "missing.csv"},
        "--init-file requires --init file"),
    # bulk coefficients whose s_plus^2 overflows
    **{f"{cmd}-overflowing-s-plus": (
        (cmd, *flags, "--a2", "1e300", "--c2", "1e-300"), None, "whose square overflows")
       for cmd, flags in (("limit", ("--k", "2", "--n", "16", "--m", "64")),
                          ("solve", ("--n", "16")),
                          ("render", ("--branch", "minus")))},
    # a finite s_plus^2 whose quartic term c2 |Y|^4 overflows: the solvers
    # reject it (render draws it), a sweep before its first solve
    "solve-overflowing-bulk": (
        ("solve", "--k", "2", "--n", "16", "--a2", "1e300"), None, "c2 |Y|^4 overflows"),
    "sweep-overflowing-bulk": (
        ("sweep", "--b2-list", "0,1e150", "--n", "16"), None, "c2 |Y|^4 overflows"),
    "config-unreadable": (("solve", "--config", "missing.json"), None, "cannot read config file"),
    "config-not-object": (("solve",), [1, 2], "must hold a JSON object"),
    "residual-without-input": (("residual",), None, "residual requires --input"),
    "energy-without-input": (("energy",), None, "energy requires --input"),
    "render-branch-b2": (
        ("render", "--branch", "minus", "--b2", "0.3"), None, "explicit branches require b2 = 0"),
    "sweep-bad-b2-list": (("sweep", "--b2-list", "0,x"), None, "bad b2 list"),
    # cell * (lam + shift) overflows
    "render-overflowing-shift": (
        ("render", "--branch", "minus", "--k", "1", "--n", "16", "--style", "box",
         "--shift", "1e308"), None, "box shift 1e+308 overflows the box sides"),
    # just past the size bounds, as a flag and as a config key
    "solve-n-past-bound": (("solve", "--n", "65537"), None, "n = 65537 exceeds the bound 65536"),
    "config-n-past-bound": (("render", "--branch", "minus"), {"n": 65537}, "n = 65537 exceeds"),
    "limit-m-past-bound": (("limit", "--m", "65538"), None, "m = 65538 exceeds the bound 65536"),
    "config-m-past-bound": (("energy",), {"m": 65538}, "m = 65538 exceeds"),
    "render-size-past-bound": (
        ("render", "--branch", "minus", "--k", "1", "--n", "16", "--size", str(10**400)), None,
        "image size must be in [64, 65536] px"),
    "config-size-past-bound": (("render", "--branch", "minus"), {"size": 65537}, "image size"),
}


@pytest.mark.parametrize("case", sorted(_CLI_ARGUMENT_CHECKS))
def test_cli_argument_checks(tmp_path, capsys, case):
    argv, cfg, text = _CLI_ARGUMENT_CHECKS[case]
    if cfg is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        argv = (*argv, "--config", "cfg.json")
    assert run(tmp_path, *argv, "-o", "bad") == 2
    err = capsys.readouterr().err
    assert err.startswith("[E_CONFIG]") and text in err
    assert not list(tmp_path.glob("bad*"))


def test_python_m_qdefect_matches_the_in_process_cli(tmp_path, capsys):
    argv = ("limit", "--k", "2", "--n", "512", "--m", "256", "-o", "lim")
    (tmp_path / "module").mkdir()
    (tmp_path / "inproc").mkdir()
    env = {**os.environ, "PYTHONPATH": SRC_DIR}
    proc = subprocess.run([sys.executable, "-m", "qdefect", *argv], capture_output=True,
                          timeout=60.0, env=env, cwd=tmp_path / "module")
    assert proc.returncode == 0, proc.stderr
    assert run(tmp_path / "inproc", *argv) == 0
    assert proc.stdout == capsys.readouterr().out.encode()
    written = sorted(path.name for path in (tmp_path / "module").iterdir())
    assert written == sorted(path.name for path in (tmp_path / "inproc").iterdir())
    assert len(written) == 5
    for name in written:
        assert (tmp_path / "module" / name).read_bytes() == (tmp_path / "inproc" / name).read_bytes()


# ---------------------------------------------------------------------------
# parser: one per call, read as the every-option parser reads
# ---------------------------------------------------------------------------

def _every_option_parser():
    """Reference: one parser with every command as a sub-parser holding its
    options, as the CLI once built it for every call."""
    parser = argparse.ArgumentParser(prog="qdefect", description=build_parser().description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in _COMMANDS.items():
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for key, kind, _, commands, help_text in _OPTIONS:
            if commands is None or name in commands:
                flags = ["--" + key.replace("_", "-")] + (["-o"] if key == "out" else [])
                if isinstance(kind, tuple):
                    p.add_argument(*flags, choices=kind, help=help_text)
                else:
                    p.add_argument(*flags, type=kind, help=help_text)
    return parser


def _sub_parsers(parser):
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return subs.choices


def _dests(parser):
    return {a.dest for a in parser._actions} - {"help"}


def _readme_argvs():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return [
        shlex.split(line)[1:]
        for line in readme.read_text(encoding="utf-8").splitlines()
        if line.startswith("qdefect ")
    ]


def test_readme_lists_every_command():
    assert sorted({argv[0] for argv in _readme_argvs()}) == sorted(_COMMANDS)


@pytest.mark.parametrize("argv", _readme_argvs(), ids=lambda argv: " ".join(argv))
def test_readme_argv_parses_alike_under_the_per_command_parser(argv):
    reference = vars(_every_option_parser().parse_args(argv))
    assert reference.pop("command") == argv[0]
    assert vars(build_parser(argv[0]).parse_args(argv[1:])) == reference


def test_per_command_parser_adds_only_the_invoked_commands_options():
    reference = _sub_parsers(_every_option_parser())
    for name in _COMMANDS:
        own = build_parser(name)
        assert own.prog == f"qdefect {name}" and not own.allow_abbrev
        options = {row[0] for row in _OPTIONS if row[3] is None or name in row[3]}
        assert _dests(own) == _dests(reference[name]) == {"config", *options}
    for top in (build_parser(), build_parser("bogus")):  # the names alone, no options
        assert _dests(top) == {"command"}
        assert {name: _dests(p) for name, p in _sub_parsers(top).items()} == {
            name: set() for name in _COMMANDS
        }


def _parse_outcome(parse, argv):
    """``(exit code, stdout, stderr)`` of a parse that ends in SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as info:
            parse(argv)
    return info.value.code, out.getvalue(), err.getvalue()


_EXITING_ARGVS = [
    ([], 2),
    (["--help"], 0),
    (["bogus"], 2),
    (["bogus", "--k", "1"], 2),
    (["--k", "1"], 2),
    *[([name, "--help"], 0) for name in _COMMANDS],
    *[([name, "--bogus", "1"], 2) for name in _COMMANDS],
    *[([name, "--k"], 2) for name in _COMMANDS],
    (["solve", "--m", "64"], 2),
    (["render", "--style", "blob"], 2),
]


@pytest.mark.parametrize(
    "argv, code", _EXITING_ARGVS, ids=[" ".join(argv) or "no-args" for argv, _ in _EXITING_ARGVS]
)
def test_help_and_usage_errors_match_the_full_parser(argv, code):
    reference = _every_option_parser()
    want = _parse_outcome(reference.parse_args, argv)
    if argv[:1] and argv[0] in _COMMANDS and "unrecognized arguments" in want[2]:
        # a flag the command does not know is reported by the command's own parser
        want = _parse_outcome(_sub_parsers(reference)[argv[0]].parse_args, argv[1:])
        assert want[2].startswith(f"usage: qdefect {argv[0]} [-h] [--config CONFIG]")
        assert f"\nqdefect {argv[0]}: error: unrecognized arguments: {argv[1]}" in want[2]
    got = _parse_outcome(main, argv)
    assert got == want
    assert got[0] == code
    assert (got[1] if code == 0 else got[2]).startswith("usage: qdefect")


def test_main_builds_the_parser_of_the_command_it_runs(monkeypatch):
    import qdefect.cli as cli

    built = []

    def recording(command=None):
        built.append(command)
        return build_parser(command)

    monkeypatch.setattr(cli, "build_parser", recording)
    for argv in (["energy", "--help"], ["--help"], [], ["bogus", "--k", "1"]):
        with pytest.raises(SystemExit), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            main(argv)
    monkeypatch.setattr(sys, "argv", ["qdefect", "limit", "--help"])
    with pytest.raises(SystemExit), contextlib.redirect_stdout(io.StringIO()):
        main()
    assert built == ["energy", None, None, None, "limit"]
