import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdefect
from qdefect import CsvFormatError, NonConvergence, Profile, RadialGrid, read_profile_csv
from qdefect.cli import _json_text, main


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
    report = json.loads((tmp_path / "out_report.json").read_text())
    assert list(report)[:5] == ["energy", "grad_norm", "residual_norm", "iterations", "converged"]
    assert report["converged"] is True
    assert report["grad_norm"] <= 1e-9
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


@pytest.mark.parametrize(
    "cfg, key",
    [
        ({"tol": "abc"}, "tol"),
        ({"n": "abc"}, "n"),
        ({"k": 1.5, "n": 64}, "k"),
        ({"n": True}, "n"),
    ],
    ids=["tol-string", "n-string", "k-non-integral", "n-bool"],
)
def test_solve_rejects_mistyped_config_values(tmp_path, capsys, cfg, key):
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run(tmp_path, "solve", "--config", "cfg.json", "-o", "typed") == 2
    err = capsys.readouterr().err
    assert "[E_CONFIG]" in err and repr(key) in err and "Traceback" not in err
    assert not (tmp_path / "typed_report.json").exists()


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
    *[(cmd, flag) for cmd in ("energy", "residual") for flag in (("--n", "64", 64), *_SOLVER_FLAGS)],
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
    assert "with failures" in capsys.readouterr().out
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
    assert run(
        tmp_path, *sweep[:-1], "64", "--init", "file", "--init-file", "seed_profile.csv"
    ) == 2


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
    assert payload["dirichlet_2d"] == qdefect.dirichlet_quadrature(lifted)
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
    # L = 1e-300 overflows the gradient norm at the start: the solver must
    # stop there instead of iterating on inf
    code = "import sys; from qdefect.cli import main; sys.exit(main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": SRC_DIR}
    proc = subprocess.run(
        [sys.executable, "-c", code, "solve", "--L", "1e-300", "--n", "256", "-o", "tiny"],
        capture_output=True, text=True, timeout=2.0, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 1
    assert "[E_NUMERIC]" in proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.loads((tmp_path / "tiny_report.json").read_text())
    assert report["converged"] is False and report["grad_norm"] is None
    assert report["iterations"] == 0


def test_package_import_leaves_scipy_linalg_to_the_solver():
    # scipy.linalg is most of the import time, and only minimize needs it
    code = (
        "import sys, qdefect, qdefect.cli\n"
        "sys.exit('scipy.linalg' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": SRC_DIR}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30.0, env=env)
    assert proc.returncode == 0, proc.stderr
