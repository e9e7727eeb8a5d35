"""Command-line interface.

Commands: ``solve``, ``limit``, ``residual``, ``render``, ``sweep``,
``energy``.  Exit codes: 0 success, 1 numerical failure, 2 usage or
configuration error.  Options come from flat flags, optionally seeded
from a JSON config file (flags override the file).  Each command accepts
only the flags it reads, and the same keys in the file; any other flag or
key is rejected.  No environment variables are consulted, and outputs are
written atomically (temp file + rename) for reproducible pipelines.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import field as field2d
from . import harmonic, render
from .errors import (
    CsvFormatError,
    GridError,
    InvalidParams,
    NonConvergence,
    QDefectError,
)
from .grid import PolarGrid, RadialGrid
from .params import ModelParams
from .reduced import (
    Profile,
    _warm_started,
    apply_boundary,
    minimize,
    ode_residual,
    read_profile_csv,
    reduced_energy,
    write_profile_csv,
)
from .tensor import ansatz_eigenvalues


def _fail(code: str, message: str) -> None:
    print(f"[{code}] {message}", file=sys.stderr)


def _write_text_atomic(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _finite_or_null(obj):
    """Copy of a JSON payload with every non-finite float replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(val) for val in obj]
    return obj


def _json_text(obj, indent=None) -> str:
    """Strict JSON: a non-finite value (e.g. of a failed solve) is ``null``."""
    return json.dumps(_finite_or_null(obj), indent=indent, allow_nan=False)


def _write_json(path: str, obj) -> None:
    _write_text_atomic(path, _json_text(obj, indent=2) + "\n")


def _write_profile(path: str, profile: Profile) -> None:
    tmp = f"{path}.tmp"
    write_profile_csv(tmp, profile)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

_MODEL_DEFAULTS = {"a2": 1.0, "b2": 0.0, "c2": 1.0, "L": 0.1, "R": 1.0, "k": 1}

# Flag groups beyond the model coefficients, with their defaults.
_GROUP_DEFAULTS = {
    "n": {"n": 512},
    "m": {"m": 128},
    "solver": {"tol": 1e-9, "max_iter": 100, "init": "explicit", "init_file": None},
}

# The groups each command reads: it accepts exactly these flags, and the
# same keys in a config file.
_COMMAND_GROUPS = {
    "solve": ("n", "solver"),
    "sweep": ("n", "solver"),
    "limit": ("n", "m"),
    "render": ("n",),
    "residual": ("m",),
    "energy": ("m",),
}

_RENDER_DEFAULTS = {
    "style": "rod",
    "density": 16,
    "size": 640,
    "shift": None,
    "branch": None,
    "input": None,
}


# Types of the numeric flags; every other key takes a string.  A config-file
# value is converted as its flag's value would be.
_NUMERIC_FLAGS = {
    "a2": float, "b2": float, "c2": float, "L": float, "R": float, "tol": float,
    "shift": float, "k": int, "n": int, "m": int, "max_iter": int, "density": int, "size": int,
}


def _config_value(key: str, value, default):
    """Check and convert one config-file value with its flag's type."""
    kind = _NUMERIC_FLAGS.get(key, str)
    if (value is None and default is None) or (kind is str and isinstance(value, str)):
        return value
    if kind is not str and isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:  # a non-integral number for an integer key is rejected, not truncated
            if kind is float or not isinstance(value, float) or value.is_integer():
                return kind(value)
        except (ValueError, OverflowError):
            pass
    raise InvalidParams(f"config key {key!r} must be {kind.__name__}, got {value!r}")


def _add_param_flags(sub, command: str):
    groups = _COMMAND_GROUPS[command]
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--a2", type=float, help="bulk coefficient a2 (> 0)")
    sub.add_argument("--b2", type=float, help="bulk coefficient b2 (>= 0)")
    sub.add_argument("--c2", type=float, help="bulk coefficient c2 (> 0)")
    sub.add_argument("--L", type=float, help="elastic constant (> 0)")
    sub.add_argument("--R", type=float, help="disk radius")
    sub.add_argument("--k", type=int, help="defect index numerator, nonzero integer")
    if "n" in groups:
        sub.add_argument("--n", type=int, help="radial segments (>= 16)")
    if "m" in groups:
        sub.add_argument("--m", type=int, help="angular samples (even, >= 64)")
    if "solver" in groups:
        sub.add_argument("--tol", type=float, help="projected-gradient tolerance")
        sub.add_argument("--max-iter", dest="max_iter", type=int, help="Newton iteration cap")
        sub.add_argument("--init", choices=("explicit", "ramp", "file"), help="initial guess")
        sub.add_argument("--init-file", dest="init_file", help="profile CSV for --init file")
    sub.add_argument("--out", "-o", help="output path prefix")


def _effective(args: argparse.Namespace, extra: dict | None = None) -> dict:
    """Merge flag values over config-file values over defaults: the keys of
    the command's flag groups, ``out`` and the command's own ``extra`` keys."""
    defaults = dict(_MODEL_DEFAULTS)
    for group in _COMMAND_GROUPS[args.command]:
        defaults.update(_GROUP_DEFAULTS[group])
    defaults["out"] = "qdefect"
    defaults.update(extra or {})
    cfg = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
            raise InvalidParams(f"cannot read config file {args.config}: {exc}") from None
        if not isinstance(cfg, dict):
            raise InvalidParams("config file must hold a JSON object")
        unknown = set(cfg) - set(defaults)
        if unknown:
            raise InvalidParams(f"unknown config keys: {sorted(unknown)}")
    eff = {}
    for key, fallback in defaults.items():
        flag = getattr(args, key, None)
        if flag is None:
            flag = _config_value(key, cfg[key], fallback) if key in cfg else fallback
        eff[key] = flag
    return eff


def _model_params(eff: dict, allow_zero_l=False) -> ModelParams:
    if eff["k"] == 0:
        raise InvalidParams("k must be a nonzero integer (k in Z \\ {0})")
    if not allow_zero_l and eff["L"] == 0.0:
        raise InvalidParams(
            "L = 0 is the harmonic-map limit; use the `limit` command instead"
        )
    return ModelParams(**{key: eff[key] for key in ("a2", "b2", "c2", "L", "R", "k")})


def _grid(eff: dict, params: ModelParams) -> RadialGrid:
    return RadialGrid.for_defect(params.R, eff["n"], params.k)


def _init(eff: dict, params: ModelParams):
    """The ``init`` argument of ``minimize``: a preset or the ``--init-file`` profile."""
    if eff["init"] != "file":
        return eff["init"]
    if not eff["init_file"]:
        raise InvalidParams("--init file requires --init-file")
    return apply_boundary(read_profile_csv(eff["init_file"]), params)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    eff = _effective(args)
    params = _model_params(eff)
    grid = _grid(eff, params)
    out = eff["out"]
    try:
        profile, report = minimize(
            params, grid, init=_init(eff, params), tol=eff["tol"], max_iter=eff["max_iter"]
        )
        status = 0
    except NonConvergence as exc:
        profile, report = exc.profile, exc.report
        _fail("E_NUMERIC", str(exc))
        status = 1
    _write_profile(f"{out}_profile.csv", profile)
    _write_json(f"{out}_report.json", report.to_json_dict())
    print(
        f"solve: converged={report.converged} energy={report.energy!r} "
        f"grad_norm={report.grad_norm:.3e} -> {out}_profile.csv"
    )
    return status


def cmd_limit(args) -> int:
    eff = _effective(args)
    if eff["b2"] != 0.0:
        raise InvalidParams("the limit command requires b2 = 0")
    params = _model_params(eff, allow_zero_l=True).with_updates(L=0.0)
    grid = RadialGrid.uniform(params.R, eff["n"])
    out = eff["out"]

    table = {}
    for branch, tag in ((harmonic.Branch.MINUS, "Y_minus"), (harmonic.Branch.PLUS, "Y_plus")):
        profile = harmonic.explicit_profile(branch, params, grid)
        _write_profile(f"{out}_{branch.value}.csv", profile)
        lam = ansatz_eigenvalues(profile.u, profile.v)
        lines = ["r,lam1,lam2,lam3"]
        for r, row in zip(grid.nodes, lam):
            lines.append(f"{float(r)!r},{float(row[0])!r},{float(row[1])!r},{float(row[2])!r}")
        _write_text_atomic(f"{out}_eigenvalues_{branch.value}.csv", "\n".join(lines) + "\n")
        en = harmonic.dirichlet_energy_2d(branch, params, n_r=eff["n"], m_phi=eff["m"])
        table[tag] = {"closed_form": en.closed_form, "quadrature": en.quadrature}
    if params.k % 2 == 0:
        en = harmonic.dirichlet_energy_2d(
            harmonic.Branch.UNIAXIAL_ESCAPE, params, n_r=eff["n"], m_phi=eff["m"]
        )
        table["U"] = {"closed_form": en.closed_form, "quadrature": en.quadrature}
    else:
        table["U"] = None
        table["note"] = "uniaxial escape solution exists for even k only"
    _write_json(f"{out}_energies.json", table)
    print(f"limit: wrote explicit profiles and energy table -> {out}_energies.json")
    return 0


def cmd_residual(args) -> int:
    eff = _effective(args, {"input": None})
    if not eff["input"]:
        raise InvalidParams("residual requires --input profile.csv")
    params = _model_params(eff)
    profile = read_profile_csv(eff["input"])
    out = eff["out"]

    res = ode_residual(profile, params)
    lines = ["r,ru,rv"]
    for r, ru, rv in zip(res.r, res.ru, res.rv):
        lines.append(f"{float(r)!r},{float(ru)!r},{float(rv)!r}")
    _write_text_atomic(f"{out}_residual.csv", "\n".join(lines) + "\n")

    pg = PolarGrid(profile.grid, eff["m"])
    lifted = field2d.lift(profile, params.k, pg)
    el = field2d.el_residual_2d(lifted, params)
    norms = el.norms()
    w = profile.grid.weights[1:-1]
    l2 = math.sqrt(float(np.sum(w[:, None] * norms**2) * pg.dphi))
    summary = {
        "ode_max_interior": res.max_interior(),
        "neumann_defect": res.neumann_defect,
        "el2d_max": float(np.max(norms)),
        "el2d_max_bulk": float(np.max(norms[el.rings >= 0.05 * params.R])),
        "el2d_l2": l2,
    }
    _write_json(f"{out}_summary.json", summary)
    print(_json_text(summary))
    return 0


def cmd_render(args) -> int:
    eff = _effective(args, _RENDER_DEFAULTS)
    if bool(eff["branch"]) == bool(eff["input"]):
        raise InvalidParams("render needs exactly one of --branch or --input")
    spec = render.RenderSpec(
        style=eff["style"],
        density=eff["density"],
        size=eff["size"],
        shift=eff["shift"],
    )
    if eff["branch"]:
        if eff["b2"] != 0.0:
            raise InvalidParams("explicit branches require b2 = 0")
        params = _model_params(eff, allow_zero_l=True)
        grid = RadialGrid.uniform(params.R, eff["n"])
        profile = harmonic.explicit_profile(harmonic.Branch(eff["branch"]), params, grid)
        title = f"branch {eff['branch']}, k={params.k}"
    else:
        params = _model_params(eff, allow_zero_l=True)
        profile = read_profile_csv(eff["input"])
        title = f"profile {os.path.basename(eff['input'])}, k={params.k}"
    out = eff["out"]
    _write_text_atomic(f"{out}_glyphs.svg", render.glyph_svg(profile, params, spec))
    _write_text_atomic(
        f"{out}_eigenvalues.svg",
        render.eigenvalue_chart_svg(profile, params, size=eff["size"], title=title),
    )
    print(f"render: wrote {out}_glyphs.svg and {out}_eigenvalues.svg")
    return 0


def _sweep_values(raw: str, name: str):
    if raw is None:
        return None
    items = [s for s in raw.split(",") if s.strip() != ""]
    if not items:
        raise InvalidParams(f"{name} list is empty")
    try:
        vals = [float(s) for s in items]
    except ValueError as exc:
        raise InvalidParams(f"bad {name} list: {exc}") from None
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    if diffs and not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
        raise InvalidParams(f"{name} list must be strictly monotone")
    return vals


def cmd_sweep(args) -> int:
    eff = _effective(args, {"b2_list": None, "L_list": None})
    b2_list = _sweep_values(eff["b2_list"], "b2")
    l_list = _sweep_values(eff["L_list"], "L")
    if (b2_list is None) == (l_list is None):
        raise InvalidParams("sweep needs exactly one of --b2-list or --L-list")
    base = _model_params(eff)
    grid = _grid(eff, base)
    out = eff["out"]

    reference = harmonic.explicit_profile(
        harmonic.Branch.MINUS, base.with_updates(b2=0.0, L=0.0), grid
    )

    records = []
    failed = False
    sweep_name, values = ("b2", b2_list) if b2_list is not None else ("L", l_list)
    steps = _warm_started(
        base, grid, sweep_name, values, init=_init(eff, base),
        tol=eff["tol"], max_iter=eff["max_iter"],
    )
    for p_step, profile, report, error in steps:
        record = {sweep_name: getattr(p_step, sweep_name), "s_plus": p_step.s_plus}
        if error is not None:
            failed = True
            record["error"] = str(error)
        record.update(
            {
                "converged": error is None,
                "energy": report.energy,
                "grad_norm": report.grad_norm,
                "u_R": float(profile.u[-1]),
                "v_R": float(profile.v[-1]),
                "norm_bound_margin": report.checks.get("norm_bound_margin"),
                "distance_to_minus": profile.distance_to(reference),
            }
        )
        records.append(record)
    _write_json(f"{out}_sweep.json", {"parameter": sweep_name, "records": records})
    print(f"sweep: {len(records)} steps ({'with failures' if failed else 'all converged'})")
    return 1 if failed else 0


def cmd_energy(args) -> int:
    # without an output prefix the energies are only printed
    eff = _effective(args, {"input": None, "out": None})
    if not eff["input"]:
        raise InvalidParams("energy requires --input profile.csv")
    params = _model_params(eff)
    profile = read_profile_csv(eff["input"])
    pg = PolarGrid(profile.grid, eff["m"])
    lifted = field2d.lift(profile, params.k, pg)
    e0 = harmonic.e0_energy(profile, params)
    dirichlet, pot = field2d.fd_energy_terms(lifted, params)
    payload = {
        "reduced": reduced_energy(profile, params),
        "ldg_2d": dirichlet + pot / params.L,  # as ldg_energy_2d forms it
        "dirichlet_2d": dirichlet,
        "e0": e0.value if e0.finite else "infinite",
        "e0_constraint_deviation": e0.max_deviation,
    }
    text = _json_text(payload, indent=2)
    print(text)
    if eff["out"] is not None:
        _write_json(f"{eff['out']}_energy.json", payload)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdefect",
        description=(
            "Point-defect profiles of 2D nematic liquid crystals in the "
            "Landau-de Gennes Q-tensor model"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        # no prefix matching: ``solve --m`` must not pass as ``--max-iter``
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        _add_param_flags(p, name)
        p.set_defaults(func=func)
        return p

    command("solve", cmd_solve, "minimise the reduced radial energy")
    command("limit", cmd_limit, "explicit L -> 0 profiles and energy table")
    p_res = command("residual", cmd_residual, "ODE and 2D PDE residuals of a profile")
    p_res.add_argument("--input", help="profile CSV (r,u,v)")

    p_render = command("render", cmd_render, "SVG glyph lattice and eigenvalue chart")
    p_render.add_argument("--branch", choices=("minus", "plus"), help="explicit branch")
    p_render.add_argument("--input", help="profile CSV (r,u,v)")
    p_render.add_argument("--style", choices=("rod", "box"), help="glyph style")
    p_render.add_argument("--density", type=int, help="glyph rings (>= 4)")
    p_render.add_argument("--size", type=int, help="image size in px")
    p_render.add_argument("--shift", type=float, help="box eigenvalue shift")

    p_sweep = command("sweep", cmd_sweep, "parameter continuation sweep")
    p_sweep.add_argument("--b2-list", dest="b2_list", help="comma-separated monotone b2 values")
    p_sweep.add_argument("--L-list", dest="L_list", help="comma-separated monotone L values")

    p_energy = command("energy", cmd_energy, "print energies of a profile")
    p_energy.add_argument("--input", help="profile CSV (r,u,v)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CsvFormatError as exc:
        _fail("E_IO", f"bad input CSV: {exc}")
        return 2
    except OSError as exc:
        _fail("E_IO", str(exc))
        return 2
    except (InvalidParams, GridError) as exc:
        _fail("E_CONFIG", str(exc))
        return 2
    except NonConvergence as exc:  # pragma: no cover - commands handle their own
        _fail("E_NUMERIC", str(exc))
        return 1
    except QDefectError as exc:
        _fail("E_CONFIG", str(exc))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
