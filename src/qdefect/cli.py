"""Command-line interface.

Commands: ``solve``, ``limit``, ``residual``, ``render``, ``sweep``,
``energy``.  Exit codes: 0 success, 1 numerical failure, 2 usage or
configuration error.  Options come from flat flags, optionally seeded
from a JSON config file (flags override the file).  Each command accepts
only its own flags, and the same keys in the file; any other flag or key
is rejected.  Its own flags are the ones it reads, except that ``limit``
checks ``--L`` and discards it, ``render`` never reads ``--L``, and
``render --input`` reads only ``--k`` of the model flags.  No environment
variables are consulted, and outputs are written atomically (temp file +
rename) for reproducible pipelines.

:func:`main` builds one parser per call, the named command's own or, for
any other ``argv``, the top-level one of the command names, and hands the
command one options dict: flags over config-file values over defaults.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import field as field2d
from . import harmonic, render
from .errors import (
    CsvFormatError,
    InvalidParams,
    NonConvergence,
    QDefectError,
)
from .grid import PolarGrid, RadialGrid
from .params import ModelParams
from .reduced import (
    _BULK_R_MIN,
    _bulk_mask,
    _warm_started,
    csv_cells,
    csv_text,
    minimize,
    ode_residual,
    read_profile_csv,
    reduced_energy,
    write_profile_csv,
    write_text_atomic,
)
from .tensor import ansatz_eigenvalues


def _fail(code: str, message: str) -> None:
    print(f"[{code}] {message}", file=sys.stderr)


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
    write_text_atomic(path, _json_text(obj, indent=2) + "\n")


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

_SOLVERS = ("solve", "sweep")
# Size bounds, set so that the largest accepted run of each command peaks
# under 1 GiB and ends within 30 s: --n and --m, and the (N + 1) x M samples
# of the field that residual and energy lift from their input profile.
_MAX_GRID = 65536
_MAX_SAMPLES = 2**22

# Every option of every command: (key, type or tuple of choices, default, the
# commands that read it or None for all, help).  A command accepts exactly its
# keys, as ``--key`` flags (``_`` written ``-``) and as config-file keys, and
# checks both alike.  ``out`` has one row per default.
_OPTIONS = (
    ("a2", float, 1.0, None, "bulk coefficient a2 (> 0)"),
    ("b2", float, 0.0, None, "bulk coefficient b2 (>= 0)"),
    ("c2", float, 1.0, None, "bulk coefficient c2 (> 0)"),
    ("L", float, 0.1, None, "elastic constant (> 0)"),
    ("R", float, 1.0, ("solve", "sweep", "limit", "render"), "disk radius"),
    ("k", int, 1, None, "defect index numerator, nonzero integer"),
    ("n", int, 512, ("solve", "sweep", "limit", "render"), "radial segments (>= 16)"),
    ("m", int, 128, ("limit", "residual", "energy"), "angular samples (even, >= 64)"),
    ("tol", float, 1e-9, _SOLVERS, "projected-gradient tolerance"),
    ("max_iter", int, 100, _SOLVERS, "Newton iteration cap"),
    ("init", ("explicit", "ramp", "file"), "explicit", _SOLVERS, "initial guess"),
    ("init_file", str, None, _SOLVERS, "profile CSV for --init file"),
    ("out", str, "qdefect", ("solve", "sweep", "limit", "render", "residual"),
     "output path prefix"),
    ("out", str, None, ("energy",), "output path prefix"),  # energy only prints by default
    ("branch", ("minus", "plus"), None, ("render",), "explicit branch"),
    ("input", str, None, ("residual", "render", "energy"), "profile CSV (r,u,v)"),
    ("style", ("rod", "box"), "rod", ("render",), "glyph style"),
    ("density", int, 16, ("render",), "glyph rings (>= 4)"),
    ("size", int, 640, ("render",), "image size in px"),
    ("shift", float, None, ("render",), "box eigenvalue shift"),
    ("b2_list", str, None, ("sweep",), "comma-separated monotone b2 values"),
    ("L_list", str, None, ("sweep",), "comma-separated monotone L values"),
)


def _options(command: str):
    """The ``_OPTIONS`` rows of ``command``."""
    return [row for row in _OPTIONS if row[3] is None or command in row[3]]


def _config_value(key: str, kind, value, default):
    """Check and convert one config-file value as its flag's value would be."""
    if value is None and default is None:
        return value
    if isinstance(kind, tuple):
        if value in kind:
            return value
        raise InvalidParams(f"config key {key!r} must be one of {kind}, got {value!r}")
    if kind is str and isinstance(value, str):
        return value
    if kind is not str and isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:  # a non-integral number for an integer key is rejected, not truncated
            if kind is float or not isinstance(value, float) or value.is_integer():
                return kind(value)
        except (ValueError, OverflowError):
            pass
    raise InvalidParams(f"config key {key!r} must be {kind.__name__}, got {value!r}")


def _effective(command: str, args: argparse.Namespace) -> dict:
    """The options dict of ``command``: flag values over config-file values
    over the defaults, with ``n`` and ``m`` bounded."""
    options = _options(command)
    cfg = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
            raise InvalidParams(f"cannot read config file {args.config}: {exc}") from None
        if not isinstance(cfg, dict):
            raise InvalidParams("config file must hold a JSON object")
        unknown = set(cfg).difference(row[0] for row in options)
        if unknown:
            raise InvalidParams(f"unknown config keys: {sorted(unknown)}")
    eff = {}
    for key, kind, default, _, _ in options:
        value = getattr(args, key)
        if value is None:
            value = _config_value(key, kind, cfg[key], default) if key in cfg else default
        eff[key] = value
    for key in ("n", "m"):
        if eff.get(key, 0) > _MAX_GRID:
            raise InvalidParams(f"{key} = {eff[key]} exceeds the bound {_MAX_GRID}")
    return eff


def _model_params(eff: dict, allow_zero_l=False) -> ModelParams:
    if not allow_zero_l and eff["L"] == 0.0:
        raise InvalidParams(
            "L = 0 is the harmonic-map limit; use the `limit` command instead"
        )
    return ModelParams(**{key: eff[key] for key in ("a2", "b2", "c2", "L", "R", "k")})


def _input_profile(command: str, eff: dict):
    """``(profile, params)`` of a command that reads ``--input``; the
    profile fixes the disk radius ``R``."""
    if not eff["input"]:
        raise InvalidParams(f"{command} requires --input profile.csv")
    profile = read_profile_csv(eff["input"])
    rings = profile.grid.nodes.size
    if rings * eff["m"] > _MAX_SAMPLES:
        raise InvalidParams(
            f"{rings} rings x m = {eff['m']} exceed the bound of {_MAX_SAMPLES} lifted samples"
        )
    return profile, _model_params({**eff, "R": profile.grid.radius})


def _grid(eff: dict, params: ModelParams) -> RadialGrid:
    return RadialGrid.for_defect(params.R, eff["n"], params.k)


def _init(eff: dict):
    """The ``init`` argument of ``minimize``: a preset or the ``--init-file`` profile."""
    if eff["init"] != "file":
        if eff["init_file"]:
            raise InvalidParams("--init-file requires --init file")
        return eff["init"]
    if not eff["init_file"]:
        raise InvalidParams("--init file requires --init-file")
    return read_profile_csv(eff["init_file"])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_solve(eff: dict) -> int:
    params = _model_params(eff)
    grid = _grid(eff, params)
    out = eff["out"]
    try:
        profile, report = minimize(
            params, grid, init=_init(eff), tol=eff["tol"], max_iter=eff["max_iter"]
        )
        status = 0
    except NonConvergence as exc:
        profile, report = exc.profile, exc.report
        _fail("E_NUMERIC", str(exc))
        status = 1
    write_profile_csv(f"{out}_profile.csv", profile)
    _write_json(f"{out}_report.json", asdict(report))
    print(
        f"solve: converged={report.converged} energy={report.energy!r} "
        f"grad_norm={report.grad_norm:.3e} -> {out}_profile.csv"
    )
    return status


def cmd_limit(eff: dict) -> int:
    if eff["b2"] != 0.0:
        raise InvalidParams("the limit command requires b2 = 0")
    params = _model_params(eff, allow_zero_l=True).with_updates(L=0.0)
    grid = RadialGrid.uniform(params.R, eff["n"])
    out = eff["out"]

    table = {}
    r = csv_cells(grid.nodes)  # once for the four CSVs
    for branch, tag in ((harmonic.Branch.MINUS, "Y_minus"), (harmonic.Branch.PLUS, "Y_plus")):
        profile = harmonic.explicit_profile(branch, params, grid)
        write_profile_csv(f"{out}_{branch.value}.csv", profile, r)
        lam = ansatz_eigenvalues(profile.u, profile.v)
        text = csv_text("r,lam1,lam2,lam3", lam.T, [r])
        write_text_atomic(f"{out}_eigenvalues_{branch.value}.csv", text)
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


def cmd_residual(eff: dict) -> int:
    profile, params = _input_profile("residual", eff)
    out = eff["out"]

    res = ode_residual(profile, params)
    pg = PolarGrid(profile.grid, eff["m"])
    lifted = field2d.lift(profile, params.k, pg)
    el = field2d.el_residual_2d(lifted, params)
    if not all(np.isfinite(x).all() for x in (res.ru, res.rv, el.values)):
        _fail("E_NUMERIC", "the residual overflows the float range")
        return 1
    write_text_atomic(f"{out}_residual.csv", csv_text("r,ru,rv", (res.r, res.ru, res.rv)))

    # one pass serves the max, the bulk max and the L2 norm, whose sum of
    # squares is formed from the scaled norms so that it cannot overflow
    scaled, e = el.scaled_norms()
    norms = np.ldexp(scaled, e)
    w = profile.grid.weights[1:-1]
    l2 = math.ldexp(math.sqrt(float(np.sum(w[:, None] * scaled**2) * pg.dphi)), e)
    summary = {
        "ode_max_interior": res.max_interior(),
        "neumann_defect": res.neumann_defect,
        "el2d_max": float(np.max(norms)),
        # as el.max_norm(_BULK_R_MIN * params.R) forms it
        "el2d_max_bulk": float(np.max(norms[_bulk_mask(el.rings, _BULK_R_MIN * params.R)])),
        "el2d_l2": l2,
    }
    _write_json(f"{out}_summary.json", summary)
    print(_json_text(summary))
    return 0


def cmd_render(eff: dict) -> int:
    if bool(eff["branch"]) == bool(eff["input"]):
        raise InvalidParams("render needs exactly one of --branch or --input")
    spec = render.RenderSpec(
        style=eff["style"],
        density=eff["density"],
        size=eff["size"],
        shift=eff["shift"],
    )
    if eff["branch"] and eff["b2"] != 0.0:
        raise InvalidParams("explicit branches require b2 = 0")
    params = _model_params(eff, allow_zero_l=True)
    if eff["branch"]:  # --R and --n size the branch; a profile brings its own disk
        grid = RadialGrid.uniform(params.R, eff["n"])
        profile = harmonic.explicit_profile(harmonic.Branch(eff["branch"]), params, grid)
        title = f"branch {eff['branch']}, k={params.k}"
    else:
        profile = read_profile_csv(eff["input"])
        title = f"profile {os.path.basename(eff['input'])}, k={params.k}"
    out = eff["out"]
    glyphs = render.glyph_svg(profile, params.k, spec)  # both before either file is written
    chart = render.eigenvalue_chart_svg(profile, size=eff["size"], title=title)
    write_text_atomic(f"{out}_glyphs.svg", glyphs)
    write_text_atomic(f"{out}_eigenvalues.svg", chart)
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


def cmd_sweep(eff: dict) -> int:
    b2_list = _sweep_values(eff["b2_list"], "b2")
    l_list = _sweep_values(eff["L_list"], "L")
    if (b2_list is None) == (l_list is None):
        raise InvalidParams("sweep needs exactly one of --b2-list or --L-list")
    sweep_name, values = ("b2", b2_list) if b2_list is not None else ("L", l_list)
    base = _model_params(eff)
    # every step is checked before the first solve
    steps = [_model_params({**eff, sweep_name: value}) for value in values]
    grid = _grid(eff, base)
    out = eff["out"]

    reference = harmonic.explicit_profile(
        harmonic.Branch.MINUS, base.with_updates(b2=0.0, L=0.0), grid
    )

    records = []
    failed = False
    solved = _warm_started(
        steps, grid, init=_init(eff), tol=eff["tol"], max_iter=eff["max_iter"]
    )
    for p_step, profile, report, error in solved:
        record = {sweep_name: getattr(p_step, sweep_name), "s_plus": p_step.s_plus}
        if error is not None:
            failed = True
            record["error"] = str(error)
            _fail("E_NUMERIC", f"sweep step {sweep_name}={record[sweep_name]!r}: {error}")
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


def cmd_energy(eff: dict) -> int:
    profile, params = _input_profile("energy", eff)
    pg = PolarGrid(profile.grid, eff["m"])
    lifted = field2d.lift(profile, params.k, pg)
    e0 = harmonic.e0_energy(profile, params)
    dirichlet, pot = field2d.fd_energy_terms(lifted, params)
    payload = {
        "reduced": reduced_energy(profile, params),
        "ldg_2d": dirichlet + pot / params.L,  # as ldg_energy_2d forms it
        "dirichlet_2d": dirichlet,
        "e0": "infinite" if e0.value is None else e0.value,
        "e0_constraint_deviation": e0.max_deviation,
    }
    if not all(math.isfinite(x) for x in payload.values() if isinstance(x, float)):
        _fail("E_NUMERIC", "the energy overflows the float range")
        return 1
    text = _json_text(payload, indent=2)
    print(text)
    if eff["out"] is not None:
        _write_json(f"{eff['out']}_energy.json", payload)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "solve": (cmd_solve, "minimise the reduced radial energy"),
    "limit": (cmd_limit, "explicit L -> 0 profiles and energy table"),
    "residual": (cmd_residual, "ODE and 2D PDE residuals of a profile"),
    "render": (cmd_render, "SVG glyph lattice and eigenvalue chart"),
    "sweep": (cmd_sweep, "parameter continuation sweep"),
    "energy": (cmd_energy, "print energies of a profile"),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The one parser of a call: for a command name, that command's own
    (``--config`` and its options, full names only, so ``solve --m`` is not
    ``--max-iter``); otherwise the top-level one, the command names with
    their help texts and no options."""
    if command in _COMMANDS:
        parser = argparse.ArgumentParser(prog=f"qdefect {command}", allow_abbrev=False)
        parser.add_argument("--config", help="JSON config file; flags override its values")
        for key, kind, _, _, help_text in _options(command):
            flags = ["--" + key.replace("_", "-")] + (["-o"] if key == "out" else [])
            if isinstance(kind, tuple):
                parser.add_argument(*flags, choices=kind, help=help_text)
            else:
                parser.add_argument(*flags, type=kind, help=help_text)
        return parser
    parser = argparse.ArgumentParser(
        prog="qdefect",
        description=(
            "Point-defect profiles of 2D nematic liquid crystals in the "
            "Landau-de Gennes Q-tensor model"
        ),
    )
    names = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in _COMMANDS.items():
        names.add_parser(name, help=text)  # for the help listing: no options
    return parser


def main(argv=None) -> int:
    """Run the command named by ``argv[0]`` (default ``sys.argv[1:]``) with
    the options dict of ``argv[1:]`` and return its exit code; any other
    ``argv`` gets the top-level help or a usage error."""
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv else None
    if command not in _COMMANDS:
        parser = build_parser()
        parser.parse_args(argv)  # prints the help or a usage error and exits,
        parser.error("the command must come first")  # or passes `-- solve` on newer Pythons
    args = build_parser(command).parse_args(argv[1:])
    try:
        return _COMMANDS[command][0](_effective(command, args))
    except CsvFormatError as exc:
        _fail("E_IO", f"bad input CSV: {exc}")
        return 2
    except OSError as exc:
        _fail("E_IO", str(exc))
        return 2
    except NonConvergence as exc:  # pragma: no cover - commands handle their own
        _fail("E_NUMERIC", str(exc))
        return 1
    except QDefectError as exc:
        _fail("E_CONFIG", str(exc))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
