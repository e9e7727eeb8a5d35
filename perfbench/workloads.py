"""Benchmark workloads: seeded inputs, timed operations and their gates.

Each workload is a fixed list of operations built from ``--seed``.  An
operation calls qdefect only through names the package exports (or
``qdefect.cli.main``), looking each one up at call time so that the traced
run can rebind it.  Every operation has a gate: a check of its output that
runs after the timed pass.  A gate failure counts toward ``fail_ratio``
and never aborts the run.

Known defects of the program stay in the data as *probes*: inputs that
are run once per run, outside the timed passes, and count only toward
``fail_ratio``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("solve", "stability", "cli")


@dataclass
class Op:
    """One timed call.  ``run(state)`` returns a result, ``check(result)``
    returns None when the output passes its gate, else a reason."""

    name: str
    run: object
    check: object
    files: str | None = None  # cli: output prefix compared across passes


@dataclass
class Workload:
    name: str
    ops: list
    probes: list = field(default_factory=list)
    compare_files: bool = False


def build(name: str, seed: int, scale: str) -> Workload:
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return {"solve": _solve, "stability": _stability, "cli": _cli}[name](rng, scale == "tiny")


def log_uniform(rng, lo_exp: float, hi_exp: float) -> float:
    return float(10.0 ** rng.uniform(lo_exp, hi_exp))


# ---------------------------------------------------------------------------
# solve: the reduced radial solver
# ---------------------------------------------------------------------------

KS = (1, -1, 2, 3)


def _guess_energy(params, grid, init) -> float:
    """Reduced energy of the solver's documented initial-guess presets."""
    import qdefect as qd

    r = grid.nodes
    if init == "ramp":
        u = params.boundary_u * r / grid.radius
        v = np.full_like(r, params.boundary_v)
    else:  # explicit MINUS branch at the solve's s_plus
        rk = (r / grid.radius) ** abs(params.k)
        den = rk * rk + 3.0
        u = 2.0 * math.sqrt(2.0) * params.s_plus * rk / den
        v = math.sqrt(2.0 / 3.0) * params.s_plus * (rk * rk - 3.0) / den
    profile = qd.apply_boundary(qd.Profile(grid, u, v), params)
    return qd.reduced_energy(profile, params)


def solve_gate(report, guess_energy: float):
    if not report.converged:
        return f"NonConvergence (grad_norm {report.grad_norm:.3e})"
    bad = sorted(k for k, v in report.checks.items() if isinstance(v, bool) and not v)
    if bad:
        return "checks false: " + ",".join(bad)
    if not report.energy <= guess_energy:
        return "energy above the initial guess"
    return None


def _minimize_op(label, params, grid, init):
    import qdefect as qd

    guess = _guess_energy(params, grid, init)

    def run(_state):
        try:
            return qd.minimize(params, grid, init=init)[1]
        except qd.NonConvergence as exc:
            return exc.report

    return Op(label, run, lambda report: solve_gate(report, guess))


def _branch_gate(records):
    """Gate every step of a warm-started branch against its own start."""
    import qdefect as qd

    for tag, params, grid, start, report in records:
        if isinstance(start, str):
            guess = _guess_energy(params, grid, start)
        else:
            guess = qd.reduced_energy(start, params)
        reason = solve_gate(report, guess)
        if reason:
            return f"{tag}: {reason}"
    return None


def _continuation_op(params, grid, targets):
    import qdefect as qd

    def run(_state):
        try:
            branch = qd.continuation_in_b2(params, targets, grid)
        except qd.NonConvergence as exc:
            p_b = params.with_updates(b2=exc.failing_b2)
            return [(f"b2={exc.failing_b2}", p_b, grid, "explicit", exc.report)]
        records, prev = [], None
        for b2, profile, report in branch:
            p_b = params.with_updates(b2=b2)
            start = "explicit"
            if prev is not None:  # the previous solution, rescaled to s_plus
                scale = p_b.s_plus / prev[0].s_plus
                start = qd.apply_boundary(
                    qd.Profile(grid, prev[1].u * scale, prev[1].v * scale), p_b
                )
            records.append((f"b2={b2}", p_b, grid, start, report))
            prev = (p_b, profile)
        return records

    return Op("continuation_in_b2", run, _branch_gate)


def _descent_op(params, grid, l_values):
    """Warm-started descent in L: each solve starts from the previous one."""
    import qdefect as qd

    def run(_state):
        records, start = [], "explicit"
        for L in l_values:
            p_l = params.with_updates(L=L)
            try:
                profile, report = qd.minimize(p_l, grid, init=start)
            except qd.NonConvergence as exc:
                records.append((f"L={L:.3g}", p_l, grid, start, exc.report))
                break
            records.append((f"L={L:.3g}", p_l, grid, start, report))
            start = qd.apply_boundary(profile.copy(), p_l)
        return records

    return Op("l_descent", run, _branch_gate)


def _solve(rng, tiny: bool) -> Workload:
    """48 cold solves, one b2 continuation (n = 512) and one L descent
    (n = 1024): 64 solves in all.

    L is stratified over [1e-4, 1e-1] in log scale.  Each (n, init,
    stratum) group of the four k values covers one decade in four
    sub-strata, with antithetic positions in the middle half of each for
    the pairs (1, -1) and (2, 3), so every seed draws new L values but
    about the same amount of flow work.  Cold solves have b2 = 0 or b2
    stratified the same way over [0.25, 1.5]: above 1.5 a cold start needs
    up to 30 times more iterations (966 against 31 at L = 2.4e-4), and
    b2 just above 0 up to 3 times more (96 against 37 at L = 4.7e-4,
    n = 256), either of which would make the pass time and the median op
    depend on the seed.  The continuation branch covers b2 from 0 up to
    1.75-2, where its warm starts keep the cost flat.
    """
    import qdefect as qd

    ns = (256,) if tiny else (256, 2048)
    strata = 1 if tiny else 3
    ops = []
    for ni, n in enumerate(ns):
        for ii, init in enumerate(("explicit", "ramp")):
            for j in range(strata):
                # middle half of each sub-stratum: flow work goes as 1/L, so
                # the costliest solve then moves by at most 15 % between seeds
                u0, u2 = rng.uniform(0.25, 0.75), rng.uniform(0.25, 0.75)
                pos = (u0, 1.0 - u0, u2, 1.0 - u2)
                w = rng.uniform(0.25, 0.75)
                b2_class = (j + ni + ii + 1) % 2
                for i, k in enumerate(KS):
                    L = 10.0 ** (-4.0 + 3.0 * (4 * j + i + pos[i]) / (4 * strata))
                    flow_heavy = init == "ramp" and n >= 2048 and j == 0
                    # b2 near 0 makes a flow_heavy cold start flow-bound: 0.9 s
                    # at b2 = 0.01, L = 6e-4, and seconds more at b2 = 0, so one
                    # op and the pass time would depend on the seed
                    b2_lo = 0.5 if flow_heavy else 0.25
                    slot = (i + j + ni + ii) % 4
                    b2 = b2_lo + (1.5 - b2_lo) * (slot + w) / 4.0
                    # k = 3 at n = 256 with b2 = 0 is a known defect: see probes
                    if b2_class == 0 and not flow_heavy and not (k == 3 and n == 256):
                        b2 = 0.0
                    params = qd.ModelParams(a2=1.0, b2=b2, c2=1.0, L=L, R=1.0, k=k)
                    grid = qd.RadialGrid.for_defect(1.0, n, k)
                    label = f"minimize[{init},n={n},k={k}]"
                    ops.append(_minimize_op(label, params, grid, init))
    order = rng.permutation(len(ops))
    ops = [ops[i] for i in order]

    n_branch = 32 if tiny else 512
    base = qd.ModelParams(a2=1.0, b2=0.0, c2=1.0, L=log_uniform(rng, -3.0, -1.0), R=1.0, k=1)
    b2_max = float(rng.uniform(1.75, 2.0))
    targets = [b2_max * i / 8 for i in range(9)]
    ops.append(_continuation_op(base, qd.RadialGrid.for_defect(1.0, n_branch, 1), targets))

    k_desc = int(rng.choice((2, -2)))
    start = log_uniform(rng, -1.1, -0.9)
    l_values = [start * 10.0 ** (-0.5 * i) for i in range(7)]
    desc = qd.ModelParams(a2=1.0, b2=0.0, c2=1.0, L=start, R=1.0, k=k_desc)
    ops.append(_descent_op(desc, qd.RadialGrid.for_defect(1.0, 2 * n_branch, k_desc), l_values))

    # Known defects, run once per run outside the timed passes:
    # every n = 4096 solve stops short of tol = 1e-9, and
    # checks.u_positive is false for k = 3 at n = 256.
    probes = []
    n_big = 128 if tiny else 4096
    for i, k in enumerate((1, -2)):
        L = log_uniform(rng, -4.0 + 1.5 * i, -2.5 + 1.5 * i)
        params = qd.ModelParams(a2=1.0, b2=float(i), c2=1.0, L=L, R=1.0, k=k)
        grid = qd.RadialGrid.for_defect(1.0, n_big, k)
        probes.append(_minimize_op(f"probe.minimize[n={n_big},k={k}]", params, grid, "explicit"))
    for d in range(1, 5):  # L near 1e-1, 1e-2, 1e-3, 1e-4
        L = log_uniform(rng, max(-4.0, -d - 0.2), min(-1.0, -d + 0.2))
        params = qd.ModelParams(a2=1.0, b2=0.0, c2=1.0, L=L, R=1.0, k=3)
        grid = qd.RadialGrid.for_defect(1.0, 256, 3)
        init = ("explicit", "ramp")[d % 2]
        probes.append(_minimize_op(f"probe.minimize[{init},n=256,k=3]", params, grid, init))
    return Workload("solve", ops, probes)


# ---------------------------------------------------------------------------
# stability: 2D energies, second variation and energy gap
# ---------------------------------------------------------------------------

def _stability(rng, tiny: bool) -> Workload:
    """Criteria 06/07 style sampling about one base solution per pass.

    A sample, one op, draws a random perturbation and evaluates the second
    variation or the energy gap about it.  As two ops, the perturbations
    would fill the lower half of the op times, and the median op would
    sit where they meet the second variations, so that it would jump
    between the two from run to run.
    """
    import qdefect as qd

    n, m = (64, 64) if tiny else (512, 256)
    n_gap, m_gap = (64, 64) if tiny else (256, 128)
    n_sv, n_gp = (2, 2) if tiny else (16, 8)
    params = qd.ModelParams(a2=1.0, b2=0.0, c2=1.0, L=0.01, R=1.0, k=1)
    grid = qd.RadialGrid.uniform(1.0, n)
    grid_gap = qd.RadialGrid.uniform(1.0, n_gap)
    ops = []

    def base_ops(tag, g, mm):
        guess = _guess_energy(params, g, "explicit")

        def solve(state):
            try:
                profile, report = qd.minimize(params, g)
            except qd.NonConvergence as exc:
                profile, report = exc.profile, exc.report
            state[tag + ".profile"] = profile
            return report

        def lift(state):
            state[tag] = qd.lift(state[tag + ".profile"], params.k, qd.PolarGrid(g, mm))
            return state[tag]

        ops.append(Op("minimize", solve, lambda rep: solve_gate(rep, guess)))
        ops.append(Op("lift", lift, _finite_field))

    base_ops("field", grid, m)
    for i in range(n_sv):
        seed = int(rng.integers(0, 2**31))
        kind = (None, "core", "boundary")[i % 3]
        ops.append(Op("second_variation_sample",
                      _sample(_perturb(seed, kind, 1.0, "field"), _second_variation(params)),
                      _sample_gate(_sv_gate)))

    base_ops("field_gap", grid_gap, m_gap)
    for _ in range(n_gp):
        seed = int(rng.integers(0, 2**31))
        norm = float(rng.uniform(0.5, 1.5))
        ops.append(Op("energy_gap_sample",
                      _sample(_perturb(seed, None, norm, "field_gap"), _energy_gap(params)),
                      _sample_gate(_gap_gate)))

    def fd(fn_name):
        def run(state):
            return getattr(qd, fn_name)(state["field"], params)

        return run

    ops.append(Op("ldg_energy_2d", fd("ldg_energy_2d"), _finite_number))
    ops.append(Op("ldg_energy_spectral", fd("ldg_energy_spectral"), _finite_number))
    ops.append(Op("el_residual_2d", fd("el_residual_2d"), _residual_gate))

    return Workload("stability", ops)


def _sample(perturb, measure):
    def run(state):
        return perturb(state), measure(state)

    return run


def _sample_gate(gate):
    def check(res):
        pert, value = res
        return _finite_field(pert) or gate(value)

    return check


def _perturb(seed, kind, norm, base):
    import qdefect as qd

    def run(state):
        state["pert"] = qd.random_perturbation(
            state[base].grid, seed=seed, concentrate=kind, norm=norm
        )
        return state["pert"]

    return run


def _second_variation(params):
    import qdefect as qd

    def run(state):
        return qd.second_variation(state["field"], params, state["pert"])

    return run


def _sv_gate(sv):
    if not sv.direct >= 0.0:
        return f"second variation {sv.direct!r} < 0"
    split = abs(sv.direct - sv.hardy) / abs(sv.direct)
    if not split <= 1e-2:
        return f"direct/hardy split {split:.2e} > 1e-2"
    return None


def _energy_gap(params):
    import qdefect as qd

    def run(state):
        y = state["field_gap"]
        return qd.energy_gap(y, qd.Field2D(y.grid, y.values + state["pert"].values), params)

    return run


def _gap_gate(gap):
    rel = abs(gap.direct - gap.decomposition) / abs(gap.direct)
    if not rel <= 1e-6:
        return f"gap identity rel err {rel:.2e} > 1e-6"
    if not gap.direct > 0.0:
        return f"energy gap {gap.direct!r} <= 0"
    return None


def _finite_field(f):
    return None if np.all(np.isfinite(f.values)) else "non-finite field"


def _finite_number(x):
    return None if math.isfinite(x) else f"non-finite value {x!r}"


def _residual_gate(res):
    bulk = res.max_norm(r_min=0.05)
    return None if math.isfinite(bulk) else "non-finite residual"


# ---------------------------------------------------------------------------
# cli: the command-line tool, in process
# ---------------------------------------------------------------------------

def readme_commands(k_render: int, l_render: float, k_limit: int, l_limit: float, tiny: bool):
    """The eight README commands plus the two large ones, as (name, argv)."""
    n_big, m_big, density = (128, 64, 8) if tiny else (2048, 1024, 64)
    n_solve, n_sweep = (64, 64) if tiny else (512, 1024)
    return [
        ("solve", f"solve --a2 1 --c2 1 --b2 0 --L 0.01 --R 1 --k 1 --n {n_solve} -o {{d}}/run"),
        ("limit", f"limit --k 2 --n {n_solve} --m 256 -o {{d}}/lim"),
        ("residual", "residual --input {d}/run_profile.csv --L 0.01 --k 1 -o {d}/res"),
        ("render_rod", "render --branch minus --k 1 --n 256 --style rod -o {d}/img"),
        ("render_box", "render --input {d}/run_profile.csv --k 1 --L 0.01 --style box -o {d}/img2"),
        ("sweep_L", f"sweep --L-list 0.1,0.03,0.01,0.003 --k 1 --n {n_sweep} -o {{d}}/sweepL"),
        ("sweep_b2", "sweep --b2-list 0,0.05,0.1 --L 0.1 --k 1 -o {d}/sweepB"),
        ("energy", "energy --input {d}/run_profile.csv --L 0.01 --k 1"),
        (
            "render_d64",
            f"render --branch minus --k {k_render} --L {l_render!r} --n 256 "
            f"--density {density} -o {{d}}/d64",
        ),
        (
            "limit_big",
            f"limit --k {k_limit} --L {l_limit!r} --n {n_big} --m {m_big} -o {{d}}/big",
        ),
    ]


CLI_COMMANDS = (
    "solve", "limit", "residual", "render_rod", "render_box",
    "sweep_L", "sweep_b2", "energy", "render_d64", "limit_big",
)


def strict_json(text: str):
    """Parse JSON, rejecting the NaN/Infinity tokens Python would accept."""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    outdir: str
    prefix: str | None


def _cli_op(name: str, template: str):
    parts = template.split()
    prefix = None
    if "-o" in parts:
        prefix = os.path.basename(parts[parts.index("-o") + 1])

    def run(state):
        from qdefect import cli

        argv = [p.format(d=state["dir"]) for p in parts]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return CliResult(code, out.getvalue(), err.getvalue(), state["dir"], prefix)

    return Op(f"cli.{name}", run, _cli_gate, files=prefix)


def output_files(outdir: str, prefix: str | None):
    if prefix is None:
        return []
    return sorted(f for f in os.listdir(outdir) if f.startswith(prefix + "_"))


def _cli_gate(res: CliResult):
    if res.code != 0:
        return f"exit code {res.code}: {res.stderr.strip()[-200:]}"
    try:
        if res.stdout.lstrip().startswith("{"):
            strict_json(res.stdout)
        for fname in output_files(res.outdir, res.prefix):
            if fname.endswith(".json"):
                with open(os.path.join(res.outdir, fname), encoding="utf-8") as fh:
                    strict_json(fh.read())
    except ValueError as exc:
        return f"invalid JSON output: {exc}"
    if res.prefix is not None and not output_files(res.outdir, res.prefix):
        return "no output files"
    return None


def _cli(rng, tiny: bool) -> Workload:
    """One in-process pass over the README commands and the two large ones."""
    k_render = int(rng.choice((1, -1, 2, 3)))
    # even k keeps the uniaxial escape energy in every limit_big run
    k_limit = int(rng.choice((2, -2, 4)))
    cmds = readme_commands(
        k_render, log_uniform(rng, -4.0, -1.0), k_limit, log_uniform(rng, -4.0, -1.0), tiny
    )
    ops = [_cli_op(name, template) for name, template in cmds]
    nan_row = int(rng.integers(2, 60))
    probes = [
        _nan_probe("probe.solve_init_nan", nan_row, tiny,
                   "solve --init file --init-file {csv} --L 0.01 --k 1 --n {n} -o {d}/nanrun"),
        _nan_probe("probe.energy_nan", nan_row, tiny, "energy --input {csv} --L 0.01 --k 1"),
    ]
    return Workload("cli", ops, probes, compare_files=True)


PROBE_DEADLINE_S = 2.0


def _nan_probe(name: str, nan_row: int, tiny: bool, template: str):
    """A profile CSV with one ``nan``, run by the CLI in a child process.

    The CLI documents exit code 2 (``[E_IO]``/``[E_CONFIG]``) for bad
    input and 1 (``[E_NUMERIC]``) for a solve that does not converge.  A
    run passes if it ends within the deadline and either exits 0 with
    strict JSON, or exits 1 or 2 with an ``[E_`` tag on stderr and no
    traceback: an uncaught exception also exits 1, and does not pass.
    """

    def run(state):
        d = state["dir"]
        with open(os.path.join(d, "run_profile.csv"), encoding="ascii") as fh:
            lines = fh.read().splitlines()
        cols = lines[nan_row].split(",")
        cols[1] = "nan"
        lines[nan_row] = ",".join(cols)
        csv = os.path.join(d, "nan_profile.csv")
        with open(csv, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        argv = template.format(csv=csv, d=d, n=64 if tiny else 512).split()
        code = "import sys; from qdefect.cli import main; sys.exit(main(sys.argv[1:]))"
        try:
            proc = subprocess.run(
                [sys.executable, "-c", code, *argv],
                capture_output=True, text=True, timeout=PROBE_DEADLINE_S,
            )
        except subprocess.TimeoutExpired:
            return CliResult(-1, "", f"killed after the {PROBE_DEADLINE_S} s deadline", d, None)
        return CliResult(proc.returncode, proc.stdout, proc.stderr, d, None)

    def check(res: CliResult):
        if res.code < 0:
            return res.stderr
        if res.code in (1, 2):
            if "Traceback" in res.stderr or "[E_" not in res.stderr:
                return f"exit code {res.code} without a documented error: " \
                       f"{res.stderr.strip()[-200:]}"
            return None
        if res.code != 0:
            return f"exit code {res.code}"
        try:
            strict_json(res.stdout)
        except ValueError as exc:
            return f"exit 0 with invalid JSON: {exc}"
        return None

    return Op(name, run, check)
