"""qdefect benchmark: one workload per call, or all of them with ``--all``.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --all --seed 1 --out perfbench/baseline.json

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it holds the
per-layer metrics from a traced run.  Each workload runs in a fresh
single-process interpreter (``worker.py``) with BLAS/OpenMP threads
pinned to 1, next to a host-speed probe in an interpreter of its own
(``speed.py``); set-up time is the median over several fresh
interpreters, timed before and after the workload's passes.
The program is taken from ``src/`` of the checkout this file lives in.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from workloads import CLI_COMMANDS, WORKLOADS  # noqa: E402

SETUP_SAMPLES = (5, 4)  # fresh interpreters timed before / after the passes
RUN_DEADLINE_S = 170.0
TAIL_BEYOND = 10  # samples the tail percentile leaves above it
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def quantile(samples, p):
    """Harrell-Davis estimate of the ``p`` quantile.

    A weighted mean of the order statistics, with Beta((n+1)p, (n+1)(1-p))
    weights.  Unlike the nearest-rank sample it does not jump from one
    op's time to the next when the ops near the quantile trade places, so
    it reads the same workload more steadily from one run to the next.
    """
    from scipy.special import betainc

    xs = sorted(samples)
    n = len(xs)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    cdf = [float(betainc(a, b, i / n)) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))


def tail(samples, n_min):
    """The highest percentile with ten samples beyond it, and its value.

    The percentile is chosen for ``n_min`` samples, the fewest a run can
    have, so that it does not change with the number of passes.  At
    twenty samples or fewer it is the median.
    """
    pct = max(50.0, 100.0 * (n_min - TAIL_BEYOND) / n_min)
    return pct, quantile(samples, pct / 100.0)


def time_setup(args, env, workdir) -> float:
    """Process start to inputs ready, in a fresh interpreter."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--scale", args.scale, "--workdir", workdir]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0 or not proc.stdout.startswith("ready "):
        raise BenchError(f"set-up run failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[1]) - t0


def run_worker(args, env, workdir, deadline) -> dict:
    result = os.path.join(workdir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--workdir", workdir, "--result", result]
    # own process group, so a timeout also ends the worker's probe process
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(10.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("worker exceeded the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker failed: {err.strip()[-2000:]}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def import_times(args, env) -> dict:
    """Interpreter start and cumulative imports, from ``-X importtime``."""
    interp = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        interp.append(time.perf_counter() - t0)
    module = "qdefect.cli" if args.workload == "cli" else "qdefect"
    rows = {"numpy": [], "scipy": [], "qdefect": []}
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", f"import {module}"],
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        own = {"numpy": 0, "scipy": 0, "qdefect": 0}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:"):
                continue
            try:
                self_us, cum_us = int(parts[0].split(":")[1]), int(parts[1])
            except ValueError:
                continue  # the header line
            name = parts[2].strip()
            top = name.split(".")[0]
            if top in ("numpy", "scipy"):
                own[top] += self_us
            elif name == module:
                own["qdefect"] = cum_us  # the whole import statement
        for key in rows:
            rows[key].append(own[key] / 1e6)
    return {
        "setup.interpreter_s": statistics.median(interp),
        "setup.import_numpy_s": statistics.median(rows["numpy"]),
        "setup.import_scipy_s": statistics.median(rows["scipy"]),
        "setup.import_qdefect_s": statistics.median(rows["qdefect"]),
    }


def failures(summary, probes):
    """Timed failures, and the fail ratio over distinct inputs plus probes."""
    per_pass = summary["fail"]
    executed = sum(len(p) for p in per_pass)
    failed_exec = sum(1 for p in per_pass for f in p if f)
    distinct = len(summary["op_names"])
    failed_ops = sum(1 for i in range(distinct) if any(p[i] for p in per_pass))
    failed_probes = sum(1 for p in probes if p["fail"])
    attempted = distinct + len(probes)
    reasons = sorted({f for p in per_pass for f in p if f})
    reasons += [f"{p['name']}: {p['fail']}" for p in probes if p["fail"]]
    return {
        "executed": executed,
        "failed_exec": failed_exec,
        "fail_ratio": (failed_ops + failed_probes) / attempted,
        "fail_base": f"{failed_ops + failed_probes} failed of {attempted} inputs "
                     f"({distinct} timed ops, {len(probes)} known-defect probes)",
        "reasons": reasons,
    }


def op_medians(summary) -> list:
    """Each op's median time over the passes."""
    return [statistics.median(ts) for ts in zip(*summary["op_s"])]


def pass_time(summary) -> float:
    """One pass of the op list: the sum of each op's median over the passes."""
    return sum(op_medians(summary))


def end_to_end(summary, setup_s, peak_rss_mb, min_passes):
    """The end-to-end metrics of BENCHMARK.json, and how they were taken."""
    pooled = [t for ts in summary["op_s"] for t in ts]
    pct, tail_s = tail(pooled, min_passes * len(summary["op_names"]))
    metrics = {
        "setup_s": setup_s,
        "wall_s": pass_time(summary),
        # over op medians: cli's ten ops split into five fast and five slow,
        # and a median of the pooled times would be one op's extreme time
        "op_p50_ms": 1e3 * quantile(op_medians(summary), 0.5),
        "op_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": peak_rss_mb,
    }
    info = {"passes": summary["passes"], "ops": len(summary["op_names"]),
            "op_samples": len(pooled), "tail_pct": pct}
    return metrics, info


def per_layer(data, setup) -> dict:
    tr = data["traced"]
    passes = tr["passes"]
    spans = data["spans"]

    def tot(name):
        return spans.get(name, {}).get("total_s", 0.0) / passes

    def calls(name):
        return spans.get(name, {}).get("calls", 0) / passes

    ph = data["phases"]
    acc = sum(p["flow_accepted"] for p in ph)
    rej = sum(p["flow_rejected"] for p in ph)
    glyph_s = tot("render.glyph_svg")
    glyphs = data["glyphs"] / passes
    m = {
        "reduced.flow_phase_s": sum(p["flow_s"] for p in ph) / passes,
        "reduced.flow_accepted": acc / passes,
        "reduced.flow_rejected": rej / passes,
        "reduced.flow_accept_ratio": acc / (acc + rej) if acc + rej else 0.0,
        "reduced.newton_phase_s": sum(p["newton_s"] for p in ph) / passes,
        "reduced.newton_iters": sum(p["newton_iters"] for p in ph) / passes,
        "reduced.energy_calls": calls("reduced.reduced_energy"),
    }
    for key, val in data["kernels"].items():
        m[f"reduced.{key}"] = val
    m.update({
        "reduced.minimize_s": tot("reduced.minimize"),
        "reduced.minimize_calls": calls("reduced.minimize"),
        "reduced.nonconverged": sum(p["nonconverged"] for p in ph) / passes,
        "reduced.ode_residual_s": tot("reduced.ode_residual"),
        "field.random_perturbation_s": tot("field.random_perturbation"),
        "field.second_variation_s": tot("field.second_variation"),
        "field.energy_gap_s": tot("field.energy_gap"),
        "field.samples": calls("field.second_variation") + calls("field.energy_gap"),
        "field.bytes_per_sample": data["sample_bytes"],
        "field.lift_s": tot("field.lift"),
        "field.ldg_energy_2d_s": tot("field.ldg_energy_2d"),
        "field.ldg_energy_spectral_s": tot("field.ldg_energy_spectral"),
        "field.el_residual_2d_s": tot("field.el_residual_2d"),
        "harmonic.explicit_profile_s": tot("harmonic.explicit_profile"),
        "harmonic.dirichlet_energy_2d_s": tot("harmonic.dirichlet_energy_2d"),
        "harmonic.e0_energy_s": tot("harmonic.e0_energy"),
        "render.glyph_svg_s": glyph_s,
        "render.glyphs": glyphs,
        "render.us_per_glyph": 1e6 * glyph_s / glyphs if glyphs else 0.0,
        "render.eigenvalue_chart_svg_s": tot("render.eigenvalue_chart_svg"),
        "render.svg_bytes": data["svg_bytes"] / passes,
        "tensor.eigen3_calls": calls("tensor.eigen3"),
    })
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = tot(f"op.cli.{cmd}")
    m["cli.output_bytes"] = data["output_bytes"]
    m.update(setup)
    m["setup.inputs_s"] = data["inputs_s"]
    m["trace.overhead_s"] = pass_time(tr) - pass_time(data["untraced"])
    return m


def load_units() -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_one(args) -> dict:
    """Measure one workload; returns the metrics and the run's details."""
    if not os.path.isfile(os.path.join(SRC, "qdefect", "__init__.py")):
        raise BenchError(f"no qdefect package under {SRC}")
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = child_env()
    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}_", dir=base)
    try:
        before, after = (1, 1) if args.scale == "tiny" else SETUP_SAMPLES
        setups = [time_setup(args, env, workdir) for _ in range(before)]
        data = run_worker(args, env, workdir, deadline)
        setups += [time_setup(args, env, workdir) for _ in range(after)]
        imports = import_times(args, env) if args.trace else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    untraced = data["untraced"]
    fails = failures(untraced, data["probes"])
    e2e, info = end_to_end(untraced, statistics.median(setups), data["peak_rss_mb"],
                           data["min_passes"])
    info["host_slowdown"] = data["host_slowdown"]
    out = {"workload": args.workload, "seed": args.seed, "e2e": e2e, "info": info,
           "fails": fails, "setup_samples": setups, "probes": data["probes"]}
    executed, failed = fails["executed"], fails["failed_exec"]
    if args.trace:
        layer = per_layer(data, imports)
        layer["fail_ratio"] = fails["fail_ratio"]
        out["layer"] = layer
        out["spans"] = data["spans"]
        tf = failures(data["traced"], [])
        executed += tf["executed"]
        failed += tf["failed_exec"]
    out["attempted"], out["failed"] = executed, failed
    return out


def report_lines(out, trace: int, units: dict):
    w = out["workload"]
    info, fails = out["info"], out["fails"]
    yield (f"# {w} seed={out['seed']} passes={info['passes']} ops={info['ops']} "
           f"op_samples={info['op_samples']} tail=p{info['tail_pct']:.4g} "
           f"host_slowdown={info['host_slowdown']:.3f}")
    for name, val in out["e2e"].items():
        yield f"{w:9s} {name:12s} {val:12.6g} {units[name]}"
    yield f"{w:9s} {'fail_ratio':12s} {fails['fail_ratio']:12.6g} ratio  ({fails['fail_base']})"
    for reason in fails["reasons"]:
        yield f"{w:9s}   failed: {reason}"
    if trace:
        for name, val in out["layer"].items():
            yield f"{w:9s} {name:32s} {val:14.6g} {units[name]}"


def machine() -> dict:
    info = {"cpu": platform.processor() or platform.machine(), "nproc": os.cpu_count()}
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(cache_dir):
        for entry in sorted(os.listdir(cache_dir)):
            try:
                with open(os.path.join(cache_dir, entry, "level")) as fh:
                    level = fh.read().strip()
                with open(os.path.join(cache_dir, entry, "size")) as fh:
                    size = fh.read().strip()
            except OSError:
                continue
            if level in ("2", "3"):
                info[f"L{level}"] = size
    info["python"] = platform.python_version()
    for pkg in ("numpy", "scipy"):
        try:
            info[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            info[pkg] = None
    return info


def run_all(args, units) -> int:
    results = {"machine": machine(), "seed": args.seed, "seconds": args.seconds,
               "workloads": {}}
    for w in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            sub = argparse.Namespace(**{**vars(args), "workload": w, "trace": trace})
            out = run_one(sub)
            for line in report_lines(out, trace, units):
                print(line, flush=True)
            key = "traced" if trace else "untraced"
            entry[key] = {
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in out["e2e"].items()},
                "run": out["info"],
                "fail_ratio": {"value": out["fails"]["fail_ratio"],
                               "base": out["fails"]["fail_base"]},
                "failures": out["fails"]["reasons"],
            }
            if trace:
                layer = out["layer"]
                entry[key]["per_layer"] = {n: {"value": v, "unit": units[n]}
                                           for n, v in layer.items()}
                acc, rej = layer["reduced.flow_accepted"], layer["reduced.flow_rejected"]
                entry[key]["ratio_bases"] = {
                    "reduced.flow_accept_ratio": f"{acc:g} accepted of {acc + rej:g} "
                                                 "attempted flow steps per pass",
                    "fail_ratio": out["fails"]["fail_base"],
                }
                entry[key]["spans"] = out["spans"]
        results["workloads"][w] = entry
    out_path = args.out or os.path.join(ROOT, ".perfbench_out", "results.json")
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=False)
        fh.write("\n")
    print(f"wrote {out_path}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs for the self-check")
    ap.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    ap.add_argument("--out", help="--all: where to write the results JSON")
    args = ap.parse_args(argv)
    try:
        units = load_units()
        if args.all:
            return run_all(args, units)
        if not args.workload:
            ap.error("--workload is required without --all")
        out = run_one(args)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for line in report_lines(out, args.trace, units):
        print(line)
    values = out["layer"] if args.trace else out["e2e"]
    metrics = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
    print(json.dumps({"correct": out["failed"] == 0, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
