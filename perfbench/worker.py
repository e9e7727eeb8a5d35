"""One workload in a fresh interpreter: set-up, timed passes, probes.

Started by ``run.py`` with BLAS/OpenMP threads pinned to 1 and the
checkout's ``src`` on ``PYTHONPATH``.  With ``--setup-only`` it imports,
generates the inputs, prints ``ready <perf_counter>`` and exits, so the
parent can time set-up from process start.  Otherwise it writes one JSON
document with its measurements to ``--result``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from speed import REF_S, SpeedProbe  # noqa: E402

MIN_PASSES = 3  # per-op medians need three passes to filter a slow one


def run_passes(wl, budget_s, min_passes, workdir, probe, tracer=None):
    """Repeat the op list until the next pass would overrun ``budget_s``.

    The speed probe runs between ops, and each op's time is reported at
    the reference host speed (see ``speed.py``).
    """
    passes = []
    t_start = time.perf_counter()
    while True:
        outdir = tempfile.mkdtemp(prefix=f"pass{len(passes)}_", dir=workdir)
        state = {"dir": outdir}
        spans, results = [], []
        probe.sample()
        for i, op in enumerate(wl.ops):
            if tracer is not None:
                tracer.op = i
                span = tracer.begin(f"op.{op.name}")
            t = time.perf_counter()
            results.append(op.run(state))
            spans.append((t, time.perf_counter()))
            if tracer is not None:
                tracer.end(span)
            probe.maybe_sample()
        probe.sample()
        if tracer is not None:
            tracer.enabled = False
        failures = [op.check(res) for op, res in zip(wl.ops, results)]
        if tracer is not None:
            tracer.enabled = True
        passes.append({"spans": spans, "fail": failures, "dir": outdir})
        elapsed = time.perf_counter() - t_start
        mean_pass = elapsed / len(passes)
        if len(passes) >= min_passes and elapsed + mean_pass > budget_s:
            break
    # scaled once every probe is in, so each op sees probes on both sides
    for p in passes:
        p["op_s"] = [(b - a) / probe.slowdown(a, b) for a, b in p.pop("spans")]
    return passes


def compare_outputs(wl, passes):
    """Mark an op failed in a later pass when its files differ from pass 0."""
    from workloads import output_files

    ref = passes[0]["dir"]
    for p in passes[1:]:
        for i, op in enumerate(wl.ops):
            names = output_files(ref, op.files)
            if names != output_files(p["dir"], op.files):
                p["fail"][i] = p["fail"][i] or "output file set differs between passes"
                continue
            for name in names:
                with open(os.path.join(ref, name), "rb") as fa, \
                        open(os.path.join(p["dir"], name), "rb") as fb:
                    if fa.read() != fb.read():
                        p["fail"][i] = p["fail"][i] or f"{name} differs between passes"
                        break


def output_bytes(directory):
    return sum(os.path.getsize(os.path.join(directory, f)) for f in os.listdir(directory))


def kernel_probe():
    """Median microseconds per reduced energy / gradient call at n = 512, 4096."""
    import qdefect as qd

    out = {}
    params = qd.ModelParams(a2=1.0, b2=0.0, c2=1.0, L=0.01, R=1.0, k=1)
    for n in (512, 4096):
        grid = qd.RadialGrid.uniform(1.0, n)
        prof = qd.explicit_profile(qd.Branch.MINUS, params, grid)
        for name, fn in (("energy", qd.reduced_energy), ("gradient", qd.reduced_gradient)):
            samples = []
            for _ in range(7):
                reps = 20
                t = time.perf_counter()
                for _ in range(reps):
                    fn(prof, params)
                samples.append((time.perf_counter() - t) / reps)
            out[f"{name}_us.n{n}"] = 1e6 * statistics.median(samples)
    return out


def run_probes(wl, last_dir):
    rows = []
    for op in wl.probes:
        t = time.perf_counter()
        res = op.run({"dir": last_dir})
        dt = time.perf_counter() - t
        rows.append({"name": op.name, "s": dt, "fail": op.check(res)})
    return rows


def summarize(wl, passes):
    return {
        "passes": len(passes),
        "op_s": [p["op_s"] for p in passes],
        "op_names": [op.name for op in wl.ops],
        "fail": [p["fail"] for p in passes],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t_import = time.perf_counter()
    importlib.import_module("qdefect.cli" if args.workload == "cli" else "qdefect")
    import workloads

    t_inputs = time.perf_counter()
    wl = workloads.build(args.workload, args.seed, args.scale)
    t_ready = time.perf_counter()
    if args.setup_only:
        print(f"ready {t_ready!r}", flush=True)
        return 0

    out = {"ready": t_ready, "import_s": t_inputs - t_import, "inputs_s": t_ready - t_inputs}
    probe = SpeedProbe()
    workdir = tempfile.mkdtemp(prefix="run_", dir=args.workdir)
    try:
        if args.trace:
            from tracing import Tracer, aggregate, count_children

            out["min_passes"] = 1
            half = args.seconds / 2.0
            groups = {"untraced": run_passes(wl, half, 1, workdir, probe)}
            tracer = Tracer()
            tracer.install()
            tracer.enabled = True
            groups["traced"] = run_passes(wl, half, 1, workdir, probe, tracer)
            tracer.enabled = False
            tracer.uninstall()
            out["spans"] = aggregate(tracer)
            out["phases"] = [vars(ph) for ph in tracer.phases]
            out["glyphs"] = count_children(tracer, "render.glyph_svg", "tensor.eigen3")
            out["svg_bytes"] = tracer.svg_bytes
            out["sample_bytes"] = tracer.sample_bytes
            out["output_bytes"] = output_bytes(groups["traced"][-1]["dir"])
        else:
            out["min_passes"] = MIN_PASSES
            groups = {"untraced": run_passes(wl, args.seconds, MIN_PASSES, workdir, probe)}
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        all_passes = [p for g in groups.values() for p in g]
        if wl.compare_files:
            compare_outputs(wl, all_passes)
        for key, g in groups.items():
            out[key] = summarize(wl, g)
        if args.trace:
            out["kernels"] = kernel_probe()
        out["probes"] = run_probes(wl, all_passes[-1]["dir"])
        out["host_slowdown"] = statistics.median(probe.durations) / REF_S
    finally:
        probe.close()
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
