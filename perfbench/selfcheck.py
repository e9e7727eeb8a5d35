"""Self-check of the benchmark: tiny smoke runs and a private-name scan.

    python3 perfbench/selfcheck.py

Runs every workload at ``--scale tiny`` untraced and traced, and checks
that the last stdout line has the result keys and exactly the metrics
that ``BENCHMARK.json`` names.  Then scans the benchmark's own source for
any ``_``-prefixed qdefect name.  Exits 0 when everything holds.
"""

from __future__ import annotations

import ast
import importlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def smoke(spec) -> list:
    from workloads import WORKLOADS

    problems = []
    wanted = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    for w in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            tag = f"{w} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            missing = set(wanted[trace]) - set(result["metrics"])
            extra = set(result["metrics"]) - set(wanted[trace])
            if missing or extra:
                problems.append(f"{tag}: missing {sorted(missing)}, extra {sorted(extra)}")
            for name, m in result["metrics"].items():
                if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
                    problems.append(f"{tag}: {name} = {m['value']!r}")
            print(f"{tag}: ok={not problems} attempted={result['attempted']}", flush=True)
    return problems


def private_names() -> list:
    """Every ``_``-prefixed name the benchmark takes from qdefect."""
    import tracing

    problems = []
    for layer, names in tracing.TRACED.items():
        for name in names:
            mod = importlib.import_module(f"qdefect.{layer}")
            if name.startswith("_") or not callable(getattr(mod, name, None)):
                problems.append(f"tracing.TRACED: qdefect.{layer}.{name}")
    for mod in tracing.MODULES:
        if mod.startswith("_"):
            problems.append(f"tracing.MODULES: {mod}")
    for fname in sorted(os.listdir(HERE)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(HERE, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), fname)
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.split(".")[0] == "qdefect":
                        aliases.add(a.asname or "qdefect")
                        if any(part.startswith("_") for part in a.name.split(".")):
                            problems.append(f"{fname}:{node.lineno}: import {a.name}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qdefect"):
                parts = node.module.split(".") + [a.name for a in node.names]
                if any(p.startswith("_") for p in parts):
                    problems.append(f"{fname}:{node.lineno}: from {node.module} import ...")
                aliases.update(a.asname or a.name for a in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id in aliases:
                    problems.append(f"{fname}:{node.lineno}: .{node.attr}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = private_names() + smoke(spec)
    for p in problems:
        print("FAIL", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
