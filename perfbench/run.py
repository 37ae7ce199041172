"""rolechain benchmark: one command for every workload, timed or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a rolechain checkout; the program is imported from
``src/``. Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``). See README.md for definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("check_read", "node_mixed", "sim_clean", "sim_faults")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def prepare(args, work: Path):
    """Node workloads: the inputs and the pristine data dir every spawn copies."""
    from perfbench import node

    if args.workload.startswith("sim_"):
        return None
    inputs = node.Inputs(args.seed, args.workload, args.seconds)
    pristine = work / "data"
    node.write_data_dir(inputs, pristine)
    return inputs, pristine


def measure(args, prepared, work: Path, traced: bool, spawns: int):
    """One phase of the workload; a traced phase also returns (window spans, all spans, counts)."""
    from perfbench import node, sim
    from perfbench.trace import Spans, Tracer

    if prepared is None:
        if not traced:
            return sim.run_phase(args.seed, args.workload, args.seconds), None
        tracer = Tracer().install()
        tracer.enabled = False
        try:
            outcome = sim.run_phase(args.seed, args.workload, args.seconds, tracer)
        finally:
            tracer.uninstall()
        spans = Spans.of(tracer)
        return outcome, (spans, spans, outcome.layer)

    inputs, pristine = prepared
    outcome = node.run_phase(ROOT, work, pristine, inputs, args.workload, args.seconds, spawns, traced)
    if not traced:
        return outcome, None
    window, everything, counters = node.traced_layers(outcome)
    info = dict(outcome.layer)
    info.update(messages=counters["messages"], ticks=counters["pump_ticks"],
                commit_ticks=counters["commit_ticks"])
    return outcome, (window, everything, info)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "rolechain" / "__init__.py").is_file():
        print(f"error: no rolechain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import cryptography

    from perfbench import layers, node
    from perfbench.report import BenchError

    print(f"environment: Python {platform.python_version()}, cryptography "
          f"{cryptography.__version__}, {os.cpu_count()} CPUs; workload {args.workload}, "
          f"seed {args.seed}, {args.seconds:g} s")

    work_root = ROOT / "perfbench" / "_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        prepared = prepare(args, work)
        if args.trace == 0:
            outcome, _ = measure(args, prepared, work, False, node.SETUP_SPAWNS)
            outcome.print_human("")
            phases = [outcome]
            metrics = {name: {"value": v, "unit": u} for name, (v, u, _) in outcome.e2e().items()}
        else:
            # An untraced and a traced phase of the full length, one set-up
            # each; their difference is the tracing overhead.
            plain, _ = measure(args, prepared, work, False, 1)
            traced, (window, everything, info) = measure(args, prepared, work, True, 1)
            plain.print_human(" untraced")
            traced.print_human(" traced")
            values = layers.compute(window, everything, info, traced.e2e(), plain.e2e())
            print(f"[{args.workload}] per-layer metrics (traced phase):")
            metrics = {}
            for name, unit, _ in layers.PER_LAYER:
                print(f"  {name:<32} {values[name]:14.4f} {unit}")
                metrics[name] = {"value": values[name], "unit": unit}
            phases = [plain, traced]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": all(p.correct for p in phases),
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
