"""tprop benchmark: one workload, timed or traced, from the repository root.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: order20-converge, pixel784, grid-t60 (see workloads.py). A timed
run (--trace 0) reports the end-to-end metrics; a traced run (--trace 1)
installs span wrappers around tprop's public functions and reports the
per-layer metrics and the tracing overhead. Both run the untimed
correctness gate first.

Every metric is printed by name with its unit and sample count, the
environment stamp goes to perfbench/out/, and the last line of standard
output is one JSON object: correct, attempted, failed, and the metrics
BENCHMARK.json lists for this mode. The library is
imported from ./src; without it the run exits with status 2 and no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("order20-converge", "pixel784", "grid-t60")


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child
    (set-up probes, grid workers), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def derived(res) -> dict:
    """The paper's headline ratio, with its base; reported, not gated."""
    tp, bp = res.metrics.get("ms_per_iter.tp"), res.metrics.get("ms_per_iter.bp")
    if tp is None or bp is None:
        return {}
    return {"tp_bp_ratio": {"value": tp.value / bp.value, "base": res.notes["ratio_base"],
                            "tp_ms": tp.value, "bp_ms": bp.value}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "tprop" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from a tprop checkout (needs src/tprop and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads(spec_path.read_text())

    import env
    import layers
    from tracing import SpanIndex, Tracer
    from workloads import WORKLOADS, Context, Metric

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    run_fn, tau = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    ctx = Context(args.seed, args.seconds, out, tracer)
    res = run_fn(ctx)

    if tracer is None:
        res.metrics["peak_rss_mb"] = Metric(peak_rss_mb(), "MB")
        listed = spec["end_to_end"]
    else:
        index = SpanIndex(tracer.spans)
        res.metrics.update(layers.layer_metrics(index, res, tau, ctx.untraced_tp_ms))
        if args.workload == "pixel784":
            res.metrics.update(layers.pixel_extras(index, tau, ctx.untraced_tp_ms))
        elif args.workload == "grid-t60":
            res.metrics.update(layers.grid_extras(index))
        tracer.write(out / f"spans-{args.workload}-seed{args.seed}.csv.gz")
        listed = spec["per_layer"]
    res.metrics["failed_frac"] = Metric(res.failed / max(res.attempted, 1), "fraction",
                                        res.attempted)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stamp = env.stamp(ROOT, args.seed)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": res.correct, "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: vars(v) for k, v in res.metrics.items()},
        "derived": derived(res),
        "checks": [vars(c) for c in res.checks],
        "notes": res.notes, "wall_ms": res.wall_ms, "stamp": stamp,
    }
    (out / f"result-{tag}.json").write_text(json.dumps(record, indent=1, default=str))

    print(f"# tprop benchmark {tag}")
    print(f"# python {stamp['python']}, numpy {stamp['numpy']}, scipy {stamp['scipy']}, "
          f"nproc {stamp['nproc']}, {stamp['cpu_model']}, src {stamp['src_sha256'][:12]}")
    print(f"# BLAS libraries: {', '.join(Path(p).name for p in stamp['blas_libraries_mapped'])}")
    print(f"# BLAS thread variables as found: {stamp['blas_thread_vars']}")
    for k in ("dataset_bytes", "llc_bytes", "diverged_cells"):
        if k in res.notes:
            print(f"# {k}: {res.notes[k]}")
    for c in res.checks:
        print(f"check {c.suite:15s} {c.name:32s} {'PASS' if c.passed else 'FAIL'} "
              f"measured={c.measured:.3g} bound={c.bound:.3g}")
    for name in sorted(res.metrics):
        print(f"metric {args.workload} {name} = {res.metrics[name].describe()}")
    for name, d in derived(res).items():
        print(f"derived {args.workload} {name} = {d['value']:.4g} "
              f"(tp {d['tp_ms']:.4g} ms / bp {d['bp_ms']:.4g} ms; {d['base']})")

    missing = [g["name"] for g in listed if g["name"] not in res.metrics
               or res.metrics[g["name"]].unit != g["unit"]]
    if missing:
        print(f"perfbench: missing or mis-united metrics {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {g["name"]: {"value": res.metrics[g["name"]].value, "unit": g["unit"]}
                    for g in listed},
    }))
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main())
