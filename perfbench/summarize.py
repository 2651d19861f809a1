"""Summarize benchmark result records across runs.

    python3 perfbench/summarize.py [perfbench/out] > summary.json

Groups perfbench/out/result-*.json by workload and mode (timed or traced)
and gives, for every metric, the median over runs, the quartile spread as a
share of that median, and the seeds behind it; the derived tp/bp ratio is
summarized with its base. This is how baseline.json was produced.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def summarize(records: list[dict]) -> dict:
    out: dict = {}
    for rec in sorted(records, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        mode = "traced" if rec["trace"] else "timed"
        group = out.setdefault(rec["workload"], {}).setdefault(mode, {
            "seeds": [], "correct": True, "attempted": 0, "failed": 0, "metrics": {},
            "stamp": {k: rec["stamp"][k] for k in
                      ("python", "numpy", "scipy", "nproc", "cpu_model", "llc_bytes",
                       "blas_thread_vars", "src_sha256", "git_rev")},
        })
        group["seeds"].append(rec["seed"])
        group["correct"] = group["correct"] and rec["correct"]
        group["attempted"] += rec["attempted"]
        group["failed"] += rec["failed"]
        for name, m in rec["metrics"].items():
            group["metrics"].setdefault(name, {"unit": m["unit"], "values": []})["values"].append(
                m["value"])
        for name, d in rec.get("derived", {}).items():
            group["metrics"].setdefault(name, {"unit": "ratio", "base": d["base"],
                                               "values": []})["values"].append(d["value"])
    for wl in out.values():
        for group in wl.values():
            for m in group["metrics"].values():
                xs = m.pop("values")
                med = statistics.median(xs)
                m["median"] = med
                m["runs"] = len(xs)
                if len(xs) >= 2 and med:
                    q = statistics.quantiles(xs, n=4)
                    m["spread"] = (q[2] - q[0]) / abs(med)
    return out


def main(argv) -> int:
    folder = Path(argv[0]) if argv else Path(__file__).resolve().parent / "out"
    records = [json.loads(p.read_text()) for p in sorted(folder.glob("result-*.json"))]
    if not records:
        print(f"no result records in {folder}", file=sys.stderr)
        return 1
    json.dump(summarize(records), sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
