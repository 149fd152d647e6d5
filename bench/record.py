"""Run the benchmark over several seeds and write a BENCH_<label>.json with
the median, quartiles and spread of every metric, per workload.

    python3 bench/record.py --label 0_baseline --seeds 1-10 --trace-seeds 1 \\
        --out bench/results

``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json.

Runs are sequential, one process at a time.  The spread of a metric is
(Q3 - Q1) / median over the seeds, with the quartiles of
``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads(
    (HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    detail = HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    detail = json.loads(detail.read_text(encoding="utf-8"))
    result["ops"], result["env"] = detail["ops"], detail["env"]
    return result


def summarize(runs):
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0],) * 3)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"],
                     "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else None,
                     "values": values}
    return out


def summarize_ops(runs):
    """Per operation: seconds, iterations and PSNR over the runs, failures
    with their reasons, and known defects the checks report."""
    groups = {}
    for run in runs:
        for op in run["ops"]:
            groups.setdefault(op["op"], []).append(op)
    out = {}
    for name, ops in groups.items():
        psnr = [o["psnr"] for o in ops if o["psnr"] is not None]
        out[name] = {
            "count": len(ops),
            "failed": [o["detail"] for o in ops if not o["ok"]],
            "known_defects": [o["known_defect"] for o in ops
                              if o["known_defect"]],
            "seconds_median": statistics.median(o["seconds"] for o in ops),
            "iterations": sorted({o["iterations"] for o in ops}),
            "psnr_db": [min(psnr), statistics.median(psnr), max(psnr)]
            if psnr else None,
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--workloads",
                        default="sb-denoise,cp-protocol,seminorm-cli")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--trace-seeds", default=None,
                        help="seeds for --trace 1 runs (default: none)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--out", default=str(HERE / "out"))
    args = parser.parse_args(argv)

    report = {"label": args.label, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        entry = {}
        for trace, seeds in ((0, args.seeds), (1, args.trace_seeds)):
            if not seeds:
                continue
            runs = []
            for seed in seed_list(seeds):
                result = run_once(workload, seed, args.seconds, trace)
                print(f"{workload} seed={seed} trace={trace} "
                      f"wall={result['wall_s']:.1f}s "
                      f"attempted={result['attempted']} "
                      f"failed={result['failed']}", flush=True)
                runs.append(result)
                report.setdefault("env", result["env"])
            entry["end_to_end" if trace == 0 else "per_layer"] = {
                "seeds": seed_list(seeds),
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "wall_s": [r["wall_s"] for r in runs],
                "metrics": summarize(runs),
                "ops": summarize_ops(runs),
            }
        report["workloads"][workload] = entry
        e2e = entry.get("end_to_end")
        if e2e:
            print(f"  {workload} failed_share: {e2e['failed']}/"
                  f"{e2e['attempted']} ratio", flush=True)
        for kind in ("end_to_end", "per_layer"):
            for name, m in entry.get(kind, {}).get("metrics", {}).items():
                if kind == "end_to_end" or name.startswith("trace."):
                    spread = ("n/a" if m["spread"] is None
                              else f"{m['spread']:.4f}")
                    print(f"  {workload} {name}: median {m['median']:.6g} "
                          f"{m['unit']}, spread {spread}", flush=True)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"BENCH_{args.label}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
