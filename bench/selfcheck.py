"""Tiny-size self-check of the benchmark (not part of the test suite).

    python3 bench/selfcheck.py

Runs every workload end to end on a 4x4 mesh, with and without tracing,
and asserts that each emits exactly the metrics BENCHMARK.json lists, with
the same units, and that the result line has the agreed shape.  Then runs
the benchmark from a copy that holds only BENCHMARK.json and bench/, where
it must fail without printing a result.  The protocol's quality checks do
not hold at this size, so failed operations are expected here.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sb-denoise", "cp-protocol", "seminorm-cli")


def run(bench_dir, workload, trace, cwd):
    cmd = [sys.executable, str(bench_dir / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--size", "4"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=300, check=False)


def expect(condition, message):
    if not condition:
        raise SystemExit(f"selfcheck: {message}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads differ from the benchmark's")
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run(HERE, workload, trace, ROOT)
            expect(proc.returncode == 0,
                   f"{workload} trace={trace} exited {proc.returncode}:\n"
                   + proc.stderr[-2000:])
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, "result keys")
            expect(result["attempted"] >= 1, "nothing attempted")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted[trace],
                   f"{workload} trace={trace} metrics differ: "
                   f"{sorted(set(got) ^ set(wanted[trace]))}")
            expect(all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()), "non-numeric")
            print(f"ok {workload} trace={trace}: {len(got)} metrics, "
                  f"{result['failed']}/{result['attempted']} failed")

    bare = HERE / "out" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare / "bench", WORKLOADS[0], 0, bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "the benchmark ran without the program's sources")
        print("ok refuses to run without src/")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
