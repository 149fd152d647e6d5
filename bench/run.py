"""fetv benchmark: seeded protocol workloads, checked, timed end to end and,
in a separate traced pass, layer by layer.

    python3 bench/run.py --workload sb-denoise --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``sb-denoise``, ``cp-protocol`` and
``seminorm-cli``.  Run from any directory; the library is imported from
``src/`` next to this directory and nowhere else, so the command fails
when the sources are absent.

``--trace 0`` sets up the workload several times (at least nine times and
a quarter of a second in all), then repeats passes over its operations
while the run stays within ``--seconds`` (at least one pass).  No hooks
are installed in the program.  Set-up and operations are timed in CPU
seconds of this process, which leave out the time the host gives the CPU
to others, and are put on one scale by the machine-speed gauge
(``gauge.py``), which runs a small fixed job every 50 ms throughout and at
least three times per set-up or pass: each set-up and each pass is
divided by the mean gauge job run during and just after it and multiplied
by the gauge's nominal job time, and ``setup_s`` and ``run_norm_s`` are
the medians of these.  The raw wall and CPU times and the gauge jobs are
printed and recorded beside them.

``--trace 1`` runs one untraced pass, then one pass with spans recorded
around the public entry points of every layer (``spans.py``), then the
kernel timings (``kernels.py``).  It reports the per-layer metrics in wall
time: ``<name>_s`` is inclusive time, ``<name>.self_s`` is time minus
child spans, ``.calls`` counts calls.  ``trace.overhead_share`` is the
traced pass time over the untraced one, minus one.

Every operation's output is checked; a check that fails or an exception
counts the operation as failed and does not stop the run.  A defect of the
program that the benchmark runs on purpose (the shipped CP preset does not
converge) is printed as a known defect instead.  The report lists each
operation, the environment, every metric with its unit and the failed
share; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record is
also written to ``bench/out/``; ``record.py`` aggregates runs over seeds.
"""

from __future__ import annotations

import os

# One BLAS thread: the workloads are closed loops, and a single thread keeps
# run-to-run timing steady on a small shared machine.  Set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import kernels  # noqa: E402
import workloads  # noqa: E402
from gauge import Gauge  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
# set-up runs at least SETUP_REPEATS times and at least SETUP_MIN_S seconds
# in all, so that a set-up of milliseconds still gets a steady median
SETUP_REPEATS = 9
SETUP_MIN_S = 0.25

END_TO_END = [
    ("setup_s", "s"),
    ("run_norm_s", "s"),
    ("psnr_db", "dB"),
    ("peak_rss_mb", "MiB"),
]

# (metric, unit); derived from the traced pass by per_layer_metrics
PER_LAYER = [
    ("mesh.build_s", "s"),
    ("spaces.init_s", "s"),
    ("spaces.apply_mass.calls", "count"),
    ("spaces.apply_mass.self_s", "s"),
    ("spaces.apply_mass_inverse.calls", "count"),
    ("spaces.apply_mass_inverse.self_s", "s"),
    ("operators.lambda_apply.calls", "count"),
    ("operators.lambda_apply.self_s", "s"),
    ("operators.assemble_s", "s"),
    ("operators.divergence.calls", "count"),
    ("operators.divergence.self_s", "s"),
    ("operators.qsolver_init_s", "s"),
    ("operators.pcg.solves", "count"),
    ("operators.pcg.iters", "count"),
    ("operators.pcg.iters_per_solve", "ratio"),
    ("operators.pcg.self_s", "s"),
    ("operators.pcg.failed", "count"),
    ("dtv.project_feasible.calls", "count"),
    ("dtv.project_feasible.self_s", "s"),
    ("dtv.infeasibility.calls", "count"),
    ("dtv.infeasibility.self_s", "s"),
    ("dtv.dtv.self_s", "s"),
    ("dtv.tv_exact.self_s", "s"),
    ("solvers.iterations", "count"),
    ("solvers.ms_per_iter", "ms"),
    ("solvers.monitor.calls", "count"),
    ("solvers.monitor.self_s", "s"),
    ("solvers.monitor.share", "ratio"),
    ("solvers.regularizer.calls", "count"),
    ("solvers.prox.self_s", "s"),
    ("solvers.norm_estimate_s", "s"),
    ("metrics.add_noise_s", "s"),
    ("images.load_pgm_s", "s"),
    ("images.raster_to_dg_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.run_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace.overhead_share", "ratio"),
] + [(f"kernel.{k}.r{r}.us", "us")
     for k in kernels.KERNELS for r in kernels.DEGREES]

WORKLOADS = ("sb-denoise", "cp-protocol", "seminorm-cli")
LAYERS = ("mesh", "spaces", "operators", "dtv", "solvers", "metrics",
          "images", "cli")


class SourcesMissing(RuntimeError):
    pass


def load_program():
    """Import fetv from ``src/`` of this checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "fetv" / "__init__.py").is_file():
        raise SourcesMissing(f"no fetv sources under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("fetv")
    if Path(package.__file__).resolve().parent != (src / "fetv").resolve():
        raise SourcesMissing(f"fetv imported from {package.__file__}")
    # the package re-exports a function named dtv, so reach the modules
    # through the import system rather than as package attributes
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"fetv.{name}") for name in LAYERS})


def environment(seed):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "platform": platform.platform(),
    }


def make_workload(name, fv, seed, size, workdir):
    if name == "sb-denoise":
        return workloads.SbDenoise(fv, seed, size)
    if name == "cp-protocol":
        return workloads.CpProtocol(fv, seed, size, ROOT)
    return workloads.SeminormCli(fv, seed, size, workdir)


def run_pass(ops, cpu=time.process_time):
    """Run each operation once; an exception marks it failed.  Returns the
    results and each operation's wall and CPU seconds, the latter by the
    clock ``cpu``."""
    results, walls, cpus = [], [], []
    for op in ops:
        t0, c0 = time.perf_counter(), cpu()
        try:
            results.append((op.call(), None))
        except Exception as exc:  # the run goes on; the op counts as failed
            traceback.print_exc(file=sys.stderr)
            results.append((None, f"{type(exc).__name__}: {exc}"))
        cpus.append(cpu() - c0)
        walls.append(time.perf_counter() - t0)
    return results, walls, cpus


class Record:
    """Outcomes of every checked pass of one run."""

    def __init__(self):
        self.ops = []

    def add(self, label, ops, outcomes, walls, cpus):
        for op, outcome, seconds, cpu_s in zip(ops, outcomes, walls, cpus):
            self.ops.append({"pass": label, "op": op.name, "seconds": seconds,
                             "cpu_s": cpu_s, **dataclasses.asdict(outcome)})

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failed(self):
        return sum(not o["ok"] for o in self.ops)

    def mean_psnr(self):
        values = [o["psnr"] for o in self.ops if o["psnr"] is not None]
        return statistics.fmean(values) if values else 0.0


def measure_end_to_end(workload, seconds, record):
    gauge = Gauge()
    with gauge:
        setup_wall, setup_cpu, setup_norm = [], [], []
        ops = None
        while (len(setup_cpu) < SETUP_REPEATS
               or sum(setup_wall) < SETUP_MIN_S):
            # spaces and their operators reference each other, so only the
            # cycle collector frees an old set-up; collect before the next
            # one so that peak memory does not depend on when it runs
            ops = None
            gc.collect()
            first_job = len(gauge.jobs)
            t0, c0 = time.perf_counter(), gauge.cpu()
            ops = workload.setup()
            setup_cpu.append(gauge.cpu() - c0)
            setup_wall.append(time.perf_counter() - t0)
            setup_norm.append(gauge.correct(setup_cpu[-1], first_job))
        pass_wall, pass_cpu, pass_norm = [], [], []
        start = time.perf_counter()
        while True:
            first_job = len(gauge.jobs)
            results, walls, cpus = run_pass(ops, gauge.cpu)
            pass_norm.append(gauge.correct(sum(cpus), first_job))
            record.add(len(pass_cpu), ops, workload.check(ops, results),
                       walls, cpus)
            del results
            gc.collect()
            pass_wall.append(sum(walls))
            pass_cpu.append(sum(cpus))
            if (time.perf_counter() - start + statistics.median(pass_wall)
                    > seconds):
                break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setup_norm),
        "run_norm_s": statistics.median(pass_norm),
        "psnr_db": record.mean_psnr(),
        "peak_rss_mb": peak_kib / 1024.0,
    }
    samples = {"setup wall_s": setup_wall, "setup cpu_s": setup_cpu,
               "setup norm_s": setup_norm, "pass wall_s": pass_wall,
               "pass cpu_s": pass_cpu, "pass norm_s": pass_norm,
               "gauge job cpu_s": gauge.jobs}
    return values, samples


def measure_per_layer(workload, fv, seed, size, record, spans_path):
    ops = workload.setup()
    results, walls, cpus = run_pass(ops)
    untraced_s = sum(walls)
    record.add("untraced", ops, workload.check(ops, results), walls, cpus)
    ops = results = None
    gc.collect()

    tracer = Tracer()
    with tracer:
        ops = workload.setup()
        results, walls, cpus = run_pass(ops)
    traced_s = sum(walls)
    record.add("traced", ops, workload.check(ops, results), walls, cpus)
    del results
    iterations = sum(o["iterations"] for o in record.ops
                     if o["pass"] == "traced")
    tracer.write(spans_path)

    missing = list(tracer.missing)
    kernel_us = kernels.time_kernels(fv, seed, size or workloads.PROTOCOL_N,
                                     missing)
    values = per_layer_metrics(tracer, iterations, traced_s, untraced_s)
    values.update(kernel_us)
    return values, sorted(set(missing))


def per_layer_metrics(tracer, iterations, traced_s, untraced_s):
    summary = tracer.summary()

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    solves = get("operators.pcg", "calls")
    pcg_iters = max(tracer.counts["operators.precondition"] - solves, 0)
    values = {
        "mesh.build_s": get("mesh.build", "total_s"),
        "spaces.init_s": get("spaces.init", "total_s"),
        "operators.assemble_s": get("operators.assemble", "total_s"),
        "operators.qsolver_init_s": get("operators.qsolver_init", "total_s"),
        "operators.pcg.solves": solves,
        "operators.pcg.iters": pcg_iters,
        "operators.pcg.iters_per_solve": pcg_iters / solves if solves else 0.0,
        "operators.pcg.failed": tracer.errors["operators.pcg"],
        "dtv.dtv.self_s": get("dtv.dtv", "self_s"),
        "dtv.tv_exact.self_s": get("dtv.tv_exact", "self_s"),
        "solvers.iterations": iterations,
        "solvers.ms_per_iter": (1e3 * get("solvers.solve", "total_s")
                                / iterations if iterations else 0.0),
        "solvers.monitor.share": get("solvers.monitor", "total_s") / traced_s,
        "solvers.regularizer.calls": tracer.counts["solvers.regularizer"],
        "solvers.prox.self_s": get("solvers.prox", "self_s"),
        "solvers.norm_estimate_s": get("solvers.norm_estimate", "total_s"),
        "metrics.add_noise_s": get("metrics.add_noise", "total_s"),
        "images.load_pgm_s": get("images.load_pgm", "total_s"),
        "images.raster_to_dg_s": get("images.raster_to_dg", "total_s"),
        "cli.main.self_s": get("cli.main", "self_s"),
        "trace.run_s": traced_s,
        "trace.untraced_run_s": untraced_s,
        "trace.overhead_share": traced_s / untraced_s - 1.0,
    }
    for name in ("spaces.apply_mass", "spaces.apply_mass_inverse",
                 "operators.lambda_apply", "operators.divergence",
                 "operators.pcg", "dtv.project_feasible", "dtv.infeasibility",
                 "solvers.monitor"):
        values.setdefault(f"{name}.calls", get(name, "calls"))
        values.setdefault(f"{name}.self_s", get(name, "self_s"))
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=None,
                        help="mesh cells (and PGM pixels) per side; default "
                             "is the protocol size, 64")
    args = parser.parse_args(argv)

    try:
        fv = load_program()
    except (SourcesMissing, ImportError) as exc:
        print(f"bench: cannot load the program: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    env = environment(args.seed)
    print("env: " + json.dumps(env))
    record = Record()
    missing = []
    try:
        workload = make_workload(args.workload, fv, args.seed, args.size,
                                 workdir)
        if args.trace:
            values, missing = measure_per_layer(
                workload, fv, args.seed, args.size, record,
                OUT / f"{stem}-spans.json")
            table, samples = PER_LAYER, {}
        else:
            values, samples = measure_end_to_end(workload, args.seconds,
                                                 record)
            table = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in table}
    for op in record.ops:
        status = "ok" if op["ok"] else "FAILED: " + op["detail"]
        if op["known_defect"]:
            status += " (known defect: " + op["known_defect"] + ")"
        psnr = "" if op["psnr"] is None else f", PSNR {op['psnr']:.3f} dB"
        print(f"op [{op['pass']}] {op['op']}: {op['seconds']:.4f} s, "
              f"{op['iterations']} iterations{psnr}: {status}")
    for name, sample in samples.items():
        print(f"samples {name}: n={len(sample)}, min {min(sample):.4g}, "
              f"median {statistics.median(sample):.4g}, "
              f"max {max(sample):.4g}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    share = record.failed / record.attempted
    print(f"failed_share = {record.failed}/{record.attempted} = {share:.4g} "
          "ratio")
    if missing:
        print("missing hooks: " + ", ".join(missing))

    result = {"correct": record.failed == 0, "attempted": record.attempted,
              "failed": record.failed, "metrics": metrics}
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "trace": args.trace,
                   "seconds": args.seconds, "env": env, "samples": samples,
                   "failed_share": share, "missing_hooks": missing,
                   "ops": record.ops, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
