"""Command-line front end: denoising, inpainting, seminorm evaluation, mesh
generation and noise utilities.

Exit codes: 0 success/converged, 1 usage or I/O error, 2 solver did not
converge (outputs are still written so runs stay auditable) or its inner
linear solve stalled (nothing is written).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import images, mesh as mesh_mod, metrics
from .dtv import dtv, tv_exact
from .operators import DgFunction, InnerSolveError
from .solvers import (ALGORITHMS, DEFAULT_SCALE, ProblemSpec, SolverParams,
                      solve)
from .spaces import SUPPORTED_DEGREES, FeSpace

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(f"{self.prog}: error: {message}")


def _solver_arguments(sub):
    sub.add_argument("--algorithm", default="split-bregman",
                     choices=sorted(ALGORITHMS))
    sub.add_argument("--degree", type=int, default=0,
                     choices=SUPPORTED_DEGREES)
    sub.add_argument("--s", type=int, default=ProblemSpec.s, choices=(1, 2),
                     help="anisotropy exponent of the TV integrand")
    sub.add_argument("--beta", type=float, default=ProblemSpec.beta)
    sub.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="augmented Lagrangian weight (split Bregman / ADMM; "
                          "split Bregman starts from it and balances it on "
                          "the residuals)")
    sub.add_argument("--sigma-step", dest="sigma", type=float, default=None,
                     help="primal step of the Chambolle-Pock iterations")
    sub.add_argument("--tau", type=float, default=None,
                     help="dual step size (default: 0.9 / (sigma * L))")
    sub.add_argument("--theta", type=float, default=SolverParams.theta)
    sub.add_argument("--scale", type=float, default=None,
                     help="Y scaling parameter (default by degree: %s)"
                          % ", ".join(f"{r} -> {v:g}"
                                      for r, v in DEFAULT_SCALE.items()))
    sub.add_argument("--huber-eps", type=float, default=ProblemSpec.huber_eps)
    sub.add_argument("--tol-rel", type=float, default=SolverParams.eps_rel)
    sub.add_argument("--max-iter", type=int, default=SolverParams.max_iter)
    sub.add_argument("--noise-sigma", type=float, default=0.0,
                     help="add Gaussian noise to the ingested coefficients")
    sub.add_argument("--seed", type=int, default=metrics.NoiseSpec.seed)
    sub.add_argument("--preset", default=None,
                     help="JSON file with default option values")
    sub.add_argument("--input", required=True)
    sub.add_argument("--output", default=None, help="output PGM path")
    sub.add_argument("--report", default=None, help="report JSON path")


def build_parser():
    parser = _Parser(prog="fetv", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("denoise", help="TV denoising of a PGM image")
    _solver_arguments(p)
    p.set_defaults(run=functools.partial(_cmd_solver, inpaint=False))

    p = subs.add_parser("inpaint", help="TV inpainting (and denoising)")
    _solver_arguments(p)
    p.add_argument("--mask", required=True,
                   help="cell-index text file or PGM (dark pixels masked)")
    p.set_defaults(run=functools.partial(_cmd_solver, inpaint=True))

    p = subs.add_parser("dtv", help="print dtv, exact tv and their difference")
    p.add_argument("--input", default=None, help="PGM image input")
    p.add_argument("--mesh", default=None, help="mesh file input")
    p.add_argument("--coeffs", default=None,
                   help="coefficient file (one value per line)")
    p.add_argument("--degree", type=int, default=0, choices=SUPPORTED_DEGREES)
    p.add_argument("--s", type=int, default=ProblemSpec.s, choices=(1, 2))
    p.set_defaults(run=_cmd_dtv)

    p = subs.add_parser("make-mesh", help="generate a crossed-diagonal mesh")
    p.add_argument("nx", type=int)
    p.add_argument("ny", type=int)
    p.add_argument("--width", type=float, default=None,
                   help="domain width (default: 1)")
    p.add_argument("--height", type=float, default=None,
                   help="domain height (default: width * ny / nx)")
    p.add_argument("--output", required=True)
    p.set_defaults(run=_cmd_make_mesh)

    p = subs.add_parser("add-noise", help="add Gaussian noise to a PGM image")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--sigma", type=float, default=metrics.NoiseSpec.sigma)
    p.add_argument("--seed", type=int, default=metrics.NoiseSpec.seed)
    p.set_defaults(run=_cmd_add_noise)
    return parser


def _apply_preset(argv, parser):
    """Load --preset JSON as defaults; explicit flags still win.  The preset
    is an object whose keys are long flag names ("lambda", "sigma-step";
    "_" may stand for "-"); each subcommand takes the keys it defines, and
    a key that no subcommand taking --preset defines is an error."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--preset", default=None)
    known, _ = probe.parse_known_args(argv[1:])
    if not known.preset:
        return
    with open(known.preset, "r", encoding="utf-8") as fh:
        preset = json.load(fh)
    if not isinstance(preset, dict):
        raise ValueError(f"preset {known.preset} is not a JSON object")
    preset = {key.replace("_", "-"): value for key, value in preset.items()}
    subs = parser._subparsers._group_actions[0].choices.values()
    subs = [sub for sub in subs if "--preset" in sub._option_string_actions]
    flags = [{opt[2:]: a.dest for a in sub._actions
              for opt in a.option_strings if opt.startswith("--")}
             for sub in subs]
    unknown = [key for key in preset if not any(key in f for f in flags)]
    if unknown:
        raise ValueError(f"preset {known.preset}: unknown option "
                         f"{', '.join(map(repr, unknown))}")
    null = [key for key, value in preset.items() if value is None]
    if null:
        raise ValueError(f"preset {known.preset}: null value for "
                         f"{', '.join(map(repr, null))}")
    # as strings, which argparse passes through each option's type, so a
    # value of the wrong type is a usage error like a bad flag
    for sub, dests in zip(subs, flags):
        sub.set_defaults(**{dests[key]: str(value)
                            for key, value in preset.items() if key in dests})


def _cmd_solver(args, inpaint):
    noise = metrics.NoiseSpec(sigma=args.noise_sigma, seed=args.seed)
    raster = images.load_pgm(args.input)
    mesh, clean = images.raster_to_dg(raster, args.degree)
    space = clean.space
    f = metrics.add_noise(clean, noise)

    masked = None
    if inpaint:
        masked = images.load_mask(args.mask, mesh)
    omega0 = None if masked is None else ~masked

    prob = ProblemSpec(mesh=mesh, degree=args.degree, f=f.coeffs,
                       omega0=omega0, beta=args.beta, s=args.s,
                       huber_eps=args.huber_eps)
    params = SolverParams(lam=args.lam, sigma=args.sigma, tau=args.tau,
                          theta=args.theta, scale=args.scale,
                          eps_rel=args.tol_rel, max_iter=args.max_iter)
    try:
        u, p, report = solve(prob, args.algorithm, params=params, space=space,
                             reference=clean)
    except InnerSolveError as exc:
        _write_report(args.report, exc.report)
        raise

    if inpaint:
        baseline = f.copy()
        baseline.coeffs = np.where(np.repeat(omega0, space.dofs.n_cell_basis),
                                   baseline.coeffs, 0.0)
        report.extras["psnr_baseline"] = metrics.psnr(baseline, clean)
        report.extras["masked_cells"] = int(masked.sum())

    if args.output:
        out = images.dg_to_raster(u, raster.width, raster.height)
        images.save_pgm(out, args.output)
    _write_report(args.report, report)
    print(f"algorithm={report.algorithm}")
    print(f"iterations={report.iterations}")
    if "lam_final" in report.extras:
        print(f"lambda={report.extras['lam_final']:.10g}")
    print(f"converged={str(report.converged).lower()}")
    print(f"stop_reason={report.stop_reason}")
    print(f"objective={report.objective:.10g}")
    if report.psnr is not None:
        print(f"psnr={report.psnr:.4f}")
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def _write_report(path, report):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())


def _cmd_dtv(args):
    if args.input and not (args.mesh or args.coeffs):
        _, u = images.raster_to_dg(images.load_pgm(args.input), args.degree)
    elif args.mesh and args.coeffs and not args.input:
        mesh = mesh_mod.load_mesh(args.mesh)
        space = FeSpace(mesh, args.degree)
        coeffs = np.loadtxt(args.coeffs, dtype=float).ravel()
        if not np.isfinite(coeffs).all():
            raise ValueError("coefficients hold NaN or infinite values")
        u = DgFunction(space, coeffs)
    else:
        raise ValueError("dtv needs --input alone, or --mesh with --coeffs")
    value = dtv(u, args.s)
    exact = tv_exact(u, args.s)
    print(f"dtv={value:.12g}")
    print(f"tv_exact={exact:.12g}")
    print(f"difference={value - exact:.12g}")
    return EXIT_OK


def _cmd_make_mesh(args):
    width = args.width if args.width is not None else 1.0
    height = args.height
    if height is None:      # nx < 1 is the mesh builder's error, not 1/0
        height = width * args.ny / args.nx if args.nx else width
    m = mesh_mod.build_crossed_mesh(args.nx, args.ny, width, height)
    mesh_mod.save_mesh(m, args.output)
    print(f"cells={m.num_cells}")
    print(f"vertices={m.num_vertices}")
    print(f"interior_edges={m.num_interior_edges}")
    return EXIT_OK


def _cmd_add_noise(args):
    noise = metrics.NoiseSpec(sigma=args.sigma, seed=args.seed)
    raster = images.load_pgm(args.input)
    noisy = metrics.add_noise(raster.values, noise)
    images.save_pgm(images.Raster(raster.width, raster.height,
                                  np.clip(noisy, 0.0, 1.0)), args.output)
    return EXIT_OK


def main(argv=None):
    argv = list(sys.argv if argv is None else ["fetv", *argv])
    parser = build_parser()
    try:
        _apply_preset(argv, parser)
        args = parser.parse_args(argv[1:])
        return args.run(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"fetv: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except InnerSolveError as exc:
        print(f"fetv: error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
