"""The benchmark's three workloads: seeded inputs, timed operations and
per-operation correctness checks.

Each workload is a closed loop: one process, one operation at a time.  A
workload object builds its inputs from the seed alone; ``setup`` turns them
into program objects (the part timed as ``setup_s``) and returns the list
of operations, and ``check`` judges one pass of results.  Operations call
the library through module attributes at call time, so the traced pass
sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PROTOCOL_N = 64          # criterion 7: 64x64 crossed mesh
PGM_SIDE = 64            # one mesh square per pixel: the protocol mesh
NOISE_SIGMA = 0.1
BETA = 1e-3
GAP_EPS_REL = 1e-3       # SolverParams.eps_rel default, the stopping rule
INFEAS_CAP = 1e-11
PRESET = "denoise_ball_cp_dg1"
PRESET_MAX_ITER = 600
DTV_ACROSS_R_RTOL = 1e-11   # the CLI prints 12 significant digits
DTV_EXACT_RTOL = 1e-9


def smooth_disc(pts, center=(0.5, 0.5), radius=0.3, band=0.15):
    """Disc with a smoothstep edge (the protocol's ball image)."""
    d = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
    t = np.clip((radius + band / 2 - d) / band, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def sharp_disc(pts, center=(0.5, 0.5), radius=0.3):
    d = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
    return (d <= radius).astype(float)


def derived_seeds(seed, stream, count):
    """Independent 31-bit seeds for the program's own generators."""
    rng = np.random.default_rng([seed, stream])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


@dataclass
class Op:
    """One timed operation: ``call`` returns what ``check`` judges."""
    name: str
    call: object
    context: dict = field(default_factory=dict)


@dataclass
class Outcome:
    ok: bool
    detail: str = "ok"
    psnr: float = None
    iterations: int = 0
    known_defect: str = None


def _failure(error):
    return Outcome(False, f"raised {error}")


class _SolverWorkload:
    """Shared checks for the TV-L2 solver workloads."""

    def __init__(self, fv, seed, size):
        self.fv = fv
        self.seed = seed
        self.n = size or PROTOCOL_N

    def _solve_op(self, name, solver, prob, params, space, clean, base,
                  gain):
        fv = self.fv

        def call():
            return getattr(fv.solvers, solver)(prob, params, space=space,
                                               reference=clean)

        return Op(name, call, {"prob": prob, "space": space, "clean": clean,
                               "base": base, "gain": gain})

    def _check_solve(self, op, result):
        """Converged, PSNR gain over the noisy input, and the gap and
        infeasibility recomputed from the returned (u, p)."""
        fv = self.fv
        c = op.context
        u, p, report = result
        prob, space = c["prob"], c["space"]
        psnr = fv.metrics.psnr(u, c["clean"])
        problems = []
        if not report.converged:
            problems.append(f"not converged after {report.iterations} "
                            "iterations")
        if not psnr >= c["base"] + c["gain"]:
            problems.append(f"PSNR {psnr:.2f} dB < input {c['base']:.2f} dB "
                            f"+ {c['gain']:g}")
        f = fv.operators.DgFunction(space, prob.f)
        gap0 = fv.solvers.gap(f, space.new_y(), prob)
        gap = fv.solvers.gap(u, p, prob)
        f_norm_sq = space.l2_norm_sq(prob.f, mask=prob.omega0)
        tol = max(GAP_EPS_REL * abs(gap0), 1e-13 * (1.0 + f_norm_sq))
        if not abs(gap) <= tol:
            problems.append(f"gap {gap:.3e} > tolerance {tol:.3e}")
        cs = fv.dtv.ConstraintSetSpec(space, beta=prob.beta, s=prob.s,
                                      scale=report.params["scale"])
        rho = fv.dtv.infeasibility(p, cs)
        if not rho <= INFEAS_CAP:
            problems.append(f"infeasibility {rho:.3e} > {INFEAS_CAP:g}")
        return Outcome(not problems, "; ".join(problems) or "ok", psnr,
                       report.iterations), gap

    def _inputs(self, space, noise_seed, sigma=NOISE_SIGMA):
        fv = self.fv
        clean = fv.operators.DgFunction(space, space.interpolate(smooth_disc))
        noisy = fv.metrics.add_noise(clean, fv.metrics.NoiseSpec(
            sigma=sigma, seed=noise_seed))
        return clean, noisy


class SbDenoise(_SolverWorkload):
    """Criterion 7a: split Bregman TV-L2 denoising, r = 0, 1, 2."""

    name = "sb-denoise"
    degrees = (0, 1, 2)

    def setup(self):
        fv = self.fv
        mesh = fv.mesh.build_crossed_mesh(self.n, self.n, 1.0, 1.0)
        seeds = derived_seeds(self.seed, 1, len(self.degrees))
        ops = []
        for r, noise_seed in zip(self.degrees, seeds):
            space = fv.spaces.FeSpace(mesh, r)
            clean, noisy = self._inputs(space, noise_seed)
            prob = fv.solvers.ProblemSpec(mesh=mesh, degree=r,
                                          f=noisy.coeffs, beta=BETA)
            params = fv.solvers.SolverParams(lam=1e-3, max_iter=2000)
            ops.append(self._solve_op(f"sb-denoise r={r}", "split_bregman_l2",
                                      prob, params, space, clean,
                                      fv.metrics.psnr(noisy, clean), 8.0))
        return ops

    def check(self, ops, results):
        out = []
        for op, (value, error) in zip(ops, results):
            out.append(_failure(error) if error
                       else self._check_solve(op, value)[0])
        return out


class CpProtocol(_SolverWorkload):
    """Criterion 7b (Chambolle-Pock inpainting, r = 0 and 1) plus one run
    of the shipped ``denoise_ball_cp_dg1`` preset under an iteration cap."""

    name = "cp-protocol"
    inpaint = ((0, 0.70), (1, 0.50))     # (degree, primal step sigma)

    def __init__(self, fv, seed, size, root):
        super().__init__(fv, seed, size)
        self.preset_path = Path(root) / "presets" / f"{PRESET}.json"

    def setup(self):
        fv = self.fv
        mesh = fv.mesh.build_crossed_mesh(self.n, self.n, 1.0, 1.0)
        rng = np.random.default_rng([self.seed, 2])
        omega0 = ~(rng.random(mesh.num_cells) < 2.0 / 3.0)
        seeds = derived_seeds(self.seed, 3, len(self.inpaint) + 1)
        ops = []
        for (r, sigma), noise_seed in zip(self.inpaint, seeds):
            space = fv.spaces.FeSpace(mesh, r)
            clean, noisy = self._inputs(space, noise_seed)
            f = np.where(np.repeat(omega0, space.dofs.n_cell_basis),
                         noisy.coeffs, 0.0)
            base = fv.metrics.psnr(fv.operators.DgFunction(space, f), clean)
            norm_sq = fv.solvers.estimate_operator_norm_sq(space, scale=1e-2)
            prob = fv.solvers.ProblemSpec(mesh=mesh, degree=r, f=f,
                                          omega0=omega0, beta=BETA)
            params = fv.solvers.SolverParams(
                sigma=sigma, tau=0.9 / (sigma * norm_sq), theta=1.0,
                scale=1e-2, max_iter=12000)
            ops.append(self._solve_op(f"cp-inpaint r={r}", "chambolle_pock_l2",
                                      prob, params, space, clean, base, 5.0))

        with open(self.preset_path, encoding="utf-8") as fh:
            preset = json.load(fh)
        r = preset["degree"]
        space = fv.spaces.FeSpace(mesh, r)
        clean, noisy = self._inputs(space, seeds[-1],
                                    sigma=preset["noise-sigma"])
        prob = fv.solvers.ProblemSpec(mesh=mesh, degree=r, f=noisy.coeffs,
                                      beta=preset["beta"], s=preset["s"])
        params = fv.solvers.SolverParams(
            sigma=preset["sigma-step"], tau=preset["tau"],
            theta=preset["theta"], scale=preset["scale"],
            max_iter=PRESET_MAX_ITER)
        op = self._solve_op(f"preset {PRESET}", "chambolle_pock_l2", prob,
                            params, space, clean,
                            fv.metrics.psnr(noisy, clean), 8.0)
        op.context["preset"] = True
        ops.append(op)
        return ops

    def check(self, ops, results):
        out = []
        inpaint_psnr = {}
        for op, (value, error) in zip(ops, results):
            if error:
                out.append(_failure(error))
                continue
            outcome, gap = self._check_solve(op, value)
            report = value[2]
            if op.context.get("preset"):
                if not report.converged:
                    # The shipped CP steps break sigma*tau*L <= 1, so this
                    # run stalls: a known defect of the program, reported
                    # as such rather than as a failed operation.
                    outcome = Outcome(
                        True, "ok", outcome.psnr, report.iterations,
                        known_defect=f"did not converge in "
                                     f"{report.iterations} iterations "
                                     f"(gap {gap:.3g})")
            else:
                degree = op.context["prob"].degree
                inpaint_psnr[degree] = outcome.psnr
                if (degree == 1 and outcome.ok and not outcome.psnr
                        >= inpaint_psnr.get(0, -math.inf) + 1.0):
                    outcome.ok = False
                    outcome.detail = "r=1 PSNR not 1 dB above r=0"
            out.append(outcome)
        return out


class SeminormCli:
    """In-process CLI: ``fetv add-noise`` then ``fetv dtv --degree r`` for
    r = 0, 1, 2 on a generated PGM of the sharp disc."""

    name = "seminorm-cli"
    degrees = (0, 1, 2)

    def __init__(self, fv, seed, size, workdir):
        self.fv = fv
        self.seed = seed
        self.side = size or PGM_SIDE
        self.workdir = Path(workdir)
        rng = np.random.default_rng([self.seed, 5])
        self.center = tuple(0.5 + rng.uniform(-0.05, 0.05, size=2))
        self.radius = float(rng.uniform(0.25, 0.35))
        self.noise_seed = derived_seeds(self.seed, 6, 1)[0]
        self.clean_pgm = self.workdir / "clean.pgm"
        self.noisy_pgm = self.workdir / "noisy.pgm"

    def setup(self):
        side = self.side
        ix = (np.arange(side) + 0.5) / side
        xx, yy = np.meshgrid(ix, ix[::-1], indexing="xy")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        values = sharp_disc(pts, self.center, self.radius).reshape(side, side)
        self.clean = np.rint(values * 255).astype(np.uint8)
        write_pgm(self.clean_pgm, self.clean)
        ops = [Op("cli add-noise", lambda: self._cli(
            "add-noise", "--input", self.clean_pgm, "--output", self.noisy_pgm,
            "--sigma", NOISE_SIGMA, "--seed", self.noise_seed))]
        for r in self.degrees:
            ops.append(Op(f"cli dtv r={r}", lambda r=r: self._cli(
                "dtv", "--input", self.noisy_pgm, "--degree", r),
                {"degree": r}))
        return ops

    def _cli(self, *argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.fv.cli.main([str(a) for a in argv])
        return code, buf.getvalue()

    def check(self, ops, results):
        out = []
        dtv_values = []
        for op, (value, error) in zip(ops, results):
            if error:
                out.append(_failure(error))
                continue
            code, text = value
            if code != 0:
                out.append(Outcome(False, f"exit code {code}"))
                continue
            if "degree" not in op.context:
                out.append(self._check_noise())
                continue
            fields = dict(line.split("=", 1) for line in text.split()
                          if "=" in line)
            try:
                dtv, exact = float(fields["dtv"]), float(fields["tv_exact"])
            except (KeyError, ValueError):
                out.append(Outcome(False, f"unparsable output {text!r}"))
                continue
            problems = []
            if dtv_values and not math.isclose(dtv, dtv_values[0],
                                               rel_tol=DTV_ACROSS_R_RTOL):
                problems.append(f"dtv {dtv!r} differs from r=0 "
                                f"{dtv_values[0]!r}")
            if not math.isclose(dtv, exact, rel_tol=DTV_EXACT_RTOL):
                problems.append(f"dtv {dtv!r} != tv_exact {exact!r}")
            if not dtv > 0:
                problems.append("dtv of a non-constant image is not positive")
            dtv_values.append(dtv)
            out.append(Outcome(not problems, "; ".join(problems) or "ok"))
        return out

    def _check_noise(self):
        """The noisy PGM has the input's shape, differs from it, and sits at
        the PSNR that sigma = 0.1 Gaussian noise clipped to [0, 1] gives."""
        try:
            noisy = read_pgm(self.noisy_pgm)
        except (OSError, ValueError) as exc:
            return Outcome(False, f"unreadable output: {exc}")
        if noisy.shape != self.clean.shape:
            return Outcome(False, f"output shape {noisy.shape}")
        err = (noisy.astype(float) - self.clean) / 255.0
        mse = float(np.mean(err * err))
        if mse == 0.0:
            return Outcome(False, "output equals input")
        psnr = 10.0 * math.log10(1.0 / mse)
        if not 18.0 <= psnr <= 28.0:
            return Outcome(False, f"noisy PSNR {psnr:.2f} dB out of range",
                           psnr)
        return Outcome(True, "ok", psnr)


def write_pgm(path, pixels):
    """Binary 8-bit PGM (P5) of a 2-D uint8 array, top row first."""
    h, w = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(pixels, dtype=np.uint8).tobytes())


def read_pgm(path):
    """Read the canonical 8-bit P5 files that ``fetv add-noise`` writes."""
    data = Path(path).read_bytes()
    parts = data.split(maxsplit=4)
    if len(parts) < 5 or parts[0] != b"P5" or parts[3] != b"255":
        raise ValueError("not a canonical 8-bit P5 file")
    w, h = int(parts[1]), int(parts[2])
    header = len(b" ".join(parts[:4])) + 1
    payload = data[header:header + w * h]
    if len(payload) != w * h:
        raise ValueError("truncated payload")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w)

