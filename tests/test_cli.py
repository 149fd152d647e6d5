import json
import pathlib
import re

import numpy as np
import pytest

from fetv.cli import _apply_preset, build_parser, main
from fetv.images import load_pgm, save_pgm
from fetv.mesh import load_mesh
from fetv.operators import QuadraticSolver
from fetv.solvers import ALGORITHMS

from conftest import smooth_disc, strict_json


PRESETS = pathlib.Path(__file__).resolve().parents[1] / "presets"


@pytest.fixture()
def disc_image(tmp_path):
    n = 16
    xs = (np.arange(n) + 0.5) / n
    xx, yy = np.meshgrid(xs, xs[::-1], indexing="xy")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    values = smooth_disc(pts).reshape(n, n)
    path = tmp_path / "disc.pgm"
    save_pgm(values, path)
    return path


def test_denoise_runs_and_reports(tmp_path, disc_image):
    out = tmp_path / "out.pgm"
    report = tmp_path / "report.json"
    code = main(["denoise", "--input", str(disc_image),
                 "--output", str(out), "--report", str(report),
                 "--algorithm", "split-bregman", "--degree", "0",
                 "--beta", "1e-3", "--lambda", "1e-3",
                 "--noise-sigma", "0.1", "--seed", "3"])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["converged"] is True
    assert data["algorithm"] == "split-bregman"
    assert data["psnr"] > 20.0
    assert load_pgm(out).shape == (16, 16)


def test_denoise_prints_final_lambda(tmp_path, disc_image, capsys):
    report = tmp_path / "report.json"
    code = main(["denoise", "--input", str(disc_image),
                 "--report", str(report), "--degree", "1",
                 "--lambda", "1e-4", "--noise-sigma", "0.1"])
    assert code == 0
    data = json.loads(report.read_text())
    out = capsys.readouterr().out.splitlines()
    assert f"lambda={data['lam_final']:.10g}" in out
    assert data["lam_final"] != 1e-4 and data["penalty_changes"] >= 1
    # the stop reason follows the converged flag
    i = out.index("converged=true")
    assert out[i + 1] == f"stop_reason={data['stop_reason']}" \
        == "stop_reason=gap"


def test_denoise_deterministic(tmp_path, disc_image):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"out_{tag}.pgm"
        report = tmp_path / f"rep_{tag}.json"
        code = main(["denoise", "--input", str(disc_image),
                     "--output", str(out), "--report", str(report),
                     "--algorithm", "split-bregman", "--degree", "0",
                     "--beta", "1e-3", "--lambda", "1e-3",
                     "--noise-sigma", "0.1", "--seed", "3"])
        assert code == 0
        outs.append((out.read_bytes(), report.read_text()))
    assert outs[0][0] == outs[1][0]
    assert json.loads(outs[0][1])["trace"] == json.loads(outs[1][1])["trace"]


def test_invalid_config_exit_code(tmp_path, disc_image, capsys):
    """Removed flags, a removed preset key and an algorithm the degree
    does not support each end in exit 1 and one error line."""
    preset = tmp_path / "preset.json"
    preset.write_text(json.dumps({"fidelity": "l1"}))
    for extra in (["--fidelity", "l1"], ["--infeas-cap", "1e-9"],
                  ["--preset", str(preset)],
                  ["--algorithm", "cp-l1", "--degree", "2"]):
        code = main(["denoise", "--input", str(disc_image), *extra])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("fetv: error: ")
        assert all(line.startswith("usage: ") for line in err[:-1])
    # unknown flag values are usage errors, still exit 1
    code = main(["denoise", "--input", str(disc_image), "--degree", "7"])
    assert code == 1
    code = main(["denoise", "--input", str(tmp_path / "missing.pgm")])
    assert code == 1


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_report_of_an_exact_reconstruction_is_strict_json(
        tmp_path, capsys, algorithm):
    """A constant image is reconstructed exactly, so its PSNR is infinite:
    stdout prints psnr=inf and the report writes null."""
    image = tmp_path / "const.pgm"
    save_pgm(np.full((8, 8), 0.5), image)
    report = tmp_path / "rep.json"
    code = main(["denoise", "--input", str(image), "--algorithm", algorithm,
                 "--report", str(report)])
    assert code == 0
    assert "psnr=inf" in capsys.readouterr().out.splitlines()
    data = strict_json(report.read_text())
    assert data["psnr"] is None and data["converged"] is True


def test_non_convergence_exit_code(tmp_path, disc_image, capsys):
    out = tmp_path / "out.pgm"
    report = tmp_path / "rep.json"
    code = main(["denoise", "--input", str(disc_image),
                 "--output", str(out), "--report", str(report),
                 "--algorithm", "chambolle-pock", "--degree", "0",
                 "--beta", "1e-3", "--max-iter", "2",
                 "--noise-sigma", "0.1"])
    assert code == 2
    data = json.loads(report.read_text())
    assert data["converged"] is False and data["stop_reason"] == "max_iter"
    lines = capsys.readouterr().out.splitlines()
    i = lines.index("converged=false")
    assert lines[i + 1] == "stop_reason=max_iter"
    assert out.exists()


def test_stalled_inner_solve_exit_code(tmp_path, disc_image, monkeypatch,
                                      capsys):
    monkeypatch.setattr(QuadraticSolver, "_MAX_ITER", 1)
    out = tmp_path / "out.pgm"
    report = tmp_path / "rep.json"
    code = main(["denoise", "--input", str(disc_image),
                 "--output", str(out), "--report", str(report),
                 "--algorithm", "split-bregman", "--degree", "0",
                 "--noise-sigma", "0.1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("fetv: error: inner solver stalled")
    assert err.endswith("after 1 iterations\n")
    assert err.count("\n") == 1
    assert not out.exists()


def test_stalled_inner_solve_writes_report(tmp_path, disc_image,
                                           monkeypatch):
    """A stall exits 2 but still writes the report up to the stall, its
    stop reason ``inner_stall`` and its inner iterations those of the
    stalled solve too."""
    monkeypatch.setattr(QuadraticSolver, "_MAX_ITER", 1)
    report = tmp_path / "rep.json"
    code = main(["denoise", "--input", str(disc_image),
                 "--report", str(report), "--algorithm", "split-bregman",
                 "--degree", "0", "--noise-sigma", "0.1"])
    assert code == 2
    data = json.loads(report.read_text())
    assert data["stop_reason"] == "inner_stall"
    assert data["converged"] is False
    assert data["algorithm"] == "split-bregman"
    assert data["iterations"] == len(data["trace"])
    assert data["inner_iterations"] >= QuadraticSolver._MAX_ITER


def test_inpaint_with_mask(tmp_path, disc_image, capsys):
    mask = tmp_path / "mask.txt"
    rng = np.random.default_rng(0)
    cells = rng.choice(4 * 16 * 16, size=300, replace=False)
    mask.write_text("".join(f"{c}\n" for c in sorted(cells)))
    report = tmp_path / "rep.json"
    code = main(["inpaint", "--input", str(disc_image),
                 "--mask", str(mask), "--report", str(report),
                 "--algorithm", "chambolle-pock", "--degree", "0",
                 "--beta", "1e-3", "--sigma-step", "0.7",
                 "--tau", "2e-4", "--scale", "1e-2",
                 "--max-iter", "20000"])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["masked_cells"] == 300
    assert data["psnr"] > data["psnr_baseline"]
    assert "stop_reason=gap" in capsys.readouterr().out.splitlines()


def test_inpaint_rejects_a_mask_of_swapped_dimensions(tmp_path, capsys):
    image = tmp_path / "wide.pgm"
    save_pgm(np.full((2, 4), 0.5), image)
    mask = tmp_path / "tall.pgm"
    save_pgm(np.ones((4, 2)), mask)
    code = main(["inpaint", "--input", str(image), "--mask", str(mask)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("fetv: error: mesh is not the crossed mesh")
    assert err.count("\n") == 1


def test_dtv_command(tmp_path, disc_image, capsys):
    code = main(["dtv", "--input", str(disc_image), "--degree", "1",
                 "--s", "2"])
    assert code == 0
    out = dict(line.split("=") for line in
               capsys.readouterr().out.strip().splitlines())
    assert float(out["dtv"]) >= float(out["tv_exact"]) - 1e-12
    assert float(out["difference"]) >= -1e-12

    const = tmp_path / "const.pgm"
    save_pgm(np.full((4, 4), 0.5), const)
    code = main(["dtv", "--input", str(const), "--degree", "0"])
    assert code == 0
    out = dict(line.split("=") for line in
               capsys.readouterr().out.strip().splitlines())
    assert float(out["dtv"]) == 0.0


def test_dtv_command_mesh_coeffs(tmp_path, capsys):
    code = main(["make-mesh", "2", "2", "--output", str(tmp_path / "m.mesh")])
    assert code == 0
    mesh = load_mesh(tmp_path / "m.mesh")
    assert mesh.num_cells == 16
    coeffs = tmp_path / "c.txt"
    coeffs.write_text("".join(f"{v}\n" for v in np.arange(16) % 2))
    code = main(["dtv", "--mesh", str(tmp_path / "m.mesh"),
                 "--coeffs", str(coeffs), "--degree", "0"])
    assert code == 0
    out = dict(line.split("=") for line in
               capsys.readouterr().out.strip().splitlines())
    assert float(out["dtv"]) > 0

    assert main(["dtv"]) == 1  # neither image nor mesh+coeffs

    # a count past the end of the file is a format error, not a MemoryError
    capsys.readouterr()
    huge = tmp_path / "huge.mesh"
    huge.write_text("fetv-mesh 1\nvertices 100000000000000\n0 0\ncells 0\n")
    code = main(["dtv", "--mesh", str(huge), "--coeffs", str(coeffs)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("fetv: error:")


@pytest.mark.parametrize("extra", [["--mesh"], ["--coeffs"],
                                   ["--mesh", "--coeffs"]], ids="+".join)
def test_dtv_command_takes_one_input(tmp_path, disc_image, capsys, extra):
    """An image together with a mesh or coefficient file is one error line
    and exit code 1, not a run that drops the files it was given."""
    main(["make-mesh", "2", "2", "--output", str(tmp_path / "m.mesh")])
    coeffs = tmp_path / "c.txt"
    coeffs.write_text("0.5\n" * 16)
    files = {"--mesh": tmp_path / "m.mesh", "--coeffs": coeffs}
    capsys.readouterr()
    args = [str(a) for flag in extra for a in (flag, files[flag])]
    code = main(["dtv", "--input", str(disc_image), *args])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        "fetv: error: dtv needs --input alone, or --mesh with --coeffs"]


def test_dtv_command_rejects_repeated_cell(tmp_path, capsys):
    """A mesh file that lists one triangle twice is one error line naming
    both cells and exit code 1, not a seminorm of two copies."""
    path = tmp_path / "twice.mesh"
    path.write_text("fetv-mesh 1\nvertices 3\n0 0\n1 0\n0 1\n"
                    "cells 2\n0 1 2\n0 2 1\n")
    coeffs = tmp_path / "c.txt"
    coeffs.write_text("0.5\n1.0\n")
    code = main(["dtv", "--mesh", str(path), "--coeffs", str(coeffs)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        "fetv: error: cells 0 and 1 repeat the same three vertices"]


_NON_FINITE = "coefficients hold NaN or infinite values"


@pytest.mark.parametrize("content, message", [
    (b"nan\n" + b"0.5\n" * 15, _NON_FINITE),
    (b"inf\n" + b"0.5\n" * 15, _NON_FINITE),
    (b"", "0 values given for DG_0 on 16 cells (16 values)"),
    (b"0.5\n0.5\nabc\n" + b"0.5\n" * 13,
     "coefficient line 3: not a number: 'abc'"),
    (b"\xff\n" + b"0.5\n" * 15,
     "coefficient line 1: bytes that are not UTF-8 text"),
    (b"0.5 0.5\n" * 8, "coefficient line 1: not a number: '0.5 0.5'"),
], ids=["nan", "inf", "empty", "abc", "xff", "two-per-line"])
def test_dtv_command_rejects_non_finite_coeffs(tmp_path, capsys, content,
                                               message):
    """A coefficient file that is not one finite value per line is one
    error line that names the line, with no warning before it."""
    main(["make-mesh", "2", "2", "--output", str(tmp_path / "m.mesh")])
    coeffs = tmp_path / "c.txt"
    coeffs.write_bytes(content)
    capsys.readouterr()
    code = main(["dtv", "--mesh", str(tmp_path / "m.mesh"),
                 "--coeffs", str(coeffs)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert err == [f"fetv: error: {message}"]


def test_add_noise_command(tmp_path, disc_image):
    a = tmp_path / "noisy_a.pgm"
    b = tmp_path / "noisy_b.pgm"
    for path in (a, b):
        code = main(["add-noise", "--input", str(disc_image),
                     "--output", str(path), "--sigma", "0.1", "--seed", "7"])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()

    ident = tmp_path / "ident.pgm"
    code = main(["add-noise", "--input", str(disc_image),
                 "--output", str(ident), "--sigma", "0"])
    assert code == 0
    assert ident.read_bytes() == disc_image.read_bytes()


def test_preset_loading(tmp_path, disc_image):
    preset = tmp_path / "preset.json"
    preset.write_text(json.dumps({
        "algorithm": "split-bregman", "degree": 0, "beta": 1e-3,
        "lambda": 1e-3, "s": 2}))
    report = tmp_path / "rep.json"
    code = main(["denoise", "--input", str(disc_image),
                 "--preset", str(preset), "--report", str(report),
                 "--noise-sigma", "0.1"])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["algorithm"] == "split-bregman"
    assert data["params"]["beta"] == 1e-3


def test_shipped_presets_parse():
    """Every shipped preset is accepted by the CLI and sets each of its
    keys as the default of the matching denoise/inpaint option."""
    files = sorted(PRESETS.glob("*.json"))
    assert len(files) == 14
    dests = {"lambda": "lam", "sigma-step": "sigma"}
    for f in files:
        data = json.loads(f.read_text())
        assert "algorithm" in data and "degree" in data and "beta" in data
        for command in (["denoise"], ["inpaint", "--mask", "m.txt"]):
            argv = ["fetv", *command, "--input", "x.pgm", "--preset", str(f)]
            parser = build_parser()
            _apply_preset(argv, parser)
            args = parser.parse_args(argv[1:])
            for key, value in data.items():
                dest = dests.get(key, key).replace("-", "_")
                assert getattr(args, dest) == value, (f.name, key)


@pytest.mark.parametrize("body", ["[1, 2]", '"x"', "3", "null"])
def test_preset_not_an_object(tmp_path, disc_image, capsys, body):
    preset = tmp_path / "preset.json"
    preset.write_text(body)
    code = main(["denoise", "--input", str(disc_image),
                 "--preset", str(preset)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("fetv: error: ")
    assert "not a JSON object" in err[0]


def test_preset_unknown_key(tmp_path, disc_image, capsys):
    """A misspelt key is an error, not a silent run with the default."""
    preset = tmp_path / "preset.json"
    preset.write_text(json.dumps({"lamda": 0.01, "beta": 1e-3}))
    report = tmp_path / "rep.json"
    code = main(["denoise", "--input", str(disc_image),
                 "--preset", str(preset), "--report", str(report)])
    assert code == 1
    assert not report.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("fetv: error: ")
    assert "'lamda'" in err[0]
    # a key that only another subcommand defines is not an error
    preset.write_text(json.dumps({"mask": "m.txt", "lambda": 1e-3}))
    code = main(["denoise", "--input", str(disc_image),
                 "--preset", str(preset), "--max-iter", "2"])
    assert code in (0, 2)


@pytest.mark.parametrize("key, value", [("sigma", 0.05), ("width", 3)])
def test_preset_key_of_a_subcommand_without_presets(tmp_path, disc_image,
                                                    capsys, key, value):
    """A key that only add-noise or make-mesh defines would be ignored by
    denoise, so it is an error like a misspelt one."""
    preset = tmp_path / "preset.json"
    preset.write_text(json.dumps({key: value, "lambda": 1e-3}))
    report = tmp_path / "rep.json"
    code = main(["denoise", "--input", str(disc_image),
                 "--preset", str(preset), "--report", str(report)])
    assert code == 1
    assert not report.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("fetv: error: ")
    assert repr(key) in err[0]


def test_preset_value_of_wrong_type(tmp_path, disc_image, capsys):
    """Preset values go through the option's type like a flag's value."""
    preset = tmp_path / "preset.json"
    for body, flag in (({"beta": [1]}, "--beta"), ({"theta": True}, "--theta"),
                       ({"max-iter": 2.5}, "--max-iter")):
        preset.write_text(json.dumps(body))
        code = main(["denoise", "--input", str(disc_image),
                     "--preset", str(preset)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert f"error: argument {flag}: invalid" in err[-1]


@pytest.mark.parametrize("key", ["theta", "beta", "max-iter"])
def test_preset_null_value(tmp_path, disc_image, capsys, key):
    """A null preset value is refused with one error line naming the key,
    not passed on as the option's default."""
    preset = tmp_path / "preset.json"
    preset.write_text(json.dumps({key: None, "lambda": 1e-3}))
    report = tmp_path / "rep.json"
    code = main(["denoise", "--input", str(disc_image),
                 "--preset", str(preset), "--report", str(report)])
    assert code == 1
    assert not report.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("fetv: error: ")
    assert repr(key) in err[0]


def _smooth_disc_pgm(tmp_path, n):
    xs = (np.arange(n) + 0.5) / n
    xx, yy = np.meshgrid(xs, xs[::-1], indexing="xy")
    values = smooth_disc(np.column_stack([xx.ravel(), yy.ravel()]))
    image = tmp_path / "disc.pgm"
    save_pgm(values.reshape(n, n), image)
    return image


def _converges_on_disc(tmp_path, preset):
    """``fetv denoise --preset`` on a 32x32 smooth disc exits 0 and
    reports a converged run."""
    image = _smooth_disc_pgm(tmp_path, 32)
    report = tmp_path / "report.json"
    code = main(["denoise", "--input", str(image), "--preset",
                 str(PRESETS / preset), "--report", str(report)])
    assert code == 0
    assert json.loads(report.read_text())["converged"] is True


@pytest.mark.parametrize("preset", sorted(
    p.name for p in PRESETS.glob("*_sb_*.json")))
def test_shipped_sb_presets_converge(tmp_path, preset):
    _converges_on_disc(tmp_path, preset)


@pytest.mark.parametrize("preset", sorted(
    p.name for p in PRESETS.glob("denoise_ball_cp_*.json")))
def test_shipped_cp_denoise_presets_converge(tmp_path, preset):
    _converges_on_disc(tmp_path, preset)


@pytest.mark.parametrize("preset", sorted(
    p.name for p in PRESETS.glob("inpaint_ball_cp_*.json")))
def test_shipped_cp_inpaint_presets_converge(tmp_path, preset):
    """``fetv inpaint --preset`` on a 32x32 smooth disc with two thirds of
    the pixels erased by a PGM mask exits 0 with a converged run that ends
    above the PSNR of the zero-filled data."""
    n = 32
    image = _smooth_disc_pgm(tmp_path, n)
    dark = np.random.default_rng(5).random((n, n)) < 2.0 / 3.0
    mask = tmp_path / "mask.pgm"
    save_pgm((~dark).astype(float), mask)
    report = tmp_path / "report.json"
    code = main(["inpaint", "--input", str(image), "--mask", str(mask),
                 "--preset", str(PRESETS / preset), "--seed", "1",
                 "--report", str(report)])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["converged"] is True
    assert data["psnr"] > data["psnr_baseline"]


def test_cp_preset_over_the_step_bound_is_refused(tmp_path, capsys):
    """The r = 1 denoising preset holds the tau of the 64x64 mesh.  On a
    128x128 image that puts sigma * tau * L near 2.5, over the bound 1, so
    the run is refused at set-up: exit code 1, one error line naming the
    ratio, and no report."""
    image = _smooth_disc_pgm(tmp_path, 128)
    report = tmp_path / "report.json"
    code = main(["denoise", "--input", str(image), "--preset",
                 str(PRESETS / "denoise_ball_cp_dg1.json"),
                 "--report", str(report)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not report.exists()
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    assert re.match(r"fetv: error: sigma \* tau \* L = 2\.\d+ is over the "
                    r"stability bound 1 ", err[0]), err


@pytest.mark.parametrize("sigma", ["nan", "inf", "-0.1"])
def test_add_noise_rejects_bad_sigma(tmp_path, disc_image, capsys, sigma):
    """A noise level that is not finite, or negative, is one error line and
    exit code 1, and nothing is written."""
    out = tmp_path / "noisy.pgm"
    code = main(["add-noise", "--input", str(disc_image),
                 "--output", str(out), "--sigma", sigma])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"fetv: error: sigma must be nonnegative and finite, "
                   f"got {float(sigma)}"]
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_add_noise_rejects_seeds_outside_64_bits(tmp_path, disc_image, capsys,
                                                 seed):
    """A seed outside [0, 2^64) is one error line and exit code 1, not a
    field drawn from the seed reduced mod 2^64; nothing is written."""
    out = tmp_path / "noisy.pgm"
    code = main(["add-noise", "--input", str(disc_image),
                 "--output", str(out), "--seed", seed])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"fetv: error: seed must be an integer in "
                   f"[0, 18446744073709551615], got {seed}"]
    assert not out.exists()


@pytest.mark.parametrize("size", [["--width", "inf"], ["--height", "inf"],
                                  ["--width", "nan"], ["--width", "0"]],
                         ids=" ".join)
def test_make_mesh_rejects_bad_size(tmp_path, capsys, size):
    """A domain size that is not finite and positive is one error line and
    exit code 1, with no numpy warning on the way, and no mesh file."""
    out = tmp_path / "m.mesh"
    code = main(["make-mesh", "2", "2", *size, "--output", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        f"fetv: error: {size[0][2:]} must be positive and finite, "
        f"got {float(size[1])}"]
    assert not out.exists()


@pytest.mark.parametrize("dims", [["0", "2"], ["2", "0"], ["-1", "2"]],
                         ids=" ".join)
def test_make_mesh_rejects_empty_grid(tmp_path, capsys, dims):
    out = tmp_path / "m.mesh"
    code = main(["make-mesh", *dims, "--output", str(out)])
    assert code == 1
    name, value = ("nx", dims[0]) if int(dims[0]) < 1 else ("ny", dims[1])
    assert capsys.readouterr().err.strip().splitlines() == [
        f"fetv: error: {name} must be an integer of at least 1, got {value}"]
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--beta", "nan"], ["--beta", "inf"], ["--lambda", "inf"],
    ["--lambda", "nan"], ["--scale", "inf"], ["--tol-rel", "nan"],
    ["--tol-rel", "-1"], ["--tol-rel", "inf"],
    ["--algorithm", "chambolle-pock", "--sigma-step", "nan"],
    ["--algorithm", "chambolle-pock", "--tau", "inf"],
    ["--algorithm", "chambolle-pock", "--huber-eps", "nan"],
    ["--algorithm", "chambolle-pock", "--huber-eps", "inf"],
    ["--noise-sigma", "nan"], ["--noise-sigma", "inf"],
    ["--noise-sigma", "-0.1"],
], ids=" ".join)
def test_non_finite_or_negative_setting(tmp_path, disc_image, capsys, flags):
    """A setting that is not finite, or negative, is one error line and
    exit code 1 before the solve, and nothing is written."""
    out = tmp_path / "out.pgm"
    report = tmp_path / "rep.json"
    code = main(["denoise", "--input", str(disc_image), "--output", str(out),
                 "--report", str(report), "--max-iter", "3", *flags])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("fetv: error: ")
    assert not out.exists() and not report.exists()
