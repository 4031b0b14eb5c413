import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from maxshape import (
    DofMap,
    EigenSelection,
    ObjectiveParams,
    OptimizerConfig,
)
from maxshape.cli_runner import (
    _KEY_TYPES,
    _RUN_FIELDS,
    RunConfig,
    _cell_field_magnitude,
    check_gradient,
    load_config,
    main,
    parse_config,
    run,
    run_eigs,
)
import maxshape.cli_runner as cli_runner
from maxshape.errors import ConfigError
from maxshape.problem import MaxwellShapeProblem

from conftest import (
    _whitney_local,
    dilation_control,
    gradient_incidence,
    random_feasible_control,
)


def config_text(extra="", mesh="mesh.unit_square = 4",
                target="objective.lambda_target = 9.87"):
    return "\n".join([mesh, target, extra])


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config(config_text())
        assert cfg.mesh_unit_square == 4
        assert cfg.objective.lambda_target == pytest.approx(9.87)
        assert cfg.objective.alpha == 100.0
        assert cfg.objective.beta == 1e-6
        assert cfg.objective.epsilon == 1e-4
        assert cfg.optimizer.tol == 1e-7
        assert cfg.optimizer.gamma == 0.1
        assert cfg.optimizer.rho_ls == 0.1
        assert cfg.optimizer.xi == 0.2
        assert cfg.optimizer.b0_scale == pytest.approx(0.01)  # 1/alpha
        assert cfg.eigen.tol == 1e-5
        assert cfg.seed == 0

    def test_absent_top_level_keys_keep_run_config_defaults(self):
        cfg = parse_config(config_text())
        default = RunConfig()
        assert cfg.output_dir == default.output_dir
        assert cfg.emit_vtk_every == default.emit_vtk_every
        assert cfg.seed == default.seed
        assert cfg.mesh_msh_path is None

    def test_top_level_keys(self):
        cfg = parse_config(config_text(
            extra="output.dir = res\noutput.emit_vtk_every = 2\nseed = 5"))
        assert cfg.output_dir == Path("res")
        assert (cfg.emit_vtk_every, cfg.seed) == (2, 5)

    def test_comments_and_spacing(self):
        cfg = parse_config(
            "# a comment\nmesh.unit_square=3   # trailing\n"
            "objective.lambda_target =  2.5\n\n")
        assert cfg.mesh_unit_square == 3
        assert cfg.objective.lambda_target == 2.5

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config(config_text(extra="objective.gamma = 1"))

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config(config_text(extra="mesh.unit_square = 8"))

    def test_mesh_source_exclusive(self):
        with pytest.raises(ConfigError):
            parse_config(config_text(extra="mesh.msh_path = foo.msh"))
        with pytest.raises(ConfigError):
            parse_config("objective.lambda_target = 1.0")

    def test_target_required(self):
        with pytest.raises(ConfigError):
            parse_config("mesh.unit_square = 4")

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            parse_config(config_text(extra="optimizer.gamma = big"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "key", [k for k, t in _KEY_TYPES.items() if t is float])
    def test_non_finite_float_rejected(self, key, value):
        # a NaN optimizer.tol, say, can never be met
        entry = f"{key} = {value}"
        if key == "objective.lambda_target":
            text, line = config_text(target=entry), 2
        else:
            text, line = config_text(extra=entry), 3
        message = f"line {line}: bad value for '{key}': '{value}' is not finite"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(text)

    @pytest.mark.parametrize("value", ["0", "-0.0", "0e3"])
    def test_zero_shift_rejected(self, value):
        # A - 0*M is singular: the first sparse solve would fail to factor
        with pytest.raises(ConfigError,
                           match="^eigen: shift must be finite and > 0$"):
            parse_config(config_text(extra=f"eigen.shift = {value}"))

    def test_negative_shift_rejected(self, tmp_path, capsys):
        # a cold solve at a negative shift would rank every eigenvalue
        # behind the highest: the configuration is refused before any solve
        text = config_text(extra="eigen.shift = -2.5")
        with pytest.raises(ConfigError,
                           match="^eigen: shift must be finite and > 0$"):
            parse_config(text)
        cfg_file = tmp_path / "n.cfg"
        cfg_file.write_text(text)
        assert main(["eigs", "--config", str(cfg_file)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: eigen: shift must be finite and > 0\n")

    @pytest.mark.parametrize("value", ["0", "-5", "-1e-300"])
    def test_non_positive_target_rejected(self, value):
        # the derived shift max(0.9 lambda*, 1e-12) would sit at 1e-12
        message = ("line 2: bad value for 'objective.lambda_target': "
                   f"'{value}' is not > 0")
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(config_text(
                target=f"objective.lambda_target = {value}"))

    @pytest.mark.parametrize("value", ["-1", "-12"])
    def test_negative_seed_rejected(self, value):
        # numpy's generators raise a bare ValueError on a negative seed
        message = f"line 3: bad value for 'seed': '{value}' is not >= 0"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(config_text(extra=f"seed = {value}"))

    def test_invalid_parameter_range(self):
        # the section's own check names the section
        message = "optimizer: gamma must lie in (0, 0.5)"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(config_text(extra="optimizer.gamma = 0.9"))
        with pytest.raises(ConfigError, match=r"^objective: epsilon must lie"):
            parse_config(config_text(extra="objective.epsilon = 1.5"))

    @pytest.mark.parametrize("key", ["eigen.gap_min", "eigen.strict_gap"])
    def test_removed_gap_keys_are_unknown(self, key):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(config_text(extra=f"{key} = 1"))

    def test_every_key_names_a_field(self):
        sections = {"objective": ObjectiveParams, "eigen": EigenSelection,
                    "optimizer": OptimizerConfig}
        aliases = {"optimizer.rho": "rho_ls"}
        run_fields = {f.name for f in fields(RunConfig)}
        for key in _KEY_TYPES:
            if key in _RUN_FIELDS:
                assert _RUN_FIELDS[key] in run_fields, key
                continue
            section, _, name = key.partition(".")
            names = {f.name for f in fields(sections[section])}
            assert aliases.get(key, name) in names, key


class TestRun:
    @pytest.fixture
    def quick_config(self, tmp_path):
        # target barely above the current eigenvalue: converges in a few steps
        text = "\n".join([
            "mesh.unit_square = 4",
            "objective.lambda_target = 10.0",
            "objective.alpha = 3e-4",
            "eigen.shift = 9.0",
            "eigen.nev = 6",
            "eigen.tol = 1e-8",
            "optimizer.k_max = 40",
            "optimizer.tol = 1e-5",
            f"output.dir = {tmp_path / 'out'}",
            "output.emit_vtk_every = 2",
            "seed = 3",
        ])
        return parse_config(text), tmp_path / "out"

    def test_artifacts_written(self, quick_config):
        cfg, out = quick_config
        code = run(cfg)
        assert code in (0, 1)
        assert (out / "iterations.csv").is_file()
        assert (out / "summary.txt").is_file()
        assert (out / "deformed_final.vtk").is_file()
        assert (out / "deformed_0000.vtk").is_file()

        header = (out / "iterations.csv").read_text().splitlines()[0]
        assert header == "k,lambda,j_value,grad_norm,step,theta,jq_min,jq_max"
        summary = (out / "summary.txt").read_text()
        assert "lambda_initial" in summary
        assert "r_rel" in summary

    def test_deterministic_iterations(self, tmp_path):
        texts = []
        for name in ("a", "b"):
            cfg = parse_config("\n".join([
                "mesh.unit_square = 4",
                "objective.lambda_target = 10.0",
                "objective.alpha = 3e-4",
                "eigen.shift = 9.0",
                "eigen.tol = 1e-8",
                "optimizer.k_max = 8",
                f"output.dir = {tmp_path / name}",
                "seed = 11",
            ]))
            run(cfg)
            texts.append((tmp_path / name / "iterations.csv").read_bytes())
        assert texts[0] == texts[1]

    def test_no_eigensolve_after_optimize(self, tmp_path, monkeypatch):
        # the accepted trial's state also feeds the final VTK field
        import maxshape.adjoint_gradient as ag
        import maxshape.cli_runner as cli

        log = []
        real_solve, real_optimize = ag.solve_state, cli.optimize

        def solve_state(*args, **kwargs):
            log.append("solve")
            return real_solve(*args, **kwargs)

        def optimize(*args, **kwargs):
            result = real_optimize(*args, **kwargs)
            log.append("optimize returned")
            return result

        monkeypatch.setattr(ag, "solve_state", solve_state)
        monkeypatch.setattr(cli, "optimize", optimize)
        cfg = parse_config("\n".join([
            "mesh.unit_square = 4",
            "objective.lambda_target = 10.0",
            "objective.alpha = 3e-4",
            "eigen.shift = 9.0",
            "eigen.tol = 1e-8",
            "optimizer.k_max = 1",
            f"output.dir = {tmp_path / 'out'}",
        ]))
        run(cfg)
        assert (tmp_path / "out" / "deformed_final.vtk").is_file()
        assert log.count("solve") >= 2
        assert log[-1] == "optimize returned"

    def test_missing_mesh_is_config_error(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        out = tmp_path / "never"
        cfg_file.write_text("\n".join([
            f"mesh.msh_path = {tmp_path / 'absent.msh'}",
            "objective.lambda_target = 1.0",
            f"output.dir = {out}",
        ]))
        code = main(["run", "--config", str(cfg_file)])
        assert code == 2
        assert not out.exists()  # no partial artifacts

    def test_msh_input(self, tmp_path):
        from maxshape import generate_unit_square

        mesh = generate_unit_square(3)
        lines = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat",
                 "$Nodes", str(mesh.n_vertices)]
        lines += [f"{i + 1} {x:.17g} {y:.17g} 0"
                  for i, (x, y) in enumerate(mesh.vertices)]
        lines += ["$EndNodes", "$Elements", str(mesh.n_triangles)]
        lines += [f"{t + 1} 2 2 0 1 {a + 1} {b + 1} {c + 1}"
                  for t, (a, b, c) in enumerate(mesh.triangles)]
        lines += ["$EndElements", ""]
        msh = tmp_path / "square.msh"
        msh.write_text("\n".join(lines))
        cfg = parse_config("\n".join([
            f"mesh.msh_path = {msh}",
            "objective.lambda_target = 10.0",
            "eigen.shift = 9.0",
            "eigen.nev = 4",
            "optimizer.k_max = 1",
            f"output.dir = {tmp_path / 'o'}",
        ]))
        code = run(cfg)
        assert code in (0, 1)
        assert (tmp_path / "o" / "summary.txt").is_file()


class TestCellFieldMagnitude:
    @pytest.mark.parametrize("s", [0.0, -0.1, 0.25])
    def test_gradient_of_x_under_dilation(self, square4, s):
        # u = G x is the edge-element interpolant of grad x = e_x, which is
        # exact; the deformation q = s (x - c) scales it by 1 / (1 + s).
        grad = gradient_incidence(square4, DofMap.from_mesh(square4),
                                  full=True)
        u = grad @ square4.vertices[:, 0]
        mag = _cell_field_magnitude(square4, dilation_control(square4, s), u)
        assert mag.shape == (square4.n_triangles,)
        np.testing.assert_allclose(mag, 1.0 / (1.0 + s), rtol=1e-13)

    def test_every_edge_sign_pattern(self, shuffled_mesh, rng):
        # Triangle by triangle: u_h at the centroid, where every lam is 1/3,
        # pushed forward by DF^-T of that triangle.
        mesh = shuffled_mesh
        q = random_feasible_control(mesh, rng, 0.02)
        u = rng.standard_normal(mesh.n_edges)
        want = np.empty(mesh.n_triangles)
        for t in range(mesh.n_triangles):
            pairs, _, glob = _whitney_local(mesh, t)
            gl = mesh.barycentric_gradients[t]
            u_h = sum(u[e] * (gl[j] - gl[i]) / 3.0
                      for e, (i, j) in zip(glob, pairs))
            df = np.eye(2) + q.values[mesh.triangles[t]].T @ gl
            want[t] = np.linalg.norm(np.linalg.inv(df).T @ u_h)
        np.testing.assert_allclose(_cell_field_magnitude(mesh, q, u), want,
                                   rtol=1e-13)


class TestCheckGradient:
    def base_config(self, tmp_path, n=8):
        return parse_config("\n".join([
            f"mesh.unit_square = {n}",
            "objective.lambda_target = 8.9",
            "objective.alpha = 1e-3",
            "eigen.shift = 8.0",
            "eigen.tol = 1e-9",
            f"output.dir = {tmp_path}",
            "seed = 5",
        ]))

    def test_passes_at_origin(self, tmp_path, capsys):
        report, code = check_gradient(self.base_config(tmp_path), 3, 1e-5)
        assert code == 0
        assert report["max_rel_error"] <= 1e-4
        assert "PASS" in capsys.readouterr().out

    def test_decay_across_steps(self, tmp_path):
        report, code = check_gradient(self.base_config(tmp_path, n=4), 2,
                                      [1e-2, 1e-3, 1e-4])
        assert code == 0
        for rows in report["directions"]:
            errs = [r["rel_error"] for r in rows]
            assert errs[0] > errs[1]           # coarse step is worse
            assert errs[0] / errs[1] >= 20.0   # roughly O(h^2)
            assert errs[2] <= errs[0]

    def test_infinite_trial_fails(self, tmp_path, monkeypatch, capsys):
        # fd = inf gives rel_error = nan, which max() drops unless it comes
        # first; the check must fail instead of passing on the other rows.
        calls = []
        evaluate = MaxwellShapeProblem.evaluate

        def evaluate_inf_on_dir1(self, q, lam=None):
            calls.append(q)
            # calls run dir 0 (+h, -h), then dir 1 (+h, -h)
            return math.inf if len(calls) == 3 else evaluate(self, q, lam)

        monkeypatch.setattr(MaxwellShapeProblem, "evaluate",
                            evaluate_inf_on_dir1)
        report, code = check_gradient(self.base_config(tmp_path, n=4), 2,
                                      1e-5)
        assert len(calls) == 4
        assert math.isfinite(report["directions"][0][-1]["rel_error"])
        assert not math.isfinite(report["max_rel_error"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_zero_directions(self, tmp_path):
        report, code = check_gradient(self.base_config(tmp_path, n=4), 0, 1e-5)
        assert code == 0
        assert report["directions"] == []

    @pytest.mark.parametrize("h", [0.0, -1e-5, math.inf, math.nan, [],
                                   [1e-3, math.nan], [1e-3, 0], "1e-5",
                                   None])
    def test_bad_steps_rejected_before_the_mesh(self, tmp_path, monkeypatch,
                                                h):
        def never(cfg):
            raise AssertionError("the problem was built")

        monkeypatch.setattr(cli_runner, "build_problem", never)
        with pytest.raises(ConfigError, match="^h needs steps"):
            check_gradient(self.base_config(tmp_path, n=4), 1, h)

    @pytest.mark.parametrize("h", [1, np.float64(1e-5), (1e-2, 1e-3)])
    def test_steps_of_any_number_type(self, tmp_path, h):
        report, _ = check_gradient(self.base_config(tmp_path, n=4), 0, h)
        steps = sorted(np.atleast_1d(h).astype(float).tolist(), reverse=True)
        assert report["steps"] == steps
        assert all(type(step) is float for step in report["steps"])


class TestEigsCommand:
    def test_prints_spectrum(self, tmp_path, capsys):
        cfg = parse_config("\n".join([
            "mesh.unit_square = 8",
            "objective.lambda_target = 9.87",
            "eigen.shift = 9.0",
            f"output.dir = {tmp_path}",
        ]))
        assert run_eigs(cfg, nev=6) == 0
        out = capsys.readouterr().out
        assert "dofs_total" in out
        lines = [l for l in out.splitlines() if l.strip() and l[0:3].strip().isdigit()]
        assert len(lines) == 6
        lam0 = float(lines[0].split()[1])
        assert lam0 == pytest.approx(np.pi ** 2, rel=0.02)


class TestMain:
    def test_config_file_missing(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_eigs_cli(self, tmp_path, capsys):
        cfg_file = tmp_path / "e.cfg"
        cfg_file.write_text("\n".join([
            "mesh.unit_square = 4",
            "objective.lambda_target = 9.87",
            "eigen.shift = 9.0",
        ]))
        assert main(["eigs", "--config", str(cfg_file), "--nev", "4"]) == 0
        assert "lambda" in capsys.readouterr().out

    def test_eigs_cli_rejected_nev_names_the_flag(self, tmp_path, capsys):
        cfg_file = tmp_path / "e.cfg"
        cfg_file.write_text("\n".join([
            "mesh.unit_square = 4",
            "objective.lambda_target = 9.87",
            "eigen.shift = 9.0",
        ]))
        assert main(["eigs", "--config", str(cfg_file), "--nev", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "configuration error: --nev: nev must be >= index + 2: a solve "
            "checks pairs index +- 1, and select_and_normalize stacks "
            "index + 2\n")

    def test_eigs_cli_shift_above_twice_a_low_eigenvalue(self, tmp_path,
                                                         capsys):
        # a cold solve cannot see eigenvalues below half the shift: at 30
        # the square's 9.85 and 9.87 are missing among its 9 Ritz pairs
        cfg_file = tmp_path / "e.cfg"
        cfg_file.write_text("\n".join([
            "mesh.unit_square = 16",
            "objective.lambda_target = 9.87",
            "eigen.shift = 30",
        ]))
        assert main(["eigs", "--config", str(cfg_file), "--nev", "6"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: 3 eigenvalues lie below the shift 30, but only 1 of the "
            "9 Ritz pairs")

    def test_check_gradient_cli(self, tmp_path):
        cfg_file = tmp_path / "g.cfg"
        cfg_file.write_text("\n".join([
            "mesh.unit_square = 4",
            "objective.lambda_target = 8.9",
            "objective.alpha = 1e-3",
            "eigen.shift = 8.0",
            "eigen.tol = 1e-9",
            "seed = 5",
        ]))
        assert main(["check-gradient", "--config", str(cfg_file),
                     "--dirs", "2", "--h", "1e-5"]) == 0

    @pytest.mark.parametrize("command", ["eigs", "run"])
    def test_negative_seed(self, tmp_path, capsys, command):
        cfg_file = tmp_path / "s.cfg"
        cfg_file.write_text("mesh.unit_square = 4\n"
                            "objective.lambda_target = 8.9\n"
                            "seed = -1\n")
        assert main([command, "--config", str(cfg_file)]) == 2
        assert capsys.readouterr().err.startswith(
            "configuration error: line 3: bad value for 'seed'")

    @pytest.mark.parametrize("h", ["0", ",", "nan", "abc", "inf", "-1e-5",
                                   "1e-4,0"])
    def test_check_gradient_bad_step(self, tmp_path, capsys, monkeypatch, h):
        # --h is split and converted by the CLI, whose error names it, and
        # checked once, by check_gradient, before any problem is built
        built = []
        monkeypatch.setattr(cli_runner, "build_problem", built.append)
        cfg_file = tmp_path / "g.cfg"
        cfg_file.write_text("mesh.unit_square = 4\n"
                            "objective.lambda_target = 8.9\n")
        assert main(["check-gradient", "--config", str(cfg_file),
                     f"--h={h}"]) == 2
        assert built == []
        name = "--h" if h == "abc" else "h"
        assert capsys.readouterr().err.startswith(
            f"configuration error: {name} needs ")
