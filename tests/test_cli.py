"""Command-line interface: outputs, exit codes, reproducibility."""

import json

import numpy as np
import pytest
import yaml

from r13lab import cli, korn, slab
from r13lab.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_SOLVER, main
from r13lab.models import bundled_model_path


def run(*argv):
    return main(list(argv))


def read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


@pytest.fixture()
def outdir(tmp_path):
    return tmp_path / "out"


def write_config(tmp_path, **doc):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    return str(path)


class TestAudits:
    def test_validate_params_strict_model(self, outdir):
        code = run("validate-params", "--model", "eta7", "--out", str(outdir))
        assert code == EXIT_OK
        doc = json.loads((outdir / "constraints.json").read_text())
        assert doc["status1"] == "strict" and doc["status2"] == "strict"
        assert doc["admissible"] is True
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["command"] == "validate-params"
        assert len(manifest["inputs"]["model"]["sha256"]) == 64
        assert manifest["outputs"].keys() == {"constraints.json"}

    def test_violated_model_exits_data_code(self, tmp_path, outdir):
        doc = yaml.safe_load(bundled_model_path("eta7").read_text())
        doc["k"]["k1"] = 1e-12  # forces z1 < 0
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(doc))
        code = run("validate-params", "--model", str(bad), "--out", str(outdir))
        assert code == EXIT_DATA
        report = json.loads((outdir / "constraints.json").read_text())
        assert report["status1"] == "violated"

    def test_derive_bcs_report(self, outdir):
        code = run("derive-bcs", "--model", "maxwell", "--out", str(outdir))
        assert code == EXIT_OK
        doc = json.loads((outdir / "boundary_coefficients.json").read_text())
        assert doc["coefficients"]["S1"] == pytest.approx(0.746496, rel=1e-6)
        assert doc["consistent"] is True
        assert doc["psd"]["ok"] is True

    def test_korn_outputs(self, outdir):
        code = run("korn", "--out", str(outdir))
        assert code == EXIT_OK
        doc = json.loads((outdir / "korn_report.json").read_text())
        assert doc["stf_kernel_dim"] == 10
        assert doc["lambda_min_boundary"] > 0.0
        tails = read_csv(outdir / "korn_tails.csv")
        assert set(tails.dtype.names) == {"index", "classical", "boundary", "stf"}
        assert tails["classical"].size == 12

    def test_korn_tails_write_stf_kernel_as_zero(self, tmp_path, outdir):
        # The kernel eigenvalues are roundoff; the rest of the tail is written
        # as computed.
        config = tmp_path / "korn.yaml"
        config.write_text("n: 2\ndegree: 1\ntail: 12\n")
        assert run("korn", "--config", str(config), "--out", str(outdir)) == EXIT_OK
        dim = json.loads((outdir / "korn_report.json").read_text())["stf_kernel_dim"]
        stf = [line.split(",")[3]
               for line in (outdir / "korn_tails.csv").read_text().splitlines()[1:]]
        report = korn.korn_constants(korn.assemble_cube_forms(korn.build_cube_mesh(2, 1)))
        assert 0 < dim < len(stf) == 12
        assert stf[:dim] == ["0.0"] * dim
        assert stf[dim:] == [repr(float(v)) for v in report.stf_tail[dim:]]

    def test_oversized_korn_mesh_is_config_error(self, monkeypatch, outdir):
        # The forms object is lazy: korn_constants checks the size before
        # it builds any block.
        def no_assembly(*args):
            raise AssertionError("assembled before the size check")

        monkeypatch.setattr(korn, "MAX_DENSE_DOFS", 10)
        monkeypatch.setattr(korn.CubeForms, "reduced_blocks", no_assembly)
        assert run("korn", "--out", str(outdir)) == EXIT_CONFIG

    def test_korn_mesh_beyond_dense_cap_names_its_size(self, tmp_path, outdir, capsys):
        config = tmp_path / "korn.yaml"
        config.write_text("n: 100\n")
        assert run("korn", "--config", str(config), "--out", str(outdir)) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "r13lab: mesh has 24361803 dofs; dense eigensolves support at most 6000\n")
        assert not outdir.exists()

    def test_korn_rejects_model_flag(self, outdir):
        with pytest.raises(SystemExit) as err:
            run("korn", "--model", "eta7", "--out", str(outdir))
        assert err.value.code == EXIT_CONFIG


class TestSolves:
    def test_steady_equilibrium_profiles_constant(self, tmp_path, outdir):
        config = write_config(tmp_path, problem="equilibrium",
                              wall_temperature=0.7, elements=8)
        code = run("solve-steady", "--model", "eta7", "--config", config,
                   "--out", str(outdir))
        assert code == EXIT_OK
        profile = read_csv(outdir / "profile.csv")
        assert np.abs(profile["theta"] - 0.7).max() <= 1e-10
        for name in profile.dtype.names:
            if name not in ("x", "theta"):
                assert np.abs(profile[name]).max() <= 1e-10
        monitors = json.loads((outdir / "monitors.json").read_text())
        assert monitors["residual_rel"] <= 1e-8

    @pytest.mark.parametrize("name,formulation,wall", [
        ("eta7", "nonmaxwell", slab.WallData.couette()),
        ("maxwell", "maxwell", slab.WallData.fourier())])
    def test_profile_csv_matches_per_cell_writer(self, tmp_path, name, formulation, wall):
        # Reference: one row per point, built from its entries of the
        # batched flux record and formatted cell by cell.
        from r13lab import cli
        from r13lab.models import resolve_model

        asm = slab.SlabAssembly(slab.SlabMesh(8, 2), resolve_model(name), 0.1, formulation)
        state, _ = slab.solve_steady(asm, wall)
        header, rows = cli._profile_rows(state, 41)
        cli._write_csv(tmp_path / "profile.csv", header, rows)
        x, vals, fluxes = state.profile(41)
        lines = [",".join(header)]
        for i in range(x.size):
            sig = fluxes.sigma.matrix()[i]
            row = [x[i], *vals[:, i], sig[0, 0], sig[0, 1], sig[0, 2], sig[1, 1],
                   sig[1, 2], sig[2, 2], *fluxes.s[i]]
            lines.append(",".join(repr(float(v)) for v in row))
        assert (tmp_path / "profile.csv").read_text() == "\n".join(lines) + "\n"

    def test_transient_monitor_csv_monotone(self, tmp_path, outdir):
        config = write_config(tmp_path, elements=16, steps=30)
        code = run("solve-transient", "--model", "eta7", "--config", config,
                   "--seed", "11", "--out", str(outdir))
        assert code == EXIT_OK
        trace = read_csv(outdir / "monitors.csv")
        assert trace["step"].size == 31
        assert trace["time"][-1] == pytest.approx(0.3)
        energy = trace["energy"]
        assert np.all(np.diff(energy) <= 1e-12 * energy[0])
        assert np.all(trace["w1"] <= 1e-12)
        assert (outdir / "final_profile.csv").exists()

    def test_identical_config_and_seed_rerun_bit_identical(self, tmp_path):
        config = write_config(tmp_path, elements=8, steps=5)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run("solve-transient", "--model", "eta7", "--config",
                       config, "--seed", "4", "--out", str(out)) == EXIT_OK
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_changes_random_initial_state(self, tmp_path):
        config = write_config(tmp_path, elements=8, steps=2)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run("solve-transient", "--model", "eta7", "--config", config,
            "--seed", "1", "--out", str(out1))
        run("solve-transient", "--model", "eta7", "--config", config,
            "--seed", "2", "--out", str(out2))
        e1 = read_csv(out1 / "monitors.csv")["energy"][0]
        e2 = read_csv(out2 / "monitors.csv")["energy"][0]
        assert e1 != e2

    def test_zero_initial_state_stays_at_rest(self, tmp_path, outdir):
        config = write_config(tmp_path, elements=8, steps=3, initial="zero")
        code = run("solve-transient", "--model", "eta7", "--config", config,
                   "--out", str(outdir))
        assert code == EXIT_OK
        assert list(read_csv(outdir / "monitors.csv")["energy"]) == [0.0] * 4

    def test_unknown_initial_state_is_config_error(self, tmp_path, outdir, capsys):
        config = write_config(tmp_path, elements=8, steps=3, initial="gaussian")
        code = run("solve-transient", "--model", "eta7", "--config", config,
                   "--out", str(outdir))
        assert code == EXIT_CONFIG
        assert "unknown initial state 'gaussian'" in capsys.readouterr().err

    def test_steady_fourier_problem(self, tmp_path, outdir):
        config = write_config(tmp_path, problem="fourier", elements=8)
        code = run("solve-steady", "--model", "eta7", "--config", config,
                   "--out", str(outdir))
        assert code == EXIT_OK
        monitors = json.loads((outdir / "monitors.json").read_text())
        assert monitors["residual_rel"] <= 1e-8
        assert monitors["wall_load"] != 0.0

    def test_converge_table(self, tmp_path, outdir):
        config = write_config(tmp_path, kn=1.0, levels=[4, 8, 16])
        code = run("converge", "--model", "eta7", "--config", config,
                   "--out", str(outdir))
        assert code == EXIT_OK
        table = read_csv(outdir / "convergence.csv")
        assert list(table["n_elements"]) == [4, 8, 16]
        assert np.all(np.diff(table["total_error"]) < 0.0)

    def test_solver_failure_exit_code(self, monkeypatch, outdir):
        def boom(assembly, wall):
            raise slab.SolverError("synthetic failure")

        monkeypatch.setattr(slab, "solve_steady", boom)
        code = run("solve-steady", "--model", "eta7", "--out", str(outdir))
        assert code == EXIT_SOLVER

    def test_overflowing_wall_data_is_solver_failure(self, tmp_path, outdir):
        # A drive of 1e308 overflows the residual and load norms, and their
        # ratio is NaN: the solve fails and writes no output.
        config = write_config(tmp_path, problem="couette", wall_speed=1.0e308, elements=16)
        code = run("solve-steady", "--model", "eta7", "--config", config,
                   "--out", str(outdir))
        assert code == EXIT_SOLVER
        for name in ("profile.csv", "monitors.json", "manifest.json"):
            assert not (outdir / name).exists()

    def test_overflowing_load_norm_is_solver_failure(self, tmp_path, outdir):
        # At 1e160 the load norm overflows but the residual norm does not:
        # the solve fails before any output is written.
        config = write_config(tmp_path, problem="couette", wall_speed=1.0e160, elements=16)
        code = run("solve-steady", "--model", "eta7", "--config", config,
                   "--out", str(outdir))
        assert code == EXIT_SOLVER
        assert not outdir.exists() or not any(outdir.iterdir())


class TestPlumbing:
    def test_missing_model_is_config_error(self, outdir):
        assert run("solve-steady", "--out", str(outdir)) == EXIT_CONFIG

    def test_maxwell_model_needs_maxwell_formulation(self, tmp_path, outdir, capsys):
        # D16: the default coercive grouping has no well-posed steady
        # solve for a Maxwell-type model; that is a configuration error.
        assert run("solve-steady", "--model", "maxwell", "--out", str(outdir)) == EXIT_CONFIG
        assert "formulation: maxwell" in capsys.readouterr().err
        assert not (outdir / "profile.csv").exists()
        config = write_config(tmp_path, formulation="maxwell", elements=8)
        assert run("solve-steady", "--model", "maxwell", "--config", config,
                   "--out", str(outdir)) == EXIT_OK

    def test_flagged_nonmaxwell_model_is_config_error(self, tmp_path, outdir, capsys):
        # A maxwell flag on a model off the Maxwell limit: the loader
        # rejects it, so every command that reads the model exits 2.
        doc = yaml.safe_load(bundled_model_path("eta7").read_text())
        doc["maxwell"] = True
        model = tmp_path / "eta7-flagged.yaml"
        model.write_text(yaml.safe_dump(doc))
        config = write_config(tmp_path, formulation="maxwell", elements=8)
        assert run("solve-steady", "--model", str(model), "--config", config,
                   "--out", str(outdir)) == EXIT_CONFIG
        assert "maxwell: true needs the Maxwell limit" in capsys.readouterr().err
        assert not (outdir / "profile.csv").exists()
        for command in ("validate-params", "derive-bcs"):
            assert run(command, "--model", str(model), "--out", str(outdir)) == EXIT_CONFIG
            assert "maxwell: true needs the Maxwell limit" in capsys.readouterr().err

    def test_inconsistent_matching_model(self, tmp_path, outdir, capsys):
        # eta7 with m67 changed: every proportionality ratio agrees, the
        # normal-stress matching does not.  A solve needs the strict table
        # and exits 2; derive-bcs reports the table as inconsistent, exit 3.
        doc = yaml.safe_load(bundled_model_path("eta7").read_text())
        doc["m"][5][6] = 2.0
        model = tmp_path / "eta7-m67.yaml"
        model.write_text(yaml.safe_dump(doc))
        assert run("solve-steady", "--model", str(model), "--out", str(outdir)) == EXIT_CONFIG
        assert ("normal-stress matching system is inconsistent beyond tolerance"
                in capsys.readouterr().err)
        assert not (outdir / "monitors.json").exists()
        assert run("derive-bcs", "--model", str(model), "--out", str(outdir)) == EXIT_DATA
        report = json.loads((outdir / "boundary_coefficients.json").read_text())
        assert report["matching"]["consistent"] is False and report["consistent"] is False
        assert report["proportionality"]["inconsistent"] == []

    def test_config_error_leaves_no_out_directory(self, tmp_path, capsys):
        # The output directory is made by the first output, so a run that
        # exits 2 before writing one leaves a fresh --out path absent.
        out = tmp_path / "fresh" / "out"
        assert run("solve-steady", "--out", str(out)) == EXIT_CONFIG
        config = write_config(tmp_path, problem="couette", elements=0)
        assert run("solve-steady", "--model", "eta7", "--config", config,
                   "--out", str(out)) == EXIT_CONFIG
        config = write_config(tmp_path, degree=3)
        assert run("korn", "--config", config, "--out", str(out)) == EXIT_CONFIG
        assert not out.exists() and not out.parent.exists()
        capsys.readouterr()

    def test_unknown_bundled_model(self, outdir):
        code = run("validate-params", "--model", "nosuch", "--out", str(outdir))
        assert code == EXIT_CONFIG

    def test_unknown_config_key(self, tmp_path, outdir):
        config = write_config(tmp_path, problem="couette")
        # solve-transient runs homogeneous walls only; problem is not a key
        code = run("solve-transient", "--model", "eta7", "--config", config,
                   "--out", str(outdir))
        assert code == EXIT_CONFIG

    def test_zero_threads_is_config_error(self, outdir, capsys):
        code = run("validate-params", "--model", "eta7", "--threads", "0",
                   "--out", str(outdir))
        assert code == EXIT_CONFIG
        assert "--threads must be a positive integer" in capsys.readouterr().err

    def test_empty_config_runs_with_the_defaults(self, tmp_path):
        empty = tmp_path / "empty.yaml"
        empty.write_text("")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("korn", "--config", str(empty), "--out", str(out1)) == EXIT_OK
        assert run("korn", "--out", str(out2)) == EXIT_OK
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["config"] == cli.CONFIG_DEFAULTS["korn"]
        for name in ("korn_report.json", "korn_tails.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_unknown_formulation_is_config_error(self, tmp_path, outdir, capsys):
        config = write_config(tmp_path, formulation="foo", elements=8)
        code = run("solve-steady", "--model", "eta7", "--config", config,
                   "--out", str(outdir))
        assert code == EXIT_CONFIG
        assert "unknown formulation 'foo'" in capsys.readouterr().err

    def test_unknown_problem_name(self, tmp_path, outdir):
        config = write_config(tmp_path, problem="vortex")
        code = run("solve-steady", "--model", "eta7", "--config", config,
                   "--out", str(outdir))
        assert code == EXIT_CONFIG

    def test_config_must_be_mapping(self, tmp_path, outdir):
        path = tmp_path / "config.yaml"
        path.write_text("- just\n- a list\n")
        code = run("solve-steady", "--model", "eta7", "--config", str(path),
                   "--out", str(outdir))
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("flag", ["--config", "--model"])
    def test_malformed_yaml_is_config_error(self, tmp_path, outdir, flag):
        path = tmp_path / "broken.yaml"
        path.write_text("kn: [0.1,\n")
        model = ["--model", "eta7"] if flag == "--config" else []
        code = run("solve-steady", *model, flag, str(path), "--out", str(outdir))
        assert code == EXIT_CONFIG

    def test_invalid_elements_value(self, tmp_path, outdir):
        config = write_config(tmp_path, elements=-3)
        code = run("solve-steady", "--model", "eta7", "--config", config,
                   "--out", str(outdir))
        assert code == EXIT_CONFIG

    def test_element_count_beyond_exact_float_nodes_is_config_error(self, tmp_path, outdir):
        # 10**20 elements once crashed with an OverflowError while the wall
        # traces were located.
        config = write_config(tmp_path, elements=10**20)
        code = run("solve-steady", "--model", "eta7", "--config", config,
                   "--out", str(outdir))
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("key,value", [("kn", float("nan")),
                                           ("kn", float("inf")),
                                           ("wall_speed", float("-inf"))])
    def test_non_finite_number_is_config_error(self, tmp_path, outdir, key,
                                               value):
        config = write_config(tmp_path, **{key: value})
        code = run("solve-steady", "--model", "eta7", "--config", config,
                   "--out", str(outdir))
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("command,exponent,decimal,outputs", [
        ("solve-steady", "kn: 1e-3", "kn: 0.001", ("profile.csv", "monitors.json")),
        ("solve-transient", "dt: 5e-3", "dt: 0.005", ("monitors.csv", "final_profile.csv"))])
    def test_exponent_float_reads_as_its_decimal(self, tmp_path, command, exponent, decimal,
                                                 outputs):
        # PyYAML reads an exponent without a dot as a string, which once
        # failed as "must be a finite number".
        assert isinstance(yaml.safe_load(exponent).popitem()[1], str)
        texts = []
        for name, line in (("exponent", exponent), ("decimal", decimal)):
            config = tmp_path / f"{name}.yaml"
            config.write_text(f"elements: 8\nsteps: 4\n{line}\n" if command == "solve-transient"
                              else f"elements: 8\n{line}\n")
            out = tmp_path / name
            assert run(command, "--model", "eta7", "--config", str(config),
                       "--out", str(out)) == EXIT_OK
            texts.append([(out / output).read_bytes() for output in outputs])
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("command,line", [("solve-steady", "kn: 1.0e-320"),
                                              ("solve-transient", "dt: 1.0e-320")])
    def test_subnormal_divisor_is_config_error(self, tmp_path, outdir, capsys, command, line):
        # Kn and dt divide: a subnormal one once overflowed the relaxation
        # term or M/dt and failed as a singular factorization (exit 4).
        config = tmp_path / "config.yaml"
        config.write_text(f"elements: 8\n{line}\n")
        assert run(command, "--model", "eta7", "--config", str(config),
                   "--out", str(outdir)) == EXIT_CONFIG
        assert "must be positive and finite" in capsys.readouterr().err
        assert not outdir.exists()

    def test_model_integer_beyond_float_range_is_config_error(self, tmp_path, outdir, capsys):
        # float() of such an int once raised OverflowError: a traceback and
        # exit 1.
        doc = yaml.safe_load(bundled_model_path("eta7").read_text())
        doc["k"]["k0"] = 10**400
        path = tmp_path / "model.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert run("validate-params", "--model", str(path), "--out", str(outdir)) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("r13lab: k0 must be a finite number, got 1000")

    def test_out_of_memory_is_config_error(self, monkeypatch, outdir, capsys):
        # A run too large for memory (elements: 10**12, say) once ended in
        # a numpy traceback and exit 1; no test makes the allocation.
        def too_large(assembly, wall):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(slab, "solve_steady", too_large)
        assert run("solve-steady", "--model", "eta7", "--out", str(outdir)) == EXIT_CONFIG
        assert capsys.readouterr().err == "r13lab: out of memory: Unable to allocate 7.28 TiB\n"

    def test_boolean_level_is_config_error(self, tmp_path, outdir):
        config = write_config(tmp_path, levels=[True, 2, 4])
        code = run("converge", "--model", "eta7", "--config", config,
                   "--out", str(outdir))
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("ladder", [{"ref_factor": 1}, {"levels": [2, 2, 4]}])
    def test_degenerate_ladder_is_config_error(self, tmp_path, outdir, ladder):
        config = write_config(tmp_path, **ladder)
        code = run("converge", "--model", "eta7", "--config", config,
                   "--out", str(outdir))
        assert code == EXIT_CONFIG
        assert not (outdir / "convergence.csv").exists()

    @pytest.mark.parametrize("command", ["validate-params", "derive-bcs", "solve-steady",
                                         "solve-transient", "converge"])
    @pytest.mark.parametrize("field,value", [
        ("l2", float("inf")), ("m", float("nan")), ("k9", float("nan")),
        ("k6", True), ("maxwell", "yes"), ("k", 3.0),
        ("eta", float("nan")), ("eta", float("inf")), ("eta", True)])
    def test_bad_model_number_is_config_error(self, tmp_path, outdir, capsys,
                                              command, field, value):
        # Every command loads the model first and exits 2 naming the field.
        doc = yaml.safe_load(bundled_model_path("maxwell").read_text())
        if field in doc["k"]:
            doc["k"][field] = value
        elif field == "m":
            doc["m"][2][1] = value
        else:
            doc[field] = value
        path = tmp_path / "model.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert run(command, "--model", str(path), "--out", str(outdir)) == EXIT_CONFIG
        name = "m[3, 2]" if field == "m" else field
        assert f"r13lab: {name} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_output_writes_no_invalid_json(self, tmp_path, outdir, monkeypatch,
                                                      value):
        monitor_dict = cli._monitor_dict
        monkeypatch.setattr(cli, "_monitor_dict",
                            lambda mon: {**monitor_dict(mon), "w1": value})
        config = write_config(tmp_path, elements=4)
        code = run("solve-steady", "--model", "eta7", "--config", config,
                   "--out", str(outdir))
        assert code != EXIT_OK
        assert not (outdir / "monitors.json").exists()
        assert not (outdir / "manifest.json").exists()
        for path in outdir.iterdir():
            text = path.read_text()
            assert "NaN" not in text and "Infinity" not in text

    def test_manifest_independent_of_install_location(self, tmp_path, monkeypatch):
        # A bundled model is recorded by its path within the package, so a
        # copy of the package data elsewhere writes the same manifest; a
        # model file keeps its path as given.
        from r13lab import models

        out = tmp_path / "a"
        assert run("validate-params", "--model", "eta7", "--out", str(out)) == EXIT_OK
        manifest = (out / "manifest.json").read_bytes()
        record = json.loads(manifest)["inputs"]["model"]
        assert record["path"] == "data/eta7.yaml"
        elsewhere = tmp_path / "elsewhere" / "data"
        elsewhere.mkdir(parents=True)
        for name in models.bundled_models():
            (elsewhere / f"{name}.yaml").write_bytes(bundled_model_path(name).read_bytes())
        monkeypatch.setattr(models, "_data_dir", lambda: elsewhere)
        out = tmp_path / "b"
        assert run("validate-params", "--model", "eta7", "--out", str(out)) == EXIT_OK
        assert (out / "manifest.json").read_bytes() == manifest
        user = tmp_path / "mine.yaml"
        user.write_bytes(bundled_model_path("eta7").read_bytes())
        out = tmp_path / "c"
        assert run("validate-params", "--model", str(user), "--out", str(out)) == EXIT_OK
        mine = json.loads((out / "manifest.json").read_text())["inputs"]["model"]
        assert mine == {"source": str(user), "path": str(user), "sha256": record["sha256"]}
        # An existing file without a .yaml or .yml suffix is a model file too.
        bare = tmp_path / "mine"
        bare.write_bytes(user.read_bytes())
        out = tmp_path / "d"
        assert run("validate-params", "--model", str(bare), "--out", str(out)) == EXIT_OK
        mine = json.loads((out / "manifest.json").read_text())["inputs"]["model"]
        assert mine == {"source": str(bare), "path": str(bare), "sha256": record["sha256"]}

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("R13LAB_OUT", str(target))
        assert run("validate-params", "--model", "eta7") == EXIT_OK
        assert (target / "manifest.json").exists()

    def test_threads_flag_recorded_and_applied(self, tmp_path, monkeypatch):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        out = tmp_path / "out"
        code = run("validate-params", "--model", "eta7", "--out", str(out),
                   "--threads", "1")
        assert code == EXIT_OK
        import os

        assert os.environ["OMP_NUM_THREADS"] == "1"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["threads"] == 1

    def test_parser_built_once_and_calls_parse_independently(self, tmp_path,
                                                             monkeypatch):
        # The parser is cached per process; alternating subcommands and
        # arguments must not leak between calls, and defaults must hold.
        seen = []

        def record(cfg, out_dir, args):
            seen.append(vars(args))
            return EXIT_OK

        for name, (_, takes_model, helptext) in list(cli._COMMANDS.items()):
            monkeypatch.setitem(cli._COMMANDS, name, (record, takes_model, helptext))
        for var in cli._THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv(cli.OUT_ENV_VAR, str(tmp_path / "env-out"))
        out = str(tmp_path / "out")
        config = write_config(tmp_path, n=1)
        parser = cli._build_parser()
        assert run("solve-steady", "--model", "maxwell", "--seed", "7",
                   "--threads", "1", "--out", out) == EXIT_OK
        assert run("korn", "--config", config) == EXIT_OK
        assert run("solve-steady") == EXIT_OK
        assert run("derive-bcs", "--seed", "3", "--model", "eta7") == EXIT_OK
        assert run("korn") == EXIT_OK
        assert cli._build_parser() is parser
        steady = {"command": "solve-steady", "model": None, "config": None,
                  "out": None, "seed": 0, "threads": None}
        korn_args = {key: value for key, value in steady.items() if key != "model"}
        assert seen == [
            {**steady, "model": "maxwell", "seed": 7, "threads": 1, "out": out},
            {**korn_args, "command": "korn", "config": config},
            steady,
            {**steady, "command": "derive-bcs", "model": "eta7", "seed": 3},
            {**korn_args, "command": "korn"},
        ]
