import csv
import functools
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from morseflow.cli import (
    BUILTIN,
    STAGES,
    ExperimentReport,
    ValidationError,
    builtin_problem,
    emit_report,
    load_problem,
    main,
    problem_objects,
    run_experiment,
    spec_from_mapping,
)
from morseflow.critical import DEFAULT_GRID_DENSITY, MAX_GRID_SEEDS, default_grid_density


def load_report(path):
    with open(path) as fh:
        return ExperimentReport(**json.load(fh), trajectories={})


@pytest.fixture(scope="module")
def saddle_full_report():
    return run_experiment(builtin_problem("saddle"), stages=STAGES)


def write_problem(tmp_path, **overrides):
    doc = dict(BUILTIN["saddle"])
    doc.update(overrides)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    return path


class TestRegistry:
    def test_exactly_four_benchmarks(self):
        assert sorted(BUILTIN) == ["cone", "planes", "quartic", "saddle"]

    def test_saddle_content(self):
        spec = builtin_problem("saddle")
        assert spec.variables == ("x", "y")
        assert spec.objective == "x^2 - y^2"
        assert spec.constraints == ()
        assert spec.box == ((-2.0, 2.0), (-2.0, 2.0))
        assert spec.proper_on_box

    def test_quartic_is_one_dimensional(self):
        spec = builtin_problem("quartic")
        assert spec.variables == ("x",)
        assert spec.objective == "x^4"
        assert spec.box == ((-1.5, 1.5),)

    def test_planes_carries_the_crossing_constraint(self):
        spec = builtin_problem("planes")
        assert spec.constraints == ("x*y",)
        assert spec.objective == "x^2 - y^2"

    def test_cone_has_band_and_level_offset_overrides(self):
        spec = builtin_problem("cone")
        assert spec.constraints == ("x^2 + y^2 - z^2",)
        assert spec.objective == "x"
        assert spec.tolerances["band"] == [-0.8, 0.8]
        assert spec.tolerances["cond4_eps"] == 0.01

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            builtin_problem("paraboloid")

    def test_problem_objects_shapes(self):
        f, Z = problem_objects(builtin_problem("cone"))
        assert Z.ambient_dim == 3
        assert len(Z.constraints) == 1
        assert f.evaluate([0.25, 0.0, 0.25]) == 0.25


class TestLoadProblem:
    def test_valid_file(self, tmp_path):
        spec = load_problem(write_problem(tmp_path))
        assert spec.name == "saddle"
        assert spec.seed == 0

    def test_invalid_json_names_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="line 1"):
            load_problem(path)

    def test_missing_field(self, tmp_path):
        doc = dict(BUILTIN["saddle"])
        del doc["box"]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="'box'"):
            load_problem(path)

    def test_reversed_box_rejected(self, tmp_path):
        path = write_problem(tmp_path, box=[[2, -2], [-2, 2]])
        with pytest.raises(ValidationError, match="box\\[0\\]"):
            load_problem(path)

    def test_undeclared_variable_named_in_error(self, tmp_path):
        path = write_problem(tmp_path, constraints=["x*z"])
        with pytest.raises(ValidationError, match="z"):
            load_problem(path)

    def test_objective_syntax_error_carries_position(self, tmp_path):
        path = write_problem(tmp_path, objective="x ++ y")
        with pytest.raises(ValidationError, match="position"):
            load_problem(path)

    def test_duplicate_variables(self):
        with pytest.raises(ValidationError, match="duplicates"):
            spec_from_mapping({**BUILTIN["saddle"], "variables": ["x", "x"]})

    def test_box_length_mismatch(self):
        with pytest.raises(ValidationError, match="box"):
            spec_from_mapping({**BUILTIN["saddle"], "box": [[-2, 2]]})

    def test_unknown_tolerance_key(self):
        with pytest.raises(ValidationError, match="tolerances"):
            spec_from_mapping({**BUILTIN["saddle"], "tolerances": {"bandwidth": 1}})

    def test_unknown_top_level_field(self):
        with pytest.raises(ValidationError, match="unknown field"):
            spec_from_mapping({**BUILTIN["saddle"], "objectivee": "x"})

    def test_seed_must_be_integer(self):
        with pytest.raises(ValidationError, match="seed"):
            spec_from_mapping({**BUILTIN["saddle"], "seed": "0"})

    def test_seed_must_not_be_negative(self, tmp_path, capsys):
        with pytest.raises(ValidationError, match="'seed' must be a non-negative integer, got -1"):
            spec_from_mapping({**BUILTIN["saddle"], "seed": -1})
        path = write_problem(tmp_path, seed=-1)
        assert main(["run", "--problem", str(path), "--stages", "critical,cond1"]) == 3
        assert "'seed'" in capsys.readouterr().err


class TestRunExperiment:
    def test_stage_dependency_enforced(self):
        with pytest.raises(ValueError, match="requires"):
            run_experiment(builtin_problem("saddle"), stages=("cond4",))

    def test_unknown_stage(self):
        with pytest.raises(ValueError, match="unknown stage"):
            run_experiment(builtin_problem("saddle"), stages=("critical", "plot"))

    def test_subset_run_reports_only_requested_conditions(self):
        report = run_experiment(builtin_problem("saddle"), stages=("critical", "cond1"))
        assert sorted(report.condition_reports) == ["cond1"]
        assert report.corollary_verdict == "inconclusive"
        assert report.verdicts() == ["pass"]

    def test_full_saddle_run(self, saddle_full_report):
        report = saddle_full_report
        assert report.corollary_verdict == "pass"
        assert len(report.critical_points) == 1
        assert report.critical_points[0]["kind"] == "saddle"
        fit = report.lojasiewicz_fits[0]
        assert 0.45 <= fit["theta"] <= 0.60
        for key in ("cond1", "cond2", "cond4"):
            assert report.condition_reports[key]["verdict"] == "pass"
        assert report.trajectory_manifest

    def test_determinism_is_byte_level(self):
        spec = builtin_problem("saddle")
        a = run_experiment(spec, stages=("critical", "loja", "cond1"))
        b = run_experiment(spec, stages=("critical", "loja", "cond1"))
        dump = lambda r: json.dumps(r.to_payload(), sort_keys=True)
        assert dump(a) == dump(b)

    def test_determinism_of_all_stages_is_byte_level(self, saddle_full_report, tmp_path):
        # the flow stages run ensembles; their member order must not vary
        again = run_experiment(builtin_problem("saddle"), stages=STAGES)
        first = emit_report(saddle_full_report, format="json", out_dir=tmp_path / "a")[0]
        second = emit_report(again, format="json", out_dir=tmp_path / "b")[0]
        assert Path(first).read_text() == Path(second).read_text()

    def test_default_grid_density_respects_the_seed_limit(self, monkeypatch):
        import morseflow.critical as critical

        densities = []

        def no_seeds(Z, grid_density):
            densities.append(grid_density)
            return np.zeros((0, Z.ambient_dim))

        monkeypatch.setattr(critical, "_grid_seeds", no_seeds)
        names = [f"x{i}" for i in range(6)]
        doc = dict(BUILTIN["saddle"], name="six", variables=names,
                   objective=" + ".join(f"{v}^2" for v in names), box=[[-1, 1]] * 6)
        report = run_experiment(spec_from_mapping(doc), stages=("critical",))
        assert report.stage_errors == {}
        assert densities == [6]  # 7^6 = 117,649 seeds would exceed the limit
        assert 6**6 <= MAX_GRID_SEEDS
        assert [default_grid_density(n) for n in range(1, 6)] == [DEFAULT_GRID_DENSITY] * 5

    def test_quartic_cond4_vacuous(self):
        report = run_experiment(builtin_problem("quartic"),
                                stages=("critical", "loja", "cond4"))
        frag = report.condition_reports["cond4"]
        assert frag["verdict"] == "pass"
        assert "vacuous" in frag["witnesses"]["warning"]


class TestEmission:
    def test_json_round_trip(self, saddle_full_report, tmp_path):
        files = emit_report(saddle_full_report, format="json", out_dir=tmp_path)
        assert [f.split("/")[-1] for f in files] == ["report.json"]
        loaded = load_report(files[0])
        assert loaded.to_payload() == saddle_full_report.to_payload()

    def test_csv_bundle_contents(self, saddle_full_report, tmp_path):
        files = emit_report(saddle_full_report, format="csv-bundle", out_dir=tmp_path)
        names = sorted(f.split("/")[-1] for f in files)
        assert "report.json" in names
        assert "critical_points.csv" in names
        assert "lojasiewicz_fits.csv" in names
        assert "modulus_table.csv" in names
        assert any(n.startswith("traj_") for n in names)
        assert files == sorted(files)
        header = (tmp_path / "modulus_table.csv").read_text().splitlines()[0]
        assert header == "r,d,n_landed,n_captured"

    def test_every_cone_table_row_has_the_header_length(self, tmp_path):
        # the cone's fit error names the interval "[0.05, 0.95]", a comma
        # that an unquoted row would split into an extra field
        report = run_experiment(builtin_problem("cone"), stages=STAGES)
        files = emit_report(report, format="csv-bundle", out_dir=tmp_path)
        tables = [f for f in files if f.endswith(".csv")]
        assert any(f.endswith("lojasiewicz_fits.csv") for f in tables)
        errors = []
        for path in tables:
            with open(path, newline="") as fh:
                header, *rows = csv.reader(fh)
            assert rows and all(len(row) == len(header) for row in rows), path
            if path.endswith("lojasiewicz_fits.csv"):
                errors = [row[header.index("error")] for row in rows]
        assert any("," in e for e in errors)

    def test_unknown_format(self, saddle_full_report, tmp_path):
        # the format is checked before anything is written
        with pytest.raises(ValueError, match="format"):
            emit_report(saddle_full_report, format="xml", out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()


def test_the_report_keeps_one_trajectory_per_family_tagged_with_its_termination(saddle_full_report):
    report = saddle_full_report
    families = [tag.rsplit("/", 1)[0] for tag in report.trajectories]
    assert families == ["cond2/descend", "cond2/ascend", "cond4/r=0.1", "cond4/r=0.03", "cond4/r=0.01",
                        "cond4/r=0.003"]
    assert all(tag.rsplit("/", 1)[1] == traj.termination for tag, traj in report.trajectories.items())
    assert [e["tag"] for e in report.trajectory_manifest] == list(report.trajectories)


class TestMainExitCodes:
    def test_pass_run(self, tmp_path):
        rc = main(["bench", "saddle", "--stages", "critical,cond1",
                   "--out", str(tmp_path)])
        assert rc == 0

    def test_fail_run_close_critical_values(self, tmp_path):
        # x^2 (x - 0.1)^2 has critical values 0 and 6.25e-6: closer than
        # the isolation gap, so the first condition fails
        path = write_problem(
            tmp_path,
            name="twowell",
            variables=["x"],
            objective="x^4 - 0.2*x^3 + 0.01*x^2",
            constraints=[],
            box=[[-0.2, 0.3]],
            tolerances={"grid_density": 11},
        )
        rc = main(["run", "--problem", str(path), "--stages", "critical,cond1",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        report = load_report(tmp_path / "out" / "report.json")
        assert report.condition_reports["cond1"]["verdict"] == "fail"

    def test_inconclusive_run_shrunk_box(self, tmp_path):
        path = write_problem(tmp_path, name="shrunk", box=[[-0.9, 0.9], [-0.9, 0.9]])
        rc = main(["run", "--problem", str(path), "--stages", "critical,cond2",
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_usage_error_bad_stage(self):
        assert main(["bench", "saddle", "--stages", "cond4"]) == 3

    def test_usage_error_missing_argument(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run"])
        assert err.value.code == 3

    def test_runtime_error_missing_file(self):
        assert main(["run", "--problem", "/nonexistent/p.json"]) == 4

    def test_problem_file_that_is_not_utf8_is_a_usage_error(self, tmp_path, capsys):
        doc = {**json.loads((PROBLEMS / "cone-lift.json").read_text()), "name": "c\xf4ne"}
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("latin-1"))
        assert main(["run", "--problem", str(path), "--stages", "critical"]) == 3
        err = capsys.readouterr().err
        assert err.strip() == f"morseflow: {path}: not JSON text: byte 11 is not valid utf-8"

    def test_flow_subcommand_writes_csv(self, tmp_path):
        path = write_problem(tmp_path)
        out = tmp_path / "flow.csv"
        rc = main(["flow", "--problem", str(path), "--from", "1.0,0.0",
                   "--direction", "down", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,y_1,y_2,f,grad_norm,arc_len"
        assert len(lines) > 2

    def test_flow_bad_coordinates(self, tmp_path):
        path = write_problem(tmp_path)
        assert main(["flow", "--problem", str(path), "--from", "a,b"]) == 3
        assert main(["flow", "--problem", str(path), "--from", "1.0"]) == 3

    def test_negative_seed_override_is_a_usage_error(self, capsys):
        assert main(["bench", "saddle", "--seed", "-1", "--stages", "critical,cond1"]) == 3
        assert "--seed must be a non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("start", ["nan,0.0", "0.5,inf", "-inf,0.5", "3.0,0.0", "0.0,-2.5"])
    def test_flow_start_off_the_box_is_a_usage_error(self, tmp_path, capsys, start):
        path = write_problem(tmp_path)
        assert main(["flow", "--problem", str(path), f"--from={start}"]) == 3
        assert "--from" in capsys.readouterr().err

    @pytest.mark.parametrize("level", ["nan", "inf", "-inf"])
    def test_flow_non_finite_stop_level_is_a_usage_error(self, tmp_path, capsys, level):
        path = write_problem(tmp_path)
        assert main(["flow", "--problem", str(path), "--from", "1.0,0.0", f"--stop-level={level}"]) == 3
        assert "--stop-level" in capsys.readouterr().err

    @pytest.mark.parametrize("direction, level, side", [("down", "0.9", "above"), ("up", "0.1", "below")])
    def test_flow_stop_level_behind_the_start_is_a_usage_error(self, capsys, direction, level, side):
        rc = main(["flow", "--problem", str(PROBLEMS / "cone-lift.json"), "--from", "0.5,0,0.5,0",
                   "--direction", direction, "--stop-level", level])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"--stop-level {level} is {side} f = 0.5 at the start" in err
        assert "Traceback" not in err

    def test_flow_on_the_lifted_cone_reaches_its_level(self, tmp_path):
        out = tmp_path / "flow.csv"
        rc = main(["flow", "--problem", str(PROBLEMS / "cone-lift.json"), "--from", "0.5,0,0.5,0",
                   "--stop-level", "0.1", "--out", str(out)])
        assert rc == 0
        last = [float(v) for v in out.read_text().splitlines()[-1].split(",")]
        assert last[5] == pytest.approx(0.1, abs=1e-9)


def test_console_subprocess_smoke(tmp_path):
    run = subprocess.run(
        [sys.executable, "-m", "morseflow", "bench", "saddle",
         "--stages", "critical,cond1", "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "report.json").exists()

    usage = subprocess.run([sys.executable, "-m", "morseflow"],
                           capture_output=True, text=True)
    assert usage.returncode == 3


def test_the_cli_module_run_as_a_script_points_at_the_package():
    # a second copy of cli would run the command; exit 0 would read as all-pass
    run = subprocess.run([sys.executable, "-m", "morseflow.cli", "bench", "saddle"],
                         capture_output=True, text=True)
    assert run.returncode == 3
    assert run.stdout == ""
    assert "python -m morseflow ..." in run.stderr


def test_the_package_entry_runs_the_package_cli_under_strict_warnings():
    # stage lines come from the package's own cli, so a forked stage's records reach its handler
    run = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::RuntimeWarning", "-m", "morseflow", "-v",
         "bench", "quartic", "--stages", "critical"],
        capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    stage_lines = [line for line in run.stderr.splitlines() if '"stage": ' in line]
    assert stage_lines and all(line.startswith("INFO morseflow.cli: ") for line in stage_lines)


PROBLEMS = Path(__file__).resolve().parent / "problems"


class TestToleranceValidation:
    @pytest.mark.parametrize("tolerances", [
        {"band": "ab"},
        {"band": [1, -1]},
        {"band": [-1, float("inf")]},
        {"band": [-1, 0, 1]},
        {"grid_density": 10**6},
        {"grid_density": 1},
        {"grid_density": 7.5},
        {"cond4_eps": -1},
    ], ids=repr)
    def test_bad_tolerance_is_a_usage_error(self, tmp_path, tolerances):
        path = write_problem(tmp_path, tolerances=tolerances)
        assert main(["run", "--problem", str(path), "--stages", "critical"]) == 3

    @pytest.mark.parametrize("key", ["fit_radius", "conv_grad_tol"])
    def test_a_retired_tolerance_is_an_unknown_key(self, tmp_path, capsys, key):
        path = write_problem(tmp_path, tolerances={"band": [-1, 1], key: 0.1})
        assert main(["run", "--problem", str(path), "--stages", "critical"]) == 3
        assert f"field 'tolerances' has unknown key(s) ['{key}']" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("objective", "1e400*x^2 + y"),
        ("constraints", ["x - 1e400*y"]),
    ])
    def test_non_finite_coefficient_is_a_usage_error(self, tmp_path, field, value):
        path = write_problem(tmp_path, **{field: value})
        assert main(["run", "--problem", str(path), "--stages", "critical"]) == 3

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [True]], ids=repr)
    def test_proper_on_box_must_be_a_json_boolean(self, tmp_path, value):
        # "false" is truthy, and read as true it would let the corollary pass
        path = write_problem(tmp_path, proper_on_box=value)
        assert main(["run", "--problem", str(path), "--stages", "critical"]) == 3

    @pytest.mark.parametrize("value", [True, False])
    def test_proper_on_box_booleans_load(self, value):
        assert spec_from_mapping({**BUILTIN["saddle"], "proper_on_box": value}).proper_on_box is value

    @pytest.mark.parametrize("value", [5, None, ["saddle"]], ids=repr)
    def test_name_must_be_a_string(self, tmp_path, value):
        path = write_problem(tmp_path, name=value)
        assert main(["run", "--problem", str(path), "--stages", "critical"]) == 3

    @pytest.mark.parametrize("pair", [
        ["-1", 2],
        [-2, "2"],
        [False, 2],
        [-2, True],
        [-2, 2, 3],
        [-2],
        "ab",
        None,
        [None, 2],
        pytest.param([-2, 10**400], id="[-2, 10**400]"),
        [2, 2],
        pytest.param([2**53, 2**53 + 1], id="[2**53, 2**53 + 1]"),  # equal as floats
        # written as the literals -Infinity, Infinity and NaN, which Python's
        # json module reads; with the infinite box the saddle's origin came
        # out unresolved, with exit 0
        [float("-inf"), 2],
        [-2, float("inf")],
        [float("nan"), 2],
    ], ids=repr)
    def test_bad_box_bound_is_a_usage_error(self, tmp_path, pair):
        path = write_problem(tmp_path, box=[pair, [-2, 2]])
        with pytest.raises(ValidationError, match=r"box\[0\]"):
            load_problem(path)
        assert main(["run", "--problem", str(path)]) == 3

    @pytest.mark.parametrize("doc", [
        # hi - lo overflows, so every grid seed but 1e308 was NaN or inf,
        # and the run found no critical point and passed cond1 and cond4
        {"variables": ["x"], "objective": "x^4", "box": [[-1e308, 1e308]]},
        # each span is finite, but the box diameter is not
        {"variables": ["x", "y"], "objective": "x^2 - y^2", "box": [[0, 1.5e308], [0, 1.5e308]]},
    ], ids=["span", "diameter"])
    def test_overflowing_box_diameter_is_a_usage_error(self, tmp_path, capsys, doc):
        with pytest.raises(ValidationError, match="'box' must have a finite diameter"):
            spec_from_mapping({**BUILTIN["saddle"], **doc})
        path = write_problem(tmp_path, **doc)
        assert main(["run", "--problem", str(path)]) == 3
        assert "'box'" in capsys.readouterr().err

    def test_float_and_integer_box_bounds_load(self):
        spec = spec_from_mapping({**BUILTIN["saddle"], "box": [[-2, 2.5], (-1.5, 2)]})
        assert spec.box == ((-2.0, 2.5), (-1.5, 2.0))

    def test_grid_density_at_the_seed_limit_is_accepted(self):
        doc = dict(BUILTIN["saddle"], tolerances={"grid_density": 316})
        assert spec_from_mapping(doc).tolerances["grid_density"] == 316


class TestUnsettledCriticalPoints:
    def test_lifted_planes_condition4_is_not_a_vacuous_pass(self, tmp_path, monkeypatch):
        # condition 4 must not pass over a critical point it never checked
        import morseflow.cli as cli

        real = cli.classify

        def unsettled_origin(f, Z, cp, **kw):
            if max(abs(v) for v in cp.location) < 1e-6:
                return "unresolved"
            return real(f, Z, cp, **kw)

        monkeypatch.setattr(cli, "classify", unsettled_origin)
        rc = main(["run", "--problem", str(PROBLEMS / "planes-lift.json"),
                   "--stages", "critical,loja,cond4", "--out", str(tmp_path)])
        report = load_report(tmp_path / "report.json")
        kinds = [cp["kind"] for cp in report.critical_points]
        frag = report.condition_reports["cond4"]
        assert "unresolved" in kinds
        assert frag["verdict"] == "inconclusive"
        assert str([kinds.index("unresolved")]) in frag["witnesses"]["reason"]
        assert "kinds_settled" in frag["witnesses"]["reason"]
        assert frag["premises"]["kinds_settled"]["status"] == "failed"
        assert report.corollary_verdict != "pass"
        assert rc == 2

    @pytest.mark.parametrize("edit", [
        {"tolerances": {"band": [-0.8, 0.8], "cond4_eps": 0.01, "grid_density": 6}},
        {"box": [[-2, 2], [-2.1, 2], [-2, 2.2], [-1, 1]]},
        {"variables": ["x", "y", "z", "w", "v", "u"], "constraints": ["x^2 + y^2 - z^2", "w", "v", "u"],
         "box": [[-2, 2], [-2, 2], [-2, 2], [-1, 1], [-1, 1], [-1, 1]]},
    ], ids=["density-6", "shifted-box", "six-variables"])
    def test_lifted_cone_whose_vertex_is_missed_is_not_a_vacuous_pass(self, tmp_path, edit):
        # the critical search misses the vertex of these lifted cones; an empty
        # search must not let any condition, or the corollary, pass
        doc = {**json.loads((PROBLEMS / "cone-lift.json").read_text()), **edit}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--problem", str(path), "--out", str(tmp_path)]) == 2
        report = load_report(tmp_path / "report.json")
        assert report.critical_points == []
        cond1, cond2, cond4 = (report.condition_reports[k] for k in ("cond1", "cond2", "cond4"))
        assert cond1["verdict"] == cond2["verdict"] == cond4["verdict"] == report.corollary_verdict == "inconclusive"
        assert "no critical point was found" in cond1["witnesses"]["reason"]
        assert cond1["premises"]["search_complete"] == cond2["premises"]["search_complete"] \
            == cond4["premises"]["search_complete"]
        assert cond4["premises"]["search_complete"]["status"] == "failed"
        # condition 2's check still runs; the failed premise withholds its pass
        assert cond2["witnesses"]["n_samples"] > 0
        for frag in (cond2, cond4):
            assert frag["witnesses"]["reason"].startswith("premise search_complete failed: ")

    @pytest.fixture(scope="class")
    def all_stage_report(self):
        """The all-stage report of a built-in or a problem file, by name, run once for the class.

        The reports are shared, so no test that monkeypatches a module may read them.
        """

        @functools.cache
        def report(name):
            spec = builtin_problem(name) if name in BUILTIN else load_problem(PROBLEMS / f"{name}.json")
            return run_experiment(spec, stages=STAGES)

        return report

    @staticmethod
    def _lift_kinds(all_stage_report, builtin, lift):
        """The kinds of the lifted problem, once its values, verdicts and corollary match the built-in's."""
        flat, lifted = all_stage_report(builtin), all_stage_report(lift)
        kinds = [cp["kind"] for cp in lifted.critical_points]
        assert kinds == [cp["kind"] for cp in flat.critical_points]
        assert [cp["value"] for cp in lifted.critical_points] == \
            pytest.approx([cp["value"] for cp in flat.critical_points], abs=1e-8)
        assert lifted.verdicts() == flat.verdicts()
        assert lifted.corollary_verdict == flat.corollary_verdict == "pass"
        assert lifted.stage_errors == flat.stage_errors == {}
        return kinds

    def test_lifted_planes_match_planes(self, all_stage_report):
        # pinning a new variable by a linear constraint changes no
        # critical value, kind or verdict
        self._lift_kinds(all_stage_report, "planes", "planes-lift")

    def test_lifted_cone_matches_cone(self, all_stage_report):
        # the same lift on a singular Z: the vertex, now on a stratum of
        # two constraints, keeps its value, its kind and every verdict
        assert self._lift_kinds(all_stage_report, "cone", "cone-lift") == ["saddle"]

    def test_graph_lifted_cone_matches_cone(self, all_stage_report):
        # Z with two non-linear rows: the cone on the graph w = x*y
        assert self._lift_kinds(all_stage_report, "cone", "cone-graph") == ["saddle"]

    def test_graph_lifted_saddle_matches_saddle(self, all_stage_report):
        # the graph w = x^2 + y^2 changes the flow's metric, but no critical point
        assert self._lift_kinds(all_stage_report, "saddle", "saddle-graph") == ["saddle"]

    def test_three_row_graph_lifted_cone_keeps_the_cones_kinds_and_verdicts(self, all_stage_report):
        # Z with three rows that are not orthogonal, so the Jacobi sweeps turn
        # all three pairs: the kinds, every verdict and the corollary stay the cone's
        flat, lifted = all_stage_report("cone"), all_stage_report("cone-graph3")
        assert [cp["kind"] for cp in lifted.critical_points] == [cp["kind"] for cp in flat.critical_points] \
            == ["saddle"]
        assert lifted.verdicts() == flat.verdicts()
        assert lifted.corollary_verdict == flat.corollary_verdict == "pass"
        assert lifted.stage_errors == flat.stage_errors == {}

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2's smooth-pass defect: the three-row lift reports "
                                           "the vertex at -1.078e-7, where the cone reports 0")
    def test_three_row_graph_lifted_cone_matches_cone(self, all_stage_report):
        assert self._lift_kinds(all_stage_report, "cone", "cone-graph3") == ["saddle"]

    def test_classify_failure_is_isolated_per_point(self, monkeypatch):
        import morseflow.cli as cli

        real = cli.classify

        def flaky(f, Z, cp, **kw):
            if abs(cp.location[0]) < 0.5:  # the maximum at 0
                raise ValueError("probe outside the box")
            return real(f, Z, cp, **kw)

        monkeypatch.setattr(cli, "classify", flaky)
        doc = dict(BUILTIN["quartic"], objective="x^4 - 2*x^2")
        report = run_experiment(spec_from_mapping(doc), stages=("critical", "loja", "cond4"))
        # points sorted by value: the wells at -1 and 1, then the maximum at 0
        assert [cp["kind"] for cp in report.critical_points] == ["minimum", "minimum", "unresolved"]
        assert sorted(report.stage_errors) == ["classify[2]"]
        assert "probe outside the box" in report.stage_errors["classify[2]"]
        frag = report.condition_reports["cond4"]
        assert frag["verdict"] == "inconclusive"
        assert "[2]" in frag["witnesses"]["reason"]


class TestPremises:
    """Each verdict names the premises it rests on; a failed premise withholds a pass."""

    @staticmethod
    def _statuses(premises):
        return {name: p["status"] for name, p in premises.items()}

    def test_every_pass_names_its_premises(self, saddle_full_report):
        reports = saddle_full_report.condition_reports
        assert self._statuses(reports["cond1"]["premises"]) == {"search_complete": "unchecked"}
        assert self._statuses(reports["cond2"]["premises"]) == {"search_complete": "unchecked", "band_clear": "checked"}
        assert self._statuses(reports["cond4"]["premises"]) == {"search_complete": "unchecked", "kinds_settled": "checked"}
        (entry,) = reports["cond4"]["witnesses"]["per_point"]
        assert entry["premises"] == {"eps_licensed": {"status": "unchecked", "reason": "lojasiewicz fit"}}
        assert self._statuses(saddle_full_report.corollary_premises) == {
            "search_complete": "unchecked", "band_clear": "checked", "kinds_settled": "checked", "proper": "asserted"}
        assert [rep["verdict"] for rep in reports.values()] == ["pass"] * 3
        assert not any("reason" in rep["witnesses"] for rep in reports.values())

    def test_the_verbose_line_names_what_the_corollary_assumes(self, caplog):
        caplog.set_level(logging.INFO, logger="morseflow")
        report = run_experiment(builtin_problem("saddle"), stages=STAGES)
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith('{"corollary"')]
        assert lines == ['{"corollary": "pass", "assumes": {"search_complete": "unchecked", "proper": "asserted"}}']
        assert "assumes" not in json.dumps(report.to_payload())

    def test_a_band_that_touches_a_critical_value_is_not_checked(self):
        doc = dict(BUILTIN["saddle"], tolerances={"band": [0, 1]})
        report = run_experiment(spec_from_mapping(doc), stages=("critical", "cond2"))
        frag = report.condition_reports["cond2"]
        assert frag["verdict"] == "inconclusive"
        assert frag["premises"]["band_clear"]["status"] == "failed"
        assert frag["witnesses"] == {"reason": "premise band_clear failed: band endpoint touches critical value(s) [0.0]"}
        assert report.trajectory_manifest == []

    def test_an_f_not_asserted_proper_leaves_the_corollary_undecided(self, saddle_full_report):
        report = run_experiment(spec_from_mapping(dict(BUILTIN["saddle"], proper_on_box=False)), stages=STAGES)
        assert report.condition_reports == saddle_full_report.condition_reports
        assert report.corollary_premises["proper"] == {"status": "failed", "reason": "proper_on_box is false"}
        assert report.corollary_verdict == "inconclusive"

    def test_a_point_without_a_level_offset_is_not_checked(self, monkeypatch):
        # the cone has no fit, so without cond4_eps nothing licenses an offset
        import morseflow.cli as cli

        checks = []
        monkeypatch.setattr(cli, "check_condition4", lambda *args, **kw: checks.append(args))
        doc = dict(BUILTIN["cone"], tolerances={"band": [-0.8, 0.8]})
        report = run_experiment(spec_from_mapping(doc), stages=("critical", "loja", "cond4"))
        frag = report.condition_reports["cond4"]
        (entry,) = frag["witnesses"]["per_point"]
        reason = "no usable level offset: no fit available and no cond4_eps override given"
        assert entry["premises"] == {"eps_licensed": {"status": "failed", "reason": reason}}
        assert entry["witnesses"] == {"reason": f"premise eps_licensed failed: {reason}"}
        assert entry["verdict"] == frag["verdict"] == "inconclusive"
        assert checks == []
        # the seam is the one the pipeline calls: with an override the point is checked
        run_experiment(builtin_problem("cone"), stages=("critical", "loja", "cond4"))
        assert len(checks) == 1

    def test_a_level_offset_below_the_slice_start_drop_is_inconclusive(self):
        # the slice starts lie at least CURVATURE_MARGIN * SLICE_PROBE_RADIUS**2 = 5e-7 below the
        # vertex, so a level 1e-9 below it lies above every start: no flow runs for that point
        doc = dict(BUILTIN["cone"], tolerances={"band": [-0.8, 0.8], "cond4_eps": 1e-9})
        report = run_experiment(spec_from_mapping(doc), stages=("critical", "loja", "cond4"))
        frag = report.condition_reports["cond4"]
        (entry,) = frag["witnesses"]["per_point"]
        assert entry["premises"] == {"eps_licensed": {"status": "asserted",
                                                      "reason": "no fit available; problem override"}}
        assert entry["witnesses"] == {"eps": 1e-9, "reason": (
            "eps 1e-09 is below 5e-07 = CURVATURE_MARGIN * SLICE_PROBE_RADIUS**2, the least drop of a slice "
            "start below the critical value, so the slice level lies above every start")}
        assert entry["verdict"] == frag["verdict"] == "inconclusive"
        assert report.trajectory_manifest == [] and report.stage_errors == {}

    @pytest.mark.parametrize("fit, gap, tolerances, eps, status, reason", [
        (True, 1.0, {}, 0.005, "unchecked", "lojasiewicz fit"),
        (True, 1e-3, {"cond4_eps": 0.01}, 0.01, "asserted",
         "fit rejected (eps 0.005 exceeds the spacing 0.001 to the nearest other critical value; "
         "shrink delta); problem override"),
        (True, 1e-3, {}, None, "failed", "no usable level offset: fit rejected (eps 0.005 exceeds the spacing "
         "0.001 to the nearest other critical value; shrink delta) and no cond4_eps override given"),
        (False, 1.0, {"cond4_eps": 0.01}, 0.01, "asserted", "no fit available; problem override"),
        (False, 1.0, {}, None, "failed", "no usable level offset: no fit available and no cond4_eps override given"),
    ], ids=["fit", "fit-rejected-override", "fit-rejected", "override", "neither"])
    def test_the_level_offset_and_its_premise(self, fit, gap, tolerances, eps, status, reason):
        from morseflow.cli import _pick_eps
        from morseflow.lojasiewicz import LojasiewiczFit

        # eps = 0.5 * (C * theta * delta / 2)^(1 / theta) = 0.005
        fit = LojasiewiczFit(theta=0.5, constant_C=2.0, radius_delta=0.2, critical_value=0.0,
                             n_samples=400, holdout_pass_fraction=1.0) if fit else None
        got, premise = _pick_eps(fit, gap, tolerances)
        assert got == pytest.approx(eps) if eps is not None else got is None
        assert premise == {"status": status, "reason": reason}

    def test_the_cone_paraboloid_passes_rest_on_an_unchecked_search(self):
        report = run_experiment(load_problem(PROBLEMS / "cone-paraboloid.json"), stages=STAGES)
        frags = [report.condition_reports[k] for k in ("cond1", "cond4")]
        assert [frag["verdict"] for frag in frags] + [report.corollary_verdict] == ["pass"] * 3
        for premises in [frag["premises"] for frag in frags] + [report.corollary_premises]:
            assert premises["search_complete"]["status"] == "unchecked"

    @pytest.mark.xfail(strict=True, reason="ROADMAP items 17 PR a and 2: the grid search misses the "
                                           "paraboloid's minimum (0.2, 0, 0) and nothing checks the search")
    def test_the_cone_paraboloid_finds_both_points_or_does_not_pass(self):
        report = run_experiment(load_problem(PROBLEMS / "cone-paraboloid.json"), stages=STAGES)
        values = sorted(cp["value"] for cp in report.critical_points)
        both = len(values) == 2 and values == pytest.approx([0.0, 0.2], abs=1e-6)
        assert both or "pass" not in report.verdicts(), "both points found (values 0 and 0.2), or no pass"


class TestStageIsolation:
    """A stage that raises, or depends on one that did, leaves a record and no verdict."""

    @staticmethod
    def _skipped(condition, reason):
        return {"condition": condition, "verdict": "inconclusive",
                "witnesses": {"reason": reason}, "modulus_table": None}

    @staticmethod
    def _broken_search(monkeypatch):
        import morseflow.cli as cli

        def broken(f, Z, **kw):
            raise RuntimeError("critical search diverged")

        monkeypatch.setattr(cli, "find_critical_points", broken)

    def test_failed_critical_stage_skips_its_dependents(self, monkeypatch):
        self._broken_search(monkeypatch)
        report = run_experiment(builtin_problem("saddle"),
                                stages=("critical", "loja", "cond1", "cond4"))
        assert report.stage_errors == {
            "critical": "RuntimeError('critical search diverged')",
            "loja": "dependency 'critical' failed",
        }
        assert report.critical_points == [] and report.lojasiewicz_fits == []
        assert report.condition_reports == {
            "cond1": self._skipped(1, "dependency 'critical' failed"),
            "cond4": self._skipped(4, "dependency 'critical' failed"),
        }
        assert report.verdicts() == ["inconclusive", "inconclusive"]

    def test_condition2_respects_a_failed_critical_stage(self, monkeypatch, tmp_path):
        # without critical values the band cannot be checked against them,
        # so condition 2 must not run its flows and pass
        self._broken_search(monkeypatch)
        rc = main(["bench", "saddle", "--stages", "critical,cond2", "--out", str(tmp_path)])
        report = load_report(tmp_path / "report.json")
        assert report.condition_reports == {
            "cond2": self._skipped(2, "dependency 'critical' failed")}
        assert report.trajectory_manifest == []
        assert rc == 2

    def test_fit_failure_is_isolated_per_point(self, monkeypatch):
        import morseflow.cli as cli

        real = cli.estimate_fit

        def flaky(f, Z, cp, radius, **kw):
            if abs(cp.location[0]) < 0.5:  # the maximum at 0
                raise ValueError("cloud left the box")
            return real(f, Z, cp, radius, **kw)

        monkeypatch.setattr(cli, "estimate_fit", flaky)
        doc = dict(BUILTIN["quartic"], objective="x^4 - 2*x^2")
        report = run_experiment(spec_from_mapping(doc), stages=("critical", "loja"))
        assert [cp["kind"] for cp in report.critical_points] == ["minimum", "minimum", "maximum"]
        assert sorted(report.stage_errors) == ["loja[2]"]
        assert "cloud left the box" in report.stage_errors["loja[2]"]
        assert [fit["point_index"] for fit in report.lojasiewicz_fits] == [0, 1]
        assert all("theta" in fit for fit in report.lojasiewicz_fits)

    def test_slice_failure_is_isolated_per_point(self, monkeypatch):
        import morseflow.levelmap as levelmap

        real = levelmap._slice_from

        def flaky(f, Z, cp, level, *args):
            if cp.location[0] > 0.5:  # the maximum at 1
                raise RuntimeError("slice probe left the box")
            return real(f, Z, cp, level, *args)

        monkeypatch.setattr(levelmap, "_slice_from", flaky)
        doc = dict(BUILTIN["quartic"], objective="2*x^2 - x^4")
        report = run_experiment(spec_from_mapping(doc), stages=("critical", "loja", "cond4"))
        # points sorted by value: the well at 0, then the maxima at -1 and 1
        assert [cp["kind"] for cp in report.critical_points] == ["minimum", "maximum", "maximum"]
        assert report.stage_errors == {}
        frag = report.condition_reports["cond4"]
        first, second = frag["witnesses"]["per_point"]
        assert first["point_index"] == 1 and first["verdict"] == "pass"
        assert second == {**self._skipped(4, "RuntimeError('slice probe left the box')"),
                          "point_index": 2}
        assert frag["verdict"] == "inconclusive"

    def test_a_condition_stage_that_raises_is_inconclusive(self, monkeypatch):
        # condition 4 also reads the isolation gap, through the value merge
        # of condition 1, so with both broken both stages fail alone
        import morseflow.cli as cli

        def broken(*args):
            raise RuntimeError("gap undefined")

        monkeypatch.setattr(cli, "check_condition1", broken)
        monkeypatch.setattr(cli, "_merged_values", broken)
        report = run_experiment(builtin_problem("saddle"), stages=STAGES)
        skipped = self._skipped(1, "RuntimeError('gap undefined')")
        assert report.condition_reports["cond1"] == skipped
        assert report.condition_reports["cond4"] == {**skipped, "condition": 4}
        assert report.condition_reports["cond2"]["verdict"] == "pass"
        assert report.stage_errors == {}
        assert report.corollary_verdict == "inconclusive"

    def test_condition4_does_not_run_condition1(self, monkeypatch):
        # condition 4 reads the isolation gap from the value merge alone, so
        # the cond1 stage is the only check_condition1 call of a full run
        import morseflow.cli as cli

        calls = []
        real = cli.check_condition1

        def counted(cps, *args, **kw):
            calls.append(len(cps))
            return real(cps, *args, **kw)

        monkeypatch.setattr(cli, "check_condition1", counted)
        report = run_experiment(builtin_problem("cone"), stages=STAGES)
        assert report.condition_reports["cond4"]["witnesses"]["per_point"]
        assert calls == [1]


class TestCondition2BesideCondition4:
    """cond2's flows run in a forked child beside the other stages and change no byte of the report."""

    @staticmethod
    def _count_forks(monkeypatch):
        forks = []
        real = os.fork

        def counted():
            pid = real()
            forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted)
        return forks

    @staticmethod
    def _one_cpu(monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    @staticmethod
    def _stage_lines(caplog):
        return [json.loads(r.getMessage()) for r in caplog.records if r.getMessage().startswith('{"stage"')]

    @staticmethod
    def _assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("problem", ["cone", "saddle", "planes", "planes-lift", "wells"])
    def test_forked_run_is_byte_identical_to_the_in_process_run(self, monkeypatch, problem):
        from dataclasses import fields

        spec = (load_problem(PROBLEMS / f"{problem}.json") if problem in ("planes-lift", "wells")
                else builtin_problem(problem))
        forks = self._count_forks(monkeypatch)
        forked = run_experiment(spec, stages=STAGES)
        assert len(forks) == 1
        self._one_cpu(monkeypatch)
        alone = run_experiment(spec, stages=STAGES)
        assert len(forks) == 1
        assert forked.to_payload() == alone.to_payload()
        assert list(forked.trajectories) == list(alone.trajectories)
        for tag, traj in forked.trajectories.items():
            for fd in fields(traj):
                a, b = getattr(traj, fd.name), getattr(alone.trajectories[tag], fd.name)
                if isinstance(a, np.ndarray):
                    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (tag, fd.name)
                else:
                    assert a == b, (tag, fd.name)
        self._assert_no_child_left()

    def test_only_a_run_that_overlaps_cond2_with_cond4_flows_forks(self, monkeypatch):
        import morseflow.cli as cli

        from morseflow import critical

        events, fork, search, refine = [], os.fork, cli.find_critical_points, critical._refine

        def forked():
            pid = fork()
            events.append("fork")  # in the child too, whose copy of the list is never read
            return pid

        def searched(*args, **kw):
            events.append("critical")
            return search(*args, **kw)

        def refined(*args, **kw):
            events.append("refine")  # a child's refinements are never seen here
            return refine(*args, **kw)

        monkeypatch.setattr(os, "fork", forked)
        monkeypatch.setattr(cli, "find_critical_points", searched)
        monkeypatch.setattr(critical, "_refine", refined)
        cases = [
            # Z = R^1 with only a minimum: cond4 runs no flow, so nothing is overlapped
            (builtin_problem("quartic"), STAGES, ["critical", "refine"]),
            # a constrained Z: cond2's flows start before the critical search, also without cond4;
            # beside cond4 the child runs the singular pass, so the parent refines only the smooth one
            (builtin_problem("cone"), STAGES, ["fork", "critical", "refine"]),
            (builtin_problem("cone"), ("critical", "cond2"), ["fork", "critical", "refine", "refine"]),
            # Z = R^2: the fork waits for a saddle to check, and for a band that misses its value
            (builtin_problem("saddle"), STAGES, ["critical", "refine", "fork"]),
            (spec_from_mapping(dict(BUILTIN["saddle"], tolerances={"band": [0, 1]})), STAGES, ["critical", "refine"]),
        ]
        for spec, stages, order in cases:
            events.clear()
            report = run_experiment(spec, stages=stages)
            assert events == order, (spec.name, stages)
            self._assert_no_child_left()
            with monkeypatch.context() as one_cpu:
                self._one_cpu(one_cpu)
                assert report.to_payload() == run_experiment(spec, stages=stages).to_payload()

    def test_the_forked_singular_pass_logs_where_the_one_cpu_run_does(self, monkeypatch, caplog):
        caplog.set_level(logging.INFO, logger="morseflow")

        def records():
            out = []
            for r in caplog.records:
                message = r.getMessage()
                if message.startswith('{"stage"'):
                    line = json.loads(message)
                    message = (line["stage"], line["error"])  # ran and seconds aside
                out.append((r.name, r.levelname, message))
            caplog.clear()
            return out

        run_experiment(builtin_problem("cone"), stages=STAGES)
        forked = records()
        self._one_cpu(monkeypatch)
        run_experiment(builtin_problem("cone"), stages=STAGES)
        alone = records()
        assert ("morseflow.critical", "INFO", "singular pass: 343/343 seeds refined to 1 rank-collapse points") in alone
        # the child's cond2 line comes at the join, after cond4's; every other record keeps its place
        cond2 = ("morseflow.cli", "INFO", ("cond2", None))
        assert forked[-2] == cond2 and cond2 in alone
        assert forked[:-2] + forked[-1:] == [r for r in alone if r != cond2]

    def test_a_child_that_exits_before_the_roots_leaves_the_search_and_cond2_here(self, monkeypatch, caplog):
        import morseflow.cli as cli

        parent, real = os.getpid(), cli.singular_roots

        def dies(*args):
            if os.getpid() != parent:  # the child exits before it sends the roots
                os._exit(3)
            return real(*args)

        caplog.set_level(logging.INFO, logger="morseflow")
        monkeypatch.setattr(cli, "singular_roots", dies)
        forks = self._count_forks(monkeypatch)
        forked = run_experiment(builtin_problem("cone"), stages=STAGES)
        assert len(forks) == 1
        self._assert_no_child_left()
        messages = [r.getMessage() for r in caplog.records]
        assert messages.count("singular pass: 343/343 seeds refined to 1 rank-collapse points") == 1
        assert [(line["stage"], line["ran"]) for line in self._stage_lines(caplog)] == [
            (s, "process") for s in ("critical", "loja", "cond1", "cond2", "cond4")]
        self._one_cpu(monkeypatch)
        assert forked.to_payload() == run_experiment(builtin_problem("cone"), stages=STAGES).to_payload()

    def test_a_search_that_never_reads_the_roots_still_joins_cond2(self, monkeypatch):
        import morseflow.cli as cli

        search = cli.find_critical_points

        def own_pass(f, Z, grid_density, singular=None):
            return search(f, Z, grid_density)

        monkeypatch.setattr(cli, "find_critical_points", own_pass)
        forks = self._count_forks(monkeypatch)
        forked = run_experiment(builtin_problem("cone"), stages=STAGES)
        assert len(forks) == 1
        self._assert_no_child_left()
        assert forked.condition_reports["cond2"]["verdict"] == "pass"
        self._one_cpu(monkeypatch)
        alone = run_experiment(builtin_problem("cone"), stages=STAGES)
        assert len(forks) == 1
        assert json.dumps(forked.to_payload(), sort_keys=True) == json.dumps(alone.to_payload(), sort_keys=True)
        assert list(forked.trajectories) == list(alone.trajectories)

    def test_a_critical_that_raises_after_the_early_fork_reaps_the_child(self, monkeypatch, caplog):
        import morseflow.cli as cli

        def diverged(*args, **kw):
            raise RuntimeError("search diverged")

        caplog.set_level(logging.INFO, logger="morseflow")
        monkeypatch.setattr(cli, "find_critical_points", diverged)
        forks = self._count_forks(monkeypatch)
        forked = run_experiment(builtin_problem("cone"), stages=STAGES)
        assert len(forks) == 1
        self._assert_no_child_left()
        reason = "dependency 'critical' failed"
        assert forked.stage_errors == {"critical": "RuntimeError('search diverged')", "loja": reason}
        assert forked.condition_reports["cond2"] == {
            "condition": 2, "verdict": "inconclusive", "witnesses": {"reason": reason}, "modulus_table": None}
        # the killed child sends nothing, so cond2's stage line is the process's
        lines = {line["stage"]: line for line in self._stage_lines(caplog)}
        assert (lines["cond2"]["ran"], lines["cond2"]["error"]) == ("process", reason)
        self._one_cpu(monkeypatch)
        alone = run_experiment(builtin_problem("cone"), stages=STAGES)
        assert len(forks) == 1
        assert forked.to_payload() == alone.to_payload() and forked.trajectories == alone.trajectories == {}

    def test_a_band_end_on_a_critical_value_kills_the_child_at_once(self, monkeypatch):
        import time

        from morseflow import levelmap

        parent = os.getpid()

        def stalled(*args, **kw):
            if os.getpid() == parent:  # the premise fails, so cond2 draws no sample in this process
                raise AssertionError("cond2 sampled the band in the test process")
            time.sleep(60)

        monkeypatch.setattr(levelmap, "band_samples", stalled)
        spec = spec_from_mapping(dict(BUILTIN["cone"], tolerances={"band": [0, 0.8], "cond4_eps": 0.01}))
        forks = self._count_forks(monkeypatch)
        t0 = time.perf_counter()
        report = run_experiment(spec, stages=STAGES)
        assert time.perf_counter() - t0 < 5.0
        assert len(forks) == 1
        self._assert_no_child_left()
        assert report.condition_reports["cond2"]["verdict"] == "inconclusive"
        assert report.condition_reports["cond2"]["witnesses"] == {
            "reason": "premise band_clear failed: band endpoint touches critical value(s) [0.0]"}
        assert report.trajectories and not [tag for tag in report.trajectories if tag.startswith("cond2/")]
        self._one_cpu(monkeypatch)
        assert report.to_payload() == run_experiment(spec, stages=STAGES).to_payload()

    def test_one_cpu_keeps_cond2_in_process(self, monkeypatch, caplog):
        caplog.set_level(logging.INFO, logger="morseflow")
        forks = self._count_forks(monkeypatch)
        self._one_cpu(monkeypatch)
        run_experiment(builtin_problem("cone"), stages=STAGES)
        assert forks == []
        lines = self._stage_lines(caplog)
        assert [(line["stage"], line["ran"]) for line in lines] == [
            (s, "process") for s in ("critical", "loja", "cond1", "cond2", "cond4")]

    def test_a_failed_fork_runs_cond2_in_process(self, monkeypatch, caplog):
        import errno
        def no_fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        caplog.set_level(logging.INFO, logger="morseflow")
        monkeypatch.setattr(os, "fork", no_fork)
        report = run_experiment(builtin_problem("cone"), stages=STAGES)
        assert [(line["stage"], line["ran"]) for line in self._stage_lines(caplog)][3] == ("cond2", "process")
        self._one_cpu(monkeypatch)
        assert report.to_payload() == run_experiment(builtin_problem("cone"), stages=STAGES).to_payload()

    def test_a_second_thread_keeps_cond2_in_process(self, monkeypatch):
        import threading

        forks = self._count_forks(monkeypatch)
        done = threading.Event()
        waiter = threading.Thread(target=done.wait)
        waiter.start()
        try:
            run_experiment(builtin_problem("cone"), stages=STAGES)
        finally:
            done.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert forks == []

    def test_a_replaced_check_condition2_sees_its_call(self, monkeypatch):
        import morseflow.cli as cli

        calls = []
        real = cli.check_condition2

        def spy(*args, **kw):
            calls.append(args[2:4])
            return real(*args, **kw)

        forks = self._count_forks(monkeypatch)
        monkeypatch.setattr(cli, "check_condition2", spy)
        report = run_experiment(builtin_problem("cone"), stages=STAGES)
        assert forks == [] and calls == [(-0.8, 0.8)]
        assert report.condition_reports["cond2"]["verdict"] == "pass"

    def test_the_child_logs_one_stage_line_after_cond4s(self, monkeypatch, caplog):
        caplog.set_level(logging.INFO, logger="morseflow")
        run_experiment(builtin_problem("cone"), stages=STAGES)
        lines = self._stage_lines(caplog)
        assert [(line["stage"], line["ran"]) for line in lines] == [
            ("critical", "process"), ("loja", "process"), ("cond1", "process"),
            ("cond4", "process"), ("cond2", "child")]
        assert all(line["error"] is None and line["seconds"] >= 0 for line in lines)

    def test_a_child_error_gives_the_in_process_fragment(self, monkeypatch, caplog):
        from morseflow import levelmap

        caplog.set_level(logging.INFO, logger="morseflow")

        def exploded(*args, **kw):
            raise RuntimeError("band exploded")

        monkeypatch.setattr(levelmap, "band_samples", exploded)
        forks = self._count_forks(monkeypatch)
        forked = run_experiment(builtin_problem("cone"), stages=STAGES)
        assert len(forks) == 1
        messages = [r.getMessage() for r in caplog.records]
        failures = [i for i, r in enumerate(caplog.records)
                    if r.levelname == "ERROR" and messages[i].startswith("cond2 failed")]
        assert len(failures) == 1 and "band exploded" in messages[failures[0]]
        # the child's records are re-emitted after cond4 has logged its stage line
        assert failures[0] > next(i for i, m in enumerate(messages) if m.startswith('{"stage": "cond4"'))
        self._one_cpu(monkeypatch)
        alone = run_experiment(builtin_problem("cone"), stages=STAGES)
        assert forked.condition_reports["cond2"] == alone.condition_reports["cond2"] == {
            "condition": 2, "verdict": "inconclusive",
            "witnesses": {"reason": "RuntimeError('band exploded')"}, "modulus_table": None}
        assert forked.condition_reports["cond4"]["verdict"] == "pass"
        assert forked.to_payload() == alone.to_payload()
        self._assert_no_child_left()

    def test_a_child_that_dies_leaves_cond2_inconclusive(self, monkeypatch, caplog):
        from morseflow import levelmap

        parent = os.getpid()

        def dies(*args, **kw):
            if os.getpid() == parent:  # never end the test process itself
                raise AssertionError("cond2 ran in the test process")
            os._exit(3)

        caplog.set_level(logging.INFO, logger="morseflow")
        monkeypatch.setattr(levelmap, "band_samples", dies)
        report = run_experiment(builtin_problem("cone"), stages=STAGES)
        reason = "condition 2 worker exited with status 3 before sending its result"
        assert report.condition_reports["cond2"] == {
            "condition": 2, "verdict": "inconclusive", "witnesses": {"reason": reason}, "modulus_table": None}
        assert report.condition_reports["cond4"]["verdict"] == "pass"
        assert list(report.condition_reports) == ["cond1", "cond2", "cond4"]
        assert report.corollary_verdict == "inconclusive"
        assert self._stage_lines(caplog)[-1] == {"stage": "cond2", "ran": "child", "seconds": None, "error": reason}
        self._assert_no_child_left()

    def test_a_loja_that_raises_after_the_fork_still_joins_the_child(self, monkeypatch):
        import morseflow.cli as cli

        def broken(run):
            raise RuntimeError("fit diverged")

        # on the cone cond2 forks before critical, so a loja that fails later cannot keep it in process
        monkeypatch.setitem(cli.STAGES, "loja", (("critical",), broken))
        forks = self._count_forks(monkeypatch)
        forked = run_experiment(builtin_problem("cone"), stages=STAGES)
        assert len(forks) == 1
        self._assert_no_child_left()
        assert forked.stage_errors == {"loja": "RuntimeError('fit diverged')"}
        assert forked.condition_reports["cond4"]["witnesses"] == {"reason": "dependency 'loja' failed"}
        assert forked.condition_reports["cond2"]["verdict"] == "pass"
        self._one_cpu(monkeypatch)
        alone = run_experiment(builtin_problem("cone"), stages=STAGES)
        assert len(forks) == 1
        assert forked.to_payload() == alone.to_payload()

    def test_a_parent_that_raises_stops_and_reaps_the_child(self, monkeypatch):
        import morseflow.cli as cli

        class Stop(BaseException):
            pass

        def stopped(*args, **kw):
            raise Stop

        monkeypatch.setattr(cli, "check_condition4", stopped)  # raised past _isolated, in this process
        forks = self._count_forks(monkeypatch)
        with pytest.raises(Stop):
            run_experiment(builtin_problem("cone"), stages=STAGES)
        assert len(forks) == 1
        self._assert_no_child_left()


@pytest.fixture(scope="module")
def wells_cond4():
    """The wells' condition 4 (20 points, 14 of them targets) and the run it saw."""
    import morseflow.cli as cli

    seen = []
    deps, real = cli.STAGES["cond4"]
    mp = pytest.MonkeyPatch()
    mp.setitem(cli.STAGES, "cond4", (deps, lambda run: seen.append(run) or real(run)))
    try:
        report = run_experiment(load_problem(PROBLEMS / "wells.json"), ("critical", "loja", "cond4"))
    finally:
        mp.undo()
    return report, seen[0]


class TestCondition4Targets:
    """Condition 4 builds each target's slice in the ensemble of its probe flows, and each fragment is its own."""

    def test_cond4_slice_equals_the_slice_built_in_its_own_ensemble(self, wells_cond4):
        from dataclasses import fields

        from morseflow.cli import _judged, _pick_eps
        from morseflow.critical import _merged_values
        from morseflow.levelmap import EmptySlice, check_condition4, unstable_slice

        report, run = wells_cond4
        f, Z, seed = run.f, run.Z, run.spec.seed
        gap = _merged_values([cp.value for cp in run.cps])[1]
        got = report.condition_reports["cond4"]["witnesses"]["per_point"]
        targets = [(i, cp) for i, cp in enumerate(run.cps) if cp.kind in ("saddle", "maximum")]
        assert [g["point_index"] for g in got] == [i for i, _ in targets] and len(got) == 14
        assert {g["verdict"] for g in got} == {"pass", "fail", "inconclusive"}
        kept, n_empty = {}, 0
        for g, (i, cp) in zip(got, targets):
            eps, premise = _pick_eps(run.fits.get(i), gap, run.spec.tolerances)
            entry = check_condition4(f, Z, cp, eps, seed=seed, collect=kept).to_payload()
            assert g == {**_judged(4, {"eps_licensed": premise}, entry), "point_index": i}
            # point i's slice, its descents in an ensemble of their own
            try:
                slc = unstable_slice(f, Z, cp, cp.value - eps, seed=seed)
            except EmptySlice as e:
                n_empty += 1
                assert g["verdict"] == "inconclusive" and g["modulus_table"] is None
                assert g["witnesses"] == {"eps": eps, "reason": str(e)}
                continue
            assert g["witnesses"]["slice_points"] == [list(p) for p in slc]
        assert n_empty == 8
        kept = {f"{family}/{traj.termination}": traj for family, traj in kept.items()}
        assert list(report.trajectories) == list(kept)
        for tag, traj in kept.items():
            for fd in fields(traj):
                a, b = getattr(report.trajectories[tag], fd.name), getattr(traj, fd.name)
                assert a.tobytes() == b.tobytes() if isinstance(a, np.ndarray) else a == b, (tag, fd.name)

    def test_a_target_whose_slice_raises_leaves_the_other_fragments_unchanged(self, monkeypatch, wells_cond4):
        import morseflow.levelmap as levelmap

        before = wells_cond4[0].condition_reports["cond4"]["witnesses"]["per_point"]
        victim = next(p["point_index"] for p in before if p["verdict"] == "pass")
        location = tuple(wells_cond4[0].critical_points[victim]["location"])
        real = levelmap._slice_from

        def flaky(f, Z, cp, *args):
            if cp.location == location:
                raise RuntimeError("slice probe left the box")
            return real(f, Z, cp, *args)

        monkeypatch.setattr(levelmap, "_slice_from", flaky)
        after = run_experiment(load_problem(PROBLEMS / "wells.json"), ("critical", "loja", "cond4"))
        after = after.condition_reports["cond4"]["witnesses"]["per_point"]
        assert [p for p in after if p["point_index"] != victim] == [p for p in before if p["point_index"] != victim]
        assert len(after) == 14
        assert next(p for p in after if p["point_index"] == victim) == {
            "condition": 4, "verdict": "inconclusive", "modulus_table": None, "point_index": victim,
            "witnesses": {"reason": "RuntimeError('slice probe left the box')"}}
