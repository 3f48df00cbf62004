import csv
import json

import pytest

from resilinet import planner
from resilinet.cli import (EXIT_CONFIG, EXIT_GENERATION, EXIT_INTERNAL, EXIT_OK, main)
from resilinet.gcn import Hyperparams, ModelWeights, pretrain, save_model
from resilinet.planner import METHOD_CENTERING, METHOD_LEARNED, PLAN_FIELDS
from resilinet.simulate import (RESULTS_FIELDS, RESULTS_VERSION, ExperimentSpec,
                                export_results, results_to_dict, run_experiment)
from resilinet.swarm import TOPOLOGY_FIELDS, read_payload, write_payload

from test_gcn import write_non_finite_model


def run(*argv):
    return main(list(argv))


class TestGen:
    def test_byte_identical_for_same_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("gen", "--n", "20", "--seed", "1", "--out", str(a)) == EXIT_OK
        assert run("gen", "--n", "20", "--seed", "1", "--out", str(b)) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RESILINET_SEED", "9")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("gen", "--n", "20", "--out", str(a)) == EXIT_OK
        assert run("gen", "--n", "20", "--out", str(b)) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        monkeypatch.setenv("RESILINET_SEED", "10")
        c = tmp_path / "c.json"
        assert run("gen", "--n", "20", "--out", str(c)) == EXIT_OK
        assert a.read_bytes() != c.read_bytes()

    def test_generation_failure_exit_code(self, tmp_path):
        code = run("gen", "--n", "30", "--comm-range", "1", "--seed", "0",
                   "--out", str(tmp_path / "x.json"))
        assert code == EXIT_GENERATION

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 20, "seed": 4}))
        out1 = tmp_path / "one.json"
        out2 = tmp_path / "two.json"
        assert run("gen", "--config", str(config), "--out", str(out1)) == EXIT_OK
        payload = json.loads(out1.read_text())
        assert payload["n"] == 20
        # flag beats config file
        assert run("gen", "--config", str(config), "--n", "25",
                   "--out", str(out2)) == EXIT_OK
        assert json.loads(out2.read_text())["n"] == 25

    def test_bad_config_is_a_usage_error(self, tmp_path):
        config = tmp_path / "broken.json"
        config.write_text("{not json")
        assert run("gen", "--config", str(config),
                   "--out", str(tmp_path / "x.json")) == EXIT_CONFIG


class TestFlags:
    REQUIRED = {
        "plan": ["--topology", "t.json", "--scenario", "s.json"],
        "experiment": ["--nd", "5"],
        "pretrain": [],
        "simulate": ["--topology", "t.json", "--scenario", "s.json", "--plan", "p.json"],
    }

    @pytest.mark.parametrize("command, flag", [
        ("plan", "--hidden-dim"), ("plan", "--blocks"), ("plan", "--iters"),
        ("experiment", "--hidden-dim"), ("experiment", "--blocks"), ("experiment", "--iters"),
        ("pretrain", "--online-iters"), ("simulate", "--seed"),
    ])
    def test_a_flag_the_command_does_not_read_is_rejected(self, tmp_path, capsys, command,
                                                          flag):
        """The model file fixes the network's shape, pretraining runs no online search,
        and simulating draws nothing at random."""
        out = ["--out-dir" if command == "experiment" else "--out", str(tmp_path / "x")]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run(command, *self.REQUIRED[command], *out, flag, "3")
        assert exc.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestPipeline:
    def test_full_pipeline_small(self, tmp_path):
        topo = tmp_path / "topo.json"
        scenario = tmp_path / "scenario.json"
        model = tmp_path / "model.json"
        curve = tmp_path / "curve.csv"
        plan = tmp_path / "plan.json"
        sim = tmp_path / "sim.json"
        series = tmp_path / "series.csv"

        assert run("gen", "--n", "16", "--seed", "1", "--out", str(topo)) == EXIT_OK
        assert run("damage", "--topology", str(topo), "--nd", "7", "--seed", "2",
                   "--out", str(scenario)) == EXIT_OK
        assert run("pretrain", "--n", "16", "--seed", "3", "--hidden-dim", "8",
                   "--blocks", "1", "--iters", "5", "--dropout", "0",
                   "--out", str(model), "--loss-curve", str(curve)) == EXIT_OK
        assert run("plan", "--topology", str(topo), "--scenario", str(scenario),
                   "--model", str(model), "--online-iters", "10", "--dropout", "0",
                   "--out", str(plan)) == EXIT_OK
        assert run("simulate", "--topology", str(topo), "--scenario", str(scenario),
                   "--plan", str(plan), "--out", str(sim),
                   "--series", str(series)) == EXIT_OK

        plan_payload = json.loads(plan.read_text())
        assert plan_payload["method"] in ("ml-dagl", "fallback-centroid")
        sim_payload = json.loads(sim.read_text())
        assert sim_payload["converged"] is True
        with open(series) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "t_s", "n_subnets"]
        assert int(rows[-1][2]) == 1

    def test_plan_without_model_is_config_error(self, tmp_path):
        topo = tmp_path / "topo.json"
        scenario = tmp_path / "scenario.json"
        assert run("gen", "--n", "16", "--seed", "1", "--out", str(topo)) == EXIT_OK
        assert run("damage", "--topology", str(topo), "--nd", "7", "--seed", "2",
                   "--out", str(scenario)) == EXIT_OK
        assert run("plan", "--topology", str(topo), "--scenario", str(scenario),
                   "--out", str(tmp_path / "plan.json")) == EXIT_CONFIG

    def test_missing_file_is_config_error(self, tmp_path):
        assert run("damage", "--topology", str(tmp_path / "nope.json"),
                   "--nd", "3", "--out", str(tmp_path / "s.json")) == EXIT_CONFIG

    def test_scenario_destroying_every_node_is_config_error(self, tmp_path, capsys):
        topo = tmp_path / "topo.json"
        scenario = tmp_path / "scenario.json"
        assert run("gen", "--n", "16", "--seed", "1", "--out", str(topo)) == EXIT_OK
        scenario.write_text(json.dumps({"version": 1, "topology_ref": str(topo),
                                        "destroyed": list(range(1, 17))}))
        capsys.readouterr()
        assert run("plan", "--topology", str(topo), "--scenario", str(scenario),
                   "--method", "centering",
                   "--out", str(tmp_path / "plan.json")) == EXIT_CONFIG
        assert "remaining" in capsys.readouterr().err

    def test_centering_plan_needs_no_model(self, tmp_path):
        topo = tmp_path / "topo.json"
        scenario = tmp_path / "scenario.json"
        plan = tmp_path / "plan.json"
        assert run("gen", "--n", "16", "--seed", "1", "--out", str(topo)) == EXIT_OK
        assert run("damage", "--topology", str(topo), "--nd", "7", "--seed", "2",
                   "--out", str(scenario)) == EXIT_OK
        assert run("plan", "--topology", str(topo), "--scenario", str(scenario),
                   "--method", "centering", "--out", str(plan)) == EXIT_OK
        assert json.loads(plan.read_text())["method"] == "centering"

    @pytest.mark.parametrize("command", ["plan", "experiment"])
    def test_a_plan_failing_its_own_check_is_an_internal_error(self, tmp_path, capsys,
                                                               monkeypatch, command):
        if command == "plan":
            topo, scenario = tmp_path / "topo.json", tmp_path / "scenario.json"
            assert run("gen", "--n", "16", "--seed", "1", "--out", str(topo)) == EXIT_OK
            assert run("damage", "--topology", str(topo), "--nd", "7", "--seed", "2",
                       "--out", str(scenario)) == EXIT_OK
            argv = ("plan", "--topology", str(topo), "--scenario", str(scenario),
                    "--method", "centering", "--out", str(tmp_path / "plan.json"))
        else:
            argv = ("experiment", "--n", "20", "--nd", "9", "--trials", "1",
                    "--methods", "centering", "--seed", "5", "--out-dir", str(tmp_path / "r"))
        monkeypatch.setattr(planner, "verify_plan", lambda plan, comm_range: False)
        capsys.readouterr()
        assert run(*argv) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "internal error: centering produced a disconnected plan" in err
        assert "Traceback" not in err


class TestExperiment:
    def test_centering_sweep(self, tmp_path):
        out = tmp_path / "results"
        assert run("experiment", "--n", "20", "--nd", "9", "--trials", "3",
                   "--methods", "centering", "--seed", "5",
                   "--out-dir", str(out)) == EXIT_OK
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["R_c"]) == 1.0

    def test_step_that_needs_too_many_steps_is_a_usage_error(self, tmp_path, capsys):
        capsys.readouterr()
        assert run("experiment", "--n", "20", "--nd", "9", "--trials", "1",
                   "--seed", "5", "--step", "1e-9",
                   "--out-dir", str(tmp_path / "r")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "step_s=1e-09 is too small: the plan needs more than 1000000 steps" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("argv, message", [
        (["--nd", "10,10"], "damage_sizes must not repeat an entry"),
        (["--nd", "10", "--methods", "centering,centering"],
         "methods must not repeat an entry"),
        (["--nd", "10", "--jobs", "0"], "jobs must be at least 1"),
        (["--nd", "10", "--jobs", "-3"], "jobs must be at least 1"),
        (["--nd", "9,30"], "damage_sizes entry 30 is not in [1, n-1] = [1, 29]"),
        (["--nd", "0"], "damage_sizes entry 0 is not in [1, n-1] = [1, 29]"),
        (["--nd", "9,x"], "--nd entry 'x' is not an integer"),
    ], ids=["repeated-damage-size", "repeated-method", "jobs-zero", "jobs-negative",
            "damage-size-n", "damage-size-zero", "damage-size-not-integer"])
    def test_a_repeated_entry_or_no_job_is_a_usage_error(self, tmp_path, capsys, argv,
                                                        message):
        capsys.readouterr()
        assert run("experiment", "--n", "30", "--trials", "1", *argv,
                   "--out-dir", str(tmp_path / "r")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "r").exists()

    def test_experiment_needs_model_for_learned(self, tmp_path):
        assert run("experiment", "--n", "20", "--nd", "9", "--trials", "1",
                   "--methods", "ml-dagl",
                   "--out-dir", str(tmp_path / "r")) == EXIT_CONFIG

    def test_report_from_results(self, tmp_path):
        """A centering and ml-dagl results file reads back equal; report re-derives its CSV."""
        tiny = Hyperparams(hidden_dim=4, blocks=1, pretrain_iters=1, online_iters=2)
        spec = ExperimentSpec(n=20, damage_sizes=(9,), trials=2, master_seed=5,
                              methods=(METHOD_CENTERING, METHOD_LEARNED))
        results = run_experiment(spec, weights=pretrain(20, 200.0, 120.0, 3, tiny).weights,
                                 config=tiny)
        payload = results_to_dict(results)
        results_file = tmp_path / "results.json"
        write_payload(results_file, payload)
        assert read_payload(results_file, "results", RESULTS_VERSION, RESULTS_FIELDS) == payload
        out = tmp_path / "results"
        export_results(results, out)
        report = tmp_path / "report"
        assert run("report", "--results", str(results_file), "--out-dir", str(report)) == EXIT_OK
        assert (report / "summary.csv").read_bytes() == (out / "summary.csv").read_bytes()
        with open(report / "trc_vs_nd.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["method", "n_d", "mean_T", "std_T"]
        assert [row[0] for row in rows[1:]] == [METHOD_CENTERING, METHOD_LEARNED]

    def test_report_rejects_summary_row_missing_a_column(self, tmp_path, capsys):
        results = tmp_path / "results.json"
        results.write_text(json.dumps({"version": 1, "summary": [{"method": "centering"}]}))
        capsys.readouterr()
        assert run("report", "--results", str(results),
                   "--out-dir", str(tmp_path / "report")) == EXIT_CONFIG
        assert ("results file field 'summary' entry 0 lacks required field 'n'"
                in capsys.readouterr().err)
        assert not (tmp_path / "report" / "summary.csv").exists()

    def test_damage_on_topology_missing_a_field(self, tmp_path, capsys):
        topo = tmp_path / "topo.json"
        topo.write_text(json.dumps({"version": 1, "n": 3}))
        capsys.readouterr()
        assert run("damage", "--topology", str(topo), "--nd", "1",
                   "--out", str(tmp_path / "s.json")) == EXIT_CONFIG
        assert "topology file lacks required field 'positions'" in capsys.readouterr().err


class TestMalformedInput:
    @pytest.mark.parametrize("config, argv, message", [
        ({"hyper": {"bogus": 1}}, ["pretrain", "--n", "16"],
         "config file field 'hyper' has unknown field 'bogus'"),
        ({"hyper": {"kernel_step": 0.1}}, ["pretrain", "--n", "16"],
         "config file field 'hyper' has unknown field 'kernel_step'"),
        ({"hyper": {"hidden_dim": "8"}}, ["pretrain", "--n", "16"],
         "config file field 'hyper' field 'hidden_dim' must be a JSON integer"),
        ({"hyper": [1]}, ["pretrain", "--n", "16"],
         "config file field 'hyper' must be a JSON object"),
        ({"density_per_km2": 50}, ["gen", "--n", "20"],
         "config file has unknown field 'density_per_km2' (known: comm_range, density, "
         "hyper, max_speed, n, seed, step_s)"),
        ({"t_max": 5}, ["gen", "--n", "20"], "config file has unknown field 't_max'"),
        ({"n": None}, ["gen"], "config file field 'n' must be a JSON integer"),
        ({"density": "dense"}, ["gen"], "config file field 'density' must be a JSON number"),
        ({"hyper": {"hidden_dim": 0}}, ["gen"], "hidden_dim must be at least 1"),
        ({"max_speed": 0}, ["gen"], "max_speed must be positive"),
        ({"hyper": {"branch_cap": 0}}, ["pretrain", "--n", "16"],
         "branch_cap must be at least 1"),
    ], ids=["hyper-unknown", "hyper-deleted-knob", "hyper-string", "hyper-not-object",
            "top-level-unknown", "top-level-t-max", "n-null", "density-string",
            "hyper-rejected-on-gen", "max-speed-zero", "branch-cap-zero"])
    def test_malformed_config_is_a_usage_error(self, tmp_path, capsys, config, argv, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        capsys.readouterr()
        assert run(*argv, "--config", str(path),
                   "--out", str(tmp_path / "x.json")) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["gen", "--density", "nan"], "density_per_km2 must be finite and positive"),
        (["gen", "--density", "inf"], "density_per_km2 must be finite and positive"),
        (["gen", "--comm-range", "nan"], "comm_range must be positive"),
        (["gen", "--comm-range", "inf"], "comm_range must be positive and finite"),
        (["experiment", "--density", "nan", "--nd", "5", "--trials", "1"],
         "density_per_km2 must be finite and positive"),
        (["experiment", "--comm-range", "nan", "--nd", "5", "--trials", "1"],
         "comm_range must be positive"),
        (["experiment", "--step", "nan", "--nd", "5", "--trials", "1"],
         "step_s must be positive"),
        (["experiment", "--step", "inf", "--nd", "5", "--trials", "1"],
         "step_s must be positive and finite"),
        (["experiment", "--max-speed", "inf", "--nd", "5", "--trials", "1"],
         "max_speed must be positive and finite"),
        (["experiment", "--t-max", "inf", "--nd", "5", "--trials", "1"],
         "t_max must be a finite non-negative number"),
        (["pretrain", "--lagrange", "nan"], "lagrange_s must be positive and finite"),
        (["pretrain", "--lagrange", "-5"], "lagrange_s must be positive and finite"),
        (["pretrain", "--learning-rate", "-1"], "learning_rate must be positive and finite"),
        (["pretrain", "--learning-rate", "inf"], "learning_rate must be positive and finite"),
    ], ids=["gen-density-nan", "gen-density-inf", "gen-comm-range-nan", "gen-comm-range-inf",
            "experiment-density-nan", "experiment-comm-range-nan", "experiment-step-nan",
            "experiment-step-inf", "experiment-max-speed-inf", "experiment-t-max-inf",
            "pretrain-lagrange-nan",
            "pretrain-lagrange-negative", "pretrain-learning-rate-negative",
            "pretrain-learning-rate-inf"])
    def test_non_finite_parameter_is_a_usage_error(self, tmp_path, capsys, argv, message):
        out = ["--out-dir" if argv[0] == "experiment" else "--out", str(tmp_path / "x")]
        capsys.readouterr()
        assert run(*argv, "--n", "12", *out) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("field, value, message", [
        ("positions", None, "topology file field 'positions' must be a JSON list"),
        ("d_tr_m", None, "topology file field 'd_tr_m' must be a JSON number"),
        ("n", True, "topology file field 'n' must be a JSON integer"),
        ("positions", [[1e308, 0.0]] * 8 + [[-1e308, 0.0]] * 8,
         "positions are too large: their centroid would overflow"),
        ("positions", [[1e200, 0.0]] * 8 + [[-1e200, 1.0]] * 8,
         "positions are too far apart: their squared distances would overflow"),
        ("positions", [[10**400, 0.0]] + [[0.0, 0.0]] * 15,
         "topology file field 'positions' must be a JSON list of number pairs"),
    ], ids=["positions-null", "d_tr_m-null", "n-bool", "positions-centroid-overflow",
            "positions-distance-overflow", "positions-integer-beyond-float"])
    def test_damage_on_topology_with_a_mistyped_field(self, tmp_path, capsys, field, value,
                                                      message):
        topo = tmp_path / "topo.json"
        assert run("gen", "--n", "16", "--seed", "1", "--out", str(topo)) == EXIT_OK
        payload = json.loads(topo.read_text())
        payload[field] = value
        topo.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run("damage", "--topology", str(topo), "--nd", "3",
                   "--out", str(tmp_path / "s.json")) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_damage_on_a_directory_is_a_usage_error(self, tmp_path, capsys):
        capsys.readouterr()
        assert run("damage", "--topology", str(tmp_path), "--nd", "3",
                   "--out", str(tmp_path / "s.json")) == EXIT_CONFIG
        assert "Is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, message", [
        ({"version": 1, "summary": 5}, "results file field 'summary' must be a JSON list"),
        ({"version": 99, "summary": []}, "unsupported results file version: 99"),
        ({"version": 1, "summary": [{"method": "centering", "n": 20, "n_d": 9, "R_c": "high",
                                     "mean_T": 1, "std_T": None, "mean_deg": 1,
                                     "max_deg": 1}]},
         "results file field 'summary' entry 0 field 'R_c' must be a JSON finite number "
         "or null"),
        *(({"version": 1, "summary": [{"method": "centering", "n": 20, "n_d": 9, "R_c": value,
                                       "mean_T": 1, "std_T": None, "mean_deg": 1,
                                       "max_deg": 1}]},
           "results file field 'summary' entry 0 field 'R_c' must be a JSON finite number "
           "or null")
          for value in (float("nan"), float("inf"), float("-inf"), 10**400)),
    ], ids=["summary-int", "version-99", "row-metric-string", "row-metric-nan",
            "row-metric-inf", "row-metric-minus-inf", "row-metric-integer-beyond-float"])
    def test_report_rejects_a_mistyped_results_file(self, tmp_path, capsys, payload, message):
        results = tmp_path / "results.json"
        results.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run("report", "--results", str(results),
                   "--out-dir", str(tmp_path / "report")) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report" / "summary.csv").exists()

    def test_report_writes_integer_metrics_as_floats(self, tmp_path):
        results = tmp_path / "results.json"
        results.write_text(json.dumps({"version": 1, "summary": [
            {"method": "centering", "n": 20, "n_d": 9, "R_c": 1, "mean_T": 3,
             "std_T": None, "mean_deg": 10, "max_deg": 12},
        ]}))
        report = tmp_path / "report"
        assert run("report", "--results", str(results), "--out-dir", str(report)) == EXIT_OK
        assert (report / "summary.csv").read_text() == (
            "method,n,n_d,R_c,mean_T,std_T,mean_deg,max_deg\n"
            "centering,20,9,1.0,3.0,,10.0,12.0\n")
        assert (report / "trc_vs_nd.csv").read_text() == (
            "method,n_d,mean_T,std_T\ncentering,9,3.0,\n")

    @staticmethod
    def _inputs(tmp_path):
        topo, scenario, model = (tmp_path / f"{k}.json" for k in ("topo", "scenario", "model"))
        assert run("gen", "--n", "16", "--seed", "1", "--out", str(topo)) == EXIT_OK
        assert run("damage", "--topology", str(topo), "--nd", "7", "--seed", "2",
                   "--out", str(scenario)) == EXIT_OK
        assert run("pretrain", "--n", "16", "--seed", "3", "--hidden-dim", "4",
                   "--blocks", "1", "--iters", "1", "--out", str(model)) == EXIT_OK
        results = tmp_path / "results.json"
        results.write_text(json.dumps({"version": 1, "summary": []}))
        return {"topology": topo, "scenario": scenario, "model": model, "results": results,
                "config": tmp_path / "config.json"}

    @pytest.mark.parametrize("kind", ["topology", "scenario", "model", "results", "config"])
    def test_corrupt_json_names_the_file(self, tmp_path, capsys, kind):
        files = self._inputs(tmp_path)
        files[kind].write_text("{bad")
        argv = {
            "topology": ["damage", "--topology", str(files["topology"]), "--nd", "3",
                         "--out", str(tmp_path / "s.json")],
            "scenario": ["plan", "--method", "centering", "--topology", str(files["topology"]),
                         "--scenario", str(files["scenario"]),
                         "--out", str(tmp_path / "plan.json")],
            "model": ["plan", "--topology", str(files["topology"]),
                      "--scenario", str(files["scenario"]), "--model", str(files["model"]),
                      "--out", str(tmp_path / "plan.json")],
            "results": ["report", "--results", str(files["results"]),
                        "--out-dir", str(tmp_path / "report")],
            "config": ["gen", "--config", str(files["config"]),
                       "--out", str(tmp_path / "topo2.json")],
        }[kind]
        capsys.readouterr()
        assert run(*argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{kind} file {files[kind]} is not valid JSON: Expecting property name" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("destroyed", [[None], [1.5, 3], [True, 3], ["2"], [[1, 2], [3, 4]],
                                           [10**30, 3]],
                             ids=["null", "fraction", "bool", "string", "nested",
                                  "beyond-int64"])
    def test_scenario_with_a_bad_element(self, tmp_path, capsys, destroyed):
        files = self._inputs(tmp_path)
        files["scenario"].write_text(json.dumps({"version": 1, "topology_ref": "",
                                                 "destroyed": destroyed}))
        capsys.readouterr()
        assert run("plan", "--method", "centering", "--topology", str(files["topology"]),
                   "--scenario", str(files["scenario"]),
                   "--out", str(tmp_path / "plan.json")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "scenario file field 'destroyed' must be a JSON list of integers" in err
        assert "Traceback" not in err
        assert not (tmp_path / "plan.json").exists()

    @pytest.mark.parametrize("kind, field", [("topology", "positions"), ("plan", "targets")])
    @pytest.mark.parametrize("point", [["1", 2.0], [True, 2.0], [None, 2.0], [1.0],
                                       [1.0, 2.0, 3.0], 1.0],
                             ids=["string", "bool", "null", "short", "long", "flat"])
    def test_point_list_with_a_bad_element(self, tmp_path, capsys, kind, field, point):
        files = self._inputs(tmp_path)
        files["plan"] = tmp_path / "plan.json"
        assert run("plan", "--method", "centering", "--topology", str(files["topology"]),
                   "--scenario", str(files["scenario"]),
                   "--out", str(files["plan"])) == EXIT_OK
        payload = json.loads(files[kind].read_text())
        payload[field][1] = point
        files[kind].write_text(json.dumps(payload))
        capsys.readouterr()
        assert run("simulate", "--topology", str(files["topology"]),
                   "--scenario", str(files["scenario"]), "--plan", str(files["plan"]),
                   "--out", str(tmp_path / "sim.json")) == EXIT_CONFIG
        err = capsys.readouterr().err
        json_type = {**TOPOLOGY_FIELDS, **PLAN_FIELDS}[field]
        assert f"{kind} file field '{field}' must be a JSON {json_type}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "sim.json").exists()

    @pytest.mark.parametrize("kind, field, value, argv, message", [
        ("topology", "side_m", -100, [], "topology file field 'side_m'"),
        ("topology", "side_m", 0, [], "topology file field 'side_m'"),
        ("topology", "d_tr_m", float("nan"), [], "topology file field 'd_tr_m'"),
        ("topology", "d_tr_m", float("inf"), [], "topology file field 'd_tr_m'"),
        ("topology", None, None, ["--t-max", "nan"],
         "t_max must be a finite non-negative number"),
        ("topology", None, None, ["--t-max", "inf"],
         "t_max must be a finite non-negative number"),
        ("topology", None, None, ["--step", "nan"], "step_s must be positive and finite"),
        ("topology", None, None, ["--step", "inf"], "step_s must be positive and finite"),
        ("topology", None, None, ["--max-speed", "inf"],
         "max_speed must be positive and finite"),
        ("topology", None, None, ["--step", "1e-9"],
         "step_s=1e-09 is too small: the plan needs more than 1000000 steps"),
        ("plan", "k_star", "x", [],
         "plan file field 'k_star' must be a JSON positive integer or null"),
        ("plan", "method", "", [], "plan file field 'method' must be one of 'ml-dagl', "
                                   "'centering', 'fallback-centroid'"),
        ("plan", "planned_T_rc_s", float("nan"), [],
         "plan file field 'planned_T_rc_s' must be a JSON finite non-negative number"),
        ("plan", "planned_T_rc_s", float("inf"), [],
         "plan file field 'planned_T_rc_s' must be a JSON finite non-negative number"),
        ("plan", "planned_T_rc_s", -5, [],
         "plan file field 'planned_T_rc_s' must be a JSON finite non-negative number"),
    ], ids=["side-negative", "side-zero", "d-tr-nan", "d-tr-inf", "t-max-nan", "t-max-inf",
            "step-nan", "step-inf", "max-speed-inf", "step-too-small", "k-star-string", "method-empty",
            "planned-time-nan", "planned-time-inf", "planned-time-negative"])
    def test_simulate_rejects_a_bad_value(self, tmp_path, capsys, kind, field, value, argv,
                                          message):
        files = self._inputs(tmp_path)
        files["plan"] = tmp_path / "plan.json"
        assert run("plan", "--method", "centering", "--topology", str(files["topology"]),
                   "--scenario", str(files["scenario"]),
                   "--out", str(files["plan"])) == EXIT_OK
        if field is not None:
            payload = json.loads(files[kind].read_text())
            payload[field] = value
            files[kind].write_text(json.dumps(payload))
        capsys.readouterr()
        assert run("simulate", "--topology", str(files["topology"]),
                   "--scenario", str(files["scenario"]), "--plan", str(files["plan"]),
                   "--out", str(tmp_path / "sim.json"), *argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "sim.json").exists()

    def test_plan_rejects_an_infinite_speed(self, tmp_path, capsys):
        files = self._inputs(tmp_path)
        capsys.readouterr()
        assert run("plan", "--method", "centering", "--topology", str(files["topology"]),
                   "--scenario", str(files["scenario"]), "--max-speed", "inf",
                   "--out", str(tmp_path / "plan.json")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "max_speed must be positive and finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / "plan.json").exists()

    def test_learned_plan_on_a_disconnected_topology(self, tmp_path, capsys):
        files = self._inputs(tmp_path)
        cluster = [[0.0, 0.0], [50.0, 0.0], [0.0, 50.0], [50.0, 50.0]]
        positions = cluster + [[x + 5000.0, y + 5000.0] for x, y in cluster]
        files["topology"].write_text(json.dumps({
            "version": 1, "n": 8, "d_tr_m": 120.0, "side_m": 5050.0, "positions": positions}))
        files["scenario"].write_text(json.dumps({"version": 1, "topology_ref": "",
                                                 "destroyed": [1]}))
        capsys.readouterr()
        assert run("plan", "--method", "ml-dagl", "--topology", str(files["topology"]),
                   "--scenario", str(files["scenario"]), "--model", str(files["model"]),
                   "--out", str(tmp_path / "plan.json")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "graph is disconnected" in err
        assert "Traceback" not in err
        assert not (tmp_path / "plan.json").exists()

    def test_plan_with_a_non_finite_model(self, tmp_path, capsys):
        files = self._inputs(tmp_path)
        write_non_finite_model(files["model"])
        capsys.readouterr()
        assert run("plan", "--topology", str(files["topology"]),
                   "--scenario", str(files["scenario"]), "--model", str(files["model"]),
                   "--out", str(tmp_path / "plan.json")) == EXIT_CONFIG
        assert "model file field 'weights' entry 2 is not finite" in capsys.readouterr().err
        assert not (tmp_path / "plan.json").exists()

    def test_plan_with_a_zero_block_model(self, tmp_path, capsys):
        files = self._inputs(tmp_path)
        save_model(files["model"], ModelWeights.init_scaled_uniform(8, 0, seed=0), 0)
        capsys.readouterr()
        assert run("plan", "--topology", str(files["topology"]),
                   "--scenario", str(files["scenario"]), "--model", str(files["model"]),
                   "--out", str(tmp_path / "plan.json")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "model file field 'L' must be a JSON positive integer" in err
        assert "Traceback" not in err
        assert not (tmp_path / "plan.json").exists()

    @pytest.mark.parametrize("field, value", [("L", 10**12), ("d_s", 10**15)])
    def test_plan_with_a_model_size_its_shapes_do_not_have(self, tmp_path, capsys, field,
                                                          value):
        files = self._inputs(tmp_path)
        payload = json.loads(files["model"].read_text())
        payload[field] = value
        files["model"].write_text(json.dumps(payload))
        capsys.readouterr()
        assert run("plan", "--topology", str(files["topology"]),
                   "--scenario", str(files["scenario"]), "--model", str(files["model"]),
                   "--out", str(tmp_path / "plan.json")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert (f"model file field 'shapes' does not match d_s={payload['d_s']} and "
                f"L={payload['L']}") in err
        assert "Traceback" not in err
        assert not (tmp_path / "plan.json").exists()

    def test_scenario_repeating_an_index(self, tmp_path, capsys):
        files = self._inputs(tmp_path)
        files["scenario"].write_text(json.dumps({"version": 1, "topology_ref": "",
                                                 "destroyed": [2, 5, 2]}))
        capsys.readouterr()
        assert run("plan", "--method", "centering", "--topology", str(files["topology"]),
                   "--scenario", str(files["scenario"]),
                   "--out", str(tmp_path / "plan.json")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "scenario file field 'destroyed' repeats an index: 3 entries, 2 distinct" in err
        assert "Traceback" not in err

    def test_simulate_with_a_plan_for_other_survivors(self, tmp_path, capsys):
        files = self._inputs(tmp_path)
        plan = tmp_path / "plan.json"
        assert run("plan", "--method", "centering", "--topology", str(files["topology"]),
                   "--scenario", str(files["scenario"]), "--out", str(plan)) == EXIT_OK
        payload = json.loads(plan.read_text())
        payload["targets"].pop()
        plan.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run("simulate", "--topology", str(files["topology"]),
                   "--scenario", str(files["scenario"]), "--plan", str(plan),
                   "--out", str(tmp_path / "sim.json")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "plan file field 'targets' has 8 rows, but the scenario leaves 9 survivors" in err
        assert "Traceback" not in err
        assert not (tmp_path / "sim.json").exists()
