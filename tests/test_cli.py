import csv
import hashlib
import json
import logging
import sys

import numpy as np
import pytest

from ecd import gpsr
from ecd.cli import COMMANDS, _json_text, build_parser, main
from ecd.errors import MalformedTree
from ecd.exprcore import ExpressionTree, Operator, const_node, op_node, var_node
from ecd.gpsr import GpConfig, Individual, model_document, model_from_document


@pytest.fixture(autouse=True)
def fresh_logging():
    # main() calls logging.basicConfig; drop handlers between tests so each
    # run binds to the stream pytest has installed for that test
    root = logging.getLogger()
    saved = root.handlers[:]
    for handler in saved:
        root.removeHandler(handler)
    yield
    for handler in root.handlers[:]:
        root.removeHandler(handler)
    for handler in saved:
        root.addHandler(handler)


def write_csv(path, columns):
    names = list(columns)
    rows = zip(*(columns[name] for name in names))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        writer.writerows(rows)


def write_model(path, tree, variables):
    doc = model_document(Individual(tree, fitness=0.0, raw_mse=0.0), variables, GpConfig())
    path.write_text(json.dumps(doc), encoding="utf-8")


def bcd_model(path):
    tree = ExpressionTree(
        op_node(
            Operator.ADD,
            var_node("B"),
            op_node(Operator.PDIV, var_node("C"), var_node("D")),
        )
    )
    write_model(path, tree, ["B", "C", "D"])
    return tree


def regression_csv(path, seed=0, n=40):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-3.0, 3.0, n)
    b = rng.uniform(1.0, 4.0, n)
    write_csv(path, {"A": a, "B": b, "Z": a + b})


SMALL_GP = {"gp": {"population_size": 80, "generations": 4}}


def write_config(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")


class TestGen:
    def test_writes_dataset_and_truth(self, tmp_path):
        out = tmp_path / "out"
        assert main(["gen", "--out", str(out), "--n", "50", "--seed", "3"]) == 0
        with open(out / "synthetic.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["A", "B", "C", "D", "Z"]
        assert len(rows) == 51
        truth = json.loads((out / "synthetic_truth.json").read_text())
        assert truth["response"] == "Z"
        assert truth["n"] == 50
        assert truth["seed"] == 3
        assert sorted(truth["equations"]) == ["A", "B", "C", "D", "Z"]

    def test_same_seed_same_bytes(self, tmp_path):
        argv = ["gen", "--n", "30", "--seed", "11"]
        assert main(argv + ["--out", str(tmp_path / "one")]) == 0
        assert main(argv + ["--out", str(tmp_path / "two")]) == 0
        one = (tmp_path / "one" / "synthetic.csv").read_bytes()
        two = (tmp_path / "two" / "synthetic.csv").read_bytes()
        assert one == two

    def test_stdout_mirrors_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["gen", "--out", str(out), "--n", "20", "--seed", "1", "--stdout"]) == 0
        # the file's exact text, its \r\n line ends included
        assert capsys.readouterr().out == (out / "synthetic.csv").read_bytes().decode("utf-8")

    def test_invalid_n(self, tmp_path):
        assert main(["gen", "--out", str(tmp_path), "--n", "1"]) == 1

    @pytest.mark.parametrize("argv", [["gen", "--noise", "5"], ["fit", "--synth", "--noise", "1e200"]])
    def test_noise_above_one(self, tmp_path, caplog, argv):
        # noise_percent is a fraction: --noise 5 would be 500% noise
        out = tmp_path / "out"
        assert main([*argv, "--n", "20", "--out", str(out)]) == 1
        assert "noise_percent must be nonnegative and finite, at most 1" in caplog.text
        assert not out.exists()

    def test_config_with_data_and_synth_sections(self, tmp_path):
        # gen reads no CSV, so a config shared with fit may name both sources
        cfg = tmp_path / "config.json"
        write_config(cfg, {"data": {"csv": "absent.csv"}, "synth": {"n": 25, "seed": 4}})
        out = tmp_path / "out"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
        truth = json.loads((out / "synthetic_truth.json").read_text())
        assert (truth["n"], truth["seed"]) == (25, 4)
        assert main(["gen", "--config", str(cfg), "--n", "30", "--out", str(out)]) == 0
        assert json.loads((out / "synthetic_truth.json").read_text())["n"] == 30


    def test_config_with_malformed_data_section(self, tmp_path, caplog):
        # gen reads no CSV, but every field of the file is still checked
        cfg = tmp_path / "config.json"
        write_config(cfg, {"data": {"csv": 1.5}, "synth": {"n": 25}})
        out = tmp_path / "out"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 1
        assert "data.csv must be a string" in caplog.text
        assert not out.exists()

class TestFit:
    def test_csv_with_byte_order_mark(self, tmp_path):
        # Excel and many EHR exports start UTF-8 files with a byte order mark.
        data = tmp_path / "bom.csv"
        rows = b"".join(b"%d,%d,%d\n" % (i, i + 1, 2 * i + 1) for i in range(12))
        data.write_bytes(b"\xef\xbb\xbfA,B,Z\n" + rows)
        cfg = tmp_path / "gp.json"
        write_config(cfg, {"gp": {"population_size": 8, "generations": 2}})
        argv = ["fit", "--csv", str(data), "--response", "Z", "--predictors", "A,B"]
        assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert json.loads((tmp_path / "out" / "model.json").read_text())["variables"] == ["A", "B"]

    def test_csv_fit_writes_artifacts(self, tmp_path):
        data_path = tmp_path / "data.csv"
        regression_csv(data_path)
        cfg = tmp_path / "config.json"
        write_config(cfg, SMALL_GP)
        out = tmp_path / "out"
        code = main(
            [
                "fit", "--csv", str(data_path), "--response", "Z",
                "--predictors", "A,B", "--config", str(cfg),
                "--seed", "2", "--out", str(out),
            ]
        )
        assert code == 0
        for name in ("model.json", "history.csv", "expression.txt", "best_tree.dot"):
            assert (out / name).exists()
        doc = json.loads((out / "model.json").read_text())
        assert doc["variables"] == ["A", "B"]
        assert doc["seed"] == 2
        assert doc["config"]["population_size"] == 80
        assert doc["expression"] == (out / "expression.txt").read_text().strip()
        with open(out / "history.csv", newline="") as handle:
            header = next(csv.reader(handle))
        assert header == ["generation", "min_fitness", "mean_fitness", "diversity", "best_expression"]

    def test_rerun_is_byte_identical(self, tmp_path):
        data_path = tmp_path / "data.csv"
        regression_csv(data_path)
        cfg = tmp_path / "config.json"
        write_config(cfg, SMALL_GP)
        argv = [
            "fit", "--csv", str(data_path), "--response", "Z",
            "--predictors", "A,B", "--config", str(cfg), "--seed", "4",
        ]
        assert main(argv + ["--out", str(tmp_path / "one")]) == 0
        assert main(argv + ["--out", str(tmp_path / "two")]) == 0
        for name in ("model.json", "history.csv", "expression.txt"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_synth_fit(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        write_config(cfg, SMALL_GP)
        out = tmp_path / "out"
        code = main(
            ["fit", "--synth", "--n", "40", "--seed", "1", "--config", str(cfg),
             "--out", str(out), "--stdout"]
        )
        assert code == 0
        assert capsys.readouterr().out == (out / "model.json").read_text()
        assert json.loads((out / "model.json").read_text())["variables"] == ["A", "B", "C", "D"]

    def test_config_seed_beaten_by_flag(self, tmp_path):
        data_path = tmp_path / "data.csv"
        regression_csv(data_path)
        cfg = tmp_path / "config.json"
        write_config(cfg, dict(SMALL_GP, seed=5))
        base = [
            "fit", "--csv", str(data_path), "--response", "Z",
            "--predictors", "A,B", "--config", str(cfg),
        ]
        assert main(base + ["--out", str(tmp_path / "one")]) == 0
        assert json.loads((tmp_path / "one" / "model.json").read_text())["seed"] == 5
        assert main(base + ["--seed", "7", "--out", str(tmp_path / "two")]) == 0
        assert json.loads((tmp_path / "two" / "model.json").read_text())["seed"] == 7

    def test_missing_csv(self, tmp_path):
        code = main(
            ["fit", "--csv", str(tmp_path / "nope.csv"), "--response", "Z",
             "--predictors", "A", "--out", str(tmp_path)]
        )
        assert code == 1

    def test_unknown_gp_field(self, tmp_path):
        data_path = tmp_path / "data.csv"
        regression_csv(data_path)
        cfg = tmp_path / "config.json"
        write_config(cfg, {"gp": {"popsize": 10}})
        code = main(
            ["fit", "--csv", str(data_path), "--response", "Z",
             "--predictors", "A,B", "--config", str(cfg), "--out", str(tmp_path)]
        )
        assert code == 1

    def test_conflicting_sources_in_config(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(
            cfg,
            {"data": {"csv": "x.csv", "response": "Z", "predictors": ["A"]}, "synth": {"n": 10}},
        )
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == 1

    def test_no_source(self, tmp_path):
        assert main(["fit", "--out", str(tmp_path)]) == 1

    def test_csv_source_without_roles(self, tmp_path, caplog):
        data_path = tmp_path / "data.csv"
        regression_csv(data_path)
        cfg = tmp_path / "config.json"
        write_config(cfg, dict(SMALL_GP, data={"csv": str(data_path)}))
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 1
        assert "csv data source needs csv, response and predictors" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"gp": 5}, "'gp' must be an object"),
            ({"ris": 5}, "'ris' must be an object"),
            ({"synth": 5}, "'synth' must be an object"),
            ({"data": [1]}, "'data' must be an object"),
            ({"ris": {"magnitude": "x"}}, "ris.magnitude must be a number"),
            ({"ris": {"threshold": [1]}}, "ris.threshold must be a number"),
            ({"gp": {"generations": "x"}}, "gp.generations must be an integer"),
            ({"gp": {"population_size": 50.5}}, "gp.population_size must be an integer"),
            ({"gp": {"init_depth_range": [2]}}, "gp.init_depth_range must be a list of 2"),
            ({"seed": "x"}, "seed must be an integer"),
            ({"synth": {"n": "many"}}, "synth.n must be an integer"),
            ({"outdir": "x"}, "unknown top-level config fields: outdir"),
            ({"synth": {"size": 5}}, "unknown synth config fields: size"),
            ({"ris": {"magnitde": 0.1}}, "unknown ris config fields: magnitde"),
            ({"intervention": {"variable": "B", "by": 2}}, "unknown intervention config fields: by"),
            ({"gp": {"preset": 3}}, "gp.preset must be a string, got 3"),
            ({"data": {"predictors": "AB"}}, "data.predictors must be a list"),
            (
                {"intervention": {"variable": "B", "mode": "relative", "magnitude": 2}},
                "unknown intervention config fields: magnitude",
            ),
            ([{"gp": {}}], "config file must contain a JSON object"),
        ],
    )
    def test_malformed_config_is_invalid_config(self, tmp_path, caplog, doc, message):
        cfg = tmp_path / "config.json"
        write_config(cfg, doc)
        code = main(["fit", "--synth", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 1
        assert message in caplog.text

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"predictors": "AB"}, "data.predictors must be a list, got 'AB'"),
            ({"predictors": 5}, "data.predictors must be a list"),
            ({"predictors": ["A", 1]}, "data.predictors must be a string, got 1"),
            ({"csv": 1.5}, "data.csv must be a string"),
            ({"csv": ["x"]}, "data.csv must be a string"),
            ({"response": 3}, "data.response must be a string"),
            ({"missing_policy": None}, "data.missing_policy must be a string"),
            ({"filter": {}}, "data.filter must be a list"),
            ({"sep": ";"}, "unknown data config fields: sep"),
        ],
    )
    def test_malformed_data_section(self, tmp_path, caplog, data, message):
        data_path = tmp_path / "data.csv"
        regression_csv(data_path)
        section = {"csv": str(data_path), "response": "Z", "predictors": ["A", "B"], **data}
        cfg = tmp_path / "config.json"
        write_config(cfg, dict(SMALL_GP, data=section))
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 1
        assert message in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("value", [5, None])
    def test_out_must_be_a_string(self, tmp_path, monkeypatch, caplog, value):
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path / "config.json", dict(SMALL_GP, out=value))
        assert main(["fit", "--synth", "--n", "20", "--config", "config.json"]) == 1
        assert "out must be a string" in caplog.text
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["fit", "--synth", "--seed", "-1"], SMALL_GP),
            (["gen", "--seed", "-1"], {}),
            (["fit", "--synth"], dict(SMALL_GP, seed=-1)),
            (["fit", "--synth"], {"gp": dict(SMALL_GP["gp"], seed=-3)}),
            (["fit", "--synth"], dict(SMALL_GP, synth={"seed": -3})),
            (["gen"], {"synth": {"seed": -3}}),
        ],
        ids=["flag-fit", "flag-gen", "top-level", "gp.seed", "synth.seed-fit", "synth.seed-gen"],
    )
    def test_negative_seed(self, tmp_path, caplog, argv, doc):
        cfg = tmp_path / "config.json"
        write_config(cfg, doc)
        out = tmp_path / "out"
        assert main([*argv, "--n", "20", "--config", str(cfg), "--out", str(out)]) == 1
        assert "seed must be nonnegative" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize(
        "bounds", [[-1e308, 1e308], [0.0, 1e999], [-1e999, -1e999], [0, 10**400]]
    )
    def test_non_finite_constant_range(self, tmp_path, caplog, bounds):
        cfg = tmp_path / "config.json"
        write_config(cfg, {"gp": {"constant_range": bounds}})
        code = main(["fit", "--synth", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 1
        assert "must have finite bounds and width" in caplog.text
        assert not (tmp_path / "model.json").exists()


def ris_fixture(tmp_path):
    model_path = tmp_path / "model.json"
    bcd_model(model_path)
    data_path = tmp_path / "data.csv"
    rng = np.random.default_rng(2)
    b = rng.uniform(1.0, 4.0, 30)
    c = rng.uniform(2.0, 6.0, 30)
    d = rng.uniform(3.0, 8.0, 30)
    write_csv(data_path, {"B": b, "C": c, "D": d, "Z": b + c / d})
    return model_path, data_path


class TestRis:
    def test_table_and_dot_artifacts(self, tmp_path, capsys):
        model_path, data_path = ris_fixture(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["ris", "--model", str(model_path), "--csv", str(data_path),
             "--response", "Z", "--predictors", "B,C,D", "--out", str(out), "--stdout"]
        )
        assert code == 0
        text = (out / "impact_table.txt").read_text()
        assert capsys.readouterr().out == text
        assert text.splitlines()[1].startswith("Variable")
        doc = json.loads((out / "impact_table.json").read_text())
        assert [row["variable"] for row in doc["rows"]] == ["B", "C", "D"]
        for name in ("B", "C", "D"):
            for label in ("Q1", "Q2", "Q3"):
                assert (out / f"impact_{name}_{label}.dot").exists()

    def test_magnitude_flag_changes_table(self, tmp_path):
        model_path, data_path = ris_fixture(tmp_path)
        base = ["ris", "--model", str(model_path), "--csv", str(data_path),
                "--response", "Z", "--predictors", "B,C,D"]
        assert main(base + ["--out", str(tmp_path / "small"), "--magnitude", "0.01"]) == 0
        assert main(base + ["--out", str(tmp_path / "big"), "--magnitude", "0.5"]) == 0
        small = json.loads((tmp_path / "small" / "impact_table.json").read_text())
        big = json.loads((tmp_path / "big" / "impact_table.json").read_text())
        assert small["perturbation"]["magnitude"] == 0.01
        assert abs(big["rows"][0]["impacts"][0]) > abs(small["rows"][0]["impacts"][0])

    def test_stdout_keeps_carriage_return_in_name(self, tmp_path, capsys):
        # --stdout prints the table's exact text, a "\r" inside a name included
        model_path = tmp_path / "model.json"
        write_model(model_path, ExpressionTree(op_node(Operator.MUL, var_node("A\rB"), const_node(2.0))), ["A\rB"])
        data_path = tmp_path / "data.csv"
        write_csv(data_path, {"A\rB": [1.0, 2.0, 3.0, 4.0], "Z": [2.0, 4.0, 6.0, 8.0]})
        out = tmp_path / "out"
        assert main(
            ["ris", "--model", str(model_path), "--csv", str(data_path), "--response", "Z",
             "--predictors", "A\rB", "--out", str(out), "--stdout"]
        ) == 0
        text = (out / "impact_table.txt").read_bytes().decode("utf-8")
        assert "A\rB" in text
        assert capsys.readouterr().out == text

    def test_slash_in_predictor_name(self, tmp_path):
        # A name's "/" would name a file in a directory that does not exist;
        # it is written %2F, and "%" %25, so "a/b" and "a%2Fb" stay apart.
        data_path = tmp_path / "data.csv"
        rng = np.random.default_rng(5)
        columns = {name: rng.uniform(1.0, 4.0, 50) for name in ("BP sys/dia", "B", "a/b", "a%2Fb")}
        write_csv(data_path, {**columns, "Z": columns["BP sys/dia"] + columns["B"]})
        write_config(tmp_path / "small.json", {"gp": {"population_size": 20, "generations": 2}})
        fit = tmp_path / "fit"
        data = ["--csv", str(data_path), "--response", "Z", "--config", str(tmp_path / "small.json")]
        assert main(["fit", *data, "--predictors", "BP sys/dia,B", "--out", str(fit)]) == 0
        out = tmp_path / "ris"
        argv = ["ris", "--model", str(fit / "model.json"), *data, "--predictors", "BP sys/dia,B", "--out", str(out)]
        assert main(argv) == 0
        dots = sorted(path.name for path in out.glob("*.dot"))
        stems = ("B", "BP sys%2Fdia")
        assert dots == sorted(f"impact_{stem}_{q}.dot" for stem in stems for q in ("Q1", "Q2", "Q3"))
        write_model(tmp_path / "model.json", ExpressionTree(var_node("a/b")), ["a/b", "a%2Fb"])
        out = tmp_path / "ris2"
        argv = ["ris", "--model", str(tmp_path / "model.json"), *data, "--predictors", "a/b,a%2Fb", "--out", str(out)]
        assert main(argv) == 0
        dots = sorted(path.name for path in out.glob("*.dot"))
        stems = ("a%252Fb", "a%2Fb")
        assert dots == sorted(f"impact_{stem}_{q}.dot" for stem in stems for q in ("Q1", "Q2", "Q3"))

    def test_huge_baseline_row_stays_short(self, tmp_path):
        # Baselines outside (-1e16, 1e16) print in exponent form, as impacts do,
        # not as a 300-digit number per cell.
        model_path = tmp_path / "model.json"
        tree = ExpressionTree(op_node(Operator.MUL, var_node("A"), const_node(10.0)))
        write_model(model_path, tree, ["A"])
        data_path = tmp_path / "data.csv"
        write_csv(data_path, {"A": [1e300, 2e300, 3e300], "Z": [0, 0, 0]})
        out = tmp_path / "out"
        assert main(
            ["ris", "--model", str(model_path), "--csv", str(data_path), "--response", "Z",
             "--predictors", "A", "--out", str(out)]
        ) == 0
        lines = (out / "impact_table.txt").read_text().splitlines()
        assert max(len(line) for line in lines) <= 200
        assert lines[-1].split() == ["Baseline", "1.5e+301", "2.0e+301", "2.5e+301"]

    def test_data_missing_model_variable(self, tmp_path):
        model_path = tmp_path / "model.json"
        bcd_model(model_path)
        data_path = tmp_path / "data.csv"
        write_csv(data_path, {"B": [1.0, 2.0], "Z": [1.0, 2.0]})
        code = main(
            ["ris", "--model", str(model_path), "--csv", str(data_path),
             "--response", "Z", "--predictors", "B", "--out", str(tmp_path)]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "extra", [["--magnitude", "nan"], ["--magnitude=-inf"], ["--config", "nan.json"]]
    )
    def test_non_finite_magnitude(self, tmp_path, caplog, extra):
        model_path, data_path = ris_fixture(tmp_path)
        # json.load reads the bare NaN that Python's json.dumps writes
        write_config(tmp_path / "nan.json", {"ris": {"magnitude": float("nan")}})
        extra = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in extra]
        out = tmp_path / "out"
        code = main(
            ["ris", "--model", str(model_path), "--csv", str(data_path), "--response", "Z",
             "--predictors", "B,C,D", "--out", str(out), *extra]
        )
        assert code == 1
        assert "is not finite" in caplog.text
        assert not (out / "impact_table.json").exists()


SET_D = {"variable": "D", "mode": "set_to", "value": 6}


class TestCounterfactual:
    def test_derived_scenario(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        bcd_model(model_path)
        out = tmp_path / "out"
        code = main(
            ["counterfactual", "--model", str(model_path),
             "--at", "B=2", "--at", "C=3", "--at", "D=5",
             "--set", "D=6", "--out", str(out), "--stdout"]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "baseline output: 2.600" in text
        assert "perturbed output: 2.500" in text
        assert "impact: -0.100" in text
        assert "most changed internal nodes:" in text
        assert text == (out / "counterfactual.txt").read_text()
        doc = json.loads((out / "counterfactual.json").read_text())
        assert doc["variable"] == "D"
        assert doc["impact"] == pytest.approx(-0.1)
        assert (out / "counterfactual.dot").exists()

    def test_scenario_from_config(self, tmp_path):
        model_path = tmp_path / "model.json"
        bcd_model(model_path)
        cfg = tmp_path / "config.json"
        write_config(
            cfg,
            {
                "scenario": {"B": 2, "C": 3, "D": 5},
                "intervention": {"variable": "D", "mode": "set_to", "value": 6},
            },
        )
        out = tmp_path / "out"
        code = main(
            ["counterfactual", "--model", str(model_path), "--config", str(cfg),
             "--out", str(out)]
        )
        assert code == 0
        doc = json.loads((out / "counterfactual.json").read_text())
        assert doc["impact"] == pytest.approx(-0.1)

    @pytest.mark.parametrize(
        "intervention",
        [{"variable": "D", "mode": "relative", "value": 0.2}, {"variable": "D", "mode": "absolute", "value": 1}],
    )
    def test_value_is_the_number_of_every_mode(self, tmp_path, intervention):
        # D = 5 scaled by 1 + 0.2, or shifted by 1, is 6, as --set D=6 gives
        model_path = tmp_path / "model.json"
        bcd_model(model_path)
        cfg = tmp_path / "config.json"
        write_config(cfg, {"scenario": {"B": 2, "C": 3, "D": 5}, "intervention": intervention})
        out = tmp_path / "out"
        argv = ["counterfactual", "--model", str(model_path), "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 0
        doc = json.loads((out / "counterfactual.json").read_text())
        assert doc["perturbed_output"] == pytest.approx(2.5)
        assert doc["impact"] == pytest.approx(-0.1)

    def test_relative_change_of_a_zero_notes_its_fallback(self, tmp_path):
        model_path = tmp_path / "model.json"
        bcd_model(model_path)
        cfg = tmp_path / "config.json"
        write_config(cfg, {"intervention": {"variable": "B", "mode": "relative", "value": 0.05}})
        out = tmp_path / "out"
        code = main(
            ["counterfactual", "--model", str(model_path), "--config", str(cfg),
             "--at", "B=0", "--at", "C=3", "--at", "D=5", "--out", str(out)]
        )
        assert code == 0
        lines = (out / "counterfactual.txt").read_text().splitlines()
        assert lines[2:6] == [
            "intervention: B relative 0.05",
            "perturbed output: 0.650",
            "impact: +0.050",
            "note: relative perturbation of B fell back to absolute: baseline is 0",
        ]

    def test_flags_overwrite_scenario_and_intervention(self, tmp_path):
        model_path = tmp_path / "model.json"
        bcd_model(model_path)
        cfg = tmp_path / "config.json"
        write_config(
            cfg,
            {"scenario": {"B": 2, "C": 3, "D": 9}, "intervention": {"variable": "B", "value": 7}},
        )
        out = tmp_path / "out"
        code = main(
            ["counterfactual", "--model", str(model_path), "--config", str(cfg),
             "--at", "D=5", "--set", "D=6", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads((out / "counterfactual.json").read_text())
        assert doc["variable"] == "D"
        assert doc["impact"] == pytest.approx(-0.1)

    def test_missing_scenario_or_intervention(self, tmp_path):
        model_path = tmp_path / "model.json"
        bcd_model(model_path)
        base = ["counterfactual", "--model", str(model_path), "--out", str(tmp_path)]
        assert main(base + ["--set", "D=6"]) == 1
        assert main(base + ["--at", "B=2", "--at", "C=3", "--at", "D=5"]) == 1
        assert main(base + ["--at", "B=2", "--set", "D"]) == 1

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"scenario": 5, "intervention": SET_D}, "'scenario' must be an object"),
            (
                {"scenario": {"B": "x", "C": 3, "D": 5}, "intervention": SET_D},
                "scenario.B must be a number",
            ),
            ({"scenario": {"B": 2, "C": 3, "D": 5}, "intervention": 3}, "'intervention' must be an object"),
            (
                {"scenario": {"B": 2, "C": 3, "D": 5}, "intervention": dict(SET_D, value="2.5")},
                "intervention.value must be a number",
            ),
            (
                {"scenario": {"B": 2, "C": 3, "D": 5}, "intervention": dict(SET_D, value=True)},
                "intervention.value must be a number",
            ),
            (
                {"scenario": {"B": 2, "C": 3, "D": 5}, "intervention": dict(SET_D, variable=4)},
                "intervention.variable must be a string",
            ),
            (
                {"scenario": {"B": 2, "C": 3, "D": 5}, "intervention": dict(SET_D, mode="scale")},
                "unknown perturbation mode",
            ),
            (
                {"scenario": {"B": 2, "C": 3, "D": 5}, "intervention": dict(SET_D, value=float("nan"))},
                "is not finite",
            ),
        ],
    )
    def test_malformed_scenario_or_intervention(self, tmp_path, caplog, doc, message):
        model_path = tmp_path / "model.json"
        bcd_model(model_path)
        cfg = tmp_path / "config.json"
        write_config(cfg, doc)
        code = main(
            ["counterfactual", "--model", str(model_path), "--config", str(cfg), "--out", str(tmp_path)]
        )
        assert code == 1
        assert message in caplog.text

    def test_non_finite_set_value(self, tmp_path, caplog):
        model_path = tmp_path / "model.json"
        bcd_model(model_path)
        code = main(
            ["counterfactual", "--model", str(model_path), "--at", "B=2", "--at", "C=3",
             "--at", "D=5", "--set", "D=nan", "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert "is not finite" in caplog.text
        assert not (tmp_path / "out" / "counterfactual.json").exists()

    def test_scenario_missing_tree_variable(self, tmp_path):
        model_path = tmp_path / "model.json"
        bcd_model(model_path)
        code = main(
            ["counterfactual", "--model", str(model_path),
             "--at", "B=2", "--set", "B=3", "--out", str(tmp_path)]
        )
        assert code == 1

    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_blank_scenario_name(self, tmp_path, caplog, route):
        model_path = tmp_path / "model.json"
        bcd_model(model_path)
        cfg = tmp_path / "config.json"
        write_config(cfg, {"scenario": {"": 7, "B": 2, "C": 3, "D": 5}} if route == "config" else {})
        at = ["--at", "B=2", "--at", "C=3", "--at", "D=5", "--at", " =7"] if route == "flag" else []
        out = tmp_path / "out"
        code = main(
            ["counterfactual", "--model", str(model_path), "--config", str(cfg), *at,
             "--set", "D=6", "--out", str(out)]
        )
        assert code == 1
        assert "scenario variable names must be nonempty" in caplog.text
        assert not out.exists()


class TestSimplify:
    def test_prunes_inert_subtree(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        tree = ExpressionTree(
            op_node(
                Operator.ADD,
                var_node("B"),
                op_node(Operator.MUL, const_node(0.0), var_node("X")),
            )
        )
        write_model(model_path, tree, ["B", "X"])
        data_path = tmp_path / "data.csv"
        write_csv(
            data_path,
            {"B": [1.0, 2.0, 3.0, 4.0], "X": [5.0, 6.0, 7.0, 8.0], "Z": [1.0, 2.0, 3.0, 4.0]},
        )
        out = tmp_path / "out"
        code = main(
            ["simplify", "--model", str(model_path), "--csv", str(data_path),
             "--response", "Z", "--predictors", "B,X", "--out", str(out), "--stdout"]
        )
        assert code == 0
        doc = json.loads((out / "simplified_model.json").read_text())
        assert doc["expression"] == "(B + 0)"
        assert doc["pruned_node_ids"] == [2]
        assert doc["simplified_from_size"] == 5
        assert capsys.readouterr().out == (out / "simplified_model.json").read_text()
        assert (out / "simplified_tree.dot").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_never_prunes_to_non_finite_constant(self, tmp_path):
        # 1e308 * (5 + 5) is inf everywhere, so its deltas are NaN and it reads
        # as quiet, without a numpy warning; C is mostly 0, so a quartile of C
        # is 0 and C's relative perturbation falls back to an absolute shift
        model_path = tmp_path / "model.json"
        inf_subtree = op_node(
            Operator.MUL,
            const_node(1e308),
            op_node(Operator.ADD, const_node(5.0), const_node(5.0)),
        )
        tree = ExpressionTree(
            op_node(
                Operator.PDIV,
                var_node("B"),
                op_node(Operator.PDIV, inf_subtree, var_node("C")),
            )
        )
        write_model(model_path, tree, ["B", "C"])
        data_path = tmp_path / "data.csv"
        c = [0.0] * 16 + [17.0, 18.0, 19.0, 20.0]
        write_csv(data_path, {"B": np.arange(1.0, 21.0), "C": c, "Z": np.arange(1.0, 21.0)})
        out = tmp_path / "out"
        code = main(
            ["simplify", "--model", str(model_path), "--csv", str(data_path),
             "--response", "Z", "--predictors", "B,C", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads((out / "simplified_model.json").read_text())
        assert model_from_document(doc)[1] == ("B", "C")
        # the inf subtree stays; the quiet finite 5 + 5 inside it is pruned
        assert doc["pruned_node_ids"] == [5]
        assert doc["expression"] == "(B / ((1e+308 * 10) / C))"

    def test_reactive_model_untouched(self, tmp_path):
        model_path, data_path = ris_fixture(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["simplify", "--model", str(model_path), "--csv", str(data_path),
             "--response", "Z", "--predictors", "B,C,D", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads((out / "simplified_model.json").read_text())
        assert doc["pruned_node_ids"] == []
        assert doc["expression"] == "(B + (C / D))"

    def test_bad_model_file(self, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text("{\"variables\": [\"A\"]}", encoding="utf-8")
        data_path = tmp_path / "data.csv"
        write_csv(data_path, {"A": [1.0, 2.0], "Z": [1.0, 2.0]})
        code = main(
            ["simplify", "--model", str(model_path), "--csv", str(data_path),
             "--response", "Z", "--predictors", "A", "--out", str(tmp_path)]
        )
        assert code == 1

    def test_non_finite_magnitude(self, tmp_path, caplog):
        model_path, data_path = ris_fixture(tmp_path)
        code = main(
            ["simplify", "--model", str(model_path), "--csv", str(data_path), "--response", "Z",
             "--predictors", "B,C,D", "--magnitude", "nan", "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert "is not finite" in caplog.text

    def test_invalid_config_json(self, tmp_path):
        model_path = tmp_path / "model.json"
        bcd_model(model_path)
        cfg = tmp_path / "config.json"
        cfg.write_text("not json", encoding="utf-8")
        code = main(
            ["simplify", "--model", str(model_path), "--config", str(cfg),
             "--out", str(tmp_path)]
        )
        assert code == 1

    def test_negative_threshold(self, tmp_path, caplog):
        model_path, data_path = ris_fixture(tmp_path)
        code = main(
            ["simplify", "--model", str(model_path), "--csv", str(data_path),
             "--response", "Z", "--predictors", "B,C,D", "--threshold", "-1",
             "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert "threshold must be nonnegative" in caplog.text

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_threshold_flag(self, tmp_path, caplog, value):
        model_path, data_path = ris_fixture(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["simplify", "--model", str(model_path), "--csv", str(data_path),
             "--response", "Z", "--predictors", "B,C,D", "--threshold", value,
             "--out", str(out)]
        )
        assert code == 1
        assert "threshold must be nonnegative and finite" in caplog.text
        assert not (out / "simplified_model.json").exists()

    def test_non_finite_threshold_in_config(self, tmp_path, caplog):
        model_path, data_path = ris_fixture(tmp_path)
        cfg = tmp_path / "config.json"
        # 1e999 is how JSON spells a float that parses to inf.
        cfg.write_text('{"ris": {"threshold": 1e999}}', encoding="utf-8")
        code = main(
            ["simplify", "--model", str(model_path), "--csv", str(data_path),
             "--response", "Z", "--predictors", "B,C,D", "--config", str(cfg),
             "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert "threshold must be nonnegative and finite" in caplog.text


class TestMalformedModel:
    def test_deeply_nested_document(self, tmp_path, caplog):
        depth = 5000
        tree = '{"op": "add", "children": [' * depth + '{"var": "A"}' + ', {"var": "A"}]}' * depth
        model_path = tmp_path / "model.json"
        model_path.write_text('{"variables": ["A"], "tree": ' + tree + "}", encoding="utf-8")
        code = main(["ris", "--model", str(model_path), "--synth", "--out", str(tmp_path)])
        assert code == 1
        assert "nested too deeply" in caplog.text

    def test_document_not_an_object(self, tmp_path, caplog):
        model_path = tmp_path / "model.json"
        model_path.write_text("[1, 2]", encoding="utf-8")
        code = main(["ris", "--model", str(model_path), "--synth", "--out", str(tmp_path)])
        assert code == 1
        assert "must be an object" in caplog.text

    def test_tree_too_deep_to_write(self, tmp_path):
        # json.dumps(indent=2) recurses per level and fails from depth ~500
        depth = 600
        tree = ExpressionTree((Operator.ADD,) * depth + ("A",) + ("B",) * depth)
        doc = model_document(Individual(tree, fitness=0.0, raw_mse=0.0), ["A", "B"], GpConfig())
        with pytest.raises(MalformedTree, match="nested too deeply to write"):
            _json_text("model.json", doc)

    @pytest.mark.parametrize(
        "extra", [{"schema_version": 2}, {"operators": ["add", "pow"]}, {"operators": "add"}]
    )
    def test_unsupported_schema_or_operators(self, tmp_path, caplog, extra):
        model_path = tmp_path / "model.json"
        bcd_model(model_path)
        doc = json.loads(model_path.read_text())
        model_path.write_text(json.dumps({**doc, **extra}), encoding="utf-8")
        code = main(["ris", "--model", str(model_path), "--synth", "--out", str(tmp_path)])
        assert code == 1
        assert "model schema_version" in caplog.text or "model operators" in caplog.text

    def test_repeated_variables(self, tmp_path, caplog):
        model_path = tmp_path / "model.json"
        bcd_model(model_path)
        doc = json.loads(model_path.read_text())
        model_path.write_text(json.dumps(dict(doc, variables=["B", "C", "D", "B"])), encoding="utf-8")
        out = tmp_path / "out"
        code = main(["ris", "--model", str(model_path), "--synth", "--out", str(out)])
        assert code == 1
        assert "repeat a name" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ris", "simplify", "counterfactual"])
    @pytest.mark.parametrize("constant", ["1e999", "NaN", "-Infinity"])
    def test_non_finite_constant(self, tmp_path, caplog, command, constant):
        model_path = tmp_path / "model.json"
        model_path.write_text(
            '{"variables": ["B"], "tree": {"op": "add", "children": '
            '[{"var": "B"}, {"const": ' + constant + "}]}}",
            encoding="utf-8",
        )
        data = ["--at", "B=2", "--set", "B=3"] if command == "counterfactual" else ["--synth"]
        out = tmp_path / "out"
        assert main([command, "--model", str(model_path), *data, "--out", str(out)]) == 1
        assert "constant is not a finite number" in caplog.text
        assert not out.exists()

    def test_non_numeric_constant(self, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text('{"variables": [], "tree": {"const": "x"}}', encoding="utf-8")
        code = main(["ris", "--model", str(model_path), "--synth", "--out", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"variables": "BC"}, "model variables must be a list of strings"),
            ({"variables": 5}, "model variables must be a list of strings"),
            ({"variables": ["B", 3]}, "model variables must be a list of strings"),
            ({"tree": {"const": "1.5"}}, "constant is not a finite number"),
            ({"tree": {"const": True}}, "constant is not a finite number"),
            ({"tree": {"var": 1}}, "variable name must be a nonempty string"),
            ({"tree": {"var": ""}}, "variable name must be a nonempty string"),
        ],
    )
    def test_slot_of_wrong_type(self, tmp_path, caplog, doc, message):
        model_path = tmp_path / "model.json"
        tree = {"op": "add", "children": [{"var": "B"}, {"var": "C"}]}
        model_path.write_text(json.dumps({"variables": ["B", "C"], "tree": tree, **doc}))
        out = tmp_path / "out"
        code = main(
            ["counterfactual", "--model", str(model_path), "--at", "B=2", "--at", "C=3",
             "--set", "B=3", "--out", str(out)]
        )
        assert code == 1
        assert message in caplog.text
        assert not out.exists()


HUGE = "1" + "0" * 400  # a JSON integer beyond float range
TINY_GP = {"population_size": 8, "generations": 2}

# Each float field of a run config: the command that reads it, and a config
# document with "@" where the field's value goes.
FLOAT_FIELDS = {
    "gp.crossover_prob": ("fit", {"gp": dict(TINY_GP, crossover_prob="@")}),
    "gp.mutation_prob": ("fit", {"gp": dict(TINY_GP, mutation_prob="@")}),
    "gp.parsimony_coeff": ("fit", {"gp": dict(TINY_GP, parsimony_coeff="@")}),
    "gp.fitness_threshold": ("fit", {"gp": dict(TINY_GP, fitness_threshold="@")}),
    "gp.constant_range.lo": ("fit", {"gp": dict(TINY_GP, constant_range=["@", 5])}),
    "gp.constant_range.hi": ("fit", {"gp": dict(TINY_GP, constant_range=[-5, "@"])}),
    "synth.noise_percent": ("fit", {"gp": TINY_GP, "synth": {"noise_percent": "@"}}),
    "ris.magnitude": ("simplify", {"ris": {"magnitude": "@"}}),
    "ris.threshold": ("simplify", {"ris": {"threshold": "@"}}),
    "scenario": ("counterfactual", {"scenario": {"B": "@", "C": 3, "D": 5}, "intervention": SET_D}),
    "intervention": (
        "counterfactual",
        {"scenario": {"B": 2, "C": 3, "D": 5}, "intervention": dict(SET_D, value="@")},
    ),
}


@pytest.mark.parametrize("field", sorted(FLOAT_FIELDS))
@pytest.mark.parametrize(
    "literal, like", [(HUGE, "1e999"), ("-" + HUGE, "-1e999"), ("NaN", "1e999")],
    ids=["huge", "minus-huge", "nan"],
)
def test_config_float_beyond_range(tmp_path, field, literal, like):
    """An out-of-range float field ends as 1e999 does, never in a traceback."""
    command, doc = FLOAT_FIELDS[field]
    model_path, data_path = ris_fixture(tmp_path)
    argv = {
        "fit": ["fit", "--synth", "--n", "20"],
        "simplify": ["simplify", "--model", str(model_path), "--csv", str(data_path),
                     "--response", "Z", "--predictors", "B,C,D"],
        "counterfactual": ["counterfactual", "--model", str(model_path)],
    }[command]

    def run(value, name):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(doc).replace('"@"', value), encoding="utf-8")
        return main([*argv, "--config", str(cfg), "--out", str(tmp_path / name)])

    expected = run(like, "like")
    assert expected in (0, 1)
    assert run(literal, "got") == expected


# One config shared by all five commands, each of whose sections is valid.
SHARED_CONFIG = {
    "gp": TINY_GP,
    "synth": {"n": 30},
    "ris": {"mode": "relative", "magnitude": 0.05, "threshold": 0.0},
    "scenario": {"B": 2, "C": 3, "D": 5},
    "intervention": SET_D,
}

# "section.key" -> (bad value, the error it ends in)
BAD_FIELDS = {
    "synth.n": (-5, "n must be at least 2"),
    "synth.noise_percent": (7, "noise_percent must be nonnegative and finite, at most 1"),
    "ris.magnitude": (float("nan"), "ris.magnitude is not finite"),
    "ris.threshold": (-1, "ris.threshold must be nonnegative and finite"),
    "scenario.B": (float("nan"), "baseline value for 'B' is non-finite"),
    "intervention.mode": ("bogus", "unknown perturbation mode 'bogus'"),
    "intervention.value": (float("nan"), "perturbation of 'D' is not finite"),
}


def command_argv(command, model_path, data) -> list[str]:
    """argv of command over the model at model_path, with data as its data flags."""
    return {
        "gen": ["gen"],
        "fit": ["fit", *data],
        "ris": ["ris", "--model", str(model_path), *data],
        "counterfactual": ["counterfactual", "--model", str(model_path)],
        "simplify": ["simplify", "--model", str(model_path), *data],
    }[command]


@pytest.mark.parametrize("field", [None, *BAD_FIELDS])
@pytest.mark.parametrize("command", ["gen", "fit", "ris", "counterfactual", "simplify"])
def test_every_command_checks_every_section(tmp_path, caplog, command, field):
    """A shared config with one bad field stops every command before it
    writes anything, whether or not the command reads that field."""
    model_path, data_path = ris_fixture(tmp_path)
    argv = command_argv(command, model_path, ["--csv", str(data_path), "--response", "Z", "--predictors", "B,C,D"])
    doc = dict(SHARED_CONFIG)
    if field is not None:
        section, key = field.split(".")
        doc[section] = {**doc[section], key: BAD_FIELDS[field][0]}
    cfg = tmp_path / "config.json"
    write_config(cfg, doc)
    out = tmp_path / "out"
    code = main([*argv, "--config", str(cfg), "--out", str(out)])
    if field is None:
        assert code == 0
    else:
        assert code == 1
        assert BAD_FIELDS[field][1] in caplog.text
        assert not out.exists()


def test_mode_of_incomplete_intervention_is_checked(tmp_path, caplog):
    cfg = tmp_path / "config.json"
    write_config(cfg, {"gp": TINY_GP, "intervention": {"mode": "bogus"}})
    out = tmp_path / "out"
    assert main(["fit", "--synth", "--n", "20", "--config", str(cfg), "--out", str(out)]) == 1
    assert "unknown perturbation mode 'bogus'" in caplog.text
    assert not out.exists()


def test_counterfactual_takes_config_with_both_sources(tmp_path, caplog):
    """counterfactual reads no data, so a config it shares with fit may have
    both a data and a synth section; fit, which reads the data, refuses it."""
    model_path = tmp_path / "model.json"
    bcd_model(model_path)
    cfg = tmp_path / "config.json"
    write_config(cfg, dict(SHARED_CONFIG, data={"csv": "absent.csv", "response": "Z", "predictors": ["B"]}))
    argv = ["counterfactual", "--model", str(model_path), "--config", str(cfg)]
    assert main([*argv, "--out", str(tmp_path / "cf")]) == 0
    assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "fit")]) == 1
    assert "configure exactly one data source" in caplog.text
    assert not (tmp_path / "fit").exists()


# Argv faults, as {id: (argv, the message of the one ERROR line it ends in)}:
# argparse's own refusals, and a flag's text that reads as the same bad value
# of its config field would. MODEL stands for the path of a valid model.
ARGV_FAULTS = {
    "n-not-a-number": (["fit", "--synth", "--n", "abc"], "synth.n must be an integer, got 'abc'"),
    "unknown-flag": (["fit", "--bogus"], "unrecognized arguments: --bogus"),
    "no-model": (["ris", "--synth"], "the following arguments are required: --model"),
    "unknown-mode": (["ris", "--model", "MODEL", "--synth", "--mode", "bogus"], "unknown perturbation mode 'bogus'"),
    "float-seed": (["fit", "--synth", "--seed", "3.0"], "seed must be an integer, got 3.0"),
    "set-not-a-number": (
        ["counterfactual", "--model", "MODEL", "--at", "D=5", "--set", "D=x"],
        "intervention.value must be a number, got 'x'",
    ),
    "at-not-a-number": (
        ["counterfactual", "--model", "MODEL", "--at", "A=x", "--set", "D=6"],
        "scenario.A must be a number, got 'x'",
    ),
}


@pytest.mark.parametrize("fault", ARGV_FAULTS)
def test_argv_fault_exits_1(tmp_path, capsys, caplog, fault):
    argv, message = ARGV_FAULTS[fault]
    model_path = tmp_path / "model.json"
    bcd_model(model_path)
    out = tmp_path / "out"
    argv = [str(model_path) if arg == "MODEL" else arg for arg in argv]
    assert main([*argv, "--out", str(out)]) == 1
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [message]
    assert "usage:" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["fit", "--help"], ["counterfactual", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ecd")


def test_deeply_nested_config(tmp_path, caplog):
    cfg = tmp_path / "config.json"
    cfg.write_text('{"seed": ' + "[" * 5000 + "]" * 5000 + "}", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["fit", "--synth", "--config", str(cfg), "--out", str(out)]) == 1
    assert "nested too deeply to read" in caplog.text
    assert not out.exists()


def test_cell_past_csv_field_limit_exits_1(tmp_path, capsys, caplog):
    # 140,000 digits: over csv.field_size_limit() (131,072), which csv refuses
    # with its own error, and a float the C pass reads as inf.
    data_path = tmp_path / "data.csv"
    data_path.write_text("A,B,Z\n1,2,3\n" + "1" * 140_000 + ",2,3\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = ["fit", "--csv", str(data_path), "--response", "Z", "--predictors", "A,B", "--out", str(out)]
    assert main(argv) == 1
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
        f"{data_path}: row 3: field larger than field limit (131072)"
    ]
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_parser_carries_nothing_from_call_to_call(tmp_path, capsys, caplog):
    # main parses every call with the one parser build_parser makes.
    model_path, data_path = ris_fixture(tmp_path)
    model = ["--model", str(model_path)]
    data = ["--csv", str(data_path), "--response", "Z", "--predictors", "B,C,D"]
    scenario = ["--at", "B=2", "--at", "C=3", "--at", "D=5", "--set", "D=6"]
    assert build_parser() is build_parser()

    # --at lists and --stdout: a call without them has no scenario and prints nothing
    assert main(["counterfactual", *model, *scenario, "--stdout", "--out", str(tmp_path / "cf")]) == 0
    assert capsys.readouterr().out.startswith("scenario: B=2, C=3, D=5")
    assert main(["counterfactual", *model, "--set", "D=6", "--out", str(tmp_path / "cf2")]) == 1
    assert "counterfactual needs a scenario" in caplog.text
    assert main(["ris", *model, *data, "--out", str(tmp_path / "ris")]) == 0
    assert capsys.readouterr().out == ""

    # --synth: a --csv fit after a --synth fit fits the CSV's columns
    write_config(tmp_path / "gp.json", {"gp": {"population_size": 8, "generations": 1}})
    small = ["--config", str(tmp_path / "gp.json")]
    assert main(["fit", "--synth", "--n", "20", *small, "--out", str(tmp_path / "fs")]) == 0
    assert main(["fit", *data, *small, "--out", str(tmp_path / "fc")]) == 0
    assert json.loads((tmp_path / "fc" / "model.json").read_text())["variables"] == ["B", "C", "D"]

    # a missing --model after a call that gave one
    caplog.clear()
    assert main(["ris", *data, "--out", str(tmp_path / "nomodel")]) == 1
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
        "the following arguments are required: --model"
    ]

    # --help after a refused call
    assert main(["fit", "--bogus"]) == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["ris", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ecd ris")


@pytest.mark.parametrize("flag", ["--config", "--model", "--csv"])
def test_file_that_is_not_utf8(tmp_path, caplog, flag):
    model_path, data_path = ris_fixture(tmp_path)
    cfg = tmp_path / "config.json"
    write_config(cfg, {})
    {"--config": cfg, "--model": model_path, "--csv": data_path}[flag].write_bytes(b"A,B\xff\n1,2\n")
    out = tmp_path / "out"
    argv = ["ris", "--model", str(model_path), "--csv", str(data_path), "--response", "Z",
            "--predictors", "B,C,D", "--config", str(cfg), "--out", str(out)]
    assert main(argv) == 1
    assert "can't decode byte 0xff" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_main_writes_exactly_the_files_a_command_returns(tmp_path, monkeypatch, capsys, command):
    """A command returns its files as {name: text} and writes none itself;
    main writes each text verbatim and prints the first under --stdout."""
    model_path, data_path = ris_fixture(tmp_path)
    argv = command_argv(command, model_path, ["--csv", str(data_path), "--response", "Z", "--predictors", "B,C,D"])
    function, help_text, flags = COMMANDS[command]
    returned = []

    def recording(*args):
        returned.append(function(*args))
        return returned[-1]

    monkeypatch.setitem(COMMANDS, command, (recording, help_text, flags))
    cfg = tmp_path / "config.json"
    write_config(cfg, SHARED_CONFIG)
    out = tmp_path / "out"
    assert main([*argv, "--config", str(cfg), "--out", str(out), "--stdout"]) == 0
    [artifacts] = returned
    assert sorted(path.name for path in out.iterdir()) == sorted(artifacts)
    for name, text in artifacts.items():
        assert (out / name).read_bytes() == text.encode("utf-8")
    assert capsys.readouterr().out == next(iter(artifacts.values()))


def test_fit_that_cannot_write_its_model_leaves_no_out(tmp_path, monkeypatch, caplog):
    # json.dumps(indent=2) recurses per level and fails from depth ~500
    depth = 600
    tree = ExpressionTree((Operator.ADD,) * depth + ("A",) + ("B",) * depth)
    doc = model_document(Individual(tree, fitness=0.0, raw_mse=0.0), ["A", "B"], GpConfig())
    monkeypatch.setattr(gpsr, "model_document", lambda *args: doc)
    cfg = tmp_path / "config.json"
    write_config(cfg, {"gp": TINY_GP})
    out = tmp_path / "out"
    assert main(["fit", "--synth", "--n", "20", "--config", str(cfg), "--out", str(out)]) == 1
    assert "model.json: the tree is nested too deeply to write" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("name", ["P" * 250, "P\0B"], ids=["250-characters", "nul"])
def test_file_name_past_name_max_or_with_nul_is_refused_before_any_write(tmp_path, caplog, name):
    """A 250-character predictor name makes a 260-byte cell file name, and a
    NUL in a name one that no file system takes; main refuses either, naming
    the file, before it makes --out."""
    rng = np.random.default_rng(5)
    a, b = rng.uniform(1.0, 4.0, 30), rng.uniform(1.0, 4.0, 30)
    data_path = tmp_path / "data.csv"
    write_csv(data_path, {name: a, "B": b, "Z": a + b})
    cfg = tmp_path / "config.json"
    write_config(cfg, {"gp": TINY_GP})
    data = ["--csv", str(data_path), "--response", "Z", "--predictors", f"{name},B", "--config", str(cfg)]
    assert main(["fit", *data, "--out", str(tmp_path / "fit")]) == 0
    out = tmp_path / "ris"
    assert main(["ris", "--model", str(tmp_path / "fit" / "model.json"), *data, "--out", str(out)]) == 1
    assert f"{f'impact_{name}_Q1.dot'!r}: a file name holds no NUL and at most 255 bytes" in caplog.text
    assert not out.exists()


def test_text_that_utf8_cannot_encode_is_refused_before_any_write(tmp_path, capsys, caplog):
    # JSON's "\ud800" reads as a lone surrogate, which the report's scenario line repeats
    model_path = tmp_path / "model.json"
    bcd_model(model_path)
    cfg = tmp_path / "config.json"
    write_config(cfg, {"scenario": {"B": 2, "C": 3, "D": 5, "\ud800": 1}, "intervention": SET_D})
    out = tmp_path / "out"
    assert main(["counterfactual", "--model", str(model_path), "--config", str(cfg), "--out", str(out)]) == 1
    assert "surrogates not allowed" in caplog.text
    assert "counterfactual.txt: 'utf-8' codec can't encode" in caplog.text
    assert "scenario:" not in capsys.readouterr().err
    assert not out.exists()


def test_counterfactual_report_is_echoed_after_the_writes(tmp_path, capsys, caplog):
    model_path = tmp_path / "model.json"
    bcd_model(model_path)
    out = tmp_path / "out"
    caplog.set_level(logging.INFO, logger="ecd")
    handler = logging.StreamHandler(sys.stderr)  # the stream capsys reads
    handler.setFormatter(logging.Formatter("%(levelname)s: %(message)s"))
    logging.getLogger("ecd").addHandler(handler)
    try:
        code = main(["counterfactual", "--model", str(model_path), "--at", "B=2", "--at", "C=3", "--at", "D=5",
                     "--set", "D=6", "--out", str(out)])
    finally:
        logging.getLogger("ecd").removeHandler(handler)
    assert code == 0
    err = capsys.readouterr().err
    report = (out / "counterfactual.txt").read_text()
    assert report.startswith("scenario: B=2, C=3, D=5\n")
    assert err.index(f"INFO: wrote 3 file(s) in {out}") < err.index(report)


# Faults of the data section, as {id: (data section, the error it ends in)}.
DATA_FAULTS = {
    "missing-policy": ({"missing_policy": "bogus"}, "unknown missing_policy 'bogus'"),
    "filter-op": ({"filter": [["B", "~", 1]]}, "unknown comparison '~'"),
    "response-is-predictor": ({"response": "Z", "predictors": ["Z"]}, "response 'Z' cannot also be a predictor"),
    "filter-column": (
        {"response": "Z", "predictors": ["B"], "filter": [["C", ">=", 1]]},
        "filter column 'C' is neither the response nor a predictor",
    ),
}


@pytest.mark.parametrize("fault", [None, *DATA_FAULTS])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_command_checks_the_data_section(tmp_path, caplog, command, fault):
    """A bad data section stops every command before it writes anything,
    also those that read the synthetic source or no data."""
    model_path, _ = ris_fixture(tmp_path)
    argv = command_argv(command, model_path, ["--synth"])
    section, message = DATA_FAULTS[fault] if fault else ({}, None)
    cfg = tmp_path / "config.json"
    write_config(cfg, dict(SHARED_CONFIG, data=section))
    out = tmp_path / "out"
    code = main([*argv, "--config", str(cfg), "--out", str(out)])
    if fault is None:
        assert code == 0
    else:
        assert code == 1
        assert message in caplog.text
        assert not out.exists()


def test_filter_on_an_unselected_column_is_refused_before_the_csv_loads(tmp_path, caplog):
    # S is in the CSV, but load_csv reads only the response and the predictors
    data_path = tmp_path / "data.csv"
    write_csv(data_path, {"A": [1.0, 2.0, 3.0, 4.0], "S": [0, 1, 0, 1], "Z": [2.0, 4.0, 6.0, 8.0]})
    cfg = tmp_path / "config.json"
    write_config(cfg, {"gp": TINY_GP, "data": {"filter": [["S", "==", 1]]}})
    out = tmp_path / "out"
    argv = ["fit", "--csv", str(data_path), "--response", "Z", "--predictors", "A", "--config", str(cfg)]
    assert main([*argv, "--out", str(out)]) == 1
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
        "filter column 'S' is neither the response nor a predictor"
    ]
    assert not out.exists()


# sha256 of artifacts of one small fixed-seed fit and of the analyses of its
# model. Any change to the random stream, the tree encoding, evaluation or the
# artifact writers shows here; a deliberate change re-records these hashes.
GOLDEN_SHA256 = {
    "fit/model.json": "3da126ad85c36716a0e81669df8f7242c20a76393e50449db36b97e4c5571931",
    "fit/history.csv": "c4289126f90f36763444c30a443337fa67a903ccb0baa3b21a0e7da89ff46d09",
    "fit/best_tree.dot": "8c62bad81b56f5a5432a1238cbb3fa13bc28ef8487b151168d306b549486f90b",
    "ris/impact_table.json": "13aa4aa201801d51301a2d8e36024fe51a06817991a5f75d34ac3c264890f183",
    "ris/impact_D_Q2.dot": "de289d63c27750a0359d5556f204e73fbe9083116c7f23c42f4eae2cd81f2107",
    "simp/simplified_model.json": "fe6078fe5ea33dab58863652b628fdbae958143c7bd283f2480e7464e080593a",
    "simp/simplified_tree.dot": "3f2b2ea8b8fbb0b410446214234c1663654793bdf125d8330e4014610625e755",
    "cf/counterfactual.txt": "2e1de24bf4cd6b5096f2af96f15b5fc7d7677aef3cf00283f6897cec521a0f4d",
    "cf/counterfactual.json": "b467228deb969b0e053db05d276804986142f0a6bb3fdc98fea718a3eaedc899",
    "cf/counterfactual.dot": "7d5814747d1f9feeacd9c3a9891a9bde8878f916dc6b34e180c3f40ec5e86c39",
}


def test_golden_artifacts(tmp_path):
    cfg = tmp_path / "gp.json"
    write_config(cfg, {"gp": {"population_size": 60, "generations": 5}})
    data = ["--synth", "--n", "60", "--noise", "0.1", "--seed", "17"]
    model = str(tmp_path / "fit" / "model.json")
    assert main(["fit", *data, "--config", str(cfg), "--out", str(tmp_path / "fit")]) == 0
    assert main(["ris", "--model", model, *data, "--out", str(tmp_path / "ris")]) == 0
    assert main(
        ["simplify", "--model", model, *data, "--threshold", "0.05", "--out", str(tmp_path / "simp")]
    ) == 0
    assert json.loads((tmp_path / "simp" / "simplified_model.json").read_text())["pruned_node_ids"]
    at = ["--at", "A=1.5", "--at", "B=2", "--at", "C=3", "--at", "D=5"]
    assert main(
        ["counterfactual", "--model", model, *at, "--set", "B=3", "--out", str(tmp_path / "cf")]
    ) == 0
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_SHA256
    }
    assert got == GOLDEN_SHA256


# A hand-written model whose nodes take the values that text formatting
# treats specially: 0.0 and -0.0 (a zero that flips sign when A does), inf
# (1e308 * 10) and NaN (inf - inf, and A * 1e308 - A * 1e308 once A leaves 0),
# while protected division keeps the output finite. A's quartiles are -1, 0
# and 1, so at Q2 the relative perturbation falls back to an absolute shift,
# and the "flip" run's magnitude of -2 negates every predictor.
def special_values_model(path):
    zero = op_node(Operator.SUB, var_node("B"), var_node("B"))
    inf = op_node(Operator.MUL, const_node(1e308), const_node(10.0))
    big = op_node(Operator.MUL, var_node("A"), const_node(1e308))
    tree = ExpressionTree(
        op_node(
            Operator.ADD,
            op_node(
                Operator.ADD,
                op_node(Operator.MUL, var_node("A"), zero),
                op_node(Operator.MUL, zero, const_node(-1.0)),
            ),
            op_node(
                Operator.ADD,
                op_node(Operator.MUL, var_node("A"), op_node(Operator.PDIV, var_node("B"), zero)),
                op_node(
                    Operator.ADD,
                    op_node(Operator.PDIV, var_node("A"), inf),
                    op_node(Operator.PDIV, op_node(Operator.SUB, big, big), op_node(Operator.SUB, inf, inf)),
                ),
            ),
        )
    )
    write_model(path, tree, ["A", "B"])


# sha256 of every file that ris, counterfactual and simplify write for the
# special-values model. The DOT files and cf2's text were re-recorded when
# values outside (-1e16, 1e16) began to print as .3e; every other hash dates
# from before DOT rendering learned to reuse a quartile's unchanged node
# labels, which must not move a byte.
ANALYSIS_GOLDEN_SHA256 = {
    "ris/impact_A_Q1.dot": "9c31b9ddaee2cacd439702dc208eaa7936877d99789ef7fc60e343d8b8074d25",
    "ris/impact_A_Q2.dot": "0e13dd82d1fcd59b30f7a01dd12f420dfe9093a09a728b614193d117fee6daaa",
    "ris/impact_A_Q3.dot": "fceeef158708c25ef0cbe13878f8dacc5021c92f021f6de4defd5b6fd0022e20",
    "ris/impact_B_Q1.dot": "7fb6e2f23f23052a04f6d4ed7f3e1340cf4a954515b6c286922c7c1e20d28f75",
    "ris/impact_B_Q2.dot": "5795cf06c775e3110c65f95783fa52ee2940a5d7d154d87a370c78603c6fee8c",
    "ris/impact_B_Q3.dot": "8015d55ab91acaa1aad6d4f46e9d086b6529408dcb7acd6c5bb73e6b50520375",
    "ris/impact_table.json": "befd70f41a685e7ebcc96a93fdae321bd34a1249cfa3899473ffb38e42254872",
    "ris/impact_table.txt": "ca1341ae2cc5bfd0d4cb253f9a6413a8c34996eeed36c610616f8206e9a0ddf9",
    "flip/impact_A_Q1.dot": "ead62c12e3dd196e53b41d3bcc7c367d8ebc86932b56f6ca8f785778cd06a6b6",
    "flip/impact_A_Q2.dot": "cb06e5a3eaee86bb226ce963841633a541e656d425f9961d4b4cc65be8628207",
    "flip/impact_A_Q3.dot": "4fc9b8ef9fb17235388f0171e65a81ed45e6ff2eecb0b3690cf7fa539aa72fba",
    "flip/impact_B_Q1.dot": "7e5fd8af27b2cdc6f1d34f7cef676484bdd3b26d0b33fe07fc4a66343488c289",
    "flip/impact_B_Q2.dot": "f045fede102c66edfd18e66caf4bcaf339054ee316ebb176f075ee7c00f32c85",
    "flip/impact_B_Q3.dot": "caab1e12da963c6849a07bf9b642b7c0c2ddd17d531ff89af1253485dc9a6b9f",
    "flip/impact_table.json": "33682009b1619ffd5f96472c39f4836955a681b1b2bd16104c093bd7c8dc24bd",
    "flip/impact_table.txt": "df77a00393c3bd077a366eb1829a392736e4b7f81dc744e9cc89f95fc3af1fd5",
    "abs/impact_A_Q1.dot": "30d795ac596855272093dab201d61530be042da20b3b5264b0838267586809fa",
    "abs/impact_A_Q2.dot": "3572c6bbb7bca522c46c8933ef0369fd49b2666bc121ae6630b15bb6d31e87c0",
    "abs/impact_A_Q3.dot": "eaf11cf93402b83ece213afc2db5c7a44a6377329fc1e0e15e000a17c5cb8f38",
    "abs/impact_B_Q1.dot": "086c816a56b35e4a29ef3e0109c66b0f7401aa91a20de019fae0fb8da51c973f",
    "abs/impact_B_Q2.dot": "6a9295e5c1fe509d9ad2719b5a19f36aa8ec30a8447a1c1c88e4aa4d1a7c6854",
    "abs/impact_B_Q3.dot": "227f0ea96dc731bba7688cbcdbdfd71b3d65104bc4fdc3e336e617f38f24cb0c",
    "abs/impact_table.json": "f250b7c3aa4ec113291742b298a62d3e8141c748b622052258e7fa02baffb03d",
    "abs/impact_table.txt": "3d7c6de87cda512f6883652adb57240be4057496f23bd74f96a04664976a60b2",
    "simp/simplified_model.json": "cb49dd0cfb827c1299971793e375f80811b3ecae88da6f4724549175a9d31018",
    "simp/simplified_tree.dot": "421fe34c870fd0f767f7c10fa178585c16cdad5aad5c0ac64118a79cbe34544a",
    "cf/counterfactual.dot": "b2ea5ec55b9884e2ea371e90a7dac3dbf5e046e3c1e671484d8b53255c0c2fc2",
    "cf/counterfactual.json": "c2b048b2d581e2d809fcf251bc138c01205eb46f189f4222d4ddf72932825093",
    "cf/counterfactual.txt": "db86926d5e623ef09cbcc4b4689391dcf55c513ede0baf4cbfec18741dc4c764",
    "cf2/counterfactual.dot": "3fdee80c2646a82a15a981218b1f30fdf4ae7c0f071c66fba7fefa1e5a64ef7a",
    "cf2/counterfactual.json": "261fc65bc0d21e2edd7ec0a839632fb5edec9acdd45854964a3342d65ce00608",
    "cf2/counterfactual.txt": "ca5291dfde5fbb1c67163884fea81cac678867c881afcfdbf1b071f4d71c6659",
}


def test_analysis_golden_artifacts(tmp_path):
    model = tmp_path / "model.json"
    special_values_model(model)
    write_csv(
        tmp_path / "data.csv",
        {"A": [-2, -1, 0, 1, 3], "B": [0.5, 1, 2, 2.5, 4], "Z": [0, 1, 2, 3, 4]},
    )
    data = ["--csv", str(tmp_path / "data.csv"), "--response", "Z", "--predictors", "A,B"]
    runs = {
        "ris": ["ris", *data],
        "flip": ["ris", *data, "--magnitude", "-2"],
        "abs": ["ris", *data, "--mode", "absolute", "--magnitude", "-0.5"],
        "simp": ["simplify", *data, "--threshold", "0.05"],
        "cf": ["counterfactual", "--at", "A=0", "--at", "B=0", "--set", "B=-0.0"],
        "cf2": ["counterfactual", "--at", "A=-1", "--at", "B=2", "--set", "A=1e300"],
    }
    for name, argv in runs.items():
        assert main([*argv, "--model", str(model), "--out", str(tmp_path / name)]) == 0
    got = {
        f"{name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for name in runs
        for path in sorted((tmp_path / name).iterdir())
    }
    assert len([name for name in got if name.startswith("ris/impact_")]) == 8
    assert got == ANALYSIS_GOLDEN_SHA256
