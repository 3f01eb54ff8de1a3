"""Tests of the benchmark's own code: the reference evaluator, span arithmetic,
failure accounting and run hygiene."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from ecd import gpsr, synthbench  # noqa: E402
from ecd.exprcore import (  # noqa: E402
    ExpressionTree,
    Operator,
    const_node,
    evaluate,
    op_node,
    tree_to_json,
    var_node,
)

import harness  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402
from workloads import PREDICTORS, TRACE_MODELS, WORKLOADS, Call  # noqa: E402


def _known_tree() -> ExpressionTree:
    # (x01 + x02 / (x03 - 2)) * -1.5, with the division's guard reachable.
    return ExpressionTree(
        op_node(
            Operator.MUL,
            op_node(
                Operator.ADD,
                var_node("x01"),
                op_node(
                    Operator.PDIV,
                    var_node("x02"),
                    op_node(Operator.SUB, var_node("x03"), const_node(2.0)),
                ),
            ),
            const_node(-1.5),
        )
    )


@pytest.mark.parametrize("x03", [5.0, 2.0, 2.0 + 1e-7, -3.25])
def test_oracle_agrees_with_ecd_evaluate_on_known_tree(x03):
    bindings = {"x01": 0.75, "x02": 3.0, "x03": x03}
    expected = evaluate(_known_tree(), bindings)
    columns = {name: np.array([value]) for name, value in bindings.items()}
    got = oracle.eval_tree(tree_to_json(_known_tree()), columns, 1)[0]
    assert got == expected
    if x03 == 2.0:
        assert got == (0.75 + 1.0) * -1.5  # protected division returned 1.0


def test_oracle_agrees_with_ecd_evaluate_on_random_trees():
    config = gpsr.GpConfig(population_size=40, init_depth_range=(2, 6), max_depth=6)
    rng = np.random.default_rng(7)
    rows = [{n: float(v) for n, v in zip(PREDICTORS, rng.normal(0, 2, 12))} for _ in range(5)]
    columns = {n: np.array([row[n] for row in rows]) for n in PREDICTORS}
    for ind in gpsr.init_population(config, PREDICTORS, rng):
        got = oracle.eval_tree(tree_to_json(ind.tree), columns, len(rows))
        for value, row in zip(got, rows):
            assert oracle.same(float(value), evaluate(ind.tree, row))


def test_self_time_subtracts_children_for_nested_spans():
    tree = [
        Span(0, -1, 0, "root", 0.0, 10.0),
        Span(1, 0, 0, "a", 1.0, 4.0),
        Span(2, 1, 0, "a.inner", 2.0, 3.0),
        Span(3, 0, 0, "b", 5.0, 9.0),
        Span(4, 3, 0, "b.inner", 5.0, 6.0),
        Span(5, 3, 0, "b.inner", 7.0, 9.0),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 1.0, 1.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    tree = [
        Span(0, -1, 0, "root", 0.0, 10.0),
        Span(1, 0, 0, "a", 2.0, 6.0),
        Span(2, 0, 0, "b", 4.0, 8.0),
        Span(3, 0, 0, "c", 9.0, 12.0),  # runs past its parent's end
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def _tiny_fit(tmp_path) -> tuple[Call, dict]:
    config = tmp_path / "gp.json"
    config.write_text(json.dumps({"gp": {"population_size": 20, "generations": 3}}))
    out = tmp_path / "fit"
    argv = ["fit", "--synth", "--n", "50", "--seed", "3", "--config", str(config)]
    argv += ["--out", str(out)]
    data, _ = synthbench.generate(synthbench.SynthConfig(n=50, seed=3))
    return Call("fit", argv, lambda: oracle.check_fit(out, data.columns, "Z", 3)), data.columns


def test_genuine_outputs_pass_their_checks(tmp_path):
    call, _ = _tiny_fit(tmp_path)
    tally = harness.Tally()
    record = tally.run(call)
    assert record["ok"] and record["facts"]["generations_run"] >= 1
    assert (tally.attempted, tally.failed, tally.error_rate) == (1, 0, 0.0)


def test_failed_check_raises_error_rate(tmp_path):
    call, columns = _tiny_fit(tmp_path)
    model = tmp_path / "fit" / "model.json"

    def tampered_check():
        doc = json.loads(model.read_text())
        doc["raw_mse"] += 1.0
        model.write_text(json.dumps(doc))
        return oracle.check_fit(tmp_path / "fit", columns, "Z", 3)

    tally = harness.Tally()
    tally.run(call)
    tally.run(Call("fit", call.argv, tampered_check))
    tally.run(Call("fit", ["fit", "--out", str(tmp_path / "none")], lambda: None))  # exits 1
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.error_rate == pytest.approx(2 / 3)
    assert "raw_mse" in tally.failures[0]


def test_call_starts_in_an_empty_out_directory(tmp_path):
    call, _ = _tiny_fit(tmp_path)
    out = tmp_path / "fit"
    out.mkdir()
    (out / "stale.dot").write_text("digraph {}")
    assert harness.Tally().run(Call(call.command, call.argv, call.check, out))["ok"]
    assert not (out / "stale.dot").exists() and (out / "model.json").is_file()


def test_analyze_sessions_take_the_depths_in_turn(tmp_path):
    workload = WORKLOADS["analyze"](7, tmp_path)
    workload.prepare()
    assert sorted(workload.order) == list(range(len(workload.models)))
    sizes = [workload.models[k]["size"] for k in workload.order]
    full_tree_sizes = [2 ** (depth + 1) - 1 for depth in range(2, 9)]  # 7 ... 511
    for i in range(0, len(sizes), TRACE_MODELS):
        assert sizes[i : i + TRACE_MODELS] == full_tree_sizes


def test_traced_call_counts_and_restores_call_sites(tmp_path):
    call, _ = _tiny_fit(tmp_path)
    original = gpsr.select
    tracer = spans.Tracer()
    assert harness.Tally().run(call, tracer)["ok"]
    assert gpsr.select is original
    metrics = spans.layer_metrics(tracer.spans, passes=1, overhead_ratio=1.0)
    root = tracer.spans[0]
    assert root.name == "cli.fit" and root.parent == -1
    assert {s.call_id for s in tracer.spans} == {0}
    assert metrics["gpsr.init_population.s"] > 0
    assert metrics["gpsr.select.calls"] > 0
    assert 0 < metrics["gpsr.fitness.calls_per_ind_gen"] <= 1
    assert metrics["ris.ris.calls"] == 0 and metrics["ris.evaluate_nodes_per_table"] == 0


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == spans.LAYER_METRICS
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()
    }
