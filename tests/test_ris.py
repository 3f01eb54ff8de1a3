import math
import warnings

import numpy as np
import pytest

from conftest import VARS, naive_eval, random_bindings, random_tree

from ecd.dataio import Dataset
from ecd.errors import (
    EmptyColumn,
    InvalidConfig,
    MissingColumn,
    MissingVariable,
    NonFiniteBaseline,
)
from ecd.exprcore import (
    ExpressionTree,
    Operator,
    const_node,
    dependency_set,
    evaluate,
    op_node,
    replace_at,
    subtree_at,
    to_dot,
    var_node,
)
from ecd.ris import (
    BaselineSpec,
    ImpactReport,
    Mode,
    PerturbationSpec,
    annotation,
    counterfactual,
    format_baseline,
    format_impact,
    perturbed_values,
    quartile_baselines,
    quartile_impact_table,
    ris,
    simplify_by_impact,
)


def bcd_tree():
    return ExpressionTree(
        op_node(
            Operator.ADD,
            var_node("B"),
            op_node(Operator.PDIV, var_node("C"), var_node("D")),
        )
    )


BCD_BASE = {"B": 2.0, "C": 3.0, "D": 5.0}


def node_pairs(report):
    """(baseline, perturbed) value of every node, in preorder."""
    return list(zip(report.baseline_values, report.perturbed_values))


class TestPerturbedValues:
    def test_relative(self):
        base = BaselineSpec({"A": 2.0}, "s")
        values, notes = perturbed_values(base, PerturbationSpec("A", Mode.RELATIVE, 0.05))
        assert values["A"] == 2.0 * (1.0 + 0.05)
        assert notes == ()
        assert base.values["A"] == 2.0

    def test_relative_at_zero_falls_back_to_absolute(self):
        base = BaselineSpec({"A": 0.0}, "s")
        values, notes = perturbed_values(base, PerturbationSpec("A", Mode.RELATIVE, 0.05))
        assert values["A"] == 0.05
        assert len(notes) == 1 and "A" in notes[0]

    def test_absolute(self):
        base = BaselineSpec({"A": 2.0}, "s")
        values, notes = perturbed_values(base, PerturbationSpec("A", Mode.ABSOLUTE, 0.1))
        assert values["A"] == 2.1
        assert notes == ()

    def test_set_to(self):
        base = BaselineSpec({"A": 2.0, "B": 7.0}, "s")
        values, _ = perturbed_values(base, PerturbationSpec("A", Mode.SET_TO, -3.0))
        assert values == {"A": -3.0, "B": 7.0}

    def test_unknown_variable(self):
        base = BaselineSpec({"A": 2.0}, "s")
        with pytest.raises(MissingVariable):
            perturbed_values(base, PerturbationSpec("Q", Mode.RELATIVE, 0.05))

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("magnitude", [math.nan, math.inf, -math.inf])
    def test_non_finite_magnitude_rejected(self, mode, magnitude):
        with pytest.raises(InvalidConfig):
            PerturbationSpec("A", mode, magnitude)


class TestRis:
    def test_zero_perturbation_is_exactly_zero(self):
        tree = bcd_tree()
        base = BaselineSpec(BCD_BASE, "Q2")
        for name in ("B", "C", "D"):
            (report,) = ris(tree, base, [PerturbationSpec(name, Mode.RELATIVE, 0.0)])
            assert report.impact == 0.0
            assert report.perturbed_output == report.baseline_output
            assert all(p - b == 0.0 for b, p in node_pairs(report))

    def test_relative_on_divisor_matches_reference_evaluator(self):
        tree = bcd_tree()
        base = BaselineSpec(BCD_BASE, "Q2")
        (report,) = ris(tree, base, [PerturbationSpec("D", Mode.RELATIVE, 0.05)])
        shifted = dict(BCD_BASE, D=5.0 * (1.0 + 0.05))
        expected = naive_eval(tree.tokens, shifted) - naive_eval(tree.tokens, BCD_BASE)
        assert report.impact == expected
        assert report.impact == pytest.approx((2 + 3 / 5.25) - 2.6)
        deltas = [p - b for b, p in node_pairs(report)]
        assert deltas[0] == report.impact
        # leaves B and C do not move; only the D leaf and the nodes above it do
        assert deltas[1] == 0.0
        assert deltas[3] == 0.0
        assert deltas[4] == 5.0 * (1.0 + 0.05) - 5.0

    def test_absolute_on_additive_leaf(self):
        tree = bcd_tree()
        base = BaselineSpec(BCD_BASE, "Q2")
        (report,) = ris(tree, base, [PerturbationSpec("B", Mode.ABSOLUTE, 0.1)])
        shifted = dict(BCD_BASE, B=2.0 + 0.1)
        assert report.impact == naive_eval(tree.tokens, shifted) - naive_eval(tree.tokens, BCD_BASE)
        assert report.impact == pytest.approx(0.1)

    def test_multiple_perturbations_share_one_baseline(self):
        tree = bcd_tree()
        base = BaselineSpec(BCD_BASE, "Q2")
        specs = [PerturbationSpec(n, Mode.RELATIVE, 0.05) for n in ("B", "C", "D")]
        reports = ris(tree, base, specs)
        assert [r.variable for r in reports] == ["B", "C", "D"]
        assert len({r.baseline_output for r in reports}) == 1
        assert all(r.baseline_values is reports[0].baseline_values for r in reports)
        assert all(len(r.perturbed_values) == tree.size for r in reports)
        assert all(r.baseline_label == "Q2" for r in reports)

    def test_unused_variable_flagged(self):
        tree = bcd_tree()
        base = BaselineSpec(dict(BCD_BASE, X=9.0), "Q2")
        (report,) = ris(tree, base, [PerturbationSpec("X", Mode.RELATIVE, 0.05)])
        assert report.unused_variable
        assert report.impact == 0.0
        (used,) = ris(tree, base, [PerturbationSpec("B", Mode.RELATIVE, 0.05)])
        assert not used.unused_variable

    def test_relative_zero_baseline_note_propagates(self):
        tree = ExpressionTree(var_node("D"))
        base = BaselineSpec({"D": 0.0}, "s")
        (report,) = ris(tree, base, [PerturbationSpec("D", Mode.RELATIVE, 0.05)])
        assert report.impact == 0.05
        assert report.notes and "fell back to absolute" in report.notes[0]

    def test_non_finite_baseline(self):
        tree = bcd_tree()
        with pytest.raises(NonFiniteBaseline):
            ris(tree, BaselineSpec({"B": 2.0, "C": math.inf, "D": 5.0}, "s"), [])
        with pytest.raises(NonFiniteBaseline):
            ris(tree, BaselineSpec({"B": math.nan, "C": 3.0, "D": 5.0}, "s"), [])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_baseline_rejected_when_built(self, value):
        with pytest.raises(NonFiniteBaseline, match="'C'"):
            BaselineSpec({"B": 2.0, "C": value}, "s")

    def test_missing_binding(self):
        tree = bcd_tree()
        with pytest.raises(MissingVariable):
            ris(tree, BaselineSpec({"B": 2.0, "C": 3.0}, "s"), [])

    def test_matches_reference_evaluator_on_random_trees(self, rng):
        # check loop: impact must be the exact double difference of two
        # reference evaluations, for every mode
        modes = (Mode.RELATIVE, Mode.ABSOLUTE, Mode.SET_TO)
        for _ in range(200):
            tree = random_tree(rng)
            bindings = random_bindings(rng)
            name = VARS[int(rng.integers(0, len(VARS)))]
            mode = modes[int(rng.integers(0, 3))]
            magnitude = float(rng.uniform(-0.5, 0.5))
            spec = PerturbationSpec(name, mode, magnitude)
            values, _ = perturbed_values(BaselineSpec(bindings, "r"), spec)
            expected = naive_eval(tree.tokens, values) - naive_eval(tree.tokens, bindings)
            (report,) = ris(tree, BaselineSpec(bindings, "r"), [spec])
            assert report.impact == expected
            assert report.perturbed_values[0] - report.baseline_values[0] == report.impact

    def test_locality_of_node_deltas(self, rng):
        # nodes whose subtree never reads the perturbed variable stay put
        for _ in range(100):
            tree = random_tree(rng)
            bindings = random_bindings(rng)
            name = VARS[int(rng.integers(0, len(VARS)))]
            spec = PerturbationSpec(name, Mode.RELATIVE, 0.05)
            (report,) = ris(tree, BaselineSpec(bindings, "r"), [spec])
            for node_id, (b, p) in enumerate(node_pairs(report)):
                sub = ExpressionTree(subtree_at(tree, node_id))
                if name not in dependency_set(sub):
                    assert p - b == 0.0


class TestQuartileBaselines:
    def test_interpolated_percentiles(self):
        data = Dataset({"A": [1.0, 2.0, 3.0, 4.0, 5.0]})
        q1, q2, q3 = quartile_baselines(data, ["A"])
        assert (q1.values["A"], q2.values["A"], q3.values["A"]) == (2.0, 3.0, 4.0)
        assert (q1.label, q2.label, q3.label) == ("Q1", "Q2", "Q3")

    def test_constant_column(self):
        data = Dataset({"A": [7.0, 7.0, 7.0]})
        assert [b.values["A"] for b in quartile_baselines(data, ["A"])] == [7.0, 7.0, 7.0]

    def test_even_count_median(self):
        data = Dataset({"A": [1.0, 2.0, 3.0, 4.0]})
        assert quartile_baselines(data, ["A"])[1].values["A"] == 2.5

    def test_only_requested_predictors(self):
        data = Dataset({"A": [1.0, 2.0], "B": [5.0, 6.0]})
        q1, _, _ = quartile_baselines(data, ["A"])
        assert set(q1.values) == {"A"}

    def test_empty_column(self):
        data = Dataset({"A": np.array([])})
        with pytest.raises(EmptyColumn):
            quartile_baselines(data, ["A"])

    def test_single_value_column(self):
        data = Dataset({"A": [4.0]})
        assert [b.values["A"] for b in quartile_baselines(data, ["A"])] == [4.0, 4.0, 4.0]

    def test_order_invariance(self, rng):
        values = rng.uniform(-5, 5, 101)
        shuffled = values.copy()
        rng.shuffle(shuffled)
        a = quartile_baselines(Dataset({"A": values}), ["A"])
        b = quartile_baselines(Dataset({"A": shuffled}), ["A"])
        assert [q.values for q in a] == [q.values for q in b]

    def test_missing_column(self):
        with pytest.raises(MissingColumn):
            quartile_baselines(Dataset({"A": [1.0]}), ["B"])


def bcd_data(seed=0, n=40):
    rng = np.random.default_rng(seed)
    b = rng.uniform(1.0, 4.0, n)
    c = rng.uniform(2.0, 6.0, n)
    d = rng.uniform(3.0, 8.0, n)
    return Dataset({"B": b, "C": c, "D": d})


class TestQuartileImpactTable:
    def test_needs_a_predictor(self):
        with pytest.raises(InvalidConfig):
            quartile_impact_table(ExpressionTree(const_node(1.0)), bcd_data(), [])

    def test_repeated_predictor_rejected(self):
        with pytest.raises(InvalidConfig):
            quartile_impact_table(bcd_tree(), bcd_data(), ["B", "C", "B"])

    def test_rows_and_baselines_read_the_reports(self):
        table = quartile_impact_table(bcd_tree(), bcd_data(9), ["D", "B", "C"])
        assert [name for name, _ in table.rows] == ["D", "B", "C"]
        for name, impacts in table.rows:
            assert impacts == tuple(report.impact for report in table.reports[name])
        for cells in table.reports.values():
            assert tuple(report.baseline_output for report in cells) == table.baselines

    def test_unreferenced_predictor_row_is_zero(self):
        tree = ExpressionTree(var_node("B"))
        data = Dataset({"B": [1.0, 2.0, 3.0], "X": [4.0, 5.0, 6.0]})
        table = quartile_impact_table(tree, data, ["B", "X"])
        rows = dict(table.rows)
        assert rows["X"] == (0.0, 0.0, 0.0)
        assert all(v != 0.0 for v in rows["B"])

    def test_zero_magnitude_table(self):
        tree = bcd_tree()
        data = bcd_data()
        table = quartile_impact_table(tree, data, ["B", "C", "D"], Mode.RELATIVE, 0.0)
        for _, impacts in table.rows:
            assert impacts == (0.0, 0.0, 0.0)
        for baseline, spec in zip(table.baselines, quartile_baselines(data, ["B", "C", "D"])):
            assert baseline == evaluate(tree, spec.values)

    def test_baselines_row_is_tree_output_at_quartiles(self):
        tree = bcd_tree()
        data = bcd_data(3)
        table = quartile_impact_table(tree, data, ["B", "C", "D"], Mode.RELATIVE, 0.05)
        for baseline, spec in zip(table.baselines, quartile_baselines(data, ["B", "C", "D"])):
            assert baseline == evaluate(tree, spec.values)

    def test_cells_match_single_ris_runs(self):
        tree = bcd_tree()
        data = bcd_data(5)
        table = quartile_impact_table(tree, data, ["B", "C", "D"], Mode.RELATIVE, 0.05)
        baselines = quartile_baselines(data, ["B", "C", "D"])
        for name, impacts in table.rows:
            for impact, baseline in zip(impacts, baselines):
                (report,) = ris(tree, baseline, [PerturbationSpec(name, Mode.RELATIVE, 0.05)])
                assert impact == report.impact
        assert set(table.reports) == {"B", "C", "D"}
        assert [r.baseline_label for r in table.reports["B"]] == ["Q1", "Q2", "Q3"]

    def test_to_text_layout(self):
        tree = bcd_tree()
        data = bcd_data(7)
        table = quartile_impact_table(tree, data, ["B", "C", "D"], Mode.RELATIVE, 0.05)
        text = table.to_text()
        lines = text.splitlines()
        assert lines[1].startswith("Variable")
        assert lines[1].rstrip().endswith("Q3")
        assert len(lines) == 3 + 3 + 2
        assert lines[-1].startswith("Baseline")
        for cell in lines[-1].split()[1:]:
            float(cell)
            assert "." in cell and len(cell.split(".")[1]) == 1
        for line in lines[3:6]:
            for cell in line.split()[1:]:
                assert len(cell.split(".")[1]) == 3

    def test_to_text_zero_impacts_use_plus_minus(self):
        tree = ExpressionTree(var_node("B"))
        data = Dataset({"B": [1.0, 2.0, 3.0], "X": [4.0, 5.0, 6.0]})
        table = quartile_impact_table(tree, data, ["B", "X"])
        x_line = [l for l in table.to_text().splitlines() if l.startswith("X")][0]
        assert x_line.split()[1:] == ["±0.000", "±0.000", "±0.000"]

    def test_to_json_full_precision(self):
        tree = bcd_tree()
        data = bcd_data(11)
        table = quartile_impact_table(tree, data, ["B", "C", "D"], Mode.RELATIVE, 0.05)
        doc = table.to_json()
        assert doc["perturbation"] == {"mode": "relative", "magnitude": 0.05}
        assert doc["quartiles"] == ["Q1", "Q2", "Q3"]
        assert doc["baselines"] == list(table.baselines)
        for row, (name, impacts) in zip(doc["rows"], table.rows):
            assert row == {"variable": name, "impacts": list(impacts)}


class TestCounterfactual:
    def test_set_to_matches_reference_evaluator(self):
        tree = bcd_tree()
        scenario = BaselineSpec(BCD_BASE, "scenario")
        report = counterfactual(tree, scenario, PerturbationSpec("D", Mode.SET_TO, 6.0))
        expected = naive_eval(tree.tokens, dict(BCD_BASE, D=6.0)) - naive_eval(
            tree.tokens, BCD_BASE
        )
        assert report.impact == expected
        assert report.impact == pytest.approx(-0.1)
        assert report.baseline_output == pytest.approx(2.6)
        assert report.perturbed_output == 2.5

    def test_set_to_current_value_is_identity(self):
        tree = bcd_tree()
        scenario = BaselineSpec(BCD_BASE, "scenario")
        report = counterfactual(tree, scenario, PerturbationSpec("D", Mode.SET_TO, 5.0))
        assert report.impact == 0.0
        assert all(p - b == 0.0 for b, p in node_pairs(report))


class TestSimplifyByImpact:
    def test_zero_weight_subtree_pruned(self):
        tree = ExpressionTree(
            op_node(
                Operator.ADD,
                var_node("B"),
                op_node(Operator.MUL, const_node(0.0), var_node("X")),
            )
        )
        data = Dataset({"B": [1.0, 2.0, 3.0, 4.0], "X": [5.0, 6.0, 7.0, 8.0]})
        simplified, pruned = simplify_by_impact(tree, data, ["B", "X"])
        assert pruned == [2]
        assert simplified.infix == "(B + 0)"
        for b in (0.0, 1.5, -2.0):
            bindings = {"B": b, "X": 100.0}
            assert evaluate(simplified, bindings) == evaluate(tree, bindings)

    def test_reactive_tree_unchanged(self):
        tree = bcd_tree()
        data = bcd_data()
        simplified, pruned = simplify_by_impact(tree, data, ["B", "C", "D"], threshold=0.0)
        assert simplified is tree
        assert pruned == []

    def test_reactive_inner_node_blocks_outer_prune(self):
        # mul by zero is inert at the root of its subtree, but the division
        # below it still reacts, so the subtree is not uniformly quiet
        tree = ExpressionTree(
            op_node(
                Operator.ADD,
                var_node("B"),
                op_node(
                    Operator.MUL,
                    const_node(0.0),
                    op_node(Operator.PDIV, var_node("C"), var_node("D")),
                ),
            )
        )
        data = bcd_data()
        simplified, pruned = simplify_by_impact(tree, data, ["B", "C", "D"])
        assert pruned == []
        assert simplified is tree

    def test_quartile_agreement_postcondition(self, rng):
        for _ in range(40):
            base = random_tree(rng, max_depth=4)
            # graft an inert product onto a random node
            inert = op_node(Operator.MUL, const_node(0.0), var_node(VARS[0]))
            victim = int(rng.integers(0, base.size))
            tree = ExpressionTree(
                op_node(Operator.ADD, base.tokens, inert)
                if victim == 0
                else replace_at(base, victim, inert)
            )
            cols = {name: rng.uniform(0.5, 9.5, 30) for name in VARS}
            data = Dataset(cols)
            threshold = 1e-9
            simplified, pruned = simplify_by_impact(
                tree, data, list(VARS), threshold=threshold
            )
            assert simplified.size <= tree.size
            for spec in quartile_baselines(data, list(VARS)):
                diff = abs(evaluate(simplified, spec.values) - evaluate(tree, spec.values))
                assert diff <= threshold

    def test_candidate_infinite_at_a_baseline_is_refused_quietly(self):
        # (B - B) is quiet with a finite Q2 value, so it is a candidate; the
        # tree with it replaced is inf at every baseline, as the original is,
        # and the gap inf - inf is NaN, which no threshold accepts.
        overflow = op_node(Operator.MUL, const_node(1e308), const_node(10.0))
        quiet = op_node(Operator.SUB, var_node("B"), var_node("B"))
        tree = ExpressionTree(op_node(Operator.ADD, overflow, quiet))
        data = Dataset({"B": [1.0, 2.0, 3.0, 4.0]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            simplified, pruned = simplify_by_impact(tree, data, ["B"], threshold=0.5)
        assert pruned == []
        assert simplified is tree

    def test_negative_threshold_rejected(self):
        with pytest.raises(InvalidConfig):
            simplify_by_impact(bcd_tree(), bcd_data(), ["B", "C", "D"], threshold=-1.0)


class TestFormatting:
    def test_format_impact(self):
        assert format_impact(0.0) == "±0.000"
        assert format_impact(0.0004) == "±0.000"
        assert format_impact(-0.0004) == "±0.000"
        assert format_impact(0.105) == "+0.105"
        assert format_impact(-0.17) == "-0.170"
        assert format_impact(1.0) == "+1.000"
        assert format_impact(9.9e15) == "+9900000000000000.000"
        assert format_impact(-1e16) == "-1.000e+16"
        assert format_impact(1e308) == "+1.000e+308"
        assert format_impact(math.inf) == "+inf"
        assert format_impact(math.nan) == "+nan"

    def test_annotation_bounds_huge_values_only(self):
        assert annotation(1.5, 2.0) == "1.500 -> 2.000 (+0.500)"
        assert annotation(1e308, 1e308) == "1.000e+308 -> 1.000e+308 (±0.000)"
        assert annotation(-9.9e15, 1e16) == "-9900000000000000.000 -> 1.000e+16 (+1.990e+16)"
        assert annotation(math.inf, -math.inf) == "inf -> -inf (-inf)"
        assert annotation(math.nan, 1.0) == "nan -> 1.000 (+nan)"

    def test_dot_lines_of_a_node_at_1e308_stay_short(self):
        big = op_node(Operator.MUL, const_node(1e308), var_node("A"))
        tree = ExpressionTree(op_node(Operator.SUB, big, const_node(-1e308)))
        report = ris(
            tree, BaselineSpec({"A": 1.0}, "Q1"), [PerturbationSpec("A", Mode.RELATIVE, -0.5)]
        )[0]
        dot = to_dot(tree, report.annotations())
        annotated = [line for line in dot.splitlines() if "->" in line and "label=" in line]
        assert len(annotated) == tree.size
        assert max(map(len, annotated)) <= 200

    def test_format_baseline(self):
        assert format_baseline(29.44) == "29.4"
        assert format_baseline(30.06) == "30.1"
        assert format_baseline(9.9e15) == "9900000000000000.0"
        assert format_baseline(-1e16) == "-1.0e+16"
        assert format_baseline(1e308) == "1.0e+308"
        assert (format_baseline(-math.inf), format_baseline(math.nan)) == ("-inf", "nan")

    def test_report_json_and_annotations(self):
        tree = bcd_tree()
        scenario = BaselineSpec(BCD_BASE, "scenario")
        report = counterfactual(tree, scenario, PerturbationSpec("D", Mode.SET_TO, 6.0))
        doc = report.to_json()
        assert doc["variable"] == "D"
        assert doc["baseline_label"] == "scenario"
        assert doc["impact"] == report.impact
        assert set(doc["node_impacts"]) == {"0", "1", "2", "3", "4"}
        assert doc["node_impacts"]["0"]["delta"] == report.impact
        assert [doc["node_impacts"][str(i)]["perturbed_value"] for i in range(5)] == list(
            report.perturbed_values
        )
        notes = report.annotations()
        assert set(notes) == {0, 1, 2, 3, 4}
        assert notes[0].endswith(f"({format_impact(report.impact)})")
        assert "->" in notes[0]


class TestMovedAnnotations:
    def report(self, pairs):
        before, after = zip(*pairs)
        return ImpactReport("A", "Q1", before, after)

    def test_only_moved_nodes_are_kept(self):
        inf, nan = math.inf, math.nan
        pairs = [(1.5, 1.5), (1.5, 2.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (0.0, 0.0),
                 (nan, nan), (1.0, nan), (inf, inf), (-inf, -inf), (inf, -inf)]
        moved = self.report(pairs).annotations(moved_only=True)
        assert sorted(moved) == [1, 2, 3, 6, 7, 10]

    def test_kept_nodes_read_as_in_all_annotations(self):
        pairs = [(1.5, 2.0), (0.0, -0.0), (math.nan, 1.0), (1.0, 1.0)]
        report = self.report(pairs)
        everything = report.annotations()
        assert report.annotations(moved_only=True) == {i: everything[i] for i in (0, 1, 2)}
        assert everything[1] == "0.000 -> -0.000 (±0.000)"

    def test_a_quiet_node_reads_as_its_baseline_annotation(self):
        for value in (1.5, 0.0, -0.0, math.inf, -math.inf, 1e300):
            assert self.report([(value, value)]).annotations()[0] == annotation(value, value)
        assert annotation(math.inf, math.inf) == "inf -> inf (+nan)"
