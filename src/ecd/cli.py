"""Command-line front end.

Subcommands: gen | fit | ris | counterfactual | simplify. A run is configured
by an optional JSON file (--config) plus flags; flags win over file values.
Logs go to stderr, artifacts to files under --out, and stdout stays silent
unless --stdout explicitly asks for the primary artifact there.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from . import dataio, gpsr, ris, synthbench
from .errors import EcdError, InvalidConfig, MalformedTree
from .exprcore import ExpressionTree, Operator, subtree_at, to_dot, tree_to_json

log = logging.getLogger("ecd")


@dataclass(frozen=True)
class RunConfig:
    """Everything one command invocation needs, after merging file and flags."""

    file: dict  # the --config document, {} without one
    source: dict | None
    gp: gpsr.GpConfig
    ris_mode: ris.Mode
    ris_magnitude: float
    ris_threshold: float
    out_dir: Path
    seed: int | None


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise InvalidConfig("config file must contain a JSON object")
    for key in ("data", "synth", "gp", "ris", "scenario", "intervention"):
        if doc.get(key) is not None and not isinstance(doc[key], dict):
            raise InvalidConfig(f"config section {key!r} must be an object")
    return doc


def _typed(value, default, what: str):
    """value if it is a JSON value of default's kind: an int for an int, any
    number (as a float) for a float, a list of as many such values for a tuple.
    An int beyond float range reads as the infinity JSON's 1e999 parses to,
    so one domain check rejects both."""
    if isinstance(default, tuple):
        if not isinstance(value, list) or len(value) != len(default):
            raise InvalidConfig(f"{what} must be a list of {len(default)}, got {value!r}")
        return tuple(_typed(v, d, what) for v, d in zip(value, default))
    kinds = int if isinstance(default, int) else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise InvalidConfig(f"{what} must be a number, got {value!r}")
    if kinds is int:
        return value
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _mode(name) -> ris.Mode:
    try:
        return ris.Mode(name)
    except ValueError:
        raise InvalidConfig(f"unknown perturbation mode {name!r}") from None


def _gp_config(cfg: dict, seed: int | None) -> gpsr.GpConfig:
    section = dict(cfg.get("gp") or {})
    preset_name = section.pop("preset", None)
    base = gpsr.preset(str(preset_name)) if preset_name else gpsr.GpConfig()
    unknown = set(section) - set(base.__dataclass_fields__)
    if unknown:
        raise InvalidConfig(f"unknown gp config fields: {', '.join(sorted(unknown))}")
    for name, value in section.items():
        section[name] = _typed(value, getattr(base, name), f"gp.{name}")
    config = replace(base, **section) if section else base
    if seed is not None:
        config = replace(config, seed=seed)
    config.validate()
    return config


def _run_config(args) -> RunConfig:
    cfg = _load_config_file(args.config) if args.config else {}

    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is not None:
        _typed(seed, 0, "seed")

    # Flags override the file's data or synth section; --csv picks the CSV
    # source and --synth the synthetic one.
    data_cfg, synth_cfg = cfg.get("data"), cfg.get("synth")
    data_flags = {key: getattr(args, key, None) for key in ("csv", "response", "predictors")}
    data_flags = {key: value for key, value in data_flags.items() if value}
    if "predictors" in data_flags:
        data_flags["predictors"] = [p.strip() for p in args.predictors.split(",") if p.strip()]
    if data_flags:
        data_cfg = {**(data_cfg or {}), **data_flags}
    if "csv" in data_flags:
        synth_cfg = None
    if getattr(args, "synth", False):
        synth_cfg, data_cfg = synth_cfg or {}, None
    if synth_cfg is not None:
        synth_flags = {"n": getattr(args, "n", None), "noise_percent": getattr(args, "noise", None)}
        synth_cfg = {**synth_cfg, **{k: v for k, v in synth_flags.items() if v is not None}}

    source: dict | None = None
    if data_cfg is not None and synth_cfg is not None:
        raise InvalidConfig("configure exactly one data source (csv or synth), not both")
    if data_cfg is not None:
        source = {"kind": "csv", **data_cfg}
    elif synth_cfg is not None:
        source = {"kind": "synth", **synth_cfg}

    gp = _gp_config(cfg, seed)

    ris_cfg = cfg.get("ris") or {}
    mode = _mode(getattr(args, "mode", None) or ris_cfg.get("mode", ris.Mode.RELATIVE.value))
    magnitude = getattr(args, "magnitude", None)
    if magnitude is None:
        magnitude = ris_cfg.get("magnitude", ris.DEFAULT_MAGNITUDE)
    threshold = getattr(args, "threshold", None)
    if threshold is None:
        threshold = ris_cfg.get("threshold", 0.0)

    out_dir = Path(args.out if args.out else cfg.get("out", "."))

    return RunConfig(
        file=cfg,
        source=source,
        gp=gp,
        ris_mode=mode,
        ris_magnitude=_typed(magnitude, 0.0, "ris.magnitude"),
        ris_threshold=_typed(threshold, 0.0, "ris.threshold"),
        out_dir=out_dir,
        seed=seed,
    )


def _synth_config(source: dict, seed: int | None) -> synthbench.SynthConfig:
    config = synthbench.SynthConfig(
        n=_typed(source.get("n", 500), 0, "synth.n"),
        seed=_typed(source.get("seed", seed if seed is not None else 0), 0, "synth.seed"),
        noise_percent=_typed(source.get("noise_percent", 0.0), 0.0, "synth.noise_percent"),
    )
    if seed is not None:
        config = replace(config, seed=seed)
    config.validate()
    return config


def _resolve_dataset(run: RunConfig) -> tuple[dataio.Dataset, str, list[str]]:
    """(dataset, response, predictors) from whichever source is configured."""
    if run.source is None:
        raise InvalidConfig("no data source configured (need data.csv or synth)")
    if run.source["kind"] == "synth":
        config = _synth_config(run.source, run.seed)
        data, truth = synthbench.generate(config)
        predictors = [n for n in data.names if n != truth.response]
        return data, truth.response, predictors
    source = run.source
    if "csv" not in source:
        raise InvalidConfig("csv data source needs a csv path")
    if "response" not in source or "predictors" not in source:
        raise InvalidConfig("csv data source needs response and predictors")
    roles = dataio.RoleConfig(
        response=str(source["response"]),
        predictors=tuple(source["predictors"]),
    )
    data = dataio.load_csv(
        source["csv"], roles, source.get("missing_policy", "drop_row")
    )
    filter_spec = source.get("filter", [])
    if filter_spec:
        before = data.n_rows
        data = dataio.filter_rows(data, filter_spec)
        log.info("filter kept %d of %d rows", data.n_rows, before)
    return data, roles.response, list(roles.predictors)


def _load_model(path: str) -> tuple[ExpressionTree, tuple[str, ...]]:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except RecursionError:
            raise MalformedTree(f"model document {path} is nested too deeply to read") from None
    return gpsr.model_from_document(doc)


def _write_json(path: Path, doc: dict) -> str:
    """Write doc as sorted, indented JSON and return the text written."""
    try:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    except RecursionError:
        raise MalformedTree(f"{path.name}: the tree is nested too deeply to write") from None
    path.write_text(text, encoding="utf-8")
    return text


def _parse_assignments(pairs: Sequence[str], what: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise InvalidConfig(f"{what} must look like NAME=VALUE, got {pair!r}")
        try:
            out[name.strip()] = float(value)
        except ValueError:
            raise InvalidConfig(f"{what} value for {name!r} is not numeric: {value!r}") from None
    return out


def cmd_gen(args) -> int:
    run = _run_config(args)
    config = _synth_config(run.source, run.seed)
    data, truth = synthbench.generate(config)

    run.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = run.out_dir / "synthetic.csv"
    truth_path = run.out_dir / "synthetic_truth.json"
    data.to_csv(csv_path)
    _write_json(
        truth_path,
        {
            "response": truth.response,
            "equations": dict(truth.equations),
            "direct_parents": {k: sorted(v) for k, v in truth.direct_parents.items()},
            "equivalent_supports": [sorted(s) for s in truth.equivalent_supports],
            "n": config.n,
            "seed": config.seed,
            "noise_percent": config.noise_percent,
        },
    )
    log.info("wrote %s (%d rows) and %s", csv_path, data.n_rows, truth_path)
    if args.stdout:
        sys.stdout.write(csv_path.read_text(encoding="utf-8"))
    return 0


def cmd_fit(args) -> int:
    run = _run_config(args)
    data, response, predictors = _resolve_dataset(run)
    log.info(
        "fitting %s ~ %s on %d rows (population %d, %d generations, seed %d)",
        response, " + ".join(predictors), data.n_rows,
        run.gp.population_size, run.gp.generations, run.gp.seed,
    )
    result = gpsr.evolve(data, response, run.gp)
    best = result.best
    log.info(
        "best fitness %.6g (raw mse %.6g), stopped by %s after %d generation(s)",
        best.fitness, best.raw_mse, result.terminated_by.value, len(result.history),
    )
    log.info("best expression: %s", best.tree.infix)

    run.out_dir.mkdir(parents=True, exist_ok=True)
    text = _write_json(run.out_dir / "model.json", gpsr.model_document(best, predictors, run.gp))
    gpsr.history_to_csv(result.history, run.out_dir / "history.csv")
    (run.out_dir / "expression.txt").write_text(best.tree.infix + "\n", encoding="utf-8")
    (run.out_dir / "best_tree.dot").write_text(to_dot(best.tree), encoding="utf-8")
    log.info("artifacts in %s: model.json history.csv expression.txt best_tree.dot", run.out_dir)
    if args.stdout:
        sys.stdout.write(text)
    return 0


def cmd_ris(args) -> int:
    run = _run_config(args)
    tree, variables = _load_model(args.model)
    data, _, _ = _resolve_dataset(run)
    predictors = list(variables)
    table = ris.quartile_impact_table(
        data=data,
        tree=tree,
        predictors=predictors,
        perturbation_mode=run.ris_mode,
        magnitude=run.ris_magnitude,
    )

    run.out_dir.mkdir(parents=True, exist_ok=True)
    (run.out_dir / "impact_table.txt").write_text(table.to_text(), encoding="utf-8")
    _write_json(run.out_dir / "impact_table.json", table.to_json())
    for name, cells in table.reports.items():
        for label, report in zip(ris.QUARTILE_LABELS, cells):
            dot = to_dot(tree, report.annotations())
            (run.out_dir / f"impact_{name}_{label}.dot").write_text(dot, encoding="utf-8")
    log.info("impact table and per-cell DOT files written to %s", run.out_dir)
    if args.stdout:
        sys.stdout.write(table.to_text())
    return 0


def _describe_node(tree: ExpressionTree, node_id: int) -> str:
    text = ExpressionTree(subtree_at(tree, node_id)).infix
    if len(text) > 48:
        text = text[:45] + "..."
    return text


def cmd_counterfactual(args) -> int:
    run = _run_config(args)
    tree, variables = _load_model(args.model)

    cfg = run.file
    scenario_values = {
        name: _typed(value, 0.0, f"scenario value of {name!r}")
        for name, value in (cfg.get("scenario") or {}).items()
    }
    scenario_values.update(_parse_assignments(args.at or [], "--at"))
    if not scenario_values:
        raise InvalidConfig("counterfactual needs a scenario (--at NAME=VALUE or config)")
    scenario = ris.BaselineSpec(scenario_values, label="scenario")

    if args.set:
        assignments = _parse_assignments([args.set], "--set")
        variable, new_value = next(iter(assignments.items()))
        intervention = ris.PerturbationSpec(variable, ris.Mode.SET_TO, new_value)
    elif cfg.get("intervention") is not None:
        section = cfg["intervention"]
        variable, value = section.get("variable"), section.get("value", section.get("magnitude"))
        if not isinstance(variable, str) or value is None:
            raise InvalidConfig("intervention needs variable plus value (set_to) or magnitude")
        intervention = ris.PerturbationSpec(
            variable,
            _mode(section.get("mode", ris.Mode.SET_TO.value)),
            _typed(value, 0.0, "intervention value"),
        )
    else:
        raise InvalidConfig("counterfactual needs an intervention (--set NAME=VALUE or config)")

    report = ris.counterfactual(tree, scenario, intervention)
    annotations = report.annotations()
    base, pert = report.baseline_values, report.perturbed_values
    internal = [i for i, token in enumerate(tree.tokens) if isinstance(token, Operator)]
    top = sorted(internal, key=lambda i: (-abs(pert[i] - base[i]), i))[:2]

    lines = [
        "scenario: " + ", ".join(f"{k}={v:g}" for k, v in sorted(scenario.values.items())),
        f"baseline output: {report.baseline_output:.3f}",
        f"intervention: {intervention.variable} {intervention.mode.value} {intervention.magnitude:g}",
        f"perturbed output: {report.perturbed_output:.3f}",
        f"impact: {ris.format_impact(report.impact)}",
    ]
    if report.notes:
        lines.extend(f"note: {note}" for note in report.notes)
    if top:
        lines.append("most changed internal nodes:")
        lines.extend(f"  node {i} {_describe_node(tree, i)}: {annotations[i]}" for i in top)
    text = "\n".join(lines) + "\n"

    run.out_dir.mkdir(parents=True, exist_ok=True)
    (run.out_dir / "counterfactual.txt").write_text(text, encoding="utf-8")
    _write_json(run.out_dir / "counterfactual.json", report.to_json())
    (run.out_dir / "counterfactual.dot").write_text(to_dot(tree, annotations), encoding="utf-8")
    log.info("counterfactual report written to %s", run.out_dir)
    sys.stderr.write(text)
    if args.stdout:
        sys.stdout.write(text)
    return 0


def cmd_simplify(args) -> int:
    run = _run_config(args)
    tree, variables = _load_model(args.model)
    data, _, _ = _resolve_dataset(run)
    simplified, pruned = ris.simplify_by_impact(
        tree,
        data,
        list(variables),
        magnitude=run.ris_magnitude,
        threshold=run.ris_threshold,
    )
    log.info(
        "size %d -> %d, pruned %d subtree(s)%s",
        tree.size,
        simplified.size,
        len(pruned),
        f" at node id(s) {pruned}" if pruned else "",
    )

    run.out_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema_version": gpsr.MODEL_SCHEMA_VERSION,
        "operators": [op.value for op in Operator],
        "variables": sorted(variables),
        "tree": tree_to_json(simplified),
        "expression": simplified.infix,
        "simplified_from_size": tree.size,
        "pruned_node_ids": list(pruned),
        "threshold": run.ris_threshold,
        "magnitude": run.ris_magnitude,
    }
    text = _write_json(run.out_dir / "simplified_model.json", doc)
    (run.out_dir / "simplified_tree.dot").write_text(to_dot(simplified), encoding="utf-8")
    if args.stdout:
        sys.stdout.write(text)
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON run-config file")
    parser.add_argument("--seed", type=int, help="override every configured seed")
    parser.add_argument("--out", help="output directory (default: from config or cwd)")
    parser.add_argument(
        "--stdout", action="store_true", help="also print the primary artifact to stdout"
    )


def _add_data_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--csv", help="input CSV path")
    parser.add_argument("--response", help="response column name")
    parser.add_argument("--predictors", help="comma-separated predictor columns")
    parser.add_argument("--synth", action="store_true", help="use the synthetic generator")
    parser.add_argument("--n", type=int, help="synthetic sample count")
    parser.add_argument("--noise", type=float, help="synthetic noise percent (e.g. 0.05)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecd",
        description="Fit expression trees by evolutionary search and analyze them "
        "with perturbation-based impact stratification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a synthetic dataset and its ground truth")
    _add_common(p)
    p.add_argument("--n", type=int, help="sample count (default 500)")
    p.add_argument("--noise", type=float, help="noise percent (default 0)")
    p.set_defaults(func=cmd_gen, synth=True)

    p = sub.add_parser("fit", help="evolve an expression tree for a response column")
    _add_common(p)
    _add_data_flags(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("ris", help="quartile impact table for a fitted model")
    _add_common(p)
    _add_data_flags(p)
    p.add_argument("--model", required=True, help="model JSON from fit")
    p.add_argument("--mode", choices=[m.value for m in ris.Mode], help="perturbation mode")
    p.add_argument("--magnitude", type=float, help="perturbation magnitude")
    p.set_defaults(func=cmd_ris)

    p = sub.add_parser("counterfactual", help="what-if analysis on a scenario")
    _add_common(p)
    p.add_argument("--model", required=True, help="model JSON from fit")
    p.add_argument("--at", action="append", metavar="NAME=VALUE", help="scenario binding")
    p.add_argument("--set", metavar="NAME=VALUE", help="intervention: set variable to value")
    p.set_defaults(func=cmd_counterfactual)

    p = sub.add_parser("simplify", help="prune inert subtrees of a fitted model")
    _add_common(p)
    _add_data_flags(p)
    p.add_argument("--model", required=True, help="model JSON from fit")
    p.add_argument("--magnitude", type=float, help="perturbation magnitude")
    p.add_argument("--threshold", type=float, help="maximum tolerated output change")
    p.set_defaults(func=cmd_simplify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s: %(message)s"
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EcdError as exc:
        log.error("%s", exc)
        return 1
    except FileNotFoundError as exc:
        log.error("file not found: %s", exc.filename or exc)
        return 1
    except OSError as exc:
        log.error("%s", exc)
        return 1
    except json.JSONDecodeError as exc:
        log.error("invalid JSON: %s", exc)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())
