"""Command-line front end.

Subcommands: gen | fit | ris | counterfactual | simplify. A run is configured
by an optional JSON file (--config) plus flags; each flag overwrites the one
field it names. Logs go to stderr, artifacts to files under --out, and stdout
stays silent unless --stdout explicitly asks for the primary artifact there.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

from . import dataio, gpsr, ris, synthbench
from .errors import EcdError, InvalidConfig, MalformedTree
from .exprcore import ExpressionTree, Operator, subtree_at, to_dot, tree_to_json

log = logging.getLogger("ecd")


# Every field a config file may set, as {section: {key: default}} with "" for
# the top level. A value must be of its default's JSON kind (see _typed); a
# field that has no default, such as data.csv, lists a value of its kind. A
# flag overwrites the field its argparse dest names, as "section.key".
FIELDS: dict[str, dict] = {
    "": dict(seed=0, out="."),
    "data": dict(csv="", response="", predictors=[""], missing_policy="drop_row", filter=[]),
    "synth": asdict(synthbench.SynthConfig()),
    "gp": dict(asdict(gpsr.GpConfig()), preset=""),
    "ris": dict(mode=ris.Mode.RELATIVE.value, magnitude=ris.DEFAULT_MAGNITUDE, threshold=0.0),
    "intervention": dict(variable="", mode=ris.Mode.SET_TO.value, value=0.0, magnitude=0.0),
}
# Sections of a config file; scenario maps any variable name to a number.
SECTIONS = (*(section for section in FIELDS if section), "scenario")


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise InvalidConfig("config file must contain a JSON object")
    for key in SECTIONS:
        if doc.get(key) is not None and not isinstance(doc[key], dict):
            raise InvalidConfig(f"config section {key!r} must be an object")
    return doc


def _typed(value, default, what: str):
    """value if it is a JSON value of default's kind: a string for a string,
    an int for an int, any number (as a float) for a float, a list of as many
    such values for a tuple, and a list of any length for a list, its items
    of the kind of the list's first item if it has one. An int beyond float
    range reads as the infinity JSON's 1e999 parses to, so one domain check
    rejects both."""
    if isinstance(default, list):
        if not isinstance(value, list):
            raise InvalidConfig(f"{what} must be a list, got {value!r}")
        return [_typed(v, default[0], what) for v in value] if default else value
    if isinstance(default, tuple):
        if not isinstance(value, list) or len(value) != len(default):
            raise InvalidConfig(f"{what} must be a list of {len(default)}, got {value!r}")
        return tuple(_typed(v, d, what) for v, d in zip(value, default))
    kind = "a string" if isinstance(default, str) else "a number"
    kinds = str if isinstance(default, str) else int if isinstance(default, int) else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise InvalidConfig(f"{what} must be {kind}, got {value!r}")
    if not isinstance(default, float):
        return value
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _checked(section: str, given: dict) -> dict:
    """The given fields of one section, each checked by _typed."""
    fields = dict.fromkeys(given, 0.0) if section == "scenario" else FIELDS[section]
    unknown = sorted(set(given) - set(fields))
    if unknown:
        raise InvalidConfig(f"unknown {section or 'top-level'} config fields: {', '.join(unknown)}")
    prefix = f"{section}." if section else ""
    return {key: _typed(value, fields[key], prefix + key) for key, value in given.items()}


def _mode(name) -> ris.Mode:
    try:
        return ris.Mode(name)
    except ValueError:
        raise InvalidConfig(f"unknown perturbation mode {name!r}") from None


def _run_config(args) -> dict:
    """The config file as {section: {key: value}}, "" for the top level, with
    each given flag written over the field its dest names and every field
    checked. --csv picks the CSV source and --synth the synthetic one; only
    the chosen source's section is kept. A top-level seed is every seed;
    "gp" and "synth" hold validated configs and "ris" holds every ris field."""
    doc = _load_config_file(args.config) if args.config else {}
    cfg = {"": {k: v for k, v in doc.items() if k not in SECTIONS}, "gp": {}, "ris": {}}
    cfg.update((section, doc[section]) for section in SECTIONS if doc.get(section) is not None)
    flags = {dest: value for dest, value in vars(args).items() if "." in dest and value is not None}
    sources = {section for section in ("data", "synth") if section in cfg}
    if any(dest.startswith("data.") for dest in flags):
        sources = {"data"} if "data.csv" in flags else sources | {"data"}
    if getattr(args, "synth", False):
        sources = {"synth"}
    for dest, value in flags.items():
        section, _, key = dest.partition(".")
        cfg[section] = {**cfg.get(section, {}), key: value}
    if getattr(args, "at", None):
        cfg["scenario"] = {**cfg.get("scenario", {}), **_parse_assignments(args.at, "--at")}
    if getattr(args, "set", None):
        [(variable, value)] = _parse_assignments([args.set], "--set").items()
        cfg["intervention"] = {"variable": variable, "value": value}
    cfg = {section: _checked(section, given) for section, given in cfg.items()}

    if len(sources) > 1:
        raise InvalidConfig("configure exactly one data source (csv or synth), not both")
    for section in ("data", "synth"):
        cfg[section] = cfg.get(section, {}) if section in sources else None
    for section in ("gp", "synth"):
        if cfg[section] is not None and "seed" in cfg[""]:
            cfg[section]["seed"] = cfg[""]["seed"]
    preset = cfg["gp"].pop("preset", "")
    cfg["gp"] = gpsr.preset(preset, **cfg["gp"]) if preset else gpsr.GpConfig(**cfg["gp"])
    cfg["gp"].validate()
    if cfg["synth"] is not None:
        cfg["synth"] = synthbench.SynthConfig(**cfg["synth"])
        cfg["synth"].validate()
    cfg["ris"] = {**FIELDS["ris"], **cfg["ris"]}
    cfg["ris"]["mode"] = _mode(cfg["ris"]["mode"])
    return cfg


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg[""].get("out", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolve_dataset(cfg: dict) -> tuple[dataio.Dataset, str, list[str]]:
    """(dataset, response, predictors) from whichever source is configured."""
    if cfg["synth"] is not None:
        data, truth = synthbench.generate(cfg["synth"])
        predictors = [n for n in data.names if n != truth.response]
        return data, truth.response, predictors
    source = cfg["data"]
    if source is None:
        raise InvalidConfig("no data source configured (need data.csv or synth)")
    if not {"csv", "response", "predictors"} <= source.keys():
        raise InvalidConfig("csv data source needs csv, response and predictors")
    roles = dataio.RoleConfig(response=source["response"], predictors=source["predictors"])
    data = dataio.load_csv(source["csv"], roles, source.get("missing_policy", "drop_row"))
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
    cfg = _run_config(args)
    config = cfg["synth"]
    data, truth = synthbench.generate(config)

    out = _out_dir(cfg)
    csv_path = out / "synthetic.csv"
    truth_path = out / "synthetic_truth.json"
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
    cfg = _run_config(args)
    data, response, predictors = _resolve_dataset(cfg)
    gp = cfg["gp"]
    log.info(
        "fitting %s ~ %s on %d rows (population %d, %d generations, seed %d)",
        response, " + ".join(predictors), data.n_rows, gp.population_size, gp.generations, gp.seed,
    )
    result = gpsr.evolve(data, response, gp)
    best = result.best
    log.info(
        "best fitness %.6g (raw mse %.6g), stopped by %s after %d generation(s)",
        best.fitness, best.raw_mse, result.terminated_by.value, len(result.history),
    )
    log.info("best expression: %s", best.tree.infix)

    out = _out_dir(cfg)
    text = _write_json(out / "model.json", gpsr.model_document(best, predictors, gp))
    gpsr.history_to_csv(result.history, out / "history.csv")
    (out / "expression.txt").write_text(best.tree.infix + "\n", encoding="utf-8")
    (out / "best_tree.dot").write_text(to_dot(best.tree), encoding="utf-8")
    log.info("artifacts in %s: model.json history.csv expression.txt best_tree.dot", out)
    if args.stdout:
        sys.stdout.write(text)
    return 0


def cmd_ris(args) -> int:
    cfg = _run_config(args)
    tree, variables = _load_model(args.model)
    data, _, _ = _resolve_dataset(cfg)
    predictors = list(variables)
    table = ris.quartile_impact_table(
        data=data,
        tree=tree,
        predictors=predictors,
        perturbation_mode=cfg["ris"]["mode"],
        magnitude=cfg["ris"]["magnitude"],
    )

    out = _out_dir(cfg)
    (out / "impact_table.txt").write_text(table.to_text(), encoding="utf-8")
    _write_json(out / "impact_table.json", table.to_json())
    for name, cells in table.reports.items():
        for label, report in zip(ris.QUARTILE_LABELS, cells):
            dot = to_dot(tree, report.annotations())
            (out / f"impact_{name}_{label}.dot").write_text(dot, encoding="utf-8")
    log.info("impact table and per-cell DOT files written to %s", out)
    if args.stdout:
        sys.stdout.write(table.to_text())
    return 0


def _describe_node(tree: ExpressionTree, node_id: int) -> str:
    text = ExpressionTree(subtree_at(tree, node_id)).infix
    if len(text) > 48:
        text = text[:45] + "..."
    return text


def cmd_counterfactual(args) -> int:
    cfg = _run_config(args)
    tree, variables = _load_model(args.model)

    if not cfg.get("scenario"):
        raise InvalidConfig("counterfactual needs a scenario (--at NAME=VALUE or config)")
    scenario = ris.BaselineSpec(cfg["scenario"], label="scenario")
    section = cfg.get("intervention", {})
    value = section.get("value", section.get("magnitude"))
    if "variable" not in section or value is None:
        raise InvalidConfig("counterfactual needs an intervention (--set NAME=VALUE or config)")
    mode = _mode(section.get("mode", ris.Mode.SET_TO.value))
    intervention = ris.PerturbationSpec(section["variable"], mode, value)

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

    out = _out_dir(cfg)
    (out / "counterfactual.txt").write_text(text, encoding="utf-8")
    _write_json(out / "counterfactual.json", report.to_json())
    (out / "counterfactual.dot").write_text(to_dot(tree, annotations), encoding="utf-8")
    log.info("counterfactual report written to %s", out)
    sys.stderr.write(text)
    if args.stdout:
        sys.stdout.write(text)
    return 0


def cmd_simplify(args) -> int:
    cfg = _run_config(args)
    tree, variables = _load_model(args.model)
    data, _, _ = _resolve_dataset(cfg)
    magnitude, threshold = cfg["ris"]["magnitude"], cfg["ris"]["threshold"]
    simplified, pruned = ris.simplify_by_impact(
        tree, data, list(variables), magnitude=magnitude, threshold=threshold
    )
    log.info(
        "size %d -> %d, pruned %d subtree(s)%s",
        tree.size,
        simplified.size,
        len(pruned),
        f" at node id(s) {pruned}" if pruned else "",
    )

    out = _out_dir(cfg)
    doc = {
        "schema_version": gpsr.MODEL_SCHEMA_VERSION,
        "operators": [op.value for op in Operator],
        "variables": sorted(variables),
        "tree": tree_to_json(simplified),
        "expression": simplified.infix,
        "simplified_from_size": tree.size,
        "pruned_node_ids": list(pruned),
        "threshold": threshold,
        "magnitude": magnitude,
    }
    text = _write_json(out / "simplified_model.json", doc)
    (out / "simplified_tree.dot").write_text(to_dot(simplified), encoding="utf-8")
    if args.stdout:
        sys.stdout.write(text)
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON run-config file")
    parser.add_argument("--seed", dest=".seed", metavar="N", type=int, help="override every seed")
    parser.add_argument("--out", dest=".out", metavar="DIR", help="output directory (default: cwd)")
    parser.add_argument(
        "--stdout", action="store_true", help="also print the primary artifact to stdout"
    )


def _add_data_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--csv", dest="data.csv", help="input CSV path")
    parser.add_argument("--response", dest="data.response", help="response column name")
    parser.add_argument(
        "--predictors", dest="data.predictors", help="comma-separated predictor columns",
        type=lambda text: [p.strip() for p in text.split(",") if p.strip()],
    )
    parser.add_argument("--synth", action="store_true", help="use the synthetic generator")
    parser.add_argument("--n", dest="synth.n", type=int, help="synthetic sample count")
    parser.add_argument(
        "--noise", dest="synth.noise_percent", type=float, help="synthetic noise, e.g. 0.05"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecd",
        description="Fit expression trees by evolutionary search and analyze them "
        "with perturbation-based impact stratification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a synthetic dataset and its ground truth")
    _add_common(p)
    p.add_argument("--n", dest="synth.n", type=int, help="sample count (default 500)")
    p.add_argument("--noise", dest="synth.noise_percent", type=float, help="noise percent")
    p.set_defaults(func=cmd_gen, synth=True)

    p = sub.add_parser("fit", help="evolve an expression tree for a response column")
    _add_common(p)
    _add_data_flags(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("ris", help="quartile impact table for a fitted model")
    _add_common(p)
    _add_data_flags(p)
    p.add_argument("--model", required=True, help="model JSON from fit")
    p.add_argument(
        "--mode", dest="ris.mode", choices=[m.value for m in ris.Mode], help="perturbation mode"
    )
    p.add_argument("--magnitude", dest="ris.magnitude", type=float, help="perturbation magnitude")
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
    p.add_argument("--magnitude", dest="ris.magnitude", type=float, help="perturbation magnitude")
    p.add_argument(
        "--threshold", dest="ris.threshold", type=float, help="maximum tolerated output change"
    )
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
