"""Command-line front end.

Subcommands: gen | fit | ris | counterfactual | simplify. A run is configured
by an optional JSON file (--config) plus flags; each flag overwrites the one
field it names, and main checks it all before any command runs. A flag's
text is checked as that field's value in the file is, and every refusal, of
a flag or of the file, exits 1 with one ERROR line. Logs go to stderr.
Each command returns its artifacts as {file name: text}, primary first, and
writes nothing; main alone makes --out, writes every text there, and copies
the primary one to stdout under --stdout; counterfactual's report is also
echoed to stderr once it is written.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

from . import dataio, gpsr, ris, synthbench
from .errors import EcdError, InvalidConfig, MalformedTree
from .exprcore import DotLayout, ExpressionTree, Operator, subtree_at, to_dot
from .exprcore import tree_to_json  # not called here: perfbench's tracer rebinds cli.tree_to_json

log = logging.getLogger("ecd")

# The longest file name, in UTF-8 bytes, that common file systems take.
NAME_MAX = 255


# Every field a config file may set, as {section: {key: default}} with "" for
# the top level. A value must be of its default's JSON kind (see _typed); a
# field that has no default, such as data.csv, lists a value of its kind.
FIELDS: dict[str, dict] = {
    "": dict(seed=0, out="."),
    "data": dict(csv="", response="", predictors=[""], missing_policy="drop_row", filter=[]),
    "synth": asdict(synthbench.SynthConfig()),
    "gp": dict(asdict(gpsr.GpConfig()), preset=""),
    "ris": dict(mode=ris.Mode.RELATIVE.value, magnitude=ris.DEFAULT_MAGNITUDE, threshold=0.0),
    "intervention": dict(variable="", mode=ris.Mode.SET_TO.value, value=0.0),
}
# Sections of a config file; scenario maps any variable name to a number.
SECTIONS = (*(section for section in FIELDS if section), "scenario")

# Every flag, as {flag: its add_argument keywords}. A flag whose dest is
# "section.key" overwrites that field: _flag_value reads its text as a value
# of the field's kind, which _typed then checks as it checks the file's.
FLAGS: dict[str, dict] = {
    "--config": dict(help="JSON run-config file"),
    "--seed": dict(dest=".seed", metavar="N", help="override every seed"),
    "--out": dict(dest=".out", metavar="DIR", help="output directory (default: cwd)"),
    "--stdout": dict(action="store_true", help="also print the primary artifact to stdout"),
    "--csv": dict(dest="data.csv", help="input CSV path"),
    "--response": dict(dest="data.response", help="response column name"),
    "--predictors": dict(dest="data.predictors", help="comma-separated predictor columns"),
    "--synth": dict(action="store_true", help="use the synthetic generator"),
    "--n": dict(dest="synth.n", help="synthetic sample count (default 500)"),
    "--noise": dict(dest="synth.noise_percent", help="synthetic noise fraction, e.g. 0.05"),
    "--model": dict(required=True, help="model JSON from fit"),
    "--mode": dict(dest="ris.mode", help="perturbation mode: relative, absolute or set_to"),
    "--magnitude": dict(dest="ris.magnitude", help="perturbation magnitude"),
    "--threshold": dict(dest="ris.threshold", help="maximum tolerated output change"),
    "--at": dict(action="append", metavar="NAME=VALUE", help="scenario binding"),
    "--set": dict(metavar="NAME=VALUE", help="intervention: set variable to value"),
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises InvalidConfig where argparse would exit 2."""

    def error(self, message):
        raise InvalidConfig(message)


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise EcdError(f"{path} is nested too deeply to read") from None


def _flag_value(text: str, default):
    """A flag's text as a value of default's kind, for _typed to check: a
    comma list for a list, the text for a string, else the number the text
    reads as (an int first where default is an int), else the text itself."""
    if isinstance(default, list):
        return [item.strip() for item in text.split(",") if item.strip()]
    if isinstance(default, str):
        return text
    for kind in (type(default), float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


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
    """The config file as {section: value}, "" for the top level, with each
    given flag written over the field its dest names and every given section
    built into the object its reader uses, whichever command runs. --csv
    picks the CSV source and --synth, as gen does, the synthetic one; "data"
    and "synth" are None unless they are a source. The data section's
    "roles" is its RoleConfig, or None unless both roles are given. A
    top-level seed is every seed."""
    doc = _read_json(args.config) if args.config else {}
    if not isinstance(doc, dict):
        raise InvalidConfig("config file must contain a JSON object")
    for key in SECTIONS:
        if doc.get(key) is not None and not isinstance(doc[key], dict):
            raise InvalidConfig(f"config section {key!r} must be an object")
    cfg = {"": {k: v for k, v in doc.items() if k not in SECTIONS}, "gp": {}, "ris": {}}
    cfg.update((section, doc[section]) for section in SECTIONS if doc.get(section) is not None)
    flags = {dest: text for dest, text in vars(args).items() if "." in dest and text is not None}
    sources = {section for section in ("data", "synth") if section in cfg}
    if any(dest.startswith("data.") for dest in flags):
        sources = {"data"} if "data.csv" in flags else sources | {"data"}
    if args.command == "gen" or getattr(args, "synth", False):
        sources = {"synth"}
        cfg.setdefault("synth", {})
    for dest, text in flags.items():
        section, _, key = dest.partition(".")
        cfg[section] = {**cfg.get(section, {}), key: _flag_value(text, FIELDS[section][key])}
    if getattr(args, "at", None):
        cfg["scenario"] = {**cfg.get("scenario", {}), **_parse_assignments(args.at, "--at")}
    if getattr(args, "set", None):
        [(variable, value)] = _parse_assignments([args.set], "--set").items()
        cfg["intervention"] = {"variable": variable, "value": value}
    cfg = {section: _checked(section, given) for section, given in cfg.items()}

    for section in ("gp", "synth"):
        if section in cfg and "seed" in cfg[""]:
            cfg[section]["seed"] = cfg[""]["seed"]
    preset = cfg["gp"].pop("preset", "")
    cfg["gp"] = gpsr.preset(preset, **cfg["gp"]) if preset else gpsr.GpConfig(**cfg["gp"])
    synth = synthbench.SynthConfig(**cfg["synth"]) if "synth" in cfg else None
    cfg["synth"] = synth if "synth" in sources else None
    data = cfg.get("data", {})
    policy = data.setdefault("missing_policy", "drop_row")
    if policy not in dataio.MISSING_POLICIES:
        raise InvalidConfig(f"unknown missing_policy {policy!r}")
    roles = data.get("response"), data.get("predictors")
    data["roles"] = dataio.RoleConfig(*roles) if None not in roles else None
    dataio.filter_clauses(data.get("filter", []), data["roles"])
    cfg["data"] = data if "data" in sources else None
    cfg["ris"] = {**FIELDS["ris"], **cfg["ris"]}
    cfg["ris"]["mode"] = _mode(cfg["ris"]["mode"])
    magnitude, threshold = cfg["ris"]["magnitude"], cfg["ris"]["threshold"]
    if not math.isfinite(magnitude):
        raise InvalidConfig(f"ris.magnitude is not finite: {magnitude!r}")
    if not 0 <= threshold < math.inf:
        raise InvalidConfig(f"ris.threshold must be nonnegative and finite, got {threshold!r}")
    scenario = cfg.get("scenario")
    cfg["scenario"] = ris.BaselineSpec(scenario, label="scenario") if scenario else None
    given = cfg.get("intervention", {})
    fields = {**FIELDS["intervention"], **given}
    intervention = ris.PerturbationSpec(fields["variable"], _mode(fields["mode"]), fields["value"])
    cfg["intervention"] = intervention if {"variable", "value"} <= given.keys() else None
    return cfg


def _resolve_dataset(cfg: dict) -> tuple[dataio.Dataset, str, list[str]]:
    """(dataset, response, predictors) from the one configured source."""
    if cfg["synth"] is not None and cfg["data"] is not None:
        raise InvalidConfig("configure exactly one data source (csv or synth), not both")
    if cfg["synth"] is not None:
        data, truth = synthbench.generate(cfg["synth"])
        predictors = [n for n in data.names if n != truth.response]
        return data, truth.response, predictors
    source = cfg["data"]
    if source is None:
        raise InvalidConfig("no data source configured (need data.csv or synth)")
    roles = source["roles"]
    if "csv" not in source or roles is None:
        raise InvalidConfig("csv data source needs csv, response and predictors")
    data = dataio.load_csv(source["csv"], roles, source["missing_policy"])
    filter_spec = source.get("filter", [])
    if filter_spec:
        before = data.n_rows
        data = dataio.filter_rows(data, filter_spec)
        log.info("filter kept %d of %d rows", data.n_rows, before)
    return data, roles.response, list(roles.predictors)


def _json_text(name: str, doc: dict) -> str:
    """doc as sorted, indented JSON text for the file name, which a refusal names."""
    try:
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    except RecursionError:
        raise MalformedTree(f"{name}: the tree is nested too deeply to write") from None


def _parse_assignments(pairs: Sequence[str], what: str) -> dict:
    """{NAME: value} of NAME=VALUE pairs, each value read as a number flag's."""
    out = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise InvalidConfig(f"{what} must look like NAME=VALUE, got {pair!r}")
        out[name.strip()] = _flag_value(value, 0.0)
    return out


def cmd_gen(args, cfg: dict) -> dict[str, str]:
    config = cfg["synth"]
    data, truth = synthbench.generate(config)
    doc = {
        "response": truth.response,
        "equations": dict(truth.equations),
        "direct_parents": {k: sorted(v) for k, v in truth.direct_parents.items()},
        "equivalent_supports": [sorted(s) for s in truth.equivalent_supports],
        "n": config.n,
        "seed": config.seed,
        "noise_percent": config.noise_percent,
    }
    return {"synthetic.csv": data.to_csv(), "synthetic_truth.json": _json_text("synthetic_truth.json", doc)}


def cmd_fit(args, cfg: dict) -> dict[str, str]:
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
    return {
        "model.json": _json_text("model.json", gpsr.model_document(best, predictors, gp)),
        "history.csv": gpsr.history_to_csv(result.history),
        "expression.txt": best.tree.infix + "\n",
        "best_tree.dot": to_dot(best.tree),
    }


def _impact_dots(tree: ExpressionTree, table: ris.QuartileImpactTable):
    """(file name, to_dot(tree, report.annotations())) of each cell. A
    quartile's cells copy its quiet lines, annotation(b, b), and rewrite the moved nodes.
    A name's % and / are written %25 and %2F, so each name has a file name of its own."""
    layout = DotLayout(tree)
    for q, label in enumerate(ris.QUARTILE_LABELS):
        baseline = next(iter(table.reports.values()))[q].baseline_values
        quiet = layout.lines({i: ris.annotation(b, b) for i, b in enumerate(baseline)})
        for name, cells in table.reports.items():
            moved = cells[q].annotations(moved_only=True)
            stem = name.replace("%", "%25").replace("/", "%2F")
            yield f"impact_{stem}_{label}.dot", layout.render(layout.lines(moved, quiet))


def cmd_ris(args, cfg: dict) -> dict[str, str]:
    tree, variables = gpsr.model_from_document(_read_json(args.model))
    data, _, _ = _resolve_dataset(cfg)
    table = ris.quartile_impact_table(
        data=data,
        tree=tree,
        predictors=list(variables),
        perturbation_mode=cfg["ris"]["mode"],
        magnitude=cfg["ris"]["magnitude"],
    )
    return {
        "impact_table.txt": table.to_text(),
        "impact_table.json": _json_text("impact_table.json", table.to_json()),
        **dict(_impact_dots(tree, table)),
    }


def _describe_node(tree: ExpressionTree, node_id: int) -> str:
    text = ExpressionTree(subtree_at(tree, node_id)).infix
    if len(text) > 48:
        text = text[:45] + "..."
    return text


def cmd_counterfactual(args, cfg: dict) -> dict[str, str]:
    tree, variables = gpsr.model_from_document(_read_json(args.model))
    scenario, intervention = cfg["scenario"], cfg["intervention"]
    if scenario is None:
        raise InvalidConfig("counterfactual needs a scenario (--at NAME=VALUE or config)")
    if intervention is None:
        raise InvalidConfig("counterfactual needs an intervention (--set NAME=VALUE or config)")

    report = ris.counterfactual(tree, scenario, intervention)
    annotations = report.annotations()
    base, pert = report.baseline_values, report.perturbed_values
    internal = [i for i, token in enumerate(tree.tokens) if isinstance(token, Operator)]
    top = sorted(internal, key=lambda i: (-abs(pert[i] - base[i]), i))[:2]

    lines = [
        "scenario: " + ", ".join(f"{k}={v:g}" for k, v in sorted(scenario.values.items())),
        f"baseline output: {ris.format_value(report.baseline_output)}",
        f"intervention: {intervention.variable} {intervention.mode.value} {intervention.magnitude:g}",
        f"perturbed output: {ris.format_value(report.perturbed_output)}",
        f"impact: {ris.format_impact(report.impact)}",
    ]
    if report.notes:
        lines.extend(f"note: {note}" for note in report.notes)
    if top:
        lines.append("most changed internal nodes:")
        lines.extend(f"  node {i} {_describe_node(tree, i)}: {annotations[i]}" for i in top)
    text = "\n".join(lines) + "\n"
    return {
        "counterfactual.txt": text,
        "counterfactual.json": _json_text("counterfactual.json", report.to_json()),
        "counterfactual.dot": to_dot(tree, annotations),
    }


def cmd_simplify(args, cfg: dict) -> dict[str, str]:
    tree, variables = gpsr.model_from_document(_read_json(args.model))
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
    doc = {
        **gpsr.tree_document(simplified, variables),
        "simplified_from_size": tree.size,
        "pruned_node_ids": list(pruned),
        "threshold": threshold,
        "magnitude": magnitude,
    }
    return {
        "simplified_model.json": _json_text("simplified_model.json", doc),
        "simplified_tree.dot": to_dot(simplified),
    }


COMMON = ("--config", "--seed", "--out", "--stdout")
DATA = ("--csv", "--response", "--predictors", "--synth", "--n", "--noise")
# Each command, as {name: (function, help, its flags besides COMMON)}.
COMMANDS = {
    "gen": (cmd_gen, "write a synthetic dataset and its ground truth", ("--n", "--noise")),
    "fit": (cmd_fit, "evolve an expression tree for a response column", DATA),
    "ris": (cmd_ris, "quartile impact table for a fitted model", (*DATA, "--model", "--mode", "--magnitude")),
    "counterfactual": (cmd_counterfactual, "what-if analysis on a scenario", ("--model", "--at", "--set")),
    "simplify": (
        cmd_simplify, "prune inert subtrees of a fitted model", (*DATA, "--model", "--magnitude", "--threshold")
    ),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parse_args leaves a parser as it was,
    so each call can share it."""
    parser = _Parser(
        prog="ecd",
        description="Fit expression trees by evolutionary search and analyze them "
        "with perturbation-based impact stratification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, flags) in COMMANDS.items():
        command = sub.add_parser(name, help=text)
        for flag in (*COMMON, *flags):
            command.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s: %(message)s"
    )
    try:
        args = build_parser().parse_args(argv)
        cfg = _run_config(args)
        artifacts = COMMANDS[args.command][0](args, cfg)
        files = {}
        for name, text in artifacts.items():
            if "\0" in name or len(name.encode("utf-8")) > NAME_MAX:
                raise EcdError(f"{name!r}: a file name holds no NUL and at most {NAME_MAX} bytes in UTF-8")
            try:
                files[name] = text.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise EcdError(f"{name}: {exc}") from None
        out = Path(cfg[""].get("out", "."))
        out.mkdir(parents=True, exist_ok=True)
        for name, data in files.items():
            (out / name).write_bytes(data)
        log.info("wrote %d file(s) in %s: %s", len(files), out, ", ".join(files))
        primary = next(iter(artifacts.values()))
        if args.stdout:
            sys.stdout.write(primary)
        if args.command == "counterfactual":  # its short report is echoed once written
            sys.stderr.write(primary)
        return 0
    except EcdError as exc:
        log.error("%s", exc)
        return 1
    except FileNotFoundError as exc:
        log.error("file not found: %s", exc.filename or exc)
        return 1
    except (OSError, UnicodeError) as exc:
        log.error("%s", exc)
        return 1
    except json.JSONDecodeError as exc:
        log.error("invalid JSON: %s", exc)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())
