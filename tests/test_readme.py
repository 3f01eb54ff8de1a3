"""The README and the top-level ecd namespace name the same things: every
ecd.<name> the README writes resolves, and every name ecd exports appears in
the README. The README's CLI walkthrough prints the report it shows."""

import re
import shlex
import types
from pathlib import Path

import ecd
from ecd.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_every_ecd_name_in_the_readme_resolves():
    dotted = sorted(set(re.findall(r"\becd((?:\.\w+)+)", README)))
    assert "ecd.dataio.load_csv" in {"ecd" + name for name in dotted}
    for name in dotted:
        target = ecd
        for part in name[1:].split("."):
            assert hasattr(target, part), f"README names ecd{name}, which does not resolve"
            target = getattr(target, part)


def test_every_name_ecd_exports_appears_in_the_readme():
    exported = sorted(
        name
        for name, value in vars(ecd).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert len(exported) == 17
    assert [name for name in exported if not re.search(rf"\b{name}\b", README)] == []


def fenced_blocks(heading):
    """(language, body) of each fenced block in the README section under heading."""
    section = README.split(f"\n### {heading}\n", 1)[1].split("\n#", 1)[0]
    return re.findall(r"```(\w*)\n(.*?)```", section, flags=re.S)


def test_cli_walkthrough_prints_the_sample_report(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for heading in ("gen", "fit", "counterfactual"):
        language, command = fenced_blocks(heading)[0]
        argv = shlex.split(command.replace("\\\n", " "))
        assert (language, argv[0]) == ("sh", "ecd")
        assert main(argv[1:]) == 0, command
    [(language, sample)] = fenced_blocks("counterfactual")[1:]
    assert language == ""
    assert (tmp_path / "cf" / "counterfactual.txt").read_text(encoding="utf-8") == sample
