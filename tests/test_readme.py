"""The README and the top-level ecd namespace name the same things: every
ecd.<name> the README writes resolves, and every name ecd exports appears in
the README."""

import re
import types
from pathlib import Path

import ecd

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
