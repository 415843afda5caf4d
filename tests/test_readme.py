"""README's "Library API" section against the package's exports."""

import re
from pathlib import Path

import psne_learn

README = Path(__file__).resolve().parent.parent / "README.md"


def library_api_names():
    """The first backquoted name of each bullet in the section, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\* `([^`]+)`", section, flags=re.MULTILINE)


def test_library_api_names_each_export_once():
    names = library_api_names()
    assert len(names) == len(set(names)), "a name is listed twice"
    assert sorted(names) == sorted(psne_learn.__all__)
