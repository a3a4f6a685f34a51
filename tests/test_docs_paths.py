"""Every repo path the docs name — alone or inside a command — must exist."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md")
PATH = re.compile(
    r"(?<![\w./-])((?:benchmarks|examples|src|tests)/[\w./-]*\w|BENCH\w*\.json)"
)


@pytest.mark.parametrize("doc", DOCS)
def test_named_paths_exist(doc):
    named = set(PATH.findall((ROOT / doc).read_text()))
    assert named, f"{doc} names no repo path: the pattern has rotted"
    missing = sorted(p for p in named if not (ROOT / p).exists())
    assert not missing, f"{doc} names paths that do not exist: {missing}"
