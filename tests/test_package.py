"""Tests for the package as a whole: what its modules may import."""

import ast
import re
import sys
from pathlib import Path

import hybridrank

PACKAGE_DIR = Path(hybridrank.__file__).parent
PYPROJECT = PACKAGE_DIR.parent.parent / "pyproject.toml"


def _declared_dependencies() -> set[str]:
    """Distribution names in pyproject.toml's ``[project] dependencies``."""
    text = PYPROJECT.read_text(encoding="utf-8")
    listed = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S).group(1)
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group(0)
            for spec in re.findall(r'"([^"]+)"', listed)}


def test_modules_import_only_stdlib_numpy_and_the_package():
    # the package is numpy-only: numpy is its one declared dependency, and no
    # module imports anything else from outside the standard library
    assert _declared_dependencies() == {"numpy"}
    allowed = set(sys.stdlib_module_names) | {"numpy", "hybridrank"}
    outside = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {n}" for n in names
                        if n.split(".")[0] not in allowed]
    assert outside == []


def test_only_the_tokenizer_module_calls_tokenize():
    # corpus.py owns how text becomes token ids, truncation lengths included;
    # synthetic.py hashes single words, which no length can cut
    callers = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "tokenize":
                    callers.add(path.name)
    assert callers == {"corpus.py", "synthetic.py"}
