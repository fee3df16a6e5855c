"""Every public function or class of the library has a caller in the
library or is listed as API in the README's "Python API" section, and every
private module-level function has a caller in the library."""
from __future__ import annotations

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tfreud"
README = ROOT / "README.md"


def referenced(node) -> collections.Counter:
    """How often each name is read, as a name, an attribute or an import."""
    out = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name] += 1
    return out


def readme_api_names() -> set:
    text = README.read_text()
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    spans = re.findall(r"(?<!`)`([^`]+)`(?!`)", section)
    return {word for span in spans for word in re.findall(r"[A-Za-z_]\w*", span)}


def test_every_public_name_has_a_caller_or_is_listed():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = sum((referenced(tree) for tree in trees.values()), collections.Counter())
    listed = readme_api_names()
    orphans = [f"{fname}:{node.name}"
               for fname, tree in trees.items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and uses[node.name] <= referenced(node)[node.name]
               and (isinstance(node, ast.FunctionDef) if node.name.startswith("_")
                    else node.name not in listed)]
    assert orphans == []
