"""The package's only runtime dependency is numpy: every module under
``src/amsim`` imports numpy, the standard library and amsim itself, nothing else."""
import ast
import sys
from pathlib import Path

import amsim

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "amsim"}


def imported_roots(path: Path) -> set:
    """Top-level names of the absolute imports in one module; a relative one is amsim."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            roots.add("amsim" if node.level else node.module.split(".")[0])
    return roots


def test_modules_import_only_numpy_stdlib_and_amsim():
    outside = {path.name: sorted(imported_roots(path) - ALLOWED)
               for path in Path(amsim.__file__).parent.rglob("*.py")}
    assert "scenario.py" in outside  # the walk found the package's modules
    assert {name: roots for name, roots in outside.items() if roots} == {}


def test_a_third_party_import_is_caught(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("import os\nfrom . import spatial\nimport scipy.linalg\n"
                      "from numpy import linalg\n")
    assert imported_roots(module) - ALLOWED == {"scipy"}
