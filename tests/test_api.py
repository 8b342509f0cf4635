"""The package exports exactly the library API that README documents, and
every module attribute README names exists."""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import docqa_forge

ROOT = Path(__file__).resolve().parents[1]


def test_package_exports_are_the_readme_library_block():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"from docqa_forge import \(([^)]*)\)", readme)
    documented = {name.strip() for name in block.group(1).split(",") if name.strip()}
    init = ast.parse((ROOT / "src" / "docqa_forge" / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(documented) == 11
    assert exported == documented


def test_readme_module_references_resolve():
    readme = (ROOT / "README.md").read_text()
    modules = {info.name for info in pkgutil.iter_modules(docqa_forge.__path__)}
    # `module.attr` in backticks, and `from docqa_forge.module import a, b`
    named = {(module, attr) for module, attr in re.findall(r"`(\w+)\.(\w+)", readme)
             if module in modules}
    for module, attrs in re.findall(r"from docqa_forge\.(\w+) import ([\w, ]+)", readme):
        named |= {(module, attr.strip()) for attr in attrs.split(",") if attr.strip()}
    missing = [f"{module}.{attr}" for module, attr in sorted(named)
               if not hasattr(importlib.import_module(f"docqa_forge.{module}"), attr)]
    assert named and missing == []


def test_importing_the_package_and_cli_leaves_the_process_pool_out():
    # generate_corpus imports the pool only when more than one worker runs
    code = ("import sys, docqa_forge, docqa_forge.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
