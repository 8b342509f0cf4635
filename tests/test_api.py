"""The package exports exactly the library API that README documents."""

from __future__ import annotations

import ast
import re
from pathlib import Path

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
