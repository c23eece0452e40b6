"""Modules depend on each other in one direction only.

Reads the imports of every module in src/psdalign with ast, so the rules hold
for code paths no other test happens to import.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "psdalign"

# the lower layers: numerics that know nothing of the simulator or the CLI
LOWER = ("fading", "pilots", "quadrature", "estimation", "toeplitz")


def psdalign_imports(path):
    """Names of the psdalign modules one source file imports ("__init__" for the package)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "psdalign":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "psdalign":
                continue
            inner = parts[1:] if node.level == 0 else [p for p in parts if p]
            if inner:
                found.add(inner[0])
            else:  # from . import x / from psdalign import x
                found.update(alias.name for alias in node.names)
    return found


IMPORTS = {path.stem: psdalign_imports(path) for path in sorted(PACKAGE.glob("*.py"))}


def test_every_layer_is_scanned():
    assert {"config", "cli", "simkit", *LOWER} <= set(IMPORTS)


def test_config_imports_no_psdalign_module():
    assert IMPORTS["config"] == set()


def test_toeplitz_imports_no_psdalign_module():
    assert IMPORTS["toeplitz"] == set()


@pytest.mark.parametrize("module", LOWER)
def test_lower_layers_import_neither_simkit_nor_cli(module):
    assert not IMPORTS[module] & {"simkit", "cli", "__init__"}


def test_nothing_imports_cli():
    importers = sorted(name for name, imports in IMPORTS.items() if "cli" in imports and name != "cli")
    assert importers == []


def test_scanner_reads_relative_and_absolute_imports(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "from . import estimation, pilots\n"
        "from .config import ConfigError\n"
        "from psdalign.simkit import run_experiment\n"
        "import psdalign.cli\n"
        "import numpy as np\n"
    )
    assert psdalign_imports(source) == {"estimation", "pilots", "config", "simkit", "cli"}
