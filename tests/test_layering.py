"""Modules depend on each other in one direction only.

Reads the imports of every module in src/psdalign with ast, so the rules hold
for code paths no other test happens to import.
"""

import ast
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "psdalign"

# the lower layers: numerics that know nothing of the simulator or the CLI
LOWER = ("fading", "pilots", "quadrature", "estimation", "toeplitz", "nufft")


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
    assert {"config", "cli", "checks", "simkit", *LOWER} <= set(IMPORTS)


def test_config_imports_no_psdalign_module():
    assert IMPORTS["config"] == set()


def test_toeplitz_imports_no_psdalign_module():
    assert IMPORTS["toeplitz"] == set()


def test_nufft_imports_no_psdalign_module():
    assert IMPORTS["nufft"] == set()


@pytest.mark.parametrize("module", LOWER)
def test_lower_layers_import_neither_simkit_nor_cli(module):
    assert not IMPORTS[module] & {"simkit", "cli", "__init__"}


def test_nothing_imports_cli():
    importers = sorted(name for name, imports in IMPORTS.items() if "cli" in imports and name != "cli")
    assert importers == []


def test_only_cli_imports_checks():
    # the package import (and so the planning cold start) never loads the registry
    importers = sorted(name for name, imports in IMPORTS.items() if "checks" in imports and name != "checks")
    assert importers == ["cli"]
    assert "cli" not in IMPORTS["checks"]


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


def unused_imports(path):
    """Names one source file imports and never reads, except those marked `# noqa: F401`."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[node.lineno - 1] + lines[alias.lineno - 1]:
                    imported.add(alias.asname or alias.name.split(".")[0])
    # an attribute chain such as np.fft.fft starts at the Name np
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


@pytest.mark.parametrize("module", sorted(set(IMPORTS) - {"__init__"}))
def test_every_import_is_used(module):
    # a name kept only so that the benchmark tracer can patch it is still
    # unused here; mark it `# noqa: F401` with the reason
    assert unused_imports(PACKAGE / f"{module}.py") == []


def test_unused_import_scanner(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "import os.path\n"
        "import numpy as np\n"
        "from scipy.linalg import cho_factor, cho_solve, circulant\n"
        "from .config import ExperimentConfig  # noqa: F401  (re-exported)\n"
        "from .fading import (\n"
        "    build_covariance,  # noqa: F401  (patched by the tracer)\n"
        "    complex_normal,\n"
        ")\n"
        "x = np.zeros(1)\n"
        "join = os.path.join\n"
        "def solve(a):\n"
        "    return cho_solve(a, a)\n"
    )
    assert unused_imports(source) == ["cho_factor", "circulant", "complex_normal"]


def load_tracer():
    """perfbench/tracing.py, loaded by path (perfbench is not a package)."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()


@pytest.mark.parametrize(
    "module, path",
    [entry[:2] for entry in TRACER.BOUNDARIES + TRACER.COUNTED_ONLY],
    ids=lambda v: v,
)
def test_benchmark_tracer_names_resolve(module, path):
    # the tracer replaces owner.__dict__[attr]: a name renamed or deleted here
    # makes every traced benchmark run raise KeyError
    owner, attr = TRACER._resolve(module, path)
    assert attr in owner.__dict__
