"""The runtime depends on the standard library only, imports nothing it
does not use, and keeps the start-up of a CLI process cheap."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gridlab"


def test_runtime_imports_only_stdlib():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_runtime_has_no_unused_imports():
    # __init__.py imports only to re-export, and `from __future__ import
    # annotations` binds no name that the code reads
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{line}: {name}"
            for name, line in sorted(bound.items())
            if name not in read
        ]
    assert unused == []


def test_cli_import_loads_every_module_and_no_costly_stdlib():
    # `dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize`, which
    # every CLI process would pay for; `-S` keeps site-packages from
    # importing anything on its own.  `gridlab.cli` imports every gridlab
    # module on purpose: the benchmark's traced run takes the modules it
    # instruments from `sys.modules` right after `import gridlab.cli`.
    code = "import sys, gridlab.cli; print(*sorted(sys.modules), sep='\\n')"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(proc.stdout.split())
    assert {"dataclasses", "inspect", "typing"} & loaded == set()
    package = {"gridlab"} | {f"gridlab.{p.stem}" for p in SRC.glob("*.py") if p.stem != "__init__"}
    assert {name for name in loaded if name.split(".")[0] == "gridlab"} == package
