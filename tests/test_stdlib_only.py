"""The runtime depends on the standard library only, imports nothing it
does not use, and keeps the start-up of a CLI process cheap."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import gridlab
from gridlab.fields import GF, QQ
from gridlab.ring import MultiPoly

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
    # importing anything on its own.  Importing `gridlab` registers every
    # gridlab module in `sys.modules` (lazily: each runs on first use) on
    # purpose: the benchmark's traced run takes the modules it instruments
    # from `sys.modules` right after `import gridlab.cli`.
    code = "import sys, gridlab.cli; print(*sorted(sys.modules), sep='\\n')"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(proc.stdout.split())
    assert {"dataclasses", "inspect", "typing"} & loaded == set()
    package = {"gridlab"} | {f"gridlab.{p.stem}" for p in SRC.glob("*.py") if p.stem != "__init__"}
    assert {name for name in loaded if name.split(".")[0] == "gridlab"} == package


def run_child(code: str, *argv, cwd=None) -> str:
    """stdout of `code` in a fresh `python -S` process with gridlab on the path."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv],
        env=env, cwd=cwd, capture_output=True, text=True, check=True,
    )
    assert proc.stderr == ""
    return proc.stdout


# the gridlab modules a command's process executes, a lazily registered
# module being a plain ModuleType only once it has run, and then which of
# the rational-arithmetic modules it imported
EXECUTED = """
import contextlib, io, sys, types
import gridlab.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = gridlab.cli.main(sys.argv[1:])
ran = [n for n, m in sys.modules.items() if n.split(".")[0] == "gridlab" and type(m) is types.ModuleType]
print(code, *sorted(ran))
print(*[n for n in ("decimal", "fractions") if n in sys.modules])
"""

BASE = ("cli", "errors", "fields", "primefields", "projective", "ring")

# graph commands run no gcd and no sweep; algebra commands no graph, no
# chart enumeration or construction (`hypersurfaces`) and no sweep
NOT_RUN = {"construct": ("poly", "sweep"), "gridcheck": ("poly", "sweep"), "edges": ("poly", "sweep"),
           "s1": ("gridcheck", "hypersurfaces", "sweep"),
           "curves": ("gridcheck", "hypersurfaces", "sweep"),
           "cremona": ("gridcheck", "hypersurfaces", "sweep"), "sweep": ()}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    forms = {
        "s1.json": (QQ, ("x0", "x1", "y0", "y1"), "x0*y0 + x1*y1"),
        "s1_f7.json": (GF(7), ("x0", "x1", "y0", "y1"), "x0*y0 + x1*y1"),
        "s1_f25.json": (GF(5, 2), ("x0", "x1", "y0", "y1"), "x0*y0 + x1*y1"),
        "f.json": (QQ, ("x0", "x1", "x2"), "x1**2 - x0*x2"),
        "g.json": (QQ, ("x0", "x1", "x2"), "x1"),
        "f7.json": (GF(7), ("x0", "x1", "x2"), "x1**2 - x0*x2"),
        "g7.json": (GF(7), ("x0", "x1", "x2"), "x1"),
        "f25.json": (GF(5, 2), ("x0", "x1", "x2"), "x1**2 - x0*x2"),
        "g25.json": (GF(5, 2), ("x0", "x1", "x2"), "x1"),
    }
    for name, form in forms.items():
        (d / name).write_text(json.dumps(MultiPoly.parse(*form).to_json()))
    run_child(EXECUTED, "construct", "--family", "1a", "--p", "5", "--out", "h.json", cwd=d)
    run_child(EXECUTED, "construct", "--family", "1c", "--p", "5", "--s", "2", "--out", "h1c.json", cwd=d)
    return d


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["construct", "--family", "1a", "--p", "5"], ("hypersurfaces",)),
        # Q is `rationals`', and only a process over Q imports `fractions`
        (["s1", "classify", "--poly", "s1.json"], ("classify_s1", "poly", "rationals")),
        (["curves", "imult", "--f", "f.json", "--g", "g.json", "--point", "1:0:0"],
         ("curves", "poly", "rationals")),
        (["cremona", "apply", "--sigma", "quadratic", "--input", "h.json"], ("cremona", "poly")),
        (["gridcheck", "--input", "h.json", "--p", "5", "--s", "2", "--t", "2"],
         ("gridcheck", "hypersurfaces")),
        (["sweep", "--primes", "5"],
         ("classify_s1", "cremona", "extfields", "gridcheck", "hypersurfaces", "poly", "rationals",
          "sweep")),
        (["edges", "--input", "h.json", "--p", "5", "--s", "2", "--t", "2"],
         ("gridcheck", "hypersurfaces")),
        # over F_p the algebra commands run no extension field either; an
        # input over F_{5^2} and the 1c construction and graph do
        (["s1", "classify", "--poly", "s1_f7.json", "--t", "2"], ("classify_s1", "poly")),
        (["s1", "reduce", "--poly", "s1_f7.json"], ("classify_s1", "poly")),
        (["curves", "imult", "--f", "f7.json", "--g", "g7.json", "--point", "1:0:0"], ("curves", "poly")),
        (["curves", "imult", "--f", "f25.json", "--g", "g25.json", "--point", "1,0:0,0:0,0"],
         ("curves", "extfields", "poly")),
        (["construct", "--family", "1c", "--p", "5", "--s", "2"], ("extfields", "hypersurfaces")),
        (["gridcheck", "--input", "h1c.json", "--p", "5", "--s", "2", "--t", "3"],
         ("extfields", "gridcheck", "hypersurfaces")),
        (["edges", "--input", "h1c.json", "--p", "5", "--s", "2", "--t", "3"],
         ("extfields", "gridcheck", "hypersurfaces")),
        (["s1", "classify", "--poly", "s1_f25.json", "--t", "2"], ("classify_s1", "extfields", "poly")),
    ],
)
def test_each_command_executes_only_the_modules_it_runs(inputs, argv, extra):
    executed, imported = run_child(EXECUTED, *argv, cwd=inputs).split("\n")[:2]
    code, *ran = executed.split()
    assert code == "0"
    assert {f"gridlab.{m}" for m in NOT_RUN[argv[0]]} & set(ran) == set()
    assert ran == sorted(["gridlab"] + [f"gridlab.{m}" for m in BASE + extra])
    # `fractions` brings `decimal` along; over F_p and F_{p^s} neither loads
    assert imported.split() == (["decimal", "fractions"] if "rationals" in extra else [])


# gridlab's layers, lowest first; the modules of one tuple share a layer
LAYERS = (("errors",), ("primefields",), ("extfields", "rationals"), ("fields",), ("ring",),
          ("projective",), ("poly",), ("hypersurfaces",), ("gridcheck",),
          ("classify_s1", "curves", "cremona"), ("sweep",), ("cli",))
LAYER = {module: rank for rank, layer in enumerate(LAYERS) for module in layer}


def relative_imports(path: Path) -> set:
    """The gridlab modules that the module at `path` imports from."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out |= {node.module} if node.module else {alias.name for alias in node.names}
    return out


def name_imports(path: Path) -> set:
    """The gridlab modules that the module at `path` imports names from,
    by `from .<module> import <name>`."""
    return {node.module for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module}


def registration_order() -> list:
    """The modules that `gridlab/__init__.py` registers, in its order."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    loops = [node for node in ast.walk(tree)
             if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple)]
    assert len(loops) == 1
    return [elt.value for elt in loops[0].iter.elts]


def test_every_import_points_down_the_layers():
    imports = {path.stem: relative_imports(path) for path in SRC.glob("*.py")}
    assert imports.pop("__init__") == set()
    assert set(imports) == set(LAYER)
    upward = [f"{m} -> {d}" for m in sorted(imports) for d in sorted(imports[m])
              if LAYER[d] >= LAYER[m]]
    assert upward == []
    # the graph layers take the polynomial representation alone, no gcd
    assert "poly" not in imports["hypersurfaces"] | imports["gridcheck"]
    # the extension fields, Q, and the graph side of `hypersurfaces` below
    # the graph layers, are reached through the module (`from . import
    # extfields`), which runs on first use: by `fields` for s >= 2, on the
    # Q paths only, and by `cremona` in the sampled transport
    named = {path.stem: name_imports(path) for path in SRC.glob("*.py")}
    assert sorted(m for m in imports if "extfields" in imports[m]) == ["fields", "sweep"]
    assert "extfields" not in named["fields"] | named["sweep"]
    assert sorted(m for m in imports if "rationals" in imports[m]) == [
        "classify_s1", "fields", "poly", "sweep"]
    assert [m for m in named if "rationals" in named[m]] == []
    assert sorted(m for m in imports if "hypersurfaces" in imports[m]) == [
        "cli", "cremona", "gridcheck", "sweep"]
    assert "hypersurfaces" not in named["cremona"]
    # importer first, as the comment in __init__.py says: every module is
    # registered before each module it imports from
    order = registration_order()
    assert sorted(order) == sorted(set(LAYER) - {"cli"})
    late = [f"{m} -> {d}" for m in order for d in sorted(imports[m])
            if order.index(d) < order.index(m)]
    assert late == []


def test_every_function_is_called_in_src():
    """Each function and method that gridlab defines, dunders aside, is
    named in gridlab outside its own body, so no code exists only for the
    tests.  The export table's strings do not count.  Names are matched,
    not bindings: a name that several definitions share, such as `dim`
    (OpenSet's attribute and, once, ProjPoint's property), is caught only
    when none of them is used."""
    defined, named, own = {}, Counter(), Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                named[node.id if isinstance(node, ast.Name) else node.attr] += 1
            elif isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
                own[node.name] += sum(
                    isinstance(inner, ast.Name) and inner.id == node.name
                    or isinstance(inner, ast.Attribute) and inner.attr == node.name
                    for inner in ast.walk(node)
                )
    assert sorted(f"{where} {name}" for name, where in defined.items()
                  if named[name] == own[name]) == []


def cross_module_functions() -> list:
    """(module, name) of each name a gridlab module imports from another."""
    out = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                out |= {(f"gridlab.{node.module}", alias.name) for alias in node.names}
    return sorted(out)


# what a tracer does after `import gridlab.cli`: wrap each function in
# every gridlab module bound to it, in sys.modules order, loading each
# module as it is reached; then restore the recorded bindings
WRAP_AND_RESTORE = """
import functools, json, sys, types
import gridlab.cli
modules = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "gridlab"}
patches, wrappers = [], set()
for module, attr in json.loads(sys.argv[1]):
    original = getattr(modules[module], attr)
    if not isinstance(original, types.FunctionType):
        continue
    wrapped = functools.wraps(original)(lambda *a, fn=original, **k: fn(*a, **k))
    wrappers.add(id(wrapped))
    for mod in modules.values():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)
                patches.append((mod, key, original))
for mod, key, original in reversed(patches):
    setattr(mod, key, original)
print(json.dumps([f"{n}.{k}" for n, m in modules.items() for k, v in vars(m).items()
                  if id(v) in wrappers]))
"""


def test_wrapping_in_module_order_leaves_no_wrapper_behind():
    # modules are registered importer first, so each importer runs, and
    # binds the originals, before the functions it imports are wrapped
    targets = cross_module_functions()
    assert {("gridlab.poly", "gcd"), ("gridlab.ring", "bihomogenize")} <= set(targets)
    assert json.loads(run_child(WRAP_AND_RESTORE, json.dumps(targets))) == []


# the public names of the package, by defining module
EXPORTS = {
    "fields": ["GF", "QQ"],
    "extfields": ["canonical_modulus", "norm", "pi_s"],
    "ring": ["BiHomPoly", "MultiPoly", "bihomogenize"],
    "projective": ["Hypersurface", "OpenSet", "ProjPoint"],
    "poly": ["exact_div", "gcd", "squarefree_part"],
    "hypersurfaces": ["construct", "norm_poly"],
    "gridcheck": ["BipartiteGraph", "build_graph", "edge_report", "find_grid",
                  "max_common_neighborhood"],
    "curves": ["PlaneCurve", "common_component_rank_test", "conic_classify",
               "intersection_multiplicity", "moura_max"],
    "classify_s1": ["s1_classify", "s1_reduce"],
    "cremona": ["RationalMap", "apply_map", "example_line_map", "grid_transport_check", "nagata",
                "standard_quadratic"],
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_public_names_resolve_to_the_defining_module(module, name):
    defining = sys.modules[f"gridlab.{module}"]
    assert getattr(gridlab, name) is getattr(defining, name)


def test_unknown_package_name_is_an_attribute_error():
    with pytest.raises(AttributeError):
        gridlab.no_such_name


def test_fields_names_q_of_the_rationals_module():
    # `fields.QQ` resolves on access, so running `fields` runs no `rationals`
    assert gridlab.fields.QQ is gridlab.rationals.QQ
    with pytest.raises(AttributeError):
        gridlab.fields.no_such_name
