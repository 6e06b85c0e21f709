"""Source hygiene: no module imports a name it never uses or another
module's private ``_name``, and none imports ``scipy.ndimage`` (box
filters go through ``gridcore.box_any``).
Start-up: ``import roughgg`` loads no scipy, each CLI subcommand loads
only the scipy and package modules it calls, ``solve-div`` refuses bad
data before scipy loads, and the lazy package exports stay complete."""

import ast
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import roughgg

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "roughgg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # quoted annotations name types too
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def _ndimage_imports(tree: ast.Module) -> list[int]:
    """Lines importing ``scipy.ndimage``, at module level or in a function."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == "scipy.ndimage" or name.startswith("scipy.ndimage.")
               for name in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_ndimage_import(path):
    assert _ndimage_imports(ast.parse(path.read_text())) == []


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level ``_name`` functions, classes and constants."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                out[name] = node.lineno
    return out


def _references(tree: ast.Module) -> set[str]:
    """Names read, attributes read and names imported anywhere in a module."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used |= {alias.name for alias in node.names}
    return used


def test_no_unused_private_definitions():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    used = set().union(*(_references(tree) for tree in trees.values()))
    orphans = [f"{module}:{line} {name}"
               for module, tree in trees.items()
               for name, line in _private_definitions(tree).items()
               if name not in used]
    assert orphans == []


def _private_imports(tree: ast.Module) -> list[str]:
    """``_name`` imported from a sibling module, or read as an attribute of
    one (``from . import io as rio; rio._name``)."""
    out, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level >= 1:
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    out.append(f"{node.lineno} {node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            out.append(f"{node.lineno} {node.value.id}.{node.attr}")
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_cross_module_private_imports(path):
    # a helper two modules share is public in the module that owns it
    assert _private_imports(ast.parse(path.read_text())) == []


# ---------------------------------------------------------------------------
# start-up: which scipy and package modules each process loads
# ---------------------------------------------------------------------------

SCIPY_PARTS = ("scipy.fft", "scipy.sparse", "scipy.spatial")

# runs one CLI command in-process and prints, as its last line, the exit
# code, the scipy modules loaded and the roughgg submodules loaded
PROBE = """
import json, sys
from roughgg.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "scipy": sorted(
    k for k in sys.modules if k == "scipy" or k.startswith("scipy.")),
    "roughgg": sorted(k.split(".", 1)[1] for k in sys.modules
                      if k.startswith("roughgg."))}))
"""


def _fresh_python(args, cwd=None) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=cwd, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _cli_scipy(tmp_path, *argv) -> set[str]:
    """The scipy parts (``SCIPY_PARTS``) that one CLI command loads."""
    out = _fresh_python(["-c", PROBE, *argv], cwd=tmp_path)
    assert out["code"] == 0
    return {part for part in SCIPY_PARTS if part in out["scipy"]}


@pytest.mark.parametrize("module", ["roughgg", "roughgg.cli"])
def test_import_loads_no_scipy(module):
    out = _fresh_python(["-c", f"import json, sys, {module}; "
                               "print(json.dumps('scipy' in sys.modules))"])
    assert out is False


SLIT = ["--preset", "slit-square", "--grid", "16"]
# subcommands that sample no field: no dmfield, no one-sided mollifier
FIELDLESS = {"--help", "classify", "perimeter", "approx", "gallery"}


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["classify", *SLIT, "--png", "cls.pgm"],
    ["perimeter", *SLIT],
    ["approx", *SLIT, "--png", "approx.pgm"],
    ["approx", "--preset", "slit-square", "--grid", "32", "--sweep", "0.5,0.375,0.25"],
    ["trace", *SLIT, "--csv", "tr.csv"],
    ["gg-check", *SLIT],
    ["gallery", "--out-dir", "gallery"],
], ids=lambda argv: argv[0] + ("-sweep" if "--sweep" in argv else ""))
def test_subcommand_loads_no_scipy(tmp_path, argv):
    out = _fresh_python(["-c", PROBE, *argv], cwd=tmp_path)
    assert (out["code"], out["scipy"]) == (0, [])
    if argv[0] in FIELDLESS:
        assert not {"dmfield", "onesided"} & set(out["roughgg"])


def _refused_csv(path, value=None) -> None:
    """A slit-square 1/16 trace CSV of unit outward density on every
    side (net flux 12: the square's perimeter and both slit sides), or,
    given ``value``, with its first density replaced by that text."""
    from roughgg.dmfield import TraceData
    from roughgg.domain import preset_set
    from roughgg.io import trace_csv_text

    set_ = preset_set("slit-square", 1.0 / 16.0, margin_cells=4)
    td = TraceData(set_).fill(lambda X, nu: np.ones(X.shape[:-1]))
    lines = trace_csv_text(td.side_weights, set_.grid).splitlines()
    if value is not None:
        lines[1] = lines[1].rsplit(",", 1)[0] + "," + value
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("value,mode,code", [
    (None, "direct", 3), (None, "decomposed", 3),
    ("nan", "direct", 2), ("-1e200", "decomposed", 2),
], ids=["unbalanced-direct", "unbalanced-decomposed", "nan", "huge"])
def test_solve_div_refuses_before_scipy_loads(tmp_path, value, mode, code):
    _refused_csv(tmp_path / "bad.csv", value)
    out = _fresh_python(["-c", PROBE, "solve-div", *SLIT, "--trace", "bad.csv",
                         "--mode", mode], cwd=tmp_path)
    assert (out["code"], out["scipy"]) == (code, [])
    assert "divsolve" not in out["roughgg"]


def test_solve_div_loads_only_sparse(tmp_path):
    _cli_scipy(tmp_path, "trace", *SLIT, "--csv", "tr.csv")
    assert _cli_scipy(tmp_path, "solve-div", *SLIT, "--trace", "tr.csv") == {"scipy.sparse"}


def test_accept_geometry_oracles_load_only_sparse(tmp_path):
    # criterion 11's Ahlfors count walks the cover's stencil, not a k-d tree
    assert _cli_scipy(tmp_path, "accept", "--only", "11") == {"scipy.sparse"}


def _scipy_imports(nodes) -> list[str]:
    names = []
    for node in nodes:
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] == "scipy"]


def test_module_level_scipy_imports():
    """Only ``divsolve`` (the sparse solve) imports scipy at module level;
    every other use imports it where it runs."""
    found = {p.name: _scipy_imports(ast.parse(p.read_text()).body)
             for p in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {
        "divsolve.py": ["scipy.sparse", "scipy.sparse.linalg"],
    }


def test_scipy_imports_anywhere():
    """Only ``divsolve`` imports scipy, anywhere: nothing imports
    ``scipy.fft`` or ``scipy.spatial``."""
    found = {p.name: _scipy_imports(ast.walk(ast.parse(p.read_text())))
             for p in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {
        "divsolve.py": ["scipy.sparse", "scipy.sparse.linalg"],
    }


def test_cli_imports_heavy_modules_in_their_commands():
    """At module level ``cli`` imports what its parser needs; each
    subcommand imports the package modules it runs."""
    tree = ast.parse((SRC / "cli.py").read_text())
    top = {node.module for node in tree.body
           if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert top == {"_util", "domain", "errors"}
    inside = {node.name: {n.module for n in ast.walk(node)
                          if isinstance(n, ast.ImportFrom) and n.level == 1}
              for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert {name: modules for name, modules in inside.items() if modules} == {
        "_build_field": {"dmfield", "fields"},
        "cmd_classify": {"io", "measure"},
        "cmd_perimeter": {"measure"},
        "cmd_approx": {"approx", "io"},
        "cmd_trace": {"dmfield", "io"},
        "cmd_gg_check": {"dmfield"},
        "cmd_solve_div": {"dmfield", "io", "divsolve"},
        "cmd_accept": {"accept"},
    }


# ---------------------------------------------------------------------------
# the package's lazy exports
# ---------------------------------------------------------------------------

EXPORTS = {
    "approx": ["ApproxReport", "BallCover", "approximation_sweep",
               "cantor_generation_sweep", "interior_approximation"],
    "divsolve": ["SolveReport", "solve_decomposed", "solve_direct", "verify_solution"],
    "dmfield": ["FluxField", "SignedMeasure", "TestFunction", "TraceData",
                "TraceMeasure", "default_phi_basis", "divergence_measure",
                "extend_by_zero", "extension_bound_check", "gauss_green_residual",
                "interior_normal_trace", "is_compatible", "mollify_field",
                "normal_trace_pairing",
                "product_rule_check", "sample_field",
                "trace_linfinity_check", "trace_measure", "trace_weak_convergence"],
    "domain": ["DomainSpec", "RoughSet", "make_grid", "parse_domain", "preset_set",
               "preset_spec", "rasterize"],
    "errors": ["CompatibilityError", "CrackPlacementError", "DomainSemanticError",
               "DomainSyntaxError", "GridTooCoarseError", "InputError",
               "InvariantViolation", "RoughGGError"],
    "gridcore": ["MINUS", "PLUS", "FacetArrays", "Grid"],
    "measure": ["BoundaryDecomposition", "Classification",
                "ahlfors_constant", "boundary_decomposition", "classify", "density",
                "perimeter", "star_condition_diagnostic"],
    "mollify": ["MollifierKernel"],
}
EXPORTED = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_exports_are_pinned():
    assert len(EXPORTED) == 56
    assert sorted(roughgg.__all__) == sorted(name for _, name in EXPORTED)


# every file that may use an export: the package's modules, the demos and
# the benchmark harness (tests do not count)
USERS = MODULES + sorted((SRC.parents[1] / "demos").glob("*.py")) + sorted(
    (SRC.parents[1] / "perfbench").glob("*.py"))


def _uses(tree: ast.Module) -> set[str]:
    """``_references`` outside type annotations, plus the parts of the
    string constants that are dotted paths such as ``"Class.method"``
    (``perfbench`` rebinds its timed functions by name)."""
    nodes = list(ast.walk(tree))
    for node in nodes:
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            node.annotation = None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            node.returns = None
    return _references(tree) | _dotted_parts(nodes)


def _dotted_parts(nodes) -> set[str]:
    """The parts of the string constants among ``nodes`` that are dotted
    paths such as ``"Class.method"``."""
    strings = [node.value for node in nodes
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    return set().union(*(s.split(".") for s in strings
                         if re.fullmatch(r"[A-Za-z_]\w*(\.\w+)+", s)))


@pytest.fixture(scope="module")
def used_outside_tests() -> set[str]:
    return set().union(*(_uses(ast.parse(p.read_text())) for p in USERS))


@pytest.mark.parametrize("module,name", EXPORTED, ids=[n for _, n in EXPORTED])
def test_export_has_a_user_outside_the_tests(module, name, used_outside_tests):
    """Public API that only the tests reach is deleted, not exported; a
    definition or the ``__init__`` table does not count as a use."""
    assert name in used_outside_tests


def test_no_public_definition_only_tests_use():
    """A public module-level function or class must be read, as a name, an
    attribute or an imported name, somewhere in the package, the demos or
    the benchmark harness other than its own definition: what only the
    tests reach is deleted."""
    bodies = {p: ast.parse(p.read_text()).body for p in USERS}
    refs = [(p, i, _references(node)) for p, body in bodies.items() for i, node in enumerate(body)]
    orphans = [f"{path.name}:{node.lineno} {node.name}"
               for path in MODULES for i, node in enumerate(bodies[path])
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")
               and not any(node.name in used for p, j, used in refs if (p, j) != (path, i))]
    assert orphans == []


def test_no_public_method_only_tests_use():
    """A public method or property of a public class must be read as an
    attribute, or named in a dotted-path string, somewhere in the package,
    the demos or the benchmark harness: what only the tests reach is
    deleted."""
    trees = {p: ast.parse(p.read_text()) for p in USERS}
    read = set()
    for tree in trees.values():
        nodes = list(ast.walk(tree))
        read |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        read |= _dotted_parts(nodes)
    orphans = [f"{path.name}:{item.lineno} {node.name}.{item.name}"
               for path in MODULES for node in trees[path].body
               if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
               for item in node.body
               if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
               and item.name not in read]
    assert orphans == []


@pytest.mark.parametrize("module,name", EXPORTED, ids=[n for _, n in EXPORTED])
def test_export_is_the_module_object(module, name):
    exec_ns = {}
    exec(f"from roughgg import {name}", exec_ns)
    assert exec_ns[name] is getattr(importlib.import_module(f"roughgg.{module}"), name)


def test_trace_measure_is_trace_data():
    assert roughgg.TraceMeasure is roughgg.TraceData


def test_dir_lists_every_export():
    assert set(roughgg.__all__) <= set(dir(roughgg))


def test_star_import_binds_all():
    exec_ns = {}
    exec("from roughgg import *", exec_ns)
    assert set(exec_ns) - {"__builtins__"} == set(roughgg.__all__)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        roughgg.no_such_name
