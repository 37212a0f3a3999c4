"""Source hygiene: every import in the library modules is used and sits at
module level, every random draw goes through one stream, every holding time
through one rule, only the S operator knows how S is stored, only
density.py how B and S are stored and which private scipy module multiplies
S, and the characteristics read the monotone maps through their public
interface."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pdmpfrag"


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


# __init__.py imports to re-export, so its names are used by definition
@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "__init__.py"))
def test_every_import_is_used(module):
    assert _unused_imports(SRC / module) == []


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_imports_at_module_level(module):
    # no import hides in a function body: none is needed to break a cycle
    tree = ast.parse((SRC / module).read_text())
    found = sorted(f"line {inner.lineno}" for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for inner in ast.walk(node)
                   if isinstance(inner, (ast.Import, ast.ImportFrom)))
    assert found == []


def test_one_draw_path():
    # Philox streams are built by path_rng alone; everything else draws from
    # the stateless simulate._uniforms
    tree = ast.parse((SRC / "simulate.py").read_text())
    ref = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name == "path_rng")
    found = []
    for path in sorted(SRC.glob("*.py")):
        for n, line in enumerate(path.read_text().splitlines(), 1):
            if "Philox(" in line or "Generator(" in line:
                inside = (path.name == "simulate.py"
                          and ref.lineno <= n <= ref.end_lineno)
                if not inside:
                    found.append(f"{path.name}:{n}")
    assert found == []


def test_one_holding_rule():
    # the jump step reads holding times and pre-jump states from
    # characteristics._holding; simulate.py touches no G/Q map or regime
    tree = ast.parse((SRC / "simulate.py").read_text())
    banned = {"Q", "G", "limit_zero", "limit_inf", "Regime"}
    found = sorted(f"{name} (line {node.lineno})" for node in ast.walk(tree)
                   for name in (getattr(node, "attr", None),
                                getattr(node, "id", None),
                                getattr(node, "name", None))
                   if name in banned)
    assert found == []


def test_dyson_phillips_reads_no_S_storage():
    # dyson_phillips goes through _SOperator.add: it neither reads S's
    # arrays nor branches on how S is stored
    tree = ast.parse((SRC / "density.py").read_text())
    fn = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == "dyson_phillips")
    found = sorted(f"{node.attr} (line {node.lineno})" for node in ast.walk(fn)
                   if isinstance(node, ast.Attribute)
                   and node.attr in {"factor", "mats", "sub_row", "sup_row"})
    assert found == []


def test_only_density_reads_operator_storage():
    # other modules reach B and S through the operators' methods, so a
    # change to how either is stored stays inside density.py
    found = sorted(f"{path.name}: {node.attr} (line {node.lineno})"
                   for path in SRC.glob("*.py") if path.name != "density.py"
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Attribute)
                   and node.attr in {"frac", "sub_row", "factor", "mats"})
    assert found == []


def test_only_density_imports_private_scipy():
    # the transport product calls scipy.sparse._sparsetools directly; one
    # file holds that import, so a scipy release that moves the private
    # module breaks density.py alone, and this names it
    found = sorted(
        str(path.relative_to(ROOT))
        for folder in ("src", "tests", "perfbench")
        for path in (ROOT / folder).rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        for alias in getattr(node, "names", ())
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and "_sparsetools" in f"{getattr(node, 'module', '')}.{alias.name}")
    assert found == ["src/pdmpfrag/density.py"]


def test_characteristics_reads_no_private_map_state():
    # the divergence flags and the holding rule read a monotone map only
    # through its public interface: values, inverse, direction and limits
    tree = ast.parse((SRC / "characteristics.py").read_text())
    found = sorted(f"{node.attr} (line {node.lineno})" for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and node.attr.startswith("_"))
    assert found == []
