"""Source hygiene: every import in the library modules is used and sits at
module level, every random draw goes through one stream, every holding time
and pre-jump position through one rule, only the S operator knows how S is
stored, only density.py how B and S are stored and which private scipy
module multiplies S, through one size-checked call, the characteristics
read the monotone maps through their public interface, the CLI reads its
config through one schema reader, the chains run serially, on one driver,
the f_lambda estimators read one Laplace table, the power-family oracles
one gamma tail, every count is checked by one rule, and the package exports
exactly the public names it imports."""

import ast
from pathlib import Path

import pytest

import pdmpfrag

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
    # the embedded chain's pre-jump positions come from the same rule: its
    # kernel neither inverts Q itself nor integrates by endpoint_integral
    tree = ast.parse((SRC / "diagnose.py").read_text())
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef)
               and node.name == "EmbeddedKernel")
    names = [(getattr(node, "attr", None) or getattr(node, "id", None),
              node.lineno) for node in ast.walk(cls)
             if isinstance(node, (ast.Attribute, ast.Name))]
    assert sorted(f"{name} (line {line})" for name, line in names
                  if name in {"inverse", "endpoint_integral"}) == []
    assert "_holding" in {name for name, _ in names}


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


def test_one_array_per_dyson_level():
    # S adds into one output array whose last two columns are the super-
    # and sub-grid buckets, and a Dyson-Phillips level is such an array:
    # no bucket arguments, no work array, no bucket stacks or accumulators
    tree = ast.parse((SRC / "density.py").read_text())
    fns = {node.name: node for node in ast.walk(tree)
           if isinstance(node, ast.FunctionDef)}
    assert [a.arg for a in fns["add"].args.args] == [
        "self", "r", "masses", "out"]
    assert [a.arg for a in fns["convolve"].args.args] == ["self", "wm", "out"]
    found = sorted(f"{name}: {node.id} (line {node.lineno})"
                   for name in ("convolve", "dyson_phillips")
                   for node in ast.walk(fns[name])
                   if isinstance(node, ast.Name)
                   and node.id in {"sub", "sup", "acc_sub", "acc_sup", "work"})
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


def test_one_entry_into_the_sparse_kernel():
    # the compiled csc_matvecs checks no sizes and writes wherever its
    # output points, offset slices too: one helper calls it, after checking
    # both sizes, and S's add and convolve reach it only through that helper
    calls = sorted(
        str(path.relative_to(ROOT))
        for folder in ("src", "tests", "perfbench")
        for path in (ROOT / folder).rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "csc_matvecs")
    assert calls == ["src/pdmpfrag/density.py"]
    assert _callers("csc_matvecs") == ["density.py: _matvecs"]
    assert _callers("_matvecs") == ["density.py: _product",
                                    "density.py: convolve"]


def test_characteristics_reads_no_private_map_state():
    # the divergence flags and the holding rule read a monotone map only
    # through its public interface: values, inverse, direction and limits
    tree = ast.parse((SRC / "characteristics.py").read_text())
    found = sorted(f"{node.attr} (line {node.lineno})" for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and node.attr.startswith("_"))
    assert found == []


def test_only_section_reads_config():
    # every config key and default sits in cli's schema tables and is read
    # by _section; besides it, only run's read of the action calls .get
    tree = ast.parse((SRC / "cli.py").read_text())
    reader = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                  and node.name == "_section")
    inside = {id(node) for node in ast.walk(reader)}
    found = sorted(ast.unparse(node) for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "get" and id(node) not in inside)
    assert found == ["cfg.get('action')"]


def test_one_serial_chain_engine():
    # chains run serially: no module starts threads or processes, and
    # ``workers`` survives only as an ignored keyword of the three calls
    # that callers still pass it to
    pools = {"concurrent", "threading", "multiprocessing"}
    imports, params, loads = [], [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imports += [f"{path.name}: {a.name}" for a in node.names
                            if a.name.split(".")[0] in pools]
            elif isinstance(node, ast.ImportFrom) and node.module and \
                    node.module.split(".")[0] in pools:
                imports.append(f"{path.name}: {node.module}")
            elif isinstance(node, ast.FunctionDef):
                args = node.args.args + node.args.kwonlyargs
                params += [node.name for a in args if a.arg == "workers"]
            elif isinstance(node, ast.Name) and node.id == "workers" or \
                    isinstance(node, ast.keyword) and node.arg == "workers":
                loads.append(f"{path.name}: line {node.lineno}")
    assert imports == []
    assert sorted(params) == ["classify", "estimate_explosion_cdf",
                              "run_chains"]
    assert loads == []



def _callers(name):
    """'module: function' of every call to ``name`` in the library."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        fns = [node for node in ast.walk(tree)  # outer before inner
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and name in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                owner = [fn.name for fn in fns
                         if fn.lineno <= node.lineno <= fn.end_lineno]
                found.append(f"{path.name}: {(owner or ['<module>'])[-1]}")
    return sorted(found)


def test_one_chain_driver():
    # the jump step has one caller, the block driver, and the driver one
    # entry, behind run_chains, sample_state and simulate_chain, so no
    # second driver loop with its own refills and stop rules comes back, and
    # the three views share one start-state check and one loop over blocks
    assert _callers("_jump") == ["simulate.py: _run_block"]
    assert _callers("_run_block") == ["simulate.py: _run_batch"]
    assert _callers("_run_batch") == ["simulate.py: run_chains",
                                      "simulate.py: sample_state",
                                      "simulate.py: simulate_chain"]
    # no driver parameter has a default, so the stop record, which
    # sample_state and simulate_chain read, cannot become optional again
    tree = ast.parse((SRC / "simulate.py").read_text())
    defaults = {node.name: [ast.unparse(d) for d in node.args.defaults
                            + node.args.kw_defaults if d is not None]
                for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name in ("_run_block", "_run_batch")}
    assert defaults == {"_run_block": [], "_run_batch": []}
    # the driver runs the step rows it is given: run_chains alone reads
    # checkpoints, so no view pays for sorting a budget's worth of steps
    batch = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                 and node.name == "_run_batch")
    assert [a.arg for a in batch.args.args] == [
        "spec", "x0s", "seed", "rows", "t_stop", "offset"]
    assert [c for c in _callers("sorted") if c.startswith("simulate")] \
        == ["simulate.py: run_chains"]


def test_one_laplace_table():
    # f_lambda_dual, dual_pairing and classify read one table of Laplace
    # weights, so a change to how e^{-lambda t_n} is reduced to f_hat, its
    # standard error and the half-budget gap is made in one place
    assert [c for c in _callers("run_chains") if c.startswith("diagnose")] \
        == ["diagnose.py: _laplace_table"]
    assert _callers("_laplace_table") == ["diagnose.py: classify",
                                          "diagnose.py: dual_pairing",
                                          "diagnose.py: f_lambda_dual"]
    gone = {"_probe_estimates", "_need_two_paths", "_laplace_weights"}
    assert sorted(f"{path.name}: {name}" for path in SRC.glob("*.py")
                  for name in gone if name in path.read_text()) == []


def test_one_gamma_tail():
    # the power family's explosion law is computed once: explosion_cdf and
    # exact_mass read the one gamma tail at the one time scale, so no second
    # copy of the law (a Poisson partial sum, an "upper bound") comes back
    assert _callers("gammaincc") == ["oracles.py: tau_tail"]
    fns = ["oracles.py: exact_mass", "oracles.py: explosion_cdf"]
    assert _callers("tau_tail") == fns
    assert [c for c in _callers("time_scale") if c.startswith("oracles")] \
        == fns
    gone = {"_survival_weight", "mass_upper_bound"}
    assert sorted(f"{path.name}: {name}" for path in SRC.glob("*.py")
                  for name in gone if name in path.read_text()) == []


def test_one_count_rule():
    # what a count is, and how a bad one is refused, is decided in one
    # place: errors._count alone tests .is_integer(), and no module keeps a
    # second _count
    assert _callers("is_integer") == ["errors.py: _count"]
    assert sorted(f"{path.name}: {node.name}" for path in SRC.glob("*.py")
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "_count") == ["errors.py: _count"]


def test_public_api_matches_all():
    # every exported name resolves, and every public name __init__.py
    # imports is exported, so a removed name leaves no stale export
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom)
                for alias in node.names if not alias.name.startswith("_")}
    assert sorted(n for n in pdmpfrag.__all__
                  if not hasattr(pdmpfrag, n)) == []
    assert sorted(imported - set(pdmpfrag.__all__)) == []
    assert len(pdmpfrag.__all__) == len(set(pdmpfrag.__all__))
