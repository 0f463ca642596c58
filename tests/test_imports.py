"""The package entry point: the star import, the README tour, and which
modules each CLI command loads.  ``hopf``, ``reptheory``, ``linalg`` and
``oracle`` are lazy modules, so a command must pay only for the modules
it runs; the footprints are read in fresh interpreters."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cycloribbon

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(cycloribbon.__file__).resolve().parents[1]

STAR_NAMES = """
AlgebraElement AlgebraParams Character ColoredComposition ColoredPermutation
ColoredRibbon ExplicitModule LinComb MR_R MR_S NCSF_R OracleError QMR_F SYM_H
TensorComb anti_refinements anticycloribbon_to_colored_comp
build_induced_module build_shape_module cartan_map cartan_matrix check_socle
check_submodule_order colored_comp_to_anticycloribbon colored_compositions
colored_descent_composition composition_factors composition_from_descents
cross_check_induction decomposition_matrix descent_class_size descent_set
dim_projective duality_pairing enumerate_anticycloribbons
enumerate_cycloribbons enumerate_one_dim_characters fillings_below flip_ribbon
hopf induce_hecke_projective induce_projectives induce_simples
is_anticycloribbon is_cycloribbon left_mult_T left_mult_xi
linalg lincomb max_inversion_perm
mr_coproduct mr_product_R mr_product_S mr_to_ncsf mr_to_sym
multipartition_class multipartitions oracle projective_labels qmr_coproduct_F
qmr_product_F r_to_s reptheory restrict_simple ribbon_from_character ribbons
s_to_r schur_in_h shifted_shuffle simple_character simple_labels
sorting_covers sym_to_qmr verify_relations
""".split()

STAR = """
import importlib, json
namespace = {}
exec("from cycloribbon import *", namespace)
del namespace["__builtins__"]
submodules = [importlib.import_module("cycloribbon." + name) for name in
              ("hopf", "linalg", "lincomb", "oracle", "reptheory", "ribbons")]
print(json.dumps({name: any(value is module or getattr(module, name, None)
                            is value for module in submodules)
                  for name, value in namespace.items()}))
"""


def run_fresh(script: str, *argv) -> dict:
    """The JSON that ``script`` prints, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_star_import_binds_the_public_names():
    # fresh, because an imported submodule such as cli is a package
    # attribute too, and a star import without __all__ would bind it
    bound = run_fresh(STAR)
    assert len(STAR_NAMES) == 74
    assert sorted(bound) == sorted(STAR_NAMES)
    assert [name for name, same in bound.items() if not same] == []


def test_unknown_name_raises_attribute_error():
    # hasattr, and so the star import of a submodule name, relies on it
    with pytest.raises(AttributeError, match="no_such_name"):
        cycloribbon.no_such_name


def test_readme_tour_runs():
    readme = (ROOT / "README.md").read_text()
    tour = re.search(r"## Library quick tour\n.*?```python\n(.*?)```",
                     readme, re.S).group(1)
    exec(compile(tour, "README.md (Library quick tour)", "exec"), {})


FOOTPRINT = """
import contextlib, io, json, sys, types
from cycloribbon import cli
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
ran = {name: type(sys.modules["cycloribbon." + name]) is types.ModuleType
       for name in ("hopf", "reptheory", "oracle")}
print(json.dumps({"code": code, "dataclasses": "dataclasses" in sys.modules,
                  **ran}))
"""


def footprint(*argv) -> dict:
    """Exit code of ``cli.main(argv)`` in a fresh interpreter, whether
    ``dataclasses`` was imported, and which lazy modules ran."""
    return run_fresh(FOOTPRINT, *argv)


# the ring commands that multiply or comultiply; phi and enumerate need
# only ribbons and lincomb
RUNS_HOPF = {"product", "coproduct", "induce-simples"}


@pytest.mark.parametrize("argv", [
    ("phi", "--ribbon", "1,1|2,1"),
    ("product", "--basis", "R", "--lhs", "2^1", "--rhs", "1^1"),
    ("coproduct", "--basis", "S", "--elt", "2^1.1^2"),
    ("induce-simples", "--lhs", "1,1|2,1", "--rhs", "2|1,2"),
    ("enumerate", "--n", "3", "--r", "2"),
])
def test_ring_commands_load_neither_lazy_module(argv):
    # neither reptheory nor oracle; hopf only where the command runs it
    assert footprint(*argv) == {"code": 0, "dataclasses": False,
                                "hopf": argv[0] in RUNS_HOPF,
                                "reptheory": False, "oracle": False}


def test_matrix_command_loads_reptheory_only():
    assert footprint("cartan", "--n", "2", "--r", "2") == {
        "code": 0, "dataclasses": True, "hopf": True, "reptheory": True,
        "oracle": False}


def test_oracle_command_loads_both():
    assert footprint("oracle", "verify", "--n", "2", "--r", "2") == {
        "code": 0, "dataclasses": True, "hopf": True, "reptheory": True,
        "oracle": True}


def test_literal_error_loads_neither():
    assert footprint("phi", "--ribbon", "2,x|1,1") == {
        "code": 1, "dataclasses": False, "hopf": False, "reptheory": False,
        "oracle": False}


DOCTESTS = """
import doctest, json
import cycloribbon
finder = doctest.DocTestFinder()
names = [test.name for test in finder.find(cycloribbon)]
for name in ("hopf", "linalg", "lincomb", "oracle", "reptheory", "ribbons"):
    names += [test.name for test in finder.find(getattr(cycloribbon, name))]
print(json.dumps(names))
"""


def test_doctest_finder_walks_the_fresh_package():
    """The finder reads every value of the package, which runs the lazy
    modules; running one must add no name to the package mid-walk."""
    names = run_fresh(DOCTESTS)
    assert "cycloribbon.ribbons.flip_ribbon" in names


TRACER = """
import importlib.util, json, sys
import cycloribbon.cli
spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
caches = spans.package_caches()
spans.Tracer().install()
print(json.dumps(sorted(caches)))
"""


def test_tracer_installs_after_lazy_cli_import():
    """A traced CLI process imports ``cycloribbon.cli``, which leaves the
    lazy modules unloaded; ``package_caches`` loads them through
    ``vars()``, so the tracer still finds every module it wraps."""
    caches = run_fresh(TRACER, str(ROOT / "perfbench" / "spans.py"))
    assert {"oracle._relation_plan",
            "oracle.enumerate_one_dim_characters"} <= set(caches)


# Top-level functions and classes of src that nothing but the tests uses,
# kept on purpose: name -> reason.  Empty: every such helper lives in the
# tests.
TEST_ONLY_IN_SRC = {}

PERFBENCH_NAME = re.compile(
    r"\b(cli|hopf|linalg|lincomb|oracle|reptheory|ribbons)\.([A-Za-z_]\w*)")


def referenced_names(node) -> set:
    """Every identifier that ``node`` reads: names, attributes, and string
    constants that are identifiers (``getattr`` tables such as
    ``cli.MATRICES``)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            out.add(sub.value)
    return out


def unreached_definitions() -> list:
    """``module.name`` of each top-level function or class in src that no
    root reaches by name: the public names, ``cli.main``, the names
    ``perfbench/`` reads and every module-level statement.  A reached
    definition reaches every name its body references."""
    definitions, reached = {}, {*cycloribbon.__all__, "main"}
    for path in sorted((SRC / "cycloribbon").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                definitions.setdefault(stmt.name, []).append(
                    (path.stem, stmt))
            else:
                reached |= referenced_names(stmt)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        reached |= {name for _, name in
                    PERFBENCH_NAME.findall(path.read_text())}
    todo = list(reached)
    while todo:
        for _, stmt in definitions.get(todo.pop(), ()):
            new = referenced_names(stmt) - reached
            reached |= new
            todo += new
    return sorted(f"{module}.{name}" for name, defs in definitions.items()
                  if name not in reached and not name.startswith("__")
                  for module, _ in defs)


def test_src_holds_only_reached_definitions():
    """A helper only the tests call belongs in the tests."""
    assert [name for name in unreached_definitions()
            if name not in TEST_ONLY_IN_SRC] == []


# The src functions that may name a displayed rule: the one reader, and
# the element-level products, kept because ``perfbench/spans.py`` wraps them.
RULE_CALLERS = {"_read_module", "_left_mult", "left_mult_T", "left_mult_xi"}


def test_one_reader_builds_the_generator_tables():
    """Only ``oracle._read_module`` turns ``_T_rule`` and ``_xi_rule``
    into generator columns: no other src function or statement names them."""
    naming = []
    for path in sorted((SRC / "cycloribbon").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if getattr(stmt, "name", None) not in RULE_CALLERS and \
                    referenced_names(stmt) & {"_T_rule", "_xi_rule"}:
                naming.append(f"{path.stem}.{getattr(stmt, 'name', stmt.lineno)}")
    assert naming == []


def test_one_builder_reads_every_induced_module():
    """``oracle._read_module`` has two src callers: ``_content_block`` for the
    color-content blocks, and ``_induce`` for every induced module."""
    callers = [f"{path.stem}.{getattr(stmt, 'name', stmt.lineno)}"
               for path in sorted((SRC / "cycloribbon").glob("*.py"))
               for stmt in ast.parse(path.read_text()).body
               if getattr(stmt, "name", None) != "_read_module"
               and "_read_module" in referenced_names(stmt)]
    assert callers == ["oracle._content_block", "oracle._induce"]


LITERAL_WRITERS = {"ribbon_literal", "colored_composition_literal",
                   "multipartition_literal"}


def test_only_the_cli_writes_label_literals():
    """The output format has one home: no src module but ``cli`` and
    ``ribbons``, which defines them, names a literal writer, by a name, an
    attribute or an import (a docstring's doctest does not count)."""
    naming = []
    for path in sorted((SRC / "cycloribbon").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {alias.name for alias in ast.walk(tree)
                    if isinstance(alias, ast.alias)}
        if path.stem not in ("cli", "ribbons") and \
                (referenced_names(tree) | imported) & LITERAL_WRITERS:
            naming.append(path.stem)
    assert naming == []


def output_format_uses(tree) -> set:
    """``"json"`` if ``tree`` imports ``json``, and ``"colors"`` if it holds
    a dict display with the schema's label key ``"colors"``."""
    uses = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] == "json" for alias in node.names) \
                or isinstance(node, ast.ImportFrom) and node.module == "json":
            uses.add("json")
        elif isinstance(node, ast.Dict) and any(
                isinstance(key, ast.Constant) and key.value == "colors"
                for key in node.keys):
            uses.add("colors")
    return uses


def test_only_the_cli_writes_json_objects():
    """The output format has one home: no src module but ``cli`` imports
    ``json`` or builds a label object, a dict display with the key
    ``"colors"``."""
    naming = []
    for path in sorted((SRC / "cycloribbon").glob("*.py")):
        uses = output_format_uses(ast.parse(path.read_text()))
        if path.stem != "cli" and uses:
            naming.append(f"{path.stem}: {', '.join(sorted(uses))}")
    assert naming == []
