"""Start-up boundaries: what a fresh process loads, and the lazy package root.

Each boundary check runs in a fresh interpreter and compares the modules
present before and after the statement under test, so a module that the
interpreter's site set-up happens to preload never counts against the
package.  These are not timing gates: they pin which modules load.
"""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import quadliaison

SRC = str(Path(__file__).parent.parent / "src")

# What the package root re-exported when it imported every submodule eagerly,
# less the two atom classes that sheaves no longer has, the one-line
# wrappers zero_sheaf, all_ok and proj_space, the per-twist counts
# curve_sections and ideal_h0, which leave curves only as rows, MATCH_WINDOW,
# since classification defaults to DEFAULT_WINDOW, plane_genus,
# quadric_surface_genus_spectrum and klein_parity_check, which only the
# reference suite uses and keeps private, and parse_ambient and
# parse_window, which read the command line's text and live in cli.
REEXPORTS = {
    "ambient": "P2 P3 P4 QUADRIC3 Ambient",
    "classify": "CANDIDATE_CAP DEFAULT_TWIST_BOUNDS GeneratorEstimate "
    "enumerate_rank4_candidates etype_candidates etype_middle generator_estimate "
    "kernel_table_from_resolution match_acm_kernel rank4_candidate_count",
    "curves": "DEFAULT_WINDOW CohomTable CurveClass Feasibility RegularityReport Window "
    "acm_embedding_obstruction ambient_table full_ideal_table ideal_h0_table "
    "nonspecial_threshold regularity render_value_csv render_value_row rr_chi section_table",
    "errors": "InconsistencyError InfeasibleError MappingConeInconsistent "
    "NegativeDimension QLError RangeTooLarge",
    "hilbert": "binom h0_proj h0_quadric3 h0_spinor",
    "liaison": "CellCheck CILinkage ConsistencyReport ResolutionFlavor ResolutionTriple "
    "ci_residual mapping_cone_e_from_n mapping_cone_n_from_e quadric_linkage "
    "resolution_consistency_check",
    "sheaves": "SheafExpr line_bundle spinor",
    "verify": "CheckResult run_reference_checks",
}
REEXPORTED = [(module, name) for module, names in REEXPORTS.items() for name in names.split()]
# ``from quadliaison import *`` bound the re-exports and, as a side effect of
# the eager imports, the eight submodules themselves.
STAR_NAMES = {name for _, name in REEXPORTED} | set(REEXPORTS)

TABLE_MODULES = {"quadliaison", "quadliaison.cli", "quadliaison.ambient",
                 "quadliaison.curves", "quadliaison.errors", "quadliaison.hilbert"}


def loaded_by(statement: str) -> set[str]:
    """Names of the modules a fresh interpreter loads while it runs ``statement``."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


def package_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "quadliaison" or m.startswith("quadliaison.")}


def test_importing_the_root_loads_no_submodule():
    assert package_modules(loaded_by("import quadliaison")) == {"quadliaison"}


def test_library_imports_skip_dataclasses_and_the_reference_suite():
    loaded = loaded_by("from quadliaison import ambient, classify, curves, errors, liaison")
    assert "dataclasses" not in loaded
    assert "quadliaison.verify" not in loaded


TABLE_ARGV = ["table", "--ambient", "q", "-d", "8", "-g", "4", "--rows", "ideal"]


@pytest.mark.parametrize("argv, extra", [
    (TABLE_ARGV, set()),
    (["table", "--ambient", "p4", "-d", "8", "-g", "4"], set()),
    (["link", "-d", "8", "-g", "4", "--ci", "2,2,3"], {"quadliaison.liaison"}),
    (["resolve", "--ambient", "q", "-d", "8", "-g", "4", "--etype"],
     {"quadliaison.liaison", "quadliaison.classify", "quadliaison.sheaves"}),
    (["verify"], {"quadliaison.liaison", "quadliaison.classify", "quadliaison.sheaves",
                  "quadliaison.verify"}),
])
def test_each_command_loads_only_its_modules(argv, extra):
    loaded = loaded_by(f"from quadliaison import cli\nassert cli.main({argv!r}) == 0")
    assert package_modules(loaded) == TABLE_MODULES | extra
    assert "dataclasses" not in loaded
    assert "json" not in loaded


@pytest.mark.parametrize("argv", [
    TABLE_ARGV,
    ["link", "-d", "8", "-g", "4", "--ci", "2,2,3"],
    ["resolve", "--ambient", "q", "-d", "8", "-g", "4", "--etype"],
    ["verify"],
], ids=["table", "link", "resolve", "verify"])
def test_no_command_loads_typing_in_a_clean_interpreter(argv):
    """Under ``python -S`` no site set-up preloads ``typing``, so this sees
    what the package itself imports: its records are plain namedtuples."""
    code = (
        f"import sys\nsys.path.insert(0, {SRC!r})\nfrom quadliaison import cli\n"
        f"assert cli.main({argv!r}) == 0\nassert 'typing' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_json_is_loaded_on_the_json_path_only():
    argv = TABLE_ARGV + ["--format", "json"]
    loaded = loaded_by(f"from quadliaison import cli\nassert cli.main({argv!r}) == 0")
    assert "json" in loaded
    assert package_modules(loaded) == TABLE_MODULES


@pytest.mark.parametrize("argv", [
    ["verify", "--format", "csv"],
    ["resolve", "--ambient", "q", "-d", "8", "-g", "4", "--etype", "--format", "csv"],
], ids=["verify", "resolve"])
def test_csv_output_loads_no_csv_module(argv):
    loaded = loaded_by(f"from quadliaison import cli\nassert cli.main({argv!r}) == 0\n"
                       "assert 'csv' not in sys.modules")
    assert "csv" not in loaded


def test_root_names_are_the_submodule_attributes():
    for module, name in REEXPORTED:
        submodule = getattr(quadliaison, module)
        assert isinstance(submodule, types.ModuleType), module
        assert getattr(quadliaison, name) is getattr(submodule, name), name


def test_star_import_binds_the_same_names():
    namespace: dict = {}
    exec("from quadliaison import *", namespace)
    assert set(namespace) - {"__builtins__"} == STAR_NAMES
    assert sorted(quadliaison.__all__) == sorted(STAR_NAMES)


def test_dir_lists_every_export():
    assert STAR_NAMES <= set(dir(quadliaison))
    assert "__version__" in dir(quadliaison)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        quadliaison.no_such_name
    with pytest.raises(ImportError):
        from quadliaison import no_such_name  # noqa: F401


# What text ql accepts, how it bounds it, and how it quotes a refused value.
INPUT_DOMAIN = {"_echo", "parse_window", "parse_ambient", "_LABELS", "MAX_TWIST",
                "MAX_WINDOW_TWISTS"}


def top_level_names(tree: ast.Module) -> set[str]:
    """The names a module binds at its top level, by definition or import."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_only_the_cli_knows_the_input_domain():
    """cli alone parses, bounds and echoes user text: no other submodule
    binds those names, errors holds just the exception classes, and ambient
    imports nothing from errors."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in Path(SRC, "quadliaison").glob("*.py")}
    assert INPUT_DOMAIN <= top_level_names(trees.pop("cli"))
    for module, tree in trees.items():
        assert not INPUT_DOMAIN & top_level_names(tree), module
    assert top_level_names(trees["errors"]) - {"annotations"} == set(REEXPORTS["errors"].split())
    assert not [node for node in ast.walk(trees["ambient"])
                if isinstance(node, ast.ImportFrom) and node.module == "errors"]
