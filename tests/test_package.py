"""The package surface: prymck exports each module's __all__, and nothing
else, and the reference commands enter every function of src/prymck but a
named few."""

import ast
import json
import pathlib
import subprocess
import sys

import prymck
from prymck import exact_arith, operator_engine, pfaffian, prym_bn, series_ring

MODULES = (exact_arith, operator_engine, pfaffian, prym_bn, series_ring)
# no route calls them; the tests read each as a reference from its own module
REFERENCE_ONLY = (
    (pfaffian, "perm_sign"),
    (prym_bn, "g_coeff"),
    (prym_bn, "GTable"),
    (prym_bn, "enumerate_f"),
    (prym_bn, "classical_coefficient"),
)


def test_package_all_is_the_module_lists():
    names = ["__version__", *(name for module in MODULES for name in module.__all__)]
    assert prymck.__all__ == names
    assert len(set(names)) == len(names) == 30
    assert {"abel_row", "abel_last"} <= set(names)


def test_each_export_is_the_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(prymck, name) is getattr(module, name), (module.__name__, name)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from prymck import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(prymck.__all__)


def test_reference_only_helpers_are_not_exported():
    for home, name in REFERENCE_ONLY:
        assert all(name not in module.__all__ for module in (prymck, *MODULES)), name
        assert not hasattr(prymck, name), name
        assert callable(getattr(home, name)), name


# the functions of src/prymck that no bench/reference.json command enters,
# each with the reason it stays
_TRACED = "wrapped by name in bench/layer_trace.py; ROADMAP items 1b and 6"
KEPT = {
    "pfaffian.perm_sign": "the tests' flat n! reference; " + _TRACED,
    "prym_bn.g_coeff": "the tests' term-by-term pair coefficient; " + _TRACED,
    "prym_bn.GTable.__init__": "builds the view GTable.value reads; " + _TRACED,
    "prym_bn.GTable.value": "the tests' antisymmetric g_coeff view; " + _TRACED,
    "prym_bn.enumerate_f": "the tests' degree distributions; " + _TRACED,
    "prym_bn._compositions": "enumerate_f's generator; " + _TRACED,
    "prym_bn.classical_coefficient": "the tests' staircase anchor; " + _TRACED,
    "series_ring.BetaPoly.__add__": "no class route adds BetaPoly values; " + _TRACED,
    "series_ring.BetaPoly.__mul__": "no class route multiplies BetaPoly values; " + _TRACED,
    "series_ring.ThetaPoly.__rmul__": "no route scales a series from the left; " + _TRACED,
    "series_ring.BetaPoly.__repr__": "read when a test or a user prints a value",
    "series_ring.ThetaPoly.__repr__": "read when a test or a user prints a value",
    "cli._make_parser": (
        "builds argparse's parser for --help, --version and every argv cli._read_args declines; "
        "the reference commands are all read without it"
    ),
}

# runs every reference command through prymck.cli.main with a profile hook
# set before the import, and prints the number of commands, those that exited
# non-zero, and the (file, first line, name) of each code object under
# src/prymck that was entered
_PROFILED = """
import contextlib, io, json, os, sys
src, reference = sys.argv[1], sys.argv[2]
package = os.path.join(src, "prymck", "")
sys.path.insert(0, src)
entered = set()

def hook(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(package):
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))

sys.setprofile(hook)
import prymck.cli
with open(reference, encoding="utf-8") as f:
    commands = list(json.load(f))
with contextlib.redirect_stdout(io.StringIO()):
    failed = [command for command in commands if prymck.cli.main(command.split()) != 0]
sys.setprofile(None)
print(json.dumps({"count": len(commands), "failed": failed, "entered": sorted(entered)}))
"""


def _src_functions(package: pathlib.Path) -> dict:
    # (file, first line, name) -> dotted name of every def in the package,
    # nested defs included; a decorated def's code starts at its first decorator
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found[(path, first, child.name)] = f"{prefix}.{child.name}"
                visit(child, path, f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}")
            else:
                visit(child, path, prefix)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path), path.stem)
    return found


def test_every_src_function_runs_on_the_reference_commands():
    package = pathlib.Path(prymck.__file__).resolve().parent
    reference = package.parents[1] / "bench" / "reference.json"
    run = subprocess.run(
        [sys.executable, "-c", _PROFILED, str(package.parent), str(reference)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert result["count"] > 0
    assert result["failed"] == []
    entered = {tuple(key) for key in result["entered"]}
    functions = _src_functions(package)
    never = {name for key, name in functions.items() if key not in entered}
    assert never == set(KEPT)
