"""The package surface: prymck exports each module's __all__, and nothing
else, every public integer parameter takes exact_arith's one integer rule,
and the reference commands enter every function of src/prymck but a named
few."""

import ast
import json
import pathlib
import subprocess
import sys

import pytest

import prymck
from prymck import exact_arith, operator_engine, pfaffian, prym_bn, series_ring
from prymck.exact_arith import ValidationError

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


def _scoped_nodes(node, scope):
    # (dotted name of the innermost enclosing def or class, node) for every
    # node below node; a def or class is itself in the scope around it
    for child in ast.iter_child_nodes(node):
        yield scope, child
        inner = f"{scope}.{child.name}" if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
        yield from _scoped_nodes(child, inner)


def _raises_on_a_value(statement) -> bool:
    # raise ValueError(...) or raise ValidationError(...); an IndexError is
    # a lookup's failure, not an argument's
    exc = getattr(statement, "exc", None) if isinstance(statement, ast.Raise) else None
    return getattr(getattr(exc, "func", exc), "id", None) in ("ValueError", "ValidationError")


def _is_sign_test(node) -> bool:
    # an if whose body raises on a value, on a test that reads "x < 0",
    # "0 > x" or "0 <= x" of a name or a subscript: a hand-written sign check
    if not (isinstance(node, ast.If) and any(map(_raises_on_a_value, node.body))):
        return False
    for cmp in (n for n in ast.walk(node.test) if isinstance(n, ast.Compare)):
        operands = [cmp.left, *cmp.comparators]
        for left, op, right in zip(operands, cmp.ops, operands[1:]):
            zero_right = isinstance(op, ast.Lt) and getattr(right, "value", None) == 0
            zero_left = isinstance(op, (ast.Gt, ast.LtE)) and getattr(left, "value", None) == 0
            other = left if zero_right else right
            if (zero_right or zero_left) and isinstance(other, (ast.Name, ast.Subscript)):
                return True
    return False


def test_exact_input_rules_are_written_once():
    # what is an integer (_strict_int, _strict_ints) and what is an exact
    # value (_exact) is decided in exact_arith alone, and so are the two
    # failure classes; every other module calls these helpers, and no
    # function outside exact_arith raises on an argument's sign but
    # build_problem, whose command line messages name its bounds
    package = pathlib.Path(prymck.__file__).resolve().parent
    exact_tests, index_reads, sign_tests, defined = set(), set(), set(), {}
    for path in sorted(package.glob("*.py")):
        for scope, node in _scoped_nodes(ast.parse(path.read_text(encoding="utf-8")), path.stem):
            if isinstance(node, ast.Import):
                assert all(alias.name != "numbers" for alias in node.names), scope
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "numbers", scope
                assert node.module != "operator" or "index" not in {a.name for a in node.names}, scope
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                kinds = {getattr(e, "id", None) for e in getattr(node.args[1], "elts", ())}
                if {"int", "Fraction"} <= kinds:
                    exact_tests.add(scope)
            elif isinstance(node, ast.Attribute) and node.attr == "index":
                if getattr(node.value, "id", None) == "operator":
                    index_reads.add(scope)
            elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                defined.setdefault(node.name, set()).add(scope)
            elif _is_sign_test(node) and not scope.startswith("exact_arith."):
                sign_tests.add(scope)
    assert sign_tests == {"prym_bn.build_problem"}
    assert exact_tests == {"exact_arith._exact"}
    assert index_reads == {"exact_arith._strict_int"}
    for name in ("ValidationError", "CheckFailure", "_strict_int", "_strict_ints", "_exact"):
        assert defined[name] == {"exact_arith"}, name
    assert prymck.ValidationError is prym_bn.ValidationError is exact_arith.ValidationError


_PRE = operator_engine.prefactor_expansion(0, 4)
_PROBLEM = prym_bn.problem_from_partition(6, (3, 1))
# every public integer parameter: (id, the call with x in its slot, the name
# the message gives it, its lower bound or None)
INTEGER_PARAMETERS = [
    ("binom_gen-s", lambda x: exact_arith.binom_gen(x, 2), "binom_gen: s", None),
    ("binom_gen-t", lambda x: exact_arith.binom_gen(5, x), "binom_gen: t", 0),
    ("abel_row-s", lambda x: exact_arith.abel_row(x, 3), "Abel row: s", None),
    ("abel_row-n", lambda x: exact_arith.abel_row(1, x), "Abel row: n", 0),
    ("abel_last-s", lambda x: exact_arith.abel_last(x, 3), "Abel row: s", None),
    ("abel_last-n", lambda x: exact_arith.abel_last(1, x), "Abel row: n", 0),
    ("abel_coefficient-s", lambda x: exact_arith.abel_coefficient(x, 3), "Abel row: s", None),
    ("abel_coefficient-v", lambda x: exact_arith.abel_coefficient(1, x), "abel_coefficient: v", 0),
    ("prefactor_expansion-s", lambda x: operator_engine.prefactor_expansion(x, 3), "prefactor_expansion: s", None),
    ("prefactor_expansion-cap", lambda x: operator_engine.prefactor_expansion(1, x), "prefactor_expansion: cap", 0),
    ("interaction_expansion-cap", lambda x: operator_engine.interaction_expansion(x), "interaction_expansion: cap", 0),
    (
        "apply_pair_operator-base_i",
        lambda x: operator_engine.apply_pair_operator((x, 1), _PRE, _PRE, 4, 0),
        "apply_pair_operator: base entry",
        0,
    ),
    (
        "apply_pair_operator-base_j",
        lambda x: operator_engine.apply_pair_operator((1, x), _PRE, _PRE, 4, 0),
        "apply_pair_operator: base entry",
        0,
    ),
    (
        "apply_pair_operator-cap",
        lambda x: operator_engine.apply_pair_operator((1, 1), _PRE, _PRE, x, 0),
        "apply_pair_operator: cap",
        0,
    ),
    (
        "apply_pair_operator-excess",
        lambda x: operator_engine.apply_pair_operator((1, 1), _PRE, _PRE, 4, x),
        "apply_pair_operator: excess",
        None,
    ),
    ("SkewMatrix-n", lambda x: pfaffian.SkewMatrix(x, lambda i, j: 1), "SkewMatrix: size", 0),
    ("ThetaPoly-cap", lambda x: series_ring.ThetaPoly(x, [0, 0, 0]), "ThetaPoly: cap", 0),
    ("ThetaPoly.zero-cap", lambda x: series_ring.ThetaPoly.zero(x), "ThetaPoly: cap", 0),
    ("ThetaPoly.one-cap", lambda x: series_ring.ThetaPoly.one(x), "ThetaPoly: cap", 0),
    ("ThetaPoly.monomial-cap", lambda x: series_ring.ThetaPoly.monomial(x, 0, 1), "ThetaPoly: cap", 0),
    ("ThetaPoly.monomial-degree", lambda x: series_ring.ThetaPoly.monomial(3, x, 1), "ThetaPoly.monomial: degree", 0),
    ("BetaPoly-exponent", lambda x: series_ring.BetaPoly({x: 3}), "BetaPoly: exponent", 0),
    ("strict_partitions-max_size", lambda x: prym_bn.strict_partitions(x, 2, 3), "strict_partitions: max_size", None),
    ("strict_partitions-max_len", lambda x: prym_bn.strict_partitions(3, x, 3), "strict_partitions: max_len", None),
    ("strict_partitions-max_part", lambda x: prym_bn.strict_partitions(3, 2, x), "strict_partitions: max_part", None),
    ("euler_theorem_genera-genera", lambda x: prym_bn.euler_theorem_genera(_PROBLEM, (x, 5)), "genera entry", 2),
    ("g_coeff-m", lambda x: prym_bn.g_coeff(x, 1, 2, (2, 1), (0, 0)), "g_coeff: m", 0),
    ("g_coeff-i", lambda x: prym_bn.g_coeff(0, x, 2, (2, 1), (0, 0)), "g_coeff: i", 0),
    ("g_coeff-j", lambda x: prym_bn.g_coeff(0, 1, x, (2, 1), (0, 0)), "g_coeff: j", 0),
    ("g_coeff-lam", lambda x: prym_bn.g_coeff(0, 1, 2, (x, 1), (0, 0)), "g_coeff: lam entry", None),
    ("g_coeff-v", lambda x: prym_bn.g_coeff(0, 1, 2, (2, 1), (0, x)), "g_coeff: v entry", None),
    ("enumerate_f-sigma", lambda x: prym_bn.enumerate_f((x, 2), 1, 1), "enumerate_f: sigma entry", 0),
    ("enumerate_f-k", lambda x: prym_bn.enumerate_f((1, 2), x, 1), "enumerate_f: k", 0),
    ("enumerate_f-n_pairs", lambda x: prym_bn.enumerate_f((1, 2), 1, x), "enumerate_f: n_pairs", 0),
    ("classical_coefficient-r", lambda x: prym_bn.classical_coefficient(x), "classical_coefficient: r", 0),
]


def _refusals():
    # a bool, an integral float inside the range and, where a range applies,
    # the integer just below it
    for name, call, what, low in INTEGER_PARAMETERS:
        bound = "" if low is None else f" >= {low}"
        values = [("bool", True), ("float", float(max(low or 0, 1) + 1))]
        values += [] if low is None else [("below", low - 1)]
        for kind, x in values:
            yield pytest.param(call, x, f"{what} must be an integer{bound} (got {x!r})", id=f"{name}-{kind}")


@pytest.mark.parametrize("call, x, message", _refusals())
def test_every_integer_parameter_takes_the_one_rule(call, x, message):
    with pytest.raises(ValidationError) as raised:
        call(x)
    assert str(raised.value) == message


def test_expansion_caches_never_serve_a_bool_the_row_of_its_int():
    # keyed by type: a bool is refused before and after its int's row is cached
    engine = operator_engine
    for expansion, args in ((engine.prefactor_expansion, (1, True)), (engine.interaction_expansion, (True,))):
        expansion.cache_clear()
        with pytest.raises(ValidationError):
            expansion(*args)
        expansion(*map(int, args))
        assert expansion.cache_info().currsize == 1
        with pytest.raises(ValidationError):
            expansion(*args)

# the functions of src/prymck that no bench/reference.json command enters,
# each with the reason it stays
_TRACED = "wrapped by name in bench/layer_trace.py; ROADMAP items 1b and 6"
KEPT = {
    "pfaffian.perm_sign": "the tests' flat n! reference; " + _TRACED,
    "pfaffian.SkewMatrix.entry": "the tests' one-entry reads; rows() and both engines read the stored triangle",
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
