"""The package surface: prymck exports each module's __all__, and nothing else."""

import prymck
from prymck import exact_arith, operator_engine, pfaffian, prym_bn, series_ring

MODULES = (exact_arith, operator_engine, pfaffian, prym_bn, series_ring)
# no route calls them; the tests read them as references from prymck.prym_bn
REFERENCE_ONLY = ("g_coeff", "GTable", "enumerate_f", "classical_coefficient")


def test_package_all_is_the_module_lists():
    names = ["__version__", *(name for module in MODULES for name in module.__all__)]
    assert prymck.__all__ == names
    assert len(set(names)) == len(names) == 32
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
    for name in REFERENCE_ONLY:
        assert all(name not in module.__all__ for module in (prymck, *MODULES)), name
        assert not hasattr(prymck, name), name
        assert callable(getattr(prym_bn, name)), name
