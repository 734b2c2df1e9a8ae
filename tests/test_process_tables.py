"""The package's process-wide tables are cached builders, and no kernel
changes a value one hands out.

Every process-wide memo of the kernels is a builder under
``functools.cache`` over its key: ``cache_info()`` gives its size and
``__wrapped__`` the uncached builder.  The census below walks every
module of the package and fails on any module-level dict, list or set,
or object of the package holding one, that is not named in
:data:`ALLOWED` with its reason, so a hand-rolled memo table cannot come
back unseen.  The oracle guard in ``test_sym_coalgebra.py`` finds the
builders the same way, by walking the modules.

A cached value is shared by every caller, so a kernel that changed one
in place would change every later result that reads it.  After a
default ``core,envelope`` run on each builtin, every cached word
cobracket and word degree still equals what its uncached builder gives.
"""

import gc
import importlib
import pkgutil

import pytest

import abhomotopy
from abhomotopy.instances import BUILTINS
from abhomotopy.suites import SuiteConfig, build_instance, generic_letters, run_verify_envelope
from abhomotopy.tensor_coalgebra import cobracket, word_degree

# the module-level tables allowed besides the cached builders, each with its reason
ALLOWED = {
    "_LETTERS": "the letter intern table: Generator validates each id and degree before it enters",
    "QUOTIENT": "the shuffle quotient owns its tables per instance; the quotient workload times a fresh one",
    "CHECKS": "constant: every identity row by name",
    "COALGEBRA": "constant: the rows of the coalgebra suite",
    "CORE": "constant: the rows of the core suite",
    "ENVELOPE": "constant: the rows of the envelope suite",
    "SPECIALIZATIONS": "constant: the specialization rows per parity of a - b",
    "_MAP_FIELDS": "constant: the AbAlgebra field of each structure map a mutant replaces",
    "BUILTINS": "constant: the builtin instances and their default parameters",
    "GRADINGS": "constant: the coordinate gradings of the builtin families",
    "SUPER": "constant: the coordinate degrees of super polynomials",
}

MODULES = [
    importlib.import_module(f"abhomotopy.{info.name}") for info in pkgutil.iter_modules(abhomotopy.__path__)
]


def _holds_a_table(value) -> bool:
    if isinstance(value, (dict, list, set)):
        return True
    # an object of the package (QUOTIENT) may keep its tables in its attributes
    return type(value).__module__.startswith("abhomotopy.") and any(
        isinstance(v, (dict, list, set)) for v in getattr(value, "__dict__", {}).values()
    )


def test_no_module_level_table_outside_the_allowlist():
    found = {
        name
        for module in MODULES
        for name, value in vars(module).items()
        if not name.startswith("__") and _holds_a_table(value)
    }
    assert found == set(ALLOWED)


def test_generic_letters_are_cached_by_the_degree_tuple():
    """Any iterable of degrees gives the letters of its tuple, and the
    cache keeps the tuple, never the iterable: a generator adds no entry
    once its tuple is cached."""
    degrees = (0, 1, 2, 1)
    letters = generic_letters(degrees)
    assert [(g.gid, g.deg) for g in letters] == [("a1", 0), ("a2", 1), ("a3", 2), ("a4", 1)]
    builder = abhomotopy.suites._generic_letters
    size = builder.cache_info().currsize
    assert generic_letters(d for d in degrees) is letters
    assert generic_letters(list(degrees)) is letters
    assert builder.cache_info().currsize == size
    assert all(type(key[0]) is tuple for key in _cached(builder))


def _cached(builder) -> dict:
    """The table a ``functools.cache`` builder holds, arguments -> value:
    of the two dicts the garbage collector finds in CPython's cache
    object, the one that is not its ``__dict__``."""
    (table,) = [d for d in gc.get_referents(builder) if type(d) is dict and d is not vars(builder)]
    assert len(table) == builder.cache_info().currsize
    return table


@pytest.mark.parametrize("builtin", sorted(BUILTINS))
def test_no_kernel_changes_a_shared_cached_value(builtin):
    config = SuiteConfig(algebra=builtin, suites=("core", "envelope"))
    assert run_verify_envelope(config, build_instance(config)).status == "pass"
    cobrackets, degrees = _cached(cobracket), _cached(word_degree)
    assert cobrackets and degrees
    for (w,), value in list(cobrackets.items()):
        assert list(value.terms.items()) == list(cobracket.__wrapped__(w).terms.items()), w
    for (w,), d in list(degrees.items()):
        assert d == word_degree.__wrapped__(w), w
