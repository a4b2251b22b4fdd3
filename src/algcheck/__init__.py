"""Exact-arithmetic workbench for finite-dimensional n-ary algebras.

Algebras are given by structure constants over the rationals; the package
verifies axiom systems (n-Jacobi, associativity, pre-Lie, Lie triple
systems), weight-lambda Rota-Baxter and derivation operator identities and
their duality, and executes the bracket constructions that transport these
structures (f-brackets, determinant brackets, derived brackets), with every
theorem hypothesis machine-checked and every unconditional conclusion
re-verified.

``import algcheck`` loads only what :func:`catalog` and the checks need.
The modules ``files`` (with ``json``), ``inheritance`` and ``selftest``
load on first use: the first read of one of their exported names, or of
the module itself, imports it (``__getattr__``, PEP 562) and keeps the
value here.  ``search`` and ``catalog`` stay eager because each function
shadows its own submodule.  The first import of a submodule binds the
module on the package: were ``search`` loaded on first use, ``import
algcheck.search`` would leave ``algcheck.search`` the module.  Loaded
here, the function is bound over the module, and later imports of the
submodule leave it.
"""

from .algebra import Algebra, OperatorClaim
from .axioms import (ad_map, annihilator_of_image, check_associative,
                     check_commutative, check_lie, check_lts, check_n_jacobi,
                     check_prelie, check_skew_symmetric, commutator)
from .catalog import catalog, catalog_names
from .constructions import (cor33_condition, det_bracket_2, det_bracket_3,
                            det_rb_expansion_check, derived_prelie, f_bracket,
                            fD_bracket, fd_bracket_value_forms,
                            prelie_from_comm_assoc, thm32_condition,
                            thm35_f_condition, thm36_bracket,
                            thm36_f_condition, thm36_rb_condition,
                            thm42_condition)
from .linalg import (LinearForm, LinearMap, basis_vector, kernel_basis,
                     kernel_membership, maps_commute, nullspace, vector)
from .operators import (SubsetMode, check_derivation, check_duality,
                        check_rota_baxter, nary_from_associative,
                        subset_expansion)
from .reports import (ArgumentError, CheckReport, Counterexample,
                      FileFormatError, InternalConsistencyError,
                      PreconditionError)
from .scalars import Scalar, format_rational, parse_rational, rational
from .search import SearchResult, SearchSpec, search
from .tensor import (StructureTensor, basis, skew_from_values, sort_with_sign,
                     stored_keys, tensors_equal)

__version__ = "1.0.0"

# the exported names of the modules loaded on first use, by module
_LAZY = {
    "files": ("dumps", "load", "loads", "save", "save_report"),
    "inheritance": ("check_derivation_transfer", "check_rb_lts_transfer",
                    "cor53_bracket", "cor54_bracket", "cor54_bracket_literal",
                    "cor55_bracket", "derived_lts_bracket", "derived_nbracket",
                    "lts_from_lie", "naive_bracket"),
    "selftest": ("run_selftest",),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

# as when every module loaded eagerly: each public name bound here, the
# submodules included, and each module loaded on first use with its names
__all__ = sorted({name for name in globals() if not name.startswith("_")}
                 | set(_LAZY) | set(_HOME))


def __getattr__(name):
    module = _HOME.get(name, name)
    if module not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = import_module(f".{module}", __name__)
    if module != name:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
