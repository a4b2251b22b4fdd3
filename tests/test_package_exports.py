"""``import algcheck`` and ``catalog()`` load only the modules they need,
and every name the package exports is its defining module's object however
it is first reached.  Each case runs in a fresh interpreter, the only place
where what is loaded, and in what order, is known."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import algcheck

SRC = Path(algcheck.__file__).resolve().parents[1]

# every name the package exports, by defining module
EXPORTS = {
    "algebra": ("Algebra", "OperatorClaim"),
    "axioms": ("ad_map", "annihilator_of_image", "check_associative",
               "check_commutative", "check_lie", "check_lts",
               "check_n_jacobi", "check_prelie", "check_skew_symmetric",
               "commutator"),
    "catalog": ("catalog", "catalog_names"),
    "constructions": ("cor33_condition", "det_bracket_2", "det_bracket_3",
                      "det_rb_expansion_check", "derived_prelie",
                      "f_bracket", "fD_bracket", "fd_bracket_value_forms",
                      "prelie_from_comm_assoc", "thm32_condition",
                      "thm35_f_condition", "thm36_bracket",
                      "thm36_f_condition", "thm36_rb_condition",
                      "thm42_condition"),
    "files": ("dumps", "load", "loads", "save", "save_report"),
    "inheritance": ("check_derivation_transfer", "check_rb_lts_transfer",
                    "cor53_bracket", "cor54_bracket", "cor54_bracket_literal",
                    "cor55_bracket", "derived_lts_bracket",
                    "derived_nbracket", "lts_from_lie", "naive_bracket"),
    "linalg": ("LinearForm", "LinearMap", "basis_vector", "kernel_basis",
               "kernel_membership", "maps_commute", "nullspace", "vector"),
    "operators": ("SubsetMode", "check_derivation", "check_duality",
                  "check_rota_baxter", "nary_from_associative",
                  "subset_expansion"),
    "reports": ("ArgumentError", "CheckReport", "Counterexample",
                "FileFormatError", "InternalConsistencyError",
                "PreconditionError"),
    "scalars": ("Scalar", "format_rational", "parse_rational", "rational"),
    "search": ("SearchResult", "SearchSpec", "search"),
    "selftest": ("run_selftest",),
    "tensor": ("StructureTensor", "basis", "skew_from_values",
               "sort_with_sign", "stored_keys", "tensors_equal"),
}
# the submodules a star import also gives; the functions catalog and search
# shadow theirs
SUBMODULES = tuple(m for m in EXPORTS if m not in ("catalog", "search"))
LAZY = ("files", "inheritance", "selftest")

# ``same(value, module, name)``: ``value`` is the object ``name`` names in
# algcheck.<module>, or that module itself without a ``name``
HEADER = f"""
import importlib, sys
EXPORTS = {EXPORTS!r}
SUBMODULES = {SUBMODULES!r}

def same(value, module, name=None):
    home = importlib.import_module("algcheck." + module)
    expected = home if name is None else getattr(home, name)
    assert value is expected, (module, name, value)
"""


def run(code, *args):
    """The stdout of ``code`` in a fresh interpreter that imports the
    package under test; fails on a nonzero exit with its stderr."""
    path = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_and_catalog_leave_the_pool_logging_and_lazy_modules_out():
    out = run("""
import sys
import algcheck
algcheck.catalog()
print([m for m in ("concurrent.futures.process", "multiprocessing",
                   "logging", "json", "algcheck.files",
                   "algcheck.inheritance", "algcheck.selftest")
       if m in sys.modules])
ok, lines = algcheck.run_selftest(workers=2)
print(ok, len(lines), sum(line.startswith("PASS ") for line in lines))
""")
    loaded, selftest = out.splitlines()
    assert ast.literal_eval(loaded) == []
    assert selftest == "True 125 125"


def test_import_and_catalog_leave_dataclasses_inspect_and_typing_out():
    # the records are reports.Record, not dataclasses; typing counts only
    # where the interpreter's start-up has not loaded it already
    out = run("""
import sys
before = set(sys.modules)
import algcheck
algcheck.catalog()
print([m for m in ("dataclasses", "inspect") if m in sys.modules])
print("typing" in set(sys.modules) - before)
""")
    loaded, typing = out.splitlines()
    assert ast.literal_eval(loaded) == []
    assert typing == "False"


def test_the_catalog_command_leaves_the_lazy_modules_out():
    # each command imports files, inheritance and selftest where it uses
    # them; listing the catalog uses none of them
    out = run("""
import io, sys
from algcheck.cli import run_cli
listing = io.StringIO()
print(run_cli(["catalog"], out=listing), len(listing.getvalue().splitlines()))
print([m for m in ("json", "algcheck.files", "algcheck.inheritance",
                   "algcheck.selftest") if m in sys.modules])
""")
    code, loaded = out.splitlines()
    exit_code, lines = code.split()
    assert exit_code == "0" and int(lines) > 0
    assert ast.literal_eval(loaded) == []


@pytest.mark.parametrize("name", LAZY + tuple(
    name for module in LAZY for name in EXPORTS[module]))
def test_a_lazy_name_touched_first_is_its_module_object(name):
    module = name if name in LAZY else next(
        m for m in LAZY if name in EXPORTS[m])
    run(HEADER + """
import algcheck
name, module = sys.argv[1:]
value = getattr(algcheck, name)
same(value, module, None if name == module else name)
assert getattr(algcheck, name) is value
""", name, module)


def test_every_export_is_its_module_object_after_submodule_imports():
    run(HEADER + """
import algcheck.selftest
import algcheck.search
import algcheck
# algcheck.search and algcheck.catalog are the functions, not the modules
for module, names in EXPORTS.items():
    for name in names:
        same(getattr(algcheck, name), module, name)
for module in SUBMODULES:
    same(getattr(algcheck, module), module)
""")


def test_star_import_and_dir_give_every_export_and_submodule():
    run(HEADER + """
import algcheck
names = {n for ns in EXPORTS.values() for n in ns} | set(SUBMODULES)
assert names <= set(dir(algcheck)), names - set(dir(algcheck))
star = {}
exec("from algcheck import *", star)
for module, names in EXPORTS.items():
    for name in names:
        same(star[name], module, name)
for module in SUBMODULES:
    same(star[module], module)
""")
