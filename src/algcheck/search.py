"""Hypothesis discovery: annihilating forms, determinant-bracket form
conditions, and small Rota-Baxter operators.

The two form targets are linear in the unknown and are solved exactly by
nullspace computation, so their answers are complete.  The Rota-Baxter
target is quadratic in the unknown matrix; it is searched by exhaustive
grid or seeded random enumeration over a finite entry set, which is sound
(every result re-verifies) but not complete.  Every returned object carries
the verifying report as its certificate; nothing trusts the search path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product as iproduct

from .algebra import Algebra
from .constructions import _fd_rows
from .linalg import LinearForm, LinearMap, nullspace
from .operators import check_rota_baxter
from .reports import ArgumentError, CheckReport, InternalConsistencyError, passing
from .scalars import norm
from .tensor import StructureTensor, stored_keys

TARGETS = ("rb_operator", "annihilating_form", "fD_form")
STRATEGIES = ("solve", "grid", "random")


@dataclass(frozen=True)
class SearchSpec:
    """What to look for and how.

    ``product`` names the product of the algebra to search against; ``map``
    names the derivation for the ``fD_form`` target.  ``entry_set`` and
    ``max_candidates`` bound the quadratic (rb_operator) enumeration;
    ``seed`` makes the random strategy reproducible.
    """

    target: str
    product: str
    weight: object = 0
    strategy: str = "solve"
    map: str = ""
    entry_set: tuple = (-1, 0, 1)
    max_candidates: int = 100000
    seed: int = 0

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ArgumentError(f"unknown search target {self.target!r}")
        if self.strategy not in STRATEGIES:
            raise ArgumentError(f"unknown strategy {self.strategy!r}")
        if self.max_candidates < 0:
            raise ArgumentError(
                f"max_candidates must be non-negative, got {self.max_candidates}")
        if self.target == "rb_operator" and self.strategy == "solve":
            raise ArgumentError(
                "the Rota-Baxter condition is quadratic in the operator; "
                "the solve strategy applies only to the linear form targets")
        if self.target != "rb_operator" and self.strategy != "solve":
            raise ArgumentError(
                f"target {self.target!r} is linear in the unknown; "
                "use the complete solve strategy")


@dataclass(frozen=True)
class SearchResult:
    """Found object plus the report that re-verifies it."""

    found: object  # LinearMap or LinearForm
    certificate: CheckReport


def _product(alg: Algebra, spec: SearchSpec) -> StructureTensor:
    if spec.product not in alg.products:
        raise ArgumentError(f"algebra has no product named {spec.product!r}")
    return alg.products[spec.product]


def _verify_form_on_rows(rows, form, name) -> CheckReport:
    for i, row in enumerate(rows):
        if form(row) != 0:
            raise InternalConsistencyError(
                f"solved {name} fails on constraint row {i}")
    return passing(name, len(rows))


def _annihilating_rows(t: StructureTensor):
    return [t.basis_product(key) for key in stored_keys(
        t.arity, t.dimension, t.symmetry)]


def search(alg: Algebra, spec: SearchSpec) -> list:
    """Run the search; returns :class:`SearchResult` objects.

    Form targets return the canonical nullspace basis of their linear
    condition (a complete answer).  The rb_operator target enumerates
    candidate matrices and keeps those passing the exact Rota-Baxter check.
    """
    t = _product(alg, spec)
    if spec.target == "annihilating_form":
        rows = _annihilating_rows(t)
        basis = nullspace(rows, t.dimension)
        return [SearchResult(LinearForm(v),
                             _verify_form_on_rows(rows, LinearForm(v),
                                                  "annihilating-form"))
                for v in basis]
    if spec.target == "fD_form":
        if spec.map not in alg.maps:
            raise ArgumentError(f"algebra has no map named {spec.map!r}")
        rows = [row for _, row in _fd_rows(t, alg.maps[spec.map])]
        basis = nullspace(rows, t.dimension)
        return [SearchResult(LinearForm(v),
                             _verify_form_on_rows(rows, LinearForm(v),
                                                  "fD-form-condition"))
                for v in basis]
    return _search_rb(t, spec)


def _search_rb(t: StructureTensor, spec: SearchSpec) -> list:
    d = t.dimension
    lam = norm(spec.weight)
    entry_set = tuple(norm(e) for e in spec.entry_set)
    results = []
    seen = set()

    def consider(flat):
        if flat in seen:
            return
        seen.add(flat)
        p = LinearMap.from_cols(
            [flat[j * d:(j + 1) * d] for j in range(d)])
        rep = check_rota_baxter(t, p, lam)
        if rep.passed:
            results.append(SearchResult(p, rep))

    if spec.strategy == "grid":
        for count, flat in enumerate(iproduct(entry_set, repeat=d * d)):
            if count >= spec.max_candidates:
                break
            consider(flat)
    else:
        rng = random.Random(spec.seed)
        for _ in range(spec.max_candidates):
            consider(tuple(rng.choice(entry_set) for _ in range(d * d)))
    return results
