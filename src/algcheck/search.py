"""Hypothesis discovery: annihilating forms, determinant-bracket form
conditions, and small Rota-Baxter operators.

The two form targets are linear in the unknown and are solved exactly by
nullspace computation, so their answers are complete.  The Rota-Baxter
target is quadratic in the unknown matrix; it is searched over the matrices
with entries in a finite entry set, by grid or by seeded random draws.  The
grid is exhaustive over its entry set unless ``max_candidates`` cuts it
short: it returns every Rota-Baxter operator with entries in the set, in
grid order.  Random draws are sound but not complete; each distinct draw
fails at its first failing basis tuple, and only one that passes them all
is checked in full.

The grid fixes the columns of the candidate one at a time and prunes.  Each
basis tuple of the identity depends only on the columns it names and the
columns in the support of its subset expansion, so it is decided once those
are fixed; when a decided tuple fails, every completion of the partial
matrix fails there too, and the whole block of grid points below is skipped
(the proof is in ``_pruned_grid``).  A skipped block still counts towards
``max_candidates``.  Every returned object carries the report of a full
check as its certificate; nothing trusts the search path.
"""

from __future__ import annotations

import random
from itertools import chain
from itertools import product as iproduct

from .algebra import Algebra
from .constructions import _fd_rows
from .linalg import LinearForm, LinearMap, nullspace, support
from .operators import _sides, check_rota_baxter
from .reports import (ArgumentError, CheckReport, Record, conclude,
                      first_failure)
from .scalars import norm
from .tensor import StructureTensor, basis_tuples

TARGETS = ("rb_operator", "annihilating_form", "fD_form")
STRATEGIES = ("solve", "grid", "random")


class SearchSpec(Record):
    """What to look for and how.

    ``product`` names the product of the algebra to search against; ``map``
    names the derivation for the ``fD_form`` target.  ``entry_set`` and
    ``max_candidates`` bound the quadratic (rb_operator) enumeration;
    ``seed`` makes the random strategy reproducible.
    """

    _fields = ("target", "product", "weight", "strategy", "map", "entry_set",
               "max_candidates", "seed")

    def __init__(self, target: str, product: str, weight=0,
                 strategy: str = "solve", map: str = "",
                 entry_set: tuple = (-1, 0, 1), max_candidates: int = 100000,
                 seed: int = 0):
        d = self.__dict__
        d["target"] = target
        d["product"] = product
        d["weight"] = weight
        d["strategy"] = strategy
        d["map"] = map
        d["entry_set"] = entry_set
        d["max_candidates"] = max_candidates
        d["seed"] = seed
        self.__post_init__()

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ArgumentError(f"unknown search target {self.target!r}")
        if self.strategy not in STRATEGIES:
            raise ArgumentError(f"unknown strategy {self.strategy!r}")
        if self.max_candidates < 0:
            raise ArgumentError(
                f"max_candidates must be non-negative, got {self.max_candidates}")
        if self.target == "rb_operator" and not self.entry_set:
            raise ArgumentError(
                "the rb_operator target needs a nonempty entry_set")
        if self.target == "rb_operator" and self.strategy == "solve":
            raise ArgumentError(
                "the Rota-Baxter condition is quadratic in the operator; "
                "the solve strategy applies only to the linear form targets")
        if self.target != "rb_operator" and self.strategy != "solve":
            raise ArgumentError(
                f"target {self.target!r} is linear in the unknown; "
                "use the complete solve strategy")


class SearchResult(Record):
    """Found object plus the report that re-verifies it."""

    _fields = ("found", "certificate")

    def __init__(self, found, certificate: CheckReport):
        # found is a LinearMap or a LinearForm
        d = self.__dict__
        d["found"] = found
        d["certificate"] = certificate


def _product(alg: Algebra, spec: SearchSpec) -> StructureTensor:
    if spec.product not in alg.products:
        raise ArgumentError(f"algebra has no product named {spec.product!r}")
    return alg.products[spec.product]


def _form_certificate(form: LinearForm, rows: dict, name: str) -> CheckReport:
    """The report that ``form`` vanishes on every constraint row, keyed by
    its basis tuple; a row it misses is a bug in the solve."""
    return conclude(first_failure(name, len(rows), rows,
                                  lambda key: (form(rows[key]), 0)),
                    f"solved {name}")


def search(alg: Algebra, spec: SearchSpec) -> list:
    """Run the search; returns :class:`SearchResult` objects.

    Form targets return the canonical nullspace basis of their linear
    condition (a complete answer).  The rb_operator target enumerates
    candidate matrices and keeps those passing the exact Rota-Baxter check.
    """
    t = _product(alg, spec)
    if spec.target == "rb_operator":
        return _search_rb(t, spec)
    if spec.target == "annihilating_form":
        name, rows = "annihilating-form", {
            key: t.basis_product(key)
            for key in basis_tuples(t.arity, t.dimension, t.symmetry)}
    else:
        if spec.map not in alg.maps:
            raise ArgumentError(f"algebra has no map named {spec.map!r}")
        name, rows = "fD-form-condition", dict(_fd_rows(t, alg.maps[spec.map]))
    return [SearchResult(form, _form_certificate(form, rows, name))
            for form in map(LinearForm, nullspace(list(rows.values()), t.dimension))]


def _search_rb(t: StructureTensor, spec: SearchSpec) -> list:
    d = t.dimension
    lam = norm(spec.weight)
    entry_set = tuple(norm(e) for e in spec.entry_set)
    if spec.strategy == "grid":
        candidates = _pruned_grid(t, lam, entry_set, spec.max_candidates)
    else:
        rng = random.Random(spec.seed)
        draws = dict.fromkeys(tuple(rng.choice(entry_set) for _ in range(d * d))
                              for _ in range(spec.max_candidates))
        candidates = filter(_passes(t, lam), draws)
    results = []
    for flat in dict.fromkeys(candidates):  # each distinct point once
        p = LinearMap.from_cols([flat[j * d:(j + 1) * d] for j in range(d)])
        rep = check_rota_baxter(t, p, lam)
        if rep.passed:
            results.append(SearchResult(p, rep))
    return results


def _passes(t: StructureTensor, lam):
    """``passes(flat)``: whether the matrix ``flat`` (column-major) passes
    every tuple ``check_rota_baxter`` scans, with the sides it scans there,
    ``push(sums(idx))`` of ``operators._sides``; tuple by tuple, up to the
    first failure."""
    d = t.dimension
    cols = [None] * d
    sums, push = _sides(t, cols, lam, True)
    tuples = list(basis_tuples(t.arity, d, t.symmetry))

    def passes(flat):
        cols[:] = [support(flat[j * d:(j + 1) * d]) for j in range(d)]
        return all(lhs == rhs for lhs, rhs in map(push, map(sums, tuples)))
    return passes


def _pruned_grid(t: StructureTensor, lam, entry_set, cap):
    """The points among the first ``cap`` of the grid
    ``iproduct(entry_set, repeat=d*d)`` (flat, column-major) that no partial
    assignment of columns rules out, lazily and in grid order.

    The walk nests d loops, column 0 outermost, each over
    ``iproduct(entry_set, repeat=d)``.  The last entry varies fastest, so
    this is the grid's order, and the node fixing column k heads a block of
    |E|**(d*(d-1-k)) consecutive points.  At a basis tuple ``idx`` of
    ``basis_tuples`` for the product's symmetry, the two sums of the
    Rota-Baxter statement, ``sums(idx)`` (``operators._sides``), read the
    columns in ``idx``; pushing them reads those and the columns in the
    support of the rhs sum, the one side the statement pushes.  The largest
    of these indices, top(idx), is the column that decides the tuple: its
    sums are computed at column max(idx), then they wait in
    ``due[top(idx)]``.

    *A skipped block holds no passing point.*  A node is skipped only when a
    tuple decided at it fails.  Every point of its block agrees with the node
    on every column that tuple reads, so its two sides there are the same,
    and ``check_rota_baxter`` scans that tuple: every point fails it.

    *Every tuple is decided at every leaf.*  Each tuple is met on the path
    to the leaf at column max(idx) <= d-1 and waits in ``due[top(idx)]``
    until column top(idx) <= d-1, which evaluates it: entries leave ``due``
    only when the walk leaves the node that added them.  So a leaf passes at
    every tuple ``check_rota_baxter`` scans, and its full check passes.

    *Each tuple's sums are computed once per value of the columns it
    reads.*  ``sums(idx)`` reads the columns in idx alone, so it is kept,
    with top(idx), by idx and the values of those columns, for the walk:
    one entry per key met, never more than the sums computed without it.
    """
    d = t.dimension
    cols, dense = [None] * d, [None] * d  # the columns fixed so far
    sums, push = _sides(t, cols, lam, True)
    kept = {}  # (sums(idx), top(idx)) by idx and the columns it reads
    by_max = [[] for _ in range(d)]
    for idx in basis_tuples(t.arity, d, t.symmetry):
        by_max[max(idx)].append((idx, sorted(set(idx))))
    due = [[] for _ in range(d)]  # sums(idx) by deciding column
    block = [len(entry_set) ** (d * (d - 1 - k)) for k in range(d)]

    def passes(k):
        # the tuples waiting for column k, then those whose own columns end
        # at k, each evaluated as soon as it is decided
        if any(lhs != rhs for lhs, rhs in map(push, due[k])):
            return False
        for idx, reads in by_max[k]:
            key = (idx, *[dense[i] for i in reads])
            got = kept.get(key)
            if got is None:
                s = sums(idx)
                got = kept[key] = (s, next(
                    (i for i in range(d - 1, k, -1) if s[1][i]), k))
            s, top = got
            if top > k:
                due[top].append(s)
            else:
                lhs, rhs = push(s)
                if lhs != rhs:
                    return False
        return True

    def visit(k, base):
        if k == d:
            yield tuple(chain.from_iterable(dense))
            return
        for col in iproduct(entry_set, repeat=d):
            if base >= cap:
                return
            cols[k], dense[k] = support(col), col
            marks = [len(q) for q in due]
            if passes(k):
                yield from visit(k + 1, base)
            for q, n in zip(due, marks):
                del q[n:]
            base += block[k]

    if cap > 0:  # with d == 0 the one point has no column to count it
        try:
            yield from visit(0, 0)
        finally:
            # visit refers to itself, so the walk's frame is a cycle that
            # only the cyclic collector frees; the kept sums go now
            kept.clear()
