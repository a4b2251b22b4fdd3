"""Axiom checkers for the algebra classes handled by the workbench.

Every universally quantified identity here is multilinear in each argument,
so it holds for all vectors iff it holds on basis tuples; the checkers only
iterate basis tuples and this reduction is relied on throughout.  Every
check hands its tuples, in lexicographic order, to
:func:`reports.first_failure`, which reports the first failure; that makes
counterexamples deterministic.  The tuples come from
:func:`tensor.basis_tuples`, keyed by the symmetry of the identity in a
block of its arguments.  Where it is alternating in a block (the n-Jacobi
identity on a skew tensor, the binary Jacobi identity, the commutator
conditions) only strictly ascending blocks are scanned: a repeated index
inside the block satisfies the identity trivially (both sides cancel
pairwise), and a non-ascending tuple fails iff its blockwise-sorted,
lexicographically smaller companion fails.  Where it is symmetric in a
block (the polarized first Lie-triple-system axiom) only sorted blocks are
scanned, by the same argument without the repeated-index case.  Either
way the first reduced failure is still the lexicographically least failing
basis tuple.  ``checked_count`` always reports the full logical tuple count.

The n-Jacobi, associativity, pre-Lie and binary Jacobi identities, and the
derivation axiom of a Lie triple system, are quadratic in the product: each
side is a sum of one-level compositions t(..., t(...), ...) of basis
vectors, stated once as data, ``(coeff, inner, outer)`` per composition.
Their scans visit blocks of ``basis_tuples`` concatenated: ascending xs then
ascending ys for n-Jacobi, i < j then any k for pre-Lie, ascending triples
for the binary Jacobi identity, every triple for associativity and every
5-tuple for the derivation axiom.  They decide the scan from the sparse
difference of the two sides (:func:`reports.decide`), which
``_least_composed`` builds from ``t.table`` alone, from the same
compositions with those of rhs negated; only a failing check evaluates its
sides one tuple, the one it reports, each side one contraction of its
compositions (``_composed_side``).
A term of a composition takes an inner source key J of the table, a nonzero
coordinate c at v of its product, and an outer source key K with v in the
slot of the inner product; it lands on the tuple whose positions J and K,
less that slot, name, with the coefficient of the composition times c times
the product of K.  The difference at a tuple is exactly lhs - rhs there:
both sides and the difference are read off the same compositions, so by
construction the terms landing on a tuple, with the coefficients of their
compositions, are the summands of lhs and rhs as ``_composed_side``
expands them over the same table.  Each is a product of two constants, so
with every constant made an integer by their common denominator q (the
table scaled once per tensor and kept on it, ``tensor.integer_table``)
the terms add up exactly to q**2 (lhs - rhs), which divided by q**2 is
lhs - rhs, zero iff the two sides are equal.  ``decide`` shows why the
report is then the per-tuple one, given the two facts below.

*The least nonzero code is the least nonzero tuple.*  A term landing on
the tuple idx of length L at the coordinate k of the difference is added
under the int code sum_p idx[p] d**(L-p) + k.  Its base-d digits are idx
then k, each below d, so distinct landings have distinct codes and codes
are ordered as the pairs (idx, k) are, lexicographically.  The least code
with a nonzero sum therefore names the least tuple with a nonzero
difference, which ``decide`` needs (its step 2).  J and K name disjoint
positions, so a code is J's part plus K's part plus k, each part summed
once per key.

*The terms kept are those that rise.*  A term is kept iff its tuple rises
as the scanned tuples do (``decide``, step 1).  Of J and K, the one
naming position 0 drives and the other is its partner.  A rise inside
one key is tested once per key.  A rise across them bounds one entry of
the partner: from below by an entry of the driver plus the rise, or from
above by an entry of the driver less the rise.  The partners under each
v are sorted by the entry the first cross rise bounds, so those meeting
every rise on that entry are one contiguous range, found by bisection; a
cross rise on any other entry is tested per pair.  In every composition
here the cross rises bound one entry at most.  For n-Jacobi, in the rhs
term i > 0 it is the x_i of the inner key, between x_(i-1) and x_(i+1)
of the outer key, in term 0 the x_1 of the outer key, and the lhs has
none (xs and ys are separate blocks).  For the Lie and pre-Lie
identities it is the partner's entry at position 1 or 2.  Associativity
and the derivation axiom scan every tuple and have none.

Degenerate dimensions 0 and 1 are legal; checks pass vacuously.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import wraps
from operator import mul

from .linalg import LinearForm, LinearMap, basis_vector, nullspace
from .reports import (ArgumentError, CheckReport, decide, failing,
                      first_failure, passing)
from .scalars import rational
from .tensor import RISE, StructureTensor, basis_tuples, integer_table


def _kept(check):
    """``check(t)``, whose report depends on the frozen ``t`` alone, kept on it."""
    @wraps(check)
    def kept(t: StructureTensor) -> CheckReport:
        return t._memo(check.__name__, check)
    return kept


@_kept
def check_skew_symmetric(t: StructureTensor) -> CheckReport:
    """Does evaluation change sign under every transposition of arguments?

    Adjacent transpositions are checked on every basis tuple; they generate
    the full symmetric group, so this is complete.  Tuples with repeated
    indices are included: skewness over a characteristic-0 field forces
    their product to vanish.
    """
    name = "skew-symmetric"
    count = t.dimension ** t.arity * max(t.arity - 1, 1)
    if t.symmetry == "skew":
        return passing(name, count)  # holds by construction of the storage

    def sides(idx):  # the first swapped product that is not -t(idx)
        neg = tuple(-a for a in t.basis_product(idx))
        swaps = (t.basis_product(idx[:p] + (idx[p + 1], idx[p]) + idx[p + 2:])
                 for p in range(t.arity - 1))
        return next((got for got in swaps if got != neg), neg), neg
    return first_failure(name, count, basis_tuples(t.arity, t.dimension, "none"),
                         sides)


def _require_skew(t):
    rep = check_skew_symmetric(t)
    if not rep.passed:
        raise ArgumentError(
            "tensor is not skew-symmetric "
            f"(violation at basis tuple {rep.counterexample.indices})")


def _composed_side(t: StructureTensor, compositions, idx):
    """The sum of ``compositions`` at the basis tuple ``idx``, as one
    contraction with one term per composition; a coefficient other than 1
    scales the inner product in its slot."""
    pairs = t.table.get
    terms = []
    for coeff, inner, outer in compositions:
        slot = pairs(tuple(idx[p] for p in inner), ())
        if coeff != 1:
            slot = tuple((k, coeff * c) for k, c in slot)
        terms.append(tuple(slot if p is None else idx[p] for p in outer))
    return t.contract(*terms)


def _decide_composed(name, count, t: StructureTensor, blocks, lhs,
                     rhs) -> CheckReport:
    """The report of ``first_failure`` over the tuples of ``blocks`` (one
    tuple of ``basis_tuples(k, d, symmetry)`` per block ``(k, symmetry)``,
    concatenated, in lex order) with the sides ``lhs`` and ``rhs``, sums of
    compositions, decided from the least tuple where lhs - rhs is nonzero."""
    return decide(name, count,
                  lambda idx: (_composed_side(t, lhs, idx),
                               _composed_side(t, rhs, idx)),
                  lambda: _least_composed(
                      t, blocks, [*lhs, *((-c, i, o) for c, i, o in rhs)]))


def _steps(names, rises):
    """``(i, h, r)``: entry i of a key naming the positions ``names`` must
    exceed entry h by at least r, for the tuple to rise as the scan's do."""
    at = {p: i for i, p in enumerate(names)}
    return [(at[p], at[p - 1], r) for p, r in rises.items()
            if p in at and p - 1 in at]


def _rises(values, steps):
    for i, h, r in steps:
        if values[i] < values[h] + r:
            return False
    return True


def _least_composed(t: StructureTensor, blocks, compositions):
    """``(key, lhs - rhs)`` at the least tuple of ``blocks`` where the sum
    of ``compositions`` is nonzero, or ``None``.

    A composition ``(coeff, inner, outer)`` is coeff times the product at
    the positions ``outer`` of the tuple with the product at the positions
    ``inner`` in the slot marked ``None``; each position is named once.
    Its terms are those of the module docstring: an inner key J and an
    outer key K name the positions of the tuple they land on, the slot
    aside.  All terms landing on a tuple share its first index, so they are
    expanded one first index at a time, in increasing order, and the least
    nonzero code of the first index that has one is the least overall.
    Of J and K, the one that names position 0 drives: it is looked up by
    its first index, its partners by v.
    """
    d = t.dimension
    q, rows = integer_table(t)
    rises, length = {}, 0  # position -> least rise from the one before it
    for k, symmetry in blocks:
        if RISE[symmetry] is not None:
            rises.update(dict.fromkeys(range(length + 1, length + k),
                                       RISE[symmetry]))
        length += k
    place = _places(d, length)
    groups = {0: rows}

    def group(s):
        """The table keys by their entry at index s, as ``(key, pairs)``,
        or by each output coordinate v of their product, as ``(key, c)``,
        for s None; built on first use."""
        if s not in groups:
            got = groups[s] = [[] for _ in range(d)]
            for row in rows:
                for key, pairs in row:
                    if s is None:
                        for v, c in pairs:
                            got[v].append((key, c))
                    else:
                        got[key[s]].append((key, pairs))
        return groups[s]

    landers = [_lander(group, rises, place, *composition)
               for composition in compositions]

    def landed(first):
        diff = {}
        for land in landers:
            land(first, diff)
        return diff
    return _least_code(map(landed, range(d)), place, d, q * q)


def _places(d, length):
    """The weight of each position in the code of a landing: the landing on
    the tuple idx at the coordinate k of the difference is added under
    sum_p idx[p] d**(length-p) + k."""
    return [d ** (length - p) for p in range(length)]


def _least_code(diffs, place, d, scale):
    """``(key, lhs - rhs)`` at the tuple of the least code with a nonzero
    sum in the first of the per-first-index dicts ``diffs`` that has one
    (later ones are never summed), each coordinate the sum over ``scale``."""
    for diff in diffs:
        nonzero = [code for code, a in diff.items() if a]
        if nonzero:
            base = min(nonzero) // d * d
            return (tuple(base // w % d for w in place),
                    tuple(rational(diff.get(base + k, 0), scale)
                          for k in range(d)))
    return None


def _lander(group, rises, place, coeff, inner, outer):
    """``land(first, diff)``: adds q**2 times each term of the composition
    ``(coeff, inner, outer)`` whose tuple has the first index ``first`` and
    rises as the scan's do to ``diff``, under the code of its landing."""
    slot = outer.index(None)
    # a key's part of the code is the sum of its entries times these
    j_place, k_place = ([0 if p is None else place[p] for p in names]
                        for names in (inner, outer))
    j_drives = 0 in inner
    drive, other = (inner, outer) if j_drives else (outer, inner)
    drive_steps, other_steps = _steps(drive, rises), _steps(other, rises)
    # the rises between the two keys: entry e of the partner at least entry
    # f of the driver plus r (sign 1), or at most it less r (sign -1)
    at_drive = {p: i for i, p in enumerate(drive)}
    at_other = {p: i for i, p in enumerate(other)}
    cross = [(at_other[p], at_drive[p - 1], r, 1) for p, r in rises.items()
             if p in at_other and p - 1 in at_drive]
    cross += [(at_other[p - 1], at_drive[p], r, -1) for p, r in rises.items()
              if p in at_drive and p - 1 in at_other]
    # the partners are sorted by the entry the first cross rise bounds, so
    # its rises, and those of the others on that entry, are a range of them
    e = cross[0][0] if cross else None
    ranged = [c for c in cross if c[0] == e]
    paired = [c for c in cross if c[0] != e]
    partners = {}

    def partners_of(v):
        """``(entries, partners)``: each partner under v, sorted by its
        entry e, and those entries.  A J partner is ``(key, code, coeff *
        c)``, a K partner ``(key, landings)``, each landing its code plus
        k with its constant."""
        if j_drives:
            got = []
            for key, pairs in group(slot)[v]:
                if _rises(key, other_steps):
                    base = sum(map(mul, key, k_place))
                    got.append((key, [(base + k, a) for k, a in pairs]))
        else:
            got = [(key, sum(map(mul, key, j_place)), coeff * c)
                   for key, c in group(None)[v] if _rises(key, other_steps)]
        if e is not None:
            got.sort(key=lambda item: item[0][e])
        entries = [item[0][e] for item in got] if cross else ()
        partners[v] = found = entries, got
        return found

    def span(key, v):
        """The partners under v that rise with the driver ``key``."""
        entries, got = partners.get(v) or partners_of(v)
        if not cross:
            return got
        lo, hi = 0, len(got)
        for _, f, r, sign in ranged:
            if sign > 0:
                lo = max(lo, bisect_left(entries, key[f] + r))
            else:
                hi = min(hi, bisect_right(entries, key[f] - r))
        if not paired:
            return got[lo:hi]
        return [partner for partner in got[lo:hi]
                if all(sign * (partner[0][g] - key[f]) >= r
                       for g, f, r, sign in paired)]

    lead = drive.index(0)

    def land(first, diff):
        get = diff.get
        for key, pairs in group(lead)[first]:
            if not _rises(key, drive_steps):
                continue
            if j_drives:
                cj = sum(map(mul, key, j_place))
                for v, c in pairs:
                    w = coeff * c
                    for _, landings in span(key, v):
                        for x, a in landings:
                            diff[cj + x] = get(cj + x, 0) + w * a
            else:
                base = sum(map(mul, key, k_place))
                landings = [(base + k, a) for k, a in pairs]
                for _, cj, w in span(key, key[slot]):
                    for x, a in landings:
                        diff[cj + x] = get(cj + x, 0) + w * a
    return land


@_kept
def check_n_jacobi(t: StructureTensor) -> CheckReport:
    """Fundamental identity of an n-Lie bracket, over all basis tuples.

    The bracket of the first n arguments must act as a derivation of the
    bracket in the remaining n-1 ones; this derivation form is the one
    scanned.  For ternary brackets the bracket-first form

        [[x0, x1, x2], y0, y1] = [[x0, y0, y1], x1, x2]
                                 + [[x1, y0, y1], x2, x0]
                                 + [[x2, y0, y1], x0, x1]

    is the same sum, term by term, so it is not scanned again.  Term 0 is
    the same key in both forms; terms 1 and 2 differ by a cyclic shift,
    ``(x0, v, x2)`` against ``(v, x2, x0)`` and ``(x0, x1, v)`` against
    ``(v, x0, x1)``.  A cyclic shift of three slots is an even permutation,
    so once the bracket is skew both keys give the same products: on
    ``skew`` storage by construction of the table, on ``none`` storage
    because :func:`check_skew_symmetric` passed on every adjacent swap.

    Both sides are compositions of the bracket with itself, t(t(xs), ys)
    and the sum over i of t(xs with t(x_i, ys) at slot i), decided as in
    the module docstring.
    """
    n = t.arity
    _require_skew(t)
    xs, ys = tuple(range(n)), tuple(range(n, 2 * n - 1))
    return _decide_composed(
        f"{n}-jacobi", t.dimension ** (2 * n - 1), t,
        ((n, "skew"), (n - 1, "skew")), ((1, xs, (None,) + ys),),
        [(1, (i,) + ys, xs[:i] + (None,) + xs[i + 1:]) for i in range(n)])


# each quadratic identity of a binary product as its (lhs, rhs), each side
# compositions as ``_least_composed`` reads them: (e0 e1) e2 = e0 (e1 e2);
# the associator at (e0, e1, e2) equals the one at (e1, e0, e2); and the
# cyclic sum of (e0 e1) e2 vanishes
_ASSOCIATIVE = (((1, (0, 1), (None, 2)),), ((1, (1, 2), (0, None)),))
_PRELIE = (((1, (0, 1), (None, 2)), (-1, (1, 2), (0, None))),
           ((1, (1, 0), (None, 2)), (-1, (0, 2), (1, None))))
_LIE_JACOBI = (((1, (0, 1), (None, 2)), (1, (1, 2), (None, 0)),
                (1, (2, 0), (None, 1))), ())
# {e0 e1 e2} e3 e4 acts as a derivation: {{e0 e1 e2} e3 e4} =
# {{e0 e3 e4} e1 e2} + {e0 {e1 e3 e4} e2} + {e0 e1 {e2 e3 e4}}
_LTS_DERIVATION = (((1, (0, 1, 2), (None, 3, 4)),),
                   ((1, (0, 3, 4), (None, 1, 2)), (1, (1, 3, 4), (0, None, 2)),
                    (1, (2, 3, 4), (0, 1, None))))


@_kept
def check_associative(t: StructureTensor) -> CheckReport:
    """(xy)z = x(yz) over all basis triples, decided as in the module
    docstring."""
    if t.arity != 2:
        raise ArgumentError("associativity is a binary axiom")
    return _decide_composed("associative", t.dimension ** 3, t,
                            ((3, "none"),), *_ASSOCIATIVE)


@_kept
def check_commutative(t: StructureTensor) -> CheckReport:
    if t.arity != 2:
        raise ArgumentError("commutativity is a binary axiom")
    return first_failure("commutative", t.dimension ** 2,
                         basis_tuples(2, t.dimension, "skew"),
                         lambda ij: (t.contract(ij), t.contract(ij[::-1])))


@_kept
def check_lie(t: StructureTensor) -> CheckReport:
    """Antisymmetry plus the binary Jacobi identity (cyclic form), the
    latter decided as in the module docstring."""
    if t.arity != 2:
        raise ArgumentError("the Lie axioms are binary")
    skew = check_skew_symmetric(t)
    count = skew.checked_count + t.dimension ** 3
    if not skew.passed:
        c = skew.counterexample
        return failing("lie", count, c.indices, c.lhs, c.rhs)
    return _decide_composed("lie", count, t, ((3, "skew"),), *_LIE_JACOBI)


@_kept
def check_prelie(t: StructureTensor) -> CheckReport:
    """Left pre-Lie: the associator is symmetric in its first two arguments.

    The associator at (i, j, k) is scanned against the one at (j, i, k) on
    i < j: the identity is alternating in (i, j).  Both sides are
    associators, composed of the product with itself, and the scan is
    decided as in the module docstring.
    """
    if t.arity != 2:
        raise ArgumentError("the pre-Lie axiom is binary")
    return _decide_composed("prelie", t.dimension ** 3, t,
                            ((2, "skew"), (1, "none")), *_PRELIE)


@_kept
def check_lts(t: StructureTensor) -> CheckReport:
    """The three Lie-triple-system axioms, in order.

    The vanishing of {x,y,y} is checked in its polarized form
    {x,y,z} + {x,z,y} = 0 (equivalent in characteristic 0); then the cyclic
    sum; then the five-argument derivation identity, decided as in the
    module docstring.
    """
    if t.arity != 3:
        raise ArgumentError("the Lie-triple-system axioms are ternary")
    d = t.dimension
    zero = (0,) * d
    count = d ** 3 + d ** 3 + d ** 5
    scans = (
        (((i, j, k) for i in range(d) for j, k in basis_tuples(2, d, "symmetric")),
         lambda idx: (t.contract(idx, (idx[0], idx[2], idx[1])), zero)),
        (basis_tuples(3, d, "none"),
         lambda idx: (t.contract(idx, idx[1:] + idx[:1], idx[2:] + idx[:2]), zero)))
    for scan in scans:
        rep = first_failure("lts", count, *scan)
        if not rep.passed:
            return rep
    return _decide_composed("lts", count, t, ((5, "none"),), *_LTS_DERIVATION)


# every axiom check by its name on the command line
AXIOM_CHECKS = {
    "jacobi": check_n_jacobi,
    "skew": check_skew_symmetric,
    "assoc": check_associative,
    "comm": check_commutative,
    "prelie": check_prelie,
    "lie": check_lie,
    "lts": check_lts,
}

# the axioms each claim of an algebra file asserts, in the order checked
CLAIM_AXIOMS = {"3lie": ("skew", "jacobi"), "assoc": ("assoc",),
                "comm": ("comm",), "lie": ("lie",), "prelie": ("prelie",),
                "lts": ("lts",)}


def commutator(t: StructureTensor) -> StructureTensor:
    """Skew tensor x*y - y*x of a binary product."""
    if t.arity != 2:
        raise ArgumentError("commutator needs a binary product")

    def value(key):
        i, j = key
        return tuple(a - b for a, b in zip(
            t.basis_product((i, j)), t.basis_product((j, i))))

    return StructureTensor.from_function(2, t.dimension, "skew", value)


def ad_map(t: StructureTensor, fixed) -> LinearMap:
    """Matrix of ``v -> t(fixed[0], ..., fixed[-1], v)``."""
    if len(fixed) != t.arity - 1:
        raise ArgumentError(
            f"ad_map needs {t.arity - 1} fixed arguments, got {len(fixed)}")
    fixed = list(fixed)
    d = t.dimension
    return LinearMap(tuple(
        t.evaluate(fixed + [basis_vector(d, j)]) for j in range(d)))


def annihilator_of_image(t: StructureTensor) -> list[LinearForm]:
    """Canonical basis of the forms vanishing on every basis-tuple product."""
    rows = list(t.entries.values())
    return [LinearForm(v) for v in nullspace(rows, t.dimension)]
