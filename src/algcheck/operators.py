"""Weight-lambda operator identities: Rota-Baxter operators and derivations.

Both identities of a map M on an n-ary product t are stated once, as data,
by :func:`_identity`: each side is a sum of terms coeff * t(...) with M
applied to the arguments at the positions of a bitmask, the side's sum
possibly pushed through M.  Their right sides are the same subset-expansion
sum over the nonempty subsets I of the positions, weighted by
lambda**(|I|-1); the Rota-Baxter rhs applies M outside I and pushes the
sum, the derivation rhs applies M inside I.  Every reader takes the
identity from that statement: the per-tuple sides (``_sides``, also used
by the pruned grid search), :func:`subset_expansion` and ``_landings``,
the one sparse reader of ``t.table``, behind both the checks' difference
(``_least_difference``) and the brackets of ``inheritance`` (``_expansion``,
the rhs before its push on every key a bracket stores).

Both checks report the first failure of the per-tuple scan over
``tensor.basis_tuples``, decided from the sparse difference of the two
sides (:func:`reports.decide`); only a failing check evaluates its sides
one tuple, the one it reports.  A
term takes a source key j of ``t.table`` and pulls its masked slots s back
through M: it lands on the tuple i with i_s = j_s at the other slots and
i_s with M[j_s, i_s] != 0 at those, times those entries, and t[j] pushed
through M if its side is pushed.  The difference at a tuple is exactly
lhs - rhs there: the terms landing on it, with rhs negated, are the
summands of the two sides, and scalars are exact rationals.  With no
nonzero difference a check passes with ``checked_count`` d**n.

The landings are summed in ints and divided once per reported coordinate.
The constants of t are scaled by their common denominator q (kept on the
tensor, ``tensor.integer_table``), the entries of M by theirs, r, and the
coefficients of the statement by theirs, s.  A term with f entries of M,
one per pulled slot and one more if its side is pushed, is a coefficient
times f entries times one constant of t, so scaled it is s r**f q times
its value; its coefficient is multiplied by r**(top - f) too, top the
largest f of the statement, and every term is then s r**top q times its
value.  The landings are coded as in ``axioms`` (tuple and coordinate as
the base-d digits of one int), so the least nonzero code names the least
nonzero tuple.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from functools import lru_cache
from math import lcm

from .axioms import _least_code, _places, check_associative
from .linalg import LinearMap, apply_cols, maps_commute, support, vector
from .reports import (ArgumentError, CheckReport, InternalConsistencyError,
                      PreconditionError, agree, decide, failing, passing)
from .scalars import Scalar, norm, rational
from .tensor import RISE, StructureTensor, descaled, integer_table, join

__all__ = [
    "SubsetMode", "subset_expansion", "check_rota_baxter", "check_derivation",
    "check_duality", "nary_from_associative", "maps_commute",
]

class SubsetMode(enum.Enum):
    """Which side of a subset the linear map is applied to.

    ``RB_HAT`` leaves positions inside I untouched and applies the map
    outside (Rota-Baxter convention); ``DIFF_CHECK`` applies the map inside I
    (derivation convention).
    """

    RB_HAT = "rb_hat"
    DIFF_CHECK = "diff_check"


@lru_cache(maxsize=64)
def _identity(lam: Scalar, n: int, rb: bool):
    """The weight-``lam`` Rota-Baxter (``rb``) or derivation identity of a
    map M on an n-ary product t, as ``(lhs, rhs)``.

    A side is ``(pushed, terms)``: the sum over its terms ``(pulled,
    coeff)`` of coeff * t(...) with M applied to the arguments at the
    positions in the bitmask ``pulled``, pushed through M if ``pushed``.
    The rhs has one term per nonempty subset I, in increasing bitmask
    order, of weight lam**(|I|-1), zero weights omitted (0**0 == 1).
    Rota-Baxter: t(M.., .., M..) = M(sum_I w_I t with M outside I).
    Derivation: M(t(.., .., ..)) = sum_I w_I t with M inside I.
    Kept per (lam, n, rb): a grid search sets up one check per candidate.
    """
    powers = [None, 1]
    for _ in range(2, n + 1):
        powers.append(norm(powers[-1] * lam))
    full = (1 << n) - 1
    weights = [(mask, powers[mask.bit_count()]) for mask in range(1, 1 << n)
               if powers[mask.bit_count()] != 0]
    if rb:
        return ((False, ((full, 1),)),
                (True, tuple((full ^ mask, w) for mask, w in weights)))
    return (True, ((0, 1),)), (False, tuple(weights))


def _slots(plain, imgs, terms):
    """The ``contract`` terms of a side's ``terms``: position i takes the
    sparse slot ``imgs[i]`` where the term pulls it, ``plain[i]`` (a basis
    index or a sparse slot) otherwise, and the term's coefficient scales
    the first slot."""
    out = []
    for pulled, coeff in terms:
        slots = [imgs[i] if pulled >> i & 1 else plain[i]
                 for i in range(len(plain))]
        if coeff != 1:
            first = slots[0]
            slots[0] = (((first, coeff),) if isinstance(first, int) else
                        tuple((k, coeff * a) for k, a in first))
        out.append(slots)
    return out


def subset_expansion(t: StructureTensor, m: LinearMap, lam, args, mode):
    """Sum over nonempty subsets I of lambda^(|I|-1) times the product with
    the map applied per ``mode``: the rhs of the Rota-Baxter identity
    before its push (``RB_HAT``) or of the derivation identity
    (``DIFF_CHECK``)."""
    rb = SubsetMode(mode) is SubsetMode.RB_HAT
    n = t.arity
    if len(args) != n:
        raise ArgumentError(f"expected {n} arguments, got {len(args)}")
    if m.dimension != t.dimension or any(len(a) != t.dimension for a in args):
        raise ArgumentError("dimension mismatch in subset expansion")
    _, terms = _identity(norm(lam), n, rb)[1]
    return t.contract(*_slots([support(a) for a in args],
                              [support(m(a)) for a in args], terms))


def _sides(t: StructureTensor, cols, lam, rb):
    """``(sums, push)`` of :func:`_identity` for the map with the sparse
    columns ``cols``: ``sums(idx)`` is the pair of the sums of the terms of
    each side at the basis tuple ``idx``, before any push, and
    ``push(sums(idx))`` the pair of sides.  ``sums`` reads only the columns
    in ``idx``, when called, so a caller may fill ``cols`` in as it goes;
    ``push`` reads those in the support of a pushed sum.  Both sides are as
    summed: scalars are exact, so they compare by value."""
    if len(cols) != t.dimension:
        raise ArgumentError("operator dimension does not match the tensor")
    (lpush, _), (rpush, _) = statement = _identity(norm(lam), t.arity, rb)

    def sums(idx):
        imgs = [cols[i] for i in idx]
        return [t.contract(*_slots(idx, imgs, terms))
                for _, terms in statement]

    def push(s):
        lhs, rhs = s
        return (apply_cols(cols, lhs) if lpush else lhs,
                apply_cols(cols, rhs) if rpush else rhs)
    return sums, push


def _decide(name, t: StructureTensor, m: LinearMap, lam, rb) -> CheckReport:
    """The report of the identity of ``m`` on ``t`` scanned over the basis
    tuples keyed by the symmetry of ``t``, decided from
    ``_least_difference``.  An unpushed lhs, the product of the images, is
    reported normalised like ``StructureTensor.evaluate``; every other side
    is reported as summed."""
    sums, push = _sides(t, m.sparse_cols, lam, rb)
    rep = decide(name, t.dimension ** t.arity,
                 lambda idx: push(sums(idx)),
                 lambda: _least_difference(t, m, lam, rb))
    (lpush, _), _ = _identity(norm(lam), t.arity, rb)
    if rep.passed or lpush:
        return rep
    cx = rep.counterexample
    return failing(name, rep.checked_count, cx.indices, vector(cx.lhs), cx.rhs)


def check_rota_baxter(t: StructureTensor, p: LinearMap, lam) -> CheckReport:
    """Weight-lambda Rota-Baxter identity of ``p`` on the product ``t``.

    The product of the P-images must equal P of the subset expansion with P
    applied outside each subset.  For binary products this is the classical
    P(x)P(y) = P(P(x)y + xP(y) + lambda xy).

    Only the basis tuples keyed by the symmetry of ``t`` are scanned
    (``tensor.basis_tuples``); ``checked_count`` is the full d**n.
    Permuting the arguments permutes the positions of every term on both
    sides, and maps each subset I to a subset of the same size and weight.
    On a symmetric product both sides are therefore invariant, so a tuple
    fails iff its sorted form fails.  On a skew product both sides change
    sign, so a tuple with a repeated index passes and one of distinct
    indices fails iff its ascending form fails.  Either way the first
    failure of the full scan is the least of its permutations, so it is
    scanned, and it is reported with the same two sides.  The scan is
    decided from the sparse difference (module docstring).
    """
    return _decide("rota-baxter", t, p, lam, True)


def check_derivation(t: StructureTensor, dmap: LinearMap, lam) -> CheckReport:
    """Weight-lambda derivation identity of ``dmap`` on the product ``t``.

    d of a product must equal the subset expansion with d applied inside
    each subset; weight 0 is the ordinary Leibniz rule.  The scan, and its
    decision from the sparse difference, is that of
    :func:`check_rota_baxter`, by the same argument.
    """
    return _decide("derivation", t, dmap, lam, False)


def _landings(t: StructureTensor, m: LinearMap, terms, gap):
    """``(scale, sums)``: ``sums`` yields, for each first index in
    increasing order, the dict of scale times the sum of the terms
    ``(pulled, coeff, pushed)`` of the map M = ``m`` landing on the tuples
    with that first index that rise by at least ``gap`` (``None``: any
    tuple) at each slot, by the code of tuple and coordinate (``_places``).

    All terms landing on a tuple share its first index, so they are
    expanded one first index at a time.  A term pulling slot 0 onto the
    first index i starts at a source whose first index j has M[j, i] != 0:
    column i of M.  The landings of a source key in the slots after 0, its
    tail, do not depend on the first index, except that slot 1 must rise
    from it, so they are set up once per key and pulled slots, in
    increasing order of slot 1; those kept are a range of them, past a
    bisection, and each tail rises inside itself.
    """
    n, d = t.arity, t.dimension
    q, rows = integer_table(t)
    r = lcm(*(a.denominator for col in m.sparse_cols for _, a in col))
    # the columns and rows of r M; row j as (i, r M[j, i])
    cols, mrows = ([[(i, a.numerator * (r // a.denominator)) for i, a in v]
                    for v in vs] for vs in (m.sparse_cols, m.sparse_rows))
    # a term with f entries of M is scaled by r**f, its coefficient by s
    # and r**(top - f) more, so that every term is scale times its value
    s = lcm(*(c.denominator for _, c, _ in terms))
    top = max(pulled.bit_count() + push for pulled, _, push in terms)
    terms = [(pulled, c.numerator * (s // c.denominator)
              * r ** (top - pulled.bit_count() - push), push)
             for pulled, c, push in terms]
    place = _places(d, n)
    gap = -d if gap is None else gap  # -d bounds nothing
    push_any = any(push for _, _, push in terms)
    keyed, shared = {}, {}

    def keyed_of(j):
        """``(key, pairs, pushed, tails)`` of each source key with the
        first index j: ``pushed`` is r q M applied to its product, and
        ``tails`` its landings after slot 0 by pulled slots, set up on
        first use and shared by the keys with the same entries after 0."""
        got = keyed[j] = []
        for key, pairs in rows[j]:
            pushed = None
            if push_any:
                out = {}
                for k, c in pairs:
                    for i, a in cols[k]:
                        out[i] = out.get(i, 0) + c * a
                pushed = [(i, a) for i, a in out.items() if a]
            tails = shared.get(key[1:])
            if tails is None:
                tails = shared[key[1:]] = [None] * (1 << (n - 1))
            got.append((key, pairs, pushed, tails))
        return got

    def tails_of(key, pulled, tails):
        """``(starts, tips)``: the code and coefficient of each landing of
        ``key`` in the slots after 0 with the slots ``pulled << 1`` pulled
        back, in increasing order of their entry at slot 1, in
        ``starts``."""
        choices = mrows[key[1]] if pulled & 1 else ((key[1], 1),)
        tips = [(i, i * place[1], a, i) for i, a in choices]
        for p in range(2, n):
            choices = (mrows[key[p]] if pulled >> (p - 1) & 1
                       else ((key[p], 1),))
            tips = [(start, code + i * place[p], c * a, i)
                    for start, code, c, last in tips
                    for i, a in choices if i >= last + gap]
        tails[pulled] = got = ([tip[0] for tip in tips],
                               [tip[1:3] for tip in tips])
        return got

    def landed(first):
        diff = {}
        get = diff.get
        lead, least = first * place[0], first + gap
        for pulled, coeff, push in terms:
            after = pulled >> 1
            for j, b in cols[first] if pulled & 1 else ((first, 1),):
                w0 = coeff * b
                for key, pairs, pushed, tails in keyed.get(j) or keyed_of(j):
                    out = pushed if push else pairs
                    if not out:
                        continue
                    starts, tips = tails[after] or tails_of(key, after, tails)
                    for code, c in tips[bisect_left(starts, least):]:
                        base, w = lead + code, w0 * c
                        for k, a in out:
                            diff[base + k] = get(base + k, 0) + w * a
        return diff
    return q * s * r ** top, map(landed, range(d))


def _least_difference(t: StructureTensor, m: LinearMap, lam, rb: bool):
    """``(key, lhs - rhs)`` at the least scanned tuple where the identity
    ``_identity(lam, n, rb)`` of the map M = ``m`` has a nonzero
    difference, or ``None``: the least nonzero code of the landings of its
    terms, rhs negated, that rise as the scanned tuples do
    (``tensor.RISE``), at the first index that has one.

    With M zero there is no difference: every term of both statements
    carries at least one entry of M (a pulled slot or a push), so every
    term vanishes.
    """
    if not any(m.sparse_cols):
        return None
    (lpush, lterms), (rpush, rterms) = _identity(norm(lam), t.arity, rb)
    scale, sums = _landings(t, m, [(pulled, c, lpush) for pulled, c in lterms]
                            + [(pulled, -c, rpush) for pulled, c in rterms],
                            RISE[t.symmetry])
    return _least_code(sums, _places(t.dimension, t.arity), t.dimension, scale)


def _expansion(t: StructureTensor, m: LinearMap, lam, rb: bool, symmetry):
    """The tensor stored with ``symmetry`` whose product at each of its keys
    is the rhs sum of ``_identity(lam, n, rb)`` there, before its push: the
    landings of the rhs terms with no push.  They are summed once, on all
    keys, as the nonzero ``(k, c)`` pairs of each key; stored skew, the
    ascending entries are read off those sums, and the table of the stored
    tensor must equal them on all keys, as the rhs of a skew product is
    skew."""
    if m.dimension != t.dimension:
        raise ArgumentError("operator dimension does not match the tensor")
    n, d = t.arity, t.dimension
    _, terms = _identity(norm(lam), n, rb)[1]
    scale, sums = _landings(t, m, [(pulled, c, False) for pulled, c in terms],
                            None)
    place, pairs = _places(d, n), {}
    for diff in sums:
        for code, a in sorted(diff.items()):
            if a:
                key = tuple(code // w % d for w in place)
                pairs.setdefault(key, []).append((code % d, rational(a, scale)))
    rise = -d if symmetry == "none" else RISE[symmetry]  # -d bounds nothing
    entries = {}
    for key, got in pairs.items():
        if all(b - a >= rise for a, b in zip(key, key[1:])):
            value = entries[key] = [0] * d
            for k, c in got:
                value[k] = c
    stored = StructureTensor(n, d, symmetry, entries)
    if stored.table != {key: tuple(got) for key, got in pairs.items()}:
        raise InternalConsistencyError(
            "subset expansion of a skew product is not skew-symmetric")
    return stored


def check_duality(t: StructureTensor, p: LinearMap, lam) -> CheckReport:
    """Invertible P is Rota-Baxter of weight lambda iff P^{-1} is a
    derivation of weight lambda.

    Both sides are computed; the verdicts agreeing is the only possible
    correct outcome, so a disagreement aborts with an internal-consistency
    error instead of being reported as a failure.
    """
    if not p.is_invertible():
        raise PreconditionError("duality check requires an invertible map")
    rb = check_rota_baxter(t, p, lam)
    der = check_derivation(t, p.inverse(), lam)
    agree(rb, der, "Rota-Baxter/derivation-of-inverse duality verdicts")
    return passing("rb-derivation-duality", rb.checked_count + der.checked_count)


# every operator check by its kind in files and on the command line
OPERATOR_CHECKS = {"rb": check_rota_baxter, "derivation": check_derivation,
                   "duality": check_duality}


def nary_from_associative(t: StructureTensor, n: int) -> StructureTensor:
    """Arity-n tensor of left-nested n-fold products of an associative
    binary product.  Associativity is a verified precondition (it makes the
    nesting order immaterial; left-to-right is fixed for reproducibility).
    Each running product is joined with the columns of the identity
    (:func:`tensor.join`), n - 1 times.  The power is kept on ``t``: each
    call with the same ``n`` returns it."""
    return t._memo(("nary_from_associative", n), _nary_power, n)


def _nary_power(t: StructureTensor, n: int) -> StructureTensor:
    if n < 2:
        raise ArgumentError("arity must be at least 2")
    rep = check_associative(t)
    if not rep.passed:
        raise PreconditionError(
            "product is not associative "
            f"(violation at basis triple {rep.counterexample.indices})")
    d = t.dimension
    rows = [((b, 1),) for b in range(d)]
    # running products, each join scaling by q, in lex order of their keys;
    # a zero one has only zero extensions
    level = {(i,): {i: 1} for i in range(d)}
    for _ in range(n - 1):
        level = {key + (j,): prod for key, slot in level.items()
                 for j, prod in sorted(join(t, slot.items(), rows).items())}
    q = integer_table(t)[0] ** (n - 1)
    return StructureTensor(n, d, "none", {
        key: descaled(prod, d, q) for key, prod in level.items()})
