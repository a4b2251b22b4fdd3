"""The integer-coded sparse-difference builders against the loops they
replaced.

``axioms._least_composed`` and ``operators._least_difference`` sum each
term in ints under one int code per landing, and take the rises between
the two keys of a composition from a sorted range.  The builders they
replaced, kept here verbatim as ``old_least_composed`` (with its
``_landings``, ``_steps`` and ``_rises``) and ``old_least_difference``,
summed each landing tuple in a dense list, checked every rise per pair,
and ``old_least_difference`` summed the scalars as they came.  Both pairs
must give the same ``(key, lhs - rhs)``: the same tuple, and in each
coordinate the same value of the same type.  The old operator loop summed
exact scalars without normalising them, so an integral coordinate it built
from fractions is a ``Fraction``; ``scalars.norm`` of it is the canonical
form the new builder returns, and is what its coordinates are held to.
"""

from fractions import Fraction
from math import lcm
from operator import itemgetter

import pytest
from hypothesis import Phase, event, find, given, settings
from hypothesis import strategies as st

from algcheck import axioms, files, operators, tensor
from algcheck.algebra import Algebra
from algcheck.constructions import f_bracket
from algcheck.linalg import LinearMap, support
from algcheck.operators import _identity
from algcheck.scalars import norm, rational
from algcheck.tensor import (RISE, SYMMETRIES, StructureTensor, stored_keys,
                             tensors_equal)

from test_composed_difference import KINDS, fresh, instances
from test_operators import seed_check_derivation, seed_check_rota_baxter
from test_sparse_constructions import gl, trace


# ------------------------------------------- the builders that were replaced


def _steps(names, rises):
    """``(i, h, r)``: entry i of a key naming the positions ``names`` must
    exceed entry h by at least r, for the tuple to rise as the scan's do."""
    at = {p: i for i, p in enumerate(names)}
    return [(at[p], at[p - 1], r) for p, r in rises.items()
            if p in at and p - 1 in at]


def _rises(values, steps):
    return all(values[i] >= values[h] + r for i, h, r in steps)


def old_least_composed(t: StructureTensor, blocks, compositions):
    """``(key, lhs - rhs)`` at the least tuple of ``blocks`` where the sum
    of ``compositions`` is nonzero, or ``None``.

    A composition ``(coeff, inner, outer)`` is coeff times the product at
    the positions ``outer`` of the tuple with the product at the positions
    ``inner`` in the slot marked ``None``; each position is named once.
    Its terms are those of the module docstring: an inner key J and an
    outer key K name the positions of the tuple they land on, the slot
    aside.  All terms landing on a tuple share its first index, so they are
    expanded one first index at a time, in increasing order, and the least
    nonzero tuple of the first index that has one is the least overall.
    Of J and K, the one that names position 0 is looked up by its first
    index, the other by v.
    """
    d = t.dimension
    # the constants times their common denominator q, as ints: a term, the
    # product of two constants, is then q**2 times its value
    q = lcm(*(c.denominator for prod in t.table.values() for _, c in prod))
    table = {key: [(k, c.numerator * (q // c.denominator)) for k, c in prod]
             for key, prod in t.table.items()}
    rises, length = {}, 0  # position -> least rise from the one before it
    for k, symmetry in blocks:
        if RISE[symmetry] is not None:
            rises.update(dict.fromkeys(range(length + 1, length + k),
                                       RISE[symmetry]))
        length += k
    plans = []
    for coeff, inner, outer in compositions:
        slot, steps = outer.index(None), _steps(inner, rises)
        js = [(j, v, coeff * c) for j, prod in table.items()
              if _rises(j, steps) for v, c in prod]
        steps = _steps(outer, rises)
        ks = [(key, key[slot], prod) for key, prod in table.items()
              if _rises(key, steps)]
        j_drives = 0 in inner
        (first_side, names), (other_side, other) = (
            ((js, inner), (ks, outer)) if j_drives else ((ks, outer), (js, inner)))
        by_first, by_v = [[] for _ in range(d)], {}
        for item in first_side:
            by_first[item[0][names.index(0)]].append(item)
        for item in other_side:
            by_v.setdefault(item[1], []).append(item)
        # the steps between the two keys, checked on each joined pair
        cut, names = len(names), names + other
        cross = [(i, h, r) for i, h, r in _steps(names, rises)
                 if (i < cut) != (h < cut)]
        plans.append((by_first, by_v, j_drives, cross,
                      itemgetter(*map(names.index, range(length)))))
    for first in range(d):
        diff = {}
        for plan in plans:
            for key, w, prod in _landings(plan, first):
                acc = diff.get(key)
                if acc is None:
                    acc = diff[key] = [0] * d
                for k, a in prod:
                    acc[k] += w * a
        nonzero = [key for key, acc in diff.items() if any(acc)]
        if nonzero:
            key = min(nonzero)
            return key, tuple(rational(a, q * q) for a in diff[key])
    return None


def _landings(plan, first):
    """``(tuple, w, product of K)`` of each term of one composition whose
    tuple has the first index ``first`` and rises as the scan's do."""
    by_first, by_v, j_drives, cross, pick = plan
    for a, v, x in by_first[first]:
        for b, _, y in by_v.get(v, ()):
            ab = a + b
            for i, h, r in cross:
                if ab[i] < ab[h] + r:
                    break
            else:
                yield (pick(ab), x, y) if j_drives else (pick(ab), y, x)


def old_least_difference(t: StructureTensor, m: LinearMap, lam, rb: bool):
    """``(key, lhs - rhs)`` at the least scanned tuple where the identity
    ``_identity(lam, n, rb)`` of the map M = ``m`` has a nonzero
    difference, or ``None``; its terms are the statement's, rhs negated.

    All terms landing on a tuple share its first index, so they are
    expanded one first index at a time, in increasing order, and the least
    nonzero tuple of the first index that has one is the least overall.
    A term pulling slot 0 onto the first index i starts at a source whose
    first index j has M[j, i] != 0: column i of M.  A term is dropped as
    soon as its partial tuple stops rising as the scanned tuples do
    (``tensor.RISE``), so it is kept at the scanned tuples only.
    """
    n, d = t.arity, t.dimension
    cols, rows = m.sparse_cols, [support(row) for row in m.rows()]
    (lpush, lterms), (rpush, rterms) = _identity(norm(lam), n, rb)
    terms = ([(pulled, c, lpush) for pulled, c in lterms]
             + [(pulled, -c, rpush) for pulled, c in rterms])
    by_first = [[] for _ in range(d)]  # source keys by first index
    for key, pairs in t.table.items():
        pushed = [0] * d
        for k, c in pairs:
            for i, a in cols[k]:
                pushed[i] += c * a
        by_first[key[0]].append((key, pairs, support(pushed)))
    # a scanned tuple rises by at least gap at each slot; -d bounds nothing
    gap = RISE[t.symmetry]
    gap = -d if gap is None else gap
    for first in range(d):
        diff = {}
        for pulled, coeff, push in terms:
            for j, b in cols[first] if pulled & 1 else ((first, 1),):
                for key, pairs, pushed in by_first[j]:
                    out = pushed if push else pairs
                    if not out:
                        continue
                    tips = [((first,), coeff * b)]
                    for s in range(1, n):
                        choices = (rows[key[s]] if pulled >> s & 1
                                   else ((key[s], 1),))
                        tips = [(tip + (i,), c * a) for tip, c in tips
                                for i, a in choices if i >= tip[-1] + gap]
                    for tip, c in tips:
                        acc = diff.get(tip)
                        if acc is None:
                            acc = diff[tip] = [0] * d
                        for k, a in out:
                            acc[k] += c * a
        nonzero = [tip for tip, acc in diff.items() if any(acc)]
        if nonzero:
            key = min(nonzero)
            return key, tuple(diff[key])
    return None


# ------------------------------------------------------ the composed builder


def composed_arguments(kind, t):
    """``(blocks, compositions)`` as the check of ``kind`` hands them to
    ``_least_composed``: the compositions of lhs, then those of rhs
    negated."""
    if kind.endswith("jacobi"):
        n = t.arity
        xs, ys = tuple(range(n)), tuple(range(n, 2 * n - 1))
        blocks = ((n, "skew"), (n - 1, "skew"))
        lhs = ((1, xs, (None,) + ys),)
        rhs = [(1, (i,) + ys, xs[:i] + (None,) + xs[i + 1:]) for i in range(n)]
    else:
        blocks, (lhs, rhs) = {
            "associative": (((3, "none"),), axioms._ASSOCIATIVE),
            "prelie": (((2, "skew"), (1, "none")), axioms._PRELIE),
            "lie": (((3, "skew"),), axioms._LIE_JACOBI),
            "lts": (((5, "none"),), axioms._LTS_DERIVATION)}[kind]
    return blocks, [*lhs, *((-c, i, o) for c, i, o in rhs)]


def exactly(got, want):
    """Equal ``(key, diff)`` or both ``None``, with equal scalar types."""
    assert got == want
    if want is not None:
        assert [type(a) for a in got[1]] == [type(a) for a in want[1]]


def first_index(found):
    if found is None:
        return "none"
    return "first index 0" if found[0][0] == 0 else "a later first index"


def same_composed(kind, t):
    blocks, compositions = composed_arguments(kind, t)
    want = old_least_composed(t, blocks, compositions)
    exactly(axioms._least_composed(fresh(t), blocks, compositions), want)
    return want


_scalars = st.one_of(st.integers(-2, 2), st.fractions(
    min_value=-2, max_value=2, max_denominator=3))


@st.composite
def small_instances(draw):
    """A product of each kind in dimension 0, 1 or 2, with a few rational
    constants on any keys."""
    kind = draw(st.sampled_from(sorted(KINDS)))
    arity = KINDS[kind][0]
    d = draw(st.integers(0, 2))
    symmetry = ("skew" if kind.endswith("jacobi") or kind == "lie"
                else draw(st.sampled_from(SYMMETRIES)))
    keys = stored_keys(arity, d, symmetry)
    entries = {}
    if keys and d:
        for key, k, a in draw(st.lists(st.tuples(
                st.sampled_from(keys), st.integers(0, d - 1), _scalars),
                max_size=4)):
            entries.setdefault(key, [0] * d)[k] = a
    return kind, StructureTensor(arity, d, symmetry, entries)



@settings(max_examples=200, deadline=None)
@given(st.one_of(instances(), small_instances()))
def test_least_composed_matches_the_replaced_loop(instance):
    kind, t = instance
    event(f"{kind}: {first_index(same_composed(kind, t))}")


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_composed_draws_first_nonzero_at_a_later_first_index(kind):
    def late(instance):
        got, t = instance
        return got == kind and first_index(old_least_composed(
            t, *composed_arguments(kind, t))) == "a later first index"

    _, t = find(instances(), late,
                settings=settings(database=None, derandomize=True,
                                  max_examples=2000, phases=[Phase.generate]))
    assert same_composed(kind, t)[0][0] > 0


# compositions of a ternary product over strictly ascending 5-tuples whose
# rises between the two keys bound two entries of the partner: the inner key
# (0, 2, 4) driving the outer (None, 1, 3), and the outer key (0, None, 2)
# driving the inner (1, 3, 4).  No identity of ``axioms`` has one; the
# builder takes the first entry from a sorted range and tests the second
# per pair.
_INTERLEAVED = [(1, (0, 2, 4), (None, 1, 3)), (-1, (1, 3, 4), (0, None, 2))]


@settings(max_examples=100, deadline=None)
@given(st.integers(5, 6).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(st.tuples(st.sampled_from(stored_keys(3, d, "skew")),
                                   st.integers(0, d - 1), _scalars),
                         min_size=3, max_size=12))),
       st.sampled_from([_INTERLEAVED[:1], _INTERLEAVED[1:], _INTERLEAVED]))
def test_cross_rises_on_two_partner_entries_match_the_replaced_loop(
        draw, compositions):
    d, constants = draw
    entries = {}
    for key, k, a in constants:
        entries.setdefault(key, [0] * d)[k] = a
    t = StructureTensor(3, d, "skew", entries)
    blocks = ((5, "skew"),)
    want = old_least_composed(t, blocks, compositions)
    event(first_index(want))
    exactly(axioms._least_composed(fresh(t), blocks, compositions), want)


def gl4_f_bracket():
    return f_bracket(gl(4), trace(4))


def test_least_composed_matches_on_the_gl4_f_bracket():
    # the passing bracket, and one constant moved: nonzero at many tuples
    fb = gl4_f_bracket()
    assert same_composed("3-jacobi", fb) is None
    value = list(fb.entries[(0, 1, 4)])
    value[0] += Fraction(1, 2)
    t = StructureTensor(3, 16, "skew", {**fb.entries, (0, 1, 4): tuple(value)})
    assert same_composed("3-jacobi", t) is not None


# ------------------------------------------------------ the operator builder


# map entries with unequal denominators, and weights whose denominators
# enter the scaling
_entries = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(2, 3),
                            Fraction(-3, 5)])
_weights = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def operator_instances(draw):
    arity = draw(st.sampled_from([2, 3]))
    symmetry = draw(st.sampled_from(SYMMETRIES))
    d = draw(st.integers(0, 4))
    keys = stored_keys(arity, d, symmetry)
    entries = {}
    if keys:
        for key, k, a in draw(st.lists(st.tuples(
                st.sampled_from(keys), st.integers(0, d - 1), _scalars),
                max_size=5)):
            entries.setdefault(key, [0] * d)[k] = a
    t = StructureTensor(arity, d, symmetry, entries)
    m = draw(st.one_of(
        st.lists(st.lists(_entries, min_size=d, max_size=d),
                 min_size=d, max_size=d).map(LinearMap.from_cols),
        st.sampled_from([LinearMap.zero(d), LinearMap.identity(d),
                         LinearMap.scalar(d, -1),
                         LinearMap.scalar(d, Fraction(-2, 3))])))
    return t, m, draw(_weights), draw(st.booleans())


def same_difference(t, m, lam, rb):
    want = old_least_difference(t, m, lam, rb)
    if want is not None:
        want = want[0], tuple(norm(a) for a in want[1])
    exactly(operators._least_difference(fresh(t), m, lam, rb), want)
    return want


@settings(max_examples=300, deadline=None)
@given(operator_instances())
def test_least_difference_matches_the_replaced_loop(instance):
    t = instance[0]
    found = same_difference(*instance)
    event(f"dimension {t.dimension}: {first_index(found)}")


def test_least_difference_draws_first_nonzero_at_a_later_first_index():
    instance = find(operator_instances(),
                    lambda instance: first_index(
                        old_least_difference(*instance))
                    == "a later first index",
                    settings=settings(database=None, derandomize=True,
                                      max_examples=2000,
                                      phases=[Phase.generate]))
    assert same_difference(*instance)[0][0] > 0


@pytest.mark.parametrize("lam", [0, 1, Fraction(-2, 3)])
def test_least_difference_matches_on_the_gl4_f_bracket(lam):
    fb = gl4_f_bracket()
    d = fb.dimension
    for m in (LinearMap.zero(d), LinearMap.scalar(d, -lam),
              LinearMap.scalar(d, Fraction(1, 2))):
        for rb in (True, False):
            same_difference(fb, m, lam, rb)


@pytest.mark.parametrize("lam", [0, 1, Fraction(-2, 3), 2])
def test_the_zero_map_has_no_difference(monkeypatch, lam):
    # every term carries an entry of M, so the builder returns at once,
    # before it scales the table, and the reports are the per-tuple scan's
    fb = gl4_f_bracket()
    zero = LinearMap.zero(fb.dimension)

    def unscaled(t):
        raise AssertionError("the zero map scaled the table")

    for rb in (True, False):
        assert old_least_difference(fb, zero, lam, rb) is None
        with monkeypatch.context() as patched:
            patched.setattr(operators, "integer_table", unscaled)
            assert operators._least_difference(fresh(fb), zero, lam, rb) is None
    for check, seed in ((operators.check_rota_baxter, seed_check_rota_baxter),
                        (operators.check_derivation, seed_check_derivation)):
        got, want = check(fresh(fb), zero, lam), seed(fb, zero, lam)
        assert got == want and repr(got) == repr(want)
        assert got.passed


# ---------------------------------------------------- the kept integer table


def test_one_tensor_scales_its_table_once(monkeypatch):
    # the Jacobi check and the four Rota-Baxter checks of one benchmark pass
    # on the gl(4) f-bracket: both builders run, on one integer table
    t = fresh(gl4_f_bracket())
    d = t.dimension
    calls = {"scale": 0, "composed": 0, "difference": 0}

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(tensor, "_integer_table",
                        counted("scale", tensor._integer_table))
    monkeypatch.setattr(axioms, "_least_composed",
                        counted("composed", axioms._least_composed))
    monkeypatch.setattr(operators, "_least_difference",
                        counted("difference", operators._least_difference))
    assert axioms.check_n_jacobi(t).passed
    for lam in (0, 1):
        for m in (LinearMap.zero(d), LinearMap.scalar(d, -lam)):
            operators.check_rota_baxter(t, m, lam)
    assert calls == {"scale": 1, "composed": 1, "difference": 4}


def test_the_kept_table_stays_out_of_equality_repr_and_files():
    def algebra(t):
        return Algebra("fb", t.dimension, tuple(f"e{i}" for i in range(16)),
                       products={"fb": t})

    kept = gl4_f_bracket()
    bare = fresh(kept)
    q, rows = tensor.integer_table(kept)
    assert sum(map(len, rows)) == len(kept.table)
    assert tensor.integer_table(kept) is kept.__dict__["_memo_values"][
        "integer table"]
    assert kept == bare and repr(kept) == repr(bare)
    assert tensors_equal(kept, bare)
    assert files.dumps(algebra(kept)) == files.dumps(algebra(bare))
