"""Every check that reports through ``first_failure`` against the loop it
replaced.

Each oracle below is the earlier hand-written scan of a check: its own
nested loops, in lex order, returning ``failing`` at the first tuple whose
two sides differ.  The rewritten check must give an identical report:
verdict, ``checked_count``, counterexample indices, ``lhs`` and ``rhs``
down to the int or Fraction type of each coordinate, hence the same
``repr``.

The tensors are drawn in every symmetry a check accepts.  Some are products
that satisfy the identities (the catalog's small products, restored without
symmetry as well, and zero products); in some draws one structure constant
is moved, so that most draws fail, and not always at the first tuple.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product as iproduct

from hypothesis import event, given, settings
from hypothesis import strategies as st

from algcheck.axioms import (check_associative, check_commutative, check_lie,
                             check_lts, check_prelie, check_skew_symmetric)
from algcheck.catalog import catalog
from algcheck.constructions import thm35_f_condition, thm36_f_condition
from algcheck.inheritance import lts_from_lie
from algcheck.linalg import LinearForm, LinearMap, vec_is_zero, vec_sub
from algcheck.reports import failing, passing
from algcheck.tensor import SYMMETRIES, StructureTensor, stored_keys

# ---------------------------------------------------------------- oracles


def oracle_skew_symmetric(t):
    name = "skew-symmetric"
    count = t.dimension ** t.arity * max(t.arity - 1, 1)
    if t.symmetry == "skew":
        return passing(name, count)
    for idx in iproduct(range(t.dimension), repeat=t.arity):
        base = t.basis_product(idx)
        neg = tuple(-a for a in base)
        for p in range(t.arity - 1):
            swapped = idx[:p] + (idx[p + 1], idx[p]) + idx[p + 2:]
            got = t.basis_product(swapped)
            if got != neg:
                return failing(name, count, idx, got, neg)
    return passing(name, count)


def _associator(t, i, j, k):
    pairs = t.table.get
    return (t.contract((pairs((i, j), ()), k)),
            t.contract((i, pairs((j, k), ()))))


def oracle_associative(t):
    d = t.dimension
    count = d ** 3
    for i, j, k in iproduct(range(d), repeat=3):
        lhs, rhs = _associator(t, i, j, k)
        if lhs != rhs:
            return failing("associative", count, (i, j, k), lhs, rhs)
    return passing("associative", count)


def oracle_commutative(t):
    d = t.dimension
    count = d ** 2
    for i in range(d):
        for j in range(i + 1, d):
            lhs = t.basis_product((i, j))
            rhs = t.basis_product((j, i))
            if lhs != rhs:
                return failing("commutative", count, (i, j), lhs, rhs)
    return passing("commutative", count)


def oracle_lie(t):
    d = t.dimension
    skew = oracle_skew_symmetric(t)
    count = skew.checked_count + d ** 3
    if not skew.passed:
        c = skew.counterexample
        return failing("lie", count, c.indices, c.lhs, c.rhs)
    pairs = t.table.get
    for i, j, k in combinations(range(d), 3):
        acc = t.contract(*[(pairs((a, b), ()), c)
                           for a, b, c in ((i, j, k), (j, k, i), (k, i, j))])
        if not vec_is_zero(acc):
            return failing("lie", count, (i, j, k), acc, (0,) * d)
    return passing("lie", count)


def oracle_prelie(t):
    d = t.dimension
    count = d ** 3
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(d):
                lhs = vec_sub(*_associator(t, i, j, k))
                rhs = vec_sub(*_associator(t, j, i, k))
                if lhs != rhs:
                    return failing("prelie", count, (i, j, k), lhs, rhs)
    return passing("prelie", count)


def oracle_lts(t):
    d = t.dimension
    zero = (0,) * d
    count = d ** 3 + d ** 3 + d ** 5
    pairs = t.table.get
    for i in range(d):
        for j in range(d):
            for k in range(j, d):
                s = t.contract((i, j, k), (i, k, j))
                if not vec_is_zero(s):
                    return failing("lts", count, (i, j, k), s, zero)
    for idx in iproduct(range(d), repeat=3):
        i, j, k = idx
        acc = t.contract((i, j, k), (j, k, i), (k, i, j))
        if not vec_is_zero(acc):
            return failing("lts", count, idx, acc, zero)
    for idx in iproduct(range(d), repeat=5):
        i, j, k, a, b = idx
        lhs = t.contract((pairs((i, j, k), ()), a, b))
        rhs = t.contract((pairs((i, a, b), ()), j, k),
                         (i, pairs((j, a, b), ()), k),
                         (i, j, pairs((k, a, b), ())))
        if lhs != rhs:
            return failing("lts", count, idx, lhs, rhs)
    return passing("lts", count)


def oracle_thm35_f_condition(prelie, f):
    d = prelie.dimension
    count = d ** 2
    for i in range(d):
        for j in range(i + 1, d):
            val = f(vec_sub(prelie.basis_product((i, j)),
                            prelie.basis_product((j, i))))
            if val != 0:
                return failing("form-kills-commutators", count, (i, j),
                               (val,), (0,))
    return passing("form-kills-commutators", count)


def oracle_thm36_f_condition(prelie, p, f):
    d = prelie.dimension
    count = d ** 2
    pc, neg = p.sparse_cols, p.scaled(-1).sparse_cols

    def side(i, j):
        return f(prelie.contract((pc[i], j), (j, neg[i])))

    for i in range(d):
        for j in range(i + 1, d):
            lhs, rhs = side(i, j), side(j, i)
            if lhs != rhs:
                return failing("form-P-symmetry", count, (i, j), (lhs,), (rhs,))
    return passing("form-P-symmetry", count)


# ------------------------------------------------------------- instances


def _unsymmetric(t):
    """The same product stored on every ordered tuple, without symmetry."""
    return StructureTensor(t.arity, t.dimension, "none", {
        key: tuple(dict(pairs).get(k, 0) for k in range(t.dimension))
        for key, pairs in t.table.items()})


@lru_cache(maxsize=1)
def bases():
    """Small products that satisfy some of the identities, by arity.

    Built on the first draw, not at import, so a construction that raises
    here fails the tests that draw from it and stops no collection."""
    out = {2: [], 3: []}
    for alg in catalog():
        for t in alg.products.values():
            if t.dimension <= 4:
                out[t.arity] += [t, _unsymmetric(t)]
                if t.arity == 2 and t.symmetry == "skew":
                    out[3].append(lts_from_lie(t))
    for arity in (2, 3):
        out[arity] += [StructureTensor.zero(arity, d, s)
                       for d in (1, 2, 3) for s in SYMMETRIES]
    return out


_scalars = st.one_of(st.integers(-2, 2),
                     st.fractions(min_value=-2, max_value=2, max_denominator=2))


@st.composite
def random_sparse(draw, arity):
    dim = draw(st.integers(2, 3))
    symmetry = draw(st.sampled_from(SYMMETRIES))
    pool = stored_keys(arity, dim, symmetry)
    keys = draw(st.lists(st.sampled_from(pool), max_size=3, unique=True)) if pool else []
    vals = [draw(st.lists(_scalars, min_size=dim, max_size=dim)) for _ in keys]
    return StructureTensor(arity, dim, symmetry, dict(zip(keys, vals)))


@st.composite
def tensors(draw, arity):
    """A base or random product; in most draws one constant is moved."""
    t = draw(st.one_of(st.sampled_from(bases()[arity]), random_sparse(arity)))
    keys = stored_keys(t.arity, t.dimension, t.symmetry)
    if not keys or draw(st.integers(0, 3)) == 0:  # moved in 3 of 4 draws
        return t
    key = draw(st.sampled_from(keys))
    k = draw(st.integers(0, t.dimension - 1))
    delta = draw(st.sampled_from([1, -1, 2, Fraction(1, 2)]))
    value = list(t.entries.get(key, (0,) * t.dimension))
    value[k] += delta
    return StructureTensor(t.arity, t.dimension, t.symmetry,
                           {**t.entries, key: tuple(value)})


def forms(dim):
    return st.lists(_scalars, min_size=dim, max_size=dim).map(LinearForm)


def maps(dim):
    return st.one_of(
        st.sampled_from([LinearMap.zero(dim), LinearMap.identity(dim)]),
        st.lists(st.lists(_scalars, min_size=dim, max_size=dim),
                 min_size=dim, max_size=dim).map(LinearMap.from_cols))


def _same(got, want):
    event(f"{want.identity_name}: {want.verdict}")
    assert got == want and repr(got) == repr(want)


# ------------------------------------------------------------------ tests


@settings(max_examples=150, deadline=None)
@given(st.one_of(tensors(2), tensors(3)))
def test_skew_symmetric_matches_the_full_scan(t):
    _same(check_skew_symmetric(t), oracle_skew_symmetric(t))


@settings(max_examples=150, deadline=None)
@given(tensors(2))
def test_binary_axioms_match_their_scans(t):
    event(t.symmetry)
    for check, oracle in ((check_associative, oracle_associative),
                          (check_commutative, oracle_commutative),
                          (check_lie, oracle_lie),
                          (check_prelie, oracle_prelie)):
        _same(check(t), oracle(t))


@settings(max_examples=150, deadline=None)
@given(tensors(3))
def test_lts_matches_its_three_scans(t):
    event(t.symmetry)
    _same(check_lts(t), oracle_lts(t))


@st.composite
def prelie_form_map(draw):
    # a commutative product passes both conditions, so draw fewer of them
    t = draw(tensors(2).filter(lambda t: t.symmetry != "symmetric") | tensors(2))
    return t, draw(forms(t.dimension)), draw(maps(t.dimension))


@settings(max_examples=150, deadline=None)
@given(prelie_form_map())
def test_thm35_and_thm36_f_conditions_match_their_scans(instance):
    t, f, p = instance
    _same(thm35_f_condition(t, f), oracle_thm35_f_condition(t, f))
    _same(thm36_f_condition(t, p, f), oracle_thm36_f_condition(t, p, f))
