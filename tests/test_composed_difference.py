"""The n-Jacobi, associativity, pre-Lie, Lie and Lie-triple-system checks
decided from their sparse difference.

These checks decide the scan from the sparse difference of their composed
sides (``axioms._least_composed``) and evaluate the sides one tuple at a
time only at the failure they report.  The draws here scan more than 16
tuples and carry a few structure constants, often on late keys, so that
they pass or fail late: past the first 16 tuples of the scan ("the
prefix", which the checks once scanned one by one).  Every report must be
identical to the full scan's, down to the int or Fraction type of each
coordinate: the dense n-Jacobi reference of ``test_axioms`` and the
associativity, pre-Lie, Lie and Lie-triple-system oracles of
``test_scan_oracles``.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, count, product

import pytest
from hypothesis import Phase, event, find, given, settings
from hypothesis import strategies as st

from algcheck import axioms
from algcheck.axioms import (check_associative, check_lie, check_lts,
                             check_n_jacobi, check_prelie)
from algcheck.catalog import get
from algcheck.constructions import f_bracket, prelie_from_comm_assoc
from algcheck.inheritance import lts_from_lie
from algcheck.reports import InternalConsistencyError, failing, passing
from algcheck.tensor import SYMMETRIES, StructureTensor, stored_keys

from test_axioms import reference_jacobi, unsymmetric
from test_scan_oracles import (oracle_associative, oracle_lie, oracle_lts,
                               oracle_prelie)
from test_operators import sides_calls
from test_sparse_constructions import gl, trace


def oracle_jacobi(t):
    passed, checked, bad = reference_jacobi(t)
    name = f"{t.arity}-jacobi"
    return passing(name, checked) if passed else failing(name, checked, *bad)


def jacobi_scan(n, d):
    return [xs + ys for xs in combinations(range(d), n)
            for ys in combinations(range(d), n - 1)]


# kind -> (arity, the tuples the full scan visits in order, check, oracle)
KINDS = {
    "3-jacobi": (3, lambda d: jacobi_scan(3, d), check_n_jacobi, oracle_jacobi),
    "4-jacobi": (4, lambda d: jacobi_scan(4, d), check_n_jacobi, oracle_jacobi),
    "prelie": (2, lambda d: [(i, j, k) for i, j in combinations(range(d), 2)
                             for k in range(d)], check_prelie, oracle_prelie),
    "associative": (2, lambda d: list(product(range(d), repeat=3)),
                    check_associative, oracle_associative),
    "lie": (2, lambda d: list(combinations(range(d), 3)), check_lie, oracle_lie),
    # the derivation axiom, scanned once the first two axioms pass
    "lts": (3, lambda d: list(product(range(d), repeat=5)), check_lts, oracle_lts),
}


def fresh(t):
    """An equal tensor without the reports kept on ``t``."""
    return StructureTensor(t.arity, t.dimension, t.symmetry, t.entries)


def same(got, want):
    assert got == want and repr(got) == repr(want)


def where(rep, scanned):
    if rep.passed:
        return "pass"
    position = scanned.index(rep.counterexample.indices)
    return ("fail in the prefix" if position < 16
            else "fail past the prefix")


_scalars = st.one_of(st.integers(-2, 2),
                     st.fractions(min_value=-2, max_value=2, max_denominator=2))


@st.composite
def triple_systems(draw):
    """The Lie triple system of a Lie bracket with a few constants added
    that keep its first two axioms: for a < b < c, s*v at (a, b, c) and
    (b, a, c), and -s*v at (a, c, b) and (b, c, a).  Both axioms sum a
    constant against its swap in the last two slots, or over a cyclic
    orbit, and each such sum of the added constants cancels."""
    # the Heisenberg brackets give the zero triple system, gl(2) one that
    # is not
    lie = draw(st.sampled_from([get("heisenberg").products["bracket"],
                                get("heisenberg_line").products["bracket"],
                                gl(2)]))
    lts = lts_from_lie(lie)
    d = lts.dimension
    entries = {key: list(value) for key, value in lts.entries.items()}
    for (a, b, c), v, s in draw(st.lists(st.tuples(
            st.sampled_from(list(combinations(range(d), 3))),
            st.integers(0, d - 1), _scalars), max_size=3)):
        for key, sign in (((a, b, c), 1), ((b, a, c), 1),
                          ((a, c, b), -1), ((b, c, a), -1)):
            entries.setdefault(key, [0] * d)[v] += sign * s
    return StructureTensor(3, d, "none", entries)


@st.composite
def instances(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    if kind == "lts":
        return kind, draw(triple_systems())
    arity, scanned = KINDS[kind][:2]
    # the least dimension whose scan is longer than the prefix, or one more
    least = next(d for d in count(1) if len(scanned(d)) > 16)
    # in half the Jacobi draws, the simple (n+1)-dimensional n-Lie algebra
    # with random signs on the last basis vectors: a bracket on late keys
    simple = arity > 2 and draw(st.booleans())
    d = least + (1 if simple else draw(st.integers(0, 1)))
    symmetry = ("skew" if arity > 2 or kind == "lie"
                else draw(st.sampled_from(SYMMETRIES)))
    entries = {}
    if simple:
        top = range(d - arity - 1, d)
        for i in top:
            value = entries[tuple(j for j in top if j != i)] = [0] * d
            value[i] = draw(st.sampled_from((1, -1)))
    keys = stored_keys(arity, d, symmetry)
    # a few constants, often on keys without index 0: a product those keys
    # alone define vanishes on every tuple that starts with 0, as most of
    # the prefix does
    late = st.sampled_from(keys) | st.sampled_from([k for k in keys if min(k)])
    for key, k, a in draw(st.lists(st.tuples(late, st.integers(0, d - 1), _scalars),
                                   min_size=0 if entries else 1, max_size=4)):
        entries.setdefault(key, [0] * d)[k] = a
    return kind, StructureTensor(arity, d, symmetry, entries)


def storages(t):
    """``t``, and a skew product also stored on every ordered tuple, whose
    skewness the Jacobi and Lie checks scan instead of assuming."""
    return [t, unsymmetric(t)] if t.symmetry == "skew" else [t]


@settings(max_examples=200, deadline=None)
@given(instances())
def test_composed_checks_past_the_prefix_match_the_full_scans(instance):
    kind, t = instance
    arity, scanned, check, oracle = KINDS[kind]
    want = oracle(t)
    event(f"{kind}: {where(want, scanned(t.dimension))}")
    for s in storages(t):
        with sides_calls(axioms) as calls:
            same(check(fresh(s)), want)
        # the sides are evaluated at the reported failure alone
        assert calls == ([] if want.passed else [want.counterexample.indices])


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_draws_fail_past_the_prefix(kind):
    # the case the difference must get right: no failure in the prefix, and
    # a first failure after it
    _, scanned, check, oracle = KINDS[kind]
    _, t = find(instances(),
                lambda instance: instance[0] == kind and where(
                    oracle(instance[1]), scanned(instance[1].dimension))
                == "fail past the prefix",
                settings=settings(database=None, derandomize=True,
                                  max_examples=2000, phases=[Phase.generate]))
    same(check(t), oracle(t))


# ------------------------------------------------------- the gl(4) f-bracket


@lru_cache(maxsize=1)
def gl4_f_bracket():
    return f_bracket(gl(4), trace(4))


def test_perturbed_f_bracket_fails_past_the_prefix_as_the_full_scan():
    # one constant moved: the bracket fails at many tuples, with several
    # first indices, and first at one past the prefix
    fb = gl4_f_bracket()
    value = list(fb.entries[(0, 1, 4)])
    value[0] += Fraction(1, 2)
    t = StructureTensor(3, 16, "skew", {**fb.entries, (0, 1, 4): tuple(value)})
    want = oracle_jacobi(t)
    assert where(want, jacobi_scan(3, 16)) == "fail past the prefix"
    with sides_calls(axioms) as calls:
        same(check_n_jacobi(t), want)
    assert calls == [want.counterexample.indices]


def test_a_passing_f_bracket_never_evaluates_its_sides():
    t = fresh(gl4_f_bracket())
    with sides_calls(axioms) as calls:
        rep = check_n_jacobi(t)
    assert rep.passed and rep.checked_count == 16 ** 5
    assert calls == []


def test_a_passing_lts_never_evaluates_its_sides():
    # the first two axioms are scanned tuple by tuple outside the decision;
    # the d**5 tuples of the derivation axiom are decided from the difference
    t = fresh(passing_instance("lts"))
    with sides_calls(axioms) as calls:
        rep = check_lts(t)
    d = t.dimension
    assert rep.passed and rep.checked_count == 2 * d ** 3 + d ** 5
    assert calls == []


def passing_instance(kind):
    """A product that passes the check of ``kind`` and scans more than 16
    tuples."""
    qt3 = get("qt3_deg4")
    if kind == "3-jacobi":
        return gl4_f_bracket()
    if kind == "lie":
        return gl(3)
    if kind == "lts":
        return lts_from_lie(gl(2))
    if kind == "associative":
        return qt3.products["prod"]
    return prelie_from_comm_assoc(qt3.products["prod"], qt3.maps["D1"])


@pytest.mark.parametrize("kind", ["3-jacobi", "associative", "prelie",
                                  "lie", "lts"])
def test_a_difference_the_sides_do_not_confirm_is_an_internal_error(
        monkeypatch, kind):
    _, scanned, check, _ = KINDS[kind]
    t = passing_instance(kind)
    assert check(t).passed
    key = scanned(t.dimension)[16]
    monkeypatch.setattr(axioms, "_least_composed",
                        lambda *args: (key, (1,) + (0,) * (t.dimension - 1)))
    with pytest.raises(InternalConsistencyError, match="sparse-difference"):
        check(fresh(t))
