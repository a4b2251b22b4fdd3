import pickle
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algcheck.axioms import (ad_map, annihilator_of_image, check_associative,
                             check_commutative, check_lie, check_lts,
                             check_n_jacobi, check_prelie,
                             check_skew_symmetric, commutator)
from algcheck.catalog import get
from algcheck.linalg import basis_vector, vec_add, vec_is_zero, vec_scale
from algcheck.reports import ArgumentError, InternalConsistencyError
from algcheck.tensor import (StructureTensor, sort_with_sign, stored_keys,
                             tensors_equal)

# ---------------------------------------------------------------- oracles


def oracle_jacobi_ternary(t):
    """Independent dense brute force over every d**5 tuple."""
    d = t.dimension
    for x1, x2, x3, x4, x5 in product(range(d), repeat=5):
        lhs = t.evaluate([t.basis_product((x1, x2, x3)),
                          basis_vector(d, x4), basis_vector(d, x5)])
        rhs = (0,) * d
        for i, xi in enumerate((x1, x2, x3)):
            inner = t.basis_product((xi, x4, x5))
            args = [basis_vector(d, v) for v in (x1, x2, x3)]
            args[i] = inner
            rhs = vec_add(rhs, t.evaluate(args))
        if lhs != rhs:
            return (x1, x2, x3, x4, x5)
    return None


def small_skew(dim):
    keys = stored_keys(3, dim, "skew")
    vals = st.lists(
        st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).map(tuple),
        min_size=len(keys), max_size=len(keys))
    return vals.map(lambda vs: StructureTensor(3, dim, "skew",
                                               dict(zip(keys, vs))))


def reference_basis_product(t, indices):
    """Sort-and-sign lookup on the stored entries of a skew tensor."""
    key, sign = sort_with_sign(indices)
    value = t.entries.get(key)
    if value is None or any(a == b for a, b in zip(key, key[1:])):
        return (0,) * t.dimension
    return vec_scale(sign, value)


def reference_dense_slot(t, indices, pos, dense):
    """Basis-tuple product with one dense vector substituted at ``pos``."""
    out = [0] * t.dimension
    for k, c in enumerate(dense):
        if c:
            term = reference_basis_product(t, indices[:pos] + (k,) + indices[pos + 1:])
            for i, a in enumerate(term):
                if a:
                    out[i] += c * a
    return tuple(out)


def reference_jacobi(t):
    """The dense n-Jacobi scan: every pair of ascending tuples in lex order,
    dense products throughout, and for ternary brackets the bracket-first
    form scanned alongside.  Returns (passed, checked_count, counterexample)
    or raises ``InternalConsistencyError`` when the two forms disagree."""
    n, d = t.arity, t.dimension
    bad = bad_alt = None
    for xs in combinations(range(d), n):
        bx = reference_basis_product(t, xs)
        for ys in combinations(range(d), n - 1):
            lhs = reference_dense_slot(t, (0,) + ys, 0, bx)
            rhs = (0,) * d
            for i in range(n):
                inner = reference_basis_product(t, (xs[i],) + ys)
                if not vec_is_zero(inner):
                    rhs = vec_add(rhs, reference_dense_slot(t, xs, i, inner))
            if lhs != rhs and bad is None:
                bad = (xs + ys, lhs, rhs)
            if n == 3 and bad_alt is None:
                alt = (0,) * d
                cyc = ((xs[1], xs[2]), (xs[2], xs[0]), (xs[0], xs[1]))
                for i in range(3):
                    inner = reference_basis_product(t, (xs[i],) + ys)
                    alt = vec_add(alt, reference_dense_slot(t, (0,) + cyc[i], 0, inner))
                if lhs != alt:
                    bad_alt = (xs + ys, lhs, alt)
            if bad is not None and (n != 3 or bad_alt is not None):
                break
        else:
            continue
        break
    if n == 3 and (bad is None) != (bad_alt is None):
        raise InternalConsistencyError("the two ternary Jacobi forms disagree")
    return bad is None, d ** (2 * n - 1), bad


def unsymmetric(t):
    """The same product stored on every ordered tuple, without symmetry."""
    return StructureTensor(t.arity, t.dimension, "none", {
        key: tuple(dict(pairs).get(k, 0) for k in range(t.dimension))
        for key, pairs in t.table.items()})


@st.composite
def nary_brackets(draw, arity):
    """Skew brackets that satisfy the n-Jacobi identity or nearly do: the
    simple (n+1)-dimensional n-Lie algebra with random signs, optionally
    perturbed in one structure constant, or a random tensor with one to five
    nonzero structure constants."""
    dim = arity + 1
    if draw(st.booleans()):
        entries = {}
        for i in range(dim):
            key = tuple(j for j in range(dim) if j != i)
            entries[key] = vec_scale(draw(st.sampled_from((1, -1))),
                                     basis_vector(dim, i))
    else:
        dim = draw(st.integers(arity, arity + 2))
        entries = {}
    # add to one structure constant; the random tensors get a few of these
    for _ in range(draw(st.integers(0 if entries else 1, 1 if entries else 5))):
        key = draw(st.sampled_from(stored_keys(arity, dim, "skew")))
        k = draw(st.integers(0, dim - 1))
        value = list(entries.get(key, (0,) * dim))
        value[k] += draw(st.sampled_from((1, -1, 2, Fraction(1, 2))))
        entries[key] = tuple(value)
    return StructureTensor(arity, dim, "skew", entries)


@settings(max_examples=80, deadline=None)
@given(st.one_of(nary_brackets(3), nary_brackets(4)))
def test_jacobi_matches_dense_reference_scan(t):
    passed, count, bad = reference_jacobi(t)
    rep = check_n_jacobi(t)
    assert (rep.passed, rep.checked_count) == (passed, count)
    if bad is not None:
        ce = rep.counterexample
        assert (ce.indices, ce.lhs, ce.rhs) == bad
    # the same bracket stored on every ordered tuple, whose skewness the
    # scan checks instead of assuming
    assert check_n_jacobi(unsymmetric(t)) == rep


def test_simple_nlie_algebras_pass_the_reference():
    # the unperturbed generator branch really yields n-Lie algebras
    for n in (3, 4):
        d = n + 1
        t = StructureTensor(n, d, "skew", {
            tuple(j for j in range(d) if j != i): basis_vector(d, i)
            for i in range(d)})
        assert reference_jacobi(t)[0]
        assert check_n_jacobi(t).passed


# ---------------------------------------------------------------- skew


def test_skew_on_skew_storage_passes_by_construction():
    t = get("a4").products["bracket"]
    rep = check_skew_symmetric(t)
    assert rep.passed
    assert rep.checked_count == 4 ** 3 * 2


def test_skew_fails_on_componentwise_product():
    # x*y componentwise on Q^2 is symmetric; the principled first failure is
    # the repeated-index tuple (0,0), whose product must vanish under skewness
    t = get("q3").products["prod"]
    rep = check_skew_symmetric(t)
    assert not rep.passed
    assert rep.counterexample.indices == (0, 0)
    assert rep.counterexample.lhs == (1, 0, 0)
    assert rep.counterexample.rhs == (-1, 0, 0)


def test_skew_detects_sign_violation_off_diagonal():
    t = StructureTensor(2, 2, "none", {(0, 1): (1, 0), (1, 0): (1, 0)})
    rep = check_skew_symmetric(t)
    assert not rep.passed
    assert rep.counterexample.indices == (0, 1)


# ---------------------------------------------------------------- jacobi


def test_a4_jacobi_passes_and_counts_full_tuples():
    rep = check_n_jacobi(get("a4").products["bracket"])
    assert rep.passed
    assert rep.checked_count == 4 ** 5
    assert oracle_jacobi_ternary(get("a4").products["bracket"]) is None


def test_jacobi_requires_skew():
    with pytest.raises(ArgumentError):
        check_n_jacobi(get("q3").products["prod"])


def test_jacobi_counterexample_is_lex_least():
    # a skew 3-tensor on Q^4 that fails Jacobi; verify against the oracle
    t = StructureTensor(3, 4, "skew", {
        (0, 1, 2): basis_vector(4, 3), (0, 1, 3): basis_vector(4, 0)})
    rep = check_n_jacobi(t)
    assert not rep.passed
    assert rep.counterexample.indices == oracle_jacobi_ternary(t)


@settings(max_examples=30, deadline=None)
@given(small_skew(3))
def test_jacobi_verdict_matches_oracle(t):
    rep = check_n_jacobi(t)
    bad = oracle_jacobi_ternary(t)
    assert rep.passed == (bad is None)
    if bad is not None:
        assert rep.counterexample.indices == bad


# ------------------------------------------------------- binary axioms


def test_associative_commutative_componentwise():
    t = get("q4").products["prod"]
    assert check_associative(t).passed
    assert check_commutative(t).passed


def test_truncated_poly_assoc_comm():
    for name in ("qt3", "qt4", "qt2_deg3", "qt3_deg4"):
        t = get(name).products["prod"]
        assert check_associative(t).passed
        assert check_commutative(t).passed


def test_prelie_catalog_product_is_prelie_not_assoc():
    # t^a * t^b = b t^(a+b): pre-Lie but not associative
    t = get("qt4").products["prelie"]
    assert check_prelie(t).passed
    rep = check_associative(t)
    assert not rep.passed
    # (1*1)*t = 0 but 1*(1*t) = 1*t = t: first failure at (1, 1, t)
    assert rep.counterexample.indices == (0, 0, 1)
    assert rep.counterexample.lhs == (0, 0, 0, 0)
    assert rep.counterexample.rhs == (0, 1, 0, 0)


def test_lie_axioms():
    assert check_lie(get("heisenberg").products["bracket"]).passed
    assert check_lie(get("nonabelian2").products["bracket"]).passed
    rep = check_lie(get("q3").products["prod"])
    assert not rep.passed  # symmetric, so antisymmetry fails first


def test_lie_jacobi_failure():
    # skew but non-Jacobi: [e1,e2]=e3, [e1,e3]=e2 with bad sign pattern
    t = StructureTensor(2, 3, "skew", {
        (0, 1): basis_vector(3, 2), (0, 2): basis_vector(3, 2),
        (1, 2): basis_vector(3, 0)})
    rep = check_lie(t)
    assert not rep.passed


def test_lts_axioms_via_catalog():
    from algcheck.inheritance import lts_from_lie
    lts = lts_from_lie(get("nonabelian2").products["bracket"])
    assert check_lts(lts).passed


def test_lts_rejects_wrong_arity():
    with pytest.raises(ArgumentError):
        check_lts(get("q3").products["prod"])
    with pytest.raises(ArgumentError):
        check_associative(get("a4").products["bracket"])


def test_lts_fails_on_non_lts():
    # fully skew A4 bracket is a 3-Lie algebra but NOT an LTS:
    # the cyclic sum axiom fails ({x,y,z}+{y,z,x}+{z,x,y} = 3[x,y,z] != 0)
    rep = check_lts(get("a4").products["bracket"])
    assert not rep.passed
    assert rep.counterexample.indices == (0, 1, 2)
    assert rep.counterexample.lhs == (0, 0, 0, 3)


# ------------------------------------------------------------ helpers


def test_commutator():
    t = get("qt4").products["prelie"]
    c = commutator(t)
    # [t^a, t^b] = (b-a) t^(a+b)
    assert c.basis_product((0, 1)) == (0, 1, 0, 0)
    assert c.basis_product((1, 2)) == (0, 0, 0, 1)
    assert check_lie(c).passed


def test_ad_map():
    t = get("heisenberg").products["bracket"]
    ad = ad_map(t, [basis_vector(3, 0)])
    assert ad.cols[1] == (0, 0, 1)  # [e1, e2] = e3
    assert ad.cols[0] == (0, 0, 0)
    with pytest.raises(ArgumentError):
        ad_map(t, [])


def test_annihilator_of_image():
    forms = annihilator_of_image(get("heisenberg").products["bracket"])
    # image spans e3 -> annihilator is the span of e1*, e2*
    assert [f.row for f in forms] == [(1, 0, 0), (0, 1, 0)]
    assert annihilator_of_image(get("a4").products["bracket"]) == []


# ------------------------------------------------------- kept reports
# A tensor-only check runs once per tensor and keeps its report on it.
# Catalog tensors live for the whole process, so these tests copy them:
# on a copy no earlier call can have kept a report.


def _copy(t):
    return StructureTensor(t.arity, t.dimension, t.symmetry, t.entries)


def _product(name, pname):
    return _copy(get(name).products[pname])


def _kept_cases():
    """(check, passing tensor, failing tensor) for each tensor-only check."""
    from algcheck.inheritance import lts_from_lie
    return [
        (check_skew_symmetric,
         StructureTensor(2, 2, "none", {(0, 1): (1, 0), (1, 0): (-1, 0)}),
         _product("q3", "prod")),
        (check_n_jacobi, _product("a4", "bracket"),
         StructureTensor(3, 4, "skew", {(0, 1, 2): basis_vector(4, 3),
                                        (0, 1, 3): basis_vector(4, 0)})),
        (check_associative, _product("q4", "prod"), _product("qt4", "prelie")),
        (check_commutative, _product("q4", "prod"), _product("qt4", "prelie")),
        (check_lie, _product("heisenberg", "bracket"), _product("q3", "prod")),
        (check_prelie, _product("qt4", "prelie"),
         _product("nonabelian2", "bracket")),
        (check_lts, _copy(lts_from_lie(get("nonabelian2").products["bracket"])),
         _product("a4", "bracket")),
    ]


def test_each_check_keeps_its_report_on_the_tensor():
    for check, good, bad in _kept_cases():
        for t, passed in ((good, True), (bad, False)):
            rep = check(t)
            assert rep.passed is passed, check.__name__
            assert check(t) is rep  # same verdict and counterexample
            # an equal but distinct tensor is scanned for its own report
            twin = _copy(t)
            own = check(twin)
            assert own is not rep and own == rep
            assert own == check.__wrapped__(_copy(t))


def test_kept_reports_leave_equality_and_pickling_alone():
    t, u = _product("a4", "bracket"), _product("a4", "bracket")
    check_n_jacobi(t)
    check_lts(t)
    assert t == u and tensors_equal(t, u) and repr(t) == repr(u)
    again = pickle.loads(pickle.dumps(t))
    assert again == t and tensors_equal(again, t)
    assert check_n_jacobi(again) == check_n_jacobi(u)
    assert check_lts(again) == check_lts(u)


def test_argument_errors_are_raised_on_every_call():
    ternary, binary = _product("a4", "bracket"), _product("q3", "prod")
    for check, t in ((check_associative, ternary), (check_commutative, ternary),
                     (check_lie, ternary), (check_prelie, ternary),
                     (check_lts, binary), (check_n_jacobi, binary)):
        for _ in range(2):
            with pytest.raises(ArgumentError):
                check(t)
