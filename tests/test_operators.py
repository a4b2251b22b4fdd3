from fractions import Fraction
from functools import lru_cache
from itertools import combinations, count, product

import pytest
from hypothesis import Phase, event, find, given, settings
from hypothesis import strategies as st

from algcheck import operators, reports
from algcheck.axioms import check_associative, check_commutative
from algcheck.catalog import catalog_names, get, running_sum_map
from algcheck.inheritance import naive_bracket
from algcheck.linalg import (LinearMap, basis_vector, support, vec_add,
                             vec_is_zero, vec_scale)
from algcheck.operators import (SubsetMode, check_derivation, check_duality,
                                check_rota_baxter, nary_from_associative,
                                subset_expansion)
from algcheck.reports import (ArgumentError, InternalConsistencyError,
                              PreconditionError, failing, passing)
from algcheck.tensor import SYMMETRIES, StructureTensor, basis_tuples, stored_keys

# ---------------------------------------------------------------- oracles


def oracle_rb_binary(t, p, lam):
    """Direct transcription of P(x)P(y) = P(P(x)y + xP(y) + lam*xy)."""
    d = t.dimension
    for i, j in product(range(d), repeat=2):
        ei, ej = basis_vector(d, i), basis_vector(d, j)
        lhs = t.evaluate([p(ei), p(ej)])
        inner = vec_add(vec_add(t.evaluate([p(ei), ej]),
                                t.evaluate([ei, p(ej)])),
                        vec_scale(lam, t.evaluate([ei, ej])))
        if lhs != p(inner):
            return (i, j)
    return None


def oracle_derivation_ternary_w0(t, dmap):
    """Leibniz rule written out by hand for arity 3, weight 0."""
    d = t.dimension
    for idx in product(range(d), repeat=3):
        args = [basis_vector(d, i) for i in idx]
        lhs = dmap(t.evaluate(args))
        rhs = (0,) * d
        for pos in range(3):
            rep = list(args)
            rep[pos] = dmap(args[pos])
            rhs = vec_add(rhs, t.evaluate(rep))
        if lhs != rhs:
            return idx
    return None


def small_skew3(dim):
    keys = stored_keys(3, dim, "skew")
    vals = st.lists(
        st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).map(tuple),
        min_size=len(keys), max_size=len(keys))
    return vals.map(lambda vs: StructureTensor(3, dim, "skew",
                                               dict(zip(keys, vs))))


def small_maps(dim):
    return st.lists(
        st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).map(tuple),
        min_size=dim, max_size=dim).map(LinearMap.from_cols)


# ------------------------------------------------------ subset expansion


def test_subset_expansion_weight0_equals_single_replacement():
    t = get("a4").products["bracket"]
    d = get("a4").maps["D"]
    args = [(1, 2, 0, 0), (0, 1, 1, 0), (0, 0, 1, 3)]
    for mode in SubsetMode:
        assert subset_expansion(t, d, 0, args, mode) == \
            oracle_single_replacement_sum(t, d, args, mode)


def test_subset_expansion_conventions_differ():
    # rb_hat applies the map OUTSIDE the subset, diff_check INSIDE
    t = get("q3").products["prod"]
    p = running_sum_map(3)
    args = [basis_vector(3, 0), basis_vector(3, 1)]
    rb = subset_expansion(t, p, 1, args, "rb_hat")
    der = subset_expansion(t, p, 1, args, "diff_check")
    assert rb != der


def test_subset_expansion_argument_errors():
    t = get("q3").products["prod"]
    p = running_sum_map(3)
    with pytest.raises(ArgumentError):
        subset_expansion(t, p, 0, [basis_vector(3, 0)], "rb_hat")
    with pytest.raises(ArgumentError):
        subset_expansion(t, running_sum_map(2), 0,
                         [basis_vector(3, 0)] * 2, "rb_hat")
    with pytest.raises(ArgumentError, match="dimension"):
        subset_expansion(t, p, 0, [basis_vector(3, 0), (1, 0)], "rb_hat")


# --------------------------------------------------------------- checks


def test_running_sum_is_rb_weight_one():
    for name in ("q3", "q4"):
        alg = get(name)
        rep = check_rota_baxter(alg.products["prod"], alg.maps["P"], 1)
        assert rep.passed
        assert oracle_rb_binary(alg.products["prod"], alg.maps["P"], 1) is None


def test_running_sum_wrong_weight_fails():
    alg = get("q3")
    rep = check_rota_baxter(alg.products["prod"], alg.maps["P"], 0)
    assert not rep.passed
    assert oracle_rb_binary(alg.products["prod"], alg.maps["P"], 0) == \
        rep.counterexample.indices


def test_euler_is_derivation_weight0():
    for name in ("qt3", "qt4"):
        alg = get(name)
        assert check_derivation(alg.products["prod"], alg.maps["D"], 0).passed


def test_swap_map_rb_and_derivation_on_a4():
    alg = get("a4")
    t, dmap = alg.products["bracket"], alg.maps["D"]
    assert check_rota_baxter(t, dmap, 0).passed
    assert check_derivation(t, dmap, 0).passed
    assert oracle_derivation_ternary_w0(t, dmap) is None


def test_minus_lambda_id_is_rb_any_weight():
    # P = -lam*Id satisfies the RB identity at weight lam on any bracket
    t = get("a4").products["bracket"]
    for lam in (1, -1, Fraction(1, 2)):
        p = LinearMap.scalar(4, -lam)
        assert check_rota_baxter(t, p, lam).passed


def test_identity_is_ternary_derivation_at_special_weights():
    # Id on an n-ary bracket is a weight-lam derivation iff
    # sum_s C(n,s) lam^(s-1) = n over subsets, i.e. lam in {-1, -2} for n=3
    t = get("a4").products["bracket"]
    ident = LinearMap.identity(4)
    assert check_derivation(t, ident, -1).passed
    assert check_derivation(t, ident, -2).passed
    assert not check_derivation(t, ident, 0).passed


def test_zero_map_rb_iff_weight_kills_bracket():
    t = get("a4").products["bracket"]
    zero = LinearMap.zero(4)
    for lam in (0, 1, -1, Fraction(1, 2)):
        assert check_rota_baxter(t, zero, lam).passed


def test_counterexample_is_lex_least_full_logical_count():
    t = get("q3").products["prod"]
    rep = check_rota_baxter(t, running_sum_map(3), 0)
    assert rep.checked_count == 9
    assert rep.counterexample.indices == oracle_rb_binary(
        t, running_sum_map(3), 0)


# --------------------------------------------------------------- duality


def test_duality_on_a4_swap():
    alg = get("a4")
    rep = check_duality(alg.products["bracket"], alg.maps["D"], 0)
    assert rep.passed
    assert rep.identity_name == "rb-derivation-duality"


def test_duality_requires_invertible():
    with pytest.raises(PreconditionError):
        check_duality(get("q3").products["prod"], running_sum_map(3), 1)


@settings(max_examples=60, deadline=None)
@given(small_skew3(3), small_maps(3), st.sampled_from([0, 1, -1,
                                                       Fraction(1, 2)]))
def test_duality_verdicts_always_agree(t, p, lam):
    # Theorem: invertible P is RB of weight lam iff P^-1 is a derivation
    # of weight lam; check_duality raises InternalConsistencyError on any
    # disagreement, so merely running it is the assertion.
    if p.is_invertible():
        check_duality(t, p, lam)


# ----------------------------------------------------- n-ary power product


def test_nary_from_associative_values():
    t = get("q4").products["prod"]
    nary = nary_from_associative(t, 3)
    assert nary.arity == 3
    # componentwise: e_i * e_i * e_i = e_i, mixed products vanish
    for i, j, k in product(range(4), repeat=3):
        expected = basis_vector(4, i) if i == j == k else (0,) * 4
        assert nary.basis_product((i, j, k)) == expected


def test_nary_from_associative_requires_associativity():
    with pytest.raises(PreconditionError):
        nary_from_associative(get("qt4").products["prelie"], 3)
    with pytest.raises(ArgumentError):
        nary_from_associative(get("q3").products["prod"], 1)


def test_nary_power_is_kept_on_its_factor():
    q4 = get("q4").products["prod"]

    def copy():  # nothing is kept on a copy yet
        return StructureTensor(q4.arity, q4.dimension, q4.symmetry, q4.entries)

    t = copy()
    nary = nary_from_associative(t, 3)
    assert nary_from_associative(t, 3) is nary
    assert nary_from_associative(t, 4).arity == 4
    assert nary_from_associative(t, 3) is nary
    # an equal but distinct factor builds its own, equal power
    other = nary_from_associative(copy(), 3)
    assert other is not nary and other == nary


def test_nary_power_errors_are_raised_on_every_call():
    prelie = get("qt4").products["prelie"]
    for _ in range(2):
        with pytest.raises(PreconditionError):
            nary_from_associative(prelie, 3)
        with pytest.raises(ArgumentError):
            nary_from_associative(get("q3").products["prod"], 1)


def test_nary_power_truncated_poly():
    t = get("qt4").products["prod"]
    nary = nary_from_associative(t, 3)
    # t * t * t = t^3, 1 * t * t^2 = t^3, t * t^2 * t^2 = 0 (truncated)
    assert nary.basis_product((1, 1, 1)) == (0, 0, 0, 1)
    assert nary.basis_product((0, 1, 2)) == (0, 0, 0, 1)
    assert nary.basis_product((1, 2, 2)) == (0, 0, 0, 0)


def parent_nary_power(t, n):
    """The earlier power loop: dense running products from basis vectors."""
    d = t.dimension
    level = {(i,): basis_vector(d, i) for i in range(d)}
    for _ in range(n - 1):
        nxt = {}
        for key, vec in level.items():
            for j in range(d):
                nxt[key + (j,)] = t.contract((support(vec), j))
        level = nxt
    entries = {k: v for k, v in level.items() if not vec_is_zero(v)}
    return StructureTensor(n, d, "none", entries)


def test_nary_power_matches_the_dense_loop_on_the_catalog():
    seen = 0
    for name in catalog_names():
        for t in get(name).products.values():
            if t.arity != 2 or not check_associative(t).passed:
                continue
            seen += 1
            for n in (2, 3, 4) if t.dimension <= 10 else (2, 3):
                got, want = nary_from_associative(t, n), parent_nary_power(t, n)
                assert got == want and repr(got) == repr(want)
    assert seen >= 5


# ------------------------------- per-check set-up against per-tuple forms
# The checkers build the map's sparse columns and the subset weights once
# per check, and scan only the sorted tuples of a symmetric product.  These
# are the per-tuple forms they replaced, one public subset_expansion call
# per basis tuple of the full scan (all d**n tuples unless the product is
# skew); every report must be identical, down to the int or Fraction type
# of each counterexample coordinate.


def _seed_scan(t):
    d = t.dimension
    return (combinations(range(d), t.arity) if t.symmetry == "skew"
            else product(range(d), repeat=t.arity))


def seed_check_rota_baxter(t, p, lam):
    count = t.dimension ** t.arity
    ebasis = [basis_vector(t.dimension, i) for i in range(t.dimension)]
    for idx in _seed_scan(t):
        lhs = t.evaluate([p.cols[i] for i in idx])
        rhs = p(subset_expansion(
            t, p, lam, [ebasis[i] for i in idx], SubsetMode.RB_HAT))
        if lhs != rhs:
            return failing("rota-baxter", count, idx, lhs, rhs)
    return passing("rota-baxter", count)


def seed_check_derivation(t, dmap, lam):
    count = t.dimension ** t.arity
    ebasis = [basis_vector(t.dimension, i) for i in range(t.dimension)]
    for idx in _seed_scan(t):
        lhs = dmap(t.basis_product(idx))
        rhs = subset_expansion(
            t, dmap, lam, [ebasis[i] for i in idx], SubsetMode.DIFF_CHECK)
        if lhs != rhs:
            return failing("derivation", count, idx, lhs, rhs)
    return passing("derivation", count)


_scalars = st.one_of(st.integers(-2, 2),
                     st.fractions(min_value=-2, max_value=2, max_denominator=2))


@st.composite
def random_tensors(draw, dim=3):
    arity = draw(st.sampled_from([2, 3]))
    symmetry = draw(st.sampled_from(SYMMETRIES))
    keys = stored_keys(arity, dim, symmetry)
    vals = draw(st.lists(st.lists(_scalars, min_size=dim, max_size=dim),
                         min_size=len(keys), max_size=len(keys)))
    # sparse: most products vanish, so some checks pass
    mask = draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
    return StructureTensor(arity, dim, symmetry,
                           {k: v for k, v, keep in zip(keys, vals, mask) if keep})


def random_maps(dim=3):
    return st.one_of(
        st.lists(st.lists(_scalars, min_size=dim, max_size=dim),
                 min_size=dim, max_size=dim).map(LinearMap.from_cols),
        st.sampled_from([LinearMap.zero(dim), LinearMap.identity(dim),
                         LinearMap.scalar(dim, -1)]))


_weights = st.sampled_from([0, 1, -1, 2, Fraction(1, 2)])


@settings(max_examples=80, deadline=None)
@given(random_tensors(), random_maps(), _weights)
def test_check_rota_baxter_matches_the_per_tuple_form(t, p, lam):
    got, want = check_rota_baxter(t, p, lam), seed_check_rota_baxter(t, p, lam)
    event(want.verdict)
    assert got == want and repr(got) == repr(want)


@settings(max_examples=80, deadline=None)
@given(random_tensors(), random_maps(), _weights)
def test_check_derivation_matches_the_per_tuple_form(t, dmap, lam):
    got, want = check_derivation(t, dmap, lam), seed_check_derivation(t, dmap, lam)
    event(want.verdict)
    assert got == want and repr(got) == repr(want)


# On a symmetric product the checks scan sorted tuples only.  Random dense
# products nearly always fail at (0, 0) already, so these draws start from
# the catalog's symmetric products with their own maps, which pass at the
# weights the catalog claims, and move one structure constant in most draws.
# Some draws store the product on every ordered pair instead (symmetry
# "none"), where a moved constant can break the symmetry and the full scan
# must be kept.

@lru_cache(maxsize=None)
def _symmetric():
    # built on the first draw: a construction that raises inside the
    # catalog fails the tests that draw, not the collection of this module
    return [(t, m) for alg in catalog_names() if get(alg).dimension <= 6
            for t in get(alg).products.values() if t.symmetry == "symmetric"
            for m in get(alg).maps.values()]


@st.composite
def symmetric_instances(draw):
    t, m = draw(st.sampled_from(_symmetric()))
    d = t.dimension
    symmetry = draw(st.sampled_from(["symmetric", "symmetric", "none"]))
    entries = {key: t.basis_product(key) for key in stored_keys(2, d, symmetry)}
    if draw(st.integers(0, 3)):
        key = draw(st.sampled_from(sorted(entries)))
        k = draw(st.integers(0, d - 1))
        value = list(entries[key])
        value[k] += draw(st.sampled_from([1, -1, Fraction(1, 2)]))
        entries[key] = tuple(value)
    return (StructureTensor(2, d, symmetry, entries), m,
            draw(st.sampled_from([0, 1, -1])))


def _distinct_failure(rep):
    return not rep.passed and len(set(rep.counterexample.indices)) > 1


_OPERATOR_ORACLES = [(check_rota_baxter, seed_check_rota_baxter),
                     (check_derivation, seed_check_derivation)]


@settings(max_examples=80, deadline=None)
@given(symmetric_instances())
def test_operator_checks_on_symmetric_products_match_the_full_scan(instance):
    for check, oracle in _OPERATOR_ORACLES:
        got, want = check(*instance), oracle(*instance)
        event(f"{instance[0].symmetry} {want.identity_name}: {want.verdict}"
              + (" at distinct indices" if _distinct_failure(want) else ""))
        assert got == want and repr(got) == repr(want)


@pytest.mark.parametrize("check, oracle", _OPERATOR_ORACLES)
def test_symmetric_draws_fail_at_distinct_indices(check, oracle):
    # the draws above reach the case the sorted scan must get right: the
    # first failure of the full scan lies off the diagonal
    instance = find(symmetric_instances(),
                    lambda instance: instance[0].symmetry == "symmetric"
                    and _distinct_failure(oracle(*instance)),
                    settings=settings(database=None, derandomize=True,
                                      phases=[Phase.generate]))
    got, want = check(*instance), oracle(*instance)
    assert got == want and repr(got) == repr(want)


def test_operator_checks_scan_every_tuple_of_an_unsymmetric_product():
    # e1 e0 = e0 is the only product, so only (1, 0) fails, and it is not
    # sorted: a scan keyed by the wrong symmetry would pass
    args = (StructureTensor(2, 2, "none", {(1, 0): (1, 0)}), LinearMap.identity(2), 0)
    for check, oracle in _OPERATOR_ORACLES:
        got, want = check(*args), oracle(*args)
        assert want.counterexample.indices == (1, 0) and want.checked_count == 4
        assert got == want and repr(got) == repr(want)


def test_operator_checks_reject_a_map_of_another_dimension():
    t = get("q3").products["prod"]
    for check in (check_rota_baxter, check_derivation):
        with pytest.raises(ArgumentError):
            check(t, running_sum_map(2), 1)


# ------------------------------------------------- single-replacement sum


def oracle_single_replacement_sum(t, m, args, mode):
    """The earlier dense form: one ``evaluate`` per replaced position."""
    out = [0] * t.dimension
    imgs = [m(a) for a in args]
    for i in range(t.arity):
        if mode is SubsetMode.DIFF_CHECK:
            term = t.evaluate(args[:i] + [imgs[i]] + args[i + 1:])
        else:
            term = t.evaluate(imgs[:i] + [args[i]] + imgs[i + 1:])
        out = vec_add(out, term)
    return tuple(out)


_entries = st.sampled_from((0, 0, 0, 1, -1, 2, Fraction(1, 2)))


@st.composite
def tensor_map_args(draw):
    arity = draw(st.integers(2, 3))
    dim = draw(st.integers(1, 4))
    symmetry = draw(st.sampled_from(("none", "skew", "symmetric")))
    vec = st.lists(_entries, min_size=dim, max_size=dim).map(tuple)
    keys = stored_keys(arity, dim, symmetry)
    t = StructureTensor(arity, dim, symmetry, dict(zip(
        keys, draw(st.lists(vec, min_size=len(keys), max_size=len(keys))))))
    m = LinearMap.from_cols(draw(st.lists(vec, min_size=dim, max_size=dim)))
    return t, m, draw(st.lists(vec, min_size=arity, max_size=arity))


@settings(max_examples=80, deadline=None)
@given(tensor_map_args())
def test_single_replacement_sum_is_the_weight0_subset_expansion(instance):
    t, m, args = instance
    event(f"{t.symmetry}, arity {t.arity}")
    for mode in SubsetMode:
        assert subset_expansion(t, m, 0, args, mode) == \
            oracle_single_replacement_sum(t, m, args, mode)
    naive, d = naive_bracket(t, m), t.dimension
    for key in product(range(d), repeat=t.arity):
        assert naive.basis_product(key) == oracle_single_replacement_sum(
            t, m, [basis_vector(d, i) for i in key], SubsetMode.DIFF_CHECK)


def dense_subset_sum(t, m, lam, args, mode):
    """The subset expansion written out by hand: over the nonempty subsets I
    of the positions, lam**(|I|-1) times ``evaluate`` at the arguments with
    m applied inside I (``DIFF_CHECK``) or outside I (``RB_HAT``)."""
    inside = SubsetMode(mode) is SubsetMode.DIFF_CHECK
    out = (0,) * t.dimension
    for size in range(1, t.arity + 1):
        for subset in combinations(range(t.arity), size):
            term = t.evaluate([m(a) if (i in subset) == inside else a
                               for i, a in enumerate(args)])
            out = vec_add(out, vec_scale(lam ** (size - 1), term))
    return out


@settings(max_examples=80, deadline=None)
@given(tensor_map_args(), _weights)
def test_subset_expansion_is_the_dense_subset_sum(instance, lam):
    # an oracle independent of the one statement both checks and
    # subset_expansion read, and of its term builder
    t, m, args = instance
    event(f"arity {t.arity}, weight {lam}")
    for mode in SubsetMode:
        assert subset_expansion(t, m, lam, args, mode) == \
            dense_subset_sum(t, m, lam, args, mode)


# ------------------------------------ the sparse difference past the prefix
# Past their first reports._PREFIX tuples the checks decide the scan from
# the sparse difference of the two sides.  The dim-3 draws above scan at most
# 27 tuples, nearly all inside the prefix; these scan more than the prefix
# and are sparse enough to pass, or to fail late.  Each draw is also checked
# with no prefix at all, so every draw reaches the difference.


def _scanned(t):
    return list(basis_tuples(t.arity, t.dimension, t.symmetry))


def _dense(entries, d):
    """key -> dense vector, from (key, coordinate, value) entries; a later
    entry overwrites an earlier one at the same place."""
    out = {}
    for key, k, a in entries:
        out.setdefault(key, [0] * d)[k] = a
    return {key: tuple(v) for key, v in out.items()}


@st.composite
def past_prefix_instances(draw):
    arity = draw(st.sampled_from([2, 3]))
    symmetry = draw(st.sampled_from(SYMMETRIES))
    # the least dimension whose scan is longer than the prefix, or one more
    least = next(d for d in count(1)
                 if len(stored_keys(arity, d, symmetry)) > reports._PREFIX)
    d = least + draw(st.integers(0, 1))
    keys = stored_keys(arity, d, symmetry)
    # a few constants, often on late keys, so that many checks fail late
    key = st.sampled_from(keys) | st.sampled_from(keys[len(keys) // 2:])
    index = st.integers(0, d - 1)
    t = StructureTensor(arity, d, symmetry, _dense(draw(st.lists(
        st.tuples(key, index, _scalars), min_size=1, max_size=4)), d))
    dense_map = st.lists(st.lists(_scalars, min_size=d, max_size=d),
                         min_size=d, max_size=d).map(LinearMap.from_cols)
    sparse_map = st.lists(st.tuples(index, index, _scalars), max_size=d).map(
        lambda entries: LinearMap.from_cols(_dense(entries, d).get(j, (0,) * d)
                                            for j in range(d)))
    lam = draw(st.sampled_from([0, 1, Fraction(-1, 2)]))
    kind = draw(st.sampled_from(["sparse", "sparse", "dense", "special"]))
    m = draw({"sparse": sparse_map, "dense": dense_map,
              # -lam Id is Rota-Baxter and its inverse a derivation: every
              # subset weight counts
              "special": st.sampled_from([
                  LinearMap.zero(d), LinearMap.identity(d),
                  LinearMap.scalar(d, -1), LinearMap.scalar(d, -lam),
                  LinearMap.scalar(d, Fraction(-1, lam) if lam else 0)])}[kind])
    return t, m, lam


def _where(rep, t):
    if rep.passed:
        return "pass"
    position = _scanned(t).index(rep.counterexample.indices)
    return ("fail in the prefix" if position < reports._PREFIX
            else "fail past the prefix")


@settings(max_examples=150, deadline=None)
@given(past_prefix_instances())
def test_operator_checks_past_the_prefix_match_the_per_tuple_form(instance):
    t = instance[0]
    assert len(_scanned(t)) > reports._PREFIX
    for check, oracle in _OPERATOR_ORACLES:
        want = oracle(*instance)
        event(f"{t.symmetry}, arity {t.arity}: {_where(want, t)}")
        got = check(*instance)
        assert got == want and repr(got) == repr(want)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reports, "_PREFIX", 0)
            got = check(*instance)
        assert got == want and repr(got) == repr(want)


@pytest.mark.parametrize("check, oracle", _OPERATOR_ORACLES)
def test_draws_fail_past_the_prefix(check, oracle):
    # the case the difference must get right: no failure in the prefix, and
    # a first failure after it
    instance = find(past_prefix_instances(),
                    lambda instance: _where(oracle(*instance), instance[0])
                    == "fail past the prefix",
                    settings=settings(database=None, derandomize=True,
                                      max_examples=1000,
                                      phases=[Phase.generate]))
    got, want = check(*instance), oracle(*instance)
    assert got == want and repr(got) == repr(want)


def test_checks_past_the_prefix_scan_no_more_tuples(monkeypatch):
    # the passing derivation checks on the dim-20 cube scan 8,000 tuples;
    # only the prefix and no other tuple is scanned one by one
    alg = get("qt3_deg4")
    cube = nary_from_associative(alg.products["prod"], 3)
    scanned = []
    real = reports.first_failure

    def counting(name, checked, tuples, sides):
        tuples = list(tuples)
        scanned.extend(tuples)
        return real(name, checked, tuples, sides)

    monkeypatch.setattr(reports, "first_failure", counting)
    for name in ("D1", "D2", "D3"):
        scanned.clear()
        rep = check_derivation(cube, alg.maps[name], 0)
        assert rep.passed and rep.checked_count == 8000
        assert scanned == _scanned(cube)[:reports._PREFIX]


def test_a_difference_the_sides_do_not_confirm_is_an_internal_error(monkeypatch):
    alg = get("qt3_deg4")
    cube = nary_from_associative(alg.products["prod"], 3)
    key = _scanned(cube)[reports._PREFIX]
    monkeypatch.setattr(operators, "_least_difference",
                        lambda *args: (key, (1,) + (0,) * 19))
    with pytest.raises(InternalConsistencyError, match="sparse-difference"):
        check_derivation(cube, alg.maps["D1"], 0)


def test_catalog_operators_pass_on_cubes_past_the_prefix():
    # the selftest's ternary-power checks on the small catalog algebras: a
    # Rota-Baxter operator, and its complement -lam Id - P, on a commutative
    # associative algebra is one on its cube, and a derivation is one too;
    # their sides are nonzero on tuples past the prefix
    seen = 0
    for name in catalog_names():
        alg = get(name)
        for oc in alg.operator_claims:
            t, m = alg.products[oc.product], alg.maps[oc.map]
            if (alg.dimension > 6 or t.arity != 2
                    or not check_associative(t).passed
                    or not check_commutative(t).passed):
                continue
            cube = nary_from_associative(t, 3)
            assert len(_scanned(cube)) > reports._PREFIX
            maps = [m]
            if oc.kind == "rb":
                maps.append(LinearMap.scalar(alg.dimension, -oc.weight) - m)
            check, oracle = _OPERATOR_ORACLES[oc.kind == "derivation"]
            for op in maps:
                got, want = check(cube, op, oc.weight), oracle(cube, op, oc.weight)
                assert want.passed and got == want and repr(got) == repr(want)
                seen += 1
    assert seen == 8


@pytest.mark.parametrize("lam", [1, Fraction(-1, 2)])
def test_scalar_operators_pass_past_the_prefix(lam):
    # -lam Id is a weight-lam Rota-Baxter operator on every product, and its
    # inverse -Id/lam a weight-lam derivation: every subset weight counts
    qt2 = get("qt2_deg3").products
    for t in (nary_from_associative(get("q4").products["prod"], 3),
              qt2["prod"], qt2["det2"]):
        assert len(_scanned(t)) > reports._PREFIX
        scalars = (-lam, Fraction(-1) / lam)
        for (check, oracle), c in zip(_OPERATOR_ORACLES, scalars):
            m = LinearMap.scalar(t.dimension, c)
            got, want = check(t, m, lam), oracle(t, m, lam)
            assert want.passed and got == want and repr(got) == repr(want)


def test_a_skew_expansion_of_a_product_that_is_not_skew_is_an_internal_error():
    # e0 e1 = e0 and e1 e0 = 0: with Id at weight 0 the rhs is 2 e0 e1,
    # which is not skew, so its ascending entries are not the whole sum
    t = StructureTensor(2, 2, "none", {(0, 1): [1, 0]})
    assert operators._expansion(t, LinearMap.identity(2), 0, True,
                                "none").entries == {(0, 1): (2, 0)}
    with pytest.raises(InternalConsistencyError,
                       match="subset expansion of a skew product is not "
                             "skew-symmetric"):
        operators._expansion(t, LinearMap.identity(2), 0, True, "skew")
