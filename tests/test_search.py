import importlib
import random
from collections import Counter
from fractions import Fraction
from itertools import product as iproduct
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from algcheck.algebra import Algebra
from algcheck.catalog import get
from algcheck.linalg import (LinearForm, LinearMap, basis_vector, nullspace,
                             vec_add, vec_sub)
from algcheck.operators import check_rota_baxter
from algcheck.reports import ArgumentError, InternalConsistencyError
from algcheck.scalars import norm
from algcheck.search import SearchSpec, _form_certificate, search
from algcheck.tensor import SYMMETRIES, StructureTensor, stored_keys

# the package exports the function ``search`` over its module's name
search_module = importlib.import_module("algcheck.search")

# ---------------------------------------------------------------- oracles


def oracle_rb_weight0_binary(t, p):
    """Hand-written transcription of P(x)P(y) = P(P(x)y + xP(y))."""
    d = t.dimension
    for i, j in iproduct(range(d), repeat=2):
        ei, ej = basis_vector(d, i), basis_vector(d, j)
        lhs = t.evaluate([p(ei), p(ej)])
        rhs = p(vec_add(t.evaluate([p(ei), ej]), t.evaluate([ei, p(ej)])))
        if lhs != rhs:
            return False
    return True


def all_rb_matrices_2d(t, entry_set):
    """Complete brute force over every 2x2 matrix with entries in the set."""
    out = set()
    for a, b, c, dd in iproduct(entry_set, repeat=4):
        p = LinearMap.from_cols([(a, c), (b, dd)])
        if oracle_rb_weight0_binary(t, p):
            out.add(p.cols)
    return out


def plain_grid(t, spec):
    """The grid strategy as one flat loop that fully checks every distinct
    point below ``max_candidates``, without pruning: ``(cols, certificate)``
    of each result, in grid order."""
    d = t.dimension
    lam = norm(spec.weight)
    entry_set = tuple(norm(e) for e in spec.entry_set)
    results, seen = [], set()
    for count, flat in enumerate(iproduct(entry_set, repeat=d * d)):
        if count >= spec.max_candidates:
            break
        if flat in seen:
            continue
        seen.add(flat)
        p = LinearMap.from_cols([flat[j * d:(j + 1) * d] for j in range(d)])
        rep = check_rota_baxter(t, p, lam)
        if rep.passed:
            results.append((p.cols, rep))
    return results


def plain_random(t, spec):
    """The random strategy as one flat loop that fully checks every distinct
    draw: ``(cols, certificate)`` of each result, in draw order."""
    d = t.dimension
    lam = norm(spec.weight)
    entry_set = tuple(norm(e) for e in spec.entry_set)
    rng = random.Random(spec.seed)
    results, seen = [], set()
    for _ in range(spec.max_candidates):
        flat = tuple(rng.choice(entry_set) for _ in range(d * d))
        if flat in seen:
            continue
        seen.add(flat)
        p = LinearMap.from_cols([flat[j * d:(j + 1) * d] for j in range(d)])
        rep = check_rota_baxter(t, p, lam)
        if rep.passed:
            results.append((p.cols, rep))
    return results


def assert_grid_matches_plain(alg, product, **kw):
    spec = SearchSpec("rb_operator", product, strategy="grid", **kw)
    got = [(r.found.cols, r.certificate) for r in search(alg, spec)]
    want = plain_grid(alg.products[product], spec)
    assert got == want
    assert repr(got) == repr(want)
    return got


# ----------------------------------------------------------- form targets


def test_annihilating_form_heisenberg_complete():
    alg = get("heisenberg")
    results = search(alg, SearchSpec("annihilating_form", "bracket"))
    assert [r.found.row for r in results] == [(1, 0, 0), (0, 1, 0)]
    for r in results:
        assert r.certificate.passed
        assert r.certificate.identity_name == "annihilating-form"


def test_annihilating_form_a4_empty():
    alg = get("a4")
    assert search(alg, SearchSpec("annihilating_form", "bracket")) == []


def test_fd_form_qt4():
    alg = get("qt4")
    results = search(alg, SearchSpec("fD_form", "prod", map="D"))
    # f(D(x)y) = f(xD(y)) forces f to vanish on (i-j) t^(i+j) for i < j,
    # i.e. on t, t^2, t^3: the solution space is spanned by the dual of 1,
    # exactly the catalog form
    assert [r.found.row for r in results] == [(1, 0, 0, 0)]
    assert results[0].found.row == alg.forms["f"].row
    assert results[0].certificate.passed


def test_form_certificate_names_the_first_row_a_form_misses():
    rows = {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0), (1, 2): (0, 0, 0)}
    rep = _form_certificate(LinearForm((0, 1, 0)), rows, "annihilating-form")
    assert (rep.identity_name, rep.passed, rep.checked_count) == (
        "annihilating-form", True, 3)
    with pytest.raises(InternalConsistencyError,
                       match=r"solved annihilating-form fails at basis tuple \(0, 2\)"):
        _form_certificate(LinearForm((1, 1, 0)), rows, "annihilating-form")


def test_fd_form_requires_known_map():
    alg = get("qt4")
    with pytest.raises(ArgumentError, match="no map"):
        search(alg, SearchSpec("fD_form", "prod", map="missing"))


def test_unknown_product_rejected():
    with pytest.raises(ArgumentError, match="no product"):
        search(get("a4"), SearchSpec("annihilating_form", "nope"))


# ------------------------------------------------------ rb_operator target


def test_rb_grid_matches_independent_brute_force():
    alg = get("nonabelian2")
    t = alg.products["bracket"]
    results = search(alg, SearchSpec("rb_operator", "bracket", weight=0,
                                     strategy="grid"))
    found = {r.found.cols for r in results}
    assert found == all_rb_matrices_2d(t, (-1, 0, 1))
    nonzero = [p for p in found if any(v for col in p for v in col)]
    assert len(nonzero) >= 2
    # the catalog operator lies in the searched set
    assert alg.maps["P"].cols in found
    for r in results:
        assert r.certificate.passed
        assert r.certificate.identity_name == "rota-baxter"


def test_rb_grid_respects_max_candidates():
    alg = get("nonabelian2")
    results = search(alg, SearchSpec("rb_operator", "bracket",
                                     strategy="grid", max_candidates=1))
    # the single candidate (-1,-1,-1,-1) columns is not RB here... verify by
    # oracle instead of assuming:
    t = alg.products["bracket"]
    expected = all_rb_matrices_2d(t, (-1,))
    assert {r.found.cols for r in results} == expected


def test_rb_random_reproducible_and_sound():
    alg = get("nonabelian2")
    spec = SearchSpec("rb_operator", "bracket", strategy="random",
                      max_candidates=500, seed=7)
    first = [r.found.cols for r in search(alg, spec)]
    second = [r.found.cols for r in search(alg, spec)]
    assert first == second
    grid_found = all_rb_matrices_2d(alg.products["bracket"], (-1, 0, 1))
    assert set(first) <= grid_found
    assert first  # 500 draws over 81 cells certainly hit a solution


def test_rb_random_seed_changes_order():
    alg = get("nonabelian2")
    a = search(alg, SearchSpec("rb_operator", "bracket", strategy="random",
                               max_candidates=500, seed=1))
    b = search(alg, SearchSpec("rb_operator", "bracket", strategy="random",
                               max_candidates=500, seed=2))
    # soundness regardless of seed
    assert all(r.certificate.passed for r in a + b)
    # 500 draws over 81 cells find the same operators in another order
    cols_a, cols_b = [r.found.cols for r in a], [r.found.cols for r in b]
    assert sorted(cols_a) == sorted(cols_b)
    assert cols_a != cols_b


@pytest.mark.parametrize("seed", [0, 5, 11])
@pytest.mark.parametrize("weight", [0, 1])
@pytest.mark.parametrize("name, product", [
    ("q3", "prod"), ("heisenberg", "bracket"), ("nonabelian2", "bracket")])
def test_rb_random_matches_the_plain_loop_draw_for_draw(name, product, weight,
                                                        seed):
    # each draw is rejected at its first failing tuple before any full
    # check; the results, in draw order, and their certificates are those
    # of fully checking every distinct draw, and only passing draws are
    # fully checked
    alg = get(name)
    spec = SearchSpec("rb_operator", product, weight=weight,
                      strategy="random", max_candidates=1500, seed=seed)
    with mock.patch.object(search_module, "check_rota_baxter",
                           wraps=check_rota_baxter) as counted:
        got = [(r.found.cols, r.certificate) for r in search(alg, spec)]
    want = plain_random(alg.products[product], spec)
    assert got == want and repr(got) == repr(want)
    assert counted.call_count == len(got)


def test_rb_weight_one_finds_minus_identity():
    alg = get("nonabelian2")
    results = search(alg, SearchSpec("rb_operator", "bracket", weight=1,
                                     strategy="grid"))
    assert LinearMap.scalar(2, -1).cols in {r.found.cols for r in results}


# ------------------------------------------- pruned grid vs the plain grid


@pytest.mark.parametrize("entry_set", [(-1, 0, 1), (0, 0, 1),
                                       (Fraction(1, 2), 0, -1)])
@pytest.mark.parametrize("weight", [0, 1, -1])
def test_pruned_grid_matches_plain_grid_at_every_cap(weight, entry_set):
    alg = get("nonabelian2")
    space = len(entry_set) ** 4
    for cap in range(space + 2):
        assert_grid_matches_plain(alg, "bracket", weight=weight,
                                  entry_set=entry_set, max_candidates=cap)


@pytest.mark.parametrize("weight", [1, -1])
def test_pruned_grid_matches_plain_grid_on_q3(weight):
    # at weight -1 the first column (-1, -1, -1) fails at (0, 0), so points
    # 0-728 are one skipped block; at weight 1 points 27-53 are one, skipped
    # at the second column.  Caps 1, 50 and 728 fall inside such blocks.
    alg = get("q3")
    for cap in (0, 1, 50, 728, 729, 730, 3 ** 9):
        got = assert_grid_matches_plain(alg, "prod", weight=weight,
                                        max_candidates=cap)
    assert len(got) == 128


@pytest.mark.parametrize("name, product, weight, count", [
    ("q3", "prod", 1, 128), ("q3", "prod", -1, 128),
    ("heisenberg", "bracket", 1, 648)])
def test_pruned_grid_checks_each_result_once(name, product, weight, count):
    # every tuple is decided once every column is fixed, so the full check
    # runs only at the leaves, and every leaf passes: 128 checks on q3, not
    # 3**9.  On heisenberg, [e0, e1] = e2 makes the tuple (0, 1) wait for
    # column 2.
    with mock.patch.object(search_module, "check_rota_baxter",
                           wraps=check_rota_baxter) as counted:
        results = search(get(name), SearchSpec("rb_operator", product,
                                               weight=weight, strategy="grid"))
    assert len(results) == counted.call_count == count


@pytest.mark.parametrize("name, product, weight", [
    ("q3", "prod", 1), ("q3", "prod", -1), ("nonabelian2", "bracket", 1),
    ("nonabelian2", "bracket", 0)])
def test_pruned_grid_sums_each_tuple_once_per_value_of_its_columns(
        name, product, weight):
    # the walk's sums at a tuple read only the columns the tuple names, so
    # they are computed once per tuple and values of those columns; on q3
    # the parent walk computed 2,175 sums for 729 such keys
    calls = Counter()
    sides = search_module._sides

    def counted(t, cols, lam, rb):
        sums, push = sides(t, cols, lam, rb)

        def counted_sums(idx):
            calls[idx, tuple(cols[i] for i in sorted(set(idx)))] += 1
            return sums(idx)
        return counted_sums, push

    with mock.patch.object(search_module, "_sides", counted):
        assert_grid_matches_plain(get(name), product, weight=weight)
    assert calls and max(calls.values()) == 1
    if name == "q3":
        assert sum(calls.values()) == 729


_grid_coeffs = st.sampled_from((0, 0, 0, 0, 1, -1, 2, Fraction(1, 2)))


@st.composite
def grid_instances(draw):
    """A product of any symmetry (binary up to dim 3, ternary at dim 2),
    mostly zero so that operators exist, and an entry set that may repeat
    entries or hold a fraction, small enough for the plain grid."""
    symmetry = draw(st.sampled_from(SYMMETRIES))
    arity, d = draw(st.sampled_from(((2, 1), (2, 2), (2, 3), (3, 2))))
    vec = st.lists(_grid_coeffs, min_size=d, max_size=d).map(tuple)
    keys = stored_keys(arity, d, symmetry)
    t = StructureTensor(arity, d, symmetry, dict(zip(
        keys, draw(st.lists(vec, min_size=len(keys), max_size=len(keys))))))
    entry_set = tuple(draw(st.lists(
        st.sampled_from((0, 1, -1, Fraction(1, 2))), min_size=1,
        max_size=2 if d == 3 else 3)))
    return t, entry_set


@settings(max_examples=80, deadline=None)
@given(grid_instances(), st.sampled_from((0, 1, -1)), st.data())
def test_pruned_grid_matches_plain_grid_on_random_products(instance, weight,
                                                           data):
    t, entry_set = instance
    alg = Algebra("x", t.dimension, tuple(f"e{i}" for i in range(t.dimension)),
                  products={"prod": t})
    space = len(entry_set) ** (t.dimension ** 2)
    caps = data.draw(st.lists(st.integers(0, space), max_size=3))
    for cap in [0, 1, *caps, space, space + 1]:
        # the full check runs once per result, also where a tuple waits for
        # a column beyond its own
        with mock.patch.object(search_module, "check_rota_baxter",
                               wraps=check_rota_baxter) as counted:
            found = assert_grid_matches_plain(alg, "prod", weight=weight,
                                              entry_set=entry_set,
                                              max_candidates=cap)
        assert counted.call_count == len(found)
    event(f"{t.symmetry}, results {'found' if found else 'none'}")


def test_pruned_grid_on_a_zero_dimensional_product():
    # the walk has no column to fix; the one empty matrix is the only point
    alg = Algebra("point", 0, (), products={"prod": StructureTensor.zero(2, 0)})
    for cap in (0, 1, 2):
        found = assert_grid_matches_plain(alg, "prod", max_candidates=cap)
        assert len(found) == min(cap, 1)


# ------------------------------------------------------------- spec checks


def test_spec_rejects_solve_for_rb():
    with pytest.raises(ArgumentError, match="quadratic"):
        SearchSpec("rb_operator", "bracket", strategy="solve")


def test_spec_rejects_grid_for_linear_targets():
    with pytest.raises(ArgumentError, match="linear"):
        SearchSpec("annihilating_form", "bracket", strategy="grid")
    with pytest.raises(ArgumentError, match="linear"):
        SearchSpec("fD_form", "prod", strategy="random")


def test_spec_rejects_unknown_target_and_strategy():
    with pytest.raises(ArgumentError, match="target"):
        SearchSpec("magic", "bracket")
    with pytest.raises(ArgumentError, match="strategy"):
        SearchSpec("rb_operator", "bracket", strategy="annealing")


@pytest.mark.parametrize("strategy", ["grid", "random"])
def test_spec_rejects_a_negative_max_candidates(strategy):
    with pytest.raises(ArgumentError, match="max_candidates"):
        SearchSpec("rb_operator", "bracket", strategy=strategy, max_candidates=-3)
    assert SearchSpec("rb_operator", "bracket", strategy=strategy,
                      max_candidates=0).max_candidates == 0


@pytest.mark.parametrize("strategy", ["grid", "random"])
def test_spec_rejects_an_empty_entry_set(strategy):
    with pytest.raises(ArgumentError, match="entry_set"):
        SearchSpec("rb_operator", "bracket", strategy=strategy, entry_set=())


# ------------------------------------------- fD_form on any binary product


def _fd_pairs_hold(t, dmap, f):
    d = t.dimension
    return all(f(t.evaluate([dmap.cols[i], basis_vector(d, j)]))
               == f(t.evaluate([basis_vector(d, i), dmap.cols[j]]))
               for i, j in iproduct(range(d), repeat=2))


def _one_product_algebra(t, dmap):
    d = t.dimension
    return Algebra("x", d, tuple(f"e{i}" for i in range(d)),
                   products={"prod": t}, maps={"D": dmap})


def test_fd_form_on_a_noncommutative_product_checks_every_pair():
    t = StructureTensor(2, 2, "none", {(0, 0): (-1, -1), (0, 1): (0, -1),
                                       (1, 0): (1, 0), (1, 1): (0, 1)})
    dmap = LinearMap.from_cols([(0, 0), (0, -1)])
    results = search(_one_product_algebra(t, dmap),
                     SearchSpec("fD_form", "prod", map="D"))
    # the pair (0, 1) forces f(e1) = 0; the pairs with i <= j alone admit
    # f = (1, 0), yet f(D(e1) e0) = -1 while f(e1 D(e0)) = 0, so the pair
    # (1, 0) forces f(e0) = 0 as well
    assert results == []
    assert not _fd_pairs_hold(t, dmap, LinearForm((1, 0)))


_coeffs = st.sampled_from((0, 0, 1, -1, 2, Fraction(1, 2)))


@st.composite
def product_and_map(draw, symmetry):
    d = draw(st.integers(1, 4))
    vec = st.lists(_coeffs, min_size=d, max_size=d).map(tuple)
    keys = stored_keys(2, d, symmetry)
    t = StructureTensor(2, d, symmetry, dict(zip(
        keys, draw(st.lists(vec, min_size=len(keys), max_size=len(keys))))))
    return t, LinearMap.from_cols(draw(st.lists(vec, min_size=d, max_size=d)))


@settings(max_examples=60, deadline=None)
@given(product_and_map("none"))
def test_fd_forms_of_any_product_satisfy_every_pair(instance):
    t, dmap = instance
    for r in search(_one_product_algebra(t, dmap),
                    SearchSpec("fD_form", "prod", map="D")):
        assert r.certificate.passed
        assert _fd_pairs_hold(t, dmap, r.found)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("skew", "symmetric")).flatmap(product_and_map))
def test_fd_forms_of_a_commutative_or_skew_product_keep_half_the_rows(instance):
    t, dmap = instance
    d = t.dimension
    rows = [vec_sub(t.evaluate([dmap.cols[i], basis_vector(d, j)]),
                    t.evaluate([basis_vector(d, i), dmap.cols[j]]))
            for i, j in iproduct(range(d), repeat=2)]
    results = search(_one_product_algebra(t, dmap),
                     SearchSpec("fD_form", "prod", map="D"))
    assert [r.found.row for r in results] == nullspace(rows, d)
    for r in results:
        assert r.certificate.checked_count == d * (d + 1) // 2
