from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from algcheck import constructions
from algcheck.axioms import check_n_jacobi, check_prelie
from algcheck.catalog import (componentwise_product, euler_maps, get,
                              monomials, running_sum_map,
                              truncated_poly_product)
from algcheck.constructions import (_cyclic_condition, cor33_condition,
                                    det_bracket_2, det_bracket_3,
                                    det_rb_expansion_check, derived_prelie,
                                    f_bracket, fD_bracket,
                                    fd_bracket_value_forms,
                                    prelie_from_comm_assoc, thm32_condition,
                                    thm35_f_condition, thm36_bracket,
                                    thm36_f_condition, thm36_rb_condition,
                                    thm42_condition)
from algcheck.linalg import (LinearForm, LinearMap, basis_vector, vec_add,
                             vec_is_zero, vec_scale, vec_sub, zero_vector)
from algcheck.operators import check_rota_baxter
from algcheck.reports import (InternalConsistencyError, PreconditionError,
                              failing, passing)
from algcheck.scalars import norm
from algcheck.tensor import StructureTensor, stored_keys

# ---------------------------------------------------------------- f-bracket


def test_f_bracket_heisenberg_line_values():
    alg = get("heisenberg_line")
    t = f_bracket(alg.products["bracket"], alg.forms["f"])
    # f = e4*: only triples containing e4 with {e1,e2} contribute
    assert t.basis_product((0, 1, 3)) == (0, 0, 1, 0)  # [e1,e2,e4]_f = e3
    for key in ((0, 1, 2), (0, 2, 3), (1, 2, 3)):
        assert t.basis_product(key) == (0, 0, 0, 0)
    assert check_n_jacobi(t).passed


def test_f_bracket_zero_form_gives_zero():
    alg = get("heisenberg")
    assert f_bracket(alg.products["bracket"], LinearForm((0, 0, 0))).is_zero()


def test_f_bracket_requires_annihilating_form():
    alg = get("heisenberg")
    with pytest.raises(PreconditionError, match="annihilate"):
        f_bracket(alg.products["bracket"], LinearForm((0, 0, 1)))


def test_f_bracket_requires_lie():
    with pytest.raises(PreconditionError):
        f_bracket(get("q3").products["prod"], LinearForm((0, 0, 0)))


# ----------------------------------------------------- kernel conditions


def test_thm32_condition_heisenberg_line():
    alg = get("heisenberg_line")
    rep = thm32_condition(alg.products["bracket"], alg.maps["P"], 0,
                          alg.forms["f"])
    assert rep.passed  # [P e_i, P e_j] = 0 identically here


def test_thm32_requires_rb_on_lie():
    alg = get("heisenberg_line")
    bad = LinearMap.diagonal([1, 1, 1, 1]).scaled(2)  # 2*Id is not RB at 0
    with pytest.raises(PreconditionError, match="Rota-Baxter"):
        thm32_condition(alg.products["bracket"], bad, 0, alg.forms["f"])


def test_cor33_condition_matches_weight0_reading_here():
    alg = get("heisenberg_line")
    rep = cor33_condition(alg.products["bracket"], alg.maps["P"],
                          alg.forms["f"])
    assert rep.passed
    assert rep.identity_name == "f-bracket-rb-kerP2-condition"


def test_cor33_passes_unconditionally_when_p_squared_zero():
    alg = get("heisenberg_line")
    p = alg.maps["P"]
    assert all(v == 0 for col in (p @ p).cols for v in col)
    assert cor33_condition(alg.products["bracket"], p,
                           LinearForm((1, 0, 0, 0))).passed


# ------------------------------------------------------------ pre-Lie ops


def test_derived_prelie_qt4():
    alg = get("qt4")
    t = derived_prelie(alg.products["prelie"], alg.maps["P0"], 0)
    assert check_prelie(t).passed


def test_derived_prelie_zero_map_any_weight_scales_product():
    alg = get("qt4")
    t = alg.products["prelie"]
    assert derived_prelie(t, LinearMap.zero(4), 0).is_zero()
    out = derived_prelie(t, LinearMap.zero(4), 1)
    for i, j in product(range(4), repeat=2):
        assert out.basis_product((i, j)) == t.basis_product((i, j))


def test_derived_prelie_minus_id_weight1_is_rejected():
    # P = -Id is Rota-Baxter of weight 1, but the derived product is the
    # opposite algebra, which is not left pre-Lie: the published statement
    # fails at nonzero weight and the constructor reports it
    alg = get("qt4")
    with pytest.raises(PreconditionError, match="nonzero weight"):
        derived_prelie(alg.products["prelie"], LinearMap.scalar(4, -1), 1)


def test_derived_prelie_requires_rb():
    alg = get("qt4")
    with pytest.raises(PreconditionError):
        derived_prelie(alg.products["prelie"], LinearMap.identity(4), 0)


def test_prelie_from_comm_assoc_values():
    alg = get("qt4")
    t = prelie_from_comm_assoc(alg.products["prod"], alg.maps["D"])
    # x * y = x . D(y): t^a * t^b = b t^(a+b)
    for (a, b) in product(range(4), repeat=2):
        expected = [0] * 4
        if a + b < 4:
            expected[a + b] = b
        assert t.basis_product((a, b)) == tuple(expected)
    assert t.entries == alg.products["prelie"].entries


def test_thm35_f_condition():
    alg = get("qt4")
    t = alg.products["prelie"]
    assert thm35_f_condition(t, alg.forms["f"]).passed
    # f = coefficient of t fails: commutator [1, t] = t has f-value 1
    rep = thm35_f_condition(t, LinearForm((0, 1, 0, 0)))
    assert not rep.passed
    assert rep.counterexample.indices == (0, 1)


def test_thm36_bracket_and_condition():
    alg = get("qt4")
    t, p, f = alg.products["prelie"], alg.maps["P0"], alg.forms["f"]
    assert thm36_f_condition(t, p, f).passed
    bracket = thm36_bracket(t, p, f)
    assert check_n_jacobi(bracket).passed
    cond = thm36_rb_condition(t, p, f)
    assert cond.passed == check_rota_baxter(bracket, p, 0).passed


def test_thm36_requires_weight0_rb():
    alg = get("qt4")
    with pytest.raises(PreconditionError):
        thm36_bracket(alg.products["prelie"], LinearMap.identity(4),
                      alg.forms["f"])


# -------------------------------------------------------- f,D determinant


def test_fD_bracket_matches_catalog():
    alg = get("qt4")
    t = fD_bracket(alg.products["prod"], alg.forms["f"], alg.maps["D"])
    assert t.entries == alg.products["fdbracket"].entries
    assert check_n_jacobi(t).passed


def test_fD_bracket_explicit_value():
    # [1, t, t^2] = f(1)(D(t)t^2 - D(t^2)t) = t^3 - 2t^3 = -t^3
    alg = get("qt4")
    t = alg.products["fdbracket"]
    assert t.basis_product((0, 1, 2)) == (0, 0, 0, -1)


def test_fD_bracket_form_condition_enforced():
    alg = get("qt4")
    with pytest.raises(PreconditionError, match="form condition"):
        fD_bracket(alg.products["prod"], LinearForm((0, 1, 0, 0)),
                   alg.maps["D"])


def test_fd_bracket_value_forms_agree():
    # the three displayed forms of the bracket coincide on arbitrary vectors
    alg = get("qt4")
    prod, f, dm = alg.products["prod"], alg.forms["f"], alg.maps["D"]
    x, y, z = (1, 2, 0, 1), (0, 1, Fraction(1, 2), 0), (3, 0, 0, 1)
    det, fexp, ddiff = fd_bracket_value_forms(prod, f, dm, x, y, z)
    assert det == fexp == ddiff


def test_thm42_condition_qt4():
    alg = get("qt4")
    prod, f, dm = alg.products["prod"], alg.forms["f"], alg.maps["D"]
    # P = 0 commutes with D and is RB of weight 0
    rep = thm42_condition(prod, LinearMap.zero(4), 0, f, dm)
    assert rep.passed
    # P = -Id at weight 1
    rep = thm42_condition(prod, LinearMap.scalar(4, -1), 1, f, dm)
    assert rep.passed


def test_thm42_requires_commuting_maps():
    alg = get("qt4")
    nc = LinearMap.from_cols([basis_vector(4, 1), (0,) * 4, (0,) * 4,
                              (0,) * 4])
    with pytest.raises(PreconditionError, match="commute"):
        thm42_condition(alg.products["prod"], nc, 0, alg.forms["f"],
                        alg.maps["D"])


# ------------------------------------------------ determinant brackets


def test_det_bracket_2_jacobi_and_values():
    alg = get("qt2_deg3")
    t = alg.products["det2"]
    assert check_n_jacobi(t).passed
    mons = monomials(2, 3)
    idx = {m: i for i, m in enumerate(mons)}
    # [1, t1, t2] = det with rows (elements, D1-images, D2-images):
    # expansion gives 1 * (t1 * t2) - ... = t1 t2 exactly once
    v = t.basis_product((idx[(0, 0)], idx[(1, 0)], idx[(0, 1)]))
    expected = [0] * len(mons)
    expected[idx[(1, 1)]] = 1
    assert v == tuple(expected)


def test_det_bracket_3_small_instance():
    # three variables, degree < 2: dim 4, cheap full check
    prod = truncated_poly_product(3, 2)
    d1, d2, d3 = euler_maps(3, 2)
    t = det_bracket_3(prod, d1, d2, d3)
    # [t1, t2, t3] = det diag-ish expansion = t1 t2 t3 = 0 (truncated); all
    # basis products vanish here because any nonzero term needs degree >= 3
    assert t.is_zero()


def test_det_bracket_requires_commuting_derivations():
    alg = get("qt2_deg3")
    prod = alg.products["prod"]
    bad = LinearMap.from_cols([(0,) * 6] * 5 + [basis_vector(6, 1)])
    with pytest.raises(PreconditionError):
        det_bracket_2(prod, alg.maps["D1"], bad)


# ------------------------------------------------ determinant RB expansion


def test_det_rb_expansion_q3():
    alg = get("q3")
    rep = det_rb_expansion_check(alg.products["prod"], alg.maps["P"], 1)
    assert rep.passed
    assert rep.checked_count == 3 ** 9


def test_det_rb_expansion_requires_rb():
    alg = get("q3")
    with pytest.raises(PreconditionError):
        det_rb_expansion_check(alg.products["prod"], alg.maps["P"], 0)


# ------------------------------------------- full-scan oracles for the scans
# The scans above visit only strictly ascending triples.  The oracles below
# are the full scans they replaced, kept verbatim in form: every triple in
# lex order.  Verdict, checked_count and counterexample must be identical.

_PERMS3 = (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
           ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1))


def full_det_rb_scan(assoc, p, lam):
    """All d**9 choices of three basis columns, in lex order."""
    d = assoc.dimension
    lam = norm(lam)
    gens = [basis_vector(d, i) for i in range(d)] + list(p.cols)
    ng = len(gens)
    pair = [[assoc(gens[a], gens[b]) for b in range(ng)] for a in range(ng)]
    triple = {}
    for a in range(ng):
        for b in range(ng):
            ab = pair[a][b]
            if vec_is_zero(ab):
                continue
            for c in range(ng):
                v = assoc(ab, gens[c])
                if not vec_is_zero(v):
                    triple[(a, b, c)] = v
    zero = zero_vector(d)

    def det(a, b, c):
        out = None
        for perm, sign in _PERMS3:
            v = triple.get((a[perm[0]], b[perm[1]], c[perm[2]]))
            if v is None:
                continue
            if out is None:
                out = [0] * d
            for m, x in enumerate(v):
                if x:
                    out[m] += sign * x
        return zero if out is None else tuple(out)

    powers = [None, 1, lam, norm(lam * lam)]
    count = d ** 9
    name = "determinant-rb-expansion"
    cols = list(product(range(d), repeat=3))
    shifted = {c: tuple(i + d for i in c) for c in cols}
    for cx in cols:
        px = shifted[cx]
        for cy in cols:
            py = shifted[cy]
            for cz in cols:
                pz = shifted[cz]
                lhs = det(px, py, pz)
                acc = [0] * d
                for mask in range(1, 8):
                    coeff = powers[bin(mask).count("1")]
                    if coeff == 0:
                        continue
                    v = det(cx if mask & 1 else px,
                            cy if mask & 2 else py,
                            cz if mask & 4 else pz)
                    for m, x in enumerate(v):
                        if x:
                            acc[m] += coeff * x
                rhs = p(tuple(acc))
                if lhs != rhs:
                    return failing(name, count, cx + cy + cz, lhs, rhs)
    return passing(name, count)


def _rb_base(d, lam):
    # a Rota-Baxter operator of weight lam on the componentwise algebra:
    # P = 0 (weight 0) and the running sum S (weight 1); -S has weight -1
    if lam == 0:
        return LinearMap.zero(d)
    return running_sum_map(d).scaled(lam)


@st.composite
def non_rb_instances(draw, names):
    name = draw(st.sampled_from(names))
    assoc = get(name).products["prod"]
    d = assoc.dimension
    lam = draw(st.sampled_from([0, 1, -1]))
    if draw(st.booleans()):
        # a Rota-Baxter operator moved in one entry
        rows = [list(r) for r in _rb_base(d, lam).rows()]
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        rows[i][j] += draw(st.sampled_from([-1, 1, Fraction(1, 2)]))
        p = LinearMap.from_rows(rows)
    else:
        p = LinearMap.from_cols(draw(st.lists(
            st.lists(st.integers(-1, 1), min_size=d, max_size=d),
            min_size=d, max_size=d)))
    assume(not check_rota_baxter(assoc, p, lam).passed)
    return assoc, p, lam


@settings(max_examples=40, deadline=None)
@given(non_rb_instances(["q3", "q4"]))
def test_det_rb_expansion_check_refuses_maps_that_are_not_rota_baxter(instance):
    # the check's precondition names the first failure of the Rota-Baxter
    # identity on the algebra; it decides no such draw
    assoc, p, lam = instance
    first = check_rota_baxter(assoc, p, lam).counterexample.indices
    with pytest.raises(PreconditionError) as exc:
        det_rb_expansion_check(assoc, p, lam)
    assert str(exc.value) == f"Rota-Baxter identity fails at basis tuple {first}"


@st.composite
def pulled_back_instances(draw):
    """A commutative associative algebra of dimension <= 3 pulled back
    through a random invertible S, (x, y) -> S^-1 (Sx . Sy), with a map that
    is Rota-Baxter of weight lam there, or a perturbed or random one.

    A Rota-Baxter P on the base algebra conjugates to S^-1 P S, which stays
    Rota-Baxter on the pullback; so does its complement -lam Id - P."""
    lam = draw(st.sampled_from([0, 1, -1]))
    base = draw(st.sampled_from(["componentwise2", "q3", "qt3"]))
    assoc = (componentwise_product(2) if base == "componentwise2"
             else get(base).products["prod"])
    d = assoc.dimension
    if base != "qt3":
        p = _rb_base(d, lam)
    elif lam == 0:
        # multiplication by t^2 squares to zero, so it is Rota-Baxter of
        # weight 0
        p = LinearMap.from_cols([(0, 0, 1), (0, 0, 0), (0, 0, 0)]).scaled(
            draw(st.sampled_from([1, -2, Fraction(1, 2)])))
    else:
        p = LinearMap.zero(d)
    if draw(st.booleans()):
        p = LinearMap.scalar(d, -lam) - p
    # S = L D U^T: L, U unitriangular and D diagonal and nonzero, so S is
    # invertible
    low, up = (LinearMap.from_rows([
        [1 if i == j else draw(st.integers(-1, 1)) if i > j else 0
         for j in range(d)] for i in range(d)]) for _ in range(2))
    scale = LinearMap.diagonal(draw(st.lists(st.sampled_from([1, -1, 2]),
                                             min_size=d, max_size=d)))
    s = low @ scale @ LinearMap.from_cols(up.rows())
    s_inv = s.inverse()
    pulled = StructureTensor.from_function(
        2, d, "symmetric", lambda k: s_inv(assoc(s.cols[k[0]], s.cols[k[1]])))
    p = s_inv @ p @ s
    assert check_rota_baxter(pulled, p, lam).passed
    kind = draw(st.sampled_from(["rota-baxter", "perturbed", "random"]))
    if kind == "perturbed":
        rows = [list(r) for r in p.rows()]
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        rows[i][j] += draw(st.sampled_from([-1, 1, Fraction(1, 2)]))
        p = LinearMap.from_rows(rows)
    elif kind == "random":
        p = draw(_small_map(d))
    return kind, pulled, p, lam


# derandomized: some draws cost seconds, so free draws made the test's time
# swing from under 1 s to over 40 s between runs
@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(pulled_back_instances())
def test_det_rb_expansion_check_matches_the_full_scan_on_pulled_back_algebras(
        instance):
    kind, assoc, p, lam = instance
    rb = check_rota_baxter(assoc, p, lam).passed
    event(f"{kind}: {'rota-baxter' if rb else 'not rota-baxter'}")
    # a Rota-Baxter operator on the algebra is one on its cube, so the
    # expansion holds, and the full scan agrees; any other map is refused
    assert rb or kind != "rota-baxter"
    if not rb:
        with pytest.raises(PreconditionError):
            det_rb_expansion_check(assoc, p, lam)
        return
    got, want = det_rb_expansion_check(assoc, p, lam), full_det_rb_scan(
        assoc, p, lam)
    assert want.passed and got == want


@pytest.mark.parametrize("name", ["q3", "q4"])
def test_det_rb_expansion_check_rejects_a_forged_cube(name, monkeypatch):
    # the expansion is decided by the Rota-Baxter identity on the cube,
    # which the theorem makes unconditional; a cube moved in one entry
    # breaks it, and that is an internal error, not a failed check
    alg = get(name)
    real = constructions.nary_from_associative
    monkeypatch.setattr(constructions, "nary_from_associative",
                        lambda t, n: _perturbed(real(t, n), (2, 2, 2), 1, 1))
    with pytest.raises(InternalConsistencyError,
                       match="cube of the algebra: Rota-Baxter identity fails"):
        det_rb_expansion_check(alg.products["prod"], alg.maps["P"], 1)


def full_cyclic_scan(name, d, expr, kmap=None):
    """All d**3 triples in lex order; ``expr(i, j, k)`` is the vector whose
    image must vanish."""
    for idx in product(range(d), repeat=3):
        img = expr(*idx)
        if kmap is not None:
            img = kmap(img)
        if not vec_is_zero(img):
            return failing(name, d ** 3, idx, img, zero_vector(d))
    return passing(name, d ** 3)


def _same_report(got, want):
    event(f"condition {want.verdict}")
    return got == want


def _cyclic(fr, pair):
    def expr(i, j, k):
        out = zero_vector(len(fr))
        for c, (a, b) in ((fr[i], (j, k)), (fr[j], (k, i)), (fr[k], (i, j))):
            if c:
                out = vec_add(out, vec_scale(c, pair(a, b)))
        return out
    return expr


def _perturbed(t, key, k, delta):
    """``t`` with one structure constant, coordinate k of entry key, moved."""
    entries = dict(t.entries)
    value = list(entries.get(key, zero_vector(t.dimension)))
    value[k] += delta
    entries[key] = tuple(value)
    return StructureTensor(t.arity, t.dimension, t.symmetry, entries)


def _small_map(d):
    return st.lists(st.lists(st.integers(-1, 1), min_size=d, max_size=d),
                    min_size=d, max_size=d).map(LinearMap.from_cols)


@st.composite
def perturbed_products(draw, name, product_name):
    t = get(name).products[product_name]
    d = t.dimension
    key = draw(st.sampled_from(stored_keys(t.arity, d, t.symmetry)))
    k = draw(st.integers(0, d - 1))
    t = _perturbed(t, key, k, draw(st.sampled_from([-1, 1, Fraction(1, 2)])))
    f = LinearForm(tuple(draw(st.lists(st.integers(-1, 1), min_size=d,
                                       max_size=d))))
    return t, draw(_small_map(d)), f, draw(st.sampled_from([0, 1, -1]))


@settings(max_examples=40, deadline=None)
@given(perturbed_products("heisenberg_line", "bracket"))
def test_cyclic_condition_lie_forms_match_the_full_scan(instance):
    lie, p, f, lam = instance
    d = lie.dimension
    # thm32 / cor54 form: [P(y), P(z)] under P + lambda
    kmap = p + LinearMap.scalar(d, lam)
    pair = lambda a, b: lie(p.cols[a], p.cols[b])  # noqa: E731
    assert _same_report(_cyclic_condition("c", d, f, pair, kmap),
                        full_cyclic_scan("c", d, _cyclic(f.row, pair), kmap))
    # cor33 form, as written before the rewrite:
    # sum over cyclic (x, y, z) of [f(x)P(y) - f(y)P(x), z], under P^2
    p2 = p @ p

    def kerp2_expr(i, j, k):
        out = zero_vector(d)
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            u = vec_sub(vec_scale(f.row[a], p.cols[b]),
                        vec_scale(f.row[b], p.cols[a]))
            out = vec_add(out, lie(u, basis_vector(d, c)))
        return out

    def kerp2_pair(a, b):
        return vec_sub(lie(p.cols[a], basis_vector(d, b)),
                       lie(p.cols[b], basis_vector(d, a)))

    assert _same_report(_cyclic_condition("c", d, f, kerp2_pair, p2),
                        full_cyclic_scan("c", d, kerp2_expr, p2))


@settings(max_examples=40, deadline=None)
@given(perturbed_products("qt4", "prelie"))
def test_cyclic_condition_commutator_form_matches_the_full_scan(instance):
    prelie, p, f, _ = instance
    d = prelie.dimension
    p2 = p @ p  # thm36 form: commutators of P^2-images, no map
    pair = lambda a, b: vec_sub(prelie(p2.cols[a], p2.cols[b]),  # noqa: E731
                                prelie(p2.cols[b], p2.cols[a]))
    assert _same_report(_cyclic_condition("c", d, f, pair),
                        full_cyclic_scan("c", d, _cyclic(f.row, pair)))


@settings(max_examples=40, deadline=None)
@given(perturbed_products("qt4", "prod"))
def test_cyclic_condition_fd_form_matches_the_full_scan(instance):
    assoc, p, f, lam = instance
    d = assoc.dimension
    dp = get("qt4").maps["D"] @ p  # thm42 form, under P + lambda
    kmap = p + LinearMap.scalar(d, lam)
    pair = lambda a, b: vec_sub(assoc(dp.cols[a], p.cols[b]),  # noqa: E731
                                assoc(dp.cols[b], p.cols[a]))
    assert _same_report(_cyclic_condition("c", d, f, pair, kmap),
                        full_cyclic_scan("c", d, _cyclic(f.row, pair), kmap))
