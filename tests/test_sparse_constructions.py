"""The sparse construction layer against the dense forms it replaced.

Each oracle below is the earlier dense form of a bracket, a kernel
condition's pair or a helper, written with ``basis_vector``, ``evaluate``
and the ``vec_*`` helpers.  A rewritten construction must store the same
entries (values and scalar types, so ``repr`` too), and a rewritten
condition must give the same report.
"""

import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algcheck.axioms import check_prelie
from algcheck.catalog import get
from algcheck.constructions import (_PERMS3, _cyclic, _fd_preconditions,
                                    _twisted, cor33_condition, det_bracket_2,
                                    det_bracket_3, derived_prelie, f_bracket,
                                    fD_bracket, prelie_from_comm_assoc,
                                    thm32_condition, thm36_bracket,
                                    thm36_f_condition, thm36_rb_condition,
                                    thm42_condition)
from algcheck.inheritance import cor54_bracket
from algcheck.linalg import (LinearForm, LinearMap, basis_vector, vec_add,
                             vec_is_zero, vec_scale, vec_sub, zero_vector)
from algcheck.reports import PreconditionError, failing, passing
from algcheck.scalars import norm
from algcheck.tensor import (StructureTensor, skew_from_values, stored_keys,
                             support)

# ------------------------------------------------------------ dense oracles


def dense_cyclic(fr, pair):
    def expr(key):
        i, j, k = key
        out = zero_vector(len(fr))
        for c, (a, b) in ((fr[i], (j, k)), (fr[j], (k, i)), (fr[k], (i, j))):
            if c:
                out = vec_add(out, vec_scale(c, pair(a, b)))
        return out
    return expr


def dense_twisted(t, left, right=None):
    d = t.dimension
    col = ((lambda i: basis_vector(d, i)) if right is None
           else (lambda i: right.cols[i]))
    return lambda a, b: vec_sub(t(left.cols[a], col(b)), t(left.cols[b], col(a)))


def dense_image_pair(t, p):
    return lambda a, b: t(p.cols[a], p.cols[b])


def full_cyclic_scan(name, d, f, pair, kmap=None):
    expr = dense_cyclic(f.row, pair)
    for idx in product(range(d), repeat=3):
        img = expr(idx) if kmap is None else kmap(expr(idx))
        if not vec_is_zero(img):
            return failing(name, d ** 3, idx, img, zero_vector(d))
    return passing(name, d ** 3)


def dense_f_bracket(lie, f):
    fr = f.row

    def value(key):
        i, j, k = key
        out = zero_vector(lie.dimension)
        for c, pair in ((fr[i], (j, k)), (fr[j], (k, i)), (fr[k], (i, j))):
            if c:
                out = vec_add(out, vec_scale(c, lie.basis_product(pair)))
        return out

    return StructureTensor.from_function(3, lie.dimension, "skew", value)


def dense_fd_bracket(assoc, f, dmap):
    d = assoc.dimension
    fr = f.row

    def value(key):
        i, j, k = key
        out = zero_vector(d)
        for c, (a, b) in ((fr[i], (j, k)), (fr[j], (k, i)), (fr[k], (i, j))):
            if c:
                term = vec_sub(
                    assoc(dmap.cols[a], basis_vector(d, b)),
                    assoc(dmap.cols[b], basis_vector(d, a)))
                out = vec_add(out, vec_scale(c, term))
        return out

    return StructureTensor.from_function(3, d, "skew", value)


def dense_thm36_bracket(prelie, p, f):
    d = prelie.dimension
    fr = f.row

    def value(key):
        i, j, k = key
        out = zero_vector(d)
        for (a, b), c in (((i, j), k), ((k, i), j), ((j, k), i)):
            u = vec_sub(vec_scale(fr[a], p.cols[b]), vec_scale(fr[b], p.cols[a]))
            if vec_is_zero(u):
                continue
            ec = basis_vector(d, c)
            out = vec_add(out, vec_sub(prelie(u, ec), prelie(ec, u)))
        return out

    return StructureTensor.from_function(3, d, "skew", value)


def dense_cor54_bracket(lie, p, lam, f):
    d = lie.dimension
    lam = norm(lam)
    fp = tuple(f(col) for col in p.cols)
    fr = f.row

    def value(key):
        out = zero_vector(d)
        for x, y, z in ((key[0], key[1], key[2]), (key[1], key[2], key[0]),
                        (key[2], key[0], key[1])):
            ey, ez = basis_vector(d, y), basis_vector(d, z)
            if fp[x]:
                term = vec_add(lie(p.cols[y], ez), lie(ey, p.cols[z]))
                if lam:
                    term = vec_add(term, vec_scale(lam, lie.basis_product((y, z))))
                out = vec_add(out, vec_scale(fp[x], term))
            if fr[x]:
                term = lie(p.cols[y], p.cols[z])
                if lam:
                    term = vec_add(term, vec_scale(lam, vec_add(
                        lie(p.cols[y], ez), lie(ey, p.cols[z]))))
                    term = vec_add(term, vec_scale(
                        norm(lam * lam), lie.basis_product((y, z))))
                out = vec_add(out, vec_scale(fr[x], term))
        return out

    return skew_from_values(d, 3, value, verify=True)


def dense_derived_prelie(prelie, p, lam):
    lam = norm(lam)
    d = prelie.dimension

    def value(key):
        i, j = key
        out = vec_sub(prelie(p.cols[i], basis_vector(d, j)),
                      prelie(basis_vector(d, j), p.cols[i]))
        if lam:
            out = vec_add(out, vec_scale(lam, prelie.basis_product((i, j))))
        return out

    return StructureTensor.from_function(2, d, "none", value)


def dense_prelie_from_comm_assoc(assoc, dmap):
    d = assoc.dimension
    return StructureTensor.from_function(
        2, d, "none",
        lambda key: assoc(basis_vector(d, key[0]), dmap.cols[key[1]]))


def dense_thm36_f_condition(prelie, p, f):
    d = prelie.dimension

    def side(i, j):
        ej = basis_vector(d, j)
        return f(vec_sub(prelie(p.cols[i], ej), prelie(ej, p.cols[i])))

    for i in range(d):
        for j in range(i + 1, d):
            lhs, rhs = side(i, j), side(j, i)
            if lhs != rhs:
                return failing("form-P-symmetry", d ** 2, (i, j), (lhs,), (rhs,))
    return passing("form-P-symmetry", d ** 2)


def dense_fd_form_failure(assoc, f, dmap):
    """The message of the form loop of the f,D preconditions, or None."""
    d = assoc.dimension
    for i in range(d):
        for j in range(d):
            ej = basis_vector(d, j)
            ei = basis_vector(d, i)
            if f(assoc(dmap.cols[i], ej)) != f(assoc(ei, dmap.cols[j])):
                return ("form condition f(D(x)y) = f(xD(y)) fails at basis "
                        f"pair ({i}, {j})")
    return None


def _det3_elements(assoc, rows):
    """3x3 determinant over a commutative algebra whose rows are triples of
    ``contract`` slots, as the signed sum over the six permutations: each
    product r1[a] r2[b] in a first ``contract``, then all six times r3[c]
    in one more."""
    r1, r2, r3 = rows
    terms = []
    for (a, b, c), sign in _PERMS3:
        ab = support(assoc.contract((r1[a], r2[b])))
        if ab:
            terms.append((tuple((k, sign * x) for k, x in ab), r3[c]))
    return assoc.contract(*terms)


def per_key_det_bracket(assoc, maps):
    """The determinant bracket built one ascending key at a time, as
    ``det_bracket_2`` (two maps, a first row of basis indices) and
    ``det_bracket_3`` (three maps) built it before the join."""
    cols = [m.sparse_cols for m in maps]

    def value(key):
        rows = [[c[i] for i in key] for c in cols]
        return _det3_elements(assoc, ([key] if len(maps) == 2 else []) + rows)

    return StructureTensor.from_function(3, assoc.dimension, "skew", value)


def dense_det3(assoc, rows):
    out = zero_vector(assoc.dimension)
    r1, r2, r3 = rows
    for perm, sign in _PERMS3:
        prod = assoc(r1[perm[0]], r2[perm[1]])
        if vec_is_zero(prod):
            continue
        prod = assoc(prod, r3[perm[2]])
        if sign < 0:
            prod = vec_scale(-1, prod)
        out = vec_add(out, prod)
    return out


def dense_det_bracket(assoc, maps):
    """det(rows: elements, D1, D2) for two maps, det(D1, D2, D3) for three."""
    d = assoc.dimension

    def value(key):
        rows = [tuple(m.cols[i] for i in key) for m in maps]
        if len(maps) == 2:
            rows.insert(0, tuple(basis_vector(d, i) for i in key))
        return dense_det3(assoc, rows)

    return StructureTensor.from_function(3, d, "skew", value)


def assert_same_tensor(got, want):
    assert got.entries == want.entries
    assert repr(got) == repr(want)  # scalar types too


# ------------------------------------------------------------- instances


def gl(n, scale=1):
    """gl(n) on the matrix units E_ij (index i*n + j), bracket times scale."""
    d = n * n

    def value(key):
        (i, j), (k, m) = divmod(key[0], n), divmod(key[1], n)
        out = [0] * d
        if j == k:
            out[i * n + m] += scale
        if m == i:
            out[k * n + j] -= scale
        return tuple(out)

    return StructureTensor.from_function(2, d, "skew", value)


def trace(n, c=1):
    return LinearForm(tuple(c if i == j else 0
                            for i in range(n) for j in range(n)))


def small_forms(d, keep):
    """Every form with entries in {-1, 0, 1} that ``keep`` accepts."""
    return [f for f in map(LinearForm, product((-1, 0, 1), repeat=d)) if keep(f)]


def annihilates(lie):
    return lambda f: all(f(v) == 0 for v in lie.entries.values())


def lie_instances():
    """(Lie bracket, P, weight, annihilating forms) with P Rota-Baxter."""
    hl = get("heisenberg_line")
    lie = hl.products["bracket"]
    na = get("nonabelian2").products["bracket"]
    g = gl(3, Fraction(2, 3))
    out = [(lie, hl.maps["P"], 0, small_forms(4, annihilates(lie))),
           (na, get("nonabelian2").maps["P"], 0, small_forms(2, annihilates(na))),
           (g, LinearMap.zero(9), Fraction(1, 2), [trace(3, Fraction(1, 2))])]
    for lam in (1, Fraction(-1, 2)):
        # -lambda Id is Rota-Baxter of weight lambda on any algebra
        out.append((lie, LinearMap.scalar(4, -lam), lam, [hl.forms["f"]]))
        out.append((g, LinearMap.scalar(9, -lam), lam, [trace(3)]))
    return out


# ------------------------------------------------------- hypothesis helpers

scalars = st.sampled_from((0, 0, 0, 1, -1, 2, Fraction(-1, 2), Fraction(2, 3)))


def vectors(d):
    return st.lists(scalars, min_size=d, max_size=d).map(tuple)


@st.composite
def binary_tensors(draw, d):
    symmetry = draw(st.sampled_from(("none", "skew", "symmetric")))
    keys = stored_keys(2, d, symmetry)
    vals = draw(st.lists(vectors(d), min_size=len(keys), max_size=len(keys)))
    return StructureTensor(2, d, symmetry, dict(zip(keys, vals)))


def maps(d):
    return st.lists(vectors(d), min_size=d, max_size=d).map(LinearMap.from_cols)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(
    binary_tensors(d), maps(d), st.one_of(st.none(), maps(d)))))
def test_twisted_pair_matches_the_dense_pair(instance):
    t, left, right = instance
    got, want = _twisted(t, left, right), dense_twisted(t, left, right)
    for a, b in product(range(t.dimension), repeat=2):
        assert got(a, b) == want(a, b)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(
    binary_tensors(d), maps(d), vectors(d))))
def test_cyclic_matches_the_dense_cyclic_sum(instance):
    t, left, row = instance
    # a pair that is not skew too: the sum is taken as written
    for pair in (dense_twisted(t, left), dense_image_pair(t, left)):
        got, want = _cyclic(LinearForm(row), pair), dense_cyclic(row, pair)
        for key in product(range(t.dimension), repeat=3):
            assert got(key) == want(key)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(
    binary_tensors(d),
    st.lists(st.lists(vectors(d), min_size=3, max_size=3),
             min_size=3, max_size=3),
    st.lists(st.integers(0, d - 1), min_size=3, max_size=3))))
def test_det3_elements_matches_the_dense_determinant(instance):
    t, rows, units = instance
    sparse = [[support(v) for v in row] for row in rows]
    assert _det3_elements(t, sparse) == dense_det3(t, rows)
    # a first row of basis indices, as the two-derivation bracket passes it
    d = t.dimension
    assert (_det3_elements(t, [units] + sparse[1:])
            == dense_det3(t, [[basis_vector(d, i) for i in units]] + rows[1:]))


# ------------------------------------------------------ catalog instances


def test_f_bracket_matches_the_dense_bracket():
    for lie, _, _, forms in lie_instances():
        for f in forms:
            assert_same_tensor(f_bracket(lie, f), dense_f_bracket(lie, f))


def test_lie_kernel_conditions_match_the_dense_scan():
    for lie, p, lam, forms in lie_instances():
        d = lie.dimension
        kmap = p + LinearMap.scalar(d, lam)
        for f in forms:
            assert thm32_condition(lie, p, lam, f) == full_cyclic_scan(
                "f-bracket-rb-kernel-condition", d, f,
                dense_image_pair(lie, p), kmap)
            assert cor33_condition(lie, p, f) == full_cyclic_scan(
                "f-bracket-rb-kerP2-condition", d, f,
                dense_twisted(lie, p), p @ p)


def test_cor54_bracket_matches_the_dense_expansion():
    seen = 0
    for lie, p, lam, forms in lie_instances():
        for f in forms:
            want = dense_cor54_bracket(lie, p, lam, f)
            try:
                got = cor54_bracket(lie, p, lam, f)
            except PreconditionError as exc:
                assert "kernel condition fails" in str(exc)
                continue
            assert_same_tensor(got, want)
            seen += 1
    assert seen >= 10


def _qt4_forms():
    return [LinearForm((c, 0, 0, 0)) for c in (1, 2, Fraction(1, 2))]


def test_fd_bracket_and_thm42_match_the_dense_forms():
    alg = get("qt4")
    assoc, dmap = alg.products["prod"], alg.maps["D"]
    # P0 is Rota-Baxter of weight -1 (an idempotent algebra map onto the
    # constants) and commutes with the Euler derivation; -lambda Id is
    # Rota-Baxter of weight lambda and commutes with everything
    ops = [(alg.maps["P0"], -1), (LinearMap.scalar(4, -1), 1),
           (LinearMap.zero(4), 0)]
    for f in _qt4_forms():
        assert_same_tensor(fD_bracket(assoc, f, dmap),
                           dense_fd_bracket(assoc, f, dmap))
        for p, lam in ops:
            assert thm42_condition(assoc, p, lam, f, dmap) == full_cyclic_scan(
                "fD-bracket-rb-kernel-condition", 4, f,
                dense_twisted(assoc, dmap @ p, p), p + LinearMap.scalar(4, lam))
    qt3 = get("qt3")
    assert_same_tensor(
        fD_bracket(qt3.products["prod"], qt3.forms["f"], qt3.maps["D"]),
        dense_fd_bracket(qt3.products["prod"], qt3.forms["f"], qt3.maps["D"]))


@pytest.mark.parametrize("name,dname", [
    ("qt3", "D"), ("qt4", "D"), ("qt2_deg3", "D2"), ("qt3_deg4", "D3")])
def test_fd_preconditions_match_the_dense_loop(name, dname):
    alg = get(name)
    assoc, dmap = alg.products["prod"], alg.maps[dname]
    d = alg.dimension
    forms = [LinearForm(basis_vector(d, i)) for i in range(d)]
    forms += [LinearForm(tuple(Fraction(i + 1, 2) for i in range(d)))]
    for f in forms:
        want = dense_fd_form_failure(assoc, f, dmap)
        if want is None:
            _fd_preconditions(assoc, f, dmap)
        else:
            with pytest.raises(PreconditionError) as exc:
                _fd_preconditions(assoc, f, dmap)
            assert str(exc.value) == want


def test_thm36_constructions_match_the_dense_forms():
    alg = get("qt4")
    prelie = alg.products["prelie"]
    d = prelie.dimension
    seen = 0
    for p in (alg.maps["P0"], LinearMap.zero(d)):
        for f in small_forms(d, lambda f: True):
            assert thm36_f_condition(prelie, p, f) == \
                dense_thm36_f_condition(prelie, p, f)
            if not thm36_f_condition(prelie, p, f).passed:
                continue
            assert_same_tensor(thm36_bracket(prelie, p, f),
                               dense_thm36_bracket(prelie, p, f))
            p2 = p @ p
            assert thm36_rb_condition(prelie, p, f) == full_cyclic_scan(
                "P2-commutator-vanishing", d, f, dense_twisted(prelie, p2, p2))
            seen += 1
    assert seen >= 10


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(
    binary_tensors(d), maps(d), vectors(d))))
def test_thm36_f_condition_matches_the_dense_scan(instance):
    t, p, row = instance
    f = LinearForm(row)
    assert thm36_f_condition(t, p, f) == dense_thm36_f_condition(t, p, f)


def test_derived_prelie_matches_the_dense_product():
    alg = get("qt4")
    prelie = alg.products["prelie"]
    cases = [(alg.maps["P0"], 0), (LinearMap.zero(4), 0),
             (LinearMap.scalar(4, -1), 1), (LinearMap.scalar(4, -2), 2)]
    for p, lam in cases:
        want = dense_derived_prelie(prelie, p, lam)
        try:
            got = derived_prelie(prelie, p, lam)
        except PreconditionError:
            # the weight-lambda product -lambda (opposite) is not pre-Lie
            assert lam != 0 and not check_prelie(want).passed
            continue
        assert_same_tensor(got, want)


@pytest.mark.parametrize("name,dnames", [
    ("qt3", ("D",)), ("qt4", ("D",)), ("qt2_deg3", ("D1", "D2")),
    ("qt3_deg4", ("D1", "D2", "D3"))])
def test_prelie_from_comm_assoc_matches_the_dense_product(name, dnames):
    alg = get(name)
    assoc = alg.products["prod"]
    for dname in dnames:
        dmap = alg.maps[dname]
        assert_same_tensor(prelie_from_comm_assoc(assoc, dmap),
                           dense_prelie_from_comm_assoc(assoc, dmap))


def test_det_brackets_match_the_dense_determinants():
    alg = get("qt2_deg3")
    assoc, d1, d2 = alg.products["prod"], alg.maps["D1"], alg.maps["D2"]
    for maps_ in ((d1, d2), (d2, d1)):
        assert_same_tensor(det_bracket_2(assoc, *maps_),
                           dense_det_bracket(assoc, maps_))
    alg = get("qt3_deg4")
    assoc = alg.products["prod"]
    maps_ = (alg.maps["D1"], alg.maps["D2"], alg.maps["D3"])
    got = det_bracket_3(assoc, *maps_)
    assert got.entries  # not trivially equal
    assert_same_tensor(got, dense_det_bracket(assoc, maps_))


# ------------------------------------------- the join against the per-key build


def transported(assoc, maps, s):
    """The product (x, y) -> S^-1 (Sx . Sy) and the maps S^-1 D S.

    A derivation of the product conjugates to a derivation of the
    transported one, and commuting maps stay commuting."""
    s_inv = s.inverse()
    prod = StructureTensor.from_function(
        2, assoc.dimension, "symmetric",
        lambda k: s_inv(assoc(s.cols[k[0]], s.cols[k[1]])))
    return prod, [s_inv @ m @ s for m in maps]


def same_as_per_key_build(assoc, maps):
    bracket = det_bracket_2 if len(maps) == 2 else det_bracket_3
    got = bracket(assoc, *maps)
    assert_same_tensor(got, per_key_det_bracket(assoc, maps))
    return got


def _derivations(name):
    alg = get(name)
    return alg.products["prod"], [alg.maps[n] for n in sorted(alg.maps)]


@pytest.mark.parametrize("name", ["qt2_deg3", "qt3_deg4"])
def test_det_join_matches_the_per_key_build_in_every_map_order(name):
    assoc, maps_ = _derivations(name)
    stored = 0
    for count in (2, 3):
        for order in permutations(maps_, count):
            stored += len(same_as_per_key_build(assoc, order).entries)
    assert stored  # not trivially equal


@pytest.mark.parametrize("seed", range(4))
def test_det_join_matches_the_per_key_build_after_a_monomial_change(seed):
    rng = random.Random(seed)
    for name in ("qt2_deg3", "qt3_deg4"):
        assoc, maps_ = _derivations(name)
        d = assoc.dimension
        perm = rng.sample(range(d), d)
        scale = [rng.choice((1, -1, 2, Fraction(-1, 2))) for _ in range(d)]
        s = LinearMap.from_cols([vec_scale(scale[i], basis_vector(d, perm[i]))
                                 for i in range(d)])
        prod, moved = transported(assoc, maps_, s)
        rng.shuffle(moved)
        for count in (2, 3):
            if count <= len(moved):
                same_as_per_key_build(prod, moved[:count])


_combination_coeffs = st.sampled_from(
    (0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)))


@st.composite
def conjugated_derivations(draw):
    """Fraction combinations of a catalog algebra's commuting Euler
    derivations, which are again pairwise-commuting derivations, moved
    with the product by a unipotent integer S = Id + N, N strictly
    triangular with a few nonzero entries."""
    name = draw(st.sampled_from(["qt2_deg3", "qt3_deg4"]))
    assoc, base = _derivations(name)
    d = assoc.dimension
    maps_ = []
    # three combinations of two derivations give the zero bracket
    for _ in range(draw(st.integers(2, len(base)))):
        coeffs = draw(st.lists(_combination_coeffs, min_size=len(base),
                               max_size=len(base)))
        m = LinearMap.zero(d)
        for c, dmap in zip(coeffs, base):
            m = m + dmap.scaled(c)
        maps_.append(m)
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    below = [(i, j) for i in range(d) for j in range(i)]
    for i, j in draw(st.lists(st.sampled_from(below), min_size=1,
                              max_size=6 if d > 10 else 12)):
        rows[i][j] = draw(st.sampled_from([1, -1, 2]))
    s = LinearMap.from_rows(rows)
    if draw(st.booleans()):
        s = LinearMap.from_cols(rows)  # upper unitriangular instead
    prod, maps_ = transported(assoc, maps_, s)
    return prod, maps_


@settings(max_examples=25, deadline=None)
@given(conjugated_derivations())
def test_det_join_matches_the_per_key_build_on_conjugated_derivations(instance):
    same_as_per_key_build(*instance)
