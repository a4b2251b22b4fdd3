from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algcheck.linalg import basis_vector, vec_add, vec_scale, vector
from algcheck.reports import ArgumentError
from algcheck.tensor import (SYMMETRIES, StructureTensor, basis, basis_tuples,
                             skew_from_values, sort_with_sign, stored_keys,
                             tensors_equal)

scalars = st.one_of(st.integers(-5, 5),
                    st.fractions(min_value=-2, max_value=2, max_denominator=3))


def vectors(dim):
    return st.lists(scalars, min_size=dim, max_size=dim).map(tuple)


def skew_tensors(dim=3, arity=3):
    keys = stored_keys(arity, dim, "skew")
    return st.lists(vectors(dim), min_size=len(keys), max_size=len(keys)).map(
        lambda vals: StructureTensor(arity, dim, "skew", dict(zip(keys, vals))))


def test_sort_with_sign():
    assert sort_with_sign((2, 0, 1)) == ((0, 1, 2), 1)
    assert sort_with_sign((1, 0)) == ((0, 1), -1)
    assert sort_with_sign((0, 1, 2)) == ((0, 1, 2), 1)
    assert sort_with_sign((1, 1)) == ((1, 1), 1)


def test_skew_storage_rules():
    e = basis_vector(3, 0)
    with pytest.raises(ArgumentError):
        StructureTensor(2, 3, "skew", {(1, 0): e})
    with pytest.raises(ArgumentError):
        StructureTensor(2, 3, "skew", {(1, 1): e})
    t = StructureTensor(2, 3, "skew", {(0, 1): e})
    assert t.basis_product((0, 1)) == e
    assert t.basis_product((1, 0)) == (-1, 0, 0)
    assert t.basis_product((1, 1)) == (0, 0, 0)


def test_basis_tuples_are_keyed_by_symmetry_in_lex_order():
    for arity, dim in ((2, 0), (2, 3), (3, 3), (3, 4)):
        every = list(product(range(dim), repeat=arity))
        assert list(basis_tuples(arity, dim, "none")) == every
        assert list(basis_tuples(arity, dim, "symmetric")) == [
            k for k in every if list(k) == sorted(k)]
        assert list(basis_tuples(arity, dim, "skew")) == [
            k for k in every if list(k) == sorted(set(k))]
        for symmetry in SYMMETRIES:
            assert stored_keys(arity, dim, symmetry) == list(
                basis_tuples(arity, dim, symmetry))


def test_basis_tuples_are_lazy():
    # a scan that fails at its first tuple must not build the other 857,374
    tuples = basis_tuples(3, 95, "none")
    assert not isinstance(tuples, (list, tuple))
    assert next(tuples) == (0, 0, 0) and next(tuples) == (0, 0, 1)


def test_symmetric_storage_rules():
    e = basis_vector(2, 0)
    with pytest.raises(ArgumentError):
        StructureTensor(2, 2, "symmetric", {(1, 0): e})
    t = StructureTensor(2, 2, "symmetric", {(0, 1): e, (1, 1): e})
    assert t.basis_product((1, 0)) == e
    assert t.basis_product((0, 1)) == e


def test_zero_entries_dropped():
    t = StructureTensor(2, 2, "none", {(0, 0): (0, 0), (0, 1): (1, 0)})
    assert (0, 0) not in t.entries
    assert not t.is_zero()
    assert StructureTensor.zero(2, 2).is_zero()


def test_entry_validation():
    with pytest.raises(ArgumentError):
        StructureTensor(2, 2, "none", {(0, 2): (1, 0)})
    with pytest.raises(ArgumentError):
        StructureTensor(2, 2, "none", {(0,): (1, 0)})
    with pytest.raises(ArgumentError):
        StructureTensor(2, 2, "none", {(0, 0): (1, 0, 0)})
    with pytest.raises(ArgumentError):
        StructureTensor(1, 2, "none", {})


@settings(max_examples=40)
@given(skew_tensors(), st.permutations(range(3)))
def test_skew_evaluation_signs(t, perm):
    for key in stored_keys(3, 3, "skew"):
        permuted = tuple(key[p] for p in perm)
        sign = sort_with_sign(permuted)[1]
        expected = vec_scale(sign, t.basis_product(key))
        assert t.basis_product(permuted) == expected


@settings(max_examples=25)
@given(skew_tensors(), vectors(3), vectors(3), vectors(3), scalars, vectors(3))
def test_multilinearity(t, x, y, z, c, w):
    # linear in the first slot; skewness makes the other slots equivalent
    lhs = t.evaluate([vec_add(vec_scale(c, x), w), y, z])
    rhs = vec_add(vec_scale(c, t.evaluate([x, y, z])), t.evaluate([w, y, z]))
    assert lhs == rhs


@settings(max_examples=25)
@given(skew_tensors())
def test_evaluate_antisymmetry_on_vectors(t):
    x, y, z = (1, 2, 0), (0, 1, Fraction(1, 2)), (3, 0, 1)
    base = t.evaluate([x, y, z])
    for perm in permutations((x, y, z)):
        got = t.evaluate(list(perm))
        assert got in (base, vec_scale(-1, base))
    assert t.evaluate([x, x, z]) == (0, 0, 0)


def test_from_function_and_equality():
    def fn(key):
        return basis_vector(2, 0) if key == (0, 1) else (0, 0)

    a = StructureTensor.from_function(2, 2, "skew", fn)
    b = StructureTensor(2, 2, "none", {(0, 1): (1, 0), (1, 0): (-1, 0)})
    assert tensors_equal(a, b)
    assert not tensors_equal(a, StructureTensor.zero(2, 2))
    assert not tensors_equal(a, StructureTensor.zero(3, 2))


def test_skew_from_values_verifies():
    # a non-skew value function must be rejected
    def not_skew(key):
        return basis_vector(2, 0)  # same value for (0,1) and (1,0)

    with pytest.raises(ArgumentError):
        skew_from_values(2, 2, not_skew, verify=True)


def test_skew_from_values_accepts_skew():
    def val(key):
        i, j = key
        sign = 1 if i < j else (-1 if i > j else 0)
        return vec_scale(sign, basis_vector(2, 0)) if sign else (0, 0)

    t = skew_from_values(2, 2, val, verify=True)
    assert t.basis_product((1, 0)) == (-1, 0)


def test_scaled():
    t = StructureTensor(2, 2, "skew", {(0, 1): (1, 0)})
    assert t.scaled(Fraction(1, 2)).basis_product((0, 1)) == (Fraction(1, 2), 0)


def test_basis_helper():
    assert basis(2) == [(1, 0), (0, 1)]


def test_arity_mismatch_in_evaluate():
    t = StructureTensor.zero(2, 2)
    with pytest.raises(ArgumentError):
        t.evaluate([(1, 0)])
    with pytest.raises(ArgumentError):
        t.evaluate([(1, 0), (1, 0, 0)])


# ------------------------------------------- reference: sort-and-sign lookup


def reference_basis_product(t, indices):
    """Basis product read straight from the stored entries: sort the index
    tuple, apply the permutation sign for skew storage, zero on a repeated
    skew index or a missing entry."""
    indices = tuple(indices)
    zero = (0,) * t.dimension
    if t.symmetry == "skew":
        key, sign = sort_with_sign(indices)
        if any(a == b for a, b in zip(key, key[1:])):
            return zero
        value = t.entries.get(key)
        return zero if value is None else vec_scale(sign, value)
    if t.symmetry == "symmetric":
        return t.entries.get(sort_with_sign(indices)[0], zero)
    return t.entries.get(indices, zero)


def reference_evaluate(t, args):
    """Multilinear expansion over every tuple of nonzero coordinates."""
    supports = [[(i, c) for i, c in enumerate(a) if c != 0] for a in args]
    out = [0] * t.dimension
    for combo in product(*supports):
        coeff = 1
        for _, c in combo:
            coeff *= c
        term = reference_basis_product(t, tuple(i for i, _ in combo))
        for i, a in enumerate(term):
            if a:
                out[i] += coeff * a
    return vector(out)


sparse_scalars = st.sampled_from((0, 0, 0, 1, -1, 2, Fraction(-1, 2)))


@st.composite
def any_tensors(draw):
    arity = draw(st.integers(2, 3))
    dim = draw(st.integers(1, 4))
    symmetry = draw(st.sampled_from(("none", "skew", "symmetric")))
    keys = stored_keys(arity, dim, symmetry)
    vals = draw(st.lists(
        st.lists(sparse_scalars, min_size=dim, max_size=dim).map(tuple),
        min_size=len(keys), max_size=len(keys)))
    return StructureTensor(arity, dim, symmetry, dict(zip(keys, vals)))


@settings(max_examples=60, deadline=None)
@given(any_tensors(), st.data())
def test_table_matches_sort_and_sign_reference(t, data):
    tuples = list(product(range(t.dimension), repeat=t.arity))
    for key in tuples:
        assert t.basis_product(key) == reference_basis_product(t, key)
    args = [data.draw(vectors(t.dimension)) for _ in range(t.arity)]
    assert t.evaluate(args) == reference_evaluate(t, args)
    # the same map stored without symmetry compares equal, and differs
    # from it once any one nonzero product is dropped
    dense = {key: reference_basis_product(t, key) for key in tuples}
    assert tensors_equal(t, StructureTensor(t.arity, t.dimension, "none", dense))
    nonzero = [key for key, v in dense.items() if any(v)]
    if nonzero:
        dense[data.draw(st.sampled_from(nonzero))] = (0,) * t.dimension
        assert not tensors_equal(
            t, StructureTensor(t.arity, t.dimension, "none", dense))


def test_table_is_built_lazily():
    t = StructureTensor(3, 4, "skew", {(0, 1, 2): basis_vector(4, 3)})
    assert "table" not in vars(t)
    assert t.basis_product((2, 0, 1)) == (0, 0, 0, 1)
    assert len(t.table) == 6  # one key per ordering of the stored tuple
    assert t.table[(1, 0, 2)] == ((3, -1),)


class _Unread:
    """A slot that fails if anything expands it."""

    def __iter__(self):
        raise AssertionError("slot expanded")


def test_contract_on_an_empty_table_expands_no_slot():
    t = StructureTensor.zero(2, 3)
    assert t.contract((_Unread(), _Unread()), (0, _Unread())) == (0, 0, 0)
    assert t.evaluate([(1, 2, 3), (4, 5, 6)]) == (0, 0, 0)
