"""The nine record classes against frozen dataclass twins.

Each record class was a ``@dataclass(frozen=True)``; it is now a
``reports.Record`` with an ``__init__`` of its own, so that ``import
algcheck`` does not load ``dataclasses``.  ``FIELDS`` transcribes the
fields of the replaced dataclasses, and every test builds from it, inside
the test, a frozen dataclass twin of each class with the class's own
``__post_init__``.  Each record must bind, default, reject, print, compare,
hash, refuse assignment and survive pickling and copying as its twin does.
"""

import copy
import pickle
from dataclasses import FrozenInstanceError, field, make_dataclass
from fractions import Fraction

import pytest

from algcheck.algebra import Algebra, OperatorClaim
from algcheck.linalg import LinearForm, LinearMap
from algcheck.reports import CheckReport, Counterexample, passing
from algcheck.search import SearchResult, SearchSpec
from algcheck.tensor import StructureTensor

FRESH = object()  # a field whose default is a fresh dict per instance

# the fields of each replaced dataclass, in order: a name, or a name and its
# default
FIELDS = {
    OperatorClaim: ("kind", "product", "map", ("weight", 0)),
    Algebra: ("name", "dimension", "basis", ("products", FRESH),
              ("maps", FRESH), ("forms", FRESH), ("claims", FRESH),
              ("operator_claims", ())),
    LinearForm: ("row",),
    LinearMap: ("cols",),
    Counterexample: ("indices", "lhs", "rhs"),
    CheckReport: ("identity_name", "passed", "checked_count",
                  ("counterexample", None)),
    SearchSpec: ("target", "product", ("weight", 0), ("strategy", "solve"),
                 ("map", ""), ("entry_set", (-1, 0, 1)),
                 ("max_candidates", 100000), ("seed", 0)),
    SearchResult: ("found", "certificate"),
    StructureTensor: ("arity", "dimension", "symmetry", ("entries", FRESH)),
}
UNHASHABLE = (Algebra, StructureTensor)  # they hold dicts


def twin(cls):
    """The frozen dataclass ``cls`` was, with its ``__post_init__``."""
    spec = []
    for f in FIELDS[cls]:
        if isinstance(f, str):
            spec.append((f, object))
        elif f[1] is FRESH:
            spec.append((f[0], object, field(default_factory=dict)))
        else:
            spec.append((f[0], object, field(default=f[1])))
    namespace = {}
    if hasattr(cls, "__post_init__"):
        namespace["__post_init__"] = cls.__post_init__
    return make_dataclass(cls.__name__, spec, frozen=True, namespace=namespace)


def names(cls):
    return [f if isinstance(f, str) else f[0] for f in FIELDS[cls]]


def required(cls):
    return sum(isinstance(f, str) for f in FIELDS[cls])


def cases():
    """``(cls, args, kwargs)``: each class with its fields bound in
    different ways, the last case of a class binding every field."""
    t = StructureTensor(2, 2, "skew", {(0, 1): (1, Fraction(1, 2))})
    p = LinearMap(((1, 0), (0, 1)))
    cx = Counterexample((0, 1), (1, 0), (0, 0))
    claim = OperatorClaim("rb", "prod", "P", 1)
    return [
        (OperatorClaim, ("rb", "prod", "P"), {}),
        (OperatorClaim, ("derivation",), {"map": "D", "product": "prod",
                                          "weight": Fraction(-2, 3)}),
        (Algebra, ("pt", 0, ()), {}),
        (Algebra, ("a", 2, ("e0", "e1")), {"maps": {"P": p},
                                           "products": {"prod": t}}),
        (Algebra, ("a", 2, ("e0", "e1"), {"prod": t}, {"P": p},
                   {"f": LinearForm((1, 0))}, {"prod": ("lie",)}, (claim,)),
         {}),
        (LinearForm, (), {"row": (1, Fraction(1, 2))}),
        (LinearMap, (((0, 1), (2, 0)),), {}),
        (Counterexample, ((0, 1),), {"rhs": (0, 0), "lhs": (1, 0)}),
        (CheckReport, ("x", True, 4), {}),
        (CheckReport, ("x", False, 4), {"counterexample": cx}),
        (SearchSpec, ("rb_operator", "prod"), {"strategy": "grid"}),
        (SearchSpec, ("annihilating_form", "prod", 1, "solve", "", (0, 1),
                      7, 3), {}),
        (SearchResult, (p,), {"certificate": passing("rota-baxter", 4)}),
        (StructureTensor, (3, 2, "none"), {}),
        # a list value is normalised and a zero one dropped, in both
        (StructureTensor, (2, 3, "skew", {(0, 1): [1, Fraction(2, 4), 0],
                                          (1, 2): (0, 0, 0)}), {}),
    ]


def pairs():
    """``(record, twin instance)`` of every case."""
    twins = {cls: twin(cls) for cls in FIELDS}
    return [(cls(*args, **kwargs), twins[cls](*args, **kwargs))
            for cls, args, kwargs in cases()]


def test_every_class_has_a_case_and_its_fields():
    assert {cls for cls, _, _ in cases()} == set(FIELDS)
    for cls in FIELDS:
        assert list(cls._fields) == names(cls)


def test_binding_and_defaults_match_the_twin():
    for record, other in pairs():
        assert vars(record) == vars(other)
        for name in names(type(record)):
            assert type(getattr(record, name)) is type(getattr(other, name))


@pytest.mark.parametrize("cls, args", [(Algebra, ("pt", 0, ())),
                                       (StructureTensor, (2, 1, "none"))])
def test_a_default_dict_is_fresh_per_instance(cls, args):
    fresh = [f[0] for f in FIELDS[cls] if not isinstance(f, str)
             and f[1] is FRESH]
    for maker in (cls, twin(cls)):
        first, second = maker(*args), maker(*args)
        for name in fresh:
            assert getattr(first, name) == {}
            assert getattr(first, name) is not getattr(second, name)


def test_a_missing_or_unknown_argument_is_a_type_error():
    for cls, args, kwargs in cases():
        every = (*args, *(kwargs[n] for n in names(cls)[len(args):]
                          if n in kwargs))
        for maker in (cls, twin(cls)):
            with pytest.raises(TypeError):
                maker(*every[:required(cls) - 1])
            with pytest.raises(TypeError):
                maker(*args, **kwargs, unknown=1)
            if len(every) == len(names(cls)):
                with pytest.raises(TypeError):
                    maker(*every, None)
                with pytest.raises(TypeError):
                    maker(*every, **{names(cls)[0]: every[0]})


def test_post_init_is_looked_up_on_the_class_at_call_time(monkeypatch):
    calls = []
    original = StructureTensor.__post_init__

    def counted(self):
        calls.append(self.arity)
        original(self)

    monkeypatch.setattr(StructureTensor, "__post_init__", counted)
    StructureTensor(2, 1, "none", {(0, 0): (1,)})
    assert calls == [2]


def test_repr_eq_and_hash_match_the_twin():
    for record, other in pairs():
        cls = type(record)
        again = cls(*(getattr(record, n) for n in names(cls)))
        assert repr(record) == repr(other)
        assert record == again and not record != again
        # equal only within the class, as the twin
        assert record != other and other != record
        assert record.__eq__(other) is NotImplemented
        assert other.__eq__(record) is NotImplemented
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(record)
            with pytest.raises(TypeError):
                hash(other)
        else:
            assert hash(record) == hash(other) == hash(again)


def test_records_with_different_fields_differ():
    p = LinearMap(((1, 0), (0, 1)))
    assert p != LinearMap(((1, 0), (0, 2)))
    assert passing("x", 4) != passing("x", 5)
    assert LinearForm((1, 0)) != LinearMap(((1,),))


def test_assignment_and_deletion_raise_attribute_error():
    for record, other in pairs():
        for name in (*names(type(record)), "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(other, name, 0)
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert vars(record) == vars(other)


def test_pickle_and_copy_keep_fields_and_cached_values():
    t = StructureTensor(2, 2, "skew", {(0, 1): (1, Fraction(1, 2))})
    p = LinearMap(((0, 1), (Fraction(1, 3), 0)))
    assert t.table and p.sparse_cols
    t._memo("kept", lambda self: "value")
    records = [t, p] + [record for record, _ in pairs()]
    for record in records:
        for again in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                      copy.deepcopy(record)):
            assert type(again) is type(record)
            assert again == record and repr(again) == repr(record)
            assert vars(again) == vars(record)
            with pytest.raises(AttributeError):
                again.other = 0
    copied = pickle.loads(pickle.dumps(t))
    assert {"table", "_memo_values"} <= vars(copied).keys()
    assert copied.table == t.table
    assert pickle.loads(pickle.dumps(p)).sparse_cols == p.sparse_cols
