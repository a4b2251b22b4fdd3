"""Container bundling a vector space with named products, maps and forms."""

from __future__ import annotations

from .linalg import LinearForm, LinearMap
from .reports import ArgumentError, Record
from .tensor import StructureTensor


class OperatorClaim(Record):
    """A claimed operator identity: ``kind`` is "rb", "derivation" or
    "duality"; ``weight`` is an exact scalar."""

    _fields = ("kind", "product", "map", "weight")

    def __init__(self, kind: str, product: str, map: str, weight=0):
        d = self.__dict__
        d["kind"] = kind
        d["product"] = product
        d["map"] = map
        d["weight"] = weight


class Algebra(Record):
    """Named algebra: products, maps and forms over one underlying space.

    ``claims`` records which axiom systems each product is supposed to
    satisfy (e.g. "3lie", "assoc", "comm", "lie", "prelie", "lts");
    ``operator_claims`` does the same for operator identities.  Claims are
    just claims: they are verified by the checkers, never trusted.
    """

    _fields = ("name", "dimension", "basis", "products", "maps", "forms",
               "claims", "operator_claims")

    def __init__(self, name: str, dimension: int, basis: tuple,
                 products: dict | None = None, maps: dict | None = None,
                 forms: dict | None = None, claims: dict | None = None,
                 operator_claims: tuple = ()):
        # each dict left out is a fresh empty one
        d = self.__dict__
        d["name"] = name
        d["dimension"] = dimension
        d["basis"] = basis
        d["products"] = {} if products is None else products
        d["maps"] = {} if maps is None else maps
        d["forms"] = {} if forms is None else forms
        d["claims"] = {} if claims is None else claims
        d["operator_claims"] = operator_claims
        self.__post_init__()

    def __post_init__(self):
        if len(self.basis) != self.dimension:
            raise ArgumentError("basis name count does not match dimension")
        for pname, t in self.products.items():
            if not isinstance(t, StructureTensor) or t.dimension != self.dimension:
                raise ArgumentError(f"product {pname!r} has wrong dimension")
        for mname, m in self.maps.items():
            if not isinstance(m, LinearMap) or m.dimension != self.dimension:
                raise ArgumentError(f"map {mname!r} has wrong dimension")
        for fname, f in self.forms.items():
            if not isinstance(f, LinearForm) or f.dimension != self.dimension:
                raise ArgumentError(f"form {fname!r} has wrong dimension")
        for pname in self.claims:
            if pname not in self.products:
                raise ArgumentError(f"claims reference unknown product {pname!r}")
        for oc in self.operator_claims:
            if oc.product not in self.products:
                raise ArgumentError(
                    f"operator claim references unknown product {oc.product!r}")
            if oc.map not in self.maps:
                raise ArgumentError(
                    f"operator claim references unknown map {oc.map!r}")

    def with_product(self, name: str, tensor: StructureTensor,
                     claims=()) -> "Algebra":
        """This algebra with ``tensor`` as product ``name``.  A product
        replaced by name takes exactly ``claims``: the old product's claims
        and the operator claims on it are dropped."""
        products = dict(self.products)
        products[name] = tensor
        claim_map = dict(self.claims)
        claim_map.pop(name, None)
        if claims:
            claim_map[name] = tuple(claims)
        return Algebra(self.name, self.dimension, self.basis, products,
                       dict(self.maps), dict(self.forms), claim_map,
                       tuple(oc for oc in self.operator_claims
                             if oc.product != name))
