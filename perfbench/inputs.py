"""Seeded input documents for the benchmark workloads.

Every input starts from a fixed algebra (a catalog instance or gl(4)) built
here in plain Python, independently of the package under test, and is moved
to a new basis by a seeded monomial change of basis ``S e_i = c_i e_pi(i)``:
a permutation ``pi``, a sign per basis vector and, where asked, a rational
scale.  Such a change keeps every sparsity pattern and every theorem-backed
verdict, so the expected outputs of a workload are known for any seed.

The program under test only ever sees the documents (``algcheck-algebra/1``
JSON text); the benchmark keeps the change of basis to check the outputs.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations, product

ALGEBRA_FORMAT = "algcheck-algebra/1"
SCALES = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 2), 2, 3)


def norm(x):
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def fmt(x) -> str:
    x = norm(x)
    return str(x) if isinstance(x, int) else f"{x.numerator}/{x.denominator}"


class BasisChange:
    """Monomial change of basis: ``S e_i = scale[i] e_perm[i]``."""

    def __init__(self, perm, scale):
        self.perm = tuple(perm)
        self.scale = tuple(norm(c) for c in scale)

    @classmethod
    def seeded(cls, rng: random.Random, dim: int, rational: bool):
        perm = rng.sample(range(dim), dim)
        scale = [rng.choice((1, -1)) * (rng.choice(SCALES) if rational else 1)
                 for _ in range(dim)]
        return cls(perm, scale)

    def vector(self, v):
        """``S v`` for a vector in the old basis."""
        out = [0] * len(v)
        for i, a in enumerate(v):
            if a:
                out[self.perm[i]] = norm(a * self.scale[i])
        return tuple(out)

    def unvector(self, w):
        """``S^-1 w`` for a vector in the new basis."""
        return tuple(norm(Fraction(w[self.perm[i]]) / self.scale[i])
                     for i in range(len(w)))

    def tensor(self, entries: dict, symmetry: str) -> dict:
        """Stored entries of ``S . T . (S^-1 x ... x S^-1)``."""
        out = {}
        for key, value in entries.items():
            coeff = Fraction(1)
            for i in key:
                coeff /= self.scale[i]
            new_key, sign = list(self.perm[i] for i in key), 1
            if symmetry != "none":
                new_key, sign = sort_with_sign(new_key)
                if symmetry == "symmetric":
                    sign = 1
            out[tuple(new_key)] = tuple(
                norm(sign * coeff * a) for a in self.vector(value))
        return out

    def linear_map(self, cols):
        """Columns of ``S M S^-1`` from the columns of ``M``."""
        out = [None] * len(cols)
        for i, col in enumerate(cols):
            out[self.perm[i]] = tuple(
                norm(Fraction(a) / self.scale[i]) for a in self.vector(col))
        return out

    def unmap(self, cols):
        """Columns of ``S^-1 M S`` from the columns of ``M``."""
        return [tuple(norm(a * self.scale[i])
                      for a in self.unvector(cols[self.perm[i]]))
                for i in range(len(cols))]

    def form(self, row):
        """Row of ``f . S^-1``."""
        out = [0] * len(row)
        for i, a in enumerate(row):
            out[self.perm[i]] = norm(Fraction(a) / self.scale[i])
        return tuple(out)


def sort_with_sign(idx):
    idx, sign = list(idx), 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign, j = -sign, j - 1
    return idx, sign


def unit(dim, i):
    return tuple(1 if j == i else 0 for j in range(dim))


# -- base algebras in their catalog basis ----------------------------------


def monomials(nvars, maxdeg):
    out = [e for e in product(range(maxdeg), repeat=nvars) if sum(e) < maxdeg]
    out.sort(key=lambda e: (sum(e), e))
    return out


def truncated_poly(nvars, maxdeg):
    """Symmetric product entries and Euler derivation columns."""
    mons = monomials(nvars, maxdeg)
    index = {m: i for i, m in enumerate(mons)}
    d = len(mons)
    prod = {}
    for i in range(d):
        for j in range(i, d):
            s = tuple(a + b for a, b in zip(mons[i], mons[j]))
            if sum(s) < maxdeg:
                prod[(i, j)] = unit(d, index[s])
    eulers = [[tuple(m[v] if k == i else 0 for k in range(d))
               for i, m in enumerate(mons)] for v in range(nvars)]
    return mons, prod, eulers


def det3_bracket(nvars=3, maxdeg=4):
    """Expected three-derivation determinant bracket of the Euler maps:
    ``[m_i, m_j, m_k] = det(exponents) m_i m_j m_k``."""
    mons, _, _ = truncated_poly(nvars, maxdeg)
    index = {m: i for i, m in enumerate(mons)}
    d = len(mons)
    out = {}
    for key in combinations(range(d), 3):
        cols = [mons[i] for i in key]
        total = tuple(sum(c[v] for c in cols) for v in range(nvars))
        if sum(total) >= maxdeg:
            continue
        det = 0
        for perm, sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                           ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
            det += sign * cols[perm[0]][0] * cols[perm[1]][1] * cols[perm[2]][2]
        if det:
            out[key] = tuple(det if k == index[total] else 0 for k in range(d))
    return out


def gl_bracket(n):
    """gl(n) on the matrix units, ``E_ab`` at index ``n*a + b``."""
    d = n * n
    out = {}
    for i, j in combinations(range(d), 2):
        (a, b), (c, e) = divmod(i, n), divmod(j, n)
        v = [0] * d
        if b == c:
            v[n * a + e] += 1
        if e == a:
            v[n * c + b] -= 1
        if any(v):
            out[(i, j)] = tuple(v)
    return out


def trace_form(n):
    return tuple(1 if i // n == i % n else 0 for i in range(n * n))


def f_bracket(lie: dict, row, dim):
    """Expected ``f(x)[y,z] + f(y)[z,x] + f(z)[x,y]`` on ascending triples."""
    def br(a, b):
        if a == b:
            return None
        if a < b:
            return lie.get((a, b))
        v = lie.get((b, a))
        return None if v is None else tuple(-x for x in v)

    out = {}
    for i, j, k in combinations(range(dim), 3):
        acc = [0] * dim
        for c, (a, b) in ((row[i], (j, k)), (row[j], (k, i)), (row[k], (i, j))):
            v = br(a, b) if c else None
            if v:
                for m, x in enumerate(v):
                    acc[m] += c * x
        if any(acc):
            out[(i, j, k)] = tuple(norm(x) for x in acc)
    return out


def componentwise(dim):
    return {(i, i): unit(dim, i) for i in range(dim)}


def running_sum(dim):
    return [tuple(1 if i > j else 0 for i in range(dim)) for j in range(dim)]


# -- documents -------------------------------------------------------------


def product_doc(arity, symmetry, entries):
    return {"arity": arity, "symmetry": symmetry,
            "entries": [{"key": list(k), "value": [fmt(a) for a in v]}
                        for k, v in sorted(entries.items())]}


def document(name, dim, products=None, maps=None, forms=None) -> str:
    doc = {
        "format": ALGEBRA_FORMAT,
        "name": name,
        "dimension": dim,
        "basis": [f"b{i}" for i in range(dim)],
        "scalars": "rational",
        "products": {n: product_doc(*p) for n, p in (products or {}).items()},
        "maps": {n: {"cols": [[fmt(a) for a in c] for c in cols]}
                 for n, cols in (maps or {}).items()},
        "forms": {n: {"row": [fmt(a) for a in r]}
                  for n, r in (forms or {}).items()},
        "claims": {},
        "operator_claims": [],
    }
    return json.dumps(doc, indent=2) + "\n"


def logical_entries(arity, dim, symmetry):
    if symmetry == "skew":
        return len(list(combinations(range(dim), arity)))
    if symmetry == "symmetric":
        count = 1
        for k in range(arity):
            count = count * (dim + k) // (k + 1)
        return count
    return dim ** arity


def facts(name, arity, dim, symmetry, entries):
    """Input facts recorded with every result."""
    rational = any(isinstance(a, Fraction) for v in entries.values() for a in v)
    return {"tensor": name, "dimension": dim, "arity": arity,
            "stored": len(entries),
            "logical": logical_entries(arity, dim, symmetry),
            "coefficients": "rational" if rational else "integer"}


# -- per-workload inputs ----------------------------------------------------


def jacobi_sparse20(seed, k=0):
    _, prod, eulers = truncated_poly(3, 4)
    d = 20
    s = BasisChange.seeded(random.Random(seed), d, rational=False)
    new_prod = s.tensor(prod, "symmetric")
    bracket = s.tensor(det3_bracket(), "skew")
    text = document("qt3_deg4", d, products={"prod": (2, "symmetric", new_prod)},
                    maps={f"D{v + 1}": s.linear_map(c)
                          for v, c in enumerate(eulers)})
    return {"docs": {"algebra": text}, "bracket": bracket, "change": s,
            "facts": [facts("prod", 2, d, "symmetric", new_prod),
                      facts("det3", 3, d, "skew", bracket)]}


def perturb(entries, dim, rng):
    """One stored coordinate of a skew ternary bracket moved by a seeded
    nonzero rational.  The checks require the Jacobi scan to fail on the
    result; it does on every recorded seed and in the tests."""
    key = rng.choice(sorted(entries))
    coord = rng.randrange(dim)
    delta = Fraction(rng.choice((1, -1)) * rng.randint(1, 3), rng.randint(1, 3))
    out = dict(entries)
    value = list(out[key])
    value[coord] = norm(value[coord] + delta)
    out[key] = tuple(value)
    if not any(value):
        del out[key]
    return out


def jacobi_dense16(seed, k=0):
    n, d = 4, 16
    rng = random.Random(seed)
    s = BasisChange.seeded(rng, d, rational=True)
    lie = gl_bracket(n)
    row = trace_form(n)
    new_lie = s.tensor(lie, "skew")
    new_row = s.form(row)
    bracket = s.tensor(f_bracket(lie, row, d), "skew")
    broken = perturb(bracket, d, rng)
    return {"docs": {"algebra": document(
                "gl4", d, products={"bracket": (2, "skew", new_lie)},
                forms={"trace": new_row}),
                     "perturbed": document(
                "gl4_fbracket_perturbed", d,
                products={"fbracket": (3, "skew", broken)})},
            "bracket": bracket, "change": s,
            "facts": [facts("bracket", 2, d, "skew", new_lie),
                      facts("fbracket", 3, d, "skew", bracket)]}


def det_expansion(seed, k=0):
    d = 4
    s = BasisChange.seeded(random.Random(seed), d, rational=False)
    prod = s.tensor(componentwise(d), "symmetric")
    return {"docs": {"algebra": document(
                "q4", d, products={"prod": (2, "symmetric", prod)},
                maps={"P": s.linear_map(running_sum(d))})},
            "change": s,
            "facts": [facts("prod", 2, d, "symmetric", prod)]}


def rb_search(seed, k=0):
    """Pass ``k`` of a run searches q3 under the ``k % 8``-th of its eight
    sign patterns, in a seeded order.  A permutation alone leaves the
    componentwise product unchanged, so these are all its relabellings.  The
    search time depends on the pattern, by up to 1.5x; a run that covers all
    eight reports a median that does not depend on the seed.
    """
    d = 3
    rng = random.Random(seed)
    patterns = list(product((1, -1), repeat=d))
    rng.shuffle(patterns)
    s = BasisChange(rng.sample(range(d), d), patterns[k % len(patterns)])
    prod = s.tensor(componentwise(d), "symmetric")
    return {"docs": {"algebra": document(
                "q3", d, products={"prod": (2, "symmetric", prod)})},
            "change": s,
            "facts": [facts("prod", 2, d, "symmetric", prod)]}


def selftest_pool(seed, k=0):
    return {"docs": {}, "facts": []}


# Distinct inputs per seed; pass k of a run uses input k modulo this.
VARIANTS = {"rb_search": 8}

GENERATORS = {
    "jacobi_sparse20": jacobi_sparse20,
    "jacobi_dense16": jacobi_dense16,
    "det_expansion": det_expansion,
    "rb_search": rb_search,
    "selftest_pool": selftest_pool,
}
