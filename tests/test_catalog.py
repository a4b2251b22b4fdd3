import os
import subprocess
import sys
from itertools import product as iproduct
from pathlib import Path

from algcheck.catalog import (catalog, catalog_names, euler_maps, get,
                              monomials, running_sum_map,
                              truncated_poly_product)
from algcheck.files import dumps
from algcheck.linalg import basis_vector

SRC = Path(__file__).resolve().parent.parent / "src"

DUMP_CATALOG = """
import sys
from algcheck.catalog import catalog
from algcheck.files import dumps
sys.stdout.write("".join(dumps(alg) for alg in catalog()))
"""

# ------------------------------------------------------------- generators


def test_monomials_counts_and_order():
    assert monomials(1, 4) == [(0,), (1,), (2,), (3,)]
    assert len(monomials(2, 3)) == 6
    assert len(monomials(3, 2)) == 4
    assert len(monomials(3, 4)) == 20
    ms = monomials(2, 3)
    assert ms[0] == (0, 0)
    degs = [sum(m) for m in ms]
    assert degs == sorted(degs)  # graded order


def test_running_sum_map_is_strict_lower_triangular():
    p = running_sum_map(4)
    for j, col in enumerate(p.cols):
        for i, v in enumerate(col):
            assert v == (1 if i > j else 0)


def test_truncated_poly_product_hand_checked():
    t = truncated_poly_product(1, 4)
    # t^1 * t^2 = t^3, t^2 * t^2 = 0 (truncated), 1 * t^k = t^k
    assert t.basis_product((1, 2)) == (0, 0, 0, 1)
    assert t.basis_product((2, 2)) == (0, 0, 0, 0)
    for k in range(4):
        assert t.basis_product((0, k)) == basis_vector(4, k)


def test_euler_maps_multiply_by_exponents():
    mons = monomials(2, 3)
    d1, d2 = euler_maps(2, 3)
    for i, m in enumerate(mons):
        assert d1.cols[i] == tuple(
            m[0] if j == i else 0 for j in range(len(mons)))
        assert d2.cols[i] == tuple(
            m[1] if j == i else 0 for j in range(len(mons)))


# ------------------------------------------------------------ the entries


def test_catalog_names_sorted_unique():
    names = catalog_names()
    assert len(names) == len(set(names))
    assert all(get(n).name == n for n in names)


def test_every_claim_references_existing_objects():
    for alg in catalog():
        for pname in alg.claims:
            assert pname in alg.products
        for oc in alg.operator_claims:
            assert oc.product in alg.products
            assert oc.map in alg.maps


def test_a4_bracket_hand_entries():
    t = get("a4").products["bracket"]
    assert t.basis_product((0, 1, 2)) == (0, 0, 0, 1)
    assert t.basis_product((0, 1, 3)) == (0, 0, 1, 0)
    assert t.basis_product((0, 2, 3)) == (0, 1, 0, 0)
    assert t.basis_product((1, 2, 3)) == (1, 0, 0, 0)


def test_a4_swap_map():
    d = get("a4").maps["D"]
    assert d.cols == ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))


def test_heisenberg_hand_entries():
    t = get("heisenberg").products["bracket"]
    assert t.basis_product((0, 1)) == (0, 0, 1)
    assert t.basis_product((0, 2)) == (0, 0, 0)
    assert t.basis_product((1, 2)) == (0, 0, 0)


def test_q4_componentwise_entries():
    t = get("q4").products["prod"]
    for i, j in iproduct(range(4), repeat=2):
        expected = basis_vector(4, i) if i == j else (0,) * 4
        assert t.basis_product((i, j)) == expected


def test_qt4_prelie_entries_match_euler_formula():
    t = get("qt4").products["prelie"]
    for a, b in iproduct(range(4), repeat=2):
        expected = [0] * 4
        if a + b < 4:
            expected[a + b] = b
        assert t.basis_product((a, b)) == tuple(expected)


def test_qt2_deg3_det2_matches_generator():
    from algcheck.constructions import det_bracket_2
    alg = get("qt2_deg3")
    rebuilt = det_bracket_2(alg.products["prod"], alg.maps["D1"],
                            alg.maps["D2"])
    assert rebuilt.entries == alg.products["det2"].entries


def test_catalog_files_do_not_depend_on_the_hash_seed():
    # every constructed product must store its keys in an order that no
    # hash seed can change: the benchmark's set-up probe builds the catalog
    # in a fresh interpreter
    outs = []
    for seed in ("0", "1"):
        path = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", DUMP_CATALOG], capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
            timeout=120, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0] == "".join(dumps(alg) for alg in catalog()).encode()
