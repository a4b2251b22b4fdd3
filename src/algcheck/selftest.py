"""Theorems-as-invariants over the built-in catalog.

Every claim shipped with a catalog algebra is re-verified, and every
construction/inheritance theorem whose hypotheses a catalog instance
satisfies is executed on it.  The constructions re-verify their own
conclusions and raise ``InternalConsistencyError`` on violation, so a clean
selftest also certifies that the hard-error path never fires on the catalog.

The ``ALGCHECK_WORKERS`` environment variable (default 1) dispatches
independent per-algebra task bundles to a process pool; tasks are pure and
named by strings, so results are deterministic regardless of worker count.
"""

from __future__ import annotations

import os

from . import files
from .catalog import catalog_names, get as catalog_get
from .axioms import AXIOM_CHECKS, CLAIM_AXIOMS
from .constructions import (cor33_condition, det_bracket_3,
                            det_rb_expansion_check, derived_prelie, f_bracket,
                            fD_bracket, prelie_from_comm_assoc,
                            thm32_condition, thm35_f_condition, thm36_bracket,
                            thm36_f_condition, thm36_rb_condition)
from .inheritance import (check_derivation_transfer, check_rb_lts_transfer,
                          cor53_bracket, cor54_bracket, cor55_bracket,
                          derived_lts_bracket, derived_nbracket, lts_from_lie,
                          naive_bracket)
from .linalg import LinearMap, maps_commute
from .operators import (OPERATOR_CHECKS, check_derivation, check_duality,
                        check_rota_baxter, nary_from_associative)
from .search import SearchSpec, search


def _claims_task(name):
    alg = catalog_get(name)
    out = []
    for pname, claimed in sorted(alg.claims.items()):
        t = alg.products[pname]
        for claim in claimed:
            for axiom in CLAIM_AXIOMS[claim]:
                out.append((f"{name}.{pname}:{axiom}",
                            AXIOM_CHECKS[axiom](t).passed))
    for oc in alg.operator_claims:
        rep = OPERATOR_CHECKS[oc.kind](alg.products[oc.product],
                                       alg.maps[oc.map], oc.weight)
        out.append((f"{name}.{oc.product}:{oc.kind}({oc.map},w={oc.weight})",
                    rep.passed))
    return out


def _claimed(alg, pname, what):
    return what in alg.claims.get(pname, ())


def _theorems_task(name):
    """Run every theorem whose hypotheses this catalog entry satisfies."""
    alg = catalog_get(name)
    out = []

    def ok(label, passed=True):
        out.append((f"{name}:{label}", passed))

    dualities = set()  # an rb and a derivation claim may share a map

    def duality(oc):
        key = (oc.product, oc.map, oc.weight)
        if key not in dualities:
            dualities.add(key)
            check_duality(alg.products[oc.product], alg.maps[oc.map],
                          oc.weight)
        ok(f"duality({oc.map})")

    rb_claims = [oc for oc in alg.operator_claims if oc.kind == "rb"]
    der_claims = [oc for oc in alg.operator_claims if oc.kind == "derivation"]

    for oc in rb_claims:
        t = alg.products[oc.product]
        p = alg.maps[oc.map]
        if _claimed(alg, oc.product, "3lie"):
            derived_nbracket(t, p, oc.weight)  # Rota-Baxter 3-Lie inheritance
            ok(f"derived-inheritance({oc.product},{oc.map})")
            for dc in der_claims:
                if (dc.product == oc.product and dc.weight == oc.weight
                        and maps_commute(alg.maps[dc.map], p)):
                    check_derivation_transfer(t, p, oc.weight, alg.maps[dc.map])
                    ok(f"derivation-transfer({oc.map},{dc.map})")
        if _claimed(alg, oc.product, "lie"):
            check_rb_lts_transfer(t, p, oc.weight)
            ok(f"lts-rb-transfer({oc.map})")
            derived_lts_bracket(lts_from_lie(t), p, oc.weight)
            ok(f"derived-lts({oc.map})")
            for res in search(alg, SearchSpec("annihilating_form", oc.product)):
                f = res.found
                cond = thm32_condition(t, p, oc.weight, f)
                ok(f"f-bracket-kernel-condition({oc.map})", cond.passed
                   == check_rota_baxter(f_bracket(t, f), p, oc.weight).passed)
                if oc.weight == 0:
                    cor33_condition(t, p, f)
                    ok(f"kerP2-condition({oc.map})")
                cor54_bracket(t, p, oc.weight, f)
                ok(f"explicit-derived-f-bracket({oc.map})")
                if oc.weight == 0:
                    cor55_bracket(t, p, f)
                    ok(f"explicit-derived-f-bracket-w0({oc.map})")
        if _claimed(alg, oc.product, "prelie"):
            derived_prelie(t, p, oc.weight)
            ok(f"derived-prelie({oc.map})")
            if oc.weight == 0:
                forms = [r.found for r in search(
                    alg, SearchSpec("annihilating_form", oc.product))]
                forms += alg.forms.values()
                for f in forms:
                    if (thm35_f_condition(t, f).passed
                            and thm36_f_condition(t, p, f).passed):
                        thm36_bracket(t, p, f)
                        thm36_rb_condition(t, p, f)
                        ok(f"prelie-ternary-bracket({oc.map})")
        if (_claimed(alg, oc.product, "assoc")
                and _claimed(alg, oc.product, "comm")):
            nary = nary_from_associative(t, 3)
            ok(f"ternary-power-rb({oc.map})",
               check_rota_baxter(nary, p, oc.weight).passed)
            if alg.dimension <= 4:
                ok(f"det-rb-expansion({oc.map})",
                   det_rb_expansion_check(t, p, oc.weight).passed)
        if p.is_invertible():
            duality(oc)

    for dc in der_claims:
        t = alg.products[dc.product]
        dmap = alg.maps[dc.map]
        if _claimed(alg, dc.product, "3lie") and dc.weight == 0:
            naive_bracket(t, dmap)  # no guarantee; just must be computable
            ok(f"naive-bracket({dc.map})")
        if (_claimed(alg, dc.product, "3lie") and dmap.is_invertible()):
            cor53_bracket(t, dmap, dc.weight)
            ok(f"conjugated-bracket({dc.map})")
        if (_claimed(alg, dc.product, "assoc")
                and _claimed(alg, dc.product, "comm") and dc.weight == 0):
            prelie_from_comm_assoc(t, dmap)
            ok(f"prelie-from-derivation({dc.map})")
            ok(f"ternary-power-derivation({dc.map})", check_derivation(
                nary_from_associative(t, 3), dmap, 0).passed)
            if alg.dimension <= 6:
                for res in search(alg, SearchSpec(
                        "fD_form", dc.product, map=dc.map)):
                    fD_bracket(t, res.found, dmap)
                    ok(f"fD-bracket({dc.map})")
        if dmap.is_invertible():
            duality(dc)

    for pname in sorted(alg.claims):
        if _claimed(alg, pname, "lie"):
            lts_from_lie(alg.products[pname])
            ok(f"lts-from-lie({pname})")

    return out


def _roundtrip_task(name):
    alg = catalog_get(name)
    text = files.dumps(alg)
    again = files.dumps(files.loads(text))
    return [(f"{name}:file-roundtrip", text == again)]


def _det3_task(name):
    alg = catalog_get(name)
    t = alg.products["prod"]
    det3 = det_bracket_3(t, alg.maps["D1"], alg.maps["D2"], alg.maps["D3"])
    out = [(f"{name}:det3-jacobi", True)]  # construction verifies Jacobi
    zero = LinearMap.zero(alg.dimension)
    for lam in (0, 1):
        out.append((f"{name}:det3-rb(P=0,w={lam})",
                    check_rota_baxter(det3, zero, lam).passed))
    out.append((f"{name}:det3-rb(P=-Id,w=1)", check_rota_baxter(
        det3, LinearMap.scalar(alg.dimension, -1), 1).passed))
    return out


def _search_task(name):
    alg = catalog_get(name)
    out = []
    results = search(alg, SearchSpec(
        "rb_operator", "bracket", strategy="grid", entry_set=(-1, 0, 1)))
    nonzero = [r for r in results
               if any(v != 0 for col in r.found.cols for v in col)]
    out.append((f"{name}:rb-grid-search-finds-nonzero", len(nonzero) >= 2))
    for r in results:
        out.append((f"{name}:rb-search-certificate", r.certificate.passed))
    return out


def tasks():
    """Picklable (function, argument) pairs, independent of each other."""
    jobs = []
    for name in catalog_names():
        jobs.append((_claims_task, name))
        jobs.append((_theorems_task, name))
        jobs.append((_roundtrip_task, name))
    jobs.append((_det3_task, "qt3_deg4"))
    jobs.append((_search_task, "nonabelian2"))
    return jobs


def _run(job):
    fn, arg = job
    return fn(arg)


def run_selftest(workers=None):
    """Returns (all_passed, list of "PASS/FAIL label" lines).

    An ``InternalConsistencyError`` propagates out deliberately: it means an
    unconditional theorem failed, i.e. an implementation bug.
    """
    if workers is None:
        workers = int(os.environ.get("ALGCHECK_WORKERS", "1"))
    jobs = tasks()
    if workers > 1:
        # imported here: a serial run needs no pool, and its modules are
        # slow to import
        from concurrent.futures import ProcessPoolExecutor
        # a forking pool starts all its workers at once: no more than jobs
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            batches = list(pool.map(_run, jobs))
    else:
        batches = [_run(job) for job in jobs]
    lines = []
    all_ok = True
    for batch in batches:
        for label, passed in batch:
            lines.append(f"{'PASS' if passed else 'FAIL'} {label}")
            all_ok &= passed
    return all_ok, lines
