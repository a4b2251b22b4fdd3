"""Command-line interface.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage or input error,
3 internal consistency violated (an unconditional theorem failed to hold,
which can only be an implementation bug).

``_RECIPES`` is the one list of ``construct`` recipes: the parser's choices
and the construction each runs are read from it.  Each subcommand names its
handler with ``set_defaults``, so ``run_cli`` dispatches without knowing any
command by name.

The ``files``, ``inheritance`` and ``selftest`` modules are imported by the
commands that use them, so a command loads only what it runs; ``search``
is imported here because the parser takes its choices from it.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module

from .catalog import catalog, catalog_names, get as catalog_get
from .algebra import Algebra
from .axioms import AXIOM_CHECKS as _AXIOMS
from .operators import OPERATOR_CHECKS as _OP_KINDS
from .reports import (ArgumentError, FileFormatError,
                      InternalConsistencyError, PreconditionError)
from .scalars import format_rational, parse_rational
from .search import STRATEGIES, TARGETS, SearchSpec, search

# recipe: (module, function, the options naming its ingredients in argument
# order, the claims of its product); the function takes the product first
_RECIPES = {
    "f-bracket": ("constructions", "f_bracket", ("form",), ("3lie",)),
    "fD-bracket": ("constructions", "fD_bracket", ("form", "map"), ("3lie",)),
    "det2": ("constructions", "det_bracket_2", ("map", "map2"), ("3lie",)),
    "det3": ("constructions", "det_bracket_3", ("map", "map2", "map3"),
             ("3lie",)),
    "derived": ("inheritance", "derived_nbracket", ("map", "weight"),
                ("3lie",)),
    "naive": ("inheritance", "naive_bracket", ("map",), ()),
    "lts": ("inheritance", "lts_from_lie", (), ("lts",)),
    "prelie-from-assoc": ("constructions", "prelie_from_comm_assoc",
                          ("map",), ("prelie",)),
    "thm36": ("constructions", "thm36_bracket", ("map", "form"), ("3lie",)),
}


def _load_algebra(ref: str) -> Algebra:
    if os.path.exists(ref):
        if ref in catalog_names():
            raise ArgumentError(
                f"{ref!r} names both the local file ./{ref} and the catalog "
                f"algebra {ref}; write ./{ref} to load the file")
        from . import files
        return files.load(ref)
    try:
        return catalog_get(ref)
    except KeyError:
        raise FileFormatError(ref, "no such file or catalog algebra") from None


def _pick_product(alg: Algebra, name):
    if name:
        if name not in alg.products:
            raise ArgumentError(f"algebra has no product named {name!r}")
        return name
    if len(alg.products) == 1:
        return next(iter(alg.products))
    raise ArgumentError(
        f"--product required; algebra has {sorted(alg.products)}")


def _pick(alg: Algebra, args, option):
    """The form (``option`` "form") or map that ``--option`` names."""
    kind, named = (("form", alg.forms) if option == "form"
                   else ("map", alg.maps))
    name = getattr(args, option)
    if not name:
        raise ArgumentError(f"--{option} is required for this operation")
    if name not in named:
        raise ArgumentError(f"algebra has no {kind} named {name!r}")
    return named[name]


def _print_report(alg: Algebra, label, rep, out):
    print(f"{label}: {rep.verdict} ({rep.checked_count} tuples checked)",
          file=out)
    if rep.counterexample is not None:
        ce = rep.counterexample
        named = ", ".join(alg.basis[i] for i in ce.indices)
        lhs = "(" + ", ".join(format_rational(v) for v in ce.lhs) + ")"
        rhs = "(" + ", ".join(format_rational(v) for v in ce.rhs) + ")"
        print(f"  counterexample at ({named}) [indices {list(ce.indices)}]:",
              file=out)
        print(f"  lhs = {lhs}", file=out)
        print(f"  rhs = {rhs}", file=out)


def _cmd_verify(args, out):
    alg = _load_algebra(args.algebra)
    pname = _pick_product(alg, args.product)
    rep = _AXIOMS[args.axiom](alg.products[pname])
    _print_report(alg, f"{alg.name}.{pname} {args.axiom}", rep, out)
    if args.report:
        from . import files
        files.save_report(alg.name, [(f"{pname}:{args.axiom}", rep)], args.report)
    return 0 if rep.passed else 1


def _cmd_verify_op(args, out):
    alg = _load_algebra(args.algebra)
    pname = _pick_product(alg, args.product)
    m = _pick(alg, args, "map")
    weight = parse_rational(args.weight)
    rep = _OP_KINDS[args.kind](alg.products[pname], m, weight)
    label = f"{alg.name}.{pname} {args.kind}({args.map}, weight {args.weight})"
    _print_report(alg, label, rep, out)
    if args.report:
        from . import files
        files.save_report(
            alg.name, [(f"{pname}:{args.kind}:{args.map}", rep)], args.report)
    return 0 if rep.passed else 1


def _cmd_construct(args, out):
    from . import files
    module, function, options, claims = _RECIPES[args.recipe]
    for option in ("form", "map", "map2", "map3", "weight"):
        if getattr(args, option) is not None and option not in options:
            raise ArgumentError(
                f"--{option} is not taken by the recipe {args.recipe!r}")
    alg = _load_algebra(args.algebra)
    pname = _pick_product(alg, args.product)
    weight = "0" if args.weight is None else args.weight
    inputs = [parse_rational(weight) if o == "weight" else _pick(alg, args, o)
              for o in options]
    build = getattr(import_module(f".{module}", __package__), function)
    result = build(alg.products[pname], *inputs)
    new_name = args.name or args.recipe.replace("-", "_")
    enriched = alg.with_product(new_name, result, claims)
    text = files.dumps(enriched)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out} with new product {new_name!r} "
              f"({len(result.entries)} stored entries)", file=out)
    else:
        out.write(text)
    return 0


def _cmd_search(args, out):
    alg = _load_algebra(args.algebra)
    pname = _pick_product(alg, args.product)
    entry_set = tuple(parse_rational(e) for e in args.entries.split(","))
    strategy = args.strategy or (
        "grid" if args.target == "rb_operator" else "solve")
    spec = SearchSpec(
        target=args.target, product=pname, weight=parse_rational(args.weight),
        strategy=strategy, map=args.map or "", entry_set=entry_set,
        max_candidates=args.max_candidates, seed=args.seed)
    results = search(alg, spec)
    if spec.strategy == "grid":
        cells = alg.products[pname].dimension ** 2
        space = len(entry_set) ** cells
        if spec.max_candidates < space:
            # str() refuses integers of more than 4300 digits
            total = (space if space.bit_length() <= 10_000
                     else f"{len(entry_set)}**{cells}")
            print(f"note: grid search stopped after {spec.max_candidates} "
                  f"of {total} candidates", file=sys.stderr)
    print(f"{len(results)} result(s) for target {args.target}", file=out)
    for i, res in enumerate(results):
        if hasattr(res.found, "cols"):
            desc = "map cols " + "; ".join(
                "(" + ", ".join(format_rational(v) for v in col) + ")"
                for col in res.found.cols)
        else:
            desc = "form (" + ", ".join(
                format_rational(v) for v in res.found.row) + ")"
        print(f"  [{i}] {desc}  certificate: {res.certificate.identity_name} "
              f"{res.certificate.verdict}", file=out)
    if args.report:
        from . import files
        files.save_report(
            alg.name, [(f"search[{i}]", r.certificate)
                       for i, r in enumerate(results)], args.report)
    return 0


def _cmd_selftest(args, out):
    from .selftest import run_selftest
    ok, lines = run_selftest(args.workers)
    for line in lines:
        print(line, file=out)
    print(f"selftest: {'all passed' if ok else 'FAILURES'} "
          f"({len(lines)} checks)", file=out)
    return 0 if ok else 1


def _cmd_catalog(args, out):
    for alg in catalog():
        prods = ", ".join(
            f"{n}({t.arity}-ary)" for n, t in sorted(alg.products.items()))
        print(f"{alg.name}: dim {alg.dimension}; products: {prods}", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algcheck",
        description="Exact verification of n-ary algebra identities, "
                    "Rota-Baxter/derivation operators, and the associated "
                    "bracket constructions.")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="check an axiom of a product")
    v.add_argument("algebra", help="algebra file path or catalog name")
    v.add_argument("--product", default=None)
    v.add_argument("--axiom", required=True, choices=sorted(_AXIOMS))
    v.add_argument("--report", default=None, help="write a structured report")
    v.set_defaults(run=_cmd_verify)

    vo = sub.add_parser("verify-op", help="check an operator identity")
    vo.add_argument("algebra")
    vo.add_argument("--product", default=None)
    vo.add_argument("--map", required=True)
    vo.add_argument("--kind", required=True, choices=sorted(_OP_KINDS))
    vo.add_argument("--weight", default="0", help="rational 'p' or 'p/q'")
    vo.add_argument("--report", default=None)
    vo.set_defaults(run=_cmd_verify_op)

    c = sub.add_parser("construct", help="build a bracket from a recipe")
    c.add_argument("algebra")
    c.add_argument("--recipe", required=True, choices=_RECIPES)
    c.add_argument("--product", default=None)
    c.add_argument("--form", default=None)
    c.add_argument("--map", default=None)
    c.add_argument("--map2", default=None)
    c.add_argument("--map3", default=None)
    c.add_argument("--weight", default=None)
    c.add_argument("--name", default=None, help="name of the new product")
    c.add_argument("--out", default=None, help="output algebra file")
    c.set_defaults(run=_cmd_construct)

    s = sub.add_parser("search", help="search for forms or operators")
    s.add_argument("algebra")
    s.add_argument("--target", required=True, choices=TARGETS)
    s.add_argument("--product", default=None)
    s.add_argument("--map", default=None)
    s.add_argument("--weight", default="0")
    s.add_argument("--strategy", default=None, choices=STRATEGIES)
    s.add_argument("--entries", default="-1,0,1",
                   help="comma-separated rational entry set")
    s.add_argument("--max-candidates", type=int, default=100000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--report", default=None)
    s.set_defaults(run=_cmd_search)

    st = sub.add_parser("selftest", help="verify every theorem on the catalog")
    st.add_argument("--workers", type=int, default=None)
    st.set_defaults(run=_cmd_selftest)

    sub.add_parser("catalog", help="list built-in algebras").set_defaults(
        run=_cmd_catalog)
    return parser


def run_cli(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.run(args, out)
    except InternalConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 3
    except (FileFormatError, PreconditionError, ArgumentError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
