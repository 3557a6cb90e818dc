"""Command line front end: construct, analyze, share, and sweep codes.

Subcommands
    construct     build a family instance and write its generator matrix
    analyze       minimality, weight-ratio, and value-coverage verdicts
    distribution  exhaustive weight distribution of a code
    lift          inductive lift of a verified base code
    tensor        tensor product of two codes
    sss           secret sharing: deal, reconstruct, access structure
    sweep         scripted verification over the reference instances

Matrix files use the plain text format of :mod:`mincodes.matrix`: a
``q rows cols`` header line followed by one line per generator row,
with ``#`` starting a comment.

Exit codes: 0 on success, 1 on usage or input errors, 2 when a verified
property fails to hold, so that automation can tell a mathematical
regression from an environment problem. Reports, JSON or human, are
byte-identical across identical invocations (except ``sss deal`` without
``--seed``, which draws fresh randomness); wall-clock timing goes to
stderr only.

Field orders above 256 are refused where fields are built
(:func:`mincodes.field.build_field`), before any table exists.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from .analysis import ab_condition, has_full_value_property, is_minimal_code
from .codes import DEFAULT_BUDGET, LinearCode, weight_distribution
from .constructions import (cf_code, cg_code, extended, first, lift, second,
                            tensor_product, weight_s)
from .errors import BadParams, MinCodesError
from .matrix import _read_text, dumps_matrix, loads_matrix, write_matrix
from .sss import SssScheme, deal, minimal_authorized_sets, reconstruct
from .sweep import load_config, run_sweep, write_distribution_csvs


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this tool keeps 2
    for verification failures, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_code(path) -> LinearCode:
    return LinearCode(loads_matrix(_read_text(path)))


def _ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise BadParams(
            f"{flag} wants comma-separated integers, got {text!r}") from None


def _print_json(report: dict) -> None:
    print(json.dumps(report, indent=2))


# -- construct ----------------------------------------------------------------

# family name -> (parameter flags it takes, builder)
_FAMILIES = {
    "first": (("t", "q"),
              lambda a, b: first(a.t, a.q)),
    "second": (("t", "k", "q"),
               lambda a, b: second(a.t, a.k, a.q)),
    "weights": (("s", "t", "q"),
                lambda a, b: weight_s(a.s, a.t, a.q)),
    "extended": (("t", "q"),
                 lambda a, b: extended(a.t, a.q)),
    "cf": (("n", "k", "q", "alphas"),
           lambda a, b: cf_code(a.n, a.k, a.q,
                                _ints(a.alphas, "--alphas"), b)),
    "cg": (("r", "k", "q"),
           lambda a, b: cg_code(a.r, a.k, a.q, b)),
}

_PARAM_FLAGS = ("t", "k", "s", "q", "n", "r", "alphas")


def _cmd_construct(args) -> int:
    wanted, build = _FAMILIES[args.family]
    given = {p for p in _PARAM_FLAGS if getattr(args, p) is not None}
    missing = [f"--{p}" for p in wanted if p not in given]
    extra = [f"--{p}" for p in sorted(given - set(wanted))]
    if missing or extra:
        raise BadParams(
            f"family {args.family} takes exactly "
            + " ".join(f"--{p}" for p in wanted)
            + (f"; missing {' '.join(missing)}" if missing else "")
            + (f"; unexpected {' '.join(extra)}" if extra else ""))
    code = build(args, args.budget)
    label = args.family + "(" + ",".join(
        str(getattr(args, p)) for p in wanted) + ")"
    if args.out:
        write_matrix(code.gen, args.out, comment=label)
        print(f"{label}: wrote [{code.n},{code.k}]_{code.q} generator "
              f"to {args.out}")
    else:
        sys.stdout.write(dumps_matrix(code.gen, comment=label))
    return 0


# -- analyze ------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    code = _load_code(args.infile)
    # one walk of the classes, whichever call comes first: the others read
    # the results it keeps on the code
    minimal = is_minimal_code(code, args.budget)
    dist = weight_distribution(code, args.budget)
    ab = ab_condition(code, args.budget)
    fv = has_full_value_property(code, args.budget)
    counts = {str(w): dist.counts[w] for w in sorted(dist.counts)}
    if args.json:
        _print_json({
            "command": "analyze",
            "parameters": {"in": str(args.infile), "budget": args.budget},
            "code": {"n": code.n, "k": code.k, "q": code.q,
                     "d": ab.w_min},
            "verdicts": {
                "minimality": minimal.as_dict(),
                "ab": ab.as_dict(),
                "full_value": fv.as_dict(),
            },
            "weight_distribution": counts,
            "warnings": [],
        })
    else:
        print(f"[{code.n},{code.k}]_{code.q} code, d = {ab.w_min}")
        if minimal.is_minimal:
            print(f"minimal: yes ({minimal.classes} scalar classes, "
                  f"{minimal.pairs_checked} pairs checked)")
        else:
            covered, covering = minimal.witness
            print(f"minimal: no (support {covered.support} sits inside "
                  f"{covering.support})")
        print(f"weight ratio: {ab.ratio} vs threshold {ab.threshold}, "
              f"sufficient: {'yes' if ab.sufficient else 'no'}")
        if fv.holds:
            print("full value property: holds")
        else:
            print(f"full value property: fails, witness values "
                  f"{sorted(fv.witness_values)}")
        print("weights: " + " ".join(f"{w}:{c}" for w, c in counts.items()))
    return 0 if minimal.is_minimal else 2


# -- distribution -------------------------------------------------------------

def _cmd_distribution(args) -> int:
    code = _load_code(args.infile)
    dist = weight_distribution(code, args.budget)
    if args.out:
        Path(args.out).write_text(dist.to_csv(), encoding="ascii")
    if args.json:
        _print_json({
            "command": "distribution",
            "parameters": {"in": str(args.infile), "budget": args.budget},
            "code": {"n": code.n, "k": code.k, "q": code.q},
            "weight_distribution":
                {str(w): dist.counts[w] for w in sorted(dist.counts)},
        })
    elif not args.out:
        sys.stdout.write(dist.to_csv())
    return 0


# -- lift / tensor ------------------------------------------------------------

def _cmd_lift(args) -> int:
    code = _load_code(args.infile)
    lifted = lift(code, args.s, args.budget)
    write_matrix(lifted.gen, args.out, comment=f"lift s={args.s}")
    print(f"wrote [{lifted.n},{lifted.k}]_{lifted.q} generator to {args.out}")
    return 0


def _cmd_tensor(args) -> int:
    c1 = _load_code(args.in1)
    c2 = _load_code(args.in2)
    prod = tensor_product(c1, c2)
    write_matrix(prod.gen, args.out, comment="tensor product")
    print(f"wrote [{prod.n},{prod.k}]_{prod.q} generator to {args.out}")
    return 0


# -- sss ----------------------------------------------------------------------

def _cmd_sss_deal(args) -> int:
    scheme = SssScheme(_load_code(args.infile), args.secret_column)
    shares = deal(scheme, args.secret, args.seed)
    if args.json:
        _print_json({
            "command": "sss-deal",
            "parameters": {"in": str(args.infile), "secret": args.secret,
                           "seed": args.seed,
                           "secret_column": args.secret_column},
            "shares": {str(i): shares.shares[i]
                       for i in scheme.participants},
        })
    else:
        dealing = ("unseeded" if args.seed is None
                   else f"seed {args.seed}")
        print(f"secret {args.secret}, {dealing}, "
              f"[{scheme.code.n},{scheme.code.k}]_{scheme.code.q} scheme")
        for i in scheme.participants:
            print(f"share {i}: {shares.shares[i]}")
    return 0


def _cmd_sss_reconstruct(args) -> int:
    scheme = SssScheme(_load_code(args.infile), args.secret_column)
    subset = list(_ints(args.subset, "--subset"))
    values = list(_ints(args.shares, "--shares"))
    secret = reconstruct(scheme, subset, values)
    if args.json:
        _print_json({
            "command": "sss-reconstruct",
            "parameters": {"in": str(args.infile),
                           "subset": sorted(subset),
                           "secret_column": args.secret_column},
            "secret": secret,
        })
    else:
        print(f"secret: {secret}")
    return 0


def _cmd_sss_access(args) -> int:
    scheme = SssScheme(_load_code(args.infile), args.secret_column)
    sets = minimal_authorized_sets(scheme, method=args.method,
                                   budget=args.budget)
    if args.json:
        _print_json({
            "command": "sss-access",
            "parameters": {"in": str(args.infile), "method": args.method,
                           "secret_column": args.secret_column},
            "minimal_authorized_sets": [list(a.indices) for a in sets],
        })
    else:
        print(f"{len(sets)} minimal authorized sets")
        for a in sets:
            print(" ".join(str(i) for i in a.indices))
    return 0


# -- sweep --------------------------------------------------------------------

def _cmd_sweep(args) -> int:
    report = run_sweep(load_config(args.config), budget=args.budget,
                       strict=args.strict)
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "sweep_report.json").write_text(report.to_json(),
                                               encoding="ascii")
        write_distribution_csvs(report, out)
    if args.json:
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.table())
    return 0 if report.passed else 2


# -- parser -------------------------------------------------------------------

def _add_budget(p, counted: str = "codewords") -> None:
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help=f"enumeration budget (default 10^7 {counted})")


def _add_infile(p) -> None:
    p.add_argument("--in", dest="infile", required=True,
                   help="generator matrix file (q rows cols header)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once; argparse looks sys.stdout and sys.stderr up to print."""
    parser = _Parser(prog="mincodes",
                     description="construct and verify minimal linear "
                                 "codes, and share secrets with them")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a family instance")
    p.add_argument("--family", required=True, choices=sorted(_FAMILIES))
    for flag in ("t", "k", "s", "q", "n", "r"):
        p.add_argument(f"--{flag}", type=int)
    p.add_argument("--alphas", help="comma-separated nonzero encodings")
    p.add_argument("--out", help="output file (default: stdout)")
    _add_budget(p, "codewords; families cf and cg count points")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("analyze", help="verify minimality and report "
                                       "weight facts")
    _add_infile(p)
    p.add_argument("--json", action="store_true")
    _add_budget(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("distribution", help="exhaustive weight distribution")
    _add_infile(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write CSV here instead of stdout")
    _add_budget(p)
    p.set_defaults(func=_cmd_distribution)

    p = sub.add_parser("lift", help="inductive lift of a verified code")
    _add_infile(p)
    p.add_argument("--s", type=int, required=True,
                   help="number of lifting rows")
    p.add_argument("--out", required=True)
    _add_budget(p)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("tensor", help="tensor product of two codes")
    p.add_argument("--in1", required=True)
    p.add_argument("--in2", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("sss", help="secret sharing on a code")
    sss_sub = p.add_subparsers(dest="sss_command", required=True)

    d = sss_sub.add_parser("deal", help="deal shares for a secret")
    _add_infile(d)
    d.add_argument("--secret", type=int, required=True)
    d.add_argument("--seed", type=int,
                   help="replay the dealing drawn from this seed; without "
                        "it the shares come from the system's randomness "
                        "and cannot be replayed")
    d.add_argument("--secret-column", type=int, default=1)
    d.add_argument("--json", action="store_true")
    d.set_defaults(func=_cmd_sss_deal)

    r = sss_sub.add_parser("reconstruct", help="recover the secret from "
                                               "shares")
    _add_infile(r)
    r.add_argument("--subset", required=True,
                   help="participant ids, e.g. 2,3")
    r.add_argument("--shares", required=True,
                   help="share values aligned with --subset")
    r.add_argument("--secret-column", type=int, default=1)
    r.add_argument("--json", action="store_true")
    r.set_defaults(func=_cmd_sss_reconstruct)

    a = sss_sub.add_parser("access", help="minimal authorized sets")
    _add_infile(a)
    a.add_argument("--method", choices=("auto", "dual", "search"),
                   default="auto")
    a.add_argument("--secret-column", type=int, default=1)
    a.add_argument("--json", action="store_true")
    _add_budget(a, "codewords; --method search counts coalitions")
    a.set_defaults(func=_cmd_sss_access)

    p = sub.add_parser("sweep", help="run the scripted verification "
                                     "criteria")
    p.add_argument("--config", help="sweep config JSON (default: every "
                                    "criterion on its default instances)")
    p.add_argument("--strict", action="store_true",
                   help="stop at the first failing criterion")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out-dir",
                   help="write weight-distribution CSVs and the JSON "
                        "report here")
    _add_budget(p)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    start = time.perf_counter()
    try:
        status = args.func(args)
    except MinCodesError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"time: {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
