"""Command line front end.

Exit codes for `decide`: 0 soluble at the requested scope, 1 insoluble,
2 for bad usage or infeasible requests.  `verify-paper` exits 0 exactly
when every suite item passes.  All numeric output is exact (integers or
numerator/denominator pairs), except decimals: interval endpoints are
rounded outward (lower down, upper up) to a requested digit count, and
survey proportions are rounded to nearest.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from . import cache as cache_mod
from . import solubility
from .density import rho_infinity, rho_p
from .errors import LocsolError
from .padic import CoefficientVector, classify_type, orbit_record
from .product import _decimal, decimalize, rho_loc_interval
from .solubility import decide_everywhere_local, decide_qp, decide_real
from .survey import convergence_sweep, write_csv
from .verification import run_suite

USAGE_EXIT = 2


def _build_parser() -> argparse.ArgumentParser:
    def heights(text: str) -> list[int]:   # argparse names it on errors
        return [int(h) for h in text.split(",") if h.strip()]

    parser = argparse.ArgumentParser(
        prog="locsol",
        description="Exact local solubility and density calculations "
                    "for diagonal forms sum a_i x_i^k = 0.")
    parser.add_argument("--cache-dir", default=None,
                        help="directory for persistent verdict caches "
                             "(default: $LOCSOL_CACHE_DIR if set)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_decide = sub.add_parser(
        "decide", help="decide solubility at one place or everywhere")
    p_decide.add_argument("-k", type=int, required=True, help="degree")
    decide_place = p_decide.add_mutually_exclusive_group()
    decide_place.add_argument("-p", type=int, default=None,
                              help="decide at this prime only")
    decide_place.add_argument("--real", action="store_true",
                              help="decide at the real place only")
    p_decide.add_argument("--no-witness", action="store_true",
                          help="skip witness construction")
    p_decide.add_argument("--format", default="text",
                          choices=("text", "json"))
    p_decide.add_argument("coefficients", type=int, nargs="+")

    p_rho = sub.add_parser("rho", help="local density at a place, or a "
                                       "certified all-places enclosure")
    p_rho.add_argument("-n", type=int, required=True,
                       help="number of variables minus one")
    p_rho.add_argument("-k", type=int, required=True, help="degree")
    rho_place = p_rho.add_mutually_exclusive_group(required=True)
    rho_place.add_argument("-p", type=int, default=None, help="finite place")
    rho_place.add_argument("--infinity", action="store_true",
                           help="density at the real place")
    rho_place.add_argument("--loc", action="store_true",
                           help="certified enclosure of the all-places "
                                "product")
    p_rho.add_argument("--cutoff", type=int, default=10**4,
                       help="prime cutoff for --loc (default 10000)")
    p_rho.add_argument("--digits", type=int, default=6,
                       help="decimal digits for interval endpoints")
    p_rho.add_argument("--format", default="text", choices=("text", "json"))

    p_survey = sub.add_parser(
        "survey", help="proportion of soluble vectors in a coefficient box")
    p_survey.add_argument("-n", type=int, required=True)
    p_survey.add_argument("-k", type=int, required=True)
    p_survey.add_argument("--box", type=int, required=True,
                          help="height H: entries range over |a| < H")
    p_survey.add_argument("--mode", default="exhaustive",
                          choices=("exhaustive", "sample"))
    p_survey.add_argument("--samples", type=int, default=None,
                          help="sample count for --mode sample")
    p_survey.add_argument("--seed", type=int, default=None)
    p_survey.add_argument("--jobs", type=int, default=1)
    p_survey.add_argument("--sweep", type=heights, default=None,
                          help="comma-separated extra heights to sweep")
    p_survey.add_argument("--csv", default=None,
                          help="write rows to this CSV file ('-' = stdout)")
    p_survey.add_argument("--reference", action="store_true",
                          help="attach the certified enclosure for (n, k)")
    p_survey.add_argument("--cutoff", type=int, default=10**4)
    p_survey.add_argument("--format", default="text",
                          choices=("text", "json", "csv"))

    p_verify = sub.add_parser(
        "verify-paper",
        help="recompute the recorded reference values and invariants")
    p_verify.add_argument("--subset", default="all",
                          choices=("all", "quadratic", "cubic"))
    p_verify.add_argument("--format", default="text",
                          choices=("text", "json"))

    p_classify = sub.add_parser(
        "classify", help="pattern tag (I/II/III) of a vector at p")
    p_classify.add_argument("-k", type=int, required=True)
    p_classify.add_argument("-p", type=int, required=True)
    p_classify.add_argument("--format", default="text",
                            choices=("text", "json"))
    p_classify.add_argument("coefficients", type=int, nargs="+")

    p_orbit = sub.add_parser(
        "orbit", help="normal form of a vector at p with the group "
                      "element that achieves it")
    p_orbit.add_argument("-k", type=int, required=True)
    p_orbit.add_argument("-p", type=int, required=True)
    p_orbit.add_argument("--format", default="text",
                         choices=("text", "json"))
    p_orbit.add_argument("coefficients", type=int, nargs="+")
    return parser


def _verdict_record(v) -> dict:
    return {
        "place": v.place,
        "status": v.status,
        "witness": None if v.witness is None else list(v.witness),
        "witness_form": None if v.witness_form is None
        else list(v.witness_form),
        "certificate_level": v.certificate_level,
        "route": v.route,
    }


def _print_verdict(v, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(_verdict_record(v)))
        return
    print(f"place {v.place}: {v.status}")
    if v.witness is not None and v.place != "real":
        print(f"  witness mod p^{v.certificate_level}: "
              f"{list(v.witness)} on reduced form {list(v.witness_form)}")


def _cmd_decide(args, store) -> int:
    vec = CoefficientVector(tuple(args.coefficients), args.k)
    want_witness = not args.no_witness
    if args.real:
        verdict = decide_real(vec)
        _print_verdict(verdict, args.format)
        return 0 if verdict.is_soluble else 1
    if args.p is not None:
        verdict = decide_qp(vec, args.p, with_witness=want_witness)
        _print_verdict(verdict, args.format)
        return 0 if verdict.is_soluble else 1
    report = decide_everywhere_local(vec)
    if args.format == "json":
        print(json.dumps({
            "coefficients": list(report.coefficients),
            "k": report.k,
            "overall": report.overall,
            "tested_primes": list(report.tested_primes),
            "note": report.note,
            "verdicts": [_verdict_record(v) for v in report.verdicts],
        }))
    else:
        for v in report.verdicts:
            _print_verdict(v, "text")
        print(f"overall: {'soluble' if report.overall else 'insoluble'} "
              f"({report.note})")
    return 0 if report.overall else 1


def _cmd_rho(args, store) -> int:
    if args.loc:
        interval = rho_loc_interval(args.n, args.k, args.cutoff)
        if args.format == "json":
            print(json.dumps(interval.to_record(args.digits)))
        else:
            dec_lo, dec_hi = decimalize(interval, args.digits)
            print(f"rho_loc({args.n}, {args.k}) in [{dec_lo}, {dec_hi}]  "
                  f"(cutoff {interval.cutoff}; exact rational bounds in "
                  f"--format json)")
            print(f"finite-prime part in "
                  f"[{_decimal(interval.finite_lo, args.digits, False)}, "
                  f"{_decimal(interval.finite_hi, args.digits, True)}] "
                  f"before the real factor "
                  f"{interval.real_factor.numerator}/"
                  f"{interval.real_factor.denominator}")
        return 0
    if args.infinity:
        dens = rho_infinity(args.n, args.k)
    else:
        dens = rho_p(args.n, args.k, args.p)
    if args.format == "json":
        print(json.dumps(dens.to_record()))
    else:
        v = dens.value
        print(f"rho(n={dens.n}, k={dens.k}, place={dens.place}) = "
              f"{v.numerator}/{v.denominator}  [{dens.route}]")
    return 0


def _cannot_write(path: str, reason: str) -> int:
    print(f"error: cannot write {path}: {reason}", file=sys.stderr)
    return USAGE_EXIT


def _cmd_survey(args, store) -> int:
    # refuse a missing directory before any work; the file itself is
    # opened only after the survey, so a failed survey truncates nothing
    if args.csv and args.csv != "-" and not os.path.isdir(
            os.path.dirname(args.csv) or "."):
        return _cannot_write(args.csv, os.strerror(errno.ENOENT))
    reference = None
    if args.reference:
        reference = rho_loc_interval(args.n, args.k, args.cutoff)
    heights = [args.box] + (args.sweep or [])
    reports = convergence_sweep(
        args.n, args.k, heights, mode=args.mode,
        sample_count=args.samples, seed=args.seed, jobs=args.jobs)
    if args.csv and args.csv != "-":
        try:
            with open(args.csv, "w", newline="", encoding="utf-8") as fh:
                write_csv(reports, fh, reference)
        except OSError as exc:
            return _cannot_write(args.csv, exc.strerror)
    if args.csv == "-" or args.format == "csv":
        write_csv(reports, sys.stdout, reference)
    elif args.format == "json":
        ref = {"ref_lo": None, "ref_hi": None}
        if reference is not None:
            ref = {"ref_lo": {"num": reference.lo.numerator,
                              "den": reference.lo.denominator},
                   "ref_hi": {"num": reference.hi.numerator,
                              "den": reference.hi.denominator}}
        print(json.dumps([{
            "n": r.n, "k": r.k, "H": r.height, "mode": r.mode,
            "seed": r.seed, "total": r.total, "soluble": r.soluble,
            "proportion": {"num": r.proportion.numerator,
                           "den": r.proportion.denominator},
            **ref,
        } for r in reports]))
    else:
        vs = "" if reference is None else (
            f"  vs certified [{_decimal(reference.lo, 6, False)}, "
            f"{_decimal(reference.hi, 6, True)}]")
        for r in reports:
            print(f"H={r.height} ({r.mode}): {r.soluble}/{r.total} "
                  f"soluble = {float(r.proportion):.6f}{vs}")
    return 0


def _cmd_verify(args, store) -> int:
    results = run_suite(args.subset, cache_store=store)
    if args.format == "json":
        print(json.dumps([{
            "name": r.name, "passed": r.passed,
            "detail": r.detail, "elapsed": round(r.elapsed, 2),
        } for r in results]))
    else:
        for r in results:
            print(r.line())
    return 0 if all(r.passed for r in results) else 1


def _cmd_classify(args, store) -> int:
    vec = CoefficientVector(tuple(args.coefficients), args.k)
    tag = classify_type(vec, args.p)
    if args.format == "json":
        print(json.dumps({"p": args.p, "k": args.k,
                          "coefficients": list(vec.entries), "type": tag}))
    else:
        print(tag)
    return 0


def _cmd_orbit(args, store) -> int:
    vec = CoefficientVector(tuple(args.coefficients), args.k)
    record = orbit_record(vec, args.p)
    if args.format == "json":
        print(json.dumps(record))
    else:
        w = record["witness"]
        print(f"normal form at p={args.p}: exponents {record['exponents']}, "
              f"unit residues {record['unit_residues']} "
              f"(mod {args.p}^{record['certificate_exponent']}), "
              f"classes {record['class_ids']}")
        print(f"reduced entries (source order): "
              f"{record['reduced_entries']}")
        print(f"group element: scalar exponent {w['scalar_exponent']}, "
              f"power shifts {w['power_shifts']}, permutation "
              f"{w['permutation']}")
    return 0


def _load_cache(args):
    path = args.cache_dir or os.environ.get("LOCSOL_CACHE_DIR")
    if not path:
        return None
    store = None
    try:
        store = cache_mod.CacheStore(path)
        solubility.load_verdicts(cache_mod.load_verdicts(store))
    except (LocsolError, OSError) as exc:
        print(f"warning: ignoring unusable cache: {exc}", file=sys.stderr)
    return store


def _save_cache(store) -> None:
    if store is not None:
        try:
            cache_mod.save_verdicts(store, solubility.dump_verdicts())
        except OSError as exc:
            print(f"warning: ignoring unusable cache: {exc}", file=sys.stderr)


_HANDLERS = {
    "decide": _cmd_decide,
    "rho": _cmd_rho,
    "survey": _cmd_survey,
    "verify-paper": _cmd_verify,
    "classify": _cmd_classify,
    "orbit": _cmd_orbit,
}


def main(argv=None) -> int:
    # interval endpoints are exact rationals with tens of thousands of
    # digits; lift the int-to-str guard so they can be serialized
    sys.set_int_max_str_digits(0)
    parser = _build_parser()
    args = parser.parse_args(argv)
    store = _load_cache(args)
    try:
        code = _HANDLERS[args.command](args, store)
    except LocsolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except BrokenPipeError:
        return 0
    _save_cache(store)
    return code


if __name__ == "__main__":
    sys.exit(main())
