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
import io
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
from .survey import check_sweep, convergence_sweep, write_csv
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

    p_classify = sub.add_parser(
        "classify", help="pattern tag (I/II/III) of a vector at p")
    p_classify.add_argument("-k", type=int, required=True)
    p_classify.add_argument("-p", type=int, required=True)
    p_classify.add_argument("coefficients", type=int, nargs="+")

    p_orbit = sub.add_parser(
        "orbit", help="normal form of a vector at p with the group "
                      "element that achieves it")
    p_orbit.add_argument("-k", type=int, required=True)
    p_orbit.add_argument("-p", type=int, required=True)
    p_orbit.add_argument("coefficients", type=int, nargs="+")
    # after each command's own options, where its help lists it; survey
    # declares its own, since it also takes csv
    for p_cmd in (p_decide, p_rho, p_verify, p_classify, p_orbit):
        p_cmd.add_argument("--format", default="text",
                           choices=("text", "json"))
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


def _verdict_lines(v) -> list[str]:
    lines = [f"place {v.place}: {v.status}"]
    if v.witness is not None and v.place != "real":
        lines.append(f"  witness mod p^{v.certificate_level}: "
                     f"{list(v.witness)} on reduced form "
                     f"{list(v.witness_form)}")
    return lines


# Each handler returns (exit code, JSON record, text lines) and prints
# nothing; main prints the one that --format asks for.

def _cmd_decide(args):
    vec = CoefficientVector(tuple(args.coefficients), args.k)
    if args.real or args.p is not None:
        verdict = decide_real(vec) if args.real else decide_qp(
            vec, args.p, with_witness=not args.no_witness)
        return (0 if verdict.is_soluble else 1, _verdict_record(verdict),
                _verdict_lines(verdict))
    report = decide_everywhere_local(vec)
    record = {
        "coefficients": list(report.coefficients), "k": report.k,
        "overall": report.overall,
        "tested_primes": list(report.tested_primes), "note": report.note,
        "verdicts": [_verdict_record(v) for v in report.verdicts]}
    lines = [line for v in report.verdicts for line in _verdict_lines(v)]
    lines.append(f"overall: {'soluble' if report.overall else 'insoluble'} "
                 f"({report.note})")
    return 0 if report.overall else 1, record, lines


def _cmd_rho(args):
    if args.loc:
        interval = rho_loc_interval(args.n, args.k, args.cutoff)
        dec_lo, dec_hi = decimalize(interval, args.digits)
        return 0, interval.to_record(args.digits), [
            f"rho_loc({args.n}, {args.k}) in [{dec_lo}, {dec_hi}]  (cutoff "
            f"{interval.cutoff}; exact rational bounds in --format json)",
            f"finite-prime part in "
            f"[{_decimal(interval.finite_lo, args.digits, False)}, "
            f"{_decimal(interval.finite_hi, args.digits, True)}] "
            f"before the real factor {interval.real_factor.numerator}/"
            f"{interval.real_factor.denominator}"]
    dens = (rho_infinity(args.n, args.k) if args.infinity
            else rho_p(args.n, args.k, args.p))
    v = dens.value
    return 0, dens.to_record(), [
        f"rho(n={dens.n}, k={dens.k}, place={dens.place}) = "
        f"{v.numerator}/{v.denominator}  [{dens.route}]"]


def _usage_error(message: str):
    print(f"error: {message}", file=sys.stderr)
    return USAGE_EXIT, None, []


def _cannot_write(path: str, reason: str):
    return _usage_error(f"cannot write {path}: {reason}")


def _cmd_survey(args):
    # refuse conflicting output options, a directory, or a path in a
    # missing one, before any work; the file itself is opened only after
    # the survey, so a failed survey truncates nothing
    if args.csv == "-" and args.format == "json":
        return _usage_error("--csv - writes CSV to stdout; it cannot be "
                            "combined with --format json")
    if args.csv and args.csv != "-":
        if os.path.isdir(args.csv):
            return _cannot_write(args.csv, os.strerror(errno.EISDIR))
        if not os.path.isdir(os.path.dirname(args.csv) or "."):
            return _cannot_write(args.csv, os.strerror(errno.ENOENT))
    heights = [args.box] + (args.sweep or [])
    options = dict(mode=args.mode, sample_count=args.samples,
                   seed=args.seed, jobs=args.jobs)
    # a request the survey would refuse is refused before the interval
    check_sweep(args.n, args.k, heights, **options)
    reference = (rho_loc_interval(args.n, args.k, args.cutoff)
                 if args.reference else None)
    reports = convergence_sweep(args.n, args.k, heights, **options)
    if args.csv and args.csv != "-":
        try:
            with open(args.csv, "w", newline="", encoding="utf-8") as fh:
                write_csv(reports, fh, reference)
        except OSError as exc:
            return _cannot_write(args.csv, exc.strerror)
    if args.csv == "-" or args.format == "csv":
        rows = io.StringIO()
        write_csv(reports, rows, reference)
        # no record: the rows are the output; each ends in \r\n, and
        # print puts back the \n that the split takes off
        return 0, None, rows.getvalue().split("\n")[:-1]
    ref = {"ref_lo": None, "ref_hi": None}
    vs = ""
    if reference is not None:
        ref = {"ref_lo": {"num": reference.lo.numerator,
                          "den": reference.lo.denominator},
               "ref_hi": {"num": reference.hi.numerator,
                          "den": reference.hi.denominator}}
        vs = (f"  vs certified [{_decimal(reference.lo, 6, False)}, "
              f"{_decimal(reference.hi, 6, True)}]")
    record = [{
        "n": r.n, "k": r.k, "H": r.height, "mode": r.mode,
        "seed": r.seed, "total": r.total, "soluble": r.soluble,
        "proportion": {"num": r.proportion.numerator,
                       "den": r.proportion.denominator}, **ref}
        for r in reports]
    return 0, record, [f"H={r.height} ({r.mode}): {r.soluble}/{r.total} "
                       f"soluble = {float(r.proportion):.6f}{vs}"
                       for r in reports]


def _cmd_verify(store):
    results = run_suite(cache_store=store)
    return (0 if all(r.passed for r in results) else 1,
            [{"name": r.name, "passed": r.passed, "detail": r.detail,
              "elapsed": round(r.elapsed, 2)} for r in results],
            [r.line() for r in results])


def _cmd_classify(args):
    vec = CoefficientVector(tuple(args.coefficients), args.k)
    tag = classify_type(vec, args.p)
    return 0, {"p": args.p, "k": args.k, "coefficients": list(vec.entries),
               "type": tag}, [tag]


def _cmd_orbit(args):
    vec = CoefficientVector(tuple(args.coefficients), args.k)
    record = orbit_record(vec, args.p)
    w = record["witness"]
    return 0, record, [
        f"normal form at p={args.p}: exponents {record['exponents']}, "
        f"unit residues {record['unit_residues']} "
        f"(mod {args.p}^{record['certificate_exponent']}), "
        f"classes {record['class_ids']}",
        f"reduced entries (source order): {record['reduced_entries']}",
        f"group element: scalar exponent {w['scalar_exponent']}, "
        f"power shifts {w['power_shifts']}, permutation "
        f"{w['permutation']}"]


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
        if args.command == "verify-paper":  # the one reader of the store
            code, record, lines = _cmd_verify(store)
        else:
            code, record, lines = _HANDLERS[args.command](args)
        if args.format == "json" and record is not None:
            lines = [json.dumps(record)]
        for line in lines:
            print(line)
    except LocsolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except BrokenPipeError:
        return 0
    _save_cache(store)
    return code
