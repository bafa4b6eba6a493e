"""Command-line front end.

One binary with subcommands::

    cscglue hj 5/7
    cscglue mass 2/3 --u 1,1
    cscglue blowup-insert 1/3 --position 1 --u 1,2
    cscglue stability fixtures/sphere_four_points.json
    cscglue pipeline fixtures/sphere_four_points.json
    cscglue metric-verify 1/3 --samples 200 --seed 7 --csv decay.csv

Surfaces are described by JSON documents (see :func:`parse_surface`).
Every typed number, on the command line or in a document, is read from
its text by :func:`to_fraction`, so "3/2", "1.5" and "15e-1" are all 3/2
exactly and no number passes through floating point.

:func:`main` is the one writer of standard output.  Each ``cmd_*``
handler returns its exit code, its payload (a dict) and a callable that
yields the human report's lines.  Under ``--json``, which every
subcommand accepts, ``main`` prints the payload with a ``version`` key;
otherwise it prints the human lines one at a time and never joins them.

Exit codes: 0 success (pipeline: feasible), 2 malformed input,
3 infeasible or obstructed, 4 not applicable; metric-verify exits 1 if
any tolerance fails.  The parsers here only turn text into values; the
library decides which values are valid (only :func:`check_hj_size` and
:func:`check_lcm_size`, bounds on output size, are the CLI's own).  Every
refusal exits 2 through one handler in :func:`main`, which prints one
``error:`` line for a ``ValueError`` of a parser or of the library, or for
the ``ModuleNotFoundError`` of a metric check without numpy; a line break
the message quotes from the input is escaped as ``\\n``.  A command whose
standard output is closed early (``cscglue pipeline doc.json --json |
head``) exits 141, the status a shell reports for a process ended by
SIGPIPE.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import re
import sys
from fractions import Fraction
from math import lcm

from cscglue import __version__
from cscglue.cfrac import hj_expand, hj_length
from cscglue.gluing import GluingVerdict, existence_report
from cscglue.logmass import (
    INFINITY,
    blowup_insert,
    log_coeffs_from_levels,
    mass_sign,
    monopole_from_fraction,
    mu_from_chain,
    mu_from_u,
)
from cscglue.parabolic import (MAX_QUOTED, ParabolicSurface, SectionData, classify, digit_count,
                               is_sporadic, quoted)
from cscglue.resolution import blowup_count, chain_from_strings, format_chain, singular_strings
# Loads numpy only when a check runs.  `bench/run.py --trace 1` reads this
# import's line in `-X importtime`, so it stays at module level.
from cscglue.metricnum import (check_float_range, decay_series, default_levels, fit_series,
                               verify_metric)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_NOT_APPLICABLE = 4
EXIT_BROKEN_PIPE = 141

# Input bounds.  Fraction('1e-4000000') builds 10**4000000 before anything
# can look at it, so decimal exponents, and the numerators and denominators
# that get printed back, stop at CPython's own limit on the digits of
# int('...').  A weight p/q expands into HJ digits of q/p and of q/(q-p),
# whose counts grow like q for 1/q.
MAX_DIGITS = 4300
_DIGIT_BOUND = 10 ** MAX_DIGITS
MAX_HJ_DIGITS = 100_000
_EXPONENT = re.compile(r"[eE][+-]?([0-9_]+)\s*\Z")
# JSON numbers stay text for to_fraction; json.load(fh, parse_float=str) rebuilds this per call.
_DECODER = json.JSONDecoder(parse_float=str)

VERDICT_EXIT = {
    GluingVerdict.FEASIBLE: EXIT_OK,
    GluingVerdict.FEASIBLE_EQUIVARIANT: EXIT_OK,
    GluingVerdict.INFEASIBLE: EXIT_INFEASIBLE,
    GluingVerdict.OBSTRUCTED: EXIT_INFEASIBLE,
    GluingVerdict.NOT_APPLICABLE: EXIT_NOT_APPLICABLE,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # Look the handler up at call time, so a rebound cmd_* takes effect.
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        code, payload, human = handler(args)
        if args.json:
            print(json.dumps({"version": __version__, **payload}, indent=2))
        else:
            for line in human():
                print(line)
        sys.stdout.flush()
        return code
    except (ValueError, ModuleNotFoundError) as exc:
        # One line, even where the message quotes input text with a line break.
        print("error: " + str(exc).replace("\n", "\\n"), file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull so the flush at
        # interpreter exit cannot raise again (recipe from the Python
        # documentation of SIGPIPE).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cscglue",
        description="Hirzebruch-Jung combinatorics, ALE masses, parabolic "
        "stability and gluing feasibility for blown-up ruled surfaces.",
    )
    parser.add_argument("--version", action="version", version=f"cscglue {__version__}")
    sub = parser.add_subparsers(required=True)

    p_hj = sub.add_parser("hj", help="continued fraction, chain and blow-up data of a weight")
    p_hj.add_argument("fraction", help='weight "p/q" in (0,1)')

    p_mass = sub.add_parser("mass", help="exact log coefficient and mass sign")
    p_mass.add_argument("fraction", help='"p/q" with 0 < p < q, or "1/1" for the plane blow-up')
    p_mass.add_argument("--u", help="comma-separated positive rationals u_1..u_k")
    p_mass.add_argument("--levels", help="comma-separated decreasing levels ending in 0 (first may be inf)")

    p_ins = sub.add_parser("blowup-insert", help="insert a blow-up interval into a chain")
    p_ins.add_argument("fraction", help='"p/q" base data')
    p_ins.add_argument("--position", type=int, required=True, help="endpoint index y_j, 1 <= j <= k")
    p_ins.add_argument("--u", help="u parameters for the inserted chain (k+1 entries)")
    p_ins.add_argument("--levels", help="levels for the base chain before insertion")

    p_stab = sub.add_parser("stability", help="slope table and polystability verdict")
    p_stab.add_argument("document", help="surface document (JSON)")

    p_pipe = sub.add_parser("pipeline", help="full existence pipeline for a surface document")
    p_pipe.add_argument("document", help="surface document (JSON)")

    p_ver = sub.add_parser("metric-verify", help="numerical verification battery for (p, q)")
    p_ver.add_argument("fraction", help='"p/q" with 0 < p < q')
    p_ver.add_argument("--levels", help="comma-separated decreasing levels ending in 0")
    p_ver.add_argument("--samples", type=int, default=200)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--csv", help="write the (r, residual) decay series here")
    p_ver.add_argument("--fit-csv", help="write the (r, coeff_a, coeff_b) series here")
    # Added last, so that each subcommand's help lists it after its own options.
    for name, command in sub.choices.items():
        command.add_argument("--json", action="store_true")
        command.set_defaults(command=name)
    return parser


# Built on the first call to main, not at import, and reused after it.
_parser = functools.cache(build_parser)


# ---------------------------------------------------------------------------
# parsing helpers


def to_fraction(text) -> Fraction:
    """``Fraction(str(text))`` with at most MAX_DIGITS digits in each part.

    Raises
    ------
    ValueError
        If the decimal exponent is above MAX_DIGITS in magnitude, the
        numerator or denominator has more digits, the denominator is zero,
        or the text is not a rational.
    """
    text = str(text)
    exponent = _EXPONENT.search(text)
    if exponent:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_DIGITS)) or int(digits or 0) > MAX_DIGITS:
            raise ValueError(f"decimal exponent beyond {MAX_DIGITS} in magnitude")
    try:
        frac = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    if max(abs(frac.numerator), frac.denominator) >= _DIGIT_BOUND:
        raise ValueError(f"more than {MAX_DIGITS} digits")
    return frac


def check_hj_size(weight: Fraction) -> None:
    """Refuse a weight whose HJ digits and dual digits exceed MAX_HJ_DIGITS.

    A weight of more than MAX_QUOTED characters is named by its size."""
    size = blowup_count(weight)
    if size > MAX_HJ_DIGITS:
        text, count = quoted(weight, size) or (f"with {digit_count(weight.denominator)} denominator",
                                               f"{digit_count(size)} number of")
        raise ValueError(f"weight {text} expands to {count} HJ digits with its dual, "
                         f"more than the {MAX_HJ_DIGITS} supported")


def check_lcm_size(weights) -> None:
    """Refuse weights whose denominators' lcm, the denominator of every
    slope and of chi_orb, has more than MAX_DIGITS digits."""
    if lcm(*(w.denominator for w in weights)) >= _DIGIT_BOUND:
        raise ValueError(f"the weight denominators have an lcm of more than {MAX_DIGITS} digits, "
                         "the most a slope or chi_orb may print")


def parse_fraction(text: str) -> tuple[int, int]:
    """The lowest terms (p, q), q > 0, of a rational; the library checks its range."""
    try:
        frac = to_fraction(text)
    except ValueError as exc:
        raise ValueError(f"cannot parse fraction {text!r}: {exc}") from None
    return frac.numerator, frac.denominator


def parse_rational_list(text: str):
    out = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if item in ("inf", "infinity"):
            out.append(INFINITY)
            continue
        try:
            out.append(to_fraction(item))
        except ValueError as exc:
            raise ValueError(f"cannot parse rational {item!r}: {exc}") from None
    if not out:
        raise ValueError("empty rational list")
    return out


def _coord_part(text: str):
    """An integer literal through ``int()``, any other rational through
    :func:`to_fraction`; both refuse more than MAX_DIGITS digits."""
    try:
        n = int(text)
    except ValueError:
        return to_fraction(text)
    # Checked here too, since int() has no digit limit when
    # sys.set_int_max_str_digits(0) is in force.
    if abs(n) >= _DIGIT_BOUND:
        raise ValueError(f"more than {MAX_DIGITS} digits")
    return n


def parse_coord(text: str) -> tuple[int, int]:
    """The integer pair [un vd : vn ud] of a fiber coordinate "un/ud:vn/vd".

    The pair is not reduced: parabolic.normalize_coord does that, and
    refuses [0 : 0], where the point is used.
    """
    parts = str(text).split(":")
    if len(parts) != 2:
        raise ValueError(f"fiber coordinate must look like 'a:b', got {text!r}")
    try:
        u, v = _coord_part(parts[0]), _coord_part(parts[1])
    except ValueError as exc:
        raise ValueError(f"cannot parse coordinate {text!r}: {exc}") from None
    return (u.numerator * v.denominator, v.numerator * u.denominator)


def parse_surface(doc: dict) -> tuple[ParabolicSurface, tuple]:
    """Build a surface and its extra points from a JSON document.

    Only text is read here; ParabolicSurface checks the values.  A refusal
    from inside the document is prefixed ``bad surface document: ``.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"surface document must be a JSON object, got {type(doc).__name__}")
    try:
        model = doc.get("model", "trivial-p1")
        points = tuple(str(p) for p in _array(doc, "points"))
        weights = tuple(to_fraction(w) for w in _array(doc, "weights"))
        raw_inc = _array(doc, "incidence")
        if model == "trivial-p1":
            incidence = tuple(parse_coord(i) for i in raw_inc)
        else:
            incidence = tuple(str(i) for i in raw_inc)
        sections = []
        for i, s in enumerate(_array(doc, "sections")):
            if not isinstance(s, dict):
                raise ValueError(f"sections[{i}] must be a JSON object, got {type(s).__name__}")
            if "id" not in s:
                raise ValueError(f'sections[{i}] has no "id"')
            where = f"sections[{i}]."
            sections.append(SectionData(
                id=str(s["id"]),
                self_intersection=s.get("self_intersection", 0),
                contains=frozenset(str(x) for x in _array(s, "contains", where)),
                disjoint_from=frozenset(str(x) for x in _array(s, "disjoint_from", where)),
            ))
        extra = tuple(parse_coord(c) for c in _array(doc, "extra_points"))
        surface = ParabolicSurface(
            genus=doc.get("genus", 0),
            points=points,
            weights=weights,
            incidence=incidence,
            model=model,
            sections=tuple(sections),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise ValueError(f"bad surface document: {exc}") from None
    return surface, extra


def _array(doc: dict, key: str, where: str = "") -> list:
    """``doc[key]``, which must be a JSON array if present; [] if absent."""
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise ValueError(f"{where}{key} must be a JSON array, got {type(value).__name__}")
    return value


def load_document(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
        if text.startswith("\ufeff"):  # refused as json.load refuses it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # too many digits in an integer, or too deep
        raise ValueError(f"{path}: {exc}") from None


def write_csv(path: str, header, rows) -> None:
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_hj(args):
    p, q = parse_fraction(args.fraction)
    weight = Fraction(p, q)
    check_hj_size(weight)
    # One expansion of q/p and one build of the strings; the rest is resolution's.
    exp, (left, right) = hj_expand(p, q), singular_strings(weight)
    chain = chain_from_strings(left, right)
    payload = {
        "fraction": f"{p}/{q}",
        "digits": list(exp.digits),
        "dual_digits": [-e for e in right],
        "approximants": [list(mn) for mn in exp.approximants],
        "fiber_chain": format_chain(chain),
        "dual_fiber_chain": format_chain(chain[::-1]),
        "singular_strings": [format_chain(left), format_chain(right)],
        "blowup_count": len(left) + len(right),
    }

    def human():
        yield f"weight {p}/{q}"
        yield f"  digits of {q}/{p}:        {' '.join(map(str, exp.digits))}"
        yield f"  digits of {q}/{q - p}:        {' '.join(map(str, payload['dual_digits']))}"
        yield f"  approximants (m, n):  {' '.join(str(t) for t in exp.approximants)}"
        yield f"  fiber chain:          {payload['fiber_chain']}"
        yield f"  dual fiber chain:     {payload['dual_fiber_chain']}"
        yield f"  singular strings:     {payload['singular_strings'][0]}  |  {payload['singular_strings'][1]}"
        yield f"  blow-ups over fiber:  {payload['blowup_count']}"

    return EXIT_OK, payload, human


def _coeffs_payload(coeffs) -> dict:
    """The exact coefficients and mu's float; both output forms print from it."""
    check_float_range(coeffs)
    return {
        "a": str(coeffs.a),
        "b": str(coeffs.b),
        "mu": str(coeffs.mu),
        "mu_decimal": float(coeffs.mu),
        "per_term": [
            {"coefficient": str(c), "u": str(u)} for c, u in coeffs.per_term
        ],
    }


def _coeffs_lines(payload):
    """The mu line and one line per term, read off :func:`_coeffs_payload`."""
    yield f"  mu = {payload['mu']}  ({payload['mu_decimal']:.6g})"
    for i, term in enumerate(payload["per_term"], start=1):
        yield f"  term {i}: coefficient {term['coefficient']}, u = {term['u']}"


def cmd_mass(args):
    p, q = parse_fraction(args.fraction)
    if (p, q) != (1, 1):
        check_hj_size(Fraction(p, q))
    if bool(args.u) == bool(args.levels):
        raise ValueError("pass exactly one of --u or --levels")
    if args.u:
        coeffs = mu_from_u(p, q, parse_rational_list(args.u))
    else:
        levels = parse_rational_list(args.levels)
        coeffs = log_coeffs_from_levels(monopole_from_fraction(p, q, levels))
    sign = mass_sign(p, q)
    payload = {
        "fraction": f"{p}/{q}",
        **_coeffs_payload(coeffs),
        "sign": {1: "positive", 0: "zero", -1: "negative"}[sign],
        "crepant": sign == 0,
    }

    def human():
        yield f"fraction {p}/{q}"
        yield f"  a  = {coeffs.a}  ({float(coeffs.a):.6g})"
        yield f"  b  = {coeffs.b}  ({float(coeffs.b):.6g})"
        yield from _coeffs_lines(payload)
        yield f"  sign: {payload['sign']}   crepant: {'yes' if sign == 0 else 'no'}"

    return EXIT_OK, payload, human


def cmd_blowup_insert(args):
    p, q = parse_fraction(args.fraction)
    check_hj_size(Fraction(p, q))
    k = hj_length(p, q)
    levels = parse_rational_list(args.levels) if args.levels else default_levels(k)
    inserted = blowup_insert(monopole_from_fraction(p, q, levels), args.position)
    if args.u:
        coeffs = mu_from_chain(inserted.chain, parse_rational_list(args.u))
    else:
        coeffs = log_coeffs_from_levels(inserted)
    payload = {
        "fraction": f"{p}/{q}",
        "position": args.position,
        "chain": [list(mn) for mn in inserted.chain],
        "levels": [str(y) for y in inserted.levels],
        "pairs": [list(ab) for ab in inserted.pairs],
        **_coeffs_payload(coeffs),
    }

    def human():
        yield f"insert at endpoint y_{args.position} of the {p}/{q} chain"
        yield f"  chain (m, n): {' '.join(str(t) for t in inserted.chain)}"
        yield f"  levels:       {' > '.join(payload['levels'])}"
        yield from _coeffs_lines(payload)

    return EXIT_OK, payload, human


def cmd_stability(args):
    surface, _ = parse_surface(load_document(args.document))
    check_lcm_size(surface.weights)
    verdict = classify(surface)
    payload = {
        "verdict": verdict.kind.value,
        "min_slope": str(verdict.min_slope),
        "relative_to_supplied_sections": verdict.relative_to_supplied,
        "sporadic": is_sporadic(surface, verdict),
        "slopes": [
            {"section": c.id, "slope": str(c.slope), "contains": sorted(
                surface.points[j] for j in c.contains)}
            for c in verdict.table
        ],
        "witness_pair": [c.id for c in verdict.pair] if verdict.pair else None,
    }

    def human():
        yield f"verdict: {verdict.kind.value}" + (
            " (relative to supplied sections)" if verdict.relative_to_supplied else "")
        yield f"minimum slope: {verdict.min_slope}"
        if verdict.pair:
            yield f"slope-zero disjoint pair: {verdict.pair[0].id}, {verdict.pair[1].id}"
        yield f"sporadic: {'yes' if payload['sporadic'] else 'no'}"
        yield "slopes:"
        for row in payload["slopes"]:
            pts = ", ".join(row["contains"]) or "-"
            yield f"  {row['section']:<22} slope {row['slope']:<8} through {pts}"

    return EXIT_OK, payload, human


def cmd_pipeline(args):
    surface, extra = parse_surface(load_document(args.document))
    check_lcm_size(surface.weights)
    for w in surface.weights:
        check_hj_size(w)
    report = existence_report(surface, extra)
    payload = {
        "verdict": report.verdict.value,
        "stability": report.stability.kind.value,
        "sporadic": report.sporadic,
        "good_orbifold": report.good,
        "chi_orb": str(report.chi_orb),
        "sfk_possible": report.sfk_possible,
        "orbifold_orders": list(report.orbifold.orders),
        "case": report.case.value if report.case else None,
        "dim_v0": report.case.dim_v0 if report.case else None,
        "blowup_total": report.blowup_total,
        "description": report.description,
        "special_configuration_required": report.special_configuration_required,
        "notes": list(report.notes),
        "resolution_strings": [
            {"point": pt, "strings": [format_chain(a), format_chain(b)]}
            for pt, (a, b) in report.resolution_strings
        ],
    }
    if report.gluing is not None:
        payload["gluing"] = {
            "matrix": [[str(x) for x in row] for row in report.gluing.rows],
            "columns": list(report.gluing.col_labels),
            "c1": report.gluing.c1,
            "c2": report.gluing.c2,
            "positive_kernel": report.gluing.positive_kernel,
            "kernel_witness": [str(x) for x in report.gluing.kernel_witness]
            if report.gluing.kernel_witness
            else None,
        }

    def human():
        yield f"verdict: {report.verdict.value}"
        yield f"stability: {report.stability.kind.value}" + (" (sporadic)" if report.sporadic else "")
        yield (f"orbifold: genus {report.orbifold.genus}, orders {payload['orbifold_orders']},"
               f" good: {'yes' if report.good else 'no'}")
        yield f"chi_orb = {report.chi_orb}; SFK possible: {'yes' if report.sfk_possible else 'no'}"
        if report.case:
            yield f"case: {report.case.value} (dim V0 = {report.case.dim_v0})"
        yield f"blow-ups: {report.blowup_total}; resulting surface: {report.description}"
        for entry in payload["resolution_strings"]:
            yield f"  {entry['point']}: strings {entry['strings'][0]}  |  {entry['strings'][1]}"
        if report.gluing is not None and report.gluing.ncols:
            table = payload["gluing"]
            yield f"gluing matrix: [{', '.join(table['matrix'][0]) if table['matrix'] else ''}]"
            yield f"  columns: {', '.join(table['columns'])}"
            yield (f"  c1 = {table['c1']}, c2 = {table['c2']},"
                   f" positive kernel: {'yes' if table['positive_kernel'] else 'no'}")
            if table["kernel_witness"]:
                yield f"  witness: ({', '.join(table['kernel_witness'])})"
        for note in report.notes:
            yield f"note: {note}"

    return VERDICT_EXIT[report.verdict], payload, human


def cmd_metric_verify(args):
    p, q = parse_fraction(args.fraction)
    levels = parse_rational_list(args.levels) if args.levels else None
    report = verify_metric(p, q, levels=levels, samples=args.samples, seed=args.seed)
    if args.csv:
        write_csv(args.csv, ["r", "residual"], decay_series(report))
    if args.fit_csv:
        write_csv(args.fit_csv, ["r", "coeff_a", "coeff_b"], fit_series(report))
    payload = {
        "fraction": f"{p}/{q}",
        "levels": [str(y) for y in report.levels],
        "seed": report.seed,
        "samples": report.samples,
        "exact": {"a": str(report.exact.a), "b": str(report.exact.b), "mu": str(report.exact.mu)},
        "checks": [c._asdict() for c in report.checks],
        "passed": report.passed,
    }

    def human():
        yield (f"metric verification for {p}/{q}   (version {__version__}, seed {report.seed},"
               f" samples {report.samples})")
        yield f"levels: {' > '.join(payload['levels'])}"
        yield f"exact a = {report.exact.a}, b = {report.exact.b}, mu = {report.exact.mu}"
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            detail = f"   [{c.detail}]" if c.detail else ""
            yield f"  {status}  {c.name:<24} value {c.value:.3e}  tolerance {c.tolerance:.3e}{detail}"
        yield "all checks passed" if report.passed else "SOME CHECKS FAILED"

    return (EXIT_OK if report.passed else 1), payload, human


if __name__ == "__main__":
    sys.exit(main())
