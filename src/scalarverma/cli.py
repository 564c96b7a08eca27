"""Command line interface.

Subcommands: classify (one scalar parameter), scan (sweep a c-window on a
fixed lattice), table (the four exceptional-case reference tables),
crosscheck (oracle vs. closed-form sets and the first-reduction screen),
datum-dump (the full root datum as JSON).

scan and crosscheck decide their grid root by root, through
jantzen.ScalarGrid, in blocks whose rows are written before the next block
is decided; classify decides its one point by classify_scalar.  Each block
is built as columns: the closed form and the (A, B, C) screen are
progressions in m on the grid (ehw.closed_form_grid, ehw.screen_grid) that
fill their columns by slices, and the c and z strings are built once per
residue class of m modulo the step's denominator.  A grid's points are
counted before `_grids` builds any datum, and its support terms before any
point is decided: past MAX_GRID_POINTS or MAX_SUPPORT_TERMS the command
exits 1.  crosscheck without --window takes each case's default window
from abc_constants, which builds the case's datum; every such window holds
-5..10, so a family too large for that is refused before any datum is built.

Exit codes: 0 success, 1 usage error, 2 computational disagreement,
3 internal invariant violation.  All output is deterministic: fixed
orderings, exact rationals, no timestamps.  JSON is written by _dumps, in
the bytes of json.dumps(..., indent=2).  A weight reaches _dumps as the
tuple of its coordinates' format_rational strings, which _dumps writes as a
JSON array in one join; a list is written item by item.  Every root that
any command writes as a root (datum-dump's root fields, classify's support
terms, class members and witness) gets those strings from _root_texts:
from the datum's record of doubled integer vectors (`datum.doubled`),
through a table with one string per distinct doubled coordinate.  A datum
without that record, such as one made by dataclasses.replace, is an
invariant violation for every such writer (exit 3).  Other weights get
their strings from _w, one Fraction formatted per coordinate.  Integer
flags take ASCII digits with an optional sign only, as rationals do.

The argparse parser is built once per process, on the first main() call,
and reused by every later call; building it costs more than deciding a
typical point.  When argv names a command, main() parses the rest with that
command's own parser, as the top parser's subparsers action would after
scanning the whole argv itself, and leftovers get the top parser's
"unrecognized arguments" error; any other argv goes through the top
parser.  Usage errors and help keep their bytes.

classify writes its JSON from fragments, as scan writes its rows: each
nilradical root's array, from its _root_texts strings at each indent it
appears at, and the case's own fields are written by _dumps once per case,
and a request writes only its representatives, levels and the text around
the fragments.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii

from .ehw import (
    INDETERMINATE,
    KNOWN_REDUCIBLE,
    KNOWN_SIMPLE,
    abc_constants,
    closed_form_grid,
    line_offset,
    screen_grid,
)
from .errors import InvariantError
from .jantzen import REDUCIBLE, ScalarGrid, classify_scalar
from .ratvec import Weight, add, format_rational, inner, parse_rational, reflect, scale
from .rootdata import CASE_TAGS, HermitianCase, build_datum, case_notes, scalar_parameter_weight

# A scan window, or all the windows of one crosscheck together, hold at
# most this many grid points; the largest benchmark grid, finegrid, has 3,601.
MAX_GRID_POINTS = 100_000
# ... and at most this many support terms, counted before any is decided.
MAX_SUPPORT_TERMS = 1_000_000
# A block of grid points, decided at once, holds at most GRID_BLOCK points
# and, unless it is one point, BLOCK_TERMS support terms.  Its rows are
# written before the next block is decided, so memory stays flat however
# long the window and however full the support.
GRID_BLOCK = 4096
BLOCK_TERMS = 4096


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1.

    Flags must be spelled in full: a prefix such as --st for --step is
    an unknown flag, so a flag added later never changes what one means.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_args(_build_parser(), _glue_values(list(argv)))
    except SystemExit as exc:
        # argparse exits on usage errors (and on --help); keep the int
        # contract of main() by translating instead of leaking the exit
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """The console entry point: main() on sys.argv, as the process's exit status.

    A reader that closes the pipe early, as `| head` does, ends the run with
    exit status 1 and no traceback.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit; pointing it at devnull keeps
        # that flush from raising a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


# ---------------------------------------------------------------------------
# argument plumbing


def _glue_values(argv: list[str]) -> list[str]:
    # Join "--c -3/4" into "--c=-3/4" so values with a leading minus are
    # never mistaken for option strings.  A following "--flag" is never a
    # value: left apart, argparse reports the flag that lacks one.
    out: list[str] = []
    for tok in argv:
        negative = tok.startswith("-") and not tok.startswith("--")
        if negative and out and out[-1].startswith("--") and "=" not in out[-1]:
            out[-1] += f"={tok}"
        else:
            out.append(tok)
    return out


def _parse_args(parser: _Parser, argv: list[str]) -> argparse.Namespace:
    """parser.parse_args(argv), with a command's flags read by the command's own parser.

    The top parser would scan the whole argv before its subparsers action
    hands the rest to the command's parser, as this does; leftovers get the
    top parser's own "unrecognized arguments" error.  Any other argv (empty,
    or an option or an unknown name first) goes through the top parser.
    """
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


@cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="scalarverma", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def case_flags(p: _Parser) -> None:
        p.add_argument("--case", required=True, choices=CASE_TAGS, help="case tag")
        p.add_argument("--p", help="first AIII parameter")
        p.add_argument("--q", help="second AIII parameter")
        p.add_argument("--n", help="rank parameter for CI/BI/DI/DIII")

    p = sub.add_parser("classify", help="decide one scalar parameter")
    case_flags(p)
    p.add_argument("--c", required=True, help="scalar parameter, as p or p/q")
    p.add_argument("--format", choices=("json", "pretty"), default="pretty")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("scan", help="sweep a c-window on a fixed lattice")
    case_flags(p)
    p.add_argument("--window", required=True, help="c-window, as lo..hi")
    p.add_argument("--step", default="1/6", help="lattice step (default 1/6)")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("table", help="print one exceptional-case reference table")
    p.add_argument("--table", required=True, type=_integer, choices=(1, 2, 3, 4))
    p.add_argument("--a", help="line parameter for tables 3 and 4 (table 4 default -7)")
    p.add_argument("--format", choices=("pretty", "tsv", "json"), default="pretty")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser(
        "crosscheck", help="compare the oracle against the closed-form sets"
    )
    case_flags(p)
    p.add_argument("--window", help="c-window lo..hi (default: around the reduction range)")
    p.add_argument("--step", default="1/6", help="lattice step (default 1/6)")
    p.add_argument("--format", choices=("pretty", "json"), default="pretty")
    p.set_defaults(func=cmd_crosscheck)

    p = sub.add_parser("datum-dump", help="emit the full root datum as JSON")
    case_flags(p)
    p.set_defaults(func=cmd_datum_dump)

    # each command's own parser, by name, for _parse_args
    parser.commands = sub.choices
    return parser


def _integer(text: str) -> int:
    """text as an int, for ASCII digits with an optional sign and nothing else.

    int() alone also reads underscores and every Unicode digit.  The message
    is argparse's own for a type=int flag.
    """
    if not re.fullmatch(r"[+-]?[0-9]+", text.strip()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _cases(args, ranges: bool = False) -> list[HermitianCase]:
    """The cases named by --case, --p, --q and --n.

    With ranges (crosscheck), each parameter may also be a family lo..hi.
    Only HermitianCase decides which tag takes which parameter.  Cases are
    built in order, so a range past a bound fails at its first bad case
    instead of listing every value first.
    """
    values = dict.fromkeys(("p", "q", "n"), [None])
    for name in values:
        text = getattr(args, name)
        if text is None:
            continue
        ends = []
        for end in text.split("..", 1) if ranges else [text]:
            try:
                ends.append(_integer(end))
            except argparse.ArgumentTypeError:
                raise ValueError(f"--{name} must be an integer, got {end!r}") from None
        if ends[-1] < ends[0]:
            raise ValueError(f"empty --{name} range {text!r}")
        values[name] = range(ends[0], ends[-1] + 1)
    return [
        HermitianCase(args.case, p=p, q=q, n=n)
        for p in values["p"]
        for q in values["q"]
        for n in values["n"]
    ]


def _parse_window(text: str) -> tuple[Fraction, Fraction]:
    if ".." not in text:
        raise ValueError(f"window must be lo..hi, got {text!r}")
    lo_s, hi_s = text.split("..", 1)
    lo, hi = parse_rational(lo_s), parse_rational(hi_s)
    if hi < lo:
        raise ValueError(f"empty window {text!r}")
    return lo, hi


def _points(lo: Fraction, hi: Fraction, step: Fraction) -> range:
    """The m whose grid points m * step lie in the window lo..hi."""
    if step <= 0:
        raise ValueError("step must be positive")
    return range(math.ceil(lo / step), math.floor(hi / step) + 1)


def _grids(cases: list[HermitianCase], windows: list[tuple[Fraction, Fraction]], step: Fraction):
    """For each case and its window lo..hi, the m whose grid points m * step lie
    in it, with the case's `ScalarGrid`.

    The points of all the windows are counted together before any datum is
    built, and their support terms together before any point is decided.
    """
    grids = [_points(lo, hi, step) for lo, hi in windows]
    # stop - start, as len() overflows past sys.maxsize points
    points = sum(ms.stop - ms.start for ms in grids)
    if points > MAX_GRID_POINTS:
        raise ValueError(f"{points} grid points requested, over {MAX_GRID_POINTS}")
    lines = [ScalarGrid(build_datum(case), step) for case in cases]
    terms = sum(line.terms(ms) for line, ms in zip(lines, grids))
    if terms > MAX_SUPPORT_TERMS:
        raise ValueError(f"{terms} support terms requested, over {MAX_SUPPORT_TERMS}")
    return list(zip(grids, lines))


# ---------------------------------------------------------------------------
# serialization helpers


def _dumps(obj, indent: str = "") -> str:
    """The bytes of json.dumps(obj, indent=2) for the CLI's payload shapes.

    indent is the indentation of the line obj starts on.  Only str, int,
    bool, None, list, tuple and str-keyed dict are accepted; the standard
    encoder runs in pure Python whenever an indent is set, and this one is
    faster.  A tuple is a weight from _w or _root_texts: its items are
    format_rational strings (ASCII digits, "-" and "/"), written unescaped
    in one join, and any item that is not a str raises TypeError from the
    join.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if type(obj) is tuple:
        if not obj:
            return "[]"
        return f'[\n{inner}"' + f'",\n{inner}"'.join(obj) + f'"\n{indent}]'
    if isinstance(obj, list):
        return _array([_dumps(x, inner) for x in obj], indent)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            items.append(f"{encode_basestring_ascii(k)}: {_dumps(v, inner)}")
        sep = ",\n" + inner
        return f"{{\n{inner}{sep.join(items)}\n{indent}}}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _array(items: list[str], indent: str) -> str:
    """The JSON array of items, each JSON text written at indent + "  ", as _dumps writes a list."""
    if not items:
        return "[]"
    inner = indent + "  "
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"


def _object_template(fields: dict[str, str], indent: str) -> str:
    """The bytes _dumps writes for an object at indent, as a %-template.

    fields maps each key to its value's conversion: "%s" for JSON text,
    '"%s"' for a string that needs no escaping, "%d" for an int.
    """
    inner = indent + "  "
    return "{\n" + inner + (",\n" + inner).join(
        f"{_dumps(k)}: {v}" for k, v in fields.items()
    ) + "\n" + indent + "}"


def _w(w: Weight) -> tuple[str, ...]:
    """w's coordinates as format_rational strings (str of a Fraction), for _dumps."""
    return tuple(map(str, w))


def _root_texts(datum) -> dict[int, tuple[str, ...]]:
    """The coordinates of each root of datum as format_rational strings, by
    the id() of the root's tuple, for _dumps and _pretty.

    The strings come from the build's record of doubled vectors
    (`datum.doubled`), one per distinct doubled coordinate.  The record is
    aligned with simple_roots and nilradical_roots, and every other root
    field holds tuples of those two, so every root of the datum has an
    entry.  The ids name datum's tuples only while the caller holds datum.
    """
    if datum.doubled is None:
        raise InvariantError(f"{datum.case.label}: the datum holds no record of its doubled roots")
    simples, nilradical = datum.doubled
    halves = {x: format_rational(Fraction(x, 2)) for x in set().union(*simples, *nilradical)}
    texts = [tuple(map(halves.__getitem__, w)) for w in simples + nilradical]
    return dict(zip(map(id, datum.simple_roots + datum.nilradical_roots), texts))


def _case_json(case: HermitianCase) -> dict:
    fields = {"tag": case.tag, "p": case.p, "q": case.q, "n": case.n}
    return {k: v for k, v in fields.items() if v is not None}


# ---------------------------------------------------------------------------
# classify


# The indent each field's roots start on in classify's JSON: the witness is
# a member of the payload, s_lambda and singular items of its lists, a
# surviving class's members items of its member list, and a class member's
# beta a member of the member's object.
_ROOT_INDENTS = {"witness": "  ", "s_lambda": "    ", "surviving": " " * 8, "member": " " * 10}
# classify's payload, a class of its certificate, and a class member with
# its level, parity and word length
_CLASSIFY_JSON = _object_template(
    {
        "case": "%s", "label": "%s", "c": '"%s"', "z": '"%s"', "lambda0": "%s",
        "verdict": '"%s"', "route": '"%s"', "s_lambda_size": "%d", "s_lambda": "%s",
        "singular": "%s", "classes": "%s", "surviving_classes": "%s", "witness": "%s",
    },
    "",
)
_CLASS_JSON = _object_template({"rep": "%s", "net_sign": "%d", "members": "%s"}, "    ")
_MEMBER_JSON = _object_template(
    {"beta": "%s", "level": '"%s"', "parity": '"%s"', "steps": "%d"}, " " * 8
)


@cache
def _lambda0(case: HermitianCase) -> tuple[str, ...]:
    """The base point -<rho, gamma^v> * zeta of the case's c-line, for _dumps.

    z = c + <rho, gamma^v>, and c*zeta - z*zeta is this point for every c.
    """
    return _w(scale(-line_offset(case), build_datum(case).zeta))


@cache
def _classify_case(case: HermitianCase):
    """The parts of classify's JSON that depend on the case alone, each written once.

    Returns (datum, case, label, lambda0, roots), the last four as JSON
    text.  roots[field] maps the id() of each of datum's nilradical root
    tuples to the root's JSON array, written by _dumps from its
    _root_texts strings at the indent that field's roots start on.
    classify_scalar, given this datum, hands back those very tuples, so the
    lookup neither hashes nor formats a Fraction; holding the datum keeps
    the ids its roots'.
    """
    datum = build_datum(case)
    texts = _root_texts(datum)
    nilradical = [id(beta) for beta in datum.nilradical_roots]
    roots = {
        field: {key: _dumps(texts[key], indent) for key in nilradical}
        for field, indent in _ROOT_INDENTS.items()
    }
    return datum, _dumps(_case_json(case), "  "), _dumps(case.label), _dumps(_lambda0(case), "  "), roots


def _classify_json(case: HermitianCase, c: Fraction) -> str:
    """classify's JSON, the bytes of _dumps of its payload, written from fragments.

    The case's parts and every root are written once per case; a request
    writes its representatives, its levels and the arrays and objects
    around the fragments, as scan writes its rows.
    """
    datum, case_json, label, lambda0, roots = _classify_case(case)
    verdict = classify_scalar(datum, c)
    support, member, surviving = roots["s_lambda"], roots["member"], roots["surviving"]
    s_lambda = [support[id(t.beta)] for t in verdict.terms]
    singular = [f for t, f in zip(verdict.terms, s_lambda) if not t.chamber.is_regular]
    classes, survivors = [], []
    for g in verdict.certificate:
        rep = _dumps(_w(g.rep), " " * 6)
        members = [
            _MEMBER_JSON % (member[id(m.beta)], m.level, _parity(m), m.chamber.steps)
            for m in g.members
        ]
        classes.append(_CLASS_JSON % (rep, g.net_sign, _array(members, " " * 6)))
        if g.net_sign:
            members = [surviving[id(m.beta)] for m in g.members]
            survivors.append(_CLASS_JSON % (rep, g.net_sign, _array(members, " " * 6)))
    witness = verdict.witness
    return _CLASSIFY_JSON % (
        case_json,
        label,
        c,
        c + line_offset(case),
        lambda0,
        verdict.verdict,
        verdict.route,
        len(s_lambda),
        _array(s_lambda, "  "),
        _array(singular, "  "),
        _array(classes, "  "),
        _array(survivors, "  "),
        "null" if witness is None else roots["witness"][id(witness)],
    )


def _classify_pretty(case: HermitianCase, c: Fraction) -> str:
    datum = build_datum(case)
    texts = _root_texts(datum)
    verdict = classify_scalar(datum, c)
    terms = verdict.terms
    lines = [
        f"{case.label}  c = {format_rational(c)}  (z = {format_rational(c + line_offset(case))})",
        f"verdict: {verdict.verdict}   route: {verdict.route}",
        f"base point: {_pretty(_lambda0(case))}",
        f"support: {len(terms)} roots, "
        f"{sum(not t.chamber.is_regular for t in terms)} on walls",
    ]
    for g in verdict.certificate:
        betas = ", ".join(f"{_pretty(texts[id(m.beta)])} ({_parity(m)})" for m in g.members)
        lines.append(f"  class rep {_pretty(g.rep)}  net {g.net_sign:+d}: {betas}")
    if verdict.witness is not None:
        lines.append(f"witness: {_pretty(texts[id(verdict.witness)])}")
    return "\n".join(lines) + "\n"


def _parity(term) -> str:
    return "odd" if term.chamber.parity else "even"


def _pretty(w) -> str:
    """A weight, or its coordinates' strings, as [x, y, ...]."""
    return "[" + ", ".join(map(str, w)) + "]"


def cmd_classify(args) -> int:
    [case] = _cases(args)
    c = parse_rational(args.c)
    if args.format == "json":
        sys.stdout.write(_classify_json(case, c) + "\n")
    else:
        sys.stdout.write(_classify_pretty(case, c))
    return 0


# ---------------------------------------------------------------------------
# scan


# The fields of a scan row, in order.
ROW_FIELDS = ("case", "c", "z", "verdict", "route", "abc_screen", "closed_form", "agree")


def _grid_rows(case: HermitianCase, ms: range, line: ScalarGrid):
    """The rows of the grid points m * step, m in ms, as columns: one tuple per block.

    The columns are c, z, verdict, route, abc_screen, closed_form and agree,
    every field a string as the TSV writes it: c and z as format_rational
    renders them, closed_form and agree as "true" or "false".  The verdict
    and route come from the grid decision.  The closed form and the screen
    come from their own progressions in m (`ehw.closed_form_grid` and
    `ehw.screen_grid`), which fill their columns by slices, so agree compares
    the Jantzen verdict with an independent one: it is "false" exactly
    where the Reducible points and the closed-form points differ.

    c and z are written once per residue class of m modulo t, for step = s/t
    in lowest terms.  Along a class m rises by t, so c = m*s/t and z = c + B
    rise by the integer s.  Adding an integer to a fraction in lowest terms
    keeps its denominator d and keeps it in lowest terms (gcd(n + s*d, d) =
    gcd(n, d) = 1), so along the class the numerator of c rises by s*d and
    that of z by s*z_d, over fixed denominators d and z_d.
    """
    constants = abc_constants(case)
    # z = c + B, for B = constants.b the line offset <rho, gamma^v>
    bn, bd = constants.b.numerator, constants.b.denominator
    step = line.step
    s, t = step.numerator, step.denominator
    for block in _blocks(ms, line):
        size = len(block)
        verdicts, routes = zip(*line.decide(block))
        cs, zs = [""] * size, [""] * size
        for i in range(min(t, size)):
            # c = m*s/t at the class's first m, with gcd(s, t) = 1
            m = block.start + i
            g = math.gcd(m, t)
            n, d = m * s // g, t // g
            zn, zd = n * bd + bn * d, d * bd
            g = math.gcd(zn, zd)
            zn, zd = zn // g, zd // g
            c_form = f"%d/{d}" if d != 1 else "%d"
            z_form = f"%d/{zd}" if zd != 1 else "%d"
            last = (size - 1 - i) // t * s
            cs[i::t] = map(c_form.__mod__, range(n, n + last * d + 1, s * d))
            zs[i::t] = map(z_form.__mod__, range(zn, zn + last * zd + 1, s * zd))
        screen = [INDETERMINATE] * size
        simple, reducible = screen_grid(constants, step, block)
        _fill(screen, block, simple, KNOWN_SIMPLE)
        _fill(screen, block, reducible, KNOWN_REDUCIBLE)
        closed_form, agree = ["false"] * size, ["true"] * size
        closed = set()
        for points in closed_form_grid(case, step, block):
            _fill(closed_form, block, points, "true")
            closed.update(points)
        oracle = {m for m, verdict in zip(block, verdicts) if verdict == REDUCIBLE}
        for m in oracle ^ closed:
            agree[m - block.start] = "false"
        yield cs, zs, verdicts, routes, screen, closed_form, agree


def _fill(column: list, ms: range, points: range, value: str) -> None:
    """column[i] = value at each i with ms[i] in points, a progression inside ms."""
    if points:
        column[points.start - ms.start : points.stop - ms.start : points.step] = [value] * len(points)


def _blocks(ms: range, line: ScalarGrid):
    """ms cut into consecutive blocks, each within GRID_BLOCK and BLOCK_TERMS.

    Each block starts from twice the last block's size, so a run of full
    supports counts its terms about twice a block, not once per halving.
    """
    lo, size = ms.start, GRID_BLOCK
    while lo < ms.stop:
        size = min(2 * size, GRID_BLOCK, ms.stop - lo)
        while size > 1 and line.terms(range(lo, lo + size)) > BLOCK_TERMS:
            size //= 2
        yield range(lo, lo + size)
        lo += size


def cmd_scan(args) -> int:
    [case] = _cases(args)
    lo, hi = _parse_window(args.window)
    step = parse_rational(args.step)
    [(ms, line)] = _grids([case], [(lo, hi)], step)
    # Each block's rows are printed before the next block is decided.
    if args.format == "json":
        head = {
            "case": _case_json(case),
            "label": case.label,
            "window": [format_rational(lo), format_rational(hi)],
            "step": format_rational(step),
        }
        # The bytes of _dumps(payload) for payload = {**head, "rows": rows},
        # written one member and one block of rows at a time; each row is
        # _dumps(row, "    ") with the label encoded once.
        members = "".join(f"\n  {_dumps(k)}: {_dumps(v, '  ')}," for k, v in head.items())
        print("{" + members + '\n  "rows": [', end="")
        values = (_dumps(case.label),) + ('"%s"',) * 5 + ("%s",) * 2
        template = "\n    " + _object_template(dict(zip(ROW_FIELDS, values)), "    ")
        sep = ""
        for columns in _grid_rows(case, ms, line):
            print(sep + ",".join(map(template.__mod__, zip(*columns))), end="")
            sep = ","
        print("\n  ]\n}" if ms else "]\n}")
        return 0
    print("\t".join(ROW_FIELDS))
    template = case.label + "\t%s" * 7
    for columns in _grid_rows(case, ms, line):
        print("\n".join(map(template.__mod__, zip(*columns))))
    return 0


# ---------------------------------------------------------------------------
# table


def _table_rows(table_id: int, a_value: Fraction | None):
    # Each row is a nilradical root with e6 = -1/2 (EIII) or +1/2 (EVII),
    # named by the signs of its e1..e5.
    header = ("pattern", "e1", "e2", "e3", "e4", "e5")
    if table_id in (1, 2):
        # The rows are the support terms of the EIII point at z = 9 or 10.
        case = HermitianCase("EIII")
        z = Fraction(9) if table_id == 1 else Fraction(10)
        terms = classify_scalar(case, z - line_offset(case)).terms
        rows = [(t.beta, t.image[:5]) for t in terms if t.beta[5] == Fraction(-1, 2)]
        meta = {"case": "EIII", "z": format_rational(z)}
    else:
        # Every root reflects rho + a*zeta, a support term or not; table 4
        # leaves out the root whose e1..e5 are all negative.
        datum = build_datum(HermitianCase("EVII"))
        mu = add(scalar_parameter_weight(datum, a_value), datum.rho)
        rows = []
        for beta in datum.nilradical_roots:
            if beta[5] == Fraction(1, 2) and (table_id == 3 or max(beta[:5]) > 0):
                image = reflect(mu, beta)
                if table_id == 4:
                    rows.append((beta, image[:5]))
                else:
                    rows.append((beta, (*image[5:], inner(image, datum.theta_u))))
        if table_id == 3:
            header = ("pattern", "e6", "e7", "e8", "theta")
        meta = {"case": "EVII", "a": format_rational(a_value)}
    named = [("".join("-" if x < 0 else "+" for x in beta[:5]), vals) for beta, vals in rows]
    # By how many signs are negative, then by where they sit.
    named.sort(key=lambda row: (row[0].count("-"), [i for i, s in enumerate(row[0]) if s == "-"]))
    return header, named, meta


def cmd_table(args) -> int:
    if args.table in (1, 2):
        if args.a is not None:
            raise ValueError(f"table {args.table} is at a fixed parameter; drop --a")
        a_value = None
    elif args.table == 3:
        if args.a is None:
            raise ValueError("table 3 requires --a")
        a_value = parse_rational(args.a)
    else:
        a_value = parse_rational(args.a) if args.a is not None else Fraction(-7)

    header, rows, meta = _table_rows(args.table, a_value)
    if args.format == "json":
        payload = {
            "table": args.table,
            **meta,
            "columns": list(header),
            "rows": [
                {"pattern": pat, "values": [format_rational(v) for v in vals]}
                for pat, vals in rows
            ],
        }
        print(_dumps(payload))
        return 0
    if args.format == "tsv":
        print("\t".join(header))
        for pat, vals in rows:
            print(pat + "\t" + "\t".join(format_rational(v) for v in vals))
        return 0
    tag = ", ".join(f"{k} = {v}" for k, v in meta.items())
    print(f"table {args.table}  ({tag})")
    cells = [[pat] + [format_rational(v) for v in vals] for pat, vals in rows]
    widths = [
        max(len(header[i]), max(len(row[i]) for row in cells)) for i in range(len(header))
    ]
    print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for row in cells:
        print("  ".join(x.rjust(w) for x, w in zip(row, widths)))
    return 0


# ---------------------------------------------------------------------------
# crosscheck


def _crosscheck_instance(case: HermitianCase, window, ms: range, line: ScalarGrid) -> dict:
    """Counts, mismatches and contradictions of one case; other rows are dropped."""
    points = reducible = 0
    mismatches, contradictions = [], []
    for columns in _grid_rows(case, ms, line):
        _, _, verdicts, _, screen, _, agree = columns
        points += len(verdicts)
        reducible += verdicts.count(REDUCIBLE)
        rows = list(zip(*columns))
        mismatches += [rows[i] for i, ok in enumerate(agree) if ok == "false"]
        # the screen contradicts the oracle where it says the opposite
        contradictions += [
            rows[i]
            for i, (verdict, said) in enumerate(zip(verdicts, screen))
            if said == (KNOWN_SIMPLE if verdict == REDUCIBLE else KNOWN_REDUCIBLE)
        ]
    return {
        "case": case,
        "window": window,
        "points": points,
        "reducible": reducible,
        "mismatches": mismatches,
        "contradictions": contradictions,
    }


def cmd_crosscheck(args) -> int:
    cases = _cases(args, ranges=True)
    step = parse_rational(args.step)
    if args.window is None:
        # A - B <= 0, so every default window holds -5..10: a family too
        # large for that is refused before abc_constants builds any datum.
        each = _points(Fraction(-5), Fraction(10), step)
        least = len(cases) * (each.stop - each.start)
        if least > MAX_GRID_POINTS:
            raise ValueError(f"at least {least} grid points requested, over {MAX_GRID_POINTS}")
        # z = A - 5 .. B + 10, for z = c + B
        windows = [(con.a - con.b - 5, Fraction(10)) for con in map(abc_constants, cases)]
    else:
        windows = [_parse_window(args.window)] * len(cases)
    grids = _grids(cases, windows, step)
    results = [
        _crosscheck_instance(case, w, ms, line)
        for case, w, (ms, line) in zip(cases, windows, grids)
    ]
    ok = all(not r["mismatches"] and not r["contradictions"] for r in results)

    if args.format == "json":
        payload = {
            "pass": ok,
            "instances": [
                {
                    "case": _case_json(r["case"]),
                    "label": r["case"].label,
                    "window": [format_rational(x) for x in r["window"]],
                    "step": format_rational(step),
                    "points": r["points"],
                    "reducible": r["reducible"],
                    "mismatches": [x[0] for x in r["mismatches"]],
                    "contradictions": [x[0] for x in r["contradictions"]],
                }
                for r in results
            ],
        }
        print(_dumps(payload))
        return 0 if ok else 2

    for r in results:
        lo, hi = r["window"]
        print(
            f"{r['case'].label}: window {format_rational(lo)}..{format_rational(hi)}"
            f" points={r['points']}"
            f" reducible={r['reducible']}"
            f" mismatches={len(r['mismatches'])}"
            f" contradictions={len(r['contradictions'])}"
        )
        for c, _, verdict, _, _, closed_form, _ in r["mismatches"]:
            print(f"  MISMATCH c={c}: oracle {verdict} vs closed form {closed_form}")
        for c, _, verdict, _, screen, _, _ in r["contradictions"]:
            print(f"  CONTRADICTION c={c}: oracle {verdict} vs screen {screen}")
    total = sum(r["points"] for r in results)
    print(f"crosscheck: {'PASS' if ok else 'FAIL'} ({len(results)} instances, {total} points)")
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# datum dump


def cmd_datum_dump(args) -> int:
    """The datum as JSON.

    The five root fields are written from their _root_texts strings; rho,
    zeta and theta_u, which are not roots, through _w.
    """
    [case] = _cases(args)
    datum = build_datum(case)
    text = _root_texts(datum).__getitem__
    roots = lambda ws: list(map(text, map(id, ws)))
    payload = {
        "case": _case_json(case),
        "label": case.label,
        "ambient_dim": datum.ambient_dim,
        "simple_roots": roots(datum.simple_roots),
        "levi_simples": roots(datum.levi_simples),
        "noncompact_simple": text(id(datum.noncompact_simple)),
        "nilradical_roots": roots(datum.nilradical_roots),
        "rho": _w(datum.rho),
        "gamma": text(id(datum.gamma)),
        "zeta": _w(datum.zeta),
        "theta_u": _w(datum.theta_u),
    }
    notes = case_notes(case)
    if notes:
        payload["notes"] = list(notes)
    print(_dumps(payload))
    return 0


if __name__ == "__main__":
    run()
