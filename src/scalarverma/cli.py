"""Command line interface.

Subcommands: classify (one scalar parameter), scan (sweep a c-window on a
fixed lattice), table (the four exceptional-case reference tables),
crosscheck (oracle vs. closed-form sets and the first-reduction screen),
datum-dump (the full root datum as JSON).

scan and crosscheck decide their grid root by root, through
jantzen.ScalarGrid, in blocks, each used before the next block is decided;
classify decides its one point by jantzen._classify_point.  A block's decision
(_grid_decisions) is the verdict and route of each point its support
visits (every other point is Simple by the empty support), its set of
Reducible m, and the closed form and the (A, B, C) screen as progressions
in m on the grid (ehw.closed_form_grid, ehw.screen_grid), each found from
the step's and the constants' numerators and denominators by one congruence
in integers; no string is built, and no work is done per point the support
does not visit.  A window's m (_points) and crosscheck's default window
come from numerators and denominators too, and a Fraction is built only for
text: so between reading argv and writing text, a grid request on a new
case does no Fraction arithmetic.  scan alone writes rows, each block's as
one join over a list of pieces, the row template's constant pieces around
the fields: verdict and route are written at the visited points only, the
closed form and the screen by slices along their progressions, and c's and
z's numerators once per residue class of m modulo the step's denominator,
with the class's denominator folded into the piece after each.  The JSON
and TSV rows differ only in those constant pieces and the row separator.
crosscheck compares sets in m: a mismatch is a point in exactly one of the
Reducible set and the closed form, a contradiction a Reducible point the
screen calls known simple or a Simple point it calls known reducible, and
c is formatted only for the points it reports.

table reflects rho + a*zeta in the nilradical roots of one case, in one
loop: tables 1 and 2 take EIII's support roots at z = 9 and 10, those
whose pairing with rho + a*zeta is a positive integer, and tables 3 and 4
take EVII's roots, in the support or not, at the line parameter a.

A grid's points are counted before `_grids` builds any datum, and its
support terms before any point is decided: past MAX_GRID_POINTS or
MAX_SUPPORT_TERMS the command exits 1.  crosscheck without --window takes
each case's default window from abc_constants, which builds the case's
datum; every such window holds -5..10, so a family too large for that is
refused before any datum is built.

Exit codes: 0 success, 1 usage error, 2 computational disagreement,
3 internal invariant violation.  All output is deterministic: fixed
orderings, exact rationals, no timestamps.  JSON is written by _dumps, in
the bytes of json.dumps(..., indent=2).  A weight reaches _dumps as the
tuple of its coordinates' texts, which _dumps writes as a JSON array in one
join; a list is written item by item.  A number is written by one rule: a
Fraction by str, and an integer m over a denominator den as str writes
m/den, through one memo per denominator (_Ratios), which makes each
distinct m's text once.  Every weight of a datum that a command writes
(datum-dump's fields, classify's support terms, class members, witness and
base point) is written from the datum's integers
(`ParabolicRootDatum.groups`), each weight group over its denominator, and
each field datum-dump writes from its own group, so no command reads a
`Fraction` field of the datum.  classify writes its representatives from
the integers of its certificate (see below).  Integer flags take ASCII
digits with an optional sign only, as rationals do.

Every command and flag is declared once, in _COMMANDS: each command's
handler and help text, and each flag's default, whether it is required,
its choices, its type and its help.  At import each command's entry is
compiled into a reader (_READERS): its defaults, its set of required
flags, and each flag's dest, type and choices.  main() reads every argv
with its command's reader (_read_argv), in one pass, as typed.  A separate
value that starts with a single "-" is the value of the flag before it,
and one that starts with "--" is none.  An argv that is not well formed
gives a reason, and main prints the usage line and the reason to stderr
and exits 1; -h or --help, at the top level or after a command, prints
the help and exits 0.  The usage line, the help and the reasons are
written from the same table, in argparse's words and layout and never
wrapped, and only when printed.  json's string encoder is imported only
for a string that needs escaping, so a well-formed request loads no module
it does not run.

classify writes both formats in one function (_classify), straight from
the certificate of jantzen._classify_point, with no record and no
Fraction per term, from fragments, as scan writes its rows: each
nilradical root's array, from the texts of the datum's nilradical group at
each indent it appears at (and its pretty text), and the case's own fields
are written by _dumps once per case, each root found by its index.  A
request writes only the text around the fragments: each level by %d, each
parity and step count from the word's length, each class's representative
from the numerators the certificate holds over its one denominator, with
one gcd per distinct coordinate, and c and z from integers.  The case's
base point is written once per case, in both formats, from the view's
integers too, so a cold classify does no Fraction arithmetic either.  c is
read as its numerator and denominator (ratvec.parse_ratio), and each case
is built once per process (_case), so a warm classify makes no Fraction and
no HermitianCase between argv and output.
"""

from __future__ import annotations

import math
import os
import sys
from fractions import Fraction
from functools import cache
from types import SimpleNamespace

from .ehw import (
    INDETERMINATE,
    KNOWN_REDUCIBLE,
    KNOWN_SIMPLE,
    _start,
    abc_constants,
    closed_form_grid,
    line_offset,
    screen_grid,
)
from .errors import InvariantError
from .jantzen import REDUCIBLE, ROUTE_EMPTY_SUPPORT, SIMPLE, ScalarGrid, _classify_point
from .ratvec import add, inner, is_integer, pairing, parse_ratio, parse_rational, reflect
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


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if type(args) is tuple:
        # the help or a usage error of a command, or of the top level for None
        name, reason = args
        if reason is None:
            sys.stdout.write(_help(name))
            return 0
        prog = "scalarverma" if name is None else f"scalarverma {name}"
        sys.stderr.write(f"{_usage(name)}\n{prog}: error: {reason}\n")
        return 1
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


def _read_argv(argv: list[str]) -> SimpleNamespace | tuple[str | None, str | None]:
    """argv read by its command's reader: a well-formed argv's namespace, or
    (command, reason) for a usage error and (command, None) for help, with
    command None for the top level.

    Well formed: a command, then "--flag value" or "--flag=value" (split at
    the first "=") for flags of that command, every required flag present,
    and every value within its choices and its type.  A separate value is
    the next token unless that starts with "--".  A repeated flag keeps its
    last value, and each of its values is checked.  Any other token, "--"
    among them, is unrecognized.  The first missing value, bad value or
    -h/--help, in argv order, decides; then the required flags not given;
    then the unrecognized tokens.  The namespace holds each flag's value or
    default and the command's func.
    """
    if not argv:
        return None, "the following arguments are required: command"
    name = argv[0]
    reader = _READERS.get(name)
    if reader is None:
        # -h or --help in place of a command asks for the top level's help
        return None, None if name in ("-h", "--help") else _invalid_choice("command", name, _COMMANDS)
    func, defaults, required, specs = reader
    values = {}
    unrecognized = []
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        spec = specs.get(flag)
        if spec is None:
            if token in ("-h", "--help"):
                return name, None
            unrecognized.append(token)
            continue
        dest, kind, choices = spec
        if not eq:
            # a missing value reads as "--", which is turned down
            value = next(tokens, "--")
            if value.startswith("--"):
                return name, f"argument {flag}: expected one argument"
        if kind is not None:
            try:
                value = kind(value)
            except ValueError as exc:
                return name, f"argument {flag}: {exc}"
        if choices is not None and value not in choices:
            return name, _invalid_choice(flag, value, choices)
        values[dest] = value
    if not required <= values.keys():
        missing = [f"--{dest}" for dest in defaults if dest in required and dest not in values]
        return name, "the following arguments are required: " + ", ".join(missing)
    if unrecognized:
        return None, "unrecognized arguments: " + " ".join(unrecognized)
    return SimpleNamespace(func=func, **(defaults | values))


def _invalid_choice(argument: str, value, choices) -> str:
    """The reason for a value outside its argument's choices."""
    return f"argument {argument}: invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})"


def _usage(name: str | None) -> str:
    """The usage line of a command, or of the top level for None, as argparse
    writes it at a width that wraps nothing."""
    if name is None:
        return "usage: scalarverma [-h] {" + ",".join(_COMMANDS) + "} ..."
    words = [text if spec.get("required") else f"[{text}]" for text, spec in _flag_texts(name)]
    return f"usage: scalarverma {name} [-h] " + " ".join(words)


def _flag_texts(name: str):
    """Each flag of a command with its value as usage and help show it, its
    choices or its name in capitals, and the flag's spec."""
    for flag, spec in _COMMANDS[name][2].items():
        choices = spec.get("choices")
        yield f"{flag} " + ("{" + ",".join(map(str, choices)) + "}" if choices else flag[2:].upper()), spec


def _help(name: str | None) -> str:
    """The help of a command, or of the top level for None, in argparse's
    layout at a width that wraps nothing."""
    head, options = [], [_entry("  -h, --help", "show this help message and exit")]
    if name is None:
        head = ["Command line interface.", "", "positional arguments:", "  {" + ",".join(_COMMANDS) + "}"]
        head += [_entry(f"    {command}", text) for command, (_, text, _) in _COMMANDS.items()] + [""]
    else:
        options += [_entry(f"  {text}", spec.get("help")) for text, spec in _flag_texts(name)]
    return "\n".join([_usage(name), "", *head, "options:", *options]) + "\n"


def _entry(left: str, text: str | None) -> str:
    """A line of help: left, then text from column 24, on a line of its own
    when left is wider than 22."""
    if text is None:
        return left
    return f"{left:<22}  {text}" if len(left) <= 22 else f"{left}\n{'':24}{text}"


def _integer(text: str) -> int:
    """text as an int, for ASCII digits with an optional sign and nothing else.

    int() alone also reads underscores and every Unicode digit.  The
    ValueError's message is the reason _read_argv gives for a bad --table.
    """
    digits = text.strip()
    if digits[:1] in ("+", "-"):
        digits = digits[1:]
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:
            pass  # str.strip() also drops the separators \x1c-\x1f, which int() refuses
    raise ValueError(f"invalid int value: {text!r}")


def _parameter(name: str, text: str | None) -> int | None:
    """The value text of --p, --q or --n as an int, or None for an absent flag."""
    if text is None:
        return None
    try:
        return _integer(text)
    except ValueError:
        raise ValueError(f"--{name} must be an integer, got {text!r}") from None


# Every case a command names, by its tag and integer parameters: 03, +3
# and 3 are one key.  A refused case raises and is not kept, so this holds
# at most the admissible cases.
_hermitian_case = cache(HermitianCase)


def _case(args) -> HermitianCase:
    """The one case named by --case, --p, --q and --n, built once per process.

    Only HermitianCase decides which tag takes which parameter.
    """
    p, q, n = _parameter("p", args.p), _parameter("q", args.q), _parameter("n", args.n)
    return _hermitian_case(args.case, p, q, n)


def _cases(args) -> list[HermitianCase]:
    """crosscheck's cases: as _case, but each parameter may also be a family lo..hi.

    Cases are built in order, so a range past a bound fails at its first
    bad case instead of listing every value first.
    """
    values = dict.fromkeys(("p", "q", "n"), [None])
    for name in values:
        text = getattr(args, name)
        if text is None:
            continue
        ends = [_parameter(name, end) for end in text.split("..", 1)]
        if ends[-1] < ends[0]:
            raise ValueError(f"empty --{name} range {text!r}")
        values[name] = range(ends[0], ends[-1] + 1)
    return [
        _hermitian_case(args.case, p, q, n)
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
    """The m whose grid points m * step lie in the window lo..hi.

    Each bound and the step are read as numerator and denominator: for
    step = s/t, lo <= m * step <= hi is lo*t/s <= m <= hi*t/s.
    """
    s, t = step.numerator, step.denominator
    if s <= 0:
        raise ValueError("step must be positive")
    first = -(-lo.numerator * t // (lo.denominator * s))
    return range(first, hi.numerator * t // (hi.denominator * s) + 1)


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
    faster.  A string of printable ASCII with no quote or backslash is
    written as it is, between quotes; only another loads json's encoder.  A
    tuple is a weight's coordinates' texts, strings of ASCII digits, "-"
    and "/" (_texts), written unescaped in one join, and any item that is
    not a str raises TypeError from the join.
    """
    if isinstance(obj, str):
        if obj.isascii() and obj.isprintable() and '"' not in obj and "\\" not in obj:
            return f'"{obj}"'
        from json.encoder import encode_basestring_ascii

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
            items.append(f"{_dumps(k)}: {_dumps(v, inner)}")
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


class _Ratios(dict):
    """The text of m/den, for one den > 0, by the integer m: made by _ratio
    on m's first lookup and kept."""

    def __init__(self, den: int):
        self.den = den

    def __missing__(self, m: int) -> str:
        text = self[m] = _ratio(m, self.den)
        return text


def _ratio(m: int, den: int) -> str:
    """m/den, for den > 0, as str writes the Fraction: in lowest terms, "p" or "p/q"."""
    g = math.gcd(m, den)
    return "%d" % (m // g) if g == den else "%d/%d" % (m // g, den // g)


def _texts(group) -> list[tuple[str, ...]]:
    """Each vector of a weight group (vectors, den) as its coordinates' texts, for _dumps."""
    vectors, den = group
    text = _Ratios(den).__getitem__
    return [tuple(map(text, v)) for v in vectors]


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
    {"beta": "%s", "level": '"%d"', "parity": '"%s"', "steps": "%d"}, " " * 8
)


@cache
def _classify_case(case: HermitianCase):
    """The parts of classify's output that depend on the case alone, each written once.

    Returns (view, offset, case, label, lambda0, roots): the datum's integer
    view, the line offset <rho, gamma^v> as (numerator, denominator), then
    the case's fields and its label as JSON text, and its base point
    -<rho, gamma^v> * zeta as lambda0["json"] in JSON and lambda0["pretty"]
    as the pretty certificate writes it.  roots[field] holds, at index j,
    nilradical root j's JSON array, written by _dumps from the texts of the
    datum's nilradical group at the indent that field's roots start on;
    roots["pretty"] holds it as the pretty certificate writes it.
    """
    datum = build_datum(case)
    nilradical = _texts(datum.groups[3])
    roots = {
        field: tuple([_dumps(t, indent) for t in nilradical])
        for field, indent in _ROOT_INDENTS.items()
    }
    roots["pretty"] = tuple(map(_pretty, nilradical))
    view = datum.integer_view
    offset = a, norm = line_offset(case).as_integer_ratio()
    # z = c + <rho, gamma^v>, so c*zeta - z*zeta is the base point for every
    # c: for the offset a/norm and the view's Z = D*zeta, -a*Z_i / (norm*D)
    base = tuple(map(_Ratios(norm * view.denom).__getitem__, [-a * z for z in view.zeta]))
    lambda0 = {"json": _dumps(base, "  "), "pretty": _pretty(base)}
    return view, offset, _dumps(_case_json(case), "  "), _dumps(case.label), lambda0, roots


def _z(c: tuple[int, int], offset: tuple[int, int]) -> str:
    """z = c + offset, each as (numerator, denominator), as str writes the Fraction."""
    n, d = c
    bn, bd = offset
    return _ratio(n * bd + bn * d, d * bd)


def _classify(case: HermitianCase, c: tuple[int, int], fmt: str) -> str:
    """classify's output at c = (numerator, denominator), d > 0, in fmt:
    "json", the bytes of _dumps of its payload without the final newline, or
    "pretty".

    Both are written from `_classify_point`'s certificate, from fragments:
    the case's parts and every root are written once per case; a request
    writes c, z, its levels, parities and representatives and the text
    around the fragments, as scan writes its rows, all from integers; c and
    z as str writes their Fractions.  A representative's coordinates are
    numerators over the certificate's denominator, each distinct one written
    once by one memo (_Ratios), made only when the certificate holds a class.
    """
    view, offset, case_json, label, lambda0, roots = _classify_case(case)
    verdict, route, terms, certificate, witness, den = _classify_point(view, *c)
    c, z = _ratio(*c), _z(c, offset)
    walls = [j for j, _, entry in terms if entry is None]
    reps = []
    if certificate:
        text = _Ratios(den).__getitem__
        reps = [tuple(map(text, rep)) for rep, _, _ in certificate]
    if fmt == "pretty":
        texts = roots["pretty"]
        lines = [
            f"{case.label}  c = {c}  (z = {z})",
            f"verdict: {verdict}   route: {route}",
            f"base point: {lambda0['pretty']}",
            f"support: {len(terms)} roots, {len(walls)} on walls",
        ]
        for rep, (_, net, members) in zip(reps, certificate):
            betas = ", ".join(f"{texts[j]} ({_parity(word)})" for j, _, (_, _, _, _, word) in members)
            lines.append(f"  class rep {_pretty(rep)}  net {net:+d}: {betas}")
        if witness is not None:
            lines.append(f"witness: {texts[witness]}")
        return "\n".join(lines) + "\n"
    support, member, surviving = roots["s_lambda"], roots["member"], roots["surviving"]
    classes, survivors = [], []
    for rep, (_, net, members) in zip(reps, certificate):
        rep = _dumps(rep, " " * 6)
        written = [
            _MEMBER_JSON % (member[j], k, _parity(word), len(word))
            for j, k, (_, _, _, _, word) in members
        ]
        classes.append(_CLASS_JSON % (rep, net, _array(written, " " * 6)))
        if net:
            written = [surviving[j] for j, _, _ in members]
            survivors.append(_CLASS_JSON % (rep, net, _array(written, " " * 6)))
    return _CLASSIFY_JSON % (
        case_json,
        label,
        c,
        z,
        lambda0["json"],
        verdict,
        route,
        len(terms),
        _array([support[j] for j, _, _ in terms], "  "),
        _array([support[j] for j in walls], "  "),
        _array(classes, "  "),
        _array(survivors, "  "),
        "null" if witness is None else roots["witness"][witness],
    )


def _parity(word: tuple) -> str:
    return "odd" if len(word) & 1 else "even"


def _pretty(w) -> str:
    """A weight's coordinates' strings as [x, y, ...]."""
    return "[" + ", ".join(w) + "]"


def cmd_classify(args) -> int:
    text = _classify(_case(args), parse_ratio(args.c), args.format)
    sys.stdout.write(text + "\n" if args.format == "json" else text)
    return 0


# ---------------------------------------------------------------------------
# scan


# The fields of a scan row, in order.
ROW_FIELDS = ("case", "c", "z", "verdict", "route", "abc_screen", "closed_form", "agree")


def _grid_decisions(case: HermitianCase, ms: range, line: ScalarGrid):
    """The decision of the grid points m * step, m in ms, one tuple per block.

    Each tuple is (block, decided, oracle, closed, screen): the block's m,
    the grid decision's (verdict, route) of each point its support visits,
    by index in the block (`ScalarGrid.decide`; every other point is Simple
    by the empty support), the set of m the decision calls Reducible, and
    the closed form and the (A, B, C) screen as their own progressions in m
    (`ehw.closed_form_grid`, a list of progressions, and `ehw.screen_grid`,
    the known simple and known reducible m), so that the closed form and
    the screen are independent of the Jantzen verdict.  No string is built,
    and nothing is done per point the support does not visit.
    """
    constants = abc_constants(case)
    for block in _blocks(ms, line):
        decided = line.decide(block)
        start = block.start
        oracle = {start + i for i, (verdict, _) in decided.items() if verdict == REDUCIBLE}
        closed = closed_form_grid(case, line.step, block)
        yield block, decided, oracle, closed, screen_grid(constants, line.step, block)


# The pieces of a scan row, in order: the eight constant pieces of the row
# template, around the seven fields after the case, then the row separator.
# Field f of row i is pieces[_ROW * i + 2*f + 1], for f = 0 .. 6 in
# ROW_FIELDS[1:] order.
_ROW = 16
_C, _Z, _VERDICT, _ROUTE, _SCREEN, _CLOSED, _AGREE = range(1, _ROW - 2, 2)


def _scan_rows(case: HermitianCase, ms: range, line: ScalarGrid, template: list[str], sep: str):
    """scan's rows of the grid points m * step, m in ms, as text: one string per block.

    template holds the eight constant pieces of a row, the text before c,
    between each two fields and after agree; each row is followed by sep but
    the block's last.  A block's text is one join over a list of _ROW pieces
    per row, every row's pieces first set to the template, the separator
    and the fields' defaults (Simple, empty_support, indeterminate, false,
    true), then each field filled by slice assignment: c and z per residue
    class (below), verdict and route at the points the support visits
    (`ScalarGrid.decide`), the screen and the closed form along their
    progressions, and agree "false" exactly where the Reducible points and
    the closed-form points differ.  Fields are written as the TSV writes
    them: c and z as str writes their Fractions, closed_form and agree as
    "true" or "false".

    c and z are written per residue class of m modulo t, for step = s/t in
    lowest terms.  Along a class m rises by t, so c = m*s/t and z = c + B
    rise by the integer s.  Adding an integer to a fraction in lowest terms
    keeps its denominator d and keeps it in lowest terms (gcd(n + s*d, d) =
    gcd(n, d) = 1), so along the class the numerator of c rises by s*d and
    that of z by s*z_d, over fixed denominators d and z_d.  The numerators
    go in as str of a range, and "/d" is folded into the constant piece
    after each, once per class.
    """
    # z = c + B, for B the line offset <rho, gamma^v>
    bn, bd = line_offset(case).as_integer_ratio()
    s, t = line.step.as_integer_ratio()
    # each field's default, c and z's a placeholder, then the separator
    fields = ("", "", SIMPLE, ROUTE_EMPTY_SUPPORT, INDETERMINATE, "false", "true", sep)
    row = [piece for pair in zip(template, fields) for piece in pair]
    after_c, after_z = template[1], template[2]
    stride = _ROW * t
    for block, decided, oracle, closed, (simple, known) in _grid_decisions(case, ms, line):
        size = len(block)
        pieces = row * size
        pieces[-1] = ""
        for i in range(min(t, size)):
            # c = m*s/t at the class's first m, with gcd(s, t) = 1
            m = block.start + i
            g = math.gcd(m, t)
            n, d = m * s // g, t // g
            zn, zd = n * bd + bn * d, d * bd
            g = math.gcd(zn, zd)
            zn, zd = zn // g, zd // g
            count = (size - 1 - i) // t + 1
            at = _ROW * i
            pieces[at + _C :: stride] = map(str, range(n, n + count * s * d, s * d))
            pieces[at + _Z :: stride] = map(str, range(zn, zn + count * s * zd, s * zd))
            if d != 1:
                pieces[at + _C + 1 :: stride] = [f"/{d}{after_c}"] * count
            if zd != 1:
                pieces[at + _Z + 1 :: stride] = [f"/{zd}{after_z}"] * count
        for i, (verdict, route) in decided.items():
            pieces[_ROW * i + _VERDICT] = verdict
            pieces[_ROW * i + _ROUTE] = route
        _fill(pieces, block, simple, _SCREEN, KNOWN_SIMPLE)
        _fill(pieces, block, known, _SCREEN, KNOWN_REDUCIBLE)
        for points in closed:
            _fill(pieces, block, points, _CLOSED, "true")
        for m in oracle ^ set().union(*closed):
            pieces[_ROW * (m - block.start) + _AGREE] = "false"
        yield "".join(pieces)


def _fill(pieces: list, ms: range, points: range, field: int, value: str) -> None:
    """The field of row i set to value at each i with ms[i] in points, a progression inside ms."""
    if points:
        lo, hi = points.start - ms.start, points.stop - ms.start
        pieces[_ROW * lo + field : _ROW * hi + field : _ROW * points.step] = [value] * len(points)


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
    case = _case(args)
    lo, hi = _parse_window(args.window)
    step = parse_rational(args.step)
    [(ms, line)] = _grids([case], [(lo, hi)], step)
    write = sys.stdout.write
    # Each block's rows are written before the next block is decided.
    if args.format == "json":
        head = {
            "case": _case_json(case),
            "label": case.label,
            "window": [str(lo), str(hi)],
            "step": str(step),
        }
        # The bytes of _dumps(payload) for payload = {**head, "rows": rows},
        # written one member and one block of rows at a time; each row is
        # _dumps(row, "    ") with the label encoded once, its template
        # split at each field.
        members = "".join(f"\n  {_dumps(k)}: {_dumps(v, '  ')}," for k, v in head.items())
        write("{" + members + '\n  "rows": [')
        values = (_dumps(case.label),) + ('"%s"',) * 5 + ("%s",) * 2
        template = "\n    " + _object_template(dict(zip(ROW_FIELDS, values)), "    ")
        sep = ""
        for text in _scan_rows(case, ms, line, template.split("%s"), ","):
            write(sep)
            write(text)
            sep = ","
        write("\n  ]\n}\n" if ms else "]\n}\n")
        return 0
    write("\t".join(ROW_FIELDS) + "\n")
    for text in _scan_rows(case, ms, line, [case.label + "\t", *"\t" * 6, ""], "\n"):
        write(text)
        write("\n")
    return 0


# ---------------------------------------------------------------------------
# table


def _table_rows(table_id: int, a_value: Fraction | None):
    # Each row is a nilradical root with e6 = -1/2 (EIII) or +1/2 (EVII),
    # named by the signs of its e1..e5, and its reflection of rho + a*zeta.
    header = ("pattern", "e1", "e2", "e3", "e4", "e5")
    if table_id in (1, 2):
        # The rows are the support terms of the EIII point at z = 9 or 10:
        # the roots whose pairing with rho + a*zeta is a positive integer.
        case, z = HermitianCase("EIII"), Fraction(8 + table_id)
        a_value, half, meta = z - line_offset(case), Fraction(-1, 2), {"case": "EIII", "z": str(z)}
    else:
        # Every root reflects rho + a*zeta, a support term or not; table 4
        # leaves out the root whose e1..e5 are all negative.
        case, half, meta = HermitianCase("EVII"), Fraction(1, 2), {"case": "EVII", "a": str(a_value)}
    datum = build_datum(case)
    mu = add(scalar_parameter_weight(datum, a_value), datum.rho)
    rows = []
    for beta in datum.nilradical_roots:
        k = pairing(mu, beta)
        support = k > 0 and is_integer(k)
        if beta[5] == half and (support if table_id < 3 else table_id == 3 or max(beta[:5]) > 0):
            image = reflect(mu, beta)
            rows.append((beta, (*image[5:], inner(image, datum.theta_u)) if table_id == 3 else image[:5]))
    if table_id == 3:
        header = ("pattern", "e6", "e7", "e8", "theta")
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
                {"pattern": pat, "values": list(map(str, vals))}
                for pat, vals in rows
            ],
        }
        print(_dumps(payload))
        return 0
    if args.format == "tsv":
        print("\t".join(header))
        for pat, vals in rows:
            print(pat + "\t" + "\t".join(map(str, vals)))
        return 0
    tag = ", ".join(f"{k} = {v}" for k, v in meta.items())
    print(f"table {args.table}  ({tag})")
    cells = [[pat, *map(str, vals)] for pat, vals in rows]
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
    """Counts, mismatches and contradictions of one case, from sets of m.

    A mismatch is a point in exactly one of the Reducible set and the
    closed form.  A contradiction is a point at which the screen says the
    opposite of the oracle: a Reducible point it calls known simple, or a
    point it calls known reducible that the oracle calls Simple.  Each is
    reported as (c, whether the oracle calls it Reducible); no other c is
    formatted.
    """
    points = reducible = 0
    mismatches, contradictions = [], []
    for block, _, oracle, closed, (simple, known) in _grid_decisions(case, ms, line):
        points += len(block)
        reducible += len(oracle)
        said = {m for m in oracle if m in simple} | (set(known) - oracle)
        for found, out in ((oracle ^ set().union(*closed), mismatches), (said, contradictions)):
            out += [(str(m * line.step), m in oracle) for m in sorted(found)]
    return {
        "case": case,
        "window": window,
        "points": points,
        "reducible": reducible,
        "mismatches": mismatches,
        "contradictions": contradictions,
    }


def cmd_crosscheck(args) -> int:
    cases = _cases(args)
    step = parse_rational(args.step)
    if args.window is None:
        # A - B <= 0, so every default window holds -5..10: a family too
        # large for that is refused before abc_constants builds any datum.
        each = _points(-5, 10, step)
        least = len(cases) * (each.stop - each.start)
        if least > MAX_GRID_POINTS:
            raise ValueError(f"at least {least} grid points requested, over {MAX_GRID_POINTS}")
        # z = A - 5 .. B + 10, for z = c + B: c = A - B - 5 .. 10, with
        # A - B = p/q as integers
        windows = [
            (Fraction(p - 5 * q, q), Fraction(10)) for p, q in map(_start, map(abc_constants, cases))
        ]
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
                    "window": list(map(str, r["window"])),
                    "step": str(step),
                    "points": r["points"],
                    "reducible": r["reducible"],
                    "mismatches": [c for c, _ in r["mismatches"]],
                    "contradictions": [c for c, _ in r["contradictions"]],
                }
                for r in results
            ],
        }
        print(_dumps(payload))
        return 0 if ok else 2

    for r in results:
        lo, hi = r["window"]
        print(
            f"{r['case'].label}: window {lo}..{hi}"
            f" points={r['points']}"
            f" reducible={r['reducible']}"
            f" mismatches={len(r['mismatches'])}"
            f" contradictions={len(r['contradictions'])}"
        )
        # the closed form, or the screen, says the opposite of the oracle
        for c, reduced in r["mismatches"]:
            verdict, closed_form = (REDUCIBLE, "false") if reduced else (SIMPLE, "true")
            print(f"  MISMATCH c={c}: oracle {verdict} vs closed form {closed_form}")
        for c, reduced in r["contradictions"]:
            verdict, screen = (REDUCIBLE, KNOWN_SIMPLE) if reduced else (SIMPLE, KNOWN_REDUCIBLE)
            print(f"  CONTRADICTION c={c}: oracle {verdict} vs screen {screen}")
    total = sum(r["points"] for r in results)
    print(f"crosscheck: {'PASS' if ok else 'FAIL'} ({len(results)} instances, {total} points)")
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# datum dump


def cmd_datum_dump(args) -> int:
    """The datum as JSON, every weight written from its own group of the datum's integers."""
    case = _case(args)
    datum = build_datum(case)
    rho, zeta, theta_u, nilradical, _, levi_simples, simples, noncompact, gamma = datum.groups
    (rho,), (zeta,), (theta_u,), (noncompact,), (gamma,) = map(_texts, (rho, zeta, theta_u, noncompact, gamma))
    payload = {
        "case": _case_json(case),
        "label": case.label,
        "ambient_dim": datum.ambient_dim,
        "simple_roots": _texts(simples),
        "levi_simples": _texts(levi_simples),
        "noncompact_simple": noncompact,
        "nilradical_roots": _texts(nilradical),
        "rho": rho,
        "gamma": gamma,
        "zeta": zeta,
        "theta_u": theta_u,
    }
    notes = case_notes(case)
    if notes:
        payload["notes"] = list(notes)
    print(_dumps(payload))
    return 0


# ---------------------------------------------------------------------------
# the commands


# Every flag takes one value.  Its spec holds, each where it applies, its
# help, default, required, choices, and type (--table's alone).
_CASE_FLAGS = {
    "--case": {"required": True, "choices": CASE_TAGS, "help": "case tag"},
    "--p": {"help": "first AIII parameter"},
    "--q": {"help": "second AIII parameter"},
    "--n": {"help": "rank parameter for CI/BI/DI/DIII"},
}
_STEP = {"default": "1/6", "help": "lattice step (default 1/6)"}
# Each command's handler, help text and flags, in the order its usage lists
# them.  _reader compiles from this table the reader with which _read_argv
# reads an argv, and _usage and _help write from it.
_COMMANDS = {
    "classify": (cmd_classify, "decide one scalar parameter", {
        **_CASE_FLAGS,
        "--c": {"required": True, "help": "scalar parameter, as p or p/q"},
        "--format": {"choices": ("json", "pretty"), "default": "pretty"},
    }),
    "scan": (cmd_scan, "sweep a c-window on a fixed lattice", {
        **_CASE_FLAGS,
        "--window": {"required": True, "help": "c-window, as lo..hi"},
        "--step": _STEP,
        "--format": {"choices": ("tsv", "json"), "default": "tsv"},
    }),
    "table": (cmd_table, "print one exceptional-case reference table", {
        "--table": {"required": True, "type": _integer, "choices": (1, 2, 3, 4)},
        "--a": {"help": "line parameter for tables 3 and 4 (table 4 default -7)"},
        "--format": {"choices": ("pretty", "tsv", "json"), "default": "pretty"},
    }),
    "crosscheck": (cmd_crosscheck, "compare the oracle against the closed-form sets", {
        **_CASE_FLAGS,
        "--window": {"help": "c-window lo..hi (default: around the reduction range)"},
        "--step": _STEP,
        "--format": {"choices": ("pretty", "json"), "default": "pretty"},
    }),
    "datum-dump": (cmd_datum_dump, "emit the full root datum as JSON", _CASE_FLAGS),
}


def _reader(func, flags: dict) -> tuple:
    """A command's reader for _read_argv, compiled from its _COMMANDS entry.

    It is (func, defaults, required, specs): the handler, each dest's
    default, the set of required dests, and each flag's (dest, type,
    choices), None for a flag without that key.
    """
    specs = {flag: (flag[2:], spec.get("type"), spec.get("choices")) for flag, spec in flags.items()}
    defaults = {flag[2:]: spec.get("default") for flag, spec in flags.items()}
    required = frozenset(flag[2:] for flag, spec in flags.items() if spec.get("required"))
    return func, defaults, required, specs


_READERS = {name: _reader(func, flags) for name, (func, _, flags) in _COMMANDS.items()}


if __name__ == "__main__":
    run()
