"""Command line interface.

Subcommands: classify (one scalar parameter), scan (sweep a c-window on a
fixed lattice), table (the four exceptional-case reference tables),
crosscheck (oracle vs. closed-form sets and the first-reduction screen),
datum-dump (the full root datum as JSON).

Exit codes: 0 success, 1 usage error, 2 computational disagreement,
3 internal invariant violation.  All output is deterministic: fixed
orderings, exact rationals, no timestamps.  JSON is written by _dumps, in
the bytes of json.dumps(..., indent=2).

The argparse parser is built once per process, on the first main() call,
and reused by every later call; building it costs more than deciding a
typical point.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii

from .ehw import (
    KNOWN_REDUCIBLE,
    KNOWN_SIMPLE,
    abc_constants,
    abc_verdict,
    closed_form_reducible,
    line_offset,
)
from .errors import InvariantError
from .jantzen import REDUCIBLE, classify_scalar
from .ratvec import Weight, add, format_rational, inner, parse_rational, reflect, scale
from .rootdata import CASE_TAGS, HermitianCase, build_datum, case_notes, scalar_parameter_weight

# A scan window, or all the windows of one crosscheck together, hold at
# most this many grid points; the largest benchmark grid, finegrid, has 3,601.
MAX_GRID_POINTS = 100_000


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
    parser = _build_parser()
    try:
        args = parser.parse_args(_glue_values(list(argv)))
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
    p.add_argument("--table", required=True, type=int, choices=(1, 2, 3, 4))
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

    return parser


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
                ends.append(int(end))
            except ValueError:
                raise ValueError(f"--{name} must be an integer, got {end!r}")
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


def _grids(windows: list[tuple[Fraction, Fraction]], step: Fraction) -> list[range]:
    """For each window lo..hi, the k whose grid points k * step lie in it.

    The windows' points are counted together, before any is decided.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    grids = [range(math.ceil(lo / step), math.floor(hi / step) + 1) for lo, hi in windows]
    # stop - start, as len() overflows past sys.maxsize points
    points = sum(ks.stop - ks.start for ks in grids)
    if points > MAX_GRID_POINTS:
        raise ValueError(f"{points} grid points requested, over {MAX_GRID_POINTS}")
    return grids


# ---------------------------------------------------------------------------
# serialization helpers


def _dumps(obj, indent: str = "") -> str:
    """The bytes of json.dumps(obj, indent=2) for the CLI's payload shapes.

    indent is the indentation of the line obj starts on.  Only str, int,
    bool, None, list and str-keyed dict are accepted; the standard encoder
    runs in pure Python whenever an indent is set, and this one is faster.
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
    sep = ",\n" + inner
    if isinstance(obj, list):
        if not obj:
            return "[]"
        items = [_dumps(x, inner) for x in obj]
        return f"[\n{inner}{sep.join(items)}\n{indent}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            items.append(f"{encode_basestring_ascii(k)}: {_dumps(v, inner)}")
        return f"{{\n{inner}{sep.join(items)}\n{indent}}}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _w(w: Weight) -> list[str]:
    return [format_rational(x) for x in w]


def _case_json(case: HermitianCase) -> dict:
    fields = {"tag": case.tag, "p": case.p, "q": case.q, "n": case.n}
    return {k: v for k, v in fields.items() if v is not None}


def _class_json(group, with_detail: bool) -> dict:
    if with_detail:
        members = [
            {
                "beta": _w(m.beta),
                "level": format_rational(m.level),
                "parity": "odd" if m.chamber.parity else "even",
                "steps": m.chamber.steps,
            }
            for m in group.members
        ]
    else:
        members = [_w(m.beta) for m in group.members]
    return {"rep": _w(group.rep), "net_sign": group.net_sign, "members": members}


# ---------------------------------------------------------------------------
# classify


def _classify_payload(case: HermitianCase, c: Fraction) -> dict:
    datum = build_datum(case)
    verdict = classify_scalar(datum, c)
    # z = c + <rho, gamma^v>, and c*zeta - z*zeta is the same base point for every c.
    offset = line_offset(case)
    return {
        "case": _case_json(case),
        "label": case.label,
        "c": format_rational(c),
        "z": format_rational(c + offset),
        "lambda0": _w(scale(-offset, datum.zeta)),
        "verdict": verdict.verdict,
        "route": verdict.route,
        "s_lambda_size": len(verdict.terms),
        "s_lambda": [_w(t.beta) for t in verdict.terms],
        "singular": [_w(t.beta) for t in verdict.terms if not t.chamber.is_regular],
        "classes": [_class_json(g, with_detail=True) for g in verdict.certificate],
        "surviving_classes": [
            _class_json(g, with_detail=False) for g in verdict.surviving
        ],
        "witness": _w(verdict.witness) if verdict.witness is not None else None,
    }


def cmd_classify(args) -> int:
    [case] = _cases(args)
    c = parse_rational(args.c)
    payload = _classify_payload(case, c)
    if args.format == "json":
        print(_dumps(payload))
        return 0
    print(f"{payload['label']}  c = {payload['c']}  (z = {payload['z']})")
    print(f"verdict: {payload['verdict']}   route: {payload['route']}")
    print(f"base point: {_w_pretty_from(payload['lambda0'])}")
    print(
        f"support: {payload['s_lambda_size']} roots, "
        f"{len(payload['singular'])} on walls"
    )
    for g in payload["classes"]:
        betas = ", ".join(
            f"{_w_pretty_from(m['beta'])} ({m['parity']})" for m in g["members"]
        )
        print(f"  class rep {_w_pretty_from(g['rep'])}  net {g['net_sign']:+d}: {betas}")
    if payload["witness"] is not None:
        print(f"witness: {_w_pretty_from(payload['witness'])}")
    return 0


def _w_pretty_from(strs: list[str]) -> str:
    return "[" + ", ".join(strs) + "]"


# ---------------------------------------------------------------------------
# scan


def _scan_row(case: HermitianCase, datum, constants, c: Fraction) -> dict:
    verdict = classify_scalar(datum, c)
    # constants.b is the line offset <rho, gamma^v>
    z = c + constants.b
    closed_form = closed_form_reducible(case, c)
    return {
        "case": case.label,
        "c": c,
        "z": z,
        "verdict": verdict.verdict,
        "route": verdict.route,
        "abc_screen": abc_verdict(constants, z),
        "closed_form": closed_form,
        "agree": (verdict.verdict == REDUCIBLE) == closed_form,
    }


def cmd_scan(args) -> int:
    [case] = _cases(args)
    lo, hi = _parse_window(args.window)
    step = parse_rational(args.step)
    [ks] = _grids([(lo, hi)], step)
    grid = [k * step for k in ks]
    datum = build_datum(case)
    constants = abc_constants(case)
    rows = (_scan_row(case, datum, constants, c) for c in grid)
    # Each row is printed as soon as it is decided.
    if args.format == "json":
        head = {
            "case": _case_json(case),
            "label": case.label,
            "window": [format_rational(lo), format_rational(hi)],
            "step": format_rational(step),
        }
        # The bytes of _dumps(payload) for payload = {**head, "rows": rows},
        # written one member and one row at a time.
        members = "".join(f"\n  {_dumps(k)}: {_dumps(v, '  ')}," for k, v in head.items())
        print("{" + members + '\n  "rows": [', end="")
        sep = "\n    "
        for r in rows:
            row = {**r, "c": format_rational(r["c"]), "z": format_rational(r["z"])}
            print(sep + _dumps(row, "    "), end="")
            sep = ",\n    "
        print("\n  ]\n}" if grid else "]\n}")
        return 0
    print("case\tc\tz\tverdict\troute\tabc_screen\tclosed_form\tagree")
    for r in rows:
        print(
            f"{r['case']}\t{format_rational(r['c'])}\t{format_rational(r['z'])}"
            f"\t{r['verdict']}\t{r['route']}\t{r['abc_screen']}"
            f"\t{str(r['closed_form']).lower()}\t{str(r['agree']).lower()}"
        )
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


def _crosscheck_instance(case: HermitianCase, window, ks: range, step: Fraction) -> dict:
    """Counts, mismatches and contradictions of one case; other rows are dropped."""
    datum = build_datum(case)
    constants = abc_constants(case)
    points = reducible = 0
    mismatches, contradictions = [], []
    for k in ks:
        r = _scan_row(case, datum, constants, k * step)
        points += 1
        reducible += r["verdict"] == REDUCIBLE
        if not r["agree"]:
            mismatches.append(r)
        if (r["abc_screen"] == KNOWN_SIMPLE and r["verdict"] == REDUCIBLE) or (
            r["abc_screen"] == KNOWN_REDUCIBLE and r["verdict"] != REDUCIBLE
        ):
            contradictions.append(r)
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
    if args.window is None:
        # z = A - 5 .. B + 10, for z = c + B
        windows = [(con.a - con.b - 5, Fraction(10)) for con in map(abc_constants, cases)]
    else:
        windows = [_parse_window(args.window)] * len(cases)
    step = parse_rational(args.step)
    grids = _grids(windows, step)
    results = [
        _crosscheck_instance(case, w, ks, step) for case, w, ks in zip(cases, windows, grids)
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
                    "mismatches": [format_rational(x["c"]) for x in r["mismatches"]],
                    "contradictions": [
                        format_rational(x["c"]) for x in r["contradictions"]
                    ],
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
        for x in r["mismatches"]:
            print(
                f"  MISMATCH c={format_rational(x['c'])}: oracle {x['verdict']}"
                f" vs closed form {str(x['closed_form']).lower()}"
            )
        for x in r["contradictions"]:
            print(
                f"  CONTRADICTION c={format_rational(x['c'])}: oracle {x['verdict']}"
                f" vs screen {x['abc_screen']}"
            )
    total = sum(r["points"] for r in results)
    print(f"crosscheck: {'PASS' if ok else 'FAIL'} ({len(results)} instances, {total} points)")
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# datum dump


def cmd_datum_dump(args) -> int:
    [case] = _cases(args)
    datum = build_datum(case)
    payload = {
        "case": _case_json(case),
        "label": case.label,
        "ambient_dim": datum.ambient_dim,
        "simple_roots": [_w(a) for a in datum.simple_roots],
        "levi_simples": [_w(a) for a in datum.levi_simples],
        "noncompact_simple": _w(datum.noncompact_simple),
        "nilradical_roots": [_w(b) for b in datum.nilradical_roots],
        "rho": _w(datum.rho),
        "gamma": _w(datum.gamma),
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
