"""Command-line front end.

Subcommands compute crystal graphs, step-by-step characters, window
sums, tableau polynomials, string-function limits, verification suites,
and the non-admissible-letter decomposition search.  Every command
writes deterministic output: identical inputs give byte-identical
bytes; every command runs on one thread.  A --format the subcommand
cannot write (verify writes JSON only), a negative count bound, or an
option of another verify suite or onedsum kind exits 2 before any work
is done; an --out that cannot be written exits 2 after it.  A window deeper than
the interpreter stack allows exits 4 on any subcommand, with a "guard:"
line naming the subcommand and the recursion limit.
character computes at the requested weight; a node that is not scheduled
borrows the words of a scheduled node through a diagram symmetry
(demazure_schedule), recorded under "lambda" in the output.

Exit codes: 0 success, 2 bad configuration or unwritable --out,
3 verification mismatch, 4 stabilization window guard tripped or
interpreter stack exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from functools import cache
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .crystals import PerfectCrystal, perfect_crystal, verify_perfect
from .demazure import (
    character_by_operators,
    character_by_paths,
    demazure_schedule,
    operator_characters,
)
from .formulas import verify_type
from .onedsums import (
    StabilizationGuardError,
    character_at_full_segment,
    character_via_onedsums,
    check_disjoint_decomposition,
    g_enumerate,
    g_recursive,
    kostka,
    stabilized_limit,
    x_by_weyl_sum,
    x_enumerate,
    x_recursive,
)
from .qring import LaurentPoly
from .weights import FormalCharacter, Weight, dominant_classical_weights

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISMATCH = 3
EXIT_GUARD = 4


class ConfigError(Exception):
    """Bad command-line input; reported on stderr with exit code 2."""


# ---------------------------------------------------------------------------
# Parsing helpers


def _crystal(family: str, rank: int) -> PerfectCrystal:
    try:
        return perfect_crystal(family, rank)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_weight(text: str, size: int) -> Weight:
    """A weight token: either L<i> for a fundamental weight or a
    comma-separated coordinate list over all nodes."""
    text = text.strip()
    if text.upper().startswith("L") and "," not in text:
        coords = [0] * size
        coords[_parse_lambda_node(text, size)] = 1
        return Weight(tuple(coords))
    try:
        coords = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad weight token {text!r}") from exc
    if len(coords) != size:
        raise ConfigError(
            f"weight {text!r} has {len(coords)} coordinates, expected {size}"
        )
    return Weight(coords)


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad integer list {text!r}") from exc


def _require_letter(crystal: PerfectCrystal, b: str) -> str:
    if b not in crystal.elements:
        raise ConfigError(
            f"letter {b!r} is not in the alphabet {list(crystal.elements)}"
        )
    return b


def _require_at_least(option: str, value: int | None, low: int) -> None:
    if value is not None and value < low:
        bound = f"at least {low}" if low else "nonnegative"
        raise ConfigError(f"{option} must be {bound}, got {value}")


def _parse_lambda_node(text: str, size: int) -> int:
    text = text.strip()
    if not text.upper().startswith("L"):
        raise ConfigError(f"highest weights are selected by node token L0..L{size - 1}")
    try:
        node = int(text[1:])
    except ValueError as exc:
        raise ConfigError(f"bad weight token {text!r}") from exc
    if not 0 <= node < size:
        raise ConfigError(
            f"node {node} out of range; this diagram has nodes 0..{size - 1}"
        )
    return node


# ---------------------------------------------------------------------------
# Output helpers


def _poly_obj(poly: LaurentPoly) -> dict:
    return {"terms": _poly_rows(poly), "display": str(poly)}


def _json_text(obj) -> str:
    """obj as ``json.dumps(obj, indent=2)`` writes it, plus a newline.

    The stdlib falls back to its slow pure-Python encoder once ``indent``
    is given, so the layout is written here: dicts with str keys, lists,
    tuples, strings, ints, bools and None by the stdlib's rules, and a
    ``FormalCharacter`` as the term list of its sorted int keys, one line
    template per term.  A character equal to one already written in obj
    reuses that text, re-indented when it sits at another depth.  Any
    other value goes to ``json.dumps``, with its bytes or its TypeError.
    """
    out: list[str] = []
    _write_json(obj, "\n", out, [])
    out.append("\n")
    return "".join(out)


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _write_json(obj, newline: str, out: list[str], written: list) -> None:
    """Append the chunks of obj; ``newline`` is a newline plus the indent
    of the line obj starts on, and ``written`` holds (character, newline,
    text) for each distinct character written so far."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None or obj is True or obj is False:
        out.append(_JSON_CONSTANTS[obj])
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write_json(item, inner, out, written)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in obj.items():
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(value, inner, out, written)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, FormalCharacter):
        out.append(_character_text(obj, newline, written))
    else:
        out.append(json.dumps(obj))


def _character_text(chi: FormalCharacter, newline: str, written: list) -> str:
    """The term list of chi, or the text of an equal character written
    before, with its newline-plus-indent swapped for this one."""
    for other, at, text in written:
        if other == chi:
            return text if at == newline else text.replace(at, newline)
    text = _format_character(chi, newline)
    written.append((chi, newline, text))
    return text


def _format_character(chi: FormalCharacter, newline: str) -> str:
    """The term list of chi: per term ``{"weight": {"lambda": [coords],
    "delta": [delta, 1]}, "coeff": c}`` in sorted key order, each written
    by one %-template."""
    items = sorted(chi.to_keys().items())
    if not items:
        return "[]"
    term = newline + "  "
    field = term + "  "
    part = field + "  "
    coord = part + "  "
    lam = ("," + coord).join(["%d"] * (len(items[0][0]) - 1))
    template = (
        term + "{" + field + '"weight": {' + part + '"lambda": [' + coord + lam + part + "],"
        + part + '"delta": [' + coord + "%d," + coord + "1" + part + "]"
        + field + "}," + field + '"coeff": %d' + term + "}"
    )
    return "[" + ",".join([template % (*key, c) for key, c in items]) + newline + "]"


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _poly_rows(poly: LaurentPoly) -> list[list]:
    return [[str(exp), coeff] for exp, coeff in poly.terms()]


def _character_rows(chi: FormalCharacter) -> list[list]:
    return [
        [" ".join(map(str, key[:-1])), str(key[-1]), coeff]
        for key, coeff in sorted(chi.to_keys().items())
    ]


def _emit(text: str, out: str | None) -> None:
    data = text.encode("utf-8")
    if out:
        try:
            Path(out).write_bytes(data)
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc.strerror}") from exc
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


# Output formats of each subcommand, its default first.
_FORMATS = {
    "graph": ("dot", "json", "csv"),
    "character": ("json", "csv"),
    "onedsum": ("json", "csv"),
    "kostka": ("json", "csv"),
    "stringfn": ("json", "csv"),
    "verify": ("json",),
    "decomp-search": ("json", "csv"),
}


def _check_format(args) -> None:
    """Reject a format the subcommand cannot write, before any work."""
    allowed = _FORMATS[args.command]
    if args.format and args.format not in allowed:
        if len(allowed) <= 2:
            names = " or ".join(allowed)
        else:
            names = ", ".join(allowed[:-1]) + ", or " + allowed[-1]
        raise ConfigError(
            f"{args.command} output supports {names}, not {args.format!r}"
        )


def _want(args) -> str:
    return args.format or _FORMATS[args.command][0]


def _emit_json_or_csv(args, obj, header: list[str], rows) -> None:
    """Write obj as JSON (the default) or a CSV table; ``rows`` is a
    zero-argument function, so a JSON run never builds the table."""
    if _want(args) == "csv":
        _emit(_csv_text(header, rows()), args.out)
    else:
        _emit(_json_text(obj), args.out)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_graph(args) -> int:
    crystal = _crystal(args.type, args.rank)
    fmt = _want(args)
    if fmt == "dot":
        _emit(crystal.to_dot() + "\n", args.out)
        return EXIT_OK
    edges = []
    for i in crystal.cartan.index_set:
        for b in crystal.elements:
            target = crystal.f(i, b)
            if target is not None:
                edges.append((b, target, i))
    if fmt == "csv":
        _emit(
            _csv_text(["from", "to", "label"], [[b, t, i] for b, t, i in edges]),
            args.out,
        )
        return EXIT_OK
    obj = {
        "type": args.type,
        "rank": args.rank,
        "alphabet": list(crystal.elements),
        "weights": {b: crystal.weight(b).to_json_obj() for b in crystal.elements},
        "edges": [{"from": b, "to": t, "label": i} for b, t, i in edges],
    }
    _emit(_json_text(obj), args.out)
    return EXIT_OK


def cmd_character(args) -> int:
    _require_at_least("--k", args.k, 0)
    crystal = _crystal(args.type, args.rank)
    size = crystal.cartan.size
    requested = _parse_lambda_node(args.lam, size)
    lam = crystal.cartan.fundamental_weight(requested)
    try:
        schedule = demazure_schedule(crystal, lam, variant=args.variant)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    characters = {}
    if args.method in ("paths", "both"):
        characters["paths"] = character_by_paths(schedule, args.k)
    if args.method in ("operators", "both"):
        characters["operators"] = character_by_operators(schedule, args.k)
    equal = None
    if args.method == "both":
        equal = characters["paths"] == characters["operators"]
    segments, remainder = divmod(args.k, schedule.d)
    full_segment = None
    if remainder == 0 and args.k > 0:
        full_segment = character_at_full_segment(schedule, segments)
    primary = characters.get("paths", characters.get("operators"))
    obj = {
        "type": args.type,
        "rank": args.rank,
        "lambda": {
            "requested": f"L{requested}",
            "computed": f"L{schedule.lam_node}",
            "node_map": list(schedule.node_map or range(size)),
        },
        "k": args.k,
        "steps_per_segment": schedule.d,
        "word": [schedule.flat_index(m) for m in range(1, args.k + 1)],
        "characters": dict(sorted(characters.items())),
    }
    if equal is not None:
        obj["equal"] = equal
    if full_segment is not None:
        obj["full_segment"] = full_segment
        obj["full_segment_equal"] = full_segment == primary
    _emit_json_or_csv(
        args, obj, ["weight", "delta", "coeff"], lambda: _character_rows(primary)
    )
    if equal is False or (full_segment is not None and not obj["full_segment_equal"]):
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_onedsum(args) -> int:
    # Each weight option is read by one kind of sum alone.
    for option, kinds in {"mu": "g", "xi": "x and xbar", "eta": "x and xbar"}.items():
        if args.kind not in kinds.split(" and ") and getattr(args, option) is not None:
            raise ConfigError(f"--{option} is an option of onedsum {kinds}, not of onedsum {args.kind}")
    _require_at_least("--j", args.j, 0)
    crystal = _crystal(args.type, args.rank)
    size = crystal.cartan.size
    b = _require_letter(crystal, args.b)
    params: dict = {"type": args.type, "rank": args.rank, "b": b, "j": args.j}
    method_name = args.method
    if args.kind == "g":
        if args.mu is None:
            raise ConfigError("kind g needs --mu")
        mu = _parse_weight(args.mu, size)
        params["mu"] = mu.to_json_obj()
        if args.method == "enumerate":
            poly = g_enumerate(crystal, b, mu, args.j)
        elif args.method == "recursive":
            poly = g_recursive(crystal, b, mu, args.j)
        else:
            raise ConfigError("kind g supports methods enumerate and recursive")
    else:
        if args.xi is None or args.eta is None:
            raise ConfigError(f"kind {args.kind} needs --xi and --eta")
        xi = _parse_weight(args.xi, size)
        eta = _parse_weight(args.eta, size)
        params["xi"] = xi.to_json_obj()
        params["eta"] = eta.to_json_obj()
        classical = args.kind == "xbar"
        if args.method == "enumerate":
            poly = x_enumerate(crystal, b, xi, eta, args.j, classical=classical)
        elif args.method == "recursive":
            poly = x_recursive(crystal, b, xi, eta, args.j, classical=classical)
        else:
            method_name = "weyl_sum"
            try:
                poly = x_by_weyl_sum(crystal, b, xi, eta, args.j, classical=classical)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
    obj = {
        "kind": args.kind,
        "params": params,
        "method": method_name,
        "polynomial": _poly_obj(poly),
    }
    _emit_json_or_csv(args, obj, ["exponent", "coefficient"], lambda: _poly_rows(poly))
    return EXIT_OK


def cmd_kostka(args) -> int:
    _require_at_least("--l", args.l, 0)
    _require_at_least("--j", args.j, 0)
    _require_at_least("--n", args.n, 1)
    xi = _parse_ints(args.xi)
    try:
        poly = kostka(xi, args.l, args.j, args.n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    obj = {
        "xi": list(xi),
        "l": args.l,
        "j": args.j,
        "n": args.n,
        "polynomial": _poly_obj(poly),
    }
    _emit_json_or_csv(args, obj, ["exponent", "coefficient"], lambda: _poly_rows(poly))
    return EXIT_OK


def cmd_stringfn(args) -> int:
    _require_at_least("--M", args.M, 0)
    _require_at_least("--max-window", args.max_window, 0)
    crystal = _crystal(args.type, args.rank)
    size = crystal.cartan.size
    node = _parse_lambda_node(args.lam, size)
    lam = crystal.cartan.fundamental_weight(node)
    mu = _parse_weight(args.mu, size) if args.mu else None
    try:
        poly = stabilized_limit(
            "g", crystal, lam, args.M, mu=mu, max_j=args.max_window
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    coefficients = [int(poly.coeff(m)) for m in range(args.M + 1)]
    obj = {
        "type": args.type,
        "rank": args.rank,
        "lambda": f"L{node}",
        "M": args.M,
        "coefficients": coefficients,
        "polynomial": _poly_obj(poly),
    }
    if mu is not None:
        obj["mu"] = mu.to_json_obj()
    _emit_json_or_csv(args, obj, ["exponent", "coefficient"], lambda: _poly_rows(poly))
    return EXIT_OK


def cmd_verify(args) -> int:
    # Each of these options is read by one suite alone.
    for option, suite in {"jmax": "formulas", "kmax": "character", "level": "perfect"}.items():
        if suite != args.suite and getattr(args, option) is not None:
            raise ConfigError(f"--{option} is an option of verify {suite}, not of verify {args.suite}")
    if args.suite == "formulas":
        if args.jmax is None:
            raise ConfigError("verify formulas needs --jmax")
        _require_at_least("--jmax", args.jmax, 0)
        report = verify_type(_crystal(args.type, args.rank), args.jmax)
        _emit(_json_text(report), args.out)
        return EXIT_OK if not report["mismatches"] else EXIT_MISMATCH
    if args.suite == "character":
        _require_at_least("--kmax", args.kmax, 0)
        crystal = _crystal(args.type, args.rank)
        cases = []
        failed = False
        for node in crystal.cartan.index_set:
            lam = crystal.cartan.fundamental_weight(node)
            for variant in (1, 2):
                try:
                    schedule = demazure_schedule(crystal, lam, variant=variant)
                except ValueError:
                    continue
                k_max = args.kmax if args.kmax is not None else 2 * schedule.d
                mismatches = []
                for k, by_operators in enumerate(operator_characters(schedule, k_max)):
                    chi = character_by_paths(schedule, k)
                    j, rest = divmod(k, schedule.d)
                    if (
                        chi != by_operators
                        or chi != character_via_onedsums(schedule, k)
                        or (k and not rest and chi != character_at_full_segment(schedule, j))
                    ):
                        mismatches.append(k)
                failed = failed or bool(mismatches)
                cases.append(
                    {
                        "lambda": f"L{node}",
                        "variant": variant,
                        "k_max": k_max,
                        "mismatches": mismatches,
                    }
                )
        obj = {
            "suite": "character",
            "type": args.type,
            "rank": args.rank,
            "cases": cases,
        }
        _emit(_json_text(obj), args.out)
        return EXIT_MISMATCH if failed else EXIT_OK
    level = 1 if args.level is None else args.level
    _require_at_least("--level", level, 1)
    crystal = _crystal(args.type, args.rank)
    report = verify_perfect(crystal, level)
    obj = {"suite": "perfect", "type": args.type, "rank": args.rank, "level": level,
           "ok": report.ok, "failures": list(report.failures)}
    _emit(_json_text(obj), args.out)
    return EXIT_OK if report.ok else EXIT_MISMATCH


def cmd_decomp_search(args) -> int:
    _require_at_least("--level", args.level, 1)
    crystal = _crystal(args.type, args.rank)
    entries = []
    all_found = True
    for xi in dominant_classical_weights(crystal.cartan, args.level):
        report = check_disjoint_decomposition(crystal, xi, classical=args.classical)
        all_found = all_found and report.found
        entries.append(
            {
                "xi": list(xi.lambda_coords),
                "found": report.found,
                "non_admissible": list(report.non_admissible),
                "witness": [
                    {"root": root, "index": index, "string": list(string)}
                    for root, index, string in report.witness
                ],
            }
        )
    obj = {
        "type": args.type,
        "rank": args.rank,
        "level": args.level,
        "classical": args.classical,
        "results": entries,
    }
    _emit_json_or_csv(
        args,
        obj,
        ["xi", "found", "strings"],
        lambda: [
            [" ".join(str(c) for c in entry["xi"]), entry["found"], len(entry["witness"])]
            for entry in entries
        ],
    )
    return EXIT_OK if all_found else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# Argument wiring


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: argparse reads the
    output streams only when it prints, and every parse makes a fresh
    namespace."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="FILE", help="write output here instead of stdout")
    common.add_argument("--format", choices=["json", "dot", "csv"], help="output format")

    parser = argparse.ArgumentParser(
        prog="demchar",
        description="Exact path-model characters and window sums for the six "
        "level-one letter crystals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("graph", parents=[common], help="crystal arrow graph")
    g.add_argument("type")
    g.add_argument("rank", type=int)
    g.set_defaults(func=cmd_graph)

    c = sub.add_parser("character", parents=[common], help="step-k character")
    c.add_argument("type")
    c.add_argument("rank", type=int)
    c.add_argument("--lambda", dest="lam", required=True, help="highest weight token L0..Ln")
    c.add_argument("--k", type=int, required=True, help="number of lowering steps")
    c.add_argument("--method", choices=["paths", "operators", "both"], default="both")
    c.add_argument("--variant", type=int, choices=[1, 2], default=1)
    c.set_defaults(func=cmd_character)

    o = sub.add_parser("onedsum", parents=[common], help="window generating polynomial")
    o.add_argument("kind", choices=["g", "x", "xbar"])
    o.add_argument("--type", required=True)
    o.add_argument("--rank", type=int, required=True)
    o.add_argument("--b", required=True, help="boundary letter")
    o.add_argument("--j", type=int, required=True, help="window length")
    o.add_argument("--mu", help="weight token (kind g)")
    o.add_argument("--xi", help="weight token (kinds x, xbar)")
    o.add_argument("--eta", help="weight token (kinds x, xbar)")
    o.add_argument(
        "--method", choices=["enumerate", "recursive", "weyl"], default="recursive"
    )
    o.set_defaults(func=cmd_onedsum)

    k = sub.add_parser("kostka", parents=[common], help="tableau q-polynomial")
    k.add_argument("--xi", required=True, help="partition, comma-separated")
    k.add_argument("--l", type=int, required=True, help="row length of the content box")
    k.add_argument("--j", type=int, required=True, help="row count of the content box")
    k.add_argument("--n", type=int, required=True, help="rank bound")
    k.set_defaults(func=cmd_kostka)

    s = sub.add_parser("stringfn", parents=[common], help="stabilized string function")
    s.add_argument("--type", required=True)
    s.add_argument("--rank", type=int, required=True)
    s.add_argument("--lambda", dest="lam", required=True, help="highest weight token")
    s.add_argument("--M", type=int, required=True, help="truncation degree")
    s.add_argument("--mu", help="optional level-zero direction")
    s.add_argument(
        "--max-window",
        type=int,
        default=64,
        dest="max_window",
        help="window-length guard for stabilization",
    )
    s.set_defaults(func=cmd_stringfn)

    v = sub.add_parser("verify", parents=[common], help="verification suites")
    v.add_argument("suite", choices=["formulas", "character", "perfect"])
    v.add_argument("--type", required=True)
    v.add_argument("--rank", type=int, required=True)
    v.add_argument("--jmax", type=int, help="window bound (formulas)")
    v.add_argument("--kmax", type=int, help="step bound (character)")
    v.add_argument("--level", type=int, help="level (perfect; default 1)")
    v.set_defaults(func=cmd_verify)

    d = sub.add_parser(
        "decomp-search", parents=[common], help="non-admissible letter decomposition"
    )
    d.add_argument("--type", required=True)
    d.add_argument("--rank", type=int, required=True)
    d.add_argument("--level", type=int, default=1)
    d.add_argument("--classical", action="store_true", help="check classical nodes only")
    d.set_defaults(func=cmd_decomp_search)
    return parser


# Options that take a coordinate vector.  argparse reads a value with a
# leading minus sign, such as "-1,1", as an option, so such a value is
# joined to its option as "--mu=-1,1" before parsing.
_VECTOR_OPTIONS = ("--mu", "--xi", "--eta")
_NEGATIVE_VECTOR = re.compile(r"-\d+(\s*,\s*-?\d+)*")


def _join_negative_vectors(argv: list[str]) -> list[str]:
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _VECTOR_OPTIONS and _NEGATIVE_VECTOR.fullmatch(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(
            _join_negative_vectors(sys.argv[1:] if argv is None else list(argv))
        )
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_format(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StabilizationGuardError as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except RecursionError:
        print(
            f"guard: {args.command} needs a window deeper than the interpreter "
            f"stack (recursion limit {sys.getrecursionlimit()})",
            file=sys.stderr,
        )
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
