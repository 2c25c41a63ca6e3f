"""Command-line front end.

Subcommands compute crystal graphs, step-by-step characters, window
sums, tableau polynomials, string-function limits, verification suites,
and the non-admissible-letter decomposition search.  Every command
writes deterministic output: identical inputs give byte-identical
bytes; every command runs on one thread.  A --format the subcommand
cannot write (verify writes JSON only), a negative count bound, or an
option of another verify suite or onedsum kind exits 2 before any work
is done; so does a step count whose character keys would leave their
32-bit slots, on character and verify character alike; an --out that
cannot be written exits 2 after it.  A window deeper than
the interpreter stack allows exits 4 on any subcommand, with a "guard:"
line naming the subcommand and the recursion limit.
character computes at the requested weight; a node that is not scheduled
borrows the words of a scheduled node through a diagram symmetry
(demazure_schedule), recorded under "lambda" in the output.

Output goes to stdout or the --out file as it is built.  The small JSON
chunks collect in a list and go out at once; a character's term list,
JSON or CSV, goes out in batches of _BATCH_TERMS terms, each one slice
of its sorted packed keys formatted by one %-format.  So the writer
holds at once the small chunks, the sorted keys and one batch, plus the
text of a character of at most _KEEP_BATCHES batches while the same
object is still to be written later in the output.  A reader that closes
stdout early ends the output quietly, with the command's exit code.

A command builds the argument parser of its own subcommand alone; help,
usage and parse errors come from the full tree of all seven, so their
bytes do not depend on which tree parsed first.

Exit codes: 0 success, 2 bad configuration or unwritable --out,
3 verification mismatch, 4 stabilization window guard tripped or
interpreter stack exceeded.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from functools import cache
from json.encoder import encode_basestring_ascii
from typing import BinaryIO, Iterator

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


def _poly_rows(poly: LaurentPoly) -> list[list]:
    return [[str(exp), coeff] for exp, coeff in poly.terms()]


# A character's text is formatted and written this many terms at a time.
_BATCH_TERMS = 1000
# A character that sits again later in the output keeps its text for
# it only up to this many batches; a larger one is rendered again.
_KEEP_BATCHES = 10


@contextmanager
def _output(out: str | None) -> Iterator[BinaryIO]:
    """The binary stream a command writes to: the --out file, where an
    OSError exits 2, or stdout, flushed at the end.  Once the reader of
    stdout has gone, the rest of the output is dropped and the command
    exits as it would have: stdout points at the null device, so that
    the flush at exit does not raise again."""
    if out:
        try:
            with open(out, "wb") as stream:
                yield stream
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc.strerror}") from exc
        return
    try:
        yield sys.stdout.buffer
        sys.stdout.buffer.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(args, obj, table=None) -> None:
    """Write a command's output in its --format to --out or stdout: obj
    as JSON, the CSV table of the (header, rows) pair that ``table()``
    returns, so that a JSON run never builds it, or the text obj (dot)."""
    fmt = _want(args)
    with _output(args.out) as stream:
        if fmt == "json":
            _write_json(obj, stream)
        elif fmt == "csv":
            _write_csv(*table(), stream)
        else:
            stream.write(obj.encode("utf-8"))


def _write_json(obj, stream: BinaryIO) -> None:
    """Write obj as ``json.dumps(obj, indent=2)`` writes it, plus a
    newline, to the binary stream.

    The stdlib falls back to its slow pure-Python encoder once ``indent``
    is given, so the layout is written here: dicts with str keys, lists,
    tuples, strings, ints, bools and None by the stdlib's rules, and any
    other value by ``json.dumps``, with its bytes or its TypeError.  The
    chunks collect in one list and go out in one write each side of a
    ``FormalCharacter``, whose term list goes out ``_BATCH_TERMS`` terms
    per write (``_character_batches``).  So at once the writer holds the
    small chunks, one batch, and the text of each character of at most
    ``_KEEP_BATCHES`` batches whose object sits again later in obj: that
    text is kept until the object's last place is written, re-indented
    per batch where it sits at another depth.  A character whose object
    does not sit again keeps none, and neither does a larger one: each
    place renders it again.  Characters are matched by identity and never
    compared, so equal ones that are distinct objects render apart.
    """
    out: list[str] = []
    characters: list[tuple[int, FormalCharacter, str]] = []
    _json_chunks(obj, "\n", out, characters)
    out.append("\n")
    # Per character object, the index of its last place in obj.
    last = {id(chi): i for i, (_, chi, _) in enumerate(characters)}
    kept: dict[int, tuple[str, list[bytes]]] = {}
    start = 0
    for i, (at, chi, newline) in enumerate(characters):
        stream.write("".join(out[start:at]).encode())
        start = at
        key = id(chi)
        if key in kept:
            indent, batches = kept[key] if last[key] > i else kept.pop(key)
            if indent != newline:
                old, new = indent.encode(), newline.encode()
                batches = (batch.replace(old, new) for batch in batches)
        else:
            batches = _character_batches(chi, newline)
            if last[key] > i and len(chi) <= _KEEP_BATCHES * _BATCH_TERMS:
                batches = list(batches)
                kept[key] = newline, batches
        for batch in batches:
            stream.write(batch)
    stream.write("".join(out[start:]).encode())


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_chunks(obj, newline: str, out: list[str], characters: list) -> None:
    """Append the chunks of obj to ``out``; ``newline`` is a newline plus
    the indent of the line obj starts on.  A nonempty character appends
    only the line that closes its term list, and goes on ``characters``
    as (its place in ``out``, the character, ``newline``)."""
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
            _json_chunks(item, inner, out, characters)
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
            _json_chunks(value, inner, out, characters)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, FormalCharacter):
        if obj:
            characters.append((len(out), obj, newline))
            out.append(newline + "]")
        else:
            out.append("[]")
    else:
        out.append(json.dumps(obj))


def _character_batches(chi: FormalCharacter, newline: str) -> Iterator[bytes]:
    """The term list of a nonempty chi up to its closing line,
    ``_BATCH_TERMS`` terms per bytes: per term ``{"weight": {"lambda":
    [coords], "delta": [delta, 1]}, "coeff": c}`` in sorted key order,
    after "[" for the first term and "," for the others.  A batch is one
    %-format of the term template, repeated, by the batch's flat tuple."""
    term = (newline + "  ").encode()
    field = term + b"  "
    part = field + b"  "
    coord = part + b"  "
    batches = chi.term_batches(_BATCH_TERMS)
    count, values = next(batches)
    lam = (b"," + coord).join([b"%d"] * (len(values) // count - 2))
    template = (
        term + b"{" + field + b'"weight": {' + part + b'"lambda": [' + coord + lam + part
        + b"]," + part + b'"delta": [' + coord + b"%d," + coord + b"1" + part + b"]"
        + field + b"}," + field + b'"coeff": %d' + term + b"}"
    )
    each = b"," + template
    yield (b"[" + template + each * (count - 1)) % values
    for count, values in batches:
        yield each * count % values


def _write_csv(header: list[str], rows, stream: BinaryIO) -> None:
    """Write the table as ``csv.writer`` writes it with "\n" line ends.
    Rows given as a ``FormalCharacter`` are its terms in key
    order, one row (weight coordinates joined by spaces, delta, coeff)
    per term, ``_BATCH_TERMS`` rows per %-format and write; csv quotes
    none of those fields."""
    import csv  # only CSV output needs it, so no other run imports it

    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    if not isinstance(rows, FormalCharacter):
        writer.writerows(rows)
        stream.write(text.getvalue().encode("utf-8"))
        return
    stream.write(text.getvalue().encode("utf-8"))
    row = b""
    for count, values in rows.term_batches(_BATCH_TERMS):
        row = row or b" ".join([b"%d"] * (len(values) // count - 2)) + b",%d,%d\n"
        stream.write(row * count % values)


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


# ---------------------------------------------------------------------------
# Subcommands


def cmd_graph(args) -> int:
    crystal = _crystal(args.type, args.rank)
    fmt = _want(args)
    if fmt == "dot":
        _emit(args, crystal.to_dot() + "\n")
        return EXIT_OK
    edges = []
    for i in crystal.cartan.index_set:
        for b in crystal.elements:
            target = crystal.f(i, b)
            if target is not None:
                edges.append((b, target, i))
    obj = {
        "type": args.type,
        "rank": args.rank,
        "alphabet": list(crystal.elements),
        "weights": {b: crystal.weight(b).to_json_obj() for b in crystal.elements},
        "edges": [{"from": b, "to": t, "label": i} for b, t, i in edges],
    }
    _emit(args, obj, lambda: (["from", "to", "label"], edges))
    return EXIT_OK


def cmd_character(args) -> int:
    _require_at_least("--k", args.k, 0)
    crystal = _crystal(args.type, args.rank)
    size = crystal.cartan.size
    requested = _parse_lambda_node(args.lam, size)
    lam = crystal.cartan.fundamental_weight(requested)
    characters = {}
    full_segment = None
    try:
        schedule = demazure_schedule(crystal, lam, variant=args.variant)
        if args.method in ("paths", "both"):
            characters["paths"] = character_by_paths(schedule, args.k)
        if args.method in ("operators", "both"):
            characters["operators"] = character_by_operators(schedule, args.k)
        segments, remainder = divmod(args.k, schedule.d)
        if remainder == 0 and args.k > 0:
            full_segment = character_at_full_segment(schedule, segments)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # Equal characters go to the writer as one object, whose text it reuses.
    equal = None
    if args.method == "both":
        equal = characters["paths"] == characters["operators"]
        if equal:
            characters["operators"] = characters["paths"]
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
        full_segment_equal = full_segment == primary
        obj["full_segment"] = primary if full_segment_equal else full_segment
        obj["full_segment_equal"] = full_segment_equal
    _emit(args, obj, lambda: (["weight", "delta", "coeff"], primary))
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
    _emit(args, obj, lambda: (["exponent", "coefficient"], _poly_rows(poly)))
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
    _emit(args, obj, lambda: (["exponent", "coefficient"], _poly_rows(poly)))
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
    _emit(args, obj, lambda: (["exponent", "coefficient"], _poly_rows(poly)))
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
        _emit(args, report)
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
                try:
                    for k, by_operators in enumerate(operator_characters(schedule, k_max)):
                        chi = character_by_paths(schedule, k)
                        j, rest = divmod(k, schedule.d)
                        if (
                            chi != by_operators
                            or chi != character_via_onedsums(schedule, k)
                            or (k and not rest and chi != character_at_full_segment(schedule, j))
                        ):
                            mismatches.append(k)
                except ValueError as exc:
                    raise ConfigError(str(exc)) from exc
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
        _emit(args, obj)
        return EXIT_MISMATCH if failed else EXIT_OK
    level = 1 if args.level is None else args.level
    _require_at_least("--level", level, 1)
    crystal = _crystal(args.type, args.rank)
    report = verify_perfect(crystal, level)
    obj = {"suite": "perfect", "type": args.type, "rank": args.rank, "level": level,
           "ok": report.ok, "failures": list(report.failures)}
    _emit(args, obj)
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
    _emit(
        args,
        obj,
        lambda: (
            ["xi", "found", "strings"],
            [
                [" ".join(str(c) for c in entry["xi"]), entry["found"], len(entry["witness"])]
                for entry in entries
            ],
        ),
    )
    return EXIT_OK if all_found else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# Argument wiring


def _graph_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("type")
    p.add_argument("rank", type=int)
    p.set_defaults(func=cmd_graph)


def _character_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("type")
    p.add_argument("rank", type=int)
    p.add_argument("--lambda", dest="lam", required=True, help="highest weight token L0..Ln")
    p.add_argument("--k", type=int, required=True, help="number of lowering steps")
    p.add_argument("--method", choices=["paths", "operators", "both"], default="both")
    p.add_argument("--variant", type=int, choices=[1, 2], default=1)
    p.set_defaults(func=cmd_character)


def _onedsum_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("kind", choices=["g", "x", "xbar"])
    p.add_argument("--type", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--b", required=True, help="boundary letter")
    p.add_argument("--j", type=int, required=True, help="window length")
    p.add_argument("--mu", help="weight token (kind g)")
    p.add_argument("--xi", help="weight token (kinds x, xbar)")
    p.add_argument("--eta", help="weight token (kinds x, xbar)")
    p.add_argument(
        "--method", choices=["enumerate", "recursive", "weyl"], default="recursive"
    )
    p.set_defaults(func=cmd_onedsum)


def _kostka_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--xi", required=True, help="partition, comma-separated")
    p.add_argument("--l", type=int, required=True, help="row length of the content box")
    p.add_argument("--j", type=int, required=True, help="row count of the content box")
    p.add_argument("--n", type=int, required=True, help="rank bound")
    p.set_defaults(func=cmd_kostka)


def _stringfn_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--type", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True, help="highest weight token")
    p.add_argument("--M", type=int, required=True, help="truncation degree")
    p.add_argument("--mu", help="optional level-zero direction")
    p.add_argument(
        "--max-window",
        type=int,
        default=64,
        dest="max_window",
        help="window-length guard for stabilization",
    )
    p.set_defaults(func=cmd_stringfn)


def _verify_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("suite", choices=["formulas", "character", "perfect"])
    p.add_argument("--type", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--jmax", type=int, help="window bound (formulas)")
    p.add_argument("--kmax", type=int, help="step bound (character)")
    p.add_argument("--level", type=int, help="level (perfect; default 1)")
    p.set_defaults(func=cmd_verify)


def _decomp_search_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--type", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--classical", action="store_true", help="check classical nodes only")
    p.set_defaults(func=cmd_decomp_search)


# Each subcommand's help line and options, in the order the usage lists them.
_SUBCOMMANDS = {
    "graph": ("crystal arrow graph", _graph_options),
    "character": ("step-k character", _character_options),
    "onedsum": ("window generating polynomial", _onedsum_options),
    "kostka": ("tableau q-polynomial", _kostka_options),
    "stringfn": ("stabilized string function", _stringfn_options),
    "verify": ("verification suites", _verify_options),
    "decomp-search": ("non-admissible letter decomposition", _decomp_search_options),
}


@cache
def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser, built once per process and command: argparse
    reads the output streams only when it prints, and every parse makes a
    fresh namespace.  With no command it is the full tree.  With one it
    holds that subcommand's parser alone under the same main parser, so
    it parses every argv that names the command as the full tree does,
    and only its help, usage and error lines differ (see ``_parse``)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="FILE", help="write output here instead of stdout")
    common.add_argument("--format", choices=["json", "dot", "csv"], help="output format")

    parser = argparse.ArgumentParser(
        prog="demchar",
        description="Exact path-model characters and window sums for the six "
        "level-one letter crystals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in _SUBCOMMANDS.items():
        if command in (None, name):
            options(sub.add_parser(name, parents=[common], help=help_text))
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed by the trimmed tree of the subcommand it names.  Where
    that tree would print help, usage or an error, or exit, its output is
    dropped and the full tree parses argv again, so those bytes list
    every subcommand; so does an argv that names no subcommand."""
    if argv and argv[0] in _SUBCOMMANDS:
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                return _build_parser(argv[0]).parse_args(argv)
        except SystemExit:
            pass
    return _build_parser().parse_args(argv)


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
    try:
        args = _parse(_join_negative_vectors(sys.argv[1:] if argv is None else list(argv)))
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
