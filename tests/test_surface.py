"""The library surface: every function and method of ``demchar`` is
reached by a compact CLI sweep, or is named on ``ALLOWED`` with the
reason it stays.

A function here is one defined at module level in a layer, private ones
among them, or a method, classmethod, staticmethod, property or cached
property of a class defined there.  Dunders and nested closures do not
count.  A cached function counts by the function it wraps.

The sweep runs every subcommand and output format on the six families at
minimal rank, with admissible ``x``/``xbar`` queries by all three
methods, under ``sys.setprofile``.  It runs in a fresh interpreter: the
crystal builders and the other cached functions run once per process, so
in this one earlier tests would already have run them.  The profile hook
is installed before ``demchar`` is imported, so calls made at import
time count.  After the sweep, ``error_commands`` run too, each with the
exit code it must give: a tripped guard (4) or bad configuration (2).
Run this file as a script to print what the sweep reaches, as JSON; each
function that is neither reached nor allowed is listed on stderr with
its ``file:line``.

The sweep also pins its output: per command, the exit code, the first 16
hex digits of sha256(stdout) and stderr must match ``surface_digests.json``.
After a deliberate change of output, rewrite that file with
``PYTHONPATH=src python tests/test_surface.py --record``.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import io
import json
import os
import subprocess
import sys
from functools import cached_property
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("surface_digests.json")

LAYERS = ("qring", "weights", "crystals", "tensor", "paths", "demazure", "onedsums", "formulas", "cli")

# Functions that the CLI does not reach, each with its reason.  A class
# name allows every method of the class.
ALLOWED = {
    "paths.GroundState.path_f": "paper check: lowering a path by the signature rule",
    "paths.GroundState.path_e": "paper check: raising a path by the signature rule",
    "paths.GroundState._units": "paper check: the signature of a path, read by path_f and path_e",
    "paths.GroundState.path_weight": "bench/tracer.py wraps it for paths.path_weight.calls",
    "paths.grow_paths": "paper check: path sets grown by lowering closures",
    "paths.paths_at_step": "paper check: the grown path set after k steps",
    "tensor.signature_scan": "paper check: the signature rule behind GroundState.path_f/path_e",
    "tensor.TensorWord": "bench/tracer.py wraps TensorWord.energy for tensor.energy.calls",
    "demazure.demazure_paths": "paper check: the path set built two ways",
    "crystals.PerfectCrystal.phi": "paper check: the string lengths GroundState._units reads",
    "onedsums.is_admissible": "bench/workloads.py selects its restricted queries with it",
    "qring.LaurentPoly.to_json_obj": "written only on a verify formulas mismatch",
    "qring.LaurentPoly.truncate": "the tests' reference truncation",
    "formulas.g_closed_form": "the closed form's per-cell route, diffed against g_enumerate and g_recursive by the tests",
    "weights.CartanType.marks": "paper check: the null root as sum of marks times simple roots",
}

# family: (rank, head letter, node of xi and eta) for admissible x/xbar
# queries of length 2 with a nonzero value.
FAMILIES = {
    "A1": (1, "0", 1),
    "B1": (3, "0", 3),
    "D1": (4, "4", 4),
    "A2odd": (3, "1", 1),
    "A2even": (1, "0", 1),
    "D2": (2, "0", 2),
}


def sweep_commands() -> list[list[str]]:
    commands = [
        ["kostka", "--xi", "2,1", "--l", "1", "--j", "3", "--n", "2", "--format", fmt]
        for fmt in ("json", "csv")
    ]
    for family, (rank, b, node) in FAMILIES.items():
        where = ["--type", family, "--rank", str(rank)]
        # the family's first scheduled node, named here so that no crystal
        # is built before the profile hook is on
        lam = f"L{rank if family == 'A2even' else 0}"
        zero = ",".join(["0"] * (rank + 1))
        query = ["--b", b, "--j", "2", "--xi", f"L{node}", "--eta", f"L{node}"]
        commands += [["graph", family, str(rank), "--format", fmt] for fmt in ("dot", "json", "csv")]
        commands += [
            ["character", family, str(rank), "--lambda", lam, "--k", "2", "--format", fmt]
            for fmt in ("json", "csv")
        ]
        commands += [
            ["character", family, str(rank), "--lambda", f"L{node}", "--k", "1", "--method", method]
            for method in ("paths", "operators")
        ]
        commands += [
            ["onedsum", "g", *where, "--b", b, "--j", "2", "--mu", zero, "--method", method,
             "--format", fmt]
            for method, fmt in (("enumerate", "json"), ("recursive", "csv"))
        ]
        commands += [
            ["onedsum", kind, *where, *query, "--method", method]
            for kind in ("x", "xbar")
            for method in ("enumerate", "recursive", "weyl")
        ]
        commands += [
            ["stringfn", *where, "--lambda", lam, "--M", "2"],
            ["verify", "formulas", *where, "--jmax", "1"],
            ["verify", "character", *where, "--kmax", "2"],
            ["verify", "perfect", *where],
            ["decomp-search", *where, "--format", "csv"],
            ["decomp-search", *where, "--classical"],
        ]
    # A full segment under --method both: the full-segment character is
    # written at another indent than the equal ones under "characters".
    commands += [
        ["character", "D1", "4", "--lambda", "L0", "--k", "12", "--method", "both",
         "--format", fmt]
        for fmt in ("json", "csv")
    ]
    # Window 2 is the first whose q-multinomials multiply binomials.
    commands.append(["verify", "formulas", "--type", "A1", "--rank", "1", "--jmax", "2"])
    # The benchmark's A1 rank 1 string function: its windows reach j = 64,
    # where the kernel's coefficient slots widen from 64 to 128 bits.
    commands.append(["stringfn", "--type", "A1", "--rank", "1", "--lambda", "L0", "--M", "30"])
    return commands


def error_commands() -> list[tuple[int, list[str]]]:
    """Commands that must fail, each with its exit code."""
    stringfn = ["stringfn", "--type", "A1", "--rank", "1", "--lambda", "L0"]
    return [
        # three aligned windows do not fit under --max-window
        (4, [*stringfn, "--M", "5", "--max-window", "3"]),
        # the start window is deeper than the interpreter stack
        (4, [*stringfn, "--M", "1500", "--max-window", "4000"]),
        (2, ["character", "A1", "1", "--lambda", "L0", "--k", "2", "--variant", "2"]),
        (2, ["character", "A2even", "1", "--lambda", "L0", "--k", "2"]),
        (2, ["onedsum", "g", "--type", "A1", "--rank", "1", "--b", "0", "--j", "2",
             "--mu", "0,0", "--method", "weyl"]),
        (2, ["verify", "formulas", "--type", "A1", "--rank", "1"]),
        (2, ["onedsum", "g", "--type", "A1", "--rank", "1", "--b", "0", "--j", "1",
             "--mu", "0,0", "--xi", "garbage"]),
    ]


def _code(obj):
    """The code object of a function, method, property or cached
    property, unwrapping a cache; None for anything else."""
    if isinstance(obj, (classmethod, staticmethod)):
        obj = obj.__func__
    elif isinstance(obj, property):
        obj = obj.fget
    elif isinstance(obj, cached_property):
        obj = obj.func
    obj = getattr(obj, "__wrapped__", obj)
    return obj.__code__ if inspect.isfunction(obj) else None


def functions() -> dict:
    """Code object -> "layer.name" or "layer.Class.name" for each function
    and method defined in a layer, dunders left out."""
    found = {}
    for layer in LAYERS:
        module = sys.modules[f"demchar.{layer}"]
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [(None, obj)]
            for attr, member in members:
                if attr is not None and attr.startswith("__") and attr.endswith("__"):
                    continue
                code = _code(member)
                if code is not None:
                    found[code] = f"{layer}.{name}" if attr is None else f"{layer}.{name}.{attr}"
    return found


def covers(entry: str, name: str) -> bool:
    """True when the ALLOWED entry names the function or its class."""
    return entry in (name, name.rpartition(".")[0])


def _run(cli, argv: list[str], profile) -> list:
    """Exit code, stdout digest and stderr of one command, run under the
    profile hook."""
    streams = sys.stdout, sys.stderr
    out = io.BytesIO()
    sys.stdout = io.TextIOWrapper(out)
    sys.stderr = io.StringIO()
    try:
        sys.setprofile(profile)
        try:
            code = cli.main(argv)
        finally:
            sys.setprofile(None)
        sys.stdout.flush()
        return [code, hashlib.sha256(out.getvalue()).hexdigest()[:16], sys.stderr.getvalue()]
    finally:
        sys.stdout, sys.stderr = streams


def sweep() -> dict:
    """Import ``demchar`` and run both command lists under a profiler: the
    functions with their ``file:line``, those entered, the sweep commands
    that did not exit 0, the error commands that did not give their exit
    code, and per command its exit code, stdout digest and stderr."""
    entered: set = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for layer in LAYERS:
            importlib.import_module(f"demchar.{layer}")
    finally:
        sys.setprofile(None)
    cli = sys.modules["demchar.cli"]
    commands = sweep_commands()
    digests = {" ".join(argv): _run(cli, argv, profile) for argv in commands}
    wrong_exit = []
    for expected, argv in error_commands():
        digests[" ".join(argv)] = _run(cli, argv, profile)
        if digests[" ".join(argv)][0] != expected:
            wrong_exit.append(argv)
    found = functions()
    return {
        "functions": {
            name: f"{Path(code.co_filename).resolve().relative_to(ROOT)}:{code.co_firstlineno}"
            for code, name in sorted(found.items(), key=lambda item: item[1])
        },
        "reached": sorted(found[code] for code in entered if code in found),
        "failed": [argv for argv in commands if digests[" ".join(argv)][0] != 0],
        "wrong_exit": wrong_exit,
        "digests": digests,
    }


def unreached(result: dict) -> list[str]:
    """``name file:line`` of each function neither reached nor allowed."""
    reached = set(result["reached"])
    return [
        f"{name} {where}"
        for name, where in result["functions"].items()
        if name not in reached and not any(covers(entry, name) for entry in ALLOWED)
    ]


def test_sweep_reaches_every_public_function():
    proc = subprocess.run(
        [sys.executable, __file__],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    names, reached = set(result["functions"]), set(result["reached"])
    assert result["failed"] == []
    assert result["wrong_exit"] == []
    missing = unreached(result)
    assert missing == [], "neither reached nor allowed:\n" + "\n".join(missing)
    covered = {entry: {name for name in names if covers(entry, name)} for entry in ALLOWED}
    assert sorted(entry for entry, own in covered.items() if not own) == [], (
        "allowed but not defined in demchar"
    )
    assert sorted(entry for entry, own in covered.items() if own and own <= reached) == [], (
        "reached, so no longer needs allowing"
    )
    pinned = json.loads(DIGESTS.read_text())
    got = result["digests"]
    differ = sorted(cmd for cmd in pinned.keys() | got.keys() if pinned.get(cmd) != got.get(cmd))
    listing = "\n".join(differ)
    assert differ == [], f"exit code, stdout digest or stderr differs from {DIGESTS.name} for:\n{listing}"


if __name__ == "__main__":
    result = sweep()
    if sys.argv[1:] == ["--record"]:
        DIGESTS.write_text(json.dumps(result["digests"], indent=1, sort_keys=True) + "\n")
    else:
        print(json.dumps(result))
        for line in unreached(result):
            print(line, file=sys.stderr)
