"""The library surface: every public module-level function of ``demchar``
is reached by a compact CLI sweep, or is named on ``ALLOWED`` with the
reason it stays.

The sweep runs every subcommand and output format on the six families at
minimal rank, with admissible ``x``/``xbar`` queries by all three
methods, under ``sys.setprofile``.  It runs in a fresh interpreter: the
crystal builders and the other cached functions run once per process, so
in this one earlier tests would already have run them.  Run this file as
a script to print what the sweep reaches, as JSON.

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
from pathlib import Path

from demchar import cli
from demchar.paths import scheduled_nodes

DIGESTS = Path(__file__).with_name("surface_digests.json")

LAYERS = ("qring", "weights", "crystals", "tensor", "paths", "demazure", "onedsums", "formulas", "cli")

# Public functions that the CLI does not reach, each with its reason.
ALLOWED = {
    "paths.grow_paths": "paper check: path sets grown by lowering closures",
    "paths.paths_at_step": "paper check: the grown path set after k steps",
    "tensor.signature_scan": "paper check: the signature rule behind GroundState.path_f/path_e",
    "demazure.demazure_paths": "paper check: the path set built two ways",
    "demazure.check_conditions": "paper check: closure, capacity and ascent of a schedule",
    "onedsums.is_admissible": "bench/workloads.py selects its restricted queries with it",
    "formulas.mu_to_weight": "the README example of the closed form uses it",
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
        lam = f"L{scheduled_nodes(family, rank)[0]}"
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
    return commands


def public_functions() -> dict:
    """Code object -> "layer.name" for each public function defined at
    module level in a layer; a cached function counts by the function it
    wraps.  Classes, exception classes among them, are not functions."""
    public = {}
    for layer in LAYERS:
        module = importlib.import_module(f"demchar.{layer}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            obj = getattr(obj, "__wrapped__", obj)
            if inspect.isfunction(obj):
                public[obj.__code__] = f"{layer}.{name}"
    return public


def sweep() -> dict:
    """Run the sweep under a profiler: the public functions, those it
    entered, the commands that did not exit 0, and per command its exit
    code, stdout digest and stderr."""
    public = public_functions()
    commands = sweep_commands()
    reached: set[str] = set()
    digests: dict[str, list] = {}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in public:
            reached.add(public[frame.f_code])

    streams = sys.stdout, sys.stderr
    try:
        for argv in commands:
            out = io.BytesIO()
            sys.stdout = io.TextIOWrapper(out)
            sys.stderr = io.StringIO()
            sys.setprofile(profile)
            try:
                code = cli.main(argv)
            finally:
                sys.setprofile(None)
            sys.stdout.flush()
            digest = hashlib.sha256(out.getvalue()).hexdigest()[:16]
            digests[" ".join(argv)] = [code, digest, sys.stderr.getvalue()]
    finally:
        sys.stdout, sys.stderr = streams
    return {
        "public": sorted(public.values()),
        "reached": sorted(reached),
        "failed": [argv for argv in commands if digests[" ".join(argv)][0] != 0],
        "digests": digests,
    }


def test_sweep_reaches_every_public_function():
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, __file__],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    public, reached = set(result["public"]), set(result["reached"])
    assert result["failed"] == []
    assert sorted(public - reached - set(ALLOWED)) == [], "neither reached nor allowed"
    assert sorted(set(ALLOWED) - public) == [], "allowed but not a public function"
    assert sorted(set(ALLOWED) & reached) == [], "reached, so no longer needs allowing"
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
