"""The four workloads: their operation lists, set-up and result checks.

An operation is plain JSON data, so the parent process can build the list
from the seed and hand it to a fresh worker process.  Three workloads go
through ``demchar.cli.main`` exactly as a user of the command line would;
``restricted`` calls the library, because its queries are too small for
argument parsing not to dominate them.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import io
import json
import random
import sys
from pathlib import Path

from demchar import cli, crystals, demazure, onedsums, weights

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("verify-formulas", "stringfn", "character", "restricted")

MINIMAL_RANK = {"A1": 1, "B1": 3, "D1": 4, "A2odd": 3, "A2even": 1, "D2": 2}

# Each list is sized so that one pass takes 3-7 s on a 2-CPU Xeon VM, and a
# run of 30 s holds several passes.

# verify formulas: (type, rank, jmax).  The enumeration route dominates.
VERIFY_CASES = [("D2", 2, 3), ("B1", 3, 2), ("A2even", 2, 3), ("A2odd", 3, 3), ("A1", 3, 4)]

# stringfn at L0: (type, rank, M, expected).  An int is the colour count of
# the level-1 oracle 1/(q)_inf^colours from tests/oracles.py.  D2 has no
# independent oracle yet, so its list pins the value first computed by this
# benchmark (it agrees with the leading terms 1, 1, 3, 4, 9 in ROADMAP).
STRINGFN_CASES = [
    ("A1", 2, 12, 2),
    ("A1", 1, 30, 1),
    ("A1", 3, 4, 3),
    ("D1", 4, 3, 4),
    ("D2", 2, 6, [1, 1, 3, 4, 9, 12, 23]),
]

# character --method both at L0: (type, rank, k).  k = 24 is a full segment
# for D1 4, so character_at_full_segment runs as a third route there.
CHARACTER_CASES = [("D1", 4, 24), ("B1", 3, 20), ("A1", 2, 15), ("A2odd", 3, 20), ("D2", 2, 16)]

# restricted: (kind, type, windows, admissible-head queries per window).
# None takes the whole admissible class, so the seed moves only the
# blocked-head queries, the two sampled strata and the order; the latency
# quantiles then stay put from seed to seed.  Every admissible-head affine
# x query of B1 and A2odd from j = 2, and of D2 from j = 4, trips the
# length-12 Weyl guard.  Those of D1 trip it at j = 1 already and cost
# 1.2-2.5 s each (14 s at j = 4), more than a whole pass, so D1 appears
# through xbar only and the costly strata stop at short windows.
RESTRICTED_STRATA = [
    ("xbar", "A1", range(1, 6), None),
    ("xbar", "B1", range(1, 6), None),
    ("xbar", "D1", range(1, 3), 4),
    ("xbar", "A2odd", range(1, 6), None),
    ("xbar", "A2even", range(1, 6), None),
    ("xbar", "D2", range(1, 6), None),
    ("x", "A1", range(1, 6), None),
    ("x", "B1", range(1, 3), 2),
    ("x", "A2odd", range(1, 3), None),
    ("x", "A2even", range(1, 6), None),
    ("x", "D2", range(1, 6), None),
]
BLOCKED_PER_WINDOW = 4


def operations(workload: str, seed: int) -> list[dict]:
    """The seeded operations of one pass; same seed, same list.  The order
    of each pass is drawn from the seed as well, in ``run.measure``."""
    if workload == "verify-formulas":
        return [_cli_op(f, n, ["verify", "formulas", "--type", f, "--rank", str(n), "--jmax", str(j)])
               for f, n, j in VERIFY_CASES]
    if workload == "stringfn":
        return [_cli_op(f, n, ["stringfn", "--type", f, "--rank", str(n), "--lambda", "L0", "--M", str(m)],
                       expect=expect)
               for f, n, m, expect in STRINGFN_CASES]
    if workload == "character":
        return [_cli_op(f, n, ["character", f, str(n), "--lambda", "L0", "--k", str(k), "--method", "both"],
                       full_segment=f == "D1")
               for f, n, k in CHARACTER_CASES]
    if workload == "restricted":
        return _restricted(random.Random(seed))
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _cli_op(family: str, rank: int, argv: list[str], **check) -> dict:
    return {"op": "cli", "type": family, "rank": rank, "argv": argv, **check}


def _restricted(rng: random.Random) -> list[dict]:
    """x/xbar queries at minimal rank plus Kostka-Foulkes queries.

    Per stratum and window: a seeded sample of queries whose head letter
    is blocked above xi (zero by definition, cheap) and the admissible-head
    queries (the routes do real work), whole or sampled.  The Kostka
    queries are every shape of weight j <= 6 with at most n + 1 rows, for
    n <= 3, the set the charge oracle is checked on.
    """
    ops = []
    for kind, family, windows, quota in RESTRICTED_STRATA:
        classical = kind == "xbar"
        rank = MINIMAL_RANK[family]
        crystal = crystals.perfect_crystal(family, rank)
        doms = weights.dominant_classical_weights(crystal.cartan, 1)
        triples = [(b, xi, eta) for b in crystal.elements for xi in doms for eta in doms]
        blocked = [t for t in triples
                   if not onedsums.is_admissible(crystal, t[1] - crystal.weight(t[0]), t[0], classical)]
        admissible = [t for t in triples if t not in blocked]
        for j in windows:
            picks = rng.sample(blocked, min(BLOCKED_PER_WINDOW, len(blocked)))
            picks += admissible if quota is None else rng.sample(admissible, quota)
            for b, xi, eta in picks:
                ops.append({"op": kind, "type": family, "rank": rank, "b": b,
                            "xi": list(xi.lambda_coords), "eta": list(eta.lambda_coords), "j": j})
    for n in (1, 2, 3):
        for j in range(1, 7):
            for shape in _partitions(j):
                if len(shape) <= n + 1:
                    ops.append({"op": "kostka", "shape": list(shape), "j": j, "n": n})
    return ops


def _partitions(total: int, largest: int | None = None) -> list[tuple[int, ...]]:
    largest = total if largest is None else largest
    if total == 0:
        return [()]
    return [(first, *rest)
            for first in range(min(total, largest), 0, -1)
            for rest in _partitions(total - first, first)]


# ---------------------------------------------------------------------------
# Inside the worker


def setup(ops: list[dict]) -> list:
    """Build what the operations need and return their call arguments."""
    calls = []
    for op in ops:
        if op["op"] == "cli":
            crystal = crystals.perfect_crystal(op["type"], op["rank"])
            if op["argv"][0] in ("character", "stringfn"):
                demazure.demazure_schedule(crystal, crystal.cartan.fundamental_weight(0))
            calls.append(op["argv"])
        elif op["op"] in ("x", "xbar"):
            crystals.perfect_crystal(op["type"], op["rank"])
            calls.append((op["type"], op["rank"], op["b"], weights.Weight(tuple(op["xi"])),
                          weights.Weight(tuple(op["eta"])), op["j"], op["op"] == "xbar"))
        else:
            crystals.symmetric_crystal(op["n"], 1)
            calls.append((tuple(op["shape"]), 1, op["j"], op["n"]))
    return calls


def execute(op: dict, call):
    """Run one operation; the result is checked later by ``check``."""
    if op["op"] == "cli":
        saved = sys.stdout
        capture = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        sys.stdout = capture
        try:
            code = cli.main(call)
            capture.flush()
            return code, capture.buffer.getvalue()
        finally:
            sys.stdout = saved
    if op["op"] == "kostka":
        return onedsums.kostka(*call)
    family, rank, b, xi, eta, j, classical = call
    crystal = crystals.perfect_crystal(family, rank)
    enumerated = onedsums.x_enumerate(crystal, b, xi, eta, j, classical=classical)
    recursive = onedsums.x_recursive(crystal, b, xi, eta, j, classical=classical)
    try:
        weyl = onedsums.x_by_weyl_sum(crystal, b, xi, eta, j, classical=classical)
    except onedsums.WeylSumGuardError:
        weyl = None
    return enumerated, recursive, weyl


@functools.cache
def _oracles():
    spec = importlib.util.spec_from_file_location("bench_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check(op: dict, result) -> tuple[str, str]:
    """Status of one operation (ok, mismatch, guard or error) and a digest
    of its output."""
    if isinstance(result, BaseException):
        return "error", _digest(repr(result))
    if op["op"] == "cli":
        code, out = result
        status = {0: "ok", 3: "mismatch", 4: "guard"}.get(code, "error")
        if status == "ok" and not _cli_output_right(op, json.loads(out)):
            status = "mismatch"
        return status, _digest(out)
    if op["op"] == "kostka":
        got = {int(e): c for e, c in result.terms()}
        want = _oracles().kostka_foulkes_by_charge(tuple(op["shape"]), (1,) * op["j"])
        return ("ok" if got == want else "mismatch"), _digest(str(result))
    enumerated, recursive, weyl = result
    if enumerated != recursive or (weyl is not None and weyl != enumerated):
        status = "mismatch"
    else:
        status = "guard" if weyl is None else "ok"
    return status, _digest(f"{enumerated}|{recursive}|{weyl}")


def _cli_output_right(op: dict, obj: dict) -> bool:
    command = op["argv"][0]
    if command == "verify":
        return obj["cells_checked"] > 0 and obj["mismatches"] == []
    if command == "character":
        if op.get("full_segment") and "full_segment_equal" not in obj:
            return False
        return obj["equal"] is True and obj.get("full_segment_equal", True) is True
    expect = op["expect"]
    if isinstance(expect, int):
        expect = _oracles().colored_partition_counts(expect, obj["M"])
    return obj["coefficients"] == expect


def _digest(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]
