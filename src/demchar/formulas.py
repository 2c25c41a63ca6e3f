"""Closed-form evaluation of the unrestricted window sums.

Each crystal family admits an exact q-multinomial expression for the
energy generating polynomial of a fixed-length letter window: a sum
over letter-count vectors compatible with the window weight, each term
a power of q times a Gaussian multinomial.  One loop evaluates all six;
a per-family table gives the letters left out of the quadratic exponent,
its divisor and the q-base, and ``_pivot_of`` names the pair whose
product is the cross term.  A2odd merges that pair into one part, split
again by a q^2-binomial, and divides once by 1 + q^(g1+g1~) when the
head letter is outside the pair.  The head-free part of each term (the
counts, the q-multinomial and the quadratic exponent) is built once per
(mu, j) and read under every head letter and pivot by one per-head sum
(``_head_sum``); ``_closed_terms.cache_clear()`` frees it.  The verifier
builds three tables per window length, keyed by (head letter, tail
coords): tail enumeration, the recursion kernel and the closed form, and
diffs them in one loop.
"""

from __future__ import annotations

from functools import cache
from operator import mul
from typing import Iterator, Sequence

from .crystals import PerfectCrystal, barred, perfect_crystal
# g_recursive is not called here; bench/test_bench.py reads formulas.g_recursive.
from .onedsums import g_enumerate_table, g_recursive, g_recursive_table, tail_weight_support
from .qring import ZERO, LaurentPoly, exact_div, qmultinomial
from .weights import FAMILIES, Weight, _is_int, _require_count

Element = str
MuParam = tuple[int, ...]


def rank_of(family: str, mu: Sequence[int]) -> int:
    """Crystal rank implied by a parameter vector of the given family."""
    if family == "A1":
        if len(mu) < 2:
            raise ValueError("letter-count vector needs at least two entries")
        return len(mu) - 1
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if not mu:
        raise ValueError("parameter vector must be nonempty")
    return len(mu)


def mu_from_weight(
    family: str, rank: int, weight: Weight, j: int | None = None
) -> MuParam:
    """The parameter vector mu of a level-zero classical weight, with
    sum_k mu_k wt(k) = weight: its letter coordinates
    (``PerfectCrystal.letter_coordinates``), the counts of the letters
    0..n for "A1" and count(k) - count(k~) for k = 1..n otherwise.
    Raises ValueError off the image.

    For "A1" the letter counts are pinned by the window length ``j``,
    which is therefore required.
    """
    if j is not None:
        _require_count(j, "window length")
    if weight.delta_coord:
        raise ValueError("parameter vectors name weights without a null-root part")
    c = weight.lambda_coords
    if len(c) != rank + 1:
        raise ValueError("weight size does not match the rank")
    if family == "A1" and j is None:
        raise ValueError("the letter-count vector needs the window length")
    return perfect_crystal(family, rank).letter_coordinates.solve(c, j)


# ---------------------------------------------------------------------------
# Letter-count enumeration


def _count_vectors(crystal: PerfectCrystal, mu: MuParam, j: int) -> Iterator[dict[Element, int]]:
    """All nonnegative letter counts of total ``j`` with pair differences
    count(k) - count(k~) = mu_k; the free letters "0" and "phi" absorb
    the remainder.  An alphabet whose letter coordinates are counts (A1)
    has the counts ``mu``."""
    if crystal.letter_coordinates.counts:
        if min(mu) >= 0:
            yield dict(zip(crystal.elements, mu))
        return
    free = [label for label in ("0", "phi") if label in crystal]

    def recurse(k: int, budget: int, counts: dict[Element, int]):
        if k > len(mu):
            if len(free) == 2:
                for split in range(budget + 1):
                    yield {**counts, free[0]: split, free[1]: budget - split}
            elif free or budget == 0:
                yield {**counts, **dict.fromkeys(free, budget)}
            return
        diff = mu[k - 1]
        bar_count = max(0, -diff)
        while diff + 2 * bar_count <= budget:
            counts[str(k)] = diff + bar_count
            counts[barred(k)] = bar_count
            yield from recurse(k + 1, budget - diff - 2 * bar_count, counts)
            bar_count += 1

    yield from recurse(1, j, {})


# ---------------------------------------------------------------------------
# The six closed forms


# Per family: the letters left out of the quadratic exponent, the divisor
# of that exponent, and the q-base of the multinomial.
_SHAPES: dict[str, tuple[tuple[Element, ...], int, int]] = {
    "A1": ((), 2, 1),
    "B1": ((), 2, 1),
    "D1": ((), 2, 1),
    "A2odd": ((), 2, 1),
    "A2even": (("0",), 2, 1),
    "D2": (("0", "phi"), 1, 2),
}


def _pivot_of(family: str, n: int, b: Element, pivot: int | None) -> int | None:
    """The k whose pair k, k~ enters the cross term, or None.  Only B1 and
    D1 take a choice of endpoint 1..n; for letter "0" either is claimed to
    give the same value, the larger one is the default and the verifier
    diffs both."""
    if family not in ("B1", "D1"):
        if pivot is not None:
            raise ValueError(f"family {family} takes no cross-term pivot")
        return 1 if family == "A2odd" else None
    if pivot is None:
        return n if b == "0" or b.endswith("~") else 1
    if not _is_int(pivot) or pivot not in range(1, n + 1):
        raise ValueError(f"pivot must be one of 1..{n}, got {pivot!r}")
    return pivot


@cache
def _closed_terms(
    crystal: PerfectCrystal, mu: MuParam, j: int, divided: bool
) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, int], ...], int], ...]:
    """The head-free part of the closed form at (mu, j): per letter-count
    vector, its counts in element order, its q-multinomial as
    (exponent, coefficient) pairs and its quadratic exponent, already
    divided by the family's divisor.  ``divided`` makes A2odd's exact
    division by 1 + q^(g1+g1~), which only heads outside the pair 1, 1~
    read.  Every head letter reads one table;
    ``_closed_terms.cache_clear()`` frees the tables."""
    family = crystal.cartan.family
    skip, divisor, base = _SHAPES[family]
    kept = [i for i, label in enumerate(crystal.elements) if label not in skip]
    if family == "A2odd":
        s, sbar = crystal.index("1"), crystal.index(barred(1))
    table = []
    for counts in _count_vectors(crystal, mu, j):
        g = tuple(counts[label] for label in crystal.elements)
        quadratic = sum(g[i] * (g[i] - 1) for i in kept) // divisor
        if family == "A2odd":
            g1, g1bar = g[s], g[sbar]
            rest = [count for i, count in enumerate(g) if i not in (s, sbar)]
            pair = g1 + g1bar
            term = qmultinomial(j, (pair, *rest), 1) * qmultinomial(pair, (g1, g1bar), 2)
            if divided:
                # The even-odd weight factor, rationalized to integer
                # exponents: (q^{g1} + q^{g1bar}) / (1 + q^{g1+g1bar}).
                term = exact_div(
                    term * LaurentPoly.from_terms([(g1, 1), (g1bar, 1)]),
                    LaurentPoly.from_terms([(0, 1), (pair, 1)]),
                )
        else:
            term = qmultinomial(j, g, base)
        table.append((g, tuple(term.terms()), quadratic))
    return tuple(table)


def g_closed_form(
    family: str,
    b: Element,
    mu: Sequence[int],
    j: int,
    pivot: int | None = None,
) -> LaurentPoly:
    """Exact closed form of the unrestricted window sum.

    ``mu`` is the family's parameter vector; ``pivot`` overrides the
    cross-term endpoint of B1 and D1 (only letter "0" admits a genuine
    choice).  The q-multinomial terms of a (mu, j) are built once and
    read under every head letter and pivot, which add only the head's
    energy and the cross term to each term's exponent (``_head_sum``);
    ``_closed_terms.cache_clear()`` frees them.
    """
    _require_count(j, "window length")
    mu = tuple(mu)
    for value in mu:
        if not _is_int(value):
            raise ValueError(f"parameter vector entries must be ints, got {value!r}")
    n = rank_of(family, mu)
    crystal = perfect_crystal(family, n)
    if b not in crystal:
        raise ValueError(f"{b!r} is not a letter of {crystal.name}")
    if family == "A1" and sum(mu) != j:
        raise ValueError("letter counts must sum to the window length")
    k = _pivot_of(family, n, b, pivot)
    divided = family == "A2odd" and b not in ("1", barred(1))
    return _head_sum(crystal, _closed_terms(crystal, mu, j, divided), b, k)


def _head_sum(crystal: PerfectCrystal, terms: tuple, b: Element, k: int | None) -> LaurentPoly:
    """The closed form under head letter b from the head-free terms of a
    (mu, j): each term's exponents move up by its quadratic exponent and
    the head's energy row against its counts, and with a pivot k down by
    the cross term count(k) count(k~)."""
    s, sbar = (None, None) if k is None else (crystal.index(str(k)), crystal.index(barred(k)))
    energy_row = crystal.energy_table[crystal.index(b)]
    total: dict[int, int] = {}
    for g, pairs, quadratic in terms:
        shift = quadratic + sum(map(mul, energy_row, g))
        if k is not None:
            shift -= g[s] * g[sbar]
        for exp, coeff in pairs:
            total[exp + shift] = total.get(exp + shift, 0) + coeff
    return LaurentPoly({e: c for e, c in total.items() if c}, _trusted=True)


# ---------------------------------------------------------------------------
# Verification report


def _closed_table(crystal: PerfectCrystal, j: int) -> tuple[dict, dict]:
    """The closed form of every head letter and reachable tail weight of
    length j, keyed by (b, coords) in the verifier's order, and B1's
    column of letter "0" under the other pivot, 1.  mu is solved once per
    support point and each (mu, j, variant) table read once."""
    family, n = crystal.cartan.family, crystal.cartan.n
    heads = [
        (b, _pivot_of(family, n, b, None), family == "A2odd" and b not in ("1", barred(1)))
        for b in crystal.elements
    ]
    variants = {divided for _, _, divided in heads}
    closed, other = {}, {}
    for coords in sorted(tail_weight_support(crystal, j)):
        mu = crystal.letter_coordinates.solve(coords, j)
        tables = {divided: _closed_terms(crystal, mu, j, divided) for divided in variants}
        for b, k, divided in heads:
            closed[b, coords] = _head_sum(crystal, tables[divided], b, k)
        if family == "B1":
            other["0", coords] = _head_sum(crystal, tables[False], "0", 1)
    return closed, other


def verify_type(family: str, j_max: int, rank: int) -> dict:
    """Diff the closed form against enumeration and recursion for every
    letter and every reachable window weight up to ``j_max``: per window
    length, one loop over the tables ``_closed_table``,
    ``g_enumerate_table`` and ``g_recursive_table``, which reports a cell
    where any column differs with every column's value."""
    _require_count(j_max, "j_max")
    crystal = perfect_crystal(family, rank)
    cells = 0
    mismatches = []
    for j in range(j_max + 1):
        closed, other = _closed_table(crystal, j)
        enumerated, recursive = g_enumerate_table(crystal, j), g_recursive_table(crystal, j)
        cells += len(closed)
        for key, value in closed.items():
            if enumerated.get(key, ZERO) == value == recursive.get(key, ZERO) == other.get(key, value):
                continue
            values = {"closed": value, "enumerate": enumerated.get(key, ZERO),
                      "recursive": recursive.get(key, ZERO)}
            if key in other:
                values["closed_other_pivot"] = other[key]
            entry = {"b": key[0], "mu": list(crystal.letter_coordinates.solve(key[1], j)), "j": j}
            mismatches.append({**entry, **{name: v.to_json_obj() for name, v in values.items()}})
    return {"type": family, "rank": rank, "j_max": j_max, "cells_checked": cells,
            "mismatches": mismatches}
