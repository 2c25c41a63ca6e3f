"""Closed-form evaluation of the unrestricted window sums.

Each crystal family admits an exact q-multinomial expression for the
energy generating polynomial of a fixed-length letter window: a sum over
the letter-count vectors of the window weight's letter coordinates
(``LetterCoordinates.solve``), each term a power of q times a Gaussian
multinomial.  ``g_closed_form`` takes the arguments of the other two g
routes.  One loop evaluates all six families; a per-family table gives
the letters left out of the quadratic exponent, its divisor and the
q-base, and ``_head`` names the pair whose product is the cross term.
A2odd merges that pair into one part, split again by a q^2-binomial,
and divides once by 1 + q^(g1+g1~) when the head letter is outside the
pair.  The head-free part of each term (the counts, the q-multinomial
and the quadratic exponent) is built once per (mu, j) and read under
every head letter and pivot by one per-head sum (``_head_sum``);
``_closed_terms.cache_clear()`` frees it.  The verifier builds two
tables per window length, keyed by (head letter, tail coords), from
tail enumeration and the recursion kernel, and diffs each closed-form
cell against them as it is made.
"""

from __future__ import annotations

from functools import cache
from operator import mul
from typing import Iterator

from .crystals import Element, PerfectCrystal, barred, perfect_crystal
# g_recursive is not called here; bench/test_bench.py reads formulas.g_recursive.
from .onedsums import (
    _check_query,
    g_enumerate_table,
    g_recursive,
    g_recursive_table,
    tail_weight_support,
)
from .qring import ZERO, LaurentPoly, exact_div, qmultinomial
from .weights import Weight, _require_count


# ---------------------------------------------------------------------------
# Letter-count enumeration


def _count_vectors(
    crystal: PerfectCrystal, mu: tuple[int, ...], j: int
) -> Iterator[dict[Element, int]]:
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


# Per family: the letters left out of the quadratic exponent, its divisor
# and the q-base of the multinomial; the other four take ((), 2, 1).
_SHAPES: dict[str, tuple[tuple[Element, ...], int, int]] = {
    "A2even": (("0",), 2, 1),
    "D2": (("0", "phi"), 1, 2),
}


def _head(crystal: PerfectCrystal, b: Element) -> tuple[int | None, bool]:
    """How head letter b reads the terms: the k whose pair k, k~ enters
    the cross term (None when no pair does), and whether it takes A2odd's
    division.  B1 and D1 take the endpoint n for "0" and the barred
    letters and 1 for the others; for "0" either endpoint is claimed to
    give the same value, and the verifier diffs 1."""
    family, n = crystal.cartan.family, crystal.cartan.n
    if family in ("B1", "D1"):
        return (n if b == "0" or b.endswith("~") else 1), False
    if family == "A2odd":
        return 1, b not in ("1", barred(1))
    return None, False


@cache
def _closed_terms(
    crystal: PerfectCrystal, mu: tuple[int, ...], j: int, divided: bool
) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, int], ...], int], ...]:
    """The head-free part of the closed form at (mu, j): per letter-count
    vector, its counts in element order, its q-multinomial as
    (exponent, coefficient) pairs and its quadratic exponent, already
    divided by the family's divisor.  ``divided`` makes A2odd's exact
    division by 1 + q^(g1+g1~), which only heads outside the pair 1, 1~
    read.  Every head letter reads one table;
    ``_closed_terms.cache_clear()`` frees the tables."""
    family = crystal.cartan.family
    skip, divisor, base = _SHAPES.get(family, ((), 2, 1))
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


def g_closed_form(crystal: PerfectCrystal, b: Element, mu: Weight, j: int) -> LaurentPoly:
    """Unrestricted sum by the closed form, with the arguments, errors and
    value of ``g_enumerate`` and ``g_recursive``: zero unless mu has
    letter coordinates at length j, times q^(delta-coordinate of mu).
    Every head letter reads one cached table of terms per (mu, j)."""
    _check_query(crystal, b, j, mu)
    if crystal is not perfect_crystal(crystal.cartan.family, crystal.cartan.n):
        raise ValueError(f"the closed form covers perfect_crystal's crystals, not {crystal.name}")
    try:
        coords = crystal.letter_coordinates.solve(mu.lambda_coords, j)
    except ValueError:
        return ZERO
    k, divided = _head(crystal, b)
    terms = _closed_terms(crystal, coords, j, divided)
    return _head_sum(crystal, terms, b, k).shift(mu.delta_coord)


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


def _closed_table(crystal: PerfectCrystal, j: int) -> Iterator[tuple]:
    """The closed form of every head letter and reachable tail weight of
    length j, one cell (key, value, other) at a time in the verifier's
    order: key is (b, coords), and other is B1's value of letter "0"
    under the other pivot, 1, and None elsewhere.  mu is solved once per
    support point and each (mu, j, variant) table read once."""
    family = crystal.cartan.family
    heads = [(b, *_head(crystal, b)) for b in crystal.elements]
    variants = {divided for _, _, divided in heads}
    for coords in sorted(tail_weight_support(crystal, j)):
        mu = crystal.letter_coordinates.solve(coords, j)
        tables = {divided: _closed_terms(crystal, mu, j, divided) for divided in variants}
        for b, k, divided in heads:
            other = _head_sum(crystal, tables[False], b, 1) if (family, b) == ("B1", "0") else None
            yield (b, coords), _head_sum(crystal, tables[divided], b, k), other


def verify_type(crystal: PerfectCrystal, j_max: int) -> dict:
    """Diff the closed form against enumeration and recursion for every
    letter and every reachable window weight up to ``j_max``: per window
    length, one loop over the closed-form cells of ``_closed_table`` as
    they come, against the tables ``g_enumerate_table`` and
    ``g_recursive_table``, which reports a cell where any column differs
    with every column's value."""
    _require_count(j_max, "j_max")
    cells = 0
    mismatches = []
    for j in range(j_max + 1):
        enumerated, recursive = g_enumerate_table(crystal, j), g_recursive_table(crystal, j)
        for key, value, other in _closed_table(crystal, j):
            cells += 1
            same = enumerated.get(key, ZERO) == value == recursive.get(key, ZERO)
            if same and other in (None, value):
                continue
            values = {"closed": value, "enumerate": enumerated.get(key, ZERO),
                      "recursive": recursive.get(key, ZERO)}
            if other is not None:
                values["closed_other_pivot"] = other
            entry = {"b": key[0], "mu": list(crystal.letter_coordinates.solve(key[1], j)), "j": j}
            mismatches.append({**entry, **{name: v.to_json_obj() for name, v in values.items()}})
    return {"type": crystal.cartan.family, "rank": crystal.cartan.n, "j_max": j_max,
            "cells_checked": cells, "mismatches": mismatches}
