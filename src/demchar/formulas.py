"""Closed-form evaluation of the unrestricted window sums.

Each crystal family admits an exact q-multinomial expression for the
energy generating polynomial of a fixed-length letter window: a sum over
the letter-count vectors of the window weight's letter coordinates
(``LetterCoordinates.solve``), each term a power of q times a Gaussian
multinomial.  ``g_closed_form`` takes the arguments of the other two g
routes.  One loop evaluates all six families; a per-family table gives
the letters left out of the quadratic exponent, its divisor and the
q-base, and ``_closed_groups`` names the pair whose product is the cross
term.  A2odd merges that pair into one part, split again by a
q^2-binomial, and divides once by 1 + q^(g1+g1~) when the head letter is
outside the pair.  The head-free part of each term is built once per
(tail weight, j) and read under every head letter and pivot;
``_closed_terms.cache_clear()`` frees it.  ``_closed_source`` is a g
source like the tail walker and the kernel, yielding the same groups,
so ``onedsums.g_sums`` and the segment sum read all three alike; the
verifier diffs their per-head sums.
"""

from __future__ import annotations

from functools import cache
from operator import itemgetter, mul
from typing import Iterator

from .crystals import Element, PerfectCrystal, barred, perfect_crystal
# g_recursive is not called here; bench/test_bench.py reads formulas.g_recursive.
from .onedsums import (
    _check_query,
    _kernel_terms,
    _walker_terms,
    g_recursive,
    g_sums,
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


@cache
def _closed_terms(
    crystal: PerfectCrystal, coords: tuple[int, ...], j: int, divided: bool
) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, int], ...], int], ...]:
    """The head-free part of the closed form at tail weight ``coords`` and
    length j, () where ``LetterCoordinates.solve`` raises: per letter-count
    vector, its counts in element order, its q-multinomial as (exponent,
    coefficient) pairs and its quadratic exponent, already divided by the
    family's divisor.  ``divided`` makes A2odd's exact division by
    1 + q^(g1+g1~).  Every head letter reads one table;
    ``_closed_terms.cache_clear()`` frees the tables."""
    try:
        mu = crystal.letter_coordinates.solve(coords, j)
    except ValueError:
        return ()
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


def _closed_groups(
    crystal: PerfectCrystal, b: Element, coords: tuple[int, ...], m: int, pivot: int | None = None
):
    """The closed form of head b at one tail weight, one group (coords,
    shift, q-multinomial pairs) per letter-count vector: the shift is the
    quadratic exponent plus b's energy row against the counts, minus
    count(k) count(k~), k being n for B1 and D1's "0" and barred letters,
    1 for their others and for A2odd (whose heads outside 1, 1~ read the
    divided table), or ``pivot``.  B1's "0" is claimed equal at either
    endpoint, and the verifier diffs 1."""
    family, n = crystal.cartan.family, crystal.cartan.n
    if family in ("B1", "D1"):
        k = n if b == "0" or b.endswith("~") else 1
    else:
        k = 1 if family == "A2odd" else None
    k = k if pivot is None else pivot
    s, sbar = (None, None) if k is None else (crystal.index(str(k)), crystal.index(barred(k)))
    energy_row = crystal.energy_table[crystal.index(b)]
    divided = family == "A2odd" and b not in ("1", barred(1))
    for g, pairs, quadratic in _closed_terms(crystal, coords, m, divided):
        shift = quadratic + sum(map(mul, energy_row, g))
        if k is not None:
            shift -= g[s] * g[sbar]
        yield coords, shift, pairs


def _closed_source(crystal: PerfectCrystal, b: Element, m: int, pivot: int | None = None):
    """The closed-form g source: ``_closed_groups`` at every tail weight of length m."""
    for coords in tail_weight_support(crystal, m):
        yield from _closed_groups(crystal, b, coords, m, pivot)


def _require_perfect(crystal: PerfectCrystal) -> None:
    """ValueError unless ``perfect_crystal`` built the crystal: the closed form reads letter counts."""
    if crystal is not perfect_crystal(crystal.cartan.family, crystal.cartan.n):
        raise ValueError(f"the closed form covers perfect_crystal's crystals, not {crystal.name}")


def g_closed_form(crystal: PerfectCrystal, b: Element, mu: Weight, j: int) -> LaurentPoly:
    """Unrestricted sum by the closed form, with the arguments, errors and
    value of ``g_enumerate`` and ``g_recursive``: the sum of the groups at
    mu (none off the letter lattice), times q^(delta-coordinate of mu)."""
    _check_query(crystal, b, j, mu)
    _require_perfect(crystal)
    groups = _closed_groups(crystal, b, mu.lambda_coords, j)
    poly = LaurentPoly.from_terms((e + shift, c) for _, shift, pairs in groups for e, c in pairs)
    return poly.shift(mu.delta_coord)


# ---------------------------------------------------------------------------
# Verification report


def verify_type(crystal: PerfectCrystal, j_max: int) -> dict:
    """Diff the closed form against enumeration and recursion for every
    letter and reachable window weight up to ``j_max``: per length and
    head letter, the ``g_sums`` of the three g sources, and for B1's "0"
    the closed form under the other pivot, 1.  A cell where any column
    differs is reported with every column's value, by (tail coords, letter)."""
    _require_perfect(crystal)
    _require_count(j_max, "j_max")
    sources = {"closed": _closed_source, "enumerate": _walker_terms, "recursive": _kernel_terms}
    cells, mismatches = 0, []
    for j in range(j_max + 1):
        cells += len(tail_weight_support(crystal, j)) * len(crystal.elements)
        found = []
        for t, b in enumerate(crystal.elements):
            columns = {name: g_sums(crystal, b, j, terms) for name, terms in sources.items()}
            if (crystal.cartan.family, b) == ("B1", "0"):
                columns["closed_other_pivot"] = g_sums(
                    crystal, b, j, lambda *args: _closed_source(*args, 1)
                )
            for coords in set().union(*columns.values()):
                values = {name: column.get(coords, ZERO) for name, column in columns.items()}
                if any(v != values["closed"] for v in values.values()):
                    entry = {"b": b, "mu": list(crystal.letter_coordinates.solve(coords, j)), "j": j}
                    entry.update((name, v.to_json_obj()) for name, v in values.items())
                    found.append(((coords, t), entry))
        mismatches += [entry for _, entry in sorted(found, key=itemgetter(0))]
    return {"type": crystal.cartan.family, "rank": crystal.cartan.n, "j_max": j_max,
            "cells_checked": cells, "mismatches": mismatches}
