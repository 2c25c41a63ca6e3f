"""Closed-form evaluation of the unrestricted window sums.

Each crystal family admits an exact q-multinomial expression for the
energy generating polynomial of a fixed-length letter window: a sum over
the letter-count vectors of the window weight's letter coordinates
(``LetterCoordinates.solve``), which ``_count_vectors`` yields as
tuples in element order, each term a power of q times a Gaussian
multinomial.  ``g_closed_form`` takes the arguments of the other two g
routes.  One loop evaluates all six families; a per-family table gives
the letters left out of the quadratic exponent, its divisor and the
q-base, and ``_closed_groups`` names the pair whose product is the cross
term.  A2odd merges that pair into one part, split again by a
q^2-binomial, and divides that binomial once by 1 + q^(g1+g1~) when the
head letter is outside the pair.  Each q-multinomial is a product of
ints in ``qring``'s packed format, unpacked once.  The head-free part of
each term is built once per (tail weight, j) and read under every head
letter and pivot; ``_closed_terms.cache_clear()`` frees it.  ``_closed_source`` is a g
source like the tail walker and the kernel, yielding the same groups,
so ``onedsums.g_sums`` and the segment sum read all three alike; the
verifier diffs their per-head sums as int dicts.
"""

from __future__ import annotations

from functools import cache
from itertools import count
from operator import itemgetter, mul

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
from .qring import LaurentPoly, _packed_qmultinomial, _slot_width, _unpack, exact_div, qmultinomial
from .weights import Weight, _require_count


# ---------------------------------------------------------------------------
# Letter-count enumeration


def _count_vectors(crystal: PerfectCrystal, mu: tuple[int, ...], j: int) -> list[tuple[int, ...]]:
    """All nonnegative letter counts of total ``j``, as tuples in element
    order, with pair differences count(k) - count(k~) = mu_k; the free
    letters "0" and "phi" absorb the remainder.  An alphabet whose letter
    coordinates are counts (A1) has the counts ``mu``."""
    if crystal.letter_coordinates.counts:
        return [tuple(mu)] if min(mu) >= 0 else []
    free = [crystal.index(label) for label in ("0", "phi") if label in crystal]
    pairs = [(crystal.index(str(k)), crystal.index(barred(k))) for k in range(1, len(mu) + 1)]
    g = [0] * len(crystal.elements)
    found: list[tuple[int, ...]] = []

    def fill(k: int, budget: int) -> None:
        if k == len(pairs):
            if len(free) == 2:
                for split in range(budget + 1):
                    g[free[0]], g[free[1]] = split, budget - split
                    found.append(tuple(g))
            elif free:
                g[free[0]] = budget
                found.append(tuple(g))
            elif budget == 0:
                found.append(tuple(g))
            return
        s, sbar = pairs[k]
        diff = mu[k]
        for bar_count in range(max(0, -diff), (budget - diff) // 2 + 1):
            g[s], g[sbar] = diff + bar_count, bar_count
            fill(k + 1, budget - diff - 2 * bar_count)

    fill(0, j)
    return found


# ---------------------------------------------------------------------------
# The six closed forms


# Per family: the letters left out of the quadratic exponent, its divisor
# and the q-base of the multinomial; the other four take ((), 2, 1).
_SHAPES: dict[str, tuple[tuple[Element, ...], int, int]] = {
    "A2even": (("0",), 2, 1),
    "D2": (("0", "phi"), 1, 2),
}


@cache
def _pair_factor(g1: int, g1bar: int, divided: bool, width: int) -> int:
    """A2odd's q^2-binomial [g1 + g1~, g1] packed in slots of ``width``
    bits, times (q^g1 + q^g1~) / (1 + q^(g1+g1~)) when ``divided``: an
    exact division (checked), whose quotient q^g1~ [g1+g1~-1, g1-1]_{q^2}
    + q^g1 [g1+g1~-1, g1]_{q^2} has positive coefficients."""
    factor = qmultinomial(g1 + g1bar, (g1, g1bar), 2)
    if divided:
        weight = LaurentPoly.from_terms([(g1, 1), (g1bar, 1)])
        factor = exact_div(factor * weight, LaurentPoly.from_terms([(0, 1), (g1 + g1bar, 1)]))
    return sum(c << e * width for e, c in factor.terms())


@cache
def _closed_terms(
    crystal: PerfectCrystal, coords: tuple[int, ...], j: int, divided: bool
) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, int], ...], int], ...]:
    """The head-free part of the closed form at tail weight ``coords`` and
    length j, () where ``LetterCoordinates.solve`` raises: per letter-count
    vector, its counts in element order, its q-multinomial as (exponent,
    coefficient) pairs and its quadratic exponent, already divided by the
    family's divisor.  Each q-multinomial is one packed int product in the
    slot width of j into |B| parts, unpacked once (D2's in q^2); ``divided``
    makes A2odd's pair factor divide by 1 + q^(g1+g1~).  Every head letter
    reads one table; ``_closed_terms.cache_clear()`` frees the tables."""
    try:
        mu = crystal.letter_coordinates.solve(coords, j)
    except ValueError:
        return ()
    family = crystal.cartan.family
    skip, divisor, base = _SHAPES.get(family, ((), 2, 1))
    kept = [i for i, label in enumerate(crystal.elements) if label not in skip]
    width = _slot_width(j, len(crystal.elements))
    if family == "A2odd":
        s, sbar = crystal.index("1"), crystal.index(barred(1))
    table = []
    for g in _count_vectors(crystal, mu, j):
        quadratic = sum(g[i] * (g[i] - 1) for i in kept) // divisor
        if family == "A2odd":
            g1, g1bar = g[s], g[sbar]
            rest = [c for i, c in enumerate(g) if i not in (s, sbar)]
            packed = _packed_qmultinomial((g1 + g1bar, *rest), width) * _pair_factor(g1, g1bar, divided, width)
        else:
            packed = _packed_qmultinomial(g, width)
        pairs = zip(count(0, base), _unpack(packed, width))
        table.append((g, tuple(filter(itemgetter(1), pairs)), quadratic))
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
    the closed form under the other pivot, 1, as int dicts.  A head whose
    columns differ is diffed per cell as polynomials (no zero terms); a
    cell that differs is reported with every column's value, by (tail
    coords, letter)."""
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
            if all(column == columns["closed"] for column in columns.values()):
                continue
            for coords in set().union(*columns.values()):
                values = {name: LaurentPoly(column.get(coords, {})) for name, column in columns.items()}
                if any(v != values["closed"] for v in values.values()):
                    entry = {"b": b, "mu": list(crystal.letter_coordinates.solve(coords, j)), "j": j}
                    entry.update((name, v.to_json_obj()) for name, v in values.items())
                    found.append(((coords, t), entry))
        mismatches += [entry for _, entry in sorted(found, key=itemgetter(0))]
    return {"type": crystal.cartan.family, "rank": crystal.cartan.n, "j_max": j_max,
            "cells_checked": cells, "mismatches": mismatches}
