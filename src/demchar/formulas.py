"""Closed-form evaluation of the unrestricted window sums.

Each crystal family admits an exact q-multinomial expression for the
energy generating polynomial of a fixed-length letter window: a sum
over letter-count vectors compatible with the window weight, each term
a power of q times a Gaussian multinomial (with per-family quadratic
exponents, cross terms, and factorial bases).  This module encodes the
six expressions and a verifier that diffs them against direct path
enumeration and the recursive evaluation.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .crystals import PerfectCrystal, perfect_crystal
from .onedsums import g_enumerate_table, g_recursive, tail_weight_support
from .qring import (
    ZERO,
    LaurentPoly,
    exact_div,
    qfactorial,
    qmultinomial,
)
from .weights import FAMILIES, Weight

Element = str
MuParam = tuple[int, ...]


def _require_ints(mu: Sequence[int]) -> tuple[int, ...]:
    out = []
    for value in mu:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"parameter vector entries must be ints, got {value!r}")
        out.append(value)
    return tuple(out)


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
    """The parameter vector mu of a level-zero classical weight: the
    weight is the sum of mu_k times the weight of letter k, over letters
    0..n for "A1" and 1..n otherwise.  Raises ValueError off the image.

    For "A1" the letter counts are pinned by the window length ``j``,
    which is therefore required.
    """
    if weight.delta_coord:
        raise ValueError("parameter vectors name weights without a null-root part")
    c = weight.lambda_coords
    if len(c) != rank + 1:
        raise ValueError("weight size does not match the rank")
    if family == "A1":
        if j is None:
            raise ValueError("the letter-count vector needs the window length")
        # mu_k = t - d_k with d_k the running difference sum; the window
        # length fixes the free constant t.
        d = [0]
        for k in range(1, rank + 1):
            d.append(d[-1] + c[k])
        total, rem = divmod(j + sum(d), rank + 1)
        if rem:
            raise ValueError("window length does not match the weight lattice")
        mu = tuple(total - d[k] for k in range(rank + 1))
        if mu[-1] - mu[0] != c[0]:
            raise ValueError("weight is not level zero")
        return mu
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    m = [0] * (rank + 1)
    if family == "D1":
        half_sum, rem_s = divmod(c[rank - 1] + c[rank], 2)
        half_diff, rem_d = divmod(c[rank] - c[rank - 1], 2)
        if rem_s or rem_d:
            raise ValueError("weight is not in the parameter lattice")
        m[rank - 1], m[rank] = half_sum, half_diff
        for k in range(rank - 2, 0, -1):
            m[k] = m[k + 1] + c[k]
    else:
        if family == "A2odd":
            m[rank] = c[rank]
        else:
            m[rank], rem = divmod(c[rank], 2)
            if rem:
                raise ValueError("weight is not in the parameter lattice")
        for k in range(rank - 1, 0, -1):
            m[k] = m[k + 1] + c[k]
    if family in ("B1", "D1", "A2odd"):
        expected0 = -m[1] - m[2]
    elif family == "A2even":
        expected0 = -m[1]
    else:  # D2
        expected0 = -2 * m[1]
    if c[0] != expected0:
        raise ValueError("weight is not level zero")
    return tuple(m[1:])


# ---------------------------------------------------------------------------
# Letter-count enumeration


def _letter_groups(crystal: PerfectCrystal):
    """Split the alphabet into (numbered, barred-partner, free) labels."""
    numbered = []
    free = []
    for label in crystal.elements:
        if label.endswith("~"):
            continue
        if label in ("0", "phi"):
            free.append(label)
        else:
            numbered.append(label)
    numbered.sort(key=int)
    return numbered, free


def _count_vectors(
    crystal: PerfectCrystal, mu: MuParam, j: int
) -> Iterator[dict[Element, int]]:
    """All nonnegative letter counts with pairwise differences ``mu``
    and total ``j``; counts of unpaired letters absorb the remainder."""
    numbered, free = _letter_groups(crystal)

    def recurse(idx: int, budget: int, counts: dict[Element, int]):
        if idx == len(numbered):
            if not free:
                if budget == 0:
                    yield dict(counts)
                return
            if len(free) == 1:
                counts[free[0]] = budget
                yield dict(counts)
                return
            first, second = free
            for split in range(budget + 1):
                counts[first] = split
                counts[second] = budget - split
                yield dict(counts)
            return
        label = numbered[idx]
        diff = mu[idx]
        low = max(0, -diff)
        barred = 0
        while True:
            bar_count = low + barred
            plain_count = diff + bar_count
            used = plain_count + bar_count
            if used > budget:
                return
            counts[label] = plain_count
            counts[label + "~"] = bar_count
            yield from recurse(idx + 1, budget - used, counts)
            barred += 1

    yield from recurse(0, j, {})


# ---------------------------------------------------------------------------
# The six closed forms


def _quadratic(counts: dict[Element, int], skip: tuple[Element, ...]) -> int:
    return sum(g * (g - 1) for label, g in counts.items() if label not in skip)


def _energy_term(crystal: PerfectCrystal, b: Element, counts) -> int:
    return sum(crystal.energy(b, label) * g for label, g in counts.items())


def _ordered(crystal: PerfectCrystal, counts: dict[Element, int]) -> tuple[int, ...]:
    return tuple(counts[label] for label in crystal.elements)


def _pivot_of(crystal: PerfectCrystal, b: Element, pivot: int | None):
    if pivot is not None:
        return str(pivot)
    if b == "0":
        # Either endpoint is claimed to give the same value; the larger
        # one is the default and the verifier diffs both.
        return str(crystal.cartan.size - 1)
    return str(crystal.cartan.size - 1) if b.endswith("~") else "1"


def g_closed_form(
    family: str,
    b: Element,
    mu: Sequence[int],
    j: int,
    pivot: int | None = None,
) -> LaurentPoly:
    """Exact closed form of the unrestricted window sum.

    ``mu`` is the family's parameter vector; ``pivot`` overrides the
    cross-term endpoint for the families that carry one (only letter
    "0" admits a genuine choice).
    """
    if j < 0:
        raise ValueError("window length must be nonnegative")
    mu = _require_ints(mu)
    n = rank_of(family, mu)
    crystal = perfect_crystal(family, n)
    if family == "A1":
        if sum(mu) != j:
            raise ValueError("letter counts must sum to the window length")
        bracket = qmultinomial(j, mu, 1)
        if not bracket:
            return ZERO
        counts = dict(zip(crystal.elements, mu))
        expo = _quadratic(counts, ()) // 2 + _energy_term(crystal, b, counts)
        return bracket.shift(expo)

    total = ZERO
    if family in ("B1", "D1"):
        s = _pivot_of(crystal, b, pivot)
        sbar = s + "~"
        for counts in _count_vectors(crystal, mu, j):
            expo = (
                _quadratic(counts, ()) // 2
                - counts[s] * counts[sbar]
                + _energy_term(crystal, b, counts)
            )
            total = total + qmultinomial(j, _ordered(crystal, counts), 1).shift(expo)
        return total
    if family == "A2even":
        for counts in _count_vectors(crystal, mu, j):
            expo = _quadratic(counts, ("0",)) // 2 + _energy_term(crystal, b, counts)
            total = total + qmultinomial(j, _ordered(crystal, counts), 1).shift(expo)
        return total
    if family == "D2":
        for counts in _count_vectors(crystal, mu, j):
            expo = _quadratic(counts, ("0", "phi")) + _energy_term(crystal, b, counts)
            total = total + qmultinomial(j, _ordered(crystal, counts), 2).shift(expo)
        return total
    if family == "A2odd":
        plain_factorial = qfactorial(j, 1)
        for counts in _count_vectors(crystal, mu, j):
            g1, g1bar = counts["1"], counts["1~"]
            pair = g1 + g1bar
            expo = (
                _quadratic(counts, ()) // 2
                - g1 * g1bar
                + _energy_term(crystal, b, counts)
            )
            num = qfactorial(pair, 2) * plain_factorial
            den = qfactorial(g1, 2) * qfactorial(g1bar, 2) * qfactorial(pair, 1)
            for label, g in counts.items():
                if label not in ("1", "1~"):
                    den = den * qfactorial(g, 1)
            if b not in ("1", "1~"):
                # The even-odd weight factor, rationalized to integer
                # exponents: (q^{g1} + q^{g1bar}) / (1 + q^{g1+g1bar}).
                num = num * LaurentPoly.from_terms([(g1, 1), (g1bar, 1)])
                den = den * LaurentPoly.from_terms([(0, 1), (pair, 1)])
            total = total + exact_div(num, den).shift(expo)
        return total
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Verification report


def _check_cell(
    family: str,
    crystal: PerfectCrystal,
    b: Element,
    coords: tuple[int, ...],
    j: int,
    enumerated: LaurentPoly,
) -> dict | None:
    weight = Weight(coords)
    mu = mu_from_weight(family, crystal.cartan.size - 1, weight, j)
    closed = g_closed_form(family, b, mu, j)
    recursive = g_recursive(crystal, b, weight, j)
    values = {"closed": closed, "enumerate": enumerated, "recursive": recursive}
    if family == "B1" and b == "0":
        values["closed_other_pivot"] = g_closed_form(family, b, mu, j, pivot=1)
    if all(v == closed for v in values.values()):
        return None
    return {
        "b": b,
        "mu": list(mu),
        "j": j,
        **{key: value.to_json_obj() for key, value in values.items()},
    }


def verify_type(family: str, j_max: int, rank: int) -> dict:
    """Diff the closed form against enumeration and recursion for every
    letter and every reachable window weight up to ``j_max``.  The
    enumeration route lists the tails of each window length once and
    reads every cell of that length from the one table."""
    if j_max < 0:
        raise ValueError("j_max must be nonnegative")
    crystal = perfect_crystal(family, rank)
    cells = 0
    mismatches = []
    for j in range(j_max + 1):
        table = g_enumerate_table(crystal, j)
        for coords in sorted(tail_weight_support(crystal, j)):
            for b in crystal.elements:
                cells += 1
                enumerated = table.get((b, coords), ZERO)
                entry = _check_cell(family, crystal, b, coords, j, enumerated)
                if entry is not None:
                    mismatches.append(entry)
    return {
        "type": family,
        "rank": rank,
        "j_max": j_max,
        "cells_checked": cells,
        "mismatches": mismatches,
    }
