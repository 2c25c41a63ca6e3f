"""Brute-force references built on the library, used by the test suite.

Unlike ``tests/oracles.py``, which shares no code with the library on
purpose, everything here is written on top of ``demchar``'s own types
(crystals, weights, tensor words, the unrestricted sum): word and Weyl
group enumeration, the Demazure operator on a ``FormalCharacter``, the
reflection identity of the unrestricted sum, products of characters
held as int-keyed dicts, and the JSON layout of a character.  Each is a
slow, direct restatement that the tests hold the fast library routes
against.
"""

from __future__ import annotations

from operator import add
from typing import Iterable, Iterator, Mapping, Sequence

from demchar.crystals import Element, PerfectCrystal
from demchar.onedsums import g_recursive
from demchar.qring import ZERO
from demchar.tensor import TensorWord
from demchar.weights import (
    CartanType,
    FormalCharacter,
    Weight,
    WeylElement,
    demazure_step,
)

Keys = Mapping[tuple[int, ...], int]


# ---------------------------------------------------------------------------
# Words and paths


def all_words(crystal: PerfectCrystal, length: int) -> Iterable[TensorWord]:
    """All tensor words of the given length, rightmost factor varying fastest."""
    if length == 0:
        yield TensorWord(crystal, ())
        return
    for shorter in all_words(crystal, length - 1):
        for b in crystal.elements:
            yield TensorWord(crystal, shorter.factors + (b,))


def enumerate_paths(
    crystal: PerfectCrystal, head: Element, mu: Weight, j: int
) -> list[TensorWord]:
    """Words (head, b_j, ..., b_1) whose length-j tail carries classical
    weight mu; the head contributes energy but not weight.

    Deterministic order: tails sorted by element index, leftmost first.
    """
    if j < 0:
        raise ValueError("length must be nonnegative")
    target = mu.lambda_coords
    zero = Weight.zero(crystal.cartan.size)
    out: list[TensorWord] = []

    def extend(tail: list[Element], acc: Weight) -> None:
        if len(tail) == j:
            if acc.lambda_coords == target:
                out.append(TensorWord(crystal, (head, *tail)))
            return
        for b in crystal.elements:
            tail.append(b)
            extend(tail, acc + crystal.weight(b))
            tail.pop()

    extend([], zero)
    return out


# ---------------------------------------------------------------------------
# Weyl groups


def weyl_by_length(
    ct: CartanType,
    generators: Sequence[int] | None = None,
    max_length: int | None = None,
) -> Iterator[list[WeylElement]]:
    """Yield lists of distinct Weyl elements grouped by increasing length.

    Stops when the group is exhausted or max_length is passed. With the
    classical generator subset the iteration always terminates; with all
    generators the group is infinite, so provide max_length or break.
    """
    gens = tuple(ct.index_set if generators is None else generators)
    frontier = [WeylElement.identity(ct)]
    seen = {frontier[0].mat}
    length = 0
    while frontier and (max_length is None or length <= max_length):
        yield frontier
        nxt: dict[tuple, WeylElement] = {}
        for w in frontier:
            for i in gens:
                if not w.is_ascent(i):
                    continue
                extended = w.prepend(i)
                if extended.mat not in seen and extended.mat not in nxt:
                    nxt[extended.mat] = extended
        seen.update(nxt)
        frontier = sorted(nxt.values(), key=lambda w: w.word)
        length += 1


def finite_weyl_group(ct: CartanType, generators: Sequence[int]) -> list[WeylElement]:
    """All elements generated by the given reflections (must be finite)."""
    return [w for shell in weyl_by_length(ct, generators) for w in shell]


# ---------------------------------------------------------------------------
# Characters


def demazure_op(ct: CartanType, i: int, chi: FormalCharacter) -> FormalCharacter:
    """Demazure operator D_i extended linearly over a formal character:
    ``demazure_step`` on the int keys of chi, wrapped back into Weights."""
    return FormalCharacter.from_keys(demazure_step(ct, i, chi.to_keys()))


def character_json_obj(chi: FormalCharacter) -> list[dict]:
    """The JSON layout of a character as nested dicts and lists: its terms
    in sorted key order, each weight written as ``Weight.to_json_obj``
    writes it.  The CLI writes the same bytes straight from the keys."""
    return [
        {"weight": {"lambda": list(key[:-1]), "delta": [key[-1], 1]}, "coeff": c}
        for key, c in sorted(chi.to_keys().items())
    ]


def combine(*terms: tuple[int, Keys]) -> dict[tuple[int, ...], int]:
    """The linear combination sum of scalar * keys, zero entries dropped."""
    out: dict[tuple[int, ...], int] = {}
    for scalar, keys in terms:
        for key, c in keys.items():
            out[key] = out.get(key, 0) + scalar * c
    return {key: c for key, c in out.items() if c}


def multiply(a: Keys, b: Keys) -> dict[tuple[int, ...], int]:
    """The product of two characters held as int keys: exponents add."""
    out: dict[tuple[int, ...], int] = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = tuple(map(add, k1, k2))
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


# ---------------------------------------------------------------------------
# The reflection identity of the unrestricted sum


def check_2m_relation(
    crystal: PerfectCrystal, b: Element, i: int, mu: Weight, j: int
) -> bool:
    """Compare the two f-string sums of the unrestricted 1dsum: weights
    shifted t steps along the root versus their reflections, each side
    twisted by q^(t*j) at the node-0 index. Exact evaluation."""
    ct = crystal.cartan
    m = crystal.phi(i, b)
    alpha = ct.simple_root(i)
    twist = j if i == 0 else 0
    lhs = ZERO
    rhs = ZERO
    cur = b
    for t in range(m + 1):
        lhs = lhs + g_recursive(crystal, cur, mu + t * alpha, j).shift(t * twist)
        reflected = ct.reflect(mu + (m - t) * alpha, i)
        rhs = rhs + g_recursive(crystal, cur, reflected, j).shift(t * twist)
        if t < m:
            cur = crystal.f(i, cur)
    return lhs == rhs
