"""Demazure path sets grown along the schedule read off the crystal.

Constructs the path set after k steps two independent ways (direct
product shape versus step-by-step lowering closure), and computes the
Demazure character both as a sum over paths (the segment sum of
``onedsums`` over one listing of the tails, without building the path
set) and by iterated Demazure operators. ``demazure_schedule``, the one
schedule builder, and ``check_conditions``, which tests the three
structural requirements of the growth procedure (full closure per
segment, boundary capacity, ascending reflection word), live in
``paths`` and are importable from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .onedsums import _check_key_fields, _segment_character, _walker_terms
from .paths import (
    ConditionReport,
    Schedule,
    Word,
    check_conditions,
    demazure_schedule,
    paths_at_step,
)
from .weights import FormalCharacter, _pack, demazure_step


@dataclass(frozen=True)
class DemazureCrystal:
    """Path set after k growth steps, with its window and reflection word
    (newest reflection first)."""

    k: int
    window: int
    words: frozenset[Word]
    weyl_word: tuple[int, ...]


def demazure_paths(s: Schedule, k: int, method: str = "product") -> DemazureCrystal:
    """Path set after k steps.

    method="product": leading set at the current step times free letters.
    method="recursion": grow from the bare ground state by lowering
    closures, one index at a time. Both constructions agree elementwise.
    """
    weyl_word = s.weyl_word(k)
    if method == "product":
        if k == 0:
            window, words = 0, {()}
        else:
            j, a = s.decompose(k)
            window = j
            leading = s.leading_sets(j)[a]
            words = {
                (b, *tail)
                for b in leading
                for tail in product(s.crystal.elements, repeat=j - 1)
            }
    elif method == "recursion":
        window, words = paths_at_step(s, k)
    else:
        raise ValueError(f"unknown method {method!r}")
    return DemazureCrystal(k, window, frozenset(words), weyl_word)


def character_by_paths(s: Schedule, k: int) -> FormalCharacter:
    """Sum of e^{weight} over the path set after k steps, with exact
    delta-coordinates, read as the segment sum over one listing of the
    tails: the path set itself is never built."""
    j, a = s.decompose(k)
    return _segment_character(s, j, a, _walker_terms)


def _operator_terms(s: Schedule, word: tuple[int, ...]) -> Iterator[dict[int, int]]:
    """The ground-state exponential as packed keys, then the terms after
    each Demazure step along word in turn."""
    ct = s.crystal.cartan
    lam = s.ground.window_weight(0)
    terms = {_pack(ct.size + 1, (*lam.lambda_coords, lam.delta_coord)): 1}
    yield terms
    for i in word:
        terms = demazure_step(ct, i, terms)
        yield terms


def character_by_operators(s: Schedule, k: int) -> FormalCharacter:
    """Iterated Demazure operators on e^{weight of the ground state},
    applied along the schedule's reflection word.  The k steps run on
    packed int keys (``demazure_step``), from the ground-state key packed
    once, and the character keeps the last step's dict as it is: it is
    packed the same way, and ``demazure_step`` drops its zeros.

    Each step's keys are weights of that step's character, which equals
    the path character of its segment, so the segment sum's field bound
    (``onedsums._check_key_fields``) at step k's segment holds them all;
    ValueError, before any step, when it exceeds the 32-bit slots."""
    _check_key_fields(s, s.decompose(k)[0])
    for terms in _operator_terms(s, s.weyl_word(k)[::-1]):
        pass
    return FormalCharacter._packed(s.crystal.cartan.size + 1, terms)


def operator_characters(s: Schedule, k_max: int) -> Iterator[FormalCharacter]:
    """``character_by_operators(s, k)`` for k = 0, 1, ..., k_max in turn,
    read off one running sequence of k_max Demazure steps; ValueError at
    the call, as in ``character_by_operators`` for k_max."""
    _check_key_fields(s, s.decompose(k_max)[0])
    fields = s.crystal.cartan.size + 1
    return (
        FormalCharacter._packed(fields, terms)
        for terms in _operator_terms(s, s.weyl_word(k_max)[::-1])
    )
