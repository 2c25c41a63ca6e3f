"""Demazure path sets grown along per-family lowering schedules.

Validates the three structural requirements of the growth procedure on
a ``paths.Schedule`` (full closure per segment, boundary capacity,
ascending reflection word, tested step by step on w(rho) by
``weights.ascents``), constructs the path set after k steps two
independent ways (direct product shape versus step-by-step lowering
closure), and computes the Demazure character both as a sum over paths
(the segment sum of ``onedsums`` over one listing of the tails, without
building the path set) and by iterated Demazure operators.
``demazure_schedule``, the one schedule builder, lives in ``paths`` and
is importable from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .onedsums import _segment_character, _walker_terms
from .paths import Schedule, Word, demazure_schedule, paths_at_step
from .weights import FormalCharacter, ascents, demazure_step


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the structural checks on a schedule. Each violation is
    one message tagged closure:, capacity:, or ascent:."""

    j_max: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_conditions(s: Schedule, j_max: int) -> ConditionReport:
    """Verify, for every segment up to j_max: the lowering closure reaches
    the whole crystal; every boundary demand is covered by raising
    capacity; and the reflection word ascends step by step through
    j_max full segments."""
    if j_max < 1:
        raise ValueError("j_max must be at least 1")
    crystal = s.crystal
    full = set(crystal.elements)
    violations: list[str] = []
    for j in range(1, j_max + 1):
        sets = s.leading_sets(j)
        if sets[s.d] != full:
            missing = sorted(full - sets[s.d], key=crystal.index)
            violations.append(
                f"closure: segment {j} reaches {len(sets[s.d])} of "
                f"{len(full)} elements, missing {missing}"
            )
        lam_j = s.ground.window_weight(j)
        for a in range(1, s.d + 1):
            i = s.index(j, a)
            demand = lam_j.pairing(i)
            for b in sorted(sets[a - 1], key=crystal.index):
                if crystal.epsilon(i, b) < demand:
                    violations.append(
                        f"capacity: segment {j} step {a} lowers along {i} "
                        f"but {b} raises only {crystal.epsilon(i, b)} < {demand}"
                    )
                    break
    word = s.weyl_word(j_max * s.d)[::-1]
    for k, (i, up) in enumerate(zip(word, ascents(crystal.cartan, word)), 1):
        if not up:
            violations.append(
                f"ascent: step {k} prepends reflection {i} without "
                f"lengthening the word"
            )
            break
    return ConditionReport(j_max, tuple(violations))


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
    if k < 0:
        raise ValueError("steps must be nonnegative")
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
    return DemazureCrystal(k, window, frozenset(words), s.weyl_word(k))


def character_by_paths(s: Schedule, k: int) -> FormalCharacter:
    """Sum of e^{weight} over the path set after k steps, with exact
    delta-coordinates, read as the segment sum over one listing of the
    tails: the path set itself is never built."""
    j, a = s.decompose(k)
    return _segment_character(s, j, a, _walker_terms(s.crystal, j - 1))


def character_by_operators(s: Schedule, k: int) -> FormalCharacter:
    """Iterated Demazure operators on e^{weight of the ground state},
    applied along the schedule's reflection word.  The k steps run on int
    keys (``demazure_step``), starting from the ground-state key, and the
    character keeps them."""
    if k < 0:
        raise ValueError("steps must be nonnegative")
    ct = s.crystal.cartan
    lam = s.ground.window_weight(0)
    terms = {(*lam.lambda_coords, lam.delta_coord): 1}
    for m in range(1, k + 1):
        terms = demazure_step(ct, s.flat_index(m), terms)
    return FormalCharacter(terms)
