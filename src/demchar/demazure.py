"""Demazure path sets grown along per-family lowering schedules.

Bundles a ground state with its index table, validates the three
structural requirements of the growth procedure (full closure per
segment, boundary capacity, ascending reflection word), constructs the
path set after k steps two independent ways (direct product shape versus
step-by-step lowering closure), and computes the Demazure character both
as a sum over paths and by iterated Demazure operators.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from itertools import product

from .crystals import Element, PerfectCrystal
from .paths import GroundState, Schedule, Word, leading_sets, paths_at_step, schedule_for
from .weights import FormalCharacter, WeylElement, demazure_step


@dataclass(frozen=True)
class DemazureSchedule:
    """A ground state together with the index table that grows its
    Demazure path sets."""

    ground: GroundState
    table: Schedule

    @property
    def crystal(self) -> PerfectCrystal:
        return self.ground.crystal

    @property
    def d(self) -> int:
        return self.table.d

    def leading_sets(self, j: int) -> list[set[Element]]:
        """Leftmost-factor sets, empty steps through the full crystal."""
        return leading_sets(self.ground, self.table, j)

    def with_index_override(self, j: int, a: int, i: int) -> "DemazureSchedule":
        """Copy whose table answers i at segment j, step a."""
        if i not in self.crystal.cartan.index_set:
            raise ValueError(f"{i} is not a Dynkin index")
        overrides = self.table.overrides + ((j, a, i),)
        return replace(self, table=replace(self.table, overrides=overrides))

    def with_shortened_table(self) -> "DemazureSchedule":
        """Copy whose segments stop one lowering step early."""
        if self.table.d < 2:
            raise ValueError("table too short to shorten")
        return replace(self, table=replace(self.table, d=self.table.d - 1))


def demazure_schedule(
    crystal: PerfectCrystal, lam, variant: int = 1
) -> DemazureSchedule:
    """Build the index table and the ground state for a fundamental
    weight, its own or borrowed through a diagram symmetry (see
    schedule_for); the table is looked up first."""
    table = schedule_for(crystal, lam, variant)
    return DemazureSchedule(GroundState(crystal, lam), table)


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the structural checks on a schedule. Each violation is
    one message tagged closure:, capacity:, or ascent:."""

    j_max: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def first_violation(self) -> str | None:
        return self.violations[0] if self.violations else None


def check_conditions(s: DemazureSchedule, j_max: int) -> ConditionReport:
    """Verify, for every segment up to j_max: the lowering closure reaches
    the whole crystal; every boundary demand is covered by raising
    capacity; and the reflection word ascends step by step through
    j_max full segments."""
    if j_max < 1:
        raise ValueError("j_max must be at least 1")
    crystal, ground, table = s.crystal, s.ground, s.table
    full = set(crystal.elements)
    violations: list[str] = []
    for j in range(1, j_max + 1):
        sets = leading_sets(ground, table, j)
        if sets[table.d] != full:
            missing = sorted(full - sets[table.d], key=crystal.index)
            violations.append(
                f"closure: segment {j} reaches {len(sets[table.d])} of "
                f"{len(full)} elements, missing {missing}"
            )
        lam_j = ground.window_weight(j)
        for a in range(1, table.d + 1):
            i = table.index(j, a)
            demand = lam_j.pairing(i)
            for b in sorted(sets[a - 1], key=crystal.index):
                if crystal.epsilon(i, b) < demand:
                    violations.append(
                        f"capacity: segment {j} step {a} lowers along {i} "
                        f"but {b} raises only {crystal.epsilon(i, b)} < {demand}"
                    )
                    break
    elem = WeylElement.identity(crystal.cartan)
    for k in range(1, j_max * table.d + 1):
        i = table.flat_index(k)
        if not elem.is_ascent(i):
            violations.append(
                f"ascent: step {k} prepends reflection {i} without "
                f"lengthening the word"
            )
            break
        elem = elem.prepend(i)
    return ConditionReport(j_max, tuple(violations))


@dataclass(frozen=True)
class DemazureCrystal:
    """Path set after k growth steps, with its window and reflection word
    (newest reflection first)."""

    k: int
    window: int
    words: frozenset[Word]
    weyl_word: tuple[int, ...]

    @property
    def path_count(self) -> int:
        return len(self.words)


def demazure_paths(s: DemazureSchedule, k: int, method: str = "product") -> DemazureCrystal:
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
            j, a = s.table.decompose(k)
            window = j
            leading = s.leading_sets(j)[a]
            words = {
                (b, *tail)
                for b in leading
                for tail in product(s.crystal.elements, repeat=j - 1)
            }
    elif method == "recursion":
        window, words = paths_at_step(s.ground, s.table, k)
    else:
        raise ValueError(f"unknown method {method!r}")
    return DemazureCrystal(k, window, frozenset(words), s.table.weyl_word(k))


def character_by_paths(s: DemazureSchedule, k: int) -> FormalCharacter:
    """Sum of e^{weight} over the path set after k steps, with exact
    delta-coordinates.  Each path's weight is an int key
    (``GroundState.path_key``); Weights are built once per distinct key."""
    pc = demazure_paths(s, k)
    return FormalCharacter.from_keys(
        Counter(s.ground.path_key(pc.window, word) for word in pc.words)
    )


def character_by_operators(s: DemazureSchedule, k: int) -> FormalCharacter:
    """Iterated Demazure operators on e^{weight of the ground state},
    applied along the schedule's reflection word.  The k steps run on int
    keys (``demazure_step``); Weights are built once at the end."""
    if k < 0:
        raise ValueError("steps must be nonnegative")
    ct = s.crystal.cartan
    terms = FormalCharacter.monomial(s.ground.window_weight(0)).to_keys()
    for m in range(1, k + 1):
        terms = demazure_step(ct, s.table.flat_index(m), terms)
    return FormalCharacter.from_keys(terms)
