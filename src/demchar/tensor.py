"""Tensor products of crystal elements via the alternating-sign rule.

A word holds factors leftmost-first; the path-position accessor counts
from the right starting at 1, matching the convention that position 1 is
the first step of a path. For each Dynkin index the scan writes, per
factor from the left, one minus per epsilon unit then one plus per phi
unit, cancelling each minus against the nearest surviving plus on its
left. Raising acts at the rightmost surviving minus, lowering at the
leftmost surviving plus.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .crystals import Element, PerfectCrystal
from .weights import Weight


def signature_scan(
    units: Iterable[tuple[int, int]],
) -> tuple[int, int, int | None, int | None]:
    """Run the cancellation scan over (epsilon, phi) pairs.

    Returns (epsilon_total, phi_total, raising_index, lowering_index)
    where indices count factors from the left starting at 0.
    """
    outstanding: list[int] = []
    minus: list[int] = []
    for idx, (eps, phi) in enumerate(units):
        cancelled = min(eps, len(outstanding))
        if cancelled:
            del outstanding[len(outstanding) - cancelled :]
        if eps > cancelled:
            minus.extend([idx] * (eps - cancelled))
        if phi:
            outstanding.extend([idx] * phi)
    return (
        len(minus),
        len(outstanding),
        minus[-1] if minus else None,
        outstanding[0] if outstanding else None,
    )


class TensorWord:
    """Word of elements from one crystal with crystal operators."""

    __slots__ = ("crystal", "factors")

    def __init__(self, crystal: PerfectCrystal, factors: Sequence[Element]):
        self.crystal = crystal
        self.factors = tuple(factors)

    def __len__(self) -> int:
        return len(self.factors)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorWord):
            return NotImplemented
        return self.crystal is other.crystal and self.factors == other.factors

    def __hash__(self) -> int:
        return hash((id(self.crystal), self.factors))

    def __repr__(self) -> str:
        return f"TensorWord({self.text()})"

    def factor(self, position: int) -> Element:
        """Factor at the given position counted from the right, 1-based."""
        if not 1 <= position <= len(self.factors):
            raise IndexError(f"position {position} out of range")
        return self.factors[len(self.factors) - position]

    def text(self) -> str:
        return "*".join(str(b) for b in self.factors)

    def _units(self, i: int) -> list[tuple[int, int]]:
        return [
            (self.crystal.epsilon(i, b), self.crystal.phi(i, b)) for b in self.factors
        ]

    def epsilon(self, i: int) -> int:
        return signature_scan(self._units(i))[0]

    def phi(self, i: int) -> int:
        return signature_scan(self._units(i))[1]

    def e(self, i: int) -> "TensorWord | None":
        idx = signature_scan(self._units(i))[2]
        if idx is None:
            return None
        moved = list(self.factors)
        moved[idx] = self.crystal.e(i, moved[idx])
        return TensorWord(self.crystal, moved)

    def f(self, i: int) -> "TensorWord | None":
        idx = signature_scan(self._units(i))[3]
        if idx is None:
            return None
        moved = list(self.factors)
        moved[idx] = self.crystal.f(i, moved[idx])
        return TensorWord(self.crystal, moved)

    def weight(self) -> Weight:
        total = Weight.zero(self.crystal.cartan.size)
        for b in self.factors:
            total = total + self.crystal.weight(b)
        return total

    def energy(self) -> int:
        """Sum over positions k of k times the local energy at (k+1, k)."""
        total = 0
        for k in range(1, len(self.factors)):
            total += k * self.crystal.energy(self.factor(k + 1), self.factor(k))
        return total
