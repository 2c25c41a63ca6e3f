"""Exact sparse Laurent polynomials in q with integer exponents.

Exponents and coefficients are arbitrary-precision ints, so all
arithmetic is integer-only; an exponent or coefficient that is not an
integer value is rejected with ``ValueError``.  The zero polynomial is
the empty term map.

The library's count polynomials, the recursion kernel's memo values in
``onedsums`` and the q-multinomials here, share one packed format: the
coefficient of q^k sits in bits [kW, (k + 1)W) of one int.  A count
polynomial of length j over ``parts`` letters counts at most parts^j
words in each coefficient and in every partial sum of its nonnegative
addends, so at W = ``_slot_width(j, parts)``, the least multiple of 64
that holds parts^j, no sum carries into the next slot.  ``_respace``
moves the slots apart to a wider W and ``_unpack`` reads the
coefficients back.  A q-multinomial is one big-int multiply per part,
on Gaussian binomial rows packed at the width of its length and part
count, which all its multinomials share.
"""

from __future__ import annotations

import sys
from functools import cache
from typing import Iterable, Iterator, Mapping, Sequence


def _integral(x) -> int:
    """x as an int; ValueError when x is not an integer value."""
    n = int(x)
    if n != x:
        raise ValueError(f"{x} is not an integer")
    return n


class InexactDivisionError(ArithmeticError):
    """Raised when a Laurent division leaves a remainder; carries it."""

    def __init__(self, remainder: "LaurentPoly"):
        super().__init__(f"division is not exact; remainder {remainder}")
        self.remainder = remainder


class LaurentPoly:
    """Immutable sparse Laurent polynomial in q.

    The internal map sends int exponents to nonzero int coefficients;
    construct via :meth:`monomial`, :meth:`from_terms`,
    :meth:`from_dense`, or arithmetic.  ``bool(p)`` is false exactly for
    the zero polynomial.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None, *, _trusted: bool = False):
        if terms is None:
            self._terms: dict[int, int] = {}
        elif _trusted:
            self._terms = dict(terms)
        else:
            self._terms = {_integral(e): _integral(c) for e, c in terms.items() if c != 0}

    @classmethod
    def monomial(cls, coeff: int, exp: int = 0) -> "LaurentPoly":
        """coeff * q^exp."""
        if coeff == 0:
            return cls()
        return cls({_integral(exp): _integral(coeff)}, _trusted=True)

    @classmethod
    def from_terms(cls, pairs: Iterable[tuple[int, int]]) -> "LaurentPoly":
        terms: dict[int, int] = {}
        for exp, coeff in pairs:
            key = _integral(exp)
            value = terms.get(key, 0) + _integral(coeff)
            if value:
                terms[key] = value
            else:
                terms.pop(key, None)
        return cls(terms, _trusted=True)

    @classmethod
    def from_dense(cls, low: int, coeffs: Sequence[int]) -> "LaurentPoly":
        """sum_k coeffs[k] * q^(low + k), for int coefficients."""
        return cls({e: c for e, c in enumerate(coeffs, _integral(low)) if c}, _trusted=True)

    def coeff(self, exp: int) -> int:
        return self._terms.get(_integral(exp), 0)

    def terms(self) -> Iterator[tuple[int, int]]:
        """Yield (exponent, coefficient) pairs sorted by exponent."""
        for key in sorted(self._terms):
            yield key, self._terms[key]

    def shift(self, exp: int) -> "LaurentPoly":
        """Multiply by q^exp."""
        offset = _integral(exp)
        if offset == 0:
            return self
        return LaurentPoly({e + offset: c for e, c in self._terms.items()}, _trusted=True)

    def truncate(self, max_exp: int) -> "LaurentPoly":
        """Drop all terms with exponent strictly above max_exp."""
        cap = _integral(max_exp)
        return LaurentPoly({e: c for e, c in self._terms.items() if e <= cap}, _trusted=True)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        result = dict(self._terms)
        for exp, coeff in other._terms.items():
            value = result.get(exp, 0) + coeff
            if value:
                result[exp] = value
            else:
                del result[exp]
        return LaurentPoly(result, _trusted=True)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._terms.items()}, _trusted=True)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly()
            return LaurentPoly({e: c * other for e, c in self._terms.items()}, _trusted=True)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if len(self._terms) > len(other._terms):
            longer, shorter = self._terms, other._terms
        else:
            longer, shorter = other._terms, self._terms
        result: dict[int, int] = {}
        for e1, c1 in shorter.items():
            for e2, c2 in longer.items():
                key = e1 + e2
                value = result.get(key, 0) + c1 * c2
                if value:
                    result[key] = value
                else:
                    del result[key]
        return LaurentPoly(result, _trusted=True)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for exp, coeff in self.terms():
            if exp == 0:
                body = str(abs(coeff))
            else:
                power = "q" if exp == 1 else f"q^{exp}"
                body = power if abs(coeff) == 1 else f"{abs(coeff)}*{power}"
            sign = "-" if coeff < 0 else "+"
            chunks.append(f"{sign} {body}")
        text = " ".join(chunks)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def to_json_obj(self) -> dict:
        """{"terms": [[doubled_exponent, coeff_string], ...]} sorted ascending.

        Exponents are written doubled: this is the format of the ``verify``
        mismatch entries, which must keep their bytes.
        """
        return {"terms": [[2 * e, str(c)] for e, c in self.terms()]}


ZERO = LaurentPoly()
ONE = LaurentPoly.monomial(1)


def exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact quotient num/den in the Laurent ring.

    Raises InexactDivisionError (carrying the remainder) when den does not
    divide num, and ZeroDivisionError when den is zero.
    """
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return ZERO
    den_terms = sorted(den._terms.items())
    den_low_exp, den_low_coeff = den_terms[0]
    # The quotient's lowest term is forced: no cancellation can occur at the
    # minimal exponent, so integer divisibility there is necessary for exactness.
    max_quot_exp = max(num._terms) - max(den._terms)
    remainder = dict(num._terms)
    quotient: dict[int, int] = {}
    while remainder:
        rem_low_exp = min(remainder)
        rem_low_coeff = remainder[rem_low_exp]
        quot_exp = rem_low_exp - den_low_exp
        quot_coeff, leftover = divmod(rem_low_coeff, den_low_coeff)
        if leftover != 0 or quot_exp > max_quot_exp:
            raise InexactDivisionError(LaurentPoly(remainder, _trusted=True))
        quotient[quot_exp] = quot_coeff
        for exp, coeff in den_terms:
            key = exp + quot_exp
            value = remainder.get(key, 0) - coeff * quot_coeff
            if value:
                remainder[key] = value
            else:
                remainder.pop(key, None)
    return LaurentPoly(quotient, _trusted=True)


def _slot_width(j: int, parts: int) -> int:
    """Bits per slot of a packed count polynomial of length j over
    ``parts`` letters: the least multiple of 64 that holds parts^j."""
    return 64 * -(-(parts**j).bit_length() // 64)


def _respace(packed: int, narrow: int, wide: int) -> int:
    """A packed value with its slots of ``narrow`` bits moved apart to
    ``wide`` bits each; both widths are multiples of 8."""
    size = narrow // 8
    data = packed.to_bytes(-(-packed.bit_length() // narrow) * size, "little")
    pad = bytes((wide - narrow) // 8)
    return int.from_bytes(pad.join([data[k : k + size] for k in range(0, len(data), size)]), "little")


def _unpack(packed: int, width: int, native: bool = sys.byteorder == "little") -> tuple[int, ...]:
    """The coefficients in the slots of ``width`` bits of a packed value,
    up to its highest nonzero one.  Slots of 64 bits on a little-endian
    machine are read as one array of machine words."""
    if packed.bit_length() <= width:
        return (packed,)
    size = width // 8
    data = packed.to_bytes(-(-packed.bit_length() // width) * size, "little")
    if native and width == 64:
        return tuple(memoryview(data).cast("Q"))
    return tuple(int.from_bytes(data[k : k + size], "little") for k in range(0, len(data), size))


@cache
def _qbinomial_rows(n: int, width: int) -> tuple[int, ...]:
    """Gaussian binomials [n, k] for k = 0..n packed in slots of ``width``
    bits, by the q-Pascal rule [n, k] = [n-1, k-1] + q^k [n-1, k]; no
    division.  ``_qbinomial_rows.cache_clear()`` frees the table."""
    if n == 0:
        return (1,)
    prev = _qbinomial_rows(n - 1, width)
    return (1, *(prev[k - 1] + (prev[k] << k * width) for k in range(1, n)), 1)


def _packed_qmultinomial(gamma: Iterable[int], width: int) -> int:
    """``qmultinomial`` at base 1 packed in slots of ``width`` bits: the
    product of the binomials [gamma_1 + ... + gamma_i, gamma_i]."""
    result, total = 1, 0
    for g in gamma:
        total += g
        if g and g != total:  # [total, 0] = [total, total] = 1
            result *= _qbinomial_rows(total, width)[g]
    return result


def qmultinomial(j: int, gamma: Iterable[int], base_exp: int = 1) -> LaurentPoly:
    """(q)_j / prod_b (q)_{gamma_b} when j = sum(gamma) with all parts >= 0.

    Returns the zero polynomial otherwise. base_exp = 2 substitutes q -> q^2
    throughout. Computed packed (``_packed_qmultinomial``) and unpacked
    once, so no division is needed.
    """
    if j < 0:
        raise ValueError("j must be nonnegative")
    parts = tuple(gamma)
    if any(g < 0 for g in parts) or sum(parts) != j:
        return ZERO
    width = _slot_width(j, len(parts))
    coeffs = _unpack(_packed_qmultinomial(parts, width), width)
    return LaurentPoly.from_terms((base_exp * e, c) for e, c in enumerate(coeffs) if c)
