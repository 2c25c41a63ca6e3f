"""Affine weight lattices, Cartan data, simple reflections on int
coordinates and the Demazure step.

Covers six families of affine Kac-Moody types with node set {0..n}:
untwisted A, B, D and twisted A (odd and even) and D. Weights carry
integer coordinates in the fundamental-weight basis plus a separate
integer delta coordinate. All Weyl-group work runs on int coordinates
and reads one int key per simple root, ``CartanType.simple_roots``:
``fold``, which reflects a point into a dominant chamber; ``ascents``,
which tests a reflection word for ascent in Bruhat length step by step
on w(rho) (``paths.check_conditions``); and the Demazure operator
``demazure_step``.

``FormalCharacter`` and ``demazure_step`` run on packed keys: one int
per affine weight, each field of (*coordinates, delta) biased by 2**31
in its own 32-bit slot, coordinate 0 most significant, so int order is
tuple order.  A step down an alpha_i-string subtracts the packed
alpha_i, and the pairing with h_i is one shift and mask.  ``_pack``
raises ValueError, naming the key, on a field outside [-2**31, 2**31);
``_unpack`` reads many keys back in one struct call.  A field pushed
past its slot would carry into the next one unseen, so each route
bounds its fields before any work, by one bound per segment
(``onedsums._check_key_fields``): the segment sum once per call, and
the operator route at its last step's segment, as every key it steps is
a weight of a Demazure character that the segment sum also writes.
Coordinates grow at most linearly in the number of steps k and the
delta at most quadratically (at A1 rank 1 and k = 60 they reach 61 and
900).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cache, cached_property
from math import gcd
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence

from .qring import _integral

FAMILIES = ("A1", "B1", "D1", "A2odd", "A2even", "D2")

_MIN_N = {"A1": 1, "B1": 3, "D1": 4, "A2odd": 3, "A2even": 1, "D2": 2}


def _is_int(value) -> bool:
    """An int, and not a bool, though bool is an int subclass."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require_count(value, what: str) -> None:
    """Raise ValueError unless value is a nonnegative int."""
    if not _is_int(value):
        raise ValueError(f"{what} must be an int, got {value!r}")
    if value < 0:
        raise ValueError(f"{what} must be nonnegative")


@dataclass(frozen=True)
class Weight:
    """Affine weight: fundamental-weight coordinates plus a delta coordinate.

    All coordinates are ints; a coordinate that is not an integer value
    raises ValueError.
    """

    lambda_coords: tuple[int, ...]
    delta_coord: int = 0

    def __post_init__(self):
        object.__setattr__(self, "lambda_coords", tuple(map(_integral, self.lambda_coords)))
        object.__setattr__(self, "delta_coord", _integral(self.delta_coord))

    @classmethod
    @cache
    def zero(cls, size: int) -> "Weight":
        """The zero weight of ``size`` coordinates, built once per size."""
        return cls((0,) * size)

    def pairing(self, i: int) -> int:
        """Evaluation against the simple coroot h_i."""
        return self.lambda_coords[i]

    def classical(self) -> "Weight":
        """Image with the delta coordinate dropped."""
        return Weight(self.lambda_coords)

    def __add__(self, other: "Weight") -> "Weight":
        if not isinstance(other, Weight):
            return NotImplemented
        return Weight(
            tuple(a + b for a, b in zip(self.lambda_coords, other.lambda_coords, strict=True)),
            self.delta_coord + other.delta_coord,
        )

    def __sub__(self, other: "Weight") -> "Weight":
        if not isinstance(other, Weight):
            return NotImplemented
        return Weight(
            tuple(a - b for a, b in zip(self.lambda_coords, other.lambda_coords, strict=True)),
            self.delta_coord - other.delta_coord,
        )

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.lambda_coords), -self.delta_coord)

    def __mul__(self, scalar: int) -> "Weight":
        if not isinstance(scalar, int):
            return NotImplemented
        return Weight(tuple(scalar * a for a in self.lambda_coords), scalar * self.delta_coord)

    __rmul__ = __mul__

    def __str__(self) -> str:
        parts = [f"{c}*L{i}" for i, c in enumerate(self.lambda_coords) if c]
        if self.delta_coord:
            parts.append(f"{self.delta_coord}*d")
        return " + ".join(parts) if parts else "0"

    def to_json_obj(self) -> dict:
        """The delta coordinate is written as the fraction [delta, 1]."""
        return {"lambda": list(self.lambda_coords), "delta": [self.delta_coord, 1]}


@dataclass(frozen=True)
class CartanType:
    """Generalized Cartan matrix of affine type, with the marks and comarks
    read off it as kernel vectors (Kac, Infinite-dimensional Lie algebras)."""

    family: str
    n: int
    matrix: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        """Number of Dynkin nodes (n + 1)."""
        return self.n + 1

    @property
    def index_set(self) -> range:
        return range(self.size)

    @property
    def classical_index_set(self) -> range:
        return range(1, self.size)

    @cached_property
    def index_tuples(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The index set, then the classical index set, stored as tuples."""
        return tuple(self.index_set), tuple(self.classical_index_set)

    @cached_property
    def marks(self) -> tuple[int, ...]:
        """Primitive positive a with A a = 0 (Kac 4.8): delta = sum a_i alpha_i."""
        return _null_vector(self.matrix)

    @cached_property
    def comarks(self) -> tuple[int, ...]:
        """Primitive positive a with a A = 0 (Kac 6.1): the levels of the Lambda_i."""
        return _null_vector(tuple(zip(*self.matrix)))

    @cached_property
    def simple_roots(self) -> tuple[tuple[int, ...], ...]:
        """alpha_i for each node i as an int key (*coordinates, delta):
        column i of the Cartan matrix, plus delta at node 0."""
        return tuple(
            (*(row[i] for row in self.matrix), 1 if i == 0 else 0) for i in self.index_set
        )

    @cached_property
    def packed_roots(self) -> tuple[tuple[int, int], ...]:
        """(shift, alpha_i) for each node i on packed keys: the bit offset
        of coordinate i's slot, and alpha_i packed as a signed difference,
        so that subtracting it from a packed key subtracts alpha_i."""
        zero = _pack(self.size + 1, (0,) * (self.size + 1))
        return tuple(
            ((self.size - i) * _SLOT_BITS, _pack(self.size + 1, alpha) - zero)
            for i, alpha in enumerate(self.simple_roots)
        )

    def fundamental_weight(self, i: int) -> Weight:
        coords = [0] * self.size
        coords[i] = 1
        return Weight(tuple(coords))

    def level(self, w: Weight) -> int:
        return sum(map(mul, self.comarks, w.lambda_coords))

    def is_dominant(self, w: Weight, indices: Iterable[int] | None = None) -> bool:
        idx = self.index_set if indices is None else indices
        return all(w.pairing(i) >= 0 for i in idx)


def _build_matrix(family: str, n: int) -> list[list[int]]:
    size = n + 1
    a = [[2 if r == c else 0 for c in range(size)] for r in range(size)]

    def link(i: int, j: int, down: int = -1, up: int = -1) -> None:
        a[i][j] = down
        a[j][i] = up

    if family == "A1":
        if n == 1:
            link(0, 1, -2, -2)
        else:
            for i in range(size):
                link(i, (i + 1) % size)
    elif family == "B1":
        link(0, 2)
        link(1, 2)
        for i in range(2, n - 1):
            link(i, i + 1)
        link(n - 1, n, -1, -2)
    elif family == "D1":
        link(0, 2)
        link(1, 2)
        for i in range(2, n - 2):
            link(i, i + 1)
        link(n - 2, n - 1)
        link(n - 2, n)
    elif family == "A2odd":
        link(0, 2)
        link(1, 2)
        for i in range(2, n - 1):
            link(i, i + 1)
        link(n - 1, n, -2, -1)
    elif family == "A2even":
        if n == 1:
            link(0, 1, -1, -4)
        else:
            link(0, 1, -1, -2)
            for i in range(1, n - 1):
                link(i, i + 1)
            link(n - 1, n, -1, -2)
    elif family == "D2":
        link(0, 1, -2, -1)
        for i in range(1, n - 1):
            link(i, i + 1)
        link(n - 1, n, -1, -2)
    else:
        raise ValueError(f"unknown family {family!r}")
    return a


def inverse(matrix: Sequence[Sequence[int]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """d and the int matrix d * M^-1 of a square int matrix M, with d the
    least positive int that makes it integral.  Raises ValueError when M
    is not square or is singular.

    Fraction-free (Bareiss) Gauss-Jordan on ints: each step scales every
    other row of [M | I] by the pivot, clears the pivot column and
    divides by the previous pivot, a division that is always exact.  The
    last pivot p is +-det M, the left block ends as p times the identity
    and the right block as p * M^-1, which the gcd of p and its entries
    reduces to d * M^-1."""
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise ValueError(f"matrix {matrix} is not square")
    rows = [[*row, *(int(r == c) for c in range(size))] for r, row in enumerate(matrix)]
    previous = 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            raise ValueError(f"matrix {matrix} is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        p = top[col]
        for r in range(size):
            if r != col:
                factor = rows[r][col]
                rows[r] = [(p * x - factor * y) // previous for x, y in zip(rows[r], top)]
        previous = p
    divisor = gcd(previous, *(x for row in rows for x in row[size:]))
    if previous < 0:
        divisor = -divisor
    return previous // divisor, tuple(tuple(x // divisor for x in row[size:]) for row in rows)


def _null_vector(matrix: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """The primitive positive a with matrix . a = 0 of an affine matrix: fix
    a_0, invert the classical block (nodes 1..n), scale to primitive."""
    d, inv = inverse(tuple(row[1:] for row in matrix[1:]))
    vector = (d, *(-sum(x * row[0] for x, row in zip(line, matrix[1:])) for line in inv))
    divisor = gcd(*vector)
    return tuple(x // divisor for x in vector)


def _check_rank(family: str, n: int) -> None:
    """Raise ValueError unless n is a rank of the family.  Rank-keyed
    caches call this before they look up: True and 1.0 hash and compare
    equal to 1, so a cache alone would answer them with the rank-1
    entry, or store its first answer for them under rank 1."""
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    if not _is_int(n):
        raise ValueError(f"rank n must be an int, got {n!r}")
    if n < _MIN_N[family]:
        raise ValueError(f"family {family} needs n >= {_MIN_N[family]}, got {n}")


def cartan_type(family: str, n: int) -> CartanType:
    """Cartan data for one of the six affine families at rank parameter n."""
    _check_rank(family, n)
    return _cartan_type(family, n)


@cache
def _cartan_type(family: str, n: int) -> CartanType:
    return CartanType(family, n, tuple(tuple(row) for row in _build_matrix(family, n)))


def fold(
    ct: CartanType, coords: tuple[int, ...], idx: tuple[int, ...]
) -> tuple[tuple[int, ...], int, int]:
    """Reflect coords into the dominant chamber of the nodes idx.

    While some coordinate c at a node i of idx is negative, subtract c
    times alpha_i; its delta part, at node 0 only, is subtracted from the
    null-root offset.  Returns the folded coordinates, the number of
    steps and the offset.  Folding w(lam) for a regular dominant lam
    takes length(w) steps and ends at lam plus the offset times the null
    root.
    """
    v = list(coords)
    roots = ct.simple_roots
    steps = offset = 0
    while True:
        for i in idx:
            if v[i] < 0:
                break
        else:
            return tuple(v), steps, offset
        c = v[i]
        alpha = roots[i]
        # zip stops at the coordinates; the delta part alpha[-1] goes to the offset.
        v = [x - c * a for x, a in zip(v, alpha)]
        offset -= c * alpha[-1]
        steps += 1


def ascents(ct: CartanType, word: Iterable[int]) -> Iterator[bool]:
    """For each index i of word in turn, whether prepending r_i to the
    element w built so far (rightmost applied first) lengthens it.

    Tracks w(rho) on int coordinates from rho = (1, ..., 1): r_i w is
    longer than w exactly when the pairing of w(rho) with h_i is positive
    (Kac, Infinite-dimensional Lie algebras, Lemma 3.11), and then w(rho)
    becomes r_i w(rho) = w(rho) - <w(rho), h_i> alpha_i.
    """
    v = [1] * ct.size
    for i in word:
        c = v[i]
        yield c > 0
        v = [x - c * a for x, a in zip(v, ct.simple_roots[i])]


def dominant_classical_weights(ct: CartanType, level: int) -> list[Weight]:
    """All classical dominant weights of the given level, sorted by coordinates.

    These are nonnegative combinations of fundamental weights whose comark
    pairing equals the level; the delta coordinate is zero.
    """
    results: list[Weight] = []

    def fill(idx: int, remaining: int, coords: list[int]) -> None:
        if idx == ct.size:
            if remaining == 0:
                results.append(Weight(tuple(coords)))
            return
        comark = ct.comarks[idx]
        for c in range(remaining // comark + 1):
            coords.append(c)
            fill(idx + 1, remaining - c * comark, coords)
            coords.pop()

    fill(0, level, [])
    return sorted(results, key=lambda w: w.lambda_coords)


class FormalCharacter:
    """Finite integer combination of formal exponentials of affine weights.

    Built from int keys (*coordinates, delta) mapped to int coefficients;
    a key entry or coefficient that is not an integer value, keys of
    different lengths and a field outside [-2**31, 2**31) raise
    ValueError.  Stored as {packed key: nonzero coefficient} plus the
    field count, so it compares and adds as an int dict; ``to_keys``
    unpacks every key in one struct call.  The character routes hand
    over their packed dicts through ``_packed``, which keeps the dict.
    """

    __slots__ = ("_fields", "_coeffs")

    def __init__(self, keys: Mapping[tuple[int, ...], int]):
        keys = {tuple(map(_integral, key)): _integral(c) for key, c in keys.items() if c}
        fields = len(next(iter(keys), ()))
        for key in keys:
            if not key:
                raise ValueError("a key needs at least its delta field")
            if len(key) != fields:
                raise ValueError(f"key {key} has {len(key)} fields, the first key has {fields}")
        self._fields = fields
        self._coeffs = {_pack(fields, key): c for key, c in keys.items()}

    @classmethod
    def _packed(cls, fields: int, coeffs: dict[int, int]) -> "FormalCharacter":
        """The character of nonzero coefficients keyed by packed keys of
        ``fields`` fields each, holding ``coeffs`` itself, not a copy."""
        chi = cls.__new__(cls)
        chi._fields, chi._coeffs = fields, coeffs
        return chi

    def to_keys(self) -> dict[tuple[int, ...], int]:
        """Coefficients keyed by (*coordinates, delta), as the constructor
        reads, in key order: the packed keys sorted, then unpacked."""
        if not self._coeffs:
            return {}
        keys = sorted(self._coeffs)
        return dict(zip(_unpack(self._fields, keys), map(self._coeffs.__getitem__, keys)))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FormalCharacter):
            return NotImplemented
        # Keys of different lengths can pack to equal ints, but only
        # empty characters of different field counts are equal.
        return self._coeffs == other._coeffs and (
            self._fields == other._fields or not self._coeffs
        )

    def __add__(self, other: "FormalCharacter") -> "FormalCharacter":
        if not isinstance(other, FormalCharacter):
            return NotImplemented
        if not other._coeffs:
            return self
        if not self._coeffs:
            return other
        if self._fields != other._fields:
            raise ValueError(f"cannot add characters of {self._fields} and {other._fields} fields per key")
        data = dict(self._coeffs)
        for key, c in other._coeffs.items():
            data[key] = data.get(key, 0) + c
        return FormalCharacter._packed(self._fields, {key: c for key, c in data.items() if c})

    def __repr__(self) -> str:
        return f"FormalCharacter({self.to_keys()!r})"


# ---------------------------------------------------------------------------
# Packed keys (see the module docstring)

_SLOT_BITS = 32
_SLOT_MASK = (1 << _SLOT_BITS) - 1
_SLOT_BIAS = 1 << (_SLOT_BITS - 1)


@cache
def _slots(fields: int) -> tuple[struct.Struct, int]:
    """The struct of ``fields`` big-endian signed 32-bit slots, and the
    int with the top bit of each slot set.  A field f in range, biased to
    f + 2**31, and xor-ed with that top bit is f's two's complement, so
    the struct reads a packed key's fields back from its bytes."""
    return (
        struct.Struct(f">{fields}i"),
        sum(_SLOT_BIAS << (_SLOT_BITS * slot) for slot in range(fields)),
    )


def _pack(fields: int, key: tuple[int, ...]) -> int:
    """The packed int of a key of ``fields`` int fields; ValueError, naming
    the key, when a field falls outside [-2**31, 2**31)."""
    layout, flip = _slots(fields)
    try:
        return int.from_bytes(layout.pack(*key), "big") ^ flip
    except struct.error:
        raise ValueError(f"key {key} does not fit 32-bit slots") from None


def _unpack(fields: int, keys: list[int]) -> Iterator[tuple[int, ...]]:
    """The fields of each packed key in turn, as an int tuple: the keys'
    bytes joined and read by one struct call."""
    layout, flip = _slots(fields)
    width = layout.size
    return layout.iter_unpack(b"".join([(key ^ flip).to_bytes(width, "big") for key in keys]))


def demazure_step(ct: CartanType, i: int, terms: Mapping[int, int]) -> dict[int, int]:
    """Demazure operator D_i on coefficients keyed by packed ints.

    On a single exponential with exponent mu, writing m for the pairing of
    mu + rho against h_i: the result is the sum of exponentials mu - t*alpha_i
    for 0 <= t < m when m > 0, zero when m = 0, and minus the sum of
    mu + t*alpha_i for 1 <= t <= -m when m < 0.  Zero coefficients are
    dropped.  alpha_i and the slot of coordinate i are read from
    ``CartanType.packed_roots``.
    """
    shift, alpha = ct.packed_roots[i]
    below = _SLOT_BIAS - 1
    out: dict[int, int] = {}
    for mu, c in terms.items():
        m = (mu >> shift & _SLOT_MASK) - below
        if m > 0:
            for _ in range(m):
                out[mu] = out.get(mu, 0) + c
                mu -= alpha
        elif m < 0:
            for _ in range(-m):
                mu += alpha
                out[mu] = out.get(mu, 0) - c
    return {key: c for key, c in out.items() if c}
