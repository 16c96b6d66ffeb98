"""Finite abelian groups given as explicit products of cyclic groups.

Elements are coordinate vectors reduced modulo the factor orders.  The
canonical element order is lexicographic over coordinates, which coincides
with row-major mixed-radix index order; every deterministic tie-break in
this package refers to that order.  All operations are pure and exact.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "GroupMismatchError",
    "GroupSpec",
    "GroupElement",
    "Character",
    "closure_indices",
    "require_same_spec",
]


MAX_GROUP_ORDER = 2**63  # element indices and place values are int64


class GroupMismatchError(ValueError):
    """Two operands belong to different groups."""


def require_same_spec(left, right) -> None:
    """Raise GroupMismatchError unless both operands share one GroupSpec."""
    if left.spec != right.spec:
        raise GroupMismatchError(
            f"operands live in different groups: {left.spec.moduli} vs {right.spec.moduli}"
        )


@dataclass(frozen=True)
class GroupSpec:
    """The group Z_m1 x ... x Z_mn; every m_j >= 2 and the order at most 2**63."""

    moduli: tuple[int, ...]

    def __post_init__(self) -> None:
        mods = tuple(int(m) for m in self.moduli)
        if not mods:
            raise ValueError("a group needs at least one cyclic factor")
        bad = [m for m in mods if m < 2]
        if bad:
            raise ValueError(f"cyclic factor orders must be at least 2, got {bad}")
        order = math.prod(mods)
        if order > MAX_GROUP_ORDER:
            raise ValueError(
                f"group order {order} exceeds the limit 2**63 "
                "(element indices are stored as int64)"
            )
        object.__setattr__(self, "moduli", mods)

    # structure ------------------------------------------------------------

    @cached_property
    def order(self) -> int:
        return math.prod(self.moduli)

    @cached_property
    def exponent(self) -> int:
        return math.lcm(*self.moduli)

    @property
    def rank(self) -> int:
        return len(self.moduli)

    @cached_property
    def _weights(self) -> tuple[int, ...]:
        """Mixed-radix place values (row-major, last coordinate fastest)."""
        return tuple(math.prod(self.moduli[j + 1 :]) for j in range(self.rank))

    @cached_property
    def _bit_fields(self) -> tuple[int, int] | None:
        """(low, top) in a 2-group, where every place value is a power of two
        and digit j is a bit field of the index: top has the highest bit of
        each field set, low the others.  None in any other group."""
        if self.order & (self.order - 1):
            return None
        top = sum(m * w // 2 for m, w in zip(self.moduli, self._weights))
        return (self.order - 1) ^ top, top

    @cached_property
    def _arange(self) -> np.ndarray:
        return np.arange(self.order, dtype=np.int64)

    # elements ---------------------------------------------------------------

    def element(self, coords: Sequence[int]) -> "GroupElement":
        return GroupElement(self, tuple(int(c) for c in coords))

    def identity(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def element_at(self, index: int) -> "GroupElement":
        index = int(index)
        if not 0 <= index < self.order:
            raise ValueError(f"element index {index} out of range [0, {self.order})")
        coords = tuple(
            int((index // w) % m) for w, m in zip(self._weights, self.moduli)
        )
        return GroupElement(self, coords)

    def index_of(self, coords: Sequence[int]) -> int:
        total = 0
        for c, w, m in zip(coords, self._weights, self.moduli):
            if not 0 <= c < m:
                raise ValueError(f"coordinate {c} out of range [0, {m})")
            total += int(c) * w
        return total

    def elements(self) -> Iterator["GroupElement"]:
        for i in range(self.order):
            yield self.element_at(i)

    # vectorized index arithmetic ---------------------------------------------

    def digits(self, indices: np.ndarray | int) -> tuple[np.ndarray, ...]:
        """Coordinates of the given element indices: one int64 array per
        factor, each shaped like `indices`."""
        if self.order < MAX_GROUP_ORDER:
            return np.unravel_index(indices, self.moduli)
        # np.unravel_index takes fewer than 2**63 cells: split digit 0 off first
        top, rest = np.divmod(indices, self._weights[0])
        return (top, *np.unravel_index(rest, self.moduli[1:]))

    def add_indices(self, x: np.ndarray, y: np.ndarray | int) -> np.ndarray:
        """Indices of x + y, elementwise over the broadcast of the index arrays.

        In a 2-group digit j is a bit field of the index, and the fields add
        at once: clear each field's top bit, add, and restore the top bits by
        xor, so no carry leaves a field and no digit is needed.  Otherwise
        x + y = sum_j (x_j + y_j) w_j, less m_j w_j for each digit j with
        y_j >= m_j - x_j, the digits of x and of y taken by `digits`.
        """
        fields = self._bit_fields
        if fields:
            low, top = fields
            out = (x & low) + (y & low)
            out ^= x & top
            out ^= y & top
            return out
        out = x + y
        terms = zip(self.moduli, self._weights, self.digits(x), self.digits(y))
        for m, w, x_j, y_j in terms:
            np.subtract(out, m * w, out=out, where=y_j >= m - x_j)
        return out

    def shift_indices(self, indices: np.ndarray, by: int) -> np.ndarray:
        """Indices of x + b for each index x in `indices`, b the index `by`."""
        return self.add_indices(indices, int(by))

    def negate_indices(self, indices: np.ndarray) -> np.ndarray:
        terms = zip(self.digits(indices), self.moduli, self._weights)
        return sum((-x_j % m) * w for x_j, m, w in terms)

    def add_index(self, i: int, j: int) -> int:
        return int(self.add_indices(np.array([i], dtype=np.int64), int(j))[0])

    @cached_property
    def _axis_cycles(self) -> tuple[tuple[np.ndarray, int, int], ...]:
        """(v_j v_j, m_j, w_j) per coordinate j, with v_j = arange(m_j) w_j the
        place values of digit j stored twice so that each rotation of v_j is
        a slice; the arrays are read-only."""
        out = []
        for m, w in zip(self.moduli, self._weights):
            v = np.arange(m, dtype=np.int64) * w
            both = np.concatenate((v, v))
            both.flags.writeable = False
            out.append((both, m, w))
        return tuple(out)

    def _translate_table(self, by: int) -> np.ndarray:
        """Indices of y + b for every index y in index order, b the index `by`.

        Equal to shift_indices(_arange, by).  In exponent 2 every digit is
        one bit of the index, so the table is _arange ^ b; otherwise it is
        the outer sum over coordinates of ((y_j + b_j) mod m_j) w_j, each
        term a slice of _axis_cycles[j], so no digit of any y is computed.
        The result may be a read-only view.
        """
        by = int(by)
        if self.exponent == 2:
            return self._arange ^ by
        table = None
        for both, m, w in self._axis_cycles:
            b = by // w % m
            axis = both[b : b + m]
            table = axis if table is None else np.add.outer(table, axis)
        return table.reshape(-1)

    # characters ---------------------------------------------------------------

    def character(self, coords: Sequence[int]) -> "Character":
        return Character(self, tuple(int(c) for c in coords))

    def character_at(self, index: int) -> "Character":
        return Character(self, self.element_at(index).coords)

    def trivial_character(self) -> "Character":
        return Character(self, (0,) * self.rank)

    def characters(self) -> Iterator["Character"]:
        for i in range(self.order):
            yield self.character_at(i)

    def __repr__(self) -> str:
        return "Z" + "xZ".join(str(m) for m in self.moduli)


@dataclass(frozen=True)
class _Coords:
    """Reduced coordinates in a group, with their canonical index.

    Dataclass equality also compares the class, so an element never equals
    a character with the same coordinates.
    """

    spec: GroupSpec
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        coords = tuple(int(c) for c in self.coords)
        object.__setattr__(self, "coords", coords)
        if len(coords) != self.spec.rank:
            raise ValueError(f"expected {self.spec.rank} coordinates, got {len(coords)}")
        for c, m in zip(coords, self.spec.moduli):
            if not 0 <= c < m:
                raise ValueError(f"coordinate {c} out of range [0, {m})")

    @cached_property
    def index(self) -> int:
        return sum(c * w for c, w in zip(self.coords, self.spec._weights))


@dataclass(frozen=True)
class GroupElement(_Coords):
    """One group element, stored as reduced coordinates."""

    def __add__(self, other: "GroupElement") -> "GroupElement":
        require_same_spec(self, other)
        coords = tuple(
            (a + b) % m for a, b, m in zip(self.coords, other.coords, self.spec.moduli)
        )
        return GroupElement(self.spec, coords)

    def __neg__(self) -> "GroupElement":
        coords = tuple((-a) % m for a, m in zip(self.coords, self.spec.moduli))
        return GroupElement(self.spec, coords)

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def __rmul__(self, n: int) -> "GroupElement":
        if not isinstance(n, int):
            return NotImplemented
        coords = tuple((n * a) % m for a, m in zip(self.coords, self.spec.moduli))
        return GroupElement(self.spec, coords)

    def is_identity(self) -> bool:
        return all(c == 0 for c in self.coords)

    def element_order(self) -> int:
        """Least t >= 1 with t * self = identity."""
        t = 1
        for c, m in zip(self.coords, self.spec.moduli):
            t = math.lcm(t, m // math.gcd(c, m))
        return t

    def __repr__(self) -> str:
        return f"({','.join(str(c) for c in self.coords)})"


@dataclass(frozen=True)
class Character(_Coords):
    """A character of the group; self.coords indexes the dual group.

    Evaluation follows gamma(x) = exp(2*pi*i * sum_j coords_j * x_j / m_j),
    so the dual group is again Z_m1 x ... x Z_mn under the same indexing.
    """

    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.coords)

    def phase(self, x: GroupElement) -> Fraction:
        """Exact phase in [0, 1): gamma(x) = exp(2*pi*i*phase)."""
        require_same_spec(self, x)
        ph = Fraction(0)
        for c, xc, m in zip(self.coords, x.coords, self.spec.moduli):
            ph += Fraction(c * xc, m)
        return ph % 1

    def __call__(self, x: GroupElement) -> complex:
        return cmath.exp(2j * math.pi * float(self.phase(x)))


def _span_with(spec: GroupSpec, span: np.ndarray, g: int) -> np.ndarray:
    """Sorted indices of <H, g> for `span` the sorted indices of a subgroup H.

    Coset doubling: after j steps span = H + {0, g, ..., (2^j - 1) g}, and
    the next step adds the translate by t = 2^j g.  Once t lies in span,
    t is in H + i g for some i < 2^j, so k = 2^j - i <= 2^j has k g in H and
    span already holds every H + i g with i < k, which is all of <H, g>.
    That takes at most ceil(log2 ord(g)) shifts.
    """
    t = int(g)
    while True:
        pos = int(np.searchsorted(span, t))
        if pos < span.size and span[pos] == t:
            return span
        # sort and drop adjacent repeats: np.union1d hashes and is far slower
        both = np.sort(np.concatenate((span, spec.shift_indices(span, t))))
        span = both[np.concatenate(([True], both[1:] != both[:-1]))]
        t = spec.add_index(t, t)


def closure_indices(spec: GroupSpec, generators: Iterable[int]) -> frozenset[int]:
    """Indices of the subgroup generated by the given element indices."""
    span = np.zeros(1, dtype=np.int64)
    for g in sorted({int(g) for g in generators}):
        span = _span_with(spec, span, g)
    return frozenset(span.tolist())
