"""Finite subsets of a group: sumset algebra, doubling, instance generators."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .groups import (
    GroupElement,
    GroupMismatchError,
    GroupSpec,
    closure_indices,
    require_same_spec,
)

__all__ = [
    "GroupSet",
    "sumset",
    "k_fold_sum",
    "doubling_constant",
    "subgroup_closure",
    "is_subgroup",
    "generate_instance",
    "indices_to_mask",
    "translate_rows",
    "own_row_masks",
]

INSTANCE_KINDS = ("random", "independent", "subgroup", "coset_union")


_BLOCK_ENTRIES = 2**18  # entries per temporary block of the pair-sum, defect and family kernels
_ROW_TABLE_BYTES = 2**27  # largest table of its own translate rows a GroupSet keeps


def indices_to_mask(order: int, indices: Iterable[int]) -> int:
    """Pack element indices into an int bitmask (bit i <-> element index i)."""
    buf = np.zeros(order, dtype=bool)
    idx = list(indices)
    if idx:
        buf[idx] = True
    return int.from_bytes(np.packbits(buf, bitorder="little").tobytes(), "little")


def _pair_sums(
    spec: GroupSpec, xs: np.ndarray, ys: np.ndarray, row_entries: int = 0
) -> Iterator[tuple[slice, slice, np.ndarray]]:
    """Indices of x + y for x in xs (rows) and y in ys (columns), in blocks.

    Yields (rows, cols, sums) with sums[i, j] = spec.add_indices of
    xs[rows][i] and ys[cols][j]; every row slice is yielded once per
    column chunk, in order.  A block of sums, plus row_entries more
    entries per row for the caller's own scratch, stays within
    _BLOCK_ENTRIES (one row when a row alone exceeds it), and so do the
    rank digits per entry that add_indices computes from a column chunk.
    """
    cols = max(1, min(len(ys), _BLOCK_ENTRIES // spec.rank))
    rows = max(1, _BLOCK_ENTRIES // max(cols, row_entries))
    for c in range(0, len(ys), cols):
        y_part = ys[c : c + cols]
        for r in range(0, len(xs), rows):
            sums = spec.add_indices(xs[r : r + rows, None], y_part)
            yield slice(r, r + rows), slice(c, c + cols), sums


def translate_rows(B: GroupSet, xs: Sequence[int] | np.ndarray) -> np.ndarray:
    """Packed bitmasks of the translates x + B, one row per element index x in xs.

    Shape (len(xs), ceil(|G| / 64)) of little-endian uint64 words: bit y
    of a row is bit y % 64 of word y // 64, and the padding bits past |G|
    are zero, so popcounts are exact.
    """
    spec = B.spec
    xs = np.asarray(xs, dtype=np.int64).reshape(-1)
    bits = -(-spec.order // 64) * 64
    out = np.zeros((len(xs), bits // 64), dtype="<u8")
    if not B.indices:
        return out
    for rows, _, sums in _pair_sums(spec, xs, B.index_array, bits):
        block = np.zeros((len(sums), bits), dtype=bool)
        sums += np.arange(0, block.size, bits)[:, None]  # flat positions in block
        block.reshape(-1)[sums] = True
        out[rows] |= np.packbits(block, axis=1, bitorder="little").view("<u8")
    return out


def _row_ints(B: GroupSet, xs: np.ndarray) -> list[int]:
    """translate_rows(B, xs) as int bitmasks (bit y <-> element index y),
    built and converted a block of _BLOCK_ENTRIES words at a time."""
    width = -(-B.spec.order // 64) * 8  # bytes per row
    step = max(1, 8 * _BLOCK_ENTRIES // width)
    out: list[int] = []
    for i in range(0, len(xs), step):
        raw = translate_rows(B, xs[i : i + step]).tobytes()
        out.extend(int.from_bytes(raw[j : j + width], "little") for j in range(0, len(raw), width))
    return out


def own_row_masks(B: GroupSet, xs: Sequence[int] | np.ndarray) -> list[int]:
    """The masks of the translates x + B, one int per element index x in xs.

    When every x in xs lies in B, the masks come from B's table of its own
    translates (bit y <-> element index y, as GroupSet.mask), built on
    first use, kept on B as a tuple and picked out by searchsorted; xs
    that is B.index_array itself gets the whole table.  Any other request,
    or a table past _ROW_TABLE_BYTES, builds its rows per call.
    """
    own = B.index_array
    if xs is own:
        table = B._row_masks
        return _row_ints(B, own) if table is None else list(table)
    xs = np.asarray(xs, dtype=np.int64).reshape(-1)
    pos = np.searchsorted(own, xs)
    if xs.size and (pos < own.size).all() and (own[pos] == xs).all():
        table = B._row_masks
        if table is not None:
            return [table[p] for p in pos.tolist()]
    return _row_ints(B, xs)


def _index_frozenset(indices: Iterable[int] | np.ndarray) -> frozenset[int]:
    """Indices as a frozenset of Python ints; an integer array in one tolist() pass."""
    if isinstance(indices, np.ndarray):
        return frozenset(indices.astype(np.int64, copy=False).tolist())
    return frozenset(map(int, indices))


@dataclass(frozen=True)
class GroupSet:
    """A subset of a group, stored as a frozenset of canonical element indices.

    indices may be given as any iterable of ints; an integer numpy array is
    converted in one tolist() pass.
    """

    spec: GroupSpec
    indices: frozenset[int]

    def __post_init__(self) -> None:
        idx = _index_frozenset(self.indices)
        object.__setattr__(self, "indices", idx)
        if idx:
            lo, hi = min(idx), max(idx)
            if lo < 0 or hi >= self.spec.order:
                raise ValueError(f"element index out of range [0, {self.spec.order})")

    # construction -----------------------------------------------------------

    @classmethod
    def from_elements(
        cls, spec: GroupSpec, elements: Iterable[GroupElement | Sequence[int]]
    ) -> "GroupSet":
        idx = set()
        for e in elements:
            if isinstance(e, GroupElement):
                if e.spec != spec:
                    raise GroupMismatchError("element from a different group")
                idx.add(e.index)
            else:
                idx.add(spec.index_of(e))
        return cls(spec, frozenset(idx))

    @classmethod
    def empty(cls, spec: GroupSpec) -> "GroupSet":
        return cls(spec, frozenset())

    @classmethod
    def full(cls, spec: GroupSpec) -> "GroupSet":
        return cls(spec, frozenset(range(spec.order)))

    @classmethod
    def singleton(cls, x: GroupElement) -> "GroupSet":
        return cls(x.spec, frozenset([x.index]))

    # basic queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, x: GroupElement) -> bool:
        return x.spec == self.spec and x.index in self.indices

    def __iter__(self) -> Iterator[GroupElement]:
        for i in sorted(self.indices):
            yield self.spec.element_at(i)

    def members(self) -> list[GroupElement]:
        return list(self)

    def min_element(self) -> GroupElement:
        if not self.indices:
            raise ValueError("empty set has no minimum")
        return self.spec.element_at(min(self.indices))

    @property
    def has_identity(self) -> bool:
        return 0 in self.indices

    @cached_property
    def index_array(self) -> np.ndarray:
        return np.fromiter(sorted(self.indices), dtype=np.int64, count=len(self.indices))

    @cached_property
    def mask(self) -> int:
        return indices_to_mask(self.spec.order, self.indices)

    @cached_property
    def _row_masks(self) -> tuple[int, ...] | None:
        """The masks of index_array + self as a tuple of ints, or None when the
        packed rows would pass _ROW_TABLE_BYTES; see own_row_masks."""
        if len(self) * -(-self.spec.order // 64) * 8 > _ROW_TABLE_BYTES:
            return None
        return tuple(_row_ints(self, self.index_array))

    # algebra -------------------------------------------------------------------

    def shifted(self, x: GroupElement | int) -> "GroupSet":
        """The translate x + self."""
        xi = x if isinstance(x, int) else x.index
        if not self.indices:
            return self
        out = self.spec.shift_indices(self.index_array, int(xi))
        return GroupSet(self.spec, out)

    def __add__(self, other: "GroupSet") -> "GroupSet":
        return sumset(self, other)

    def __neg__(self) -> "GroupSet":
        if not self.indices:
            return self
        out = self.spec.negate_indices(self.index_array)
        return GroupSet(self.spec, out)

    def __sub__(self, other: "GroupSet") -> "GroupSet":
        return sumset(self, -other)

    def __or__(self, other: "GroupSet") -> "GroupSet":
        require_same_spec(self, other)
        return GroupSet(self.spec, self.indices | other.indices)

    def __and__(self, other: "GroupSet") -> "GroupSet":
        require_same_spec(self, other)
        return GroupSet(self.spec, self.indices & other.indices)

    def issubset(self, other: "GroupSet") -> bool:
        require_same_spec(self, other)
        return self.indices <= other.indices

    def with_identity(self) -> "GroupSet":
        return GroupSet(self.spec, self.indices | {0})

    def __repr__(self) -> str:
        shown = ",".join(repr(e) for e in list(self)[:8])
        tail = ",..." if len(self) > 8 else ""
        return f"GroupSet[{self.spec!r}]{{{shown}{tail}}}"


def sumset(A: GroupSet, B: GroupSet) -> GroupSet:
    """{a + b : a in A, b in B}; empty if either operand is empty.

    Dense inputs (|A| |B| 8 >= |G|) scatter each block of sums into one
    |G| bool mask; sparse ones sort the sums and drop adjacent repeats.
    """
    require_same_spec(A, B)
    if not A.indices or not B.indices:
        return GroupSet.empty(A.spec)
    spec = A.spec
    if len(A) * len(B) * 8 >= spec.order:
        hit = np.zeros(spec.order, dtype=bool)
        for _, _, sums in _pair_sums(spec, A.index_array, B.index_array):
            hit[sums] = True
        out = np.flatnonzero(hit)
    else:
        out = np.zeros(0, dtype=np.int64)
        for _, _, sums in _pair_sums(spec, A.index_array, B.index_array):
            both = np.sort(np.concatenate((out, sums.reshape(-1))))
            out = both[np.concatenate(([True], both[1:] != both[:-1]))]
    return GroupSet(spec, out)


def k_fold_sum(X: GroupSet, k: int) -> GroupSet:
    """k-fold iterated sumset; k = 0 gives {identity} (empty-sum convention)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    ident = GroupSet(X.spec, frozenset([0]))
    if k == 0:
        return ident
    acc = X
    for _ in range(k - 1):
        nxt = acc + X
        if X.has_identity and nxt.indices == acc.indices:
            return acc
        acc = nxt
    return acc


def doubling_constant(A: GroupSet) -> Fraction:
    """|A+A| / |A| as an exact rational."""
    if not A.indices:
        raise ValueError("doubling constant of the empty set is undefined")
    return Fraction(len(A + A), len(A))


def subgroup_closure(S: GroupSet) -> GroupSet:
    """Smallest subgroup containing S (the empty set generates {identity})."""
    return GroupSet(S.spec, closure_indices(S.spec, S.indices))


def is_subgroup(S: GroupSet) -> bool:
    return bool(S.indices) and subgroup_closure(S).indices == S.indices


def _random_subgroup(
    spec: GroupSpec, rng: random.Random, n_generators: int, max_size: int | None
) -> frozenset[int]:
    best: frozenset[int] | None = None
    for _ in range(64):
        gens = [rng.randrange(spec.order) for _ in range(n_generators)]
        got = closure_indices(spec, gens)
        if best is None or len(got) < len(best):
            best = got
        if max_size is None or len(got) <= max_size:
            return got
    assert best is not None
    return best


def generate_instance(
    kind: str,
    spec: GroupSpec,
    *,
    size: int | None = None,
    generators: Sequence[Sequence[int]] | None = None,
    n_generators: int | None = None,
    n_cosets: int | None = None,
    max_size: int | None = None,
    seed: int = 0,
) -> GroupSet:
    """Deterministic instance families used by sweeps and the CLI.

    random      size elements sampled without replacement
    independent identity plus the standard basis vectors e_1, ..., e_n
    subgroup    closure of explicit `generators`, or of n_generators random ones
    coset_union a random subgroup plus n_cosets random coset representatives
    """
    for name, value in (("size", size), ("n_generators", n_generators), ("n_cosets", n_cosets)):
        if value is not None and value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    rng = random.Random(seed)
    order = spec.order
    if kind == "random":
        if size is None:
            raise ValueError("random instances need a size")
        if size > order:
            raise ValueError(f"requested size {size} exceeds group order {order}")
        return GroupSet(spec, frozenset(rng.sample(range(order), size)))
    if kind == "independent":
        idx = {0}
        for j in range(spec.rank):
            coords = [0] * spec.rank
            coords[j] = 1
            idx.add(spec.index_of(coords))
        return GroupSet(spec, frozenset(idx))
    if kind == "subgroup":
        if generators is not None:
            gidx = [spec.index_of(c) for c in generators]
            return GroupSet(spec, closure_indices(spec, gidx))
        return GroupSet(
            spec, _random_subgroup(spec, rng, n_generators or 1, max_size)
        )
    if kind == "coset_union":
        sub = _random_subgroup(spec, rng, n_generators or 1, max_size)
        H = GroupSet(spec, sub)
        reps = {rng.randrange(order) for _ in range(n_cosets or 2)}
        acc: set[int] = set()
        for r in sorted(reps):
            acc |= H.shifted(r).indices
        return GroupSet(spec, frozenset(acc))
    raise ValueError(f"unknown instance kind {kind!r}; expected one of {INSTANCE_KINDS}")
