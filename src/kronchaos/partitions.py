"""Subset and set-partition enumeration feeding the bound formulas.

Set partitions are generated through restricted growth strings, which yields
each partition exactly once and in a canonical form (blocks ordered by their
minimum element).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import ArgumentError, SizeError

MAX_SUBSET_GROUND = 16
MAX_PARTITION_GROUND = 12


@dataclass(frozen=True)
class Partition:
    """Ordered list of disjoint nonempty blocks covering a ground set."""

    ground: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, blocks: Iterable[Iterable[int]], ground: Iterable[int] | None = None):
        blocks = tuple(tuple(sorted(b)) for b in blocks)
        if any(len(b) == 0 for b in blocks):
            raise ArgumentError("blocks must be nonempty")
        seen: set[int] = set()
        for b in blocks:
            if len(set(b)) != len(b) or seen & set(b):
                raise ArgumentError(f"blocks must be disjoint with distinct elements: {blocks}")
            seen |= set(b)
        if ground is None:
            ground = seen
        ground = tuple(sorted(ground))
        if set(ground) != seen:
            raise ArgumentError(f"blocks {blocks} do not cover ground set {ground}")
        blocks = tuple(sorted(blocks, key=lambda b: b[0]))
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "blocks", blocks)

    @property
    def kappa(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.blocks)

    def __str__(self) -> str:
        return "|".join(",".join(str(x) for x in b) for b in self.blocks)


def subsets(T: Iterable[int]) -> list[tuple[int, ...]]:
    """All subsets of T as sorted tuples, by binary counting on sorted T.

    Bit i of the counter selects the i-th smallest element, so the order is
    (), (t1,), (t2,), (t1, t2), ...
    """
    elems = tuple(sorted(set(T)))
    if len(elems) > MAX_SUBSET_GROUND:
        raise SizeError(f"|T| = {len(elems)} exceeds {MAX_SUBSET_GROUND}")
    out = []
    for mask in range(1 << len(elems)):
        out.append(tuple(elems[i] for i in range(len(elems)) if mask >> i & 1))
    return out


def _growth_strings(m: int, kappa: int) -> Iterator[tuple[int, ...]]:
    """Restricted growth strings of length m >= 1 with exactly kappa classes."""
    a = [0] * m

    def rec(pos: int, used: int) -> Iterator[tuple[int, ...]]:
        if pos == m:
            if used == kappa:
                yield tuple(a)
            return
        # kappa - used new classes must still fit in the remaining positions
        if used + (m - pos) < kappa:
            return
        for c in range(used):
            a[pos] = c
            yield from rec(pos + 1, used)
        if used < kappa:
            a[pos] = used
            yield from rec(pos + 1, used + 1)

    a[0] = 0
    yield from rec(1, 1)


def partitions_into(T: Iterable[int], kappa: int) -> list[Partition]:
    """All set partitions of T into exactly kappa nonempty blocks.

    The count equals the Stirling number of the second kind S(|T|, kappa).
    """
    elems = tuple(sorted(set(T)))
    m = len(elems)
    if m > MAX_PARTITION_GROUND:
        raise SizeError(f"|T| = {m} exceeds {MAX_PARTITION_GROUND}")
    if not 1 <= kappa <= m:
        raise ArgumentError(f"kappa = {kappa} out of range [1, {m}]")
    out = []
    for rgs in _growth_strings(m, kappa):
        blocks: list[list[int]] = [[] for _ in range(kappa)]
        for elem, cls in zip(elems, rgs):
            blocks[cls].append(elem)
        out.append(Partition(blocks, ground=elems))
    return out


def all_partitions(T: Iterable[int]) -> list[Partition]:
    """All set partitions of T (every block count)."""
    elems = tuple(sorted(set(T)))
    out = []
    for kappa in range(1, len(elems) + 1):
        out.extend(partitions_into(elems, kappa))
    return out


def signed_subset_sum(T: Iterable[int]) -> int:
    """sum over S subset of T of (-1)^|S|, by literal summation.

    Equals 1 for the empty set and 0 otherwise; doubles as a self-test of
    the subset enumeration.
    """
    return sum((-1) ** len(S) for S in subsets(T))
