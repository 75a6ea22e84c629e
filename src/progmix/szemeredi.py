"""Exhaustive counters for grid and corner configurations in Z_n^m.

count_grid(A, k) counts tuples (a_1, ..., a_m, r) whose full translate grid
{a + (i_1, ..., i_m) r : i_j in {-k, ..., k}} lies in A; count_corners(A)
counts (a, r) with a + r e_i in A for every coordinate direction i.  The
lifting construction turns one grid instance into a corner instance in a
higher-dimensional pattern set.

A PatternSet is one read-only boolean mask of shape (n,)*m, and every counter
works on it; the member tuples are derived from it only when asked for.  The
grid box {-k..k}^m r is a product set, so for each r the AND over its
(2k+1)^m translates is taken one axis at a time: m passes of 2k+1 one-axis
shifts, each shift a slice of the running mask concatenated with itself
along that axis.  The corner count slices the mask, doubled along each axis
once, by r on every axis.  lift_pattern writes the n^(m+K) lifted mask
directly, one b_j axis at a time from the slab already written, so the lift
holds that one array and one temporary of a slab, 1/n of it.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import product
from operator import and_

import numpy as np

from .budget import MEMBERSHIP_BUDGET, charge


class PatternSet:
    """A subset of Z_n^m, held as a read-only boolean mask of shape (n,)*m."""

    def __init__(self, m: int, n: int, mask: np.ndarray):
        if not isinstance(mask, np.ndarray) or mask.dtype != bool:
            raise ValueError("a pattern mask must be a boolean array")
        if mask.shape != (n,) * m:
            raise ValueError(f"mask of shape {mask.shape} is not a subset of Z_{n}^{m}")
        if mask.flags.writeable:
            mask = mask.copy()
            mask.setflags(write=False)
        self.m = m
        self.n = n
        self._mask = mask

    def mask(self) -> np.ndarray:
        return self._mask

    @cached_property
    def members(self) -> frozenset[tuple[int, ...]]:
        return frozenset(map(tuple, np.argwhere(self._mask).tolist()))

    def __len__(self) -> int:
        return int(np.count_nonzero(self._mask))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PatternSet):
            return NotImplemented
        return (self.m, self.n) == (other.m, other.n) and np.array_equal(self._mask, other._mask)

    @classmethod
    def from_tuples(cls, m: int, n: int, tuples) -> "PatternSet":
        reduced = [tuple(int(v) % n for v in t) for t in tuples]
        for tup in reduced:
            if len(tup) != m:
                raise ValueError(f"tuple {tup} is not in Z_{n}^{m}")
        mask = np.zeros((n,) * m, dtype=bool)
        mask[tuple(np.array(reduced, dtype=np.intp).reshape(-1, m).T)] = True
        return cls(m, n, mask)

    @classmethod
    def full(cls, m: int, n: int) -> "PatternSet":
        return cls(m, n, np.ones((n,) * m, dtype=bool))

    @classmethod
    def random(cls, m: int, n: int, density: float, rng: np.random.Generator) -> "PatternSet":
        total = n**m
        count = int(round(density * total))
        chosen = rng.choice(total, size=count, replace=False)
        mask = np.zeros(total, dtype=bool)
        mask[chosen] = True
        return cls(m, n, mask.reshape((n,) * m))


def _along(axis: int, index) -> tuple:
    """Index `index` on one axis and everything on the axes before it."""
    return (slice(None),) * axis + (index,)


def count_grid(pattern: PatternSet, k: int) -> int:
    """Exact number of (a, r) whose {-k..k}^m translate grid lies in A."""
    if k < 0:
        raise ValueError("k must be >= 0")
    m, n = pattern.m, pattern.n
    charge(n ** (m + 1) * (2 * k + 1) ** m, MEMBERSHIP_BUDGET, "grid configuration count")
    mask = pattern.mask()
    total = 0
    for r in range(n):
        shifts = sorted({i * r % n for i in range(-k, k + 1)})
        acc = mask
        for axis in range(m):
            doubled = np.concatenate([acc, acc], axis=axis)
            acc = reduce(and_, (doubled[_along(axis, slice(s, s + n))] for s in shifts))
        total += int(np.count_nonzero(acc))
    return total


def count_corners(pattern: PatternSet) -> int:
    """Exact number of (a, r) with a + r e_i in A for every axis i."""
    m, n = pattern.m, pattern.n
    charge(n ** (m + 1) * m, MEMBERSHIP_BUDGET, "corner configuration count")
    mask = pattern.mask()
    doubled = [np.concatenate([mask, mask], axis=axis) for axis in range(m)]
    total = 0
    for r in range(n):
        acc = reduce(and_, (doubled[axis][_along(axis, slice(r, r + n))] for axis in range(m)))
        total += int(np.count_nonzero(acc))
    return total


def lift_pattern(pattern: PatternSet, k: int) -> PatternSet:
    """Lift A in Z_n^m to Z_n^(m+K), K = (2k+1)^m, by absorbing one grid
    direction per offset: (a, b_1 .. b_K) is a member iff
    a + sum_j b_j v_j lies in A, with v_j running over {-k..k}^m.

    The lifted set always has exactly |A| * n^K members.
    """
    m, n = pattern.m, pattern.n
    offsets = list(product(range(-k, k + 1), repeat=m))
    big_k = len(offsets)
    charge(n ** (m + big_k), MEMBERSHIP_BUDGET, "pattern lift")
    lifted = np.empty((n,) * (m + big_k), dtype=bool)
    lifted[(Ellipsis,) + (0,) * big_k] = pattern.mask()
    # Pass j fills the axis of b = offsets[j]: its slab at t is its slab at 0
    # with a moved by t * offsets[j].  Before the pass the slabs at 0 of this
    # and every later b axis are written, so the slab read is complete.
    for j, offset in enumerate(offsets):
        tail = (0,) * (big_k - j - 1)
        source = lifted[_along(m + j, 0) + tail]
        for t in range(1, n):
            lifted[_along(m + j, t) + tail] = np.roll(
                source, [-t * v for v in offset], axis=tuple(range(m))
            )
    lifted.setflags(write=False)
    lifted_set = PatternSet(m + big_k, n, lifted)
    if len(lifted_set) != len(pattern) * n**big_k:
        raise AssertionError("lift produced an unexpected member count")
    return lifted_set
