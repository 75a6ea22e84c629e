import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from itertools import product

from progmix.budget import BudgetExceededError
from progmix.szemeredi import PatternSet, count_corners, count_grid, lift_pattern

WORKED = PatternSet.from_tuples(2, 4, [(0, 0), (0, 1), (1, 0)])


def brute_corners(pattern):
    """Oracle: loop over every (a, r) tuple and test each corner."""
    count = 0
    for a in product(range(pattern.n), repeat=pattern.m):
        for r in range(pattern.n):
            ok = True
            for i in range(pattern.m):
                shifted = tuple(
                    (a[j] + (r if j == i else 0)) % pattern.n for j in range(pattern.m)
                )
                if shifted not in pattern.members:
                    ok = False
                    break
            if ok:
                count += 1
    return count


def brute_grid(pattern, k):
    """Oracle: iterate r first and intersect the shifted membership tests."""
    count = 0
    for r in range(pattern.n):
        for a in product(range(pattern.n), repeat=pattern.m):
            ok = True
            for off in product(range(-k, k + 1), repeat=pattern.m):
                point = tuple((a[j] + off[j] * r) % pattern.n for j in range(pattern.m))
                if point not in pattern.members:
                    ok = False
                    break
            if ok:
                count += 1
    return count


def tuple_lift(pattern, k):
    """Oracle: the member tuples of the lift, built one (b, member) pair at a time."""
    m, n = pattern.m, pattern.n
    offsets = list(product(range(-k, k + 1), repeat=m))
    members = set()
    for bs in product(range(n), repeat=len(offsets)):
        shift = tuple(sum(b * off[i] for b, off in zip(bs, offsets)) % n for i in range(m))
        for tup in pattern.members:
            members.add(tuple((tup[i] - shift[i]) % n for i in range(m)) + bs)
    return frozenset(members)


def unravel_members(m, n, density, rng):
    """Oracle: the members of PatternSet.random, unravelled one index at a time."""
    chosen = rng.choice(n**m, size=int(round(density * n**m)), replace=False)
    return frozenset(
        tuple(int(v) for v in np.unravel_index(int(c), (n,) * m)) for c in chosen
    )


def test_full_set_counts():
    full = PatternSet.full(2, 4)
    assert count_corners(full) == 4**3
    assert count_grid(full, 1) == 4**3
    assert count_grid(full, 2) == 4**3


def test_empty_set_counts():
    empty = PatternSet.from_tuples(2, 4, [])
    assert count_corners(empty) == 0
    assert count_grid(empty, 1) == 0


def test_worked_instance_against_oracles():
    assert count_corners(WORKED) == brute_corners(WORKED) == 5
    assert count_grid(WORKED, 1) == brute_grid(WORKED, 1) == 3


def test_one_dimensional_corner_count():
    a = PatternSet.from_tuples(1, 5, [(0,), (2,)])
    assert count_corners(a) == 2 * 5


def test_grid_monotone_in_k():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = PatternSet.random(1, 6, 0.6, rng)
        counts = [count_grid(a, k) for k in (0, 1, 2)]
        assert counts[0] >= counts[1] >= counts[2]
        assert counts[0] == len(a) * 6  # k = 0 grid is just membership of a


def test_counters_match_oracles_random():
    rng = np.random.default_rng(1)
    for _ in range(10):
        m = int(rng.integers(1, 3))
        n = int(rng.integers(3, 6))
        a = PatternSet.random(m, n, 0.5, rng)
        assert count_corners(a) == brute_corners(a)
        assert count_grid(a, 1) == brute_grid(a, 1)


def test_translation_and_negation_invariance():
    rng = np.random.default_rng(2)
    for _ in range(5):
        a = PatternSet.random(2, 5, 0.4, rng)
        shift = tuple(int(v) for v in rng.integers(0, 5, size=2))
        translated = PatternSet.from_tuples(
            2, 5, [tuple((t[i] + shift[i]) % 5 for i in range(2)) for t in a.members]
        )
        negated = PatternSet.from_tuples(2, 5, [tuple((-v) % 5 for v in t) for t in a.members])
        for other in (translated, negated):
            assert count_corners(a) == count_corners(other)
            assert count_grid(a, 1) == count_grid(other, 1)


def test_lift_size_and_full_set():
    a = PatternSet.from_tuples(1, 5, [(0,), (2,)])
    lifted = lift_pattern(a, 1)
    assert lifted.m == 4  # m + (2k+1)^m
    assert len(lifted) == len(a) * 5**3
    full = PatternSet.full(1, 3)
    assert len(lift_pattern(full, 1)) == 3**4


def test_lifting_deduction_inequality():
    a = PatternSet.from_tuples(1, 5, [(0,), (2,)])
    lifted = lift_pattern(a, 1)
    assert count_grid(a, 1) >= count_corners(lifted) / 5**3


def test_lifting_deduction_inequality_random():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(3, 7))
        density = float(rng.uniform(0.2, 0.9))
        a = PatternSet.random(1, n, density, rng)
        lifted = lift_pattern(a, 1)
        assert count_grid(a, 1) >= count_corners(lifted) / n**3


def test_positivity_at_high_density():
    rng = np.random.default_rng(4)
    for n in (5, 6):
        for m in (1, 2):
            a = PatternSet.random(m, n, 0.92, rng)
            assert len(a) >= 0.9 * n**m
            assert count_corners(a) > 0


def test_budget_enforced(monkeypatch):
    monkeypatch.setenv("PROGMIX_BUDGET", "10")
    a = PatternSet.from_tuples(1, 5, [(0,)])
    with pytest.raises(BudgetExceededError):
        count_grid(a, 1)
    with pytest.raises(BudgetExceededError):
        lift_pattern(a, 1)


@pytest.mark.parametrize("k", [-1, -3])
def test_count_grid_refuses_negative_k(k):
    with pytest.raises(ValueError, match="k must be >= 0"):
        count_grid(WORKED, k)


def test_pattern_validation():
    with pytest.raises(ValueError):
        PatternSet(1, 4, np.zeros(5, dtype=bool))  # wrong extent: a member outside Z_4
    with pytest.raises(ValueError):
        PatternSet(2, 4, np.zeros(4, dtype=bool))  # wrong number of axes
    with pytest.raises(ValueError):
        PatternSet(1, 4, np.zeros(4, dtype=np.int8))
    with pytest.raises(ValueError):
        PatternSet.from_tuples(2, 4, [(0,)])


def test_mask_is_read_only_and_members_derived():
    source = np.zeros((3, 3), dtype=bool)
    source[0, 1] = source[2, 2] = True
    a = PatternSet(2, 3, source)
    source[1, 1] = True  # the set holds its own copy
    assert a.members == {(0, 1), (2, 2)} and len(a) == 2
    with pytest.raises(ValueError):
        a.mask()[0, 0] = True
    assert a == PatternSet.from_tuples(2, 3, [(0, 4), (-1, 2), (2, 2)])
    assert a != PatternSet.from_tuples(2, 3, [(0, 1)])
    assert a != PatternSet(1, 9, a.mask().reshape(9))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(3, 6), st.integers(0, 2), st.data())
def test_counters_match_oracles_property(m, n, k, data):
    bits = data.draw(st.lists(st.booleans(), min_size=n**m, max_size=n**m))
    a = PatternSet(m, n, np.array(bits, dtype=bool).reshape((n,) * m))
    assert count_grid(a, k) == brute_grid(a, k)
    assert count_corners(a) == brute_corners(a)


@pytest.mark.parametrize("m,n,k", [(1, 3, 0), (1, 5, 1), (1, 4, 2), (2, 3, 0), (2, 4, 0), (2, 3, 1)])
def test_lift_matches_tuple_oracle(m, n, k):
    a = PatternSet.random(m, n, 0.5, np.random.default_rng([m, n, k]))
    assert lift_pattern(a, k).members == tuple_lift(a, k)


def test_random_matches_unravelled_members():
    for seed in range(10):
        a = PatternSet.random(3, 24, 0.5, np.random.default_rng([seed, 24, 0]))
        assert a.members == unravel_members(3, 24, 0.5, np.random.default_rng([seed, 24, 0]))
