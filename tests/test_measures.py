import tracemalloc

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from progmix.budget import BudgetExceededError
from progmix.groups import (
    GroupTable,
    _inverse_many,
    _mul_many,
    centralizer,
    conjugacy_class,
    element,
    identity_element,
    is_regular_semisimple,
    mat_inv,
    mat_mul,
    special_linear_group,
    unipotent_subgroup,
)
from progmix import measures
from progmix.measures import (
    HeavyMassEstimate,
    Measure,
    check_conjugate_average_identity,
    conjugate_product_fibres,
    conjugate_product_measure,
    heavy_mass,
    heavy_mass_mixing_bound,
    trace_stabilizer_set,
    uniform_measure,
)


def brute_fibres(table, b, h):
    """Oracle: pure-Python double loop over (g, c) pairs."""
    from progmix.groups import centralizer

    p = table.p
    z = centralizer(table, b.array())
    counts = {}
    for gi in range(table.size):
        g = table.element(gi)
        for ci in range(z.size):
            c = z.element(ci)
            point = mat_mul(
                mat_mul(mat_mul(mat_mul(mat_mul(g, mat_inv(c)), mat_inv(h)), mat_inv(g)), mat_inv(c)),
                mat_inv(h),
            )
            key = table.index_of(point)
            counts[key] = counts.get(key, 0) + 1
    return counts, z.size


def direct_fibres(table, b, h):
    """Oracle: the (g, c) sweep, n products and one bincount for each c in Z(b)."""
    p = table.p
    z = centralizer(table, b.array())
    h_inv = _inverse_many(h.array()[None], p)[0]
    counts = np.zeros(table.size, dtype=np.int64)
    inv_mats = table.inv_mats()
    for c_inv in _inverse_many(z.mats, p):
        k = c_inv @ h_inv % p
        t = _mul_many(table.mats, k, p)
        t = _mul_many(t, inv_mats, p)
        t = _mul_many(t, k, p)
        counts += np.bincount(table.indices_of(t), minlength=table.size)
    return counts


def fibre_test_elements(p):
    """+-I, a unipotent, a split-torus and a non-split-torus element, with the
    centralizer order expected of the tori."""
    t = next(t for t in range(p) if not any((t * t - 4 - s * s) % p == 0 for s in range(p)))
    elements = {
        "identity": ([[1, 0], [0, 1]], None),
        "minus_identity": ([[p - 1, 0], [0, p - 1]], None),
        "unipotent": ([[1, 1], [0, 1]], None),
        "split_torus": ([[2, 0], [0, (p + 1) // 2]], p - 1),
        "non_split_torus": ([[0, p - 1], [1, t]], p + 1),
    }
    if p == 3:
        del elements["split_torus"]  # diag(2, 2) is -I
    return elements


@pytest.mark.parametrize("p", [3, 5, 7])
def test_fibres_match_direct_sweep(p):
    table = special_linear_group(2, p)
    rng = np.random.default_rng([p, 1])
    for mat, z_size in fibre_test_elements(p).values():
        b = element(mat, p)
        assert z_size in (None, centralizer(table, b.array()).size)
        for _ in range(3):
            h = table.element(int(rng.integers(table.size)))
            assert np.array_equal(conjugate_product_fibres(table, b, h), direct_fibres(table, b, h))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.integers(0, 10**6), st.integers(0, 10**6))
def test_fibres_match_direct_sweep_property(p, bi, hi):
    table = special_linear_group(2, p)
    b, h = table.element(bi % table.size), table.element(hi % table.size)
    assert np.array_equal(conjugate_product_fibres(table, b, h), direct_fibres(table, b, h))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_fibre_stacks_match_single_pairs_and_direct_sweep(p):
    table = special_linear_group(2, p)
    rng = np.random.default_rng([p, 2])
    bs = [element(mat, p) for mat, _ in fibre_test_elements(p).values()]
    bs = [b for b in bs for _ in range(2)]
    hs = [table.element(int(i)) for i in rng.integers(table.size, size=len(bs))]
    stack = conjugate_product_fibres(table, np.array([b.array() for b in bs]),
                                     np.array([h.array() for h in hs]))
    assert stack.shape == (len(bs), table.size) and stack.dtype == np.int64
    for row, b, h in zip(stack, bs, hs):
        assert np.array_equal(row, conjugate_product_fibres(table, b, h))
        assert np.array_equal(row, direct_fibres(table, b, h))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
                                           min_size=1, max_size=6))
def test_fibre_stacks_match_direct_sweep_property(p, pairs):
    table = special_linear_group(2, p)
    bi, hi = (np.array(column) % table.size for column in zip(*pairs))
    stack = conjugate_product_fibres(table, table.mats[bi], table.mats[hi])
    for row, b, h in zip(stack, bi, hi):
        assert np.array_equal(row, direct_fibres(table, table.element(b), table.element(h)))


def test_fibre_batches_hold_at_most_n_rows(monkeypatch):
    p = 7
    table = special_linear_group(2, p)
    stack = np.array([[[1, 0], [0, 1]], [[1, 1], [0, 1]], [[p - 1, 0], [0, p - 1]]])
    hs = table.mats[[3, 50, 200]]
    expected = 0
    for b, h in zip(stack, hs):
        z = centralizer(table, b)
        ks = _mul_many(_inverse_many(z.mats, p), _inverse_many(h[None], p), p)
        expected += sum(conjugacy_class(table, k).size for k in ks)
    batches = []
    image_indices = GroupTable._image_indices

    def recorded(self, parts, image, scales):
        batches.append(parts.shape[1])
        return image_indices(self, parts, image, scales)

    monkeypatch.setattr(GroupTable, "_image_indices", recorded)
    conjugate_product_fibres(table, stack, hs)
    assert max(batches) <= table.size and sum(batches) == expected


def test_fibre_stack_shapes_must_agree():
    table = special_linear_group(2, 3)
    with pytest.raises(ValueError):
        conjugate_product_fibres(table, table.mats[:3], table.mats[:2])
    with pytest.raises(ValueError):
        conjugate_product_fibres(table, table.mats[:3], table.mats[0])


def test_fibre_stack_over_budget_builds_no_counts(monkeypatch):
    table = special_linear_group(2, 5)
    stack = np.array([[[1, 1], [0, 1]], [[1, 0], [0, 1]], [[2, 0], [0, 3]]])
    cost = table.size * max(centralizer(table, b).size for b in stack[[0, 2]])
    monkeypatch.setenv("PROGMIX_BUDGET", str(cost))  # the central middle pair costs n^2

    def no_counts(*args):
        raise AssertionError("counts built before the budget was checked")

    monkeypatch.setattr(measures, "conjugacy_classes", no_counts)
    monkeypatch.setattr(measures, "class_members", no_counts)
    with pytest.raises(BudgetExceededError, match="conjugate-product histogram"):
        conjugate_product_fibres(table, stack, stack)


def per_pair_mixing_bound(table, c0, quasi_d, samples, seed=0):
    """Oracle: the Monte Carlo bound with one measure and one heavy_mass per pair."""
    rng = np.random.default_rng([seed, table.size])
    values = np.empty(samples, dtype=np.float64)
    for j in range(samples):
        bi, hi = rng.integers(0, table.size, size=2)
        mu = conjugate_product_measure(table, table.mats[bi], table.mats[hi])
        values[j] = heavy_mass(mu, c0)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(samples)) if samples > 1 else float("inf")
    return HeavyMassEstimate(float((c0 * quasi_d**-0.5 + mean) ** 0.25), mean, stderr,
                             samples, seed, c0, quasi_d)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_blocked_mixing_bound_matches_per_pair_loop(p):
    table = special_linear_group(2, p)
    for seed in range(10):
        for samples, c0 in ((20, 4.0), (9, 1.0), (1, 2.5)):
            args = (table, c0, (p - 1) / 2, samples, seed)
            assert heavy_mass_mixing_bound(*args) == per_pair_mixing_bound(*args)


def test_mixing_bound_memory_stays_small():
    table = special_linear_group(2, 13)
    heavy_mass_mixing_bound(table, 4.0, 6.0, 50, seed=0)  # warms the class caches
    tracemalloc.start()
    try:
        heavy_mass_mixing_bound(table, 4.0, 6.0, 50, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000


def test_fibre_budget_boundary(monkeypatch):
    table = special_linear_group(2, 5)
    for mat in ([[1, 0], [0, 1]], [[1, 1], [0, 1]], [[2, 0], [0, 3]]):
        b = element(mat, 5)
        cost = table.size * centralizer(table, b.array()).size
        monkeypatch.setenv("PROGMIX_BUDGET", str(cost - 1))
        with pytest.raises(BudgetExceededError):
            conjugate_product_fibres(table, b, identity_element(2, 5))
        monkeypatch.setenv("PROGMIX_BUDGET", str(cost))
        assert conjugate_product_fibres(table, b, identity_element(2, 5)).sum() == cost


def test_fibres_look_up_only_the_classes_they_hit(monkeypatch):
    # one lookup of the k_c plus |Cl(k_c)| keys per c, never a sweep over all g
    p = 7
    table = special_linear_group(2, p)
    cases = [(element(mat, p), table.element(i)) for mat, i in
             (([[1, 0], [0, 1]], 5), ([[1, 1], [0, 1]], 100), ([[2, 0], [0, 4]], 200))]
    bounds = []
    for b, h in cases:
        z = centralizer(table, b.array())
        ks = _mul_many(_inverse_many(z.mats, p), _inverse_many(h.array()[None], p), p)
        bounds.append(z.size + sum(conjugacy_class(table, k).size for k in ks))
    keys = []
    lookup = GroupTable.indices_of

    def counted(self, mats):
        keys.append(len(mats))
        return lookup(self, mats)

    monkeypatch.setattr(GroupTable, "indices_of", counted)
    for (b, h), bound in zip(cases, bounds):
        keys.clear()
        conjugate_product_fibres(table, b, h)
        assert sum(keys) <= bound < table.size * centralizer(table, b.array()).size


def test_histogram_matches_brute_force_oracle():
    table = special_linear_group(2, 3)
    b = element([[0, 1], [2, 0]], 3)  # trace 0, regular semisimple
    assert is_regular_semisimple(b)
    h = element([[1, 1], [1, 2]], 3)
    oracle, z_size = brute_fibres(table, b, h)
    fast = conjugate_product_fibres(table, b, h)
    assert fast.sum() == table.size * z_size
    for idx in range(table.size):
        assert oracle.get(idx, 0) == int(fast[idx])


def test_measure_mass_is_exactly_one():
    table = special_linear_group(2, 5)
    rng = np.random.default_rng(0)
    for _ in range(5):
        b = table.element(int(rng.integers(table.size)))
        h = table.element(int(rng.integers(table.size)))
        mu = conjugate_product_measure(table, b, h)
        assert mu.counts.sum() == mu.denominator
        assert mu.total_mass == 1.0
        assert np.all(mu.weights >= 0)


def negative_weights(table):
    weights = np.full(table.size, 1.0 / table.size)
    weights[0] = -weights[0]
    return weights


@pytest.mark.parametrize("call, message", [
    (lambda t: heavy_mass_mixing_bound(t, 4.0, 1.0, 0), "need at least one sample"),
    (lambda t: heavy_mass_mixing_bound(t, 0.5, 1.0, 5), r"threshold constant must be >= 1"),
    (lambda t: Measure(negative_weights(t), t, 1.0), "measure weights must be nonnegative"),
    (lambda t: Measure(np.full(t.size - 1, 1.0), t, 1.0), "weights do not match the table size"),
], ids=["samples-0", "c0-below-1", "negative-weights", "wrong-length"])
def test_measures_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call(special_linear_group(2, 3))


def test_identity_atom_of_frozen_instance():
    # frozen from the brute-force oracle above
    table = special_linear_group(2, 3)
    b = element([[0, 1], [2, 0]], 3)
    mu = conjugate_product_measure(table, b, identity_element(2, 3))
    idx = table.identity_index
    assert mu.counts[idx] == 56
    assert mu.denominator == 96
    assert abs(mu.weights[idx] - 56 / 96) < 1e-15


def test_fibre_maxima_stay_quadratic():
    # the identity fibre carries about |Z(b)| * |Z(c^-1 h^-1)| pairs, so the
    # max fibre is bounded by twice (p+1)^2 at these sizes
    for p in (5, 7):
        table = special_linear_group(2, p)
        rng = np.random.default_rng([11, p])
        for _ in range(5):
            while True:
                b = table.element(int(rng.integers(table.size)))
                if is_regular_semisimple(b):
                    break
            h = table.element(int(rng.integers(table.size)))
            counts = conjugate_product_fibres(table, b, h)
            assert counts.max() <= 2 * (p + 1) ** 2


def test_heavy_mass_on_uniform():
    table = special_linear_group(2, 5)
    mu = uniform_measure(table)
    assert abs(heavy_mass(mu, 1.0) - 1.0) < 1e-12
    assert heavy_mass(mu, 2.0) == 0.0


def test_heavy_mass_on_point_mass():
    table = special_linear_group(2, 3)
    weights = np.zeros(table.size)
    weights[0] = 1.0
    mu = Measure(weights, table, 1.0)
    for c0 in (1.0, 4.0, 20.0):
        assert heavy_mass(mu, c0) == 1.0


def test_heavy_mass_monotone_in_threshold():
    table = special_linear_group(2, 5)
    b = table.element(17)
    h = table.element(42)
    mu = conjugate_product_measure(table, b, h)
    values = [heavy_mass(mu, c0) for c0 in (1.0, 2.0, 4.0, 8.0, 16.0)]
    for lo, hi in zip(values[1:], values[:-1]):
        assert lo <= hi
    assert 0 <= values[-1] <= 1


def test_heavy_mass_requires_sane_threshold():
    with pytest.raises(ValueError):
        heavy_mass(uniform_measure(special_linear_group(2, 3)), 0.5)


def test_heavy_mass_estimate_reproducible():
    table = special_linear_group(2, 3)
    a = heavy_mass_mixing_bound(table, 4.0, 1.0, samples=20, seed=3)
    b = heavy_mass_mixing_bound(table, 4.0, 1.0, samples=20, seed=3)
    assert a.value == b.value
    assert a.mean_heavy_mass == b.mean_heavy_mass
    assert a.value == (4.0 + a.mean_heavy_mass) ** 0.25


def test_heavy_mass_trend_over_primes():
    # the asymptotic 1/p decay is visible from p = 5 on; p = 3 sits below the
    # later primes because its threshold 4/|G| is so coarse
    means = {}
    for p in (3, 5, 7, 11):
        table = special_linear_group(2, p)
        d = (p - 1) / 2 if p > 3 else 1.0
        means[p] = heavy_mass_mixing_bound(table, 4.0, d, samples=50, seed=0).mean_heavy_mass
    assert means[5] > means[7] > means[11]
    assert means[3] > means[11]
    for p, m in means.items():
        assert m <= 5 / p


def test_trace_stabilizer_contains_identity():
    table = special_linear_group(2, 5)
    b = element([[2, 0], [0, 3]], 5)
    rng = np.random.default_rng(1)
    for _ in range(5):
        h = table.element(int(rng.integers(table.size)))
        ys = trace_stabilizer_set(table, b, h)
        assert table.mats[table.identity_index][None] in ys


def test_trace_stabilizer_linear_size():
    table = special_linear_group(2, 5)
    b = element([[2, 0], [0, 3]], 5)
    rng = np.random.default_rng(1)
    for _ in range(20):
        h = table.element(int(rng.integers(table.size)))
        assert trace_stabilizer_set(table, b, h).size <= 4 * 5


def test_trace_stabilizer_ratio_bounded_across_primes():
    worst = 0.0
    for p in (5, 7, 11, 13):
        table = special_linear_group(2, p)
        rng = np.random.default_rng([10, p])
        for _ in range(20):
            while True:
                b = table.element(int(rng.integers(table.size)))
                if is_regular_semisimple(b):
                    break
            h = table.element(int(rng.integers(table.size)))
            worst = max(worst, trace_stabilizer_set(table, b, h).size / p)
    assert worst <= 2.0


def test_trace_stabilizer_requires_regular_semisimple():
    table = special_linear_group(2, 5)
    with pytest.raises(ValueError):
        trace_stabilizer_set(table, element([[1, 1], [0, 1]], 5), identity_element(2, 5))


def test_conjugate_average_identity_trivial_subgroup():
    from progmix.groups import GroupTable

    table = special_linear_group(2, 3)
    trivial = GroupTable(table.mats[table.identity_index][None], 3, "subset")
    report = check_conjugate_average_identity(table, trivial)
    assert report.exact_equal
    assert report.lhs_mass == report.rhs_mass == 1


def test_conjugate_average_identity_unipotent():
    for p in (3, 5):
        table = special_linear_group(2, p)
        report = check_conjugate_average_identity(table, unipotent_subgroup(p))
        assert report.exact_equal
        assert report.max_abs_difference <= 1e-12
        assert report.lhs_mass == Fraction(1)
        assert report.rhs_mass == Fraction(1)


def test_conjugate_average_identity_budget_boundary(monkeypatch):
    table, sub = special_linear_group(2, 3), unipotent_subgroup(3)
    cost = 2 * sub.size * table.size  # one conjugation sweep per element of U, on each side
    monkeypatch.setenv("PROGMIX_BUDGET", str(cost - 1))
    with pytest.raises(BudgetExceededError, match="conjugate-average identity"):
        check_conjugate_average_identity(table, sub)
    monkeypatch.setenv("PROGMIX_BUDGET", str(cost))
    assert check_conjugate_average_identity(table, sub).exact_equal
