import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from progmix.budget import BudgetExceededError
from progmix.fourier import ap3_average
from progmix.groups import (
    CyclicTable,
    GroupTable,
    borel_subgroup,
    diagonalisable_set,
    special_linear_group,
    unipotent_subgroup,
)
from progmix.mixing import (
    GroupFunction,
    constant_function,
    convolve,
    coset_smooth,
    delta_function,
    exact_progression_statistics,
    indicator_function,
    progression_average,
    progression_deviation,
    random_sign_function,
    restricted_progression_deviation,
    shift_sums,
)


def test_constant_three_term_average_is_one():
    table = special_linear_group(2, 3)
    fs = [constant_function(table) for _ in range(3)]
    result = progression_average(table, fs)
    assert result.exact_value == 1
    assert result.deviation == 0


def test_two_term_average_factorises():
    table = special_linear_group(2, 5)
    rng = np.random.default_rng(0)
    for _ in range(50):
        fs = [GroupFunction(rng.standard_normal(table.size), table) for _ in range(2)]
        result = progression_average(table, fs)
        assert abs(result.value - result.product_of_means) <= 1e-12


def test_one_term_average_is_the_mean():
    table = special_linear_group(2, 5)
    ind = indicator_function(table, range(30))
    result = progression_average(table, [ind])
    assert result.exact_value == Fraction(30, 120)
    assert progression_deviation(table, [ind]).value == 0


def test_deviation_of_constants_vanishes():
    table = special_linear_group(2, 3)
    fs = [constant_function(table, 2) for _ in range(3)]
    assert progression_deviation(table, fs).value == 0


def test_triangle_inequality_exact_fractions():
    table = special_linear_group(2, 5)
    rng = np.random.default_rng(1)
    for _ in range(10):
        fs = [random_sign_function(table, rng) for _ in range(3)]
        plain = progression_average(table, fs)
        star = progression_deviation(table, fs)
        assert star.exact_value >= abs(plain.exact_value - plain.exact_product)


def test_multilinearity_in_each_slot():
    table = special_linear_group(2, 3)
    rng = np.random.default_rng(2)
    base = [GroupFunction(rng.standard_normal(table.size), table) for _ in range(3)]
    extra = GroupFunction(rng.standard_normal(table.size), table)
    for slot in range(3):
        for alpha, beta in ((2.0, -1.5), (0.0, 1.0)):
            mixed = list(base)
            mixed[slot] = GroupFunction(alpha * base[slot].values + beta * extra.values, table)
            left = progression_average(table, mixed).value
            with_base = list(base)
            with_extra = list(base)
            with_extra[slot] = extra
            right = alpha * progression_average(table, with_base).value + beta * progression_average(
                table, with_extra
            ).value
            assert abs(left - right) < 1e-10


def test_indicator_counts_are_integers():
    table = special_linear_group(2, 3)
    rng = np.random.default_rng(3)
    for k in (2, 3, 4):
        fs = [
            indicator_function(table, rng.choice(table.size, size=10, replace=False))
            for _ in range(k)
        ]
        result = progression_average(table, fs)
        scaled = result.exact_value * table.size**2
        assert scaled.denominator == 1
        assert scaled >= 0


def test_cyclic_table_agrees_with_direct_ap3():
    z7 = CyclicTable(7)
    rng = np.random.default_rng(4)
    fs = [GroupFunction(rng.standard_normal(7), z7) for _ in range(3)]
    result = progression_average(z7, fs)
    assert abs(result.value - ap3_average(*[f.values for f in fs]).real) < 1e-12


def test_monte_carlo_converges_to_exact():
    table = special_linear_group(2, 5)
    rng = np.random.default_rng(0)
    fs = [random_sign_function(table, rng) for _ in range(3)]
    exact = progression_average(table, fs).value
    misses = 0
    for seed in range(100):
        mc = progression_average(table, fs, samples=2000, seed=seed)
        assert mc.samples_used == 2000
        if abs(mc.value - exact) > 3 * mc.stderr:
            misses += 1
    assert misses <= 2


def test_monte_carlo_deviation_reproducible():
    table = special_linear_group(2, 5)
    rng = np.random.default_rng(5)
    fs = [random_sign_function(table, rng) for _ in range(3)]
    a = progression_deviation(table, fs, samples=40, seed=9)
    b = progression_deviation(table, fs, samples=40, seed=9)
    assert a.value == b.value
    assert a.samples_used == 40


def test_exact_mode_budget_error_suggests_sampling(monkeypatch):
    table = special_linear_group(2, 5)
    fs = [constant_function(table) for _ in range(3)]
    monkeypatch.setenv("PROGMIX_BUDGET", "1000")
    with pytest.raises(BudgetExceededError, match="sampling"):
        progression_average(table, fs)
    # sampling mode stays within the budget by construction
    assert progression_average(table, fs, samples=10, seed=0).value == 1.0


def test_restricted_deviation_identity_shift():
    table = special_linear_group(2, 5)
    ident = GroupTable(table.mats[table.identity_index][None], 5, "subset")
    full = constant_function(table)
    result, _ = restricted_progression_deviation(table, ident, [full] * 4)
    assert result.value == 0


def test_restricted_deviation_signed_le_unsigned():
    table = special_linear_group(2, 5)
    shift_set = borel_subgroup(5)
    rng = np.random.default_rng(6)
    for _ in range(10):
        fs = [random_sign_function(table, rng) for _ in range(4)]
        unsigned, signed = restricted_progression_deviation(table, shift_set, fs)
        assert signed.value <= unsigned.value + 1e-12


def test_restricted_deviation_bounded_for_signs():
    from progmix.groups import diagonalisable_set

    table = special_linear_group(2, 7)
    s = diagonalisable_set(7)
    rng = np.random.default_rng(7)
    fs = [random_sign_function(table, rng) for _ in range(3)]
    balanced = np.repeat(np.array([-1, 1], dtype=np.int64), table.size // 2)
    rng.shuffle(balanced)
    f3 = GroupFunction(balanced, table)
    assert f3.mean() == 0
    result, _ = restricted_progression_deviation(table, s, fs + [f3])
    assert 0 <= result.value <= 1 + 1e-12


def test_complex_valued_functions_are_supported():
    table = special_linear_group(2, 3)
    rng = np.random.default_rng(12)
    fs = [
        GroupFunction(rng.standard_normal(table.size) + 1j * rng.standard_normal(table.size), table)
        for _ in range(3)
    ]
    exact = progression_average(table, fs)
    assert isinstance(exact.value, complex)
    star = progression_deviation(table, fs)
    assert star.value >= abs(exact.value - exact.product_of_means) - 1e-12
    mc = progression_average(table, fs, samples=50, seed=0)
    assert isinstance(mc.value, complex)


def test_progression_length_capped_at_four():
    table = special_linear_group(2, 3)
    fs = [constant_function(table)] * 5
    with pytest.raises(ValueError):
        progression_average(table, fs)
    with pytest.raises(ValueError):
        progression_deviation(table, [])


def test_functions_must_share_the_given_table():
    t1 = special_linear_group(2, 3)
    t2 = special_linear_group(2, 5)
    with pytest.raises(ValueError):
        progression_average(t1, [constant_function(t2)])


def test_restricted_deviation_rejects_empty_shifts():
    table = special_linear_group(2, 3)
    fs = [constant_function(table)] * 4
    empty = GroupTable(np.empty((0, 2, 2), dtype=np.int64), 3, "subset")
    with pytest.raises(ValueError):
        restricted_progression_deviation(table, empty, fs)


def test_restricted_deviation_charges_one_sweep(monkeypatch):
    table = special_linear_group(2, 5)
    shift_set = borel_subgroup(5)
    fs = [constant_function(table)] * 4
    cost = 4 * shift_set.size * table.size
    monkeypatch.setenv("PROGMIX_BUDGET", str(cost - 1))
    with pytest.raises(BudgetExceededError, match="restricted 4-term deviation"):
        restricted_progression_deviation(table, shift_set, fs)
    monkeypatch.setenv("PROGMIX_BUDGET", str(cost))
    unsigned, signed = restricted_progression_deviation(table, shift_set, fs)
    assert unsigned.value == signed.value == 0


def test_convolution_with_point_mass_translates():
    table = special_linear_group(2, 5)
    rng = np.random.default_rng(8)
    f = GroupFunction(rng.standard_normal(table.size), table)
    delta = delta_function(table, table.identity_index)
    assert np.allclose(convolve(f, delta).values, f.values)


def test_convolution_of_mean_zero_with_uniform_vanishes():
    table = special_linear_group(2, 5)
    rng = np.random.default_rng(9)
    v = rng.standard_normal(table.size)
    f = GroupFunction(v - v.mean(), table)
    uniform = GroupFunction(np.full(table.size, 1 / table.size), table)
    assert np.max(np.abs(convolve(f, uniform).values)) < 1e-12


def test_convolution_associativity():
    table = special_linear_group(2, 3)
    rng = np.random.default_rng(10)
    f, g, h = (GroupFunction(rng.standard_normal(table.size), table) for _ in range(3))
    left = convolve(convolve(f, g), h)
    right = convolve(f, convolve(g, h))
    assert np.max(np.abs(left.values - right.values)) < 1e-10


def test_convolution_rejects_table_mismatch():
    t1 = special_linear_group(2, 3)
    t2 = special_linear_group(2, 5)
    with pytest.raises(ValueError):
        convolve(constant_function(t1), constant_function(t2))


def supp_f_convolve(f, mu):
    """sum over y in supp f of f(y) mu(y^-1 x), one left-multiplication
    permutation per point; the oracle for `convolve`."""
    table = f.table
    inv = table.inv_perm()
    exact = f.is_integer_valued and mu.is_integer_valued
    out = np.zeros(table.size, dtype=np.int64 if exact else
                   np.result_type(f.values, mu.values, np.float64))
    for yi in np.flatnonzero(f.values):
        out += f.values[yi] * mu.values[table.lmul_perm(int(inv[yi]))]
    return out


@pytest.mark.parametrize("make_table", [
    lambda: special_linear_group(2, 3),
    lambda: special_linear_group(2, 5),
    lambda: borel_subgroup(5),
    lambda: CyclicTable(11),
], ids=["sl2_3", "sl2_5", "borel_5", "cyclic_11"])
def test_convolve_matches_supp_f_loop(make_table):
    table = make_table()
    n = table.size
    rng = np.random.default_rng(n)
    sparse = np.where(rng.random(n) < 0.2, rng.integers(-3, 4, size=n), 0)
    pairs = [
        (rng.integers(-3, 4, size=n), sparse),
        (rng.choice([-1, 1], size=n), (rng.random(n) < 0.5).astype(np.int64)),
        (rng.standard_normal(n), rng.standard_normal(n) * (rng.random(n) < 0.3)),
        (rng.standard_normal(n) + 1j * rng.standard_normal(n), rng.standard_normal(n)),
    ]
    for fv, mv in pairs:
        f, mu = GroupFunction(fv, table), GroupFunction(mv, table)
        got, want = convolve(f, mu).values, supp_f_convolve(f, mu)
        if f.is_integer_valued and mu.is_integer_valued:
            assert got.dtype == np.int64 and np.array_equal(got, want)
        else:
            assert got.dtype == want.dtype
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * max(1.0, np.abs(want).max())


# m^2 overflows each narrow dtype.
@pytest.mark.parametrize("dtype, m", [(np.int8, 100), (np.int16, 200), (np.int32, 50000)])
def test_convolve_widens_narrow_integers(dtype, m):
    table = special_linear_group(2, 5)
    rng = np.random.default_rng(13)
    fv = m * rng.choice([-1, 1], size=table.size)
    mv = np.where(rng.random(table.size) < 0.2, m, 0)
    f, mu = GroupFunction(fv, table), GroupFunction(mv, table)
    want = supp_f_convolve(f, mu)
    got = convolve(GroupFunction(fv.astype(dtype), table), GroupFunction(mv.astype(dtype), table))
    assert got.values.dtype == np.int64 and np.array_equal(got.values, want)


def test_convolve_charges_support_of_mu(monkeypatch):
    table = special_linear_group(2, 5)
    f = indicator_function(table, [0, 3, 7])
    mu = indicator_function(table, np.arange(0, table.size, 10))
    cost = int(np.count_nonzero(mu.values)) * table.size
    monkeypatch.setenv("PROGMIX_BUDGET", str(cost - 1))
    with pytest.raises(BudgetExceededError, match="convolution over 12 points"):
        convolve(f, mu)
    monkeypatch.setenv("PROGMIX_BUDGET", str(cost))
    assert np.array_equal(convolve(f, mu).values, supp_f_convolve(f, mu))


def test_coset_smoothing_properties():
    p = 5
    b = borel_subgroup(p)
    u = unipotent_subgroup(p)
    rng = np.random.default_rng(11)
    f = GroupFunction(rng.standard_normal(b.size), b)
    smoothed = coset_smooth(f, u)
    # mass preserved, idempotent, and constant on the shear cosets
    assert abs(smoothed.mean() - f.mean()) < 1e-12
    twice = coset_smooth(smoothed, u)
    assert np.max(np.abs(twice.values - smoothed.values)) < 1e-12
    u_idx = b.indices_of(u.mats)
    for xi in range(b.size):
        coset = b.indices_of((b.mats[u_idx] @ b.mats[xi]) % p)
        vals = smoothed.values[coset]
        assert np.max(np.abs(vals - vals[0])) < 1e-12


def test_coset_smoothing_of_point_mass():
    p = 5
    b = borel_subgroup(p)
    u = unipotent_subgroup(p)
    x = 7
    smoothed = coset_smooth(delta_function(b, x), u)
    u_idx = b.indices_of(u.mats)
    coset = b.indices_of((b.mats[u_idx] @ b.mats[x]) % p)
    expected = np.zeros(b.size)
    expected[coset] = 1 / u.size
    assert np.allclose(smoothed.values, expected)


# Brute-force oracle for the exact statistics: a double loop over (x, g) that
# multiplies group elements itself and never calls rmul_perm.


def cayley_step(table):
    """step(x, g) = index of x * g, by explicit multiplication."""
    if isinstance(table, CyclicTable):
        return lambda x, g: (x + g) % table.size
    index = {tuple(m.ravel()): i for i, m in enumerate(table.mats)}
    return lambda x, g: index[tuple((table.mats[x] @ table.mats[g] % table.p).ravel())]


def brute_shift_sums(table, values):
    step = cayley_step(table)
    sums = []
    for g in range(table.size):
        total = 0
        for x in range(table.size):
            prod, y = values[0][x], x
            for v in values[1:]:
                y = step(y, g)
                prod *= v[y]
            total += prod
        sums.append(total)
    return sums


def brute_statistics(table, fs, shift_subset=None):
    """Average, product of means, deviation and restricted deviations, as exact
    Fractions for integer inputs and as floats otherwise."""
    n = table.size
    exact = all(f.is_integer_valued for f in fs)
    values = [[int(v) for v in f.values] if exact else list(f.values) for f in fs]
    scalar = Fraction if exact else lambda a, b: a / b
    sums = brute_shift_sums(table, values)
    means = [scalar(sum(v), n) for v in values]
    prod_means = 1
    for m in means:
        prod_means *= m
    inner = [scalar(s, n) for s in sums]
    out = {
        "average": scalar(sum(sums), n * n),
        "product": prod_means,
        "deviation": sum(abs(i - prod_means) for i in inner) / n,
    }
    if shift_subset is not None:
        sub = [inner[g] for g in shift_subset]
        out["unsigned"] = sum(abs(i - prod_means) for i in sub) / len(sub)
        out["signed"] = abs(sum(sub) / len(sub) - prod_means)
    return out


def input_functions(table, kind, k, rng):
    if kind == "sign":
        return [random_sign_function(table, rng) for _ in range(k)]
    if kind == "indicator":
        draws = [(rng.random(table.size) < 0.4).astype(np.int64) for _ in range(k)]
        return [GroupFunction(v, table) for v in draws]
    if kind == "complex":
        draws = [rng.standard_normal((2, table.size)) for _ in range(k)]
        return [GroupFunction(re + 1j * im, table) for re, im in draws]
    return [GroupFunction(rng.standard_normal(table.size), table) for _ in range(k)]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["sign", "indicator", "float"])
@pytest.mark.parametrize("p", [3, 5, "cyclic"])
def test_exact_statistics_match_brute_force(p, kind, k):
    table = CyclicTable(11) if p == "cyclic" else special_linear_group(2, p)
    rng = np.random.default_rng([k, table.size])
    fs = input_functions(table, kind, k, rng)
    shift_subset = None if p == "cyclic" else table.indices_of(borel_subgroup(p).mats)
    want = brute_statistics(table, fs, shift_subset)
    avg = progression_average(table, fs)
    dev = progression_deviation(table, fs)
    if kind == "float":
        assert abs(avg.value - want["average"]) < 1e-12
        assert abs(dev.value - want["deviation"]) < 1e-12
    else:
        assert avg.exact_value == want["average"]
        assert avg.exact_product == dev.exact_product == want["product"]
        assert dev.exact_value == want["deviation"]
        assert avg.value == float(want["average"])
        assert dev.value == float(want["deviation"])
    if shift_subset is not None:
        shift_set = borel_subgroup(p)
        unsigned, signed = restricted_progression_deviation(table, shift_set, fs)
        assert abs(unsigned.value - float(want["unsigned"])) < 1e-12
        assert abs(signed.value - float(want["signed"])) < 1e-12


def test_shift_sums_match_brute_force_on_given_shifts():
    table = special_linear_group(2, 5)
    rng = np.random.default_rng(13)
    fs = input_functions(table, "sign", 3, rng)
    want = brute_shift_sums(table, [[int(v) for v in f.values] for f in fs])
    sums = shift_sums(table, fs)
    assert sums.dtype == np.int64
    assert sums.tolist() == want
    shifts = np.array([7, 0, 7, 119])
    assert shift_sums(table, fs, shifts).tolist() == [want[g] for g in shifts]


def separate_sweep_statistics(table, fs):
    """Average and deviation from two independent `shift_sums` sweeps, exact
    Fractions for integer inputs and floats otherwise."""
    n = table.size
    exact = all(f.is_integer_valued for f in fs)
    scalar = Fraction if exact else lambda a, b: a / b
    means = [scalar(int(f.values.sum()) if exact else f.values.sum(), n) for f in fs]
    prod_means = 1
    for m in means:
        prod_means *= m
    average = scalar(sum(shift_sums(table, fs).tolist()), n * n)
    inner = [scalar(s, n) for s in shift_sums(table, fs).tolist()]
    deviation = sum(abs(i - prod_means) for i in inner) / n
    return average, deviation, prod_means


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["sign", "indicator", "float"])
@pytest.mark.parametrize("p", [3, 5, "cyclic"])
def test_shared_exact_sweep_matches_separate_sweeps(p, kind, k, monkeypatch):
    table = CyclicTable(11) if p == "cyclic" else special_linear_group(2, p)
    rng = np.random.default_rng([k, table.size, 7])
    fs = input_functions(table, kind, k, rng)
    want_avg, want_dev, want_prod = separate_sweep_statistics(table, fs)
    charges = []
    monkeypatch.setattr("progmix.mixing.charge", lambda cost, *a: charges.append(cost))
    avg, dev = exact_progression_statistics(table, fs)
    assert charges == [k * table.size**2]  # one sweep, charged once
    if kind == "float":
        assert abs(avg.value - want_avg) < 1e-12
        assert abs(dev.value - want_dev) < 1e-12
    else:
        assert avg.exact_value == want_avg
        assert dev.exact_value == want_dev
        assert avg.exact_product == dev.exact_product == want_prod
        assert avg.value == float(want_avg) and dev.value == float(want_dev)
    assert dev.deviation == dev.value
    # the public exact modes are the same reductions of the same sweep
    assert progression_average(table, fs, samples="exact") == avg
    assert progression_deviation(table, fs) == dev


def direct_shift_sums(table, fs, shifts=None):
    """The per-shift loop that `shift_sums` replaced: one fresh permutation per shift."""
    vals = [f.values for f in fs]
    shifts = range(table.size) if shifts is None else shifts
    exact = all(f.is_integer_valued for f in fs)
    out = np.empty(len(shifts), dtype=np.int64 if exact else np.result_type(*vals, np.float64))
    for j, gi in enumerate(shifts):
        prod = vals[0]
        if len(vals) > 1:
            perm = table.rmul_perm(int(gi))
            cursor = perm
            prod = prod * vals[1][cursor]
            for v in vals[2:]:
                cursor = perm[cursor]
                prod = prod * v[cursor]
        out[j] = prod.sum()
    return out


def assert_same_sums(table, fs, shifts=None):
    got, want = shift_sums(table, fs, shifts), direct_shift_sums(table, fs, shifts)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)  # bit for bit, floats included


KINDS = ["sign", "indicator", "float", "complex"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_composed_shift_sums_match_direct_loop(p, k, kind):
    table = special_linear_group(2, p)
    rng = np.random.default_rng([p, k, KINDS.index(kind)])
    fs = input_functions(table, kind, k, rng)
    sampled = rng.integers(0, table.size, size=table.size // 2)
    sampled = np.concatenate([sampled, sampled[::-3]])  # unsorted, with repeats
    assert_same_sums(table, fs)
    assert_same_sums(table, fs, table.indices_of(diagonalisable_set(p).mats))
    assert_same_sums(table, fs, sampled)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("name", ["borel", "sl3", "cyclic"])
def test_shift_sums_unchanged_on_undecomposed_tables(name, k, kind):
    table = {"borel": borel_subgroup(7), "sl3": special_linear_group(3, 3),
             "cyclic": CyclicTable(11)}[name]
    rng = np.random.default_rng([k, table.size, KINDS.index(kind)])
    fs = input_functions(table, kind, k, rng)
    sampled = rng.integers(0, table.size, size=30)
    assert_same_sums(table, fs, np.concatenate([sampled, sampled[:7]]))
    if name != "sl3":
        assert_same_sums(table, fs)


@st.composite
def shift_problems(draw):
    """A table SL_2(F_p), p in {3, 5, 7}, a function tuple and a shift multiset."""
    table = special_linear_group(2, draw(st.sampled_from([3, 5, 7])))
    k = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(KINDS))
    fs = input_functions(table, kind, k, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    shifts = draw(st.lists(st.integers(0, table.size - 1), max_size=80))
    return table, fs, np.array(shifts, dtype=np.intp)


@settings(max_examples=60, deadline=None)
@given(shift_problems())
def test_composed_shift_sums_property(problem):
    assert_same_sums(*problem)
