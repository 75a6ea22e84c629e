import tracemalloc

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from progmix.borel import borel_context, smoothed
from progmix.budget import BudgetExceededError
from progmix.fourier import ap3_average
from progmix.groups import (
    CyclicTable,
    _bottom_row_lines,
    GroupTable,
    borel_subgroup,
    bruhat_layout,
    bruhat_split,
    diagonalisable_set,
    special_linear_group,
    unipotent_subgroup,
)
from progmix.mixing import (
    INT64_MAX,
    GroupFunction,
    constant_function,
    convolve,
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


@pytest.mark.parametrize("call, message", [
    (lambda table, fs: progression_average(table, fs, samples=0), "samples must be positive"),
    (lambda table, fs: progression_deviation(table, fs, samples=0), "samples must be positive"),
    (lambda table, fs: GroupFunction(np.ones(table.size + 1), table),
     "value array does not match the table size"),
    (lambda table, fs: GroupFunction(np.full(table.size, 0.3), table, denominator=4),
     "not multiples of 1/4"),
    (lambda table, fs: GroupFunction(np.zeros(table.size), table, denominator=0),
     "positive integer"),
    (lambda table, fs: GroupFunction(np.zeros(table.size), table, denominator=-3),
     "positive integer"),
    (lambda table, fs: GroupFunction(np.zeros(table.size), table, denominator=2.0),
     "positive integer"),
    (lambda table, fs: GroupFunction(np.zeros(table.size, dtype=np.int64), table, denominator=2),
     "integer values take no denominator"),
    (lambda table, fs: GroupFunction(np.zeros(table.size, dtype=complex), table, denominator=2),
     "real float values"),
    (lambda table, fs: GroupFunction(np.full(table.size, 2.0**62), table, denominator=2),
     "int64 numerators"),
    (lambda table, fs: GroupFunction(np.full(table.size, np.inf), table, denominator=2),
     "int64 numerators"),
    # numerators of +-2^40 over 3: products of 2^120 would wrap an int64 sum
    (lambda table, fs: shift_sums(table, [GroupFunction(np.full(table.size, 2**40 / 3), table,
                                                        denominator=3)] * 3), "int64 maximum"),
], ids=["average-samples-0", "deviation-samples-0", "function-length", "denominator-non-multiple",
        "denominator-0", "denominator-negative",
        "denominator-float", "denominator-on-integers", "denominator-on-complex",
        "numerators-past-int64", "numerators-infinite", "numerator-products-past-int64"])
def test_mixing_refusals(call, message):
    table = special_linear_group(2, 3)
    with pytest.raises(ValueError, match=message):
        call(table, [constant_function(table)] * 3)


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


def test_convolve_refuses_int64_overflow():
    # Two constant 2^40 functions on SL_2(F_3) convolve to 24 * 2^80, which
    # the int64 sum once wrapped to 0.  Each value sums |supp mu| = 24 terms
    # of magnitude up to max|f| max|mu|: the largest top with 24 top <= 2^63 - 1
    # is summed exactly, and one more is refused.
    table = special_linear_group(2, 3)
    big = constant_function(table, 2**40)
    with pytest.raises(ValueError, match="int64 maximum"):
        convolve(big, big)
    top = INT64_MAX // table.size
    ones = constant_function(table)
    got = convolve(constant_function(table, top), ones).values
    assert got.tolist() == [table.size * top] * table.size
    signs = random_sign_function(table, np.random.default_rng(5)).values
    f = GroupFunction(signs * top, table)
    assert convolve(f, ones).values.tolist() == [int(signs.sum()) * top] * table.size
    for f in (constant_function(table, top + 1), GroupFunction(signs * (top + 1), table)):
        with pytest.raises(ValueError, match="int64 maximum"):
            convolve(f, ones)


def test_coset_smoothing_properties():
    p = 5
    ctx = borel_context(p)
    b = ctx.group
    u = unipotent_subgroup(p)
    rng = np.random.default_rng(11)
    f = GroupFunction(rng.standard_normal(b.size), b)
    [once] = smoothed(ctx, [f])
    # mass preserved, idempotent, and constant on the shear cosets
    assert abs(once.mean() - f.mean()) < 1e-12
    [twice] = smoothed(ctx, [once])
    assert np.max(np.abs(twice.values - once.values)) < 1e-12
    u_idx = b.indices_of(u.mats)
    for xi in range(b.size):
        coset = b.indices_of((b.mats[u_idx] @ b.mats[xi]) % p)
        vals = once.values[coset]
        assert np.max(np.abs(vals - vals[0])) < 1e-12


def test_coset_smoothing_of_point_mass():
    p = 5
    ctx = borel_context(p)
    b = ctx.group
    u = unipotent_subgroup(p)
    x = 7
    [once] = smoothed(ctx, [delta_function(b, x)])
    u_idx = b.indices_of(u.mats)
    coset = b.indices_of((b.mats[u_idx] @ b.mats[x]) % p)
    expected = np.zeros(b.size)
    expected[coset] = 1 / u.size
    assert np.allclose(once.values, expected)


# Brute-force oracle for the exact statistics: a double loop over (x, g) that
# multiplies group elements itself and never calls rmul_perm.


def cayley_step(table):
    """step(x, g) = index of x * g, by explicit multiplication."""
    if isinstance(table, CyclicTable):
        return lambda x, g: (x + g) % table.size
    index = {tuple(m.ravel()): i for i, m in enumerate(table.mats)}
    return lambda x, g: index[tuple((table.mats[x] @ table.mats[g] % table.p).ravel())]


def brute_shift_sums(table, values, shifts=None):
    step = cayley_step(table)
    sums = []
    for g in range(table.size) if shifts is None else shifts:
        total = 0
        for x in range(table.size):
            prod, y = values[0][x], x
            for v in values[1:]:
                y = step(y, g)
                prod *= v[y]
            total += prod
        sums.append(total)
    return sums


def fraction_values(f):
    """The values of an exact (integer or rational) f as Fractions."""
    return [Fraction(int(v), f.denominator) for v in f.numerators]


def brute_statistics(table, fs, shift_subset=None, sums=None):
    """Average, product of means, deviation and restricted deviations, as exact
    Fractions for exact (integer or rational) inputs and as floats otherwise.
    `sums` gives the per-shift sums in place of the brute-force ones."""
    n = table.size
    exact = all(f.numerators is not None for f in fs)
    values = [fraction_values(f) if exact else list(f.values) for f in fs]
    scalar = Fraction if exact else lambda a, b: a / b
    sums = brute_shift_sums(table, values) if sums is None else sums
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


@pytest.mark.parametrize("kind", ["sign", "indicator", "big"])
@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_exact_statistics_over_distinct_sums(p, k, kind):
    # The average and deviation numerators, taken over the distinct sums and
    # their counts, equal the Python-int sums over all n shift sums; one
    # +-2^40 function puts the deviation terms s n^(k-1) far past int64.
    table = special_linear_group(2, p)
    n = table.size
    rng = np.random.default_rng([p, k, len(kind)])
    fs = input_functions(table, "indicator" if kind == "indicator" else "sign", k, rng)
    if kind == "big":
        fs[0] = GroupFunction(fs[0].values * 2**40, table)
    avg, dev = exact_progression_statistics(table, fs)
    sums = shift_sums(table, fs).tolist()
    target = int(np.prod([int(f.values.sum()) for f in fs], dtype=object))
    assert avg.exact_value == Fraction(sum(sums), n * n)
    assert avg.exact_product == dev.exact_product == Fraction(target, n**k)
    scale = n ** (k - 1)
    assert dev.exact_value == Fraction(sum(abs(s * scale - target) for s in sums), n ** (k + 1))
    assert avg.value == sum(sums) / (n * n)


def direct_shift_sums(table, fs, shifts=None):
    """The per-shift loop that `shift_sums` replaced: one fresh permutation per
    shift, each progression anchored at its middle term y = x g, the product
    ((f_0(y g^-1) f_1(y)) f_2(y g)) f_3(y g^2) summed in y-order."""
    vals = [f.values for f in fs]
    shifts = range(table.size) if shifts is None else shifts
    exact = all(f.is_integer_valued for f in fs)
    out = np.empty(len(shifts), dtype=np.int64 if exact else np.result_type(*vals, np.float64))
    for j, gi in enumerate(shifts):
        prod = vals[0]
        if len(vals) > 1:
            perm = table.rmul_perm(int(gi))  # y -> y g
            back = np.empty_like(perm)
            back[perm] = np.arange(table.size)  # y -> y g^-1
            prod = prod[back] * vals[1]
            cursor = perm
            for v in vals[2:]:
                prod = prod * v[cursor]
                cursor = perm[cursor]
        out[j] = prod.sum()
    return out


def assert_same_sums(table, fs, shifts=None):
    """Check shift_sums against direct_shift_sums, bit for bit, and return the
    shifts whose permutation shift_sums assembled, in call order."""
    calls, original = [], type(table).rmul_perm

    def counted(self, gi):
        calls.append(gi)
        return original(self, gi)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(type(table), "rmul_perm", counted)
        got = shift_sums(table, fs, shifts)
    want = direct_shift_sums(table, fs, shifts)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)  # bit for bit, floats included
    return calls


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
def test_shift_sums_unchanged_on_undecomposed_tables(name, k, kind, monkeypatch):
    # The trivial decomposition: "cyclic" and "borel" always, and a fresh
    # SL_3 table built with no budget for its cosets.
    table = {"borel": lambda: GroupTable(borel_subgroup(7).mats, 7, "borel"),
             "sl3": lambda: GroupTable(special_linear_group(3, 3).mats, 3, "full"),
             "cyclic": lambda: CyclicTable(11)}[name]()
    monkeypatch.setenv("PROGMIX_BUDGET", "0")
    rng = np.random.default_rng([k, table.size, KINDS.index(kind)])
    fs = input_functions(table, kind, k, rng)
    sampled = rng.integers(0, table.size, size=30)
    calls = assert_same_sums(table, fs, np.concatenate([sampled, sampled[:7]]))
    assert sorted(calls) == (np.unique(sampled).tolist() if k > 1 else [])  # one per shift
    if name != "sl3":
        assert sorted(assert_same_sums(table, fs)) == (list(range(table.size)) if k > 1 else [])


@pytest.mark.parametrize("name, k, kind", [("borel", k, kind) for k in (2, 3, 4) for kind in KINDS]
                         + [("sl3", k, kind) for k in (3, 4) for kind in ("sign", "float")])
def test_full_sweeps_over_cosets_match_direct_loop(name, k, kind, monkeypatch):
    # Every shift of B(F_7), one permutation per shift, and of SL_3(F_3), on
    # the (|H|, 13) grid of the cosets of its bottom-row stabiliser H, where
    # every shift is a row take and no permutation is assembled; one unit
    # below the split guard 13 n, one permutation per shift.
    table, cosets = {"borel": (borel_subgroup(7), 1), "sl3": (special_linear_group(3, 3), 13)}[name]
    fs = input_functions(table, kind, k, np.random.default_rng([k, KINDS.index(kind), cosets]))
    calls = sorted(assert_same_sums(table, fs))
    if name == "borel":
        assert calls == list(range(42))
    else:
        assert calls == []
        monkeypatch.setenv("PROGMIX_BUDGET", str(cosets * table.size - 1))
        assert sorted(assert_same_sums(table, fs)) == list(range(table.size))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("name", ["sl2", "borel", "sl3", "cyclic"])
def test_shift_sums_follow_coset_labels(name, k, kind):
    # Shift sets that miss coset 0, and sets inside one coset: a coset is the
    # identity one by its label, not by its place among the cosets a set uses.
    table = {"sl2": special_linear_group(2, 5), "borel": borel_subgroup(7),
             "sl3": special_linear_group(3, 3), "cyclic": CyclicTable(11)}[name]
    lines = np.zeros(table.size, dtype=np.intp) if name == "cyclic" \
        else _bottom_row_lines(table.mats[:, -1], table.p)
    rng = np.random.default_rng([k, table.size, KINDS.index(kind), 5])
    fs = input_functions(table, kind, k, rng)
    off_identity = np.flatnonzero(lines != 0)
    if name in ("borel", "cyclic"):
        assert off_identity.size == 0  # B lies on line 0, and Z_11 has no bottom rows
    else:
        assert len(np.unique(lines)) > 2  # several non-identity cosets to tell apart
        if name == "sl3":  # 5184 shifts in 12 cosets
            off_identity = rng.choice(off_identity, size=60)
            assert len(np.unique(lines[off_identity])) > 2
        assert_same_sums(table, fs, off_identity)
    for label in np.unique(lines):
        members = np.flatnonzero(lines == label)
        assert_same_sums(table, fs, rng.choice(members, size=min(members.size, 24)))
        assert_same_sums(table, fs, members[-3:][::-1])


# Largest product bound whose sums over n = 120 terms fit int16 and int32.
ROW16, ROW32 = (2**15 - 1) // 120, (2**31 - 1) // 120


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("tops", [(127, 1), (-128, -1), (11, 11), (12, 11), (2**15 - 1, 1),
                                  (-(2**15), -1), (2**31 - 1, 1), (-(2**31), -1), (2**20, 2**20),
                                  (ROW16, 1), (ROW16 + 1, 1), (-(ROW16 + 1), 1), (ROW32, 1),
                                  (ROW32 + 1, 1), (-(ROW32 + 1), 1)])
def test_shift_sums_exact_at_narrowing_bounds(tops, k):
    # Integer inputs are multiplied in the narrowest type that holds every
    # product, and each row is summed in the narrowest that holds n times it.
    # Signed multiples of tops put products of magnitude |tops[0] * tops[1]|
    # on every shift, and constant multiples put the sum n tops[0] tops[1] on
    # every shift; both are compared with the int64 direct loop.
    table = special_linear_group(2, 5)
    assert table.size == 120
    rng = np.random.default_rng([k, *map(abs, tops)])
    signs = [random_sign_function(table, rng).values for _ in range(k)]
    for draw in (signs, np.ones((k, table.size), dtype=np.int64)):
        fs = [GroupFunction(s * v, table) for s, v in zip(draw, (*tops, 1, 1))]
        assert_same_sums(table, fs)
        on_line_3 = np.flatnonzero(_bottom_row_lines(table.mats[:, -1], 5) == 3)
        assert_same_sums(table, fs, on_line_3)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("top", [2**8 - 1, 2**8, -(2**8), 2**24 - 1, 2**24, -(2**24)])
def test_shift_sums_exact_where_row_sums_reach_the_limits(top, k):
    # On 128 elements a constant product 2^8 sums to 2^15 on every shift and
    # 2^24 to 2^31, one past the int16 and int32 limits.
    table = CyclicTable(128)
    fs = [GroupFunction(np.full(table.size, v), table) for v in (top, 1, 1, 1)[:k]]
    assert_same_sums(table, fs)


def test_exact_sums_refuse_int64_overflow():
    # Three +-2^40 functions on SL_2(F_3) have products of 2^120, which the
    # int64 sums once wrapped silently: the exact average read 0.
    table = special_linear_group(2, 3)
    rng = np.random.default_rng(0)
    fs = [GroupFunction(random_sign_function(table, rng).values * 2**40, table) for _ in range(3)]
    for run in (lambda: shift_sums(table, fs), lambda: exact_progression_statistics(table, fs),
                lambda: restricted_progression_deviation(table, borel_subgroup(3), fs)):
        with pytest.raises(ValueError, match="int64 maximum"):
            run()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_exact_sums_at_the_int64_boundary(k):
    # A row sums n products of magnitude up to prod_i max|f_i|.  The largest
    # top with n top <= 2^63 - 1 is summed exactly, on signs and on constants,
    # whose every sum is n top = 2^63 - 8; one more is refused.
    table = special_linear_group(2, 3)
    top = INT64_MAX // table.size
    rng = np.random.default_rng(k)
    for draw in ([random_sign_function(table, rng).values for _ in range(k)],
                 np.ones((k, table.size), dtype=np.int64)):
        fs = [GroupFunction(s * v, table) for s, v in zip(draw, (top, 1, 1, 1))]
        want = brute_shift_sums(table, [f.values.tolist() for f in fs])
        assert shift_sums(table, fs).tolist() == want
        assert progression_average(table, fs).exact_value == Fraction(sum(want), table.size**2)
        fs[0] = GroupFunction(draw[0] * (top + 1), table)
        with pytest.raises(ValueError, match="int64 maximum"):
            shift_sums(table, fs)


def test_group_function_refuses_unsigned_values_past_int64():
    table = CyclicTable(3)
    assert GroupFunction(np.array([0, 1, INT64_MAX], dtype=np.uint64), table).values[2] == INT64_MAX
    with pytest.raises(ValueError, match="int64 maximum"):
        GroupFunction(np.array([0, 1, INT64_MAX + 1], dtype=np.uint64), table)


PROPERTY_TABLES = [("sl2", 3), ("sl2", 5), ("sl2", 7), ("borel", 3), ("borel", 5), ("borel", 7),
                   ("sl3", 3)]


@st.composite
def shift_problems(draw):
    """A table (SL_2(F_p) or its Borel subgroup, p in {3, 5, 7}, or SL_3(F_3)),
    a function tuple and a shift multiset."""
    name, p = draw(st.sampled_from(PROPERTY_TABLES))
    table = {"sl2": lambda: special_linear_group(2, p), "borel": lambda: borel_subgroup(p),
             "sl3": lambda: special_linear_group(3, p)}[name]()
    k = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(KINDS))
    fs = input_functions(table, kind, k, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    shifts = draw(st.lists(st.integers(0, table.size - 1), max_size=80))
    return table, fs, np.array(shifts, dtype=np.intp)


@settings(max_examples=60, deadline=None)
@given(shift_problems())
def test_composed_shift_sums_property(problem):
    assert_same_sums(*problem)


# Tops of |f_0|, |f_1|, |f_2| whose product puts the kernel in int8, int16,
# int32 and int64 (`kernel_values`), with row sums in int16, int32 and int64
# (`sum_dtype`) across n = 24, 120, 336 and 5616; f_3, if any, has top 1.
BRUHAT_TOPS = [(1, 1, 1), (5, 5, 5), (6, 5, 5), (181, 181, 1), (2**15, 2**10, 1),
               (2**20, 2**10, 1), (2**16, 2**16, 1)]


@st.composite
def bruhat_problems(draw):
    """SL_2(F_p), p in {3, 5, 7}, or SL_3(F_3), k in {2, 3, 4} functions and a
    shift array.

    The functions are integers with the tops of one of BRUHAT_TOPS, or signs,
    indicators, floats, complex values, or floats and complex values in turn.
    The shifts are every shift, the diagonalisable set (SL_2 only), shifts
    inside H only (coset 0), or an unsorted array with repeats."""
    d, p = draw(st.sampled_from([(2, 3), (2, 5), (2, 7), (3, 3)]))
    table = special_linear_group(d, p)
    k = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["tops", "mixed", *KINDS]))
    if kind == "tops":
        fs = []
        for top in (*draw(st.sampled_from(BRUHAT_TOPS)), 1)[:k]:
            values = rng.integers(-top, top + 1, table.size)
            values[rng.integers(table.size)] = top * rng.choice([-1, 1])
            fs.append(GroupFunction(values, table))
    elif kind == "mixed":
        fs = [input_functions(table, ("float", "complex")[i % 2], 1, rng)[0] for i in range(k)]
    else:
        fs = input_functions(table, kind, k, rng)
    shifts = draw(st.sampled_from(["all", "diagonalisable", "coset 0", "unsorted"] if d == 2
                                  else ["all", "coset 0", "unsorted"]))
    if shifts == "all":
        return table, fs, None
    if shifts == "diagonalisable":
        return table, fs, table.indices_of(diagonalisable_set(p).mats)
    members = np.flatnonzero(_bottom_row_lines(table.mats[:, -1], p) == 0) if shifts == "coset 0" \
        else np.arange(table.size)
    drawn = np.array(draw(st.lists(st.sampled_from(members.tolist()), max_size=40)), dtype=np.intp)
    return table, fs, np.concatenate([drawn, drawn[::-2]])


@settings(max_examples=60, deadline=None)
@given(bruhat_problems())
def test_bruhat_shift_sums_property(problem):
    # Every sweep of SL_2(F_p) and SL_3(F_3), of 2 to 4 terms and any dtype,
    # takes row takes over the Bruhat layout and assembles no permutation; it
    # matches the one-permutation-per-shift loop bit for bit, and brute-force
    # multiplication at p in {3, 5}, exactly for integer inputs: every shift
    # on SL_2, and the first two on SL_3, whose brute force costs n (k - 1)
    # products per shift.
    table, fs, shifts = problem

    def no_permutation(*args):
        raise AssertionError("the Bruhat route assembles no permutation")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GroupTable, "rmul_perm", no_permutation)
        got = shift_sums(table, fs, shifts)
    want = direct_shift_sums(table, fs, shifts)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    if table.p < 7:
        exact = all(f.is_integer_valued for f in fs)
        some = (np.arange(table.size) if shifts is None else shifts)[:None if table.d == 2 else 2]
        brute = brute_shift_sums(table, [f.values.tolist() for f in fs], some)
        got = got[:len(some)]
        assert (got.tolist() == brute) if exact else np.allclose(got, brute, rtol=1e-12)


def test_bruhat_sweep_memory_is_linear_in_the_stacks():
    # A 4-term complex sweep holds two (lines) n stacks, each filled in place
    # one layer at a time, and per h a few (group, n) rows.  Over the
    # diagonalisable set of SL_2(F_23) that is 15.9 MB peak, or
    # 54.5 (p + 1) n bytes, and over every shift of SL_3(F_3) 6.3 MB, or
    # 86 (13 n) bytes.  An (|S|, |H|) array of row indices for the whole
    # shift set is 22.4 MB and 19.4 MB alone, above the bounds.
    rng = np.random.default_rng(23)
    for d, p, lines, per_cell in ((2, 23, 24, 60), (3, 3, 13, 96)):
        table = special_linear_group(d, p)
        bound = per_cell * lines * table.size
        shifts = table.indices_of(diagonalisable_set(p).mats) if d == 2 else np.arange(table.size)
        fs = input_functions(table, "complex", 4, rng)
        shift_sums(table, fs, shifts[:2])  # build the cached layout
        tracemalloc.start()
        try:
            got = shift_sums(table, fs, shifts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound
        some = rng.choice(len(shifts), 4, replace=False)
        assert np.array_equal(got[some], direct_shift_sums(table, fs, shifts[some]))
        hs = bruhat_split(table.mats[shifts], p)[0]
        assert bruhat_layout(table).coords.rows(hs).nbytes > bound


@st.composite
def integer_inputs(draw, k_range):
    """SL_2(F_p) or its Borel subgroup for p in {3, 5, 7}, and k integer-valued
    functions on it with values in [-3, 3]."""
    p = draw(st.sampled_from([3, 5, 7]))
    table = borel_subgroup(p) if draw(st.booleans()) else special_linear_group(2, p)
    k = draw(st.integers(*k_range))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return table, [GroupFunction(rng.integers(-3, 4, table.size), table) for _ in range(k)]


@settings(max_examples=25, deadline=None)
@given(integer_inputs((1, 3)), st.data())
def test_progression_average_left_translation_invariant_property(problem, data):
    # E_{x,g} prod_i f_i(a x g^i) = E_{x,g} prod_i f_i(x g^i): substitute x -> a^-1 x.
    table, fs = problem
    a = data.draw(st.integers(0, table.size - 1))
    perm = table.lmul_perm(a)  # x -> a x
    moved = [GroupFunction(f.values[perm], table) for f in fs]
    assert (progression_average(table, moved).exact_value
            == progression_average(table, fs).exact_value)


@settings(max_examples=25, deadline=None)
@given(integer_inputs((2, 2)))
def test_two_term_average_factorises_exactly_property(problem):
    # E_{x,g} f0(x) f1(x g) = E f0 E f1, since x g runs over G for each x.
    table, (f0, f1) = problem
    n = table.size
    expected = Fraction(int(f0.values.sum()), n) * Fraction(int(f1.values.sum()), n)
    result = progression_average(table, [f0, f1])
    assert result.exact_value == expected == result.exact_product


def rational_function(table, numerators, q):
    """numerators / q: integer values for q = 1, else float values with denominator q."""
    numerators = np.asarray(numerators, dtype=np.int64)
    return GroupFunction(numerators, table) if q == 1 else \
        GroupFunction(numerators / q, table, denominator=q)


MIXING_STATISTICS = {
    "average": lambda table, fs: progression_average(table, fs),
    "average-sampled": lambda table, fs: progression_average(table, fs, samples=500, seed=1),
    "deviation": lambda table, fs: progression_deviation(table, fs),
    "deviation-sampled": lambda table, fs: progression_deviation(table, fs, samples=60, seed=2),
    "restricted-unsigned":
        lambda table, fs: restricted_progression_deviation(table, borel_subgroup(5), fs)[0],
    "restricted-signed":
        lambda table, fs: restricted_progression_deviation(table, borel_subgroup(5), fs)[1],
}


@pytest.mark.parametrize("name", list(MIXING_STATISTICS))
def test_denominated_statistics_match_their_floats(name):
    # Rational inputs take the integer kernels and divide once by Q = 6 * 4;
    # the same float values without denominators take the float kernels.
    # Float rows agree within rounding, exact rows equal the Fraction oracle,
    # and the product of means is the product of the same float means.
    table = special_linear_group(2, 5)
    rng = np.random.default_rng([5, len(name)])
    fs = [rational_function(table, rng.integers(-q, q + 1, table.size), q) for q in (6, 1, 4)]
    floats = [GroupFunction(f.values.astype(np.float64), table) for f in fs]
    got, plain = MIXING_STATISTICS[name](table, fs), MIXING_STATISTICS[name](table, floats)
    assert got.product_of_means == plain.product_of_means
    assert abs(got.value - plain.value) <= 1e-15
    if name == "average-sampled":  # paired lookups of the float values in both
        assert got == plain
    want = brute_statistics(table, fs, table.indices_of(borel_subgroup(5).mats))
    key = {"average": "average", "deviation": "deviation", "deviation-sampled": None,
           "restricted-unsigned": "unsigned", "restricted-signed": "signed"}.get(name)
    if name in ("average", "deviation"):
        assert got.exact_value == want[key] and got.exact_product == want["product"]
        assert got.value == float(want[key])
    elif key is not None:
        assert abs(got.value - float(want[key])) <= 1e-15


@st.composite
def rational_problems(draw):
    """A table, functions numerators / q_i with q_i in 1..7 and numerators in
    [-3 q_i, 3 q_i], and shifts: all of SL_2(F_p) for p in {3, 5, 7}, of
    B(F_7) or of Z_11, or up to 40 drawn shifts of SL_3(F_3)."""
    name = draw(st.sampled_from(["sl2-3", "sl2-5", "sl2-7", "borel-7", "cyclic", "sl3"]))
    table = {"sl2-3": lambda: special_linear_group(2, 3), "sl2-5": lambda: special_linear_group(2, 5),
             "sl2-7": lambda: special_linear_group(2, 7), "borel-7": lambda: borel_subgroup(7),
             "cyclic": lambda: CyclicTable(11), "sl3": lambda: special_linear_group(3, 3)}[name]()
    qs = draw(st.lists(st.integers(1, 7), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fs = [rational_function(table, rng.integers(-3 * q, 3 * q + 1, table.size), q) for q in qs]
    if name != "sl3":
        return table, fs, None
    return table, fs, np.array(draw(st.lists(st.integers(0, table.size - 1), max_size=40)),
                               dtype=np.intp)


@settings(max_examples=40, deadline=None)
@given(rational_problems())
def test_rational_shift_sums_property(problem):
    # shift_sums of numerators / q_i is prod_i q_i times the rational sums:
    # the integer sweep of the numerators everywhere, and the rational brute
    # force at p in {3, 5}, B(F_7) and Z_11.  Over all shifts, the exact
    # statistics equal the rational Fraction oracle.
    table, fs, shifts = problem
    q = int(np.prod([f.denominator for f in fs]))
    got = shift_sums(table, fs, shifts)
    assert got.dtype == np.int64
    numerators = [GroupFunction(f.numerators, table) for f in fs]
    assert np.array_equal(got, direct_shift_sums(table, numerators, shifts))
    small = table.size <= 120
    if small:
        brute = brute_shift_sums(table, [fraction_values(f) for f in fs], shifts)
        assert got.tolist() == [q * b for b in brute]
    if shifts is None:
        want = brute_statistics(table, fs, sums=None if small else
                                [Fraction(s, q) for s in got.tolist()])
        avg, dev = exact_progression_statistics(table, fs)
        assert avg.exact_value == want["average"] and dev.exact_value == want["deviation"]
        assert avg.exact_product == dev.exact_product == want["product"]
        assert avg.value == float(want["average"]) and dev.value == float(want["deviation"])
