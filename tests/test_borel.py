import itertools
import math

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from progmix.borel import (
    alpha_shift_identity,
    beta_prime_closed_form,
    borel_context,
    conic_analysis,
    conic_sizes,
    difference_spectrum_invariance,
    elimination_constants,
    four_term_average,
    sheared_average,
    sheared_average_exact,
    smoothed,
    smoothing_gap,
    sum_product_collision_rate,
    zero_frequency_mass,
)
from progmix import mixing
from progmix.budget import BudgetExceededError
from progmix.fourier import dft
from progmix.groups import GroupTable, borel_subgroup, unipotent_subgroup
from progmix.mixing import (
    GroupFunction,
    constant_function,
    convolve,
    indicator_function,
    progression_average,
    random_sign_function,
)


def coset_smooth(f, subgroup):
    """Convolve f with the uniform probability on a subgroup, one
    permutation per element: the oracle for `smoothed`, which averages over
    the shear cosets in B's coordinates."""
    table = f.table
    mu = np.zeros(table.size, dtype=np.float64)
    mu[table.indices_of(subgroup.mats)] = 1.0 / subgroup.size
    return convolve(f, GroupFunction(mu, table))


def coset_mean_zero_function(ctx, rng):
    """Integer-valued, exactly mean-zero on every shear coset."""
    vals = np.zeros(ctx.group.size, dtype=np.int64)
    half = (ctx.p - 1) // 2
    for t in range(1, ctx.p):
        idx = ctx.shear_mul_index[:, ctx.pi_section[t]]
        signs = np.concatenate([np.repeat([-1, 1], half), [0]])
        rng.shuffle(signs)
        vals[idx] = signs
    return GroupFunction(vals, ctx.group)


def coset_mean_zero_projection(ctx, values):
    """p f(x) - sum_a f(shear(a) x): integer for integer f, mean zero on every shear coset."""
    return ctx.p * values - values[ctx.shear_mul_index].sum(axis=0)


def dft_zero_frequency_mass(ctx, fs, i0):
    """The frequency-side sum by DFT of each shear restriction, with the
    xi_{i0} = 0 slice masked out; the oracle for `zero_frequency_mass`."""
    p = ctx.p
    tables = {}
    for i in (1, 2, 3):
        rows = np.zeros((p, p))
        for t in range(1, p):
            xi = int(ctx.pi_section[t])
            restricted = np.asarray(fs[i].values, dtype=complex)[ctx.shear_mul_index[:, xi]]
            rows[t] = np.abs(dft(restricted)) ** 2
        tables[i] = rows
    xi2 = np.arange(p)[:, None]
    xi3 = np.arange(p)[None, :]
    total = 0.0
    for t in range(1, p):
        c2 = (1 + t * t) % p
        c3 = (1 + t * t + pow(t, 4, p)) % p
        xi1 = (-(c2 * xi2 + c3 * xi3)) % p
        mask = np.ones((p, p), dtype=bool)
        if i0 == 2:
            mask[0, :] = False
        else:
            mask[:, 0] = False
        for s in range(1, p):
            grid = tables[1][s][xi1] * tables[2][(s * t) % p][xi2] * tables[3][(s * t * t) % p][xi3]
            total += float(grid[mask].sum())
    return total / (p - 1) ** 2


def rolled_zero_frequency_mass(ctx, fs):
    """The exact value by integer autocorrelations built with np.roll, one lag
    at a time; the oracle for integer inputs."""
    p = ctx.p
    auto = {}
    for i in (1, 2, 3):
        rows = np.zeros((p, p), dtype=np.int64)
        for t in range(1, p):
            xi = int(ctx.pi_section[t])
            r = np.asarray(fs[i].values, dtype=np.int64)[ctx.shear_mul_index[:, xi]]
            for h in range(p):
                rows[t, h] = int(np.dot(r, np.roll(r, -h)))
        auto[i] = rows
    h_row = np.arange(p)
    total = 0
    for t in range(1, p):
        c2 = (1 + t * t) % p
        c3 = (1 + t * t + pow(t, 4, p)) % p
        for s in range(1, p):
            a1 = auto[1][s]
            a2 = auto[2][(s * t) % p][(c2 * h_row) % p]
            a3 = auto[3][(s * t * t) % p][(c3 * h_row) % p]
            total += int(np.sum(a1 * a2 * a3))
    return Fraction(total, (p - 1) ** 2 * p**4)


def test_context_invariants():
    for p in (3, 5, 7):
        ctx = borel_context(p)
        assert ctx.group.size == p * (p - 1)
        for t in range(1, p):
            assert ctx.group.mats[ctx.pi_section[t], 1, 1] == t


def test_constant_four_term_average():
    ctx = borel_context(5)
    fs = [constant_function(ctx.group) for _ in range(4)]
    assert four_term_average(ctx, fs).exact_value == 1
    assert sheared_average(ctx, fs) == 1.0


def test_two_term_subcheck_on_borel():
    ctx = borel_context(5)
    rng = np.random.default_rng(0)
    fs = [GroupFunction(rng.standard_normal(ctx.group.size), ctx.group) for _ in range(2)]
    result = progression_average(ctx.group, fs)
    assert abs(result.value - result.product_of_means) < 1e-12


def test_four_term_bounded_for_signs():
    ctx = borel_context(5)
    rng = np.random.default_rng(1)
    for _ in range(5):
        fs = [random_sign_function(ctx.group, rng) for _ in range(4)]
        assert abs(four_term_average(ctx, fs).value) <= 1


def test_sheared_average_equals_plain_average():
    for p in (3, 5):
        ctx = borel_context(p)
        rng = np.random.default_rng(p)
        for _ in range(5):
            fs = [random_sign_function(ctx.group, rng) for _ in range(4)]
            plain = progression_average(ctx.group, fs)  # the plain sweep over B
            assert abs(sheared_average(ctx, fs) - plain.value) < 1e-10


def test_sheared_average_exact_rational_equality():
    ctx = borel_context(5)
    rng = np.random.default_rng(2)
    for _ in range(3):
        picks = [rng.choice(ctx.group.size, size=8, replace=False) for _ in range(4)]
        fs = []
        for chosen in picks:
            vals = np.zeros(ctx.group.size, dtype=np.int64)
            vals[chosen] = 1
            fs.append(GroupFunction(vals, ctx.group))
        assert sheared_average_exact(ctx, fs) == progression_average(ctx.group, fs).exact_value


def test_sheared_average_needs_four_functions():
    ctx = borel_context(5)
    rng = np.random.default_rng(2)
    fs = [random_sign_function(ctx.group, rng) for _ in range(3)]
    for fn in (sheared_average, sheared_average_exact):
        with pytest.raises(ValueError, match="four functions"):
            fn(ctx, fs)


def old_sheared_layers(ctx, fs):
    """The shear-coordinate blocks built from p^2 x n index copies per factor
    and shift; the oracle for `_sheared_layers`."""
    p, n = ctx.p, ctx.group.size
    a_row, b_row = np.indices((p, p)).reshape(2, -1)
    for gi in range(n):
        perm = ctx.group.rmul_perm(gi)
        i1 = perm
        i2 = perm[i1]
        i3 = perm[i2]
        w = int(ctx.group.mats[gi, 0, 0]) ** 2 % p
        c2 = (1 + w) % p
        c3 = (1 + w + w * w) % p
        t0 = fs[0].values[ctx.shear_mul_index[a_row]]
        t1 = fs[1].values[ctx.shear_mul_index[(a_row + b_row) % p][:, i1]]
        t2 = fs[2].values[ctx.shear_mul_index[(a_row + c2 * b_row) % p][:, i2]]
        t3 = fs[3].values[ctx.shear_mul_index[(a_row + c3 * b_row) % p][:, i3]]
        yield t0 * t1 * t2 * t3


def borel_element(p, s, u):
    """[[s, u], [0, 1/s]] as an integer matrix."""
    return np.array([[s, u], [0, pow(s, -1, p)]], dtype=np.int64)


def matrix_product_slices(ctx, fs):
    """The (s, u, lam) slices of `_sheared_layers`, one per upper-left entry t
    of the shift, each entry prod_i f_i(x g^i) looked up by `indices_of` on
    explicit matrix powers, for x = [[s, u], [0, 1/s]] and
    g = [[t, lam / (s t)], [0, 1/t]]; the oracle for the kernel's index rule."""
    p = ctx.p
    for t in range(1, p):
        xs, gs = [], []
        for s in range(1, p):
            for u in range(p):
                for lam in range(p):
                    xs.append(borel_element(p, s, u))
                    gs.append(borel_element(p, t, lam * pow(s * t, -1, p) % p))
        xs, gs = np.array(xs), np.array(gs)
        block, point = fs[0].values[ctx.group.indices_of(xs)], xs
        for f in fs[1:]:
            point = np.einsum("nij,njk->nik", point, gs) % p
            block = block * f.values[ctx.group.indices_of(point)]
        yield block.reshape(p - 1, p, p)


@pytest.mark.parametrize("kind", ["sign", "indicator", "integer", "float"])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_sheared_kernel_matches_old_loop(p, kind):
    ctx = borel_context(p)
    n = ctx.group.size
    rng = np.random.default_rng([p, len(kind)])
    if kind == "sign":
        draws = [rng.choice([-1, 1], size=n) for _ in range(4)]
    elif kind == "indicator":
        draws = [(rng.random(n) < 0.4).astype(np.int64) for _ in range(4)]
    elif kind == "integer":
        draws = [rng.integers(-3, 4, size=n) for _ in range(4)]
    else:
        draws = [rng.standard_normal(n) for _ in range(4)]
    fs = [GroupFunction(v, ctx.group) for v in draws]
    scale = n * n * p * p
    if kind == "float":
        # The old loop summed every product p^2 times, in its own order, so
        # it agrees to rounding; the slices of the same products, built from
        # matrix products and summed as p runs of n consecutive products,
        # added in order, agree bit for bit.
        value = sheared_average(ctx, fs)
        want = sum(x for block in matrix_product_slices(ctx, fs)
                   for x in block.reshape(p, n).sum(axis=1, dtype=np.float64).tolist())
        assert value == want / (n * n)
        old = sum(float(block.sum(dtype=np.float64)) for block in old_sheared_layers(ctx, fs))
        assert abs(value - old / scale) <= 1e-12 * abs(old / scale)
    else:
        exact = sum(int(block.sum(dtype=np.int64)) for block in old_sheared_layers(ctx, fs))
        assert sheared_average(ctx, fs) == sheared_average_exact(ctx, fs) == Fraction(exact, scale)


# Largest product bound whose partial sums of n = 20 products at p = 5 fit
# int16 and int32.
BLOCK16, BLOCK32 = (2**15 - 1) // 20, (2**31 - 1) // 20


@pytest.mark.parametrize("tops", [(127, 1), (-128, -1), (11, 11), (12, 11), (2**15 - 1, 1),
                                  (-(2**15), -1), (2**31 - 1, 1), (-(2**31), -1), (2**20, 2**20),
                                  (BLOCK16, 1), (BLOCK16 + 1, 1), (-(BLOCK16 + 1), 1),
                                  (BLOCK32, 1), (BLOCK32 + 1, 1), (-(BLOCK32 + 1), 1)])
def test_sheared_kernel_exact_at_narrowing_bounds(tops):
    # Integer inputs are multiplied in the narrowest type that holds every
    # product, and each partial sum, of n consecutive products of a slice,
    # in the narrowest that holds n times it; constant inputs put the
    # product tops[0] * tops[1] in every entry, so every partial sum is
    # n = 20 times it, and every old p^2 n = 500 block 500 times it.
    ctx = borel_context(5)
    assert 25 * ctx.group.size == 500
    fs = [GroupFunction(np.full(ctx.group.size, v), ctx.group) for v in (*tops, 1, 1)]
    exact = sum(int(block.sum(dtype=np.int64)) for block in old_sheared_layers(ctx, fs))
    assert sheared_average(ctx, fs) == Fraction(exact, 500 * ctx.group.size) == tops[0] * tops[1]


def test_sheared_average_at_the_int64_boundary():
    # Each partial sum adds n products, as each row of the plain 4-term
    # sweep over B does: at p = 3 the largest top with 6 top <= 2^63 - 1 is
    # summed exactly by both names, and one more is refused by both, and by
    # the plain sweep.  The old p^2 n bound refused every top above
    # (2^63 - 1) / 54.
    ctx = borel_context(3)
    n = ctx.group.size
    top = mixing.INT64_MAX // n
    rng = np.random.default_rng(3)
    signs = [random_sign_function(ctx.group, rng).values for _ in range(4)]
    fs = [GroupFunction(s * v, ctx.group) for s, v in zip(signs, (top, 1, 1, 1))]
    exact = sum(x for block in old_sheared_layers(ctx, fs) for x in block.ravel().tolist())
    assert sheared_average(ctx, fs) == Fraction(exact, 9 * n * n)
    assert sheared_average(ctx, fs) == four_term_average(ctx, fs).exact_value \
        == progression_average(ctx.group, fs).exact_value
    fs[0] = GroupFunction(signs[0] * (top + 1), ctx.group)
    for run in (sheared_average, four_term_average,
                lambda ctx, fs: progression_average(ctx.group, fs)):
        with pytest.raises(ValueError, match="int64 maximum"):
            run(ctx, fs)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_sheared_average_assembles_no_permutation(p, monkeypatch):
    # The context's index arrays and every shift's x -> x g are arithmetic in
    # B's (t, a) coordinates; the plain four-term sweep, which assembles
    # permutations, is the oracle.
    rng = np.random.default_rng(p)
    fs = [random_sign_function(borel_context(p).group, rng) for _ in range(4)]
    want = progression_average(borel_context(p).group, fs).exact_value

    def no_permutation(*args):
        raise AssertionError("the sheared kernel assembles no permutation")

    monkeypatch.setattr(GroupTable, "rmul_perm", no_permutation)
    monkeypatch.setattr(GroupTable, "lmul_perm", no_permutation)
    ctx = borel_context.__wrapped__(p)  # uncached: built under the patch too
    assert sheared_average(ctx, fs) == four_term_average(ctx, fs).exact_value == want
    assert smoothing_gap(ctx, fs) >= 0  # the U-smoothing takes B's rows, no permutation


@pytest.mark.parametrize("p", [3, 5, 7])
def test_progression_index_closed_form(p):
    # Every x, g in B and i = 1, 2, 3: the index of x g^i from matrix
    # products is ((s t^i mod p) - 1) p + t^-i (u + c_i lam) mod p, with
    # lam = s t a and c_i = 1 + t^2 + .. + t^(2(i-1)).
    group = borel_subgroup(p)
    checked = 0
    for s, u, t, a in itertools.product(range(1, p), range(p), range(1, p), range(p)):
        point, g, lam = borel_element(p, s, u), borel_element(p, t, a), s * t * a
        for i in (1, 2, 3):
            point = point @ g % p
            c = sum(t ** (2 * k) for k in range(i))
            want = (s * t**i % p - 1) * p + pow(t, -i, p) * (u + c * lam) % p
            assert group.index_of(point) == want
            checked += 1
    assert checked == 3 * group.size**2


def test_sheared_average_budget_boundary(monkeypatch):
    # Every name charges 4 n^2, the products the kernel forms, as the plain
    # 4-term sweep over B does; the old p^2-fold loop charged 4 n^2 p^2.
    p = 5
    ctx = borel_context(p)
    n = ctx.group.size
    fs = [random_sign_function(ctx.group, np.random.default_rng(i)) for i in range(4)]
    want = progression_average(ctx.group, fs).exact_value
    cost = 4 * n * n
    monkeypatch.setenv("PROGMIX_BUDGET", str(cost - 1))
    for fn in (sheared_average, sheared_average_exact, four_term_average):
        with pytest.raises(BudgetExceededError, match="shear-coordinate 4-term average"):
            fn(ctx, fs)
    monkeypatch.setenv("PROGMIX_BUDGET", str(cost))
    assert sheared_average(ctx, fs) == sheared_average_exact(ctx, fs) == want
    assert four_term_average(ctx, fs).exact_value == want


@pytest.mark.parametrize("kind", ["sign", "indicator"])
@pytest.mark.parametrize("p", [11, 13])
def test_sheared_average_exact_at_larger_primes(p, kind):
    ctx = borel_context(p)
    n = ctx.group.size
    rng = np.random.default_rng([p, len(kind)])
    if kind == "sign":
        fs = [random_sign_function(ctx.group, rng) for _ in range(4)]
    else:
        fs = [indicator_function(ctx.group, np.flatnonzero(rng.random(n) < 0.5))
              for _ in range(4)]
    exact = sheared_average(ctx, fs)
    assert isinstance(exact, Fraction) and exact == progression_average(ctx.group, fs).exact_value


def lookup_context_fields(p):
    """The index arrays of `borel_context` as lookups once built them, by
    products and `index_of`; the oracle for its closed forms."""
    group = borel_subgroup(p)
    shears = np.array([[[1, a], [0, 1]] for a in range(p)])
    section = np.zeros(p, dtype=np.int64)
    for t in range(1, p):
        section[t] = group.index_of(np.array([[pow(t, -1, p), 0], [0, t]]))
    return dict(
        shear_mul_index=np.stack([group.lmul_perm(int(g)) for g in group.indices_of(shears)]),
        pi_section=section,
    )


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_context_closed_forms_match_lookups(p):
    ctx = borel_context(p)
    assert ctx.group is borel_subgroup(p)
    for name, want in lookup_context_fields(p).items():
        got = getattr(ctx, name)
        assert got.shape == want.shape and np.array_equal(got, want), name


def test_shear_mul_index_matches_explicit_products():
    for p in (3, 5, 7):
        ctx = borel_context(p)
        for a in range(p):
            sh = np.array([[1, a], [0, 1]], dtype=np.int64)
            prods = np.einsum("ij,njk->nik", sh, ctx.group.mats) % p
            assert ctx.shear_mul_index[a].tolist() == ctx.group.indices_of(prods).tolist()


@pytest.mark.parametrize("kind", ["int", "float", "complex"])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_smoothed_is_the_convolution_bit_for_bit(p, kind):
    # The mean over each row t of B's coordinates, its terms added in the
    # convolution's order, is the convolution with the uniform measure on U.
    ctx = borel_context(p)
    n = ctx.group.size
    rng = np.random.default_rng([p, len(kind)])
    values = {"int": lambda: rng.integers(-5, 6, n), "float": lambda: rng.standard_normal(n),
              "complex": lambda: rng.standard_normal(n) + 1j * rng.standard_normal(n)}[kind]()
    f = GroupFunction(values, ctx.group)
    [got] = smoothed(ctx, [f])
    want = coset_smooth(f, unipotent_subgroup(p))
    assert got.values.dtype == want.values.dtype
    assert np.array_equal(got.values, want.values)


def brute_four_term_sum(group, fs):
    """sum_{x, g} prod_i f_i(x g^i) over all n^2 pairs, x g^i by explicit
    matrix products and lookups, as Python numbers."""
    n = group.size
    xs, gs = np.divmod(np.arange(n * n), n)
    point, terms = group.mats[xs], [fs[0].values[xs].tolist()]
    for f in fs[1:]:
        point = np.einsum("nij,njk->nik", point, group.mats[gs]) % group.p
        terms.append(f.values[group.indices_of(point)].tolist())
    return sum(a * b * c * d for a, b, c, d in zip(*terms))


@pytest.mark.parametrize("kind", ["sign", "indicator", "float"])
@pytest.mark.parametrize("p", [3, 5])
def test_four_term_average_matches_plain_sweep_and_brute_force(p, kind):
    ctx = borel_context(p)
    n = ctx.group.size
    rng = np.random.default_rng([p, len(kind), 4])
    draw = {"sign": lambda: rng.choice([-1, 1], size=n),
            "indicator": lambda: (rng.random(n) < 0.4).astype(np.int64),
            "float": lambda: rng.standard_normal(n)}[kind]
    fs = [GroupFunction(draw(), ctx.group) for _ in range(4)]
    got, plain = four_term_average(ctx, fs), progression_average(ctx.group, fs)
    brute = brute_four_term_sum(ctx.group, fs)
    if kind == "float":
        # the plain sweep and the brute force add the products in other orders
        assert got.product_of_means == plain.product_of_means
        for want in (plain.value, brute / (n * n)):
            assert abs(got.value - want) <= 1e-12
    else:
        assert got == plain
        assert got.exact_value == Fraction(brute, n * n)


def test_smoothing_gap_vanishes_on_coset_constant_inputs():
    ctx = borel_context(5)
    rng = np.random.default_rng(3)
    fs = smoothed(ctx, [GroupFunction(rng.standard_normal(ctx.group.size), ctx.group)
                        for _ in range(4)])
    assert smoothing_gap(ctx, fs) < 1e-12


def test_smoothing_gap_equals_raw_average_when_a_slot_is_coset_mean_zero():
    ctx = borel_context(5)
    rng = np.random.default_rng(4)
    fs = [random_sign_function(ctx.group, rng) for _ in range(3)]
    fs.append(coset_mean_zero_function(ctx, rng))
    raw = four_term_average(ctx, fs).value
    assert abs(smoothing_gap(ctx, fs) - abs(raw)) < 1e-12


def test_smoothing_gap_median_trend():
    medians = {}
    for p in (5, 7, 11):
        ctx = borel_context(p)
        gaps = []
        for trial in range(20):
            rng = np.random.default_rng([1, p, trial])
            fs = [random_sign_function(ctx.group, rng) for _ in range(4)]
            gaps.append(smoothing_gap(ctx, fs))
        medians[p] = float(np.median(gaps))
    assert medians[5] > medians[7] > medians[11]


def test_zero_frequency_mass_nonnegative_and_exact():
    ctx = borel_context(5)
    rng = np.random.default_rng(6)
    for _ in range(3):
        fs = [random_sign_function(ctx.group, rng) for _ in range(3)]
        fs.append(coset_mean_zero_function(ctx, rng))
        exact = zero_frequency_mass(ctx, fs, 3)
        value = zero_frequency_mass(ctx, [GroupFunction(f.values * 1.0, ctx.group) for f in fs], 3)
        assert isinstance(exact, Fraction) and isinstance(value, float)
        assert exact == rolled_zero_frequency_mass(ctx, fs)
        assert exact >= 0 and value >= 0
        assert abs(value - float(exact)) < 1e-10
        assert abs(value - dft_zero_frequency_mass(ctx, fs, 3)) < 1e-10


@pytest.mark.parametrize("p", [5, 7, 11])
def test_zero_frequency_mass_matches_dft_route(p):
    ctx = borel_context(p)
    n = ctx.group.size
    rng = np.random.default_rng([11, p])
    fs = [GroupFunction(rng.standard_normal(n), ctx.group) for _ in range(4)]
    fs[3] = GroupFunction(coset_mean_zero_projection(ctx, fs[3].values), ctx.group)
    cfs = [GroupFunction(rng.standard_normal(n) + 1j * rng.standard_normal(n), ctx.group)
           for _ in range(4)]
    cfs[2] = GroupFunction(coset_mean_zero_projection(ctx, cfs[2].values), ctx.group)
    for inputs, i0 in ((fs, 3), (cfs, 2)):
        got, want = zero_frequency_mass(ctx, inputs, i0), dft_zero_frequency_mass(ctx, inputs, i0)
        assert isinstance(got, float)
        assert got >= 0
        assert abs(got - want) <= 1e-12 * want


def test_zero_frequency_mass_of_coset_constant_inputs():
    ctx = borel_context(5)
    rng = np.random.default_rng(7)
    smooth = smoothed(ctx, [GroupFunction(rng.standard_normal(ctx.group.size), ctx.group)
                            for _ in range(3)])
    zero = GroupFunction(np.zeros(ctx.group.size, dtype=np.int64), ctx.group)
    assert zero_frequency_mass(ctx, smooth + [zero], 3) == 0.0


def test_zero_frequency_mass_requires_coset_mean_zero():
    ctx = borel_context(5)
    rng = np.random.default_rng(8)
    fs = [random_sign_function(ctx.group, rng) for _ in range(4)]
    with pytest.raises(ValueError):
        zero_frequency_mass(ctx, fs, 3)
    with pytest.raises(ValueError):
        zero_frequency_mass(ctx, fs, 2)
    with pytest.raises(ValueError):
        zero_frequency_mass(ctx, fs, 1)


def test_zero_frequency_mass_sees_complex_coset_means():
    ctx = borel_context(5)
    rng = np.random.default_rng(8)
    fs = [random_sign_function(ctx.group, rng) for _ in range(3)]
    # real part mean zero on every shear coset, imaginary part 1 everywhere
    fs.append(GroupFunction(coset_mean_zero_function(ctx, rng).values + 1j, ctx.group))
    with pytest.raises(ValueError, match="mean zero on every shear coset"):
        zero_frequency_mass(ctx, fs, 3)


def test_zero_frequency_mass_budget_boundary(monkeypatch):
    p = 7
    ctx = borel_context(p)
    rng = np.random.default_rng(9)
    fs = [random_sign_function(ctx.group, rng) for _ in range(3)]
    fs.append(coset_mean_zero_function(ctx, rng))
    cost = 3 * (p - 1) * p * p + (p - 1) ** 2 * p
    monkeypatch.setenv("PROGMIX_BUDGET", str(cost - 1))
    with pytest.raises(BudgetExceededError, match="zero-frequency mass"):
        zero_frequency_mass(ctx, fs, 3)
    monkeypatch.setenv("PROGMIX_BUDGET", str(cost))
    assert zero_frequency_mass(ctx, fs, 3) == rolled_zero_frequency_mass(ctx, fs)


def test_zero_frequency_mass_refuses_int64_overflow():
    # One t's sum adds (p - 1) p products A1 A2 A3, each |A_i| <= p max|f_i|^2.
    # +-2^20 inputs on B(F_5) once wrapped to an exact mass of 0.  The
    # largest top with 2500 top^2 <= 2^63 - 1, on f_1, is summed exactly (the
    # mass is quadratic in f_1), and one more is refused.
    p = 5
    ctx = borel_context(p)
    rng = np.random.default_rng(11)
    fs = [random_sign_function(ctx.group, rng) for _ in range(3)]
    fs.append(coset_mean_zero_function(ctx, rng))
    unit = zero_frequency_mass(ctx, fs, 3)
    assert unit > 0
    big = fs[:1] + [GroupFunction(f.values * 2**20, ctx.group) for f in fs[1:]]
    with pytest.raises(ValueError, match="int64 maximum"):
        zero_frequency_mass(ctx, big, 3)
    floats = zero_frequency_mass(ctx, cast(ctx, big, np.float64), 3)
    assert abs(floats - 2**120 * float(unit)) <= 1e-9 * floats
    top = math.isqrt(mixing.INT64_MAX // ((p - 1) * p**4))
    scaled = fs[:]
    scaled[1] = GroupFunction(fs[1].values * top, ctx.group)
    assert zero_frequency_mass(ctx, scaled, 3) == top**2 * unit
    assert zero_frequency_mass(ctx, scaled, 3) == rolled_zero_frequency_mass(ctx, scaled)
    scaled[1] = GroupFunction(fs[1].values * (top + 1), ctx.group)
    with pytest.raises(ValueError, match="int64 maximum"):
        zero_frequency_mass(ctx, scaled, 3)


def test_zero_frequency_mass_median_trend():
    medians = {}
    for p in (5, 7, 11):
        ctx = borel_context(p)
        vals = []
        for trial in range(20):
            rng = np.random.default_rng([3, p, trial])
            fs = [random_sign_function(ctx.group, rng) for _ in range(3)]
            fs.append(coset_mean_zero_function(ctx, rng))
            vals.append(zero_frequency_mass(ctx, fs, 3))
        medians[p] = float(np.median(vals))
    assert medians[5] > medians[7] > medians[11]


def test_sum_product_all_zero_functions():
    assert sum_product_collision_rate(5, [0] * 5, [0] * 5, [0] * 5) == 1


def test_sum_product_constant_eta3_counts_quartic_roots():
    for p in (5, 7, 13):
        roots = sum(1 for t in range(1, p) if (1 + t * t + t**4) % p == 0)
        rate = sum_product_collision_rate(p, [0] * p, [0] * p, [2] * p)
        assert rate == Fraction(roots, p - 1)


def test_sum_product_random_etas_small():
    rng = np.random.default_rng(9)
    p = 13
    for _ in range(20):
        e1, e2 = rng.integers(0, p, size=(2, p))
        e3 = rng.integers(1, p, size=p)
        rate = sum_product_collision_rate(p, e1, e2, e3)
        assert rate <= Fraction(1, 4)


def test_elimination_constants_frozen_values():
    consts = elimination_constants(2, 2)
    assert consts.alpha[0] == 5
    assert consts.alpha[4] == 1025
    assert consts.beta_prime[0] == 9
    assert consts.beta_prime[5] == 12582909
    assert consts.lhs == -1959768581763228064778880
    assert consts.rhs == 69308789034402847137600
    assert consts.lhs < 0 < consts.rhs
    assert consts.lhs != consts.rhs  # the constraint is not a tautology


def test_alpha_shift_identity_j1():
    consts = elimination_constants(2, 2)
    lhs, rhs = alpha_shift_identity(consts, 1)
    assert lhs == rhs == -720


def test_alpha_shift_identity_generic():
    consts = elimination_constants(Fraction(7, 3), Fraction(-5, 2))
    for j in (0, 1, 2):
        lhs, rhs = alpha_shift_identity(consts, j)
        assert lhs == rhs


def test_beta_prime_closed_form():
    consts = elimination_constants(3, 5)
    for j in range(6):
        assert consts.beta_prime[j] == beta_prime_closed_form(consts, j)


def test_elimination_rejects_degenerate_ratio():
    for bad in (0, 1, -1):
        with pytest.raises(ValueError):
            elimination_constants(bad, 2)


def test_conic_parametrisation_hits_the_conic():
    report = conic_analysis(7, 3)
    assert (1, 0) in report.points  # image of u = 0
    assert (0, 0) in report.points
    for x, y in report.points:
        assert (x * x + 3 * y * y - x) % 7 == 0


def test_conic_frozen_instance_p7_k3():
    report = conic_analysis(7, 3)
    assert report.size == 6
    assert report.max_fibre == 1
    assert report.centre_representations == 6
    assert report.max_representations == 6
    assert report.max_representations_off_centre == 2
    assert report.energy == 90
    assert report.energy_reference == 72
    assert report.representation_flag


def test_conic_grid_invariants():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for k in range(2, p):
            report = conic_analysis(p, k)
            assert report.size in (p - 1, p, p + 1)
            assert report.max_fibre <= 2
            assert report.max_representations_off_centre <= 2
            assert report.centre_representations == report.size
            assert report.energy <= 3 * report.size**2


def test_conic_sizes_match_analysis():
    for p in (3, 5, 7, 11, 13):
        assert conic_sizes(p).tolist() == [conic_analysis(p, k).size for k in range(2, p)]


def test_conic_rejects_degenerate_parameters():
    for k in (0, 1, 7, 8):  # 7 and 8 reduce to 0 and 1 mod 7
        with pytest.raises(ValueError):
            conic_analysis(7, k)


def test_difference_spectrum_invariance():
    ctx = borel_context(5)
    rng = np.random.default_rng(10)
    f = GroupFunction(rng.standard_normal(ctx.group.size), ctx.group)
    report = difference_spectrum_invariance(ctx, f, trials=50, seed=1)
    assert report.max_difference < 1e-10
    ctx7 = borel_context(7)
    f7 = GroupFunction(rng.standard_normal(ctx7.group.size), ctx7.group)
    assert difference_spectrum_invariance(ctx7, f7, trials=100, seed=2).max_difference < 1e-10


# Integer inputs on B at p in {3, 5, 7}: +-1 signs, 0/1 indicators and small
# integers.  Each exact value is checked against an independent exact route,
# and the same values cast to float (and complex) against the float routes.
VALUE_KINDS = {
    "sign": st.sampled_from([-1, 1]),
    "indicator": st.integers(0, 1),
    "small": st.integers(-3, 3),
}


@st.composite
def integer_inputs(draw):
    ctx = borel_context(draw(st.sampled_from([3, 5, 7])))
    n = ctx.group.size
    values = VALUE_KINDS[draw(st.sampled_from(sorted(VALUE_KINDS)))]
    fs = [
        GroupFunction(np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=np.int64),
                      ctx.group)
        for _ in range(4)
    ]
    return ctx, fs


def cast(ctx, fs, dtype):
    return [GroupFunction(f.values.astype(dtype), ctx.group) for f in fs]


@settings(max_examples=40, deadline=None)
@given(integer_inputs())
def test_sheared_average_property(inputs):
    ctx, fs = inputs
    exact = sheared_average(ctx, fs)
    assert isinstance(exact, Fraction)
    assert exact == progression_average(ctx.group, fs).exact_value
    value = sheared_average(ctx, cast(ctx, fs, np.float64))
    assert isinstance(value, float)
    assert abs(value - float(exact)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(integer_inputs(), st.sampled_from([2, 3]))
def test_zero_frequency_mass_property(inputs, i0):
    ctx, fs = inputs
    fs[i0] = GroupFunction(coset_mean_zero_projection(ctx, fs[i0].values), ctx.group)
    exact = zero_frequency_mass(ctx, fs, i0)
    assert isinstance(exact, Fraction)
    assert exact >= 0 and exact == rolled_zero_frequency_mass(ctx, fs)
    want = dft_zero_frequency_mass(ctx, fs, i0)
    for dtype in (np.float64, np.complex128):
        value = zero_frequency_mass(ctx, cast(ctx, fs, dtype), i0)
        assert isinstance(value, float) and value >= 0
        # an exact zero comes back from the DFT as rounding noise
        assert abs(value - want) <= 1e-12 * want + 1e-18


# Scaled so that the products and autocorrelations overflow the narrow dtype
# but stay well inside int64.
@pytest.mark.parametrize("dtype, m", [(np.int8, 10), (np.int16, 100), (np.int32, 300)])
def test_narrow_integer_inputs_stay_exact(dtype, m):
    ctx = borel_context(5)
    rng = np.random.default_rng(12)
    fs = [GroupFunction(m * random_sign_function(ctx.group, rng).values, ctx.group)
          for _ in range(3)]
    fs.append(GroupFunction(m * coset_mean_zero_function(ctx, rng).values, ctx.group))
    narrow = cast(ctx, fs, dtype)
    want = progression_average(ctx.group, fs).exact_value
    assert sheared_average(ctx, narrow) == four_term_average(ctx, narrow).exact_value == want
    assert progression_average(ctx.group, narrow).exact_value == want
    assert zero_frequency_mass(ctx, narrow, 3) == rolled_zero_frequency_mass(ctx, fs)


def rational_functions(ctx, qs, rng):
    """numerators / q on B for each q: integer values for q = 1, else float
    values with denominator q; the last is mean zero on every shear coset."""
    out = []
    for i, q in enumerate(qs):
        nums = rng.integers(-q, q + 1, ctx.group.size)
        if i == len(qs) - 1:
            nums = coset_mean_zero_projection(ctx, nums)
        out.append(GroupFunction(nums, ctx.group) if q == 1 else
                   GroupFunction(nums / q, ctx.group, denominator=q))
    return out


class FractionValues:
    """A function's values as Fractions, for the brute-force oracle."""

    def __init__(self, f):
        self.values = np.array([Fraction(int(v), f.denominator) for v in f.numerators], dtype=object)


BOREL_STATISTICS = {
    "four_term_average": lambda ctx, fs: four_term_average(ctx, fs),
    "smoothing_gap": smoothing_gap,
    "sheared_average": sheared_average,
    "sheared_average_exact": sheared_average_exact,
    "zero_frequency_mass": lambda ctx, fs: zero_frequency_mass(ctx, fs, 3),
}


@pytest.mark.parametrize("name", list(BOREL_STATISTICS))
def test_denominated_borel_statistics_match_their_floats(name):
    # The sheared kernel and the autocorrelations read the numerators of
    # rational inputs and divide by Q = 2 * 3 * 5 (Q^2 for the mass, which
    # is quadratic in each input); the same float values without
    # denominators agree within rounding, and the exact results equal the
    # Fraction oracles.
    p = 5
    ctx = borel_context(p)
    n = ctx.group.size
    fs = rational_functions(ctx, (2, 3, 1, 5), np.random.default_rng([p, len(name)]))
    floats = [GroupFunction(f.values.astype(np.float64), ctx.group) for f in fs]
    got, plain = BOREL_STATISTICS[name](ctx, fs), BOREL_STATISTICS[name](ctx, floats)
    value = getattr(got, "value", got)
    assert abs(float(value) - getattr(plain, "value", plain)) <= 1e-15
    if name in ("four_term_average", "sheared_average", "sheared_average_exact"):
        want = Fraction(brute_four_term_sum(ctx.group, [FractionValues(f) for f in fs]), n * n)
        assert getattr(got, "exact_value", got) == want
        assert float(value) == float(want)
    if name == "zero_frequency_mass":
        numerators = [GroupFunction(f.numerators, ctx.group) for f in fs]
        assert got == rolled_zero_frequency_mass(ctx, numerators) / (3 * 1 * 5) ** 2
