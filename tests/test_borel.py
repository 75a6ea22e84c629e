import numpy as np
import pytest
from fractions import Fraction

from progmix.borel import (
    alpha_shift_identity,
    beta_prime_closed_form,
    borel_context,
    conic_analysis,
    coset_means,
    difference_spectrum_invariance,
    elimination_constants,
    four_term_average,
    sheared_average,
    sheared_average_exact,
    smoothing_gap,
    sum_product_collision_rate,
    zero_frequency_mass,
    zero_frequency_mass_exact,
)
from progmix.mixing import (
    GroupFunction,
    coset_smooth,
    constant_function,
    progression_average,
    random_sign_function,
)


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


def test_context_invariants():
    for p in (3, 5, 7):
        ctx = borel_context(p)
        assert ctx.group.size == p * (p - 1)
        assert ctx.unipotent.size == p
        # pi takes value 1 exactly on the shear subgroup
        assert set(np.flatnonzero(ctx.pi_values == 1)) == set(ctx.unipotent_indices)
        for t in range(1, p):
            assert ctx.pi_values[ctx.pi_section[t]] == t
        assert ctx.upper_left[ctx.pi_section[1]] == 1


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
            plain = four_term_average(ctx, fs)
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
        assert sheared_average_exact(ctx, fs) == four_term_average(ctx, fs).exact_value


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
        w = int(ctx.upper_left[gi]) ** 2 % p
        c2 = (1 + w) % p
        c3 = (1 + w + w * w) % p
        t0 = fs[0].values[ctx.shear_mul_index[a_row]]
        t1 = fs[1].values[ctx.shear_mul_index[(a_row + b_row) % p][:, i1]]
        t2 = fs[2].values[ctx.shear_mul_index[(a_row + c2 * b_row) % p][:, i2]]
        t3 = fs[3].values[ctx.shear_mul_index[(a_row + c3 * b_row) % p][:, i3]]
        yield t0 * t1 * t2 * t3


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
    want = sum(float(block.sum(dtype=np.float64)) for block in old_sheared_layers(ctx, fs))
    assert abs(sheared_average(ctx, fs) - want / scale) < 1e-12
    if kind != "float":
        exact = sum(int(block.sum(dtype=np.int64)) for block in old_sheared_layers(ctx, fs))
        assert sheared_average_exact(ctx, fs) == Fraction(exact, scale)


def test_shear_mul_index_matches_explicit_products():
    for p in (3, 5, 7):
        ctx = borel_context(p)
        for a in range(p):
            sh = np.array([[1, a], [0, 1]], dtype=np.int64)
            prods = np.einsum("ij,njk->nik", sh, ctx.group.mats) % p
            assert ctx.shear_mul_index[a].tolist() == ctx.group.indices_of(prods).tolist()


def test_smoothing_gap_vanishes_on_coset_constant_inputs():
    ctx = borel_context(5)
    rng = np.random.default_rng(3)
    fs = [
        coset_smooth(GroupFunction(rng.standard_normal(ctx.group.size), ctx.group), ctx.unipotent)
        for _ in range(4)
    ]
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


def test_coset_means_constant_on_cosets():
    ctx = borel_context(5)
    rng = np.random.default_rng(5)
    f = GroupFunction(rng.standard_normal(ctx.group.size), ctx.group)
    means = coset_means(ctx, f)
    smoothed = coset_smooth(f, ctx.unipotent)
    assert np.max(np.abs(means - smoothed.values)) < 1e-12


def test_zero_frequency_mass_nonnegative_and_exact():
    ctx = borel_context(5)
    rng = np.random.default_rng(6)
    for _ in range(3):
        fs = [random_sign_function(ctx.group, rng) for _ in range(3)]
        fs.append(coset_mean_zero_function(ctx, rng))
        value = zero_frequency_mass(ctx, fs, 3)
        exact = zero_frequency_mass_exact(ctx, fs, 3)
        assert value >= 0
        assert exact >= 0
        assert abs(value - float(exact)) < 1e-10


def test_zero_frequency_mass_of_coset_constant_inputs():
    ctx = borel_context(5)
    rng = np.random.default_rng(7)
    smooth = [
        coset_smooth(GroupFunction(rng.standard_normal(ctx.group.size), ctx.group), ctx.unipotent)
        for _ in range(3)
    ]
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
