import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from progmix import spectral
from progmix.budget import BudgetExceededError
from progmix.cli import BIG_PRIMES
from progmix.groups import (
    CyclicTable,
    borel_subgroup,
    conjugacy_classes,
    special_linear_group,
)
from progmix.mixing import GroupFunction, constant_function, delta_function, random_sign_function
from progmix.spectral import (
    QuasirandomnessParameter,
    check_bnp_inequality,
    check_spectral_bounds,
    check_two_point_mixing,
    class_expansion,
    class_function_norm,
    classical_sl2_parameter,
    cyclic_spectral_oracle,
    convolution_matrix,
    spectral_norm,
    tt_star_check,
)


def test_point_mass_has_norm_one():
    for p in (3, 5):
        table = special_linear_group(2, p)
        mu = np.zeros(table.size)
        mu[7] = 1.0
        assert abs(spectral_norm(table, mu) - 1.0) < 1e-10


def test_uniform_probability_has_norm_zero():
    for p in (3, 5):
        table = special_linear_group(2, p)
        mu = np.full(table.size, 1 / table.size)
        assert spectral_norm(table, mu) < 1e-10


def test_cyclic_oracle_point_mass():
    z4 = CyclicTable(4)
    mu = np.zeros(4)
    mu[1] = 1.0
    assert abs(spectral_norm(z4, mu) - 1.0) < 1e-10
    assert abs(cyclic_spectral_oracle(mu) - 1.0) < 1e-12


def test_cyclic_oracle_equivalence():
    rng = np.random.default_rng(0)
    for n in range(2, 17):
        table = CyclicTable(n)
        mu = rng.random(n)
        assert abs(spectral_norm(table, mu) - cyclic_spectral_oracle(mu)) < 1e-8


def test_svd_size_limit():
    with pytest.raises(ValueError):
        spectral_norm(CyclicTable(6000), np.zeros(6000))
    sl3 = special_linear_group(3, 3)  # 5616 elements, no U-block route
    with pytest.raises(ValueError, match="full SVD limit"):
        spectral_norm(sl3, np.zeros(sl3.size))


def test_seminorm_properties():
    rng = np.random.default_rng(2)
    table = special_linear_group(2, 3)
    for _ in range(10):
        mu = rng.standard_normal(table.size)
        nu = rng.standard_normal(table.size)
        n_mu = spectral_norm(table, mu)
        n_nu = spectral_norm(table, nu)
        assert abs(spectral_norm(table, 2.5 * mu) - 2.5 * n_mu) < 1e-8
        assert spectral_norm(table, mu + nu) <= n_mu + n_nu + 1e-8


def test_convolution_matrix_is_right_convolution():
    from progmix.mixing import convolve

    table = special_linear_group(2, 3)
    rng = np.random.default_rng(3)
    mu = rng.random(table.size)
    f = rng.standard_normal(table.size)
    direct = convolve(GroupFunction(f, table), GroupFunction(mu, table)).values
    assert np.allclose(convolution_matrix(table, mu) @ f, direct)


def test_convolution_matrix_budget_boundary(monkeypatch):
    table = special_linear_group(2, 3)
    mu = np.ones(table.size)
    monkeypatch.setenv("PROGMIX_BUDGET", str(table.size**2 - 1))
    with pytest.raises(BudgetExceededError, match="convolution matrix"):
        convolution_matrix(table, mu)
    monkeypatch.setenv("PROGMIX_BUDGET", str(table.size**2))
    assert convolution_matrix(table, mu).shape == (table.size, table.size)


def test_quasirandomness_parameter_validation():
    with pytest.raises(ValueError):
        QuasirandomnessParameter(0.5)
    assert classical_sl2_parameter(7).D == 3
    assert classical_sl2_parameter(7).provenance == "classical_formula"


def test_spectral_bounds_point_mass_l1_tight():
    table = special_linear_group(2, 5)
    mu = np.zeros(table.size)
    mu[0] = 1.0
    report = check_spectral_bounds(table, mu, classical_sl2_parameter(5))
    assert report.holds
    assert abs(report.norm - report.l1_bound) < 1e-9


def test_spectral_bounds_uniform():
    table = special_linear_group(2, 5)
    mu = np.full(table.size, 1 / table.size)
    report = check_spectral_bounds(table, mu, classical_sl2_parameter(5))
    assert report.holds
    assert report.norm < 1e-10


def test_spectral_bounds_random_probability_measures():
    table = special_linear_group(2, 5)
    quasi = classical_sl2_parameter(5)
    rng = np.random.default_rng(4)
    for _ in range(100):
        mu = rng.random(table.size)
        mu /= mu.sum()
        assert check_spectral_bounds(table, mu, quasi, c0=4.0).holds


def test_bnp_inequality_examples():
    table = special_linear_group(2, 5)
    quasi = classical_sl2_parameter(5)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(table.size)
    f1 = GroupFunction(v - v.mean(), table)
    ones = constant_function(table)
    rep = check_bnp_inequality(table, f1, ones, quasi)
    assert rep.holds and rep.lhs < 1e-10

    centred = delta_function(table, 3).values - 1 / table.size
    f = GroupFunction(centred, table)
    assert check_bnp_inequality(table, f, f, quasi).holds


def test_bnp_inequality_random_mean_zero_pair():
    table = special_linear_group(2, 7)
    quasi = QuasirandomnessParameter(3.0)
    rng = np.random.default_rng(6)
    for _ in range(10):
        a, b = rng.standard_normal((2, table.size))
        rep = check_bnp_inequality(
            table, GroupFunction(a - a.mean(), table), GroupFunction(b - b.mean(), table), quasi
        )
        assert rep.holds


def test_bnp_requires_a_mean_zero_factor():
    table = special_linear_group(2, 3)
    with pytest.raises(ValueError):
        check_bnp_inequality(table, constant_function(table), constant_function(table),
                             classical_sl2_parameter(3))


def test_two_point_mixing_constant_case():
    table = special_linear_group(2, 5)
    rep = check_two_point_mixing(table, constant_function(table), constant_function(table),
                                 classical_sl2_parameter(5))
    assert rep.lhs == 0


def test_two_point_mixing_borel_coset_function():
    from progmix.groups import borel_subgroup

    table = special_linear_group(2, 5)
    b_idx = table.indices_of(borel_subgroup(5).mats)
    values = np.full(table.size, -len(b_idx) / table.size)
    values[b_idx] += 1.0
    f = GroupFunction(values, table)
    rep = check_two_point_mixing(table, f, f, classical_sl2_parameter(5))
    assert rep.holds
    assert rep.margin >= 0


def test_two_point_mixing_random_signs():
    rng = np.random.default_rng(7)
    for p in (3, 5, 7):
        table = special_linear_group(2, p)
        quasi = classical_sl2_parameter(p)
        for _ in range(50):
            f1 = random_sign_function(table, rng)
            f2 = random_sign_function(table, rng)
            assert check_two_point_mixing(table, f1, f2, quasi).holds


def test_tt_star_point_mass_and_uniform():
    table = special_linear_group(2, 3)
    mu = np.zeros(table.size)
    mu[5] = 1.0
    rep = tt_star_check(table, mu)
    assert abs(rep.composed_norm - 1.0) < 1e-9 and abs(rep.norm_squared - 1.0) < 1e-9
    uniform = np.full(table.size, 1 / table.size)
    rep = tt_star_check(table, uniform)
    assert rep.composed_norm < 1e-10 and rep.norm_squared < 1e-10


def test_tt_star_random_measures():
    table = special_linear_group(2, 3)
    rng = np.random.default_rng(8)
    for _ in range(10):
        mu = rng.random(table.size)
        mu /= mu.sum()
        assert tt_star_check(table, mu).relative_difference < 1e-6


def test_class_expansion_rejects_central_point():
    with pytest.raises(ValueError):
        class_expansion([5], selector="split_torus", torus_eigenvalue=1)
    with pytest.raises(ValueError):
        class_expansion([5], selector="split_torus", torus_eigenvalue=4)  # -1 mod 5
    with pytest.raises(ValueError):
        class_expansion([3], selector="split_torus")  # no split torus mod 3


def test_class_expansion_ratios_bounded_and_decreasing():
    report = class_expansion([3, 5, 7])
    for row in report.rows:
        assert row.ratio <= 1 + 1e-12
        assert row.class_size * 2 * row.p == row.group_order  # unipotent centraliser 2p
    assert report.strictly_decreasing
    assert report.fitted_exponent > 0


def test_class_expansion_split_torus():
    report = class_expansion([5, 7], selector="split_torus")
    for row in report.rows:
        assert row.ratio <= 1 + 1e-12
    assert report.rows[0].class_size == 30  # |G| / (p - 1) at p = 5


def full_svd_norm(table, mu):
    """The reduced norm from the SVD of the n x n convolution matrix."""
    mat = convolution_matrix(table, mu)
    mat -= mat.mean(axis=1, keepdims=True)
    return np.linalg.svd(mat, compute_uv=False)[0]


def assert_matches_svd(table, mu):
    svd = full_svd_norm(table, mu)
    assert abs(class_function_norm(table, mu) - svd) <= 1e-12 * svd


def test_class_function_norm_every_class_indicator():
    for p in (3, 5, 7):
        table = special_linear_group(2, p)
        labels = conjugacy_classes(table)
        for label in range(labels.max() + 1):
            assert_matches_svd(table, (labels == label).astype(np.float64))


def test_class_function_norm_random_class_functions():
    rng = np.random.default_rng(9)
    for table in (special_linear_group(2, 3), special_linear_group(2, 5), borel_subgroup(5)):
        labels = conjugacy_classes(table)
        k = labels.max() + 1
        for _ in range(5):
            assert_matches_svd(table, rng.standard_normal(k)[labels])
            values = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            assert_matches_svd(table, values[labels])


def test_class_function_norm_central_point_masses():
    for p in (3, 5, 7):
        table = special_linear_group(2, p)
        for m in (1, p - 1):  # I and -I
            mu = np.zeros(table.size)
            mu[table.index_of(m * np.eye(2, dtype=np.int64))] = 1.0
            assert abs(class_function_norm(table, mu) - 1.0) <= 1e-12


def test_class_function_norm_rejects_non_class_function():
    table = special_linear_group(2, 5)
    mu = np.zeros(table.size)
    mu[table.index_of(np.array([[1, 1], [0, 1]]))] = 1.0
    with pytest.raises(ValueError):
        class_function_norm(table, mu)


def test_class_expansion_unipotent_closed_form():
    # |C| |chi(u)| / chi(1) over the SL_2(F_p) character table peaks at the two
    # characters of degree (p - 1) / 2, where chi(u) = (-1 +- sqrt(+-p)) / 2 with
    # the sign of p that makes +-p = 1 mod 4; |C| = (p^2 - 1) / 2.
    for row in class_expansion(BIG_PRIMES).rows:
        p = row.p
        if p % 4 == 1:
            expected = (p + 1) * (1 + np.sqrt(p)) / 2
        else:
            expected = (p + 1) ** 1.5 / 2
        assert abs(row.norm - expected) <= 1e-12 * expected


def test_class_expansion_split_torus_closed_form():
    # |C| = p (p + 1); the peak is 2 |C| / (p + 1) at a principal series character.
    for row in class_expansion(BIG_PRIMES, selector="split_torus").rows:
        assert abs(row.norm - 2 * row.p) <= 1e-12 * 2 * row.p


# The U-isotypic block route of spectral_norm on full SL_2(F_p) and Borel
# tables, against the full SVD, the class algebra and closed forms.


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
def test_isotypic_norm_matches_full_svd_property(p, borel, complex_mu, seed):
    table = borel_subgroup(p) if borel else special_linear_group(2, p)
    rng = np.random.default_rng(seed)
    mu = rng.standard_normal(table.size)
    if complex_mu:
        mu = mu + 1j * rng.standard_normal(table.size)
    svd = full_svd_norm(table, mu)
    assert abs(spectral_norm(table, mu) - svd) <= 1e-12 * svd


@pytest.mark.parametrize("borel", [False, True])
@pytest.mark.parametrize("p", [5, 7])
def test_isotypic_norm_real_psi0_block_matches_complex(p, borel):
    # Real mu takes the psi_0 block's SVD in float64; the same mu as a complex
    # array takes the complex SVD of all three blocks.
    table = borel_subgroup(p) if borel else special_linear_group(2, p)
    rng = np.random.default_rng([p, borel])
    for mu in (rng.standard_normal(table.size), (rng.random(table.size) < 0.3) * 1.0):
        real, complex_ = spectral_norm(table, mu), spectral_norm(table, mu + 0j)
        assert abs(real - complex_) <= 1e-12 * complex_


@pytest.mark.parametrize("p", [11, 13])
def test_isotypic_norm_matches_class_algebra_on_every_class(p):
    table = special_linear_group(2, p)
    labels = conjugacy_classes(table)
    for label in range(labels.max() + 1):
        ind = (labels == label).astype(np.float64)
        expected = class_function_norm(table, ind)
        assert abs(spectral_norm(table, ind) - expected) <= 1e-12 * expected


def test_isotypic_norm_closed_forms_p13():
    # The closed forms of test_class_expansion_*_closed_form, for p = 13 = 1 mod 4.
    p = 13
    table = special_linear_group(2, p)
    labels = conjugacy_classes(table)
    for mat, expected in (([[1, 1], [0, 1]], (p + 1) * (1 + np.sqrt(p)) / 2),
                          ([[2, 0], [0, 7]], 2 * p)):
        ind = (labels == labels[table.index_of(np.array(mat))]).astype(np.float64)
        assert abs(spectral_norm(table, ind) - expected) <= 1e-12 * expected


@pytest.mark.parametrize("table", [special_linear_group(2, 5), borel_subgroup(7)],
                         ids=["sl2_5", "borel_7"])
def test_isotypic_norm_budget_boundary(table, monkeypatch):
    mu = np.ones(table.size)
    columns = table.size // table.p
    monkeypatch.setenv("PROGMIX_BUDGET", str(columns * table.size - 1))
    with pytest.raises(BudgetExceededError, match="U-isotypic"):
        spectral_norm(table, mu)
    monkeypatch.setenv("PROGMIX_BUDGET", str(columns * table.size))
    assert spectral_norm(table, mu) < 1e-10


@pytest.mark.parametrize("table", [special_linear_group(2, 5), borel_subgroup(7)],
                         ids=["sl2_5", "borel_7"])
def test_isotypic_route_builds_no_convolution_matrix(table, monkeypatch):
    def refuse(*args):
        raise AssertionError("convolution_matrix was built")

    monkeypatch.setattr(spectral, "convolution_matrix", refuse)
    mu = np.random.default_rng(10).random(table.size)
    mu /= mu.sum()
    assert 0 < spectral_norm(table, mu) < 1
    assert check_spectral_bounds(table, mu, QuasirandomnessParameter(1.0)).holds
    assert tt_star_check(table, mu).relative_difference < 1e-9


def test_isotypic_norm_memory_stays_below_the_matrix():
    table = special_linear_group(2, 13)
    mu = np.random.default_rng(11).random(table.size)
    spectral_norm(table, mu)  # warm the table caches
    tracemalloc.start()
    try:
        spectral_norm(table, mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table.size**2 * 8 / 10  # the n x n float matrix would be 38 MB


@pytest.mark.parametrize("scale", [-1.0, 1j], ids=["minus_delta", "i_delta"])
def test_split_bound_counts_the_modulus_of_heavy_atoms(scale):
    table = special_linear_group(2, 11)
    mu = np.zeros(table.size, dtype=complex if isinstance(scale, complex) else float)
    mu[table.index_of(np.array([[1, 1], [0, 1]]))] = scale
    report = check_spectral_bounds(table, mu, classical_sl2_parameter(11))
    assert abs(report.norm - 1.0) <= 1e-12
    assert report.split_bound == pytest.approx(4.0 * 5**-0.5 + 1.0)
    assert report.holds
