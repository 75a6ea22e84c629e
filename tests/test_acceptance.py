"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Seeded trial streams use np.random.default_rng([base, p,
trial]) so results are independent of execution order.
"""

import time

import numpy as np
from progmix import borel as borel_mod
from progmix import measures, mixing, spectral, szemeredi
from progmix.groups import (
    CyclicTable,
    borel_subgroup,
    diagonalisable_set,
    distinct_conjugate_count,
    is_regular_semisimple,
    special_linear_group,
    special_linear_order,
    unipotent_subgroup,
)

TREND_SEED = 1


def announce(num, name, ok, detail="", started=None):
    status = "PASS" if ok else "FAIL"
    elapsed = f" [{time.time() - started:.1f}s]" if started is not None else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status} {detail}{elapsed}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_group_orders():
    t0 = time.time()
    ok = True
    for p in (3, 5, 7, 11, 13):
        table = special_linear_group(2, p)
        ok &= table.size == special_linear_order(2, p) == p * (p * p - 1)
    announce(1, "group orders", ok, "p in {3,5,7,11,13}, zero tolerance", t0)


def test_criterion_02_two_term_factorisation():
    t0 = time.time()
    table = special_linear_group(2, 5)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        fs = [mixing.GroupFunction(rng.standard_normal(table.size), table) for _ in range(2)]
        r = mixing.progression_average(table, fs)
        worst = max(worst, abs(r.value - r.product_of_means))
    announce(2, "two-term factorisation", worst <= 1e-12, f"worst |gap| = {worst:.2e}", t0)


def test_criterion_03_triangle_inequality():
    t0 = time.time()
    violations = 0
    checked = 0
    for p in (3, 5):
        table = special_linear_group(2, p)
        for trial in range(20):
            rng = np.random.default_rng([TREND_SEED, p, trial])
            if trial % 2:
                fs = [mixing.random_sign_function(table, rng) for _ in range(3)]
            else:
                fs = [
                    mixing.indicator_function(
                        table, rng.choice(table.size, size=table.size // 3, replace=False)
                    )
                    for _ in range(3)
                ]
            plain = mixing.progression_average(table, fs)
            star = mixing.progression_deviation(table, fs)
            checked += 1
            # integer-valued inputs make both sides exact rationals
            if star.exact_value < abs(plain.exact_value - plain.exact_product):
                violations += 1
    announce(3, "triangle inequality", violations == 0,
             f"{checked} exact evaluations, {violations} violations", t0)


def test_criterion_04_three_term_deviation_trend():
    t0 = time.time()
    medians = {}
    for p in (5, 7, 11, 13):
        table = special_linear_group(2, p)
        vals = []
        for trial in range(20):
            rng = np.random.default_rng([TREND_SEED, p, trial])
            fs = [mixing.random_sign_function(table, rng) for _ in range(3)]
            vals.append(mixing.progression_deviation(table, fs).value)
        medians[p] = float(np.median(vals))
    monotone = medians[5] > medians[7] > medians[11] > medians[13]
    scaled = {p: p**0.125 * medians[p] for p in medians}
    bounded = all(v <= 2 * scaled[5] for v in scaled.values())
    announce(4, "three-term deviation trend", monotone and bounded,
             f"medians {[round(medians[p], 5) for p in (5, 7, 11, 13)]}", t0)


def test_criterion_05_two_point_mixing_bound():
    t0 = time.time()
    violations = 0
    for p in (3, 5, 7):
        table = special_linear_group(2, p)
        quasi = spectral.classical_sl2_parameter(p)
        for trial in range(100):
            rng = np.random.default_rng([TREND_SEED, p, trial])
            f1 = mixing.random_sign_function(table, rng)
            f2 = mixing.random_sign_function(table, rng)
            if not spectral.check_two_point_mixing(table, f1, f2, quasi).holds:
                violations += 1
    announce(5, "two-point mixing bound", violations == 0,
             f"300 trials, {violations} violations", t0)


def test_criterion_06_spectral_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0
    for n in range(2, 17):
        table = CyclicTable(n)
        mu = rng.random(n)
        worst = max(
            worst,
            abs(spectral.spectral_norm(table, mu) - spectral.cyclic_spectral_oracle(mu)),
        )
    edge_ok = True
    for p in (3, 5):
        table = special_linear_group(2, p)
        point = np.zeros(table.size)
        point[1] = 1.0
        edge_ok &= abs(spectral.spectral_norm(table, point) - 1.0) <= 1e-10
        uniform = np.full(table.size, 1 / table.size)
        edge_ok &= spectral.spectral_norm(table, uniform) <= 1e-10
    announce(6, "spectral oracle equivalence", worst <= 1e-8 and edge_ok,
             f"worst oracle gap {worst:.2e}", t0)


def test_criterion_07_tt_star_identity():
    t0 = time.time()
    table = special_linear_group(2, 3)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        mu = rng.random(table.size)
        mu /= mu.sum()
        worst = max(worst, spectral.tt_star_check(table, mu).relative_difference)
    announce(7, "TT* identity", worst <= 1e-6, f"worst relative gap {worst:.2e}", t0)


def test_criterion_08_class_expansion_trend():
    t0 = time.time()
    report = spectral.class_expansion([3, 5, 7, 11], selector="unipotent")
    ratios = [round(r.ratio, 4) for r in report.rows]
    ok = report.strictly_decreasing and report.fitted_exponent > 0
    announce(8, "class expansion trend", ok,
             f"ratios {ratios}, fitted exponent {report.fitted_exponent:.3f}", t0)


def test_criterion_09_heavy_mass_scan():
    t0 = time.time()
    means = {}
    for p in (3, 5, 7, 11):
        table = special_linear_group(2, p)
        d = (p - 1) / 2 if p > 3 else 1.0
        est = measures.heavy_mass_mixing_bound(table, 4.0, d, samples=50, seed=0)
        means[p] = est.mean_heavy_mass
    slack_ok = all(means[p] <= 5 / p for p in means)
    # the 1/p decay is asymptotic: the sampled mean decreases across the range
    # and monotonically from p = 5 on (the exact p = 3 average sits below the
    # p = 5 one because its heavy threshold 4/24 is so coarse)
    decrease_ok = means[3] > means[11] and means[5] > means[7] > means[11]
    announce(9, "heavy mass scan", slack_ok and decrease_ok,
             f"means {[round(means[p], 4) for p in (3, 5, 7, 11)]}, slack 5/p", t0)


def test_criterion_10_trace_stabilizer_bound():
    t0 = time.time()
    excess = 0
    largest = {}
    for p in (5, 7, 11, 13):
        table = special_linear_group(2, p)
        rng = np.random.default_rng([10, p])
        worst = 0
        for _ in range(20):
            while True:
                b = table.element(int(rng.integers(table.size)))
                if is_regular_semisimple(b):
                    break
            h = table.element(int(rng.integers(table.size)))
            size = measures.trace_stabilizer_set(table, b, h).size
            worst = max(worst, size)
            if size > 4 * p:
                excess += 1
        largest[p] = worst
    announce(10, "trace-stabilizer bound", excess == 0,
             f"max sizes {largest} vs 4p, {excess} flagged", t0)


def test_criterion_11_subgroup_geometry_identities():
    t0 = time.time()
    conj_ok = True
    for p in (3, 5, 7, 11, 13):
        table = special_linear_group(2, p)
        conj_ok &= distinct_conjugate_count(table, borel_subgroup(p)) == p + 1
    avg_ok = True
    for p in (3, 5):
        report = measures.check_conjugate_average_identity(
            special_linear_group(2, p), unipotent_subgroup(p)
        )
        avg_ok &= report.max_abs_difference <= 1e-12
    density_ok = True
    densities = {}
    for p in (7, 11, 13):
        s = diagonalisable_set(p)
        density = s.size / special_linear_group(2, p).size
        densities[p] = round(density, 4)
        density_ok &= 0.5 - 3 / p <= density <= 0.5 + 3 / p
    announce(11, "subgroup geometry identities", conj_ok and avg_ok and density_ok,
             f"conjugate counts p+1, class-average exact, densities {densities}", t0)


def test_criterion_12_sheared_average_identity():
    t0 = time.time()
    worst = 0.0
    for p in (3, 5):
        ctx = borel_mod.borel_context(p)
        for trial in range(10):
            rng = np.random.default_rng([TREND_SEED, p, trial])
            fs = [mixing.random_sign_function(ctx.group, rng) for _ in range(4)]
            plain = mixing.progression_average(ctx.group, fs).value  # the plain sweep over B
            sheared = borel_mod.sheared_average(ctx, fs)
            worst = max(worst, abs(plain - sheared))
    announce(12, "shear-coordinate identity", worst <= 1e-10,
             f"worst |difference| = {worst:.2e} over 20 instances", t0)


def test_criterion_13_smoothing_gap_trend():
    t0 = time.time()
    medians = {}
    for p in (5, 7, 11, 13):
        ctx = borel_mod.borel_context(p)
        vals = []
        for trial in range(20):
            rng = np.random.default_rng([TREND_SEED, p, trial])
            fs = [mixing.random_sign_function(ctx.group, rng) for _ in range(4)]
            vals.append(borel_mod.smoothing_gap(ctx, fs))
        medians[p] = float(np.median(vals))
    ok = medians[5] > medians[7] > medians[11] > medians[13]
    announce(13, "smoothing gap trend", ok,
             f"medians {[round(medians[p], 5) for p in (5, 7, 11, 13)]}", t0)


def test_criterion_14_elimination_constants_lhs_and_alpha():
    t0 = time.time()
    consts = borel_mod.elimination_constants(2, 2)
    lhs_ok = abs(float(consts.lhs) - (-1.96e24)) <= 0.05 * 1.96e24
    al, ar = borel_mod.alpha_shift_identity(consts, 1)
    alpha_ok = al == ar == -720
    announce(14, "elimination reference values (lhs, alpha)", lhs_ok and alpha_ok,
             f"lhs = {float(consts.lhs):.4g}, alpha identity -720 = -720", t0)


def test_criterion_14_elimination_constants_rhs_reference():
    # The quoted reference value for the rhs is 3.61e32, but exact rational
    # evaluation of the two-sided constraint gives 69308789034402847137600
    # (~6.93e22) under every grouping of its factors; the lhs anchor and the
    # non-tautology both hold.  The target is kept as quoted so the
    # discrepancy stays visible instead of being silently patched.
    t0 = time.time()
    consts = borel_mod.elimination_constants(2, 2)
    assert consts.rhs == 69308789034402847137600
    rhs_ok = abs(float(consts.rhs) - 3.61e32) <= 0.05 * 3.61e32
    announce(14, "elimination reference value (rhs)", rhs_ok,
             f"rhs = {float(consts.rhs):.4g} vs quoted 3.61e32", t0)


def test_criterion_15_conic_suite():
    t0 = time.time()
    sizes_ok = fibres_ok = True
    flagged = 0
    off_centre_ok = True
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for k in range(2, p):
            rep = borel_mod.conic_analysis(p, k)
            sizes_ok &= rep.size in (p - 1, p, p + 1)
            fibres_ok &= rep.max_fibre <= 2
            # representation maximum above 2 is flagged, not failed: the
            # centre point (1, 0) always has |C| ordered representations
            if rep.max_representations > 2:
                flagged += 1
                off_centre_ok &= rep.max_representations_off_centre <= 2
            flag_consistent = rep.representation_flag == (rep.max_representations > 2)
            sizes_ok &= flag_consistent
    announce(15, "conic suite", sizes_ok and fibres_ok and off_centre_ok,
             f"sizes in {{p-1,p,p+1}}, fibres <= 2, {flagged} flagged rows "
             f"(all centre-point, off-centre max <= 2)", t0)


def test_criterion_16_pattern_counters():
    t0 = time.time()
    worked = szemeredi.PatternSet.from_tuples(2, 4, [(0, 0), (0, 1), (1, 0)])

    def oracle_corners(pattern):
        from itertools import product

        count = 0
        for a in product(range(pattern.n), repeat=pattern.m):
            for r in range(pattern.n):
                if all(
                    tuple((a[j] + (r if j == i else 0)) % pattern.n for j in range(pattern.m))
                    in pattern.members
                    for i in range(pattern.m)
                ):
                    count += 1
        return count

    corners_ok = szemeredi.count_corners(worked) == oracle_corners(worked) == 5
    lift_ok = True
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(3, 7))
        a = szemeredi.PatternSet.random(1, n, float(rng.uniform(0.2, 0.9)), rng)
        lifted = szemeredi.lift_pattern(a, 1)
        lift_ok &= szemeredi.count_grid(a, 1) >= szemeredi.count_corners(lifted) / n**3
    full = szemeredi.PatternSet.full(2, 4)
    full_ok = szemeredi.count_corners(full) == szemeredi.count_grid(full, 1) == 4**3
    announce(16, "pattern counters", corners_ok and lift_ok and full_ok,
             "worked corner instance = 5 (dual oracle), 25 lifting inequalities", t0)
