import csv
import io
import json
import re

import numpy as np
import pytest

from progmix import mixing
from progmix.cli import _make_functions, _rng, main
from progmix.fields import is_square_mod
from progmix.groups import (
    GroupTable,
    borel_subgroup,
    centralizer,
    diagonalisable_set,
    special_linear_group,
    trace_values,
)
from progmix.report import COLUMNS, ExperimentReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert tuple(rows[0]) == COLUMNS
    return rows[1:]


def test_mixing3_csv_shape_and_determinism(capsys):
    args = ("mixing3", "--primes", "3,5", "--functions", "random-sign",
            "--samples", "exact", "--seed", "1")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2  # byte-identical for fixed flags and seed
    rows = parse_csv(out1)
    assert {r[4] for r in rows} == {
        "progression_average_3",
        "product_of_means",
        "progression_deviation_3",
    }
    assert {r[1] for r in rows} == {"3", "5"}
    assert all(r[7] == "exact" and r[8] == "1" for r in rows)


def test_mixing3_deviation_decreases_across_primes(capsys):
    code, out, _ = run_cli(capsys, "mixing3", "--primes", "3,5,7",
                           "--functions", "random-sign", "--samples", "exact",
                           "--seed", "1")
    assert code == 0
    devs = [float(r[5]) for r in parse_csv(out) if r[4] == "progression_deviation_3"]
    assert devs == sorted(devs, reverse=True)


def test_mixing3_d3_monte_carlo(capsys):
    code, out, _ = run_cli(capsys, "mixing3", "--primes", "3", "--d", "3",
                           "--samples", "400")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0][3] == "5616"  # |SL_3(F_3)|


def test_mixing3_monte_carlo_mode(capsys):
    code, out, _ = run_cli(capsys, "mixing3", "--primes", "3", "--samples", "500")
    assert code == 0
    rows = parse_csv(out)
    assert all(r[7] == "500" for r in rows)


def test_szemeredi_worked_example(capsys):
    code, out, _ = run_cli(capsys, "szemeredi", "--m", "2", "--n", "4",
                           "--set", "0,0;0,1;1,0")
    assert code == 0
    values = {r[4]: float(r[5]) for r in parse_csv(out)}
    assert values["corner_count"] == 5
    assert values["grid_count_k1"] == 3


def test_elim_constants_json(capsys):
    code, out, _ = run_cli(capsys, "elim-constants", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    by_stat = {r["statistic"]: r for r in rows}
    lhs = by_stat["constraint_lhs"]
    assert abs(lhs["value"] - (-1.959768581763228e24)) < 1e10
    assert lhs["bound"] == -1.96e24
    assert by_stat["alpha_identity_j1_difference"]["value"] == 0.0


def test_conic_rows_include_flagged_data(capsys):
    code, out, _ = run_cli(capsys, "conic", "--primes", "5", "--k", "2")
    assert code == 0
    rows = parse_csv(out)
    reps = [r for r in rows if r[4].startswith("conic_max_representations_k")]
    assert len(reps) == 1
    value, bound = float(reps[0][5]), float(reps[0][6])
    assert value > bound  # flagged in the data, still exit 0


def test_mu_scan_bounds_column(capsys):
    code, out, _ = run_cli(capsys, "mu-scan", "--primes", "3,5", "--samples", "5")
    assert code == 0
    rows = [r for r in parse_csv(out) if r[4] == "mean_heavy_mass"]
    assert [float(r[6]) for r in rows] == [5 / 3, 1.0]


def test_mu_scan_refuses_exact_samples(capsys):
    code, out, err = run_cli(capsys, "mu-scan", "--primes", "3", "--samples", "exact")
    assert code == 2 and out == ""
    assert "no exact route" in err and "all n^2 pairs (b, h)" in err


def test_mu_scan_defaults_to_50_samples(capsys):
    code, default, _ = run_cli(capsys, "mu-scan", "--primes", "3,5")
    assert code == 0
    assert {r[7] for r in parse_csv(default)} == {"50"}
    assert run_cli(capsys, "mu-scan", "--primes", "3,5", "--samples", "50")[1] == default


def test_varieties_trace_counts(capsys):
    code, out, _ = run_cli(capsys, "varieties", "--primes", "5")
    assert code == 0
    values = {r[4]: (float(r[5]), float(r[6])) for r in parse_csv(out)}
    assert values["trace_two_count"] == (25.0, 25.0)
    assert values["trace_minus_two_count"] == (25.0, 25.0)


def element_loop_centralizer_rows(p):
    """The split and non-split centralizer rows of `varieties` as its
    per-element loop once built them: the first element off trace +-2 with a
    nonzero square discriminant, and the first with a non-square one."""
    table = special_linear_group(2, p)
    tr = trace_values(table)
    found = {}
    for i in range(table.size):
        t = int(tr[i])
        if t in (2, p - 2):
            continue
        disc = (t * t - 4) % p
        kind = "split" if is_square_mod(disc, p) and disc != 0 else "nonsplit"
        found.setdefault(kind, centralizer(table, table.mats[i]).size)
        if len(found) == 2:
            break
    report = ExperimentReport()
    for kind in ("split", "nonsplit"):
        if kind in found:
            report.add("varieties", f"{kind}_centralizer_size", found[kind], p=p, d=2,
                       group_order=table.size, bound=p + 2 * np.sqrt(p) + 1, seed=0)
    return report.render("csv").splitlines()[1:]


def test_varieties_big_grid_matches_the_element_loop(capsys):
    primes = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    code, out, _ = run_cli(capsys, "varieties", "--big", "--primes", ",".join(map(str, primes)))
    assert code == 0
    got = [line for line in out.splitlines() if "_centralizer_size," in line]
    want = [line for p in primes for line in element_loop_centralizer_rows(p)]
    assert got == want  # byte for byte
    assert len(want) == 2 * len(primes) - 1  # SL_2(F_3) has no split regular element


def test_spectral_class_rows(capsys):
    code, out, _ = run_cli(capsys, "spectral-class", "--primes", "3,5")
    assert code == 0
    rows = parse_csv(out)
    ratios = [float(r[5]) for r in rows if r[4] == "class_norm_ratio"]
    assert len(ratios) == 2 and ratios[0] > ratios[1]


def test_spectral_class_big_grid(capsys):
    code, out, _ = run_cli(capsys, "spectral-class", "--big", "--primes", "17,19")
    assert code == 0
    assert len(parse_csv(out)) == 5


def test_borel4_and_mixing4_run(capsys):
    assert run_cli(capsys, "borel4", "--primes", "3")[0] == 0
    assert run_cli(capsys, "mixing4-diag", "--primes", "3")[0] == 0


def test_non_prime_is_config_error(capsys):
    code, _, err = run_cli(capsys, "mixing3", "--primes", "9")
    assert code == 2
    assert "odd prime" in err


def test_large_prime_requires_big_flag(capsys):
    assert run_cli(capsys, "mixing3", "--primes", "17")[0] == 2
    code, out, err = run_cli(capsys, "conic", "--primes", "17", "--big", "--k", "3")
    assert code == 0
    assert "warning" in err
    assert run_cli(capsys, "conic", "--primes", "37", "--big", "--k", "3")[0] == 2


def test_budget_exceeded_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("PROGMIX_BUDGET", "10")
    from progmix.groups import special_linear_group

    special_linear_group.cache_clear()
    try:
        code, _, err = run_cli(capsys, "mixing3", "--primes", "5")
        assert code == 3
        assert "budget" in err
    finally:
        special_linear_group.cache_clear()


def test_restricted_budget_exceeded_exit_code(capsys, monkeypatch):
    table, shift_set = special_linear_group(2, 3), diagonalisable_set(3)
    cost = 4 * shift_set.size * table.size
    monkeypatch.setenv("PROGMIX_BUDGET", str(cost - 1))
    code, _, err = run_cli(capsys, "mixing4-diag", "--primes", "3")
    assert code == 3
    assert "restricted 4-term deviation" in err
    monkeypatch.setenv("PROGMIX_BUDGET", str(cost))
    assert run_cli(capsys, "mixing4-diag", "--primes", "3")[0] == 0


def count_rmul_perm(monkeypatch):
    calls = []
    original = GroupTable.rmul_perm

    def counted(self, gi):
        calls.append(gi)
        return original(self, gi)

    monkeypatch.setattr(GroupTable, "rmul_perm", counted)
    return calls


def test_exact_mixing3_sweeps_each_prime_once(capsys, monkeypatch):
    calls = count_rmul_perm(monkeypatch)
    sweeps = []
    bruhat_sums = mixing._bruhat_sums
    monkeypatch.setattr(mixing, "_bruhat_sums",
                        lambda table, *args: sweeps.append(table.p) or bruhat_sums(table, *args))
    assert run_cli(capsys, "mixing3", "--primes", "3,5", "--samples", "exact")[0] == 0
    # One sweep per prime over the Bruhat layout, whose row takes assemble no
    # permutation on any table, the full SL_2(F_p) or its Borel subgroup.
    assert sweeps == [3, 5]
    assert calls == []


def test_mixing4_diag_sweeps_each_shift_once(capsys, monkeypatch):
    calls = count_rmul_perm(monkeypatch)
    for functions in ("random-sign", "coset-borel", "indicator:0.3"):
        argv = ["mixing4-diag", "--primes", "3,5", "--functions", functions]
        assert run_cli(capsys, *argv)[0] == 0
    # Every 4-term SL_2 sweep is row takes over the Bruhat layout, for
    # integer and float inputs alike, so no permutation is assembled.
    assert calls == []


@pytest.mark.parametrize("samples", ["exact", "2000"])
@pytest.mark.parametrize("p", [5, 7])
def test_float_mixing3_assembles_only_coset_representatives(capsys, monkeypatch, p, samples):
    calls = count_rmul_perm(monkeypatch)
    for functions in ("coset-borel", "random-sign", "indicator:0.3"):
        argv = ["mixing3", "--primes", str(p), "--samples", samples, "--functions", functions]
        assert run_cli(capsys, *argv)[0] == 0
    # Float rows take the same Bruhat row takes as integer ones, and the
    # sampled average uses paired lookups, so no permutation is assembled.
    assert calls == []


def test_sampled_mixing3_d3_sweeps_over_parabolic_cosets(capsys, monkeypatch):
    calls = count_rmul_perm(monkeypatch)
    argv = ["mixing3", "--d", "3", "--primes", "3", "--samples", "1000"]
    code, split, _ = run_cli(capsys, *argv)
    assert code == 0
    # The sampled deviation sweeps 1000 shifts drawn with seed [0, p, 2] as
    # row takes on the grid of the 13 cosets of the bottom-row stabiliser,
    # and the sampled average uses paired lookups: no permutation is
    # assembled.  One unit below the split guard 13 n, the same rows come
    # from one permutation per distinct drawn shift.
    assert calls == []
    table = special_linear_group(3, 3)
    monkeypatch.setenv("PROGMIX_BUDGET", str(13 * table.size - 1))
    code, unsplit, _ = run_cli(capsys, *argv)
    assert code == 0 and unsplit == split
    shifts = np.unique(np.random.default_rng([0, 3, 2]).integers(0, table.size, size=1000))
    assert sorted(calls) == shifts.tolist()


def test_borel4_sweeps_twice_per_prime(capsys, monkeypatch):
    calls = count_rmul_perm(monkeypatch)
    assert run_cli(capsys, "borel4", "--primes", "3,5")[0] == 0
    # The raw and the U-smoothed four-term averages are sums of the shear-
    # coordinate kernel, and the U-smoothing averages over the rows of B's
    # (t, a) coordinates: none of them assembles a permutation.
    assert calls == []


def test_coset_borel_functions_match_explicit_cosets():
    for p in (3, 5, 7):
        table = special_linear_group(2, p)
        b = borel_subgroup(p)
        got = _make_functions("coset-borel", table, _rng(4, p, 0), 3)
        rng = _rng(4, p, 0)
        for f in got:
            g = int(rng.integers(table.size))
            coset = table.indices_of(np.einsum("ij,njk->nik", table.mats[g], b.mats) % p)
            want = np.full(table.size, -b.size / table.size)
            want[coset] += 1.0
            assert f.values.tolist() == want.tolist()
            # 1_C - 1 / (p + 1): the numerators p on C and -1 elsewhere over p + 1
            assert f.denominator == p + 1
            numerators = np.full(table.size, -1)
            numerators[coset] = p
            assert f.numerators.tolist() == numerators.tolist()


def test_sampled_coset_borel_mixing3_sweeps_integer_numerators(capsys, monkeypatch):
    # The sampled deviation of the coset-borel functions takes the Bruhat
    # route once per prime with the integer numerators p and -1, summed in
    # an integer dtype; the float values are read by the sampled average only.
    sweeps = []
    bruhat_sums = mixing._bruhat_sums

    def record(table, vals, acc, shifts):
        sweeps.append((table.p, sorted({int(v) for f in vals for v in np.unique(f)}),
                       all(np.issubdtype(f.dtype, np.integer) for f in vals),
                       np.issubdtype(acc, np.integer)))
        return bruhat_sums(table, vals, acc, shifts)

    monkeypatch.setattr(mixing, "_bruhat_sums", record)
    argv = ["mixing3", "--primes", "3,5,7,11,13", "--samples", "2000", "--functions", "coset-borel"]
    assert run_cli(capsys, *argv)[0] == 0
    assert sweeps == [(p, [-1, p], True, True) for p in (3, 5, 7, 11, 13)]


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mixing3", "--no-such-flag"])
    assert exc.value.code == 2


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_samples_value(capsys):
    code, _, err = run_cli(capsys, "mixing3", "--primes", "3", "--samples", "many")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["mixing3", "--primes", "3,x"], "--primes must be a comma list of integers"),
    (["mixing3", "--primes", "3", "--functions", "indicator:1.5"],
     r"indicator density must lie in \[0, 1\]"),
    (["mixing3", "--primes", "3", "--functions", "indicator:x"], "bad indicator density"),
    (["mixing3", "--primes", "3", "--functions", "gaussian"], "unknown function generator"),
    (["mixing3", "--primes", "3", "--samples", "0"], "--samples must be positive"),
    (["mixing3", "--primes", ",,"], "--primes names no prime: ',,'"),
    (["mixing3", "--d", "3", "--primes", "3", "--functions", "coset-borel", "--samples", "10"],
     "coset-borel functions need the full SL_2 table"),
    (["szemeredi", "--m", "2", "--n", "4", "--set", "0,0;1,0,1"], "does not have 2 coordinates"),
    (["szemeredi", "--m", "2", "--n", "4", "--set", " ; "], "--set is empty"),
    (["conic", "--primes", "5", "--k", "1"], "conic parameter k=1 is degenerate mod 5"),
], ids=["primes-token", "indicator-density", "indicator-text", "generator", "samples-0",
        "primes-empty", "coset-borel-sl3", "set-arity", "set-empty", "conic-k-1"])
def test_cli_refusals_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert re.search(message, err) and err.startswith("configuration error: ")


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, "szemeredi", "--m", "1", "--n", "4", "--set", "0;1",
                           "--out", str(out_path))
    assert code == 0
    assert out == ""
    rows = parse_csv(out_path.read_text())
    assert rows


def test_indicator_function_generator(capsys):
    code, out, _ = run_cli(capsys, "mixing3", "--primes", "3",
                           "--functions", "indicator:0.4")
    assert code == 0
    avg = [float(r[5]) for r in parse_csv(out) if r[4] == "progression_average_3"]
    assert 0 <= avg[0] <= 1


def test_coset_borel_function_generator(capsys):
    code, out, _ = run_cli(capsys, "mixing3", "--primes", "5",
                           "--functions", "coset-borel")
    assert code == 0
    prods = [float(r[5]) for r in parse_csv(out) if r[4] == "product_of_means"]
    assert abs(prods[0]) < 1e-12  # coset functions are mean-zero


def test_report_rendering_roundtrip():
    report = ExperimentReport()
    report.add("demo", "stat", 0.5, p=3, bound=None, samples=7, seed=2)
    rows = json.loads(report.to_json())
    assert rows[0]["bound"] is None
    assert rows[0]["samples"] == 7
    with pytest.raises(ValueError):
        report.render("xml")


def test_report_golden_bytes():
    report = ExperimentReport()
    report.add("demo", "count", 12, p=5, d=2, group_order=120, seed=3)
    report.add("demo", "ratio", 1 / 3, p=7, d=2, group_order=336, bound=2, samples=50, seed=4)
    report.add("demo, quoted", "tiny", -2.5e-17, bound=0.1)
    assert report.render("csv") == (
        "experiment,p,d,group_order,statistic,value,bound,samples,seed\n"
        "demo,5,2,120,count,12.0,,exact,3\n"
        "demo,7,2,336,ratio,0.3333333333333333,2.0,50,4\n"
        '"demo, quoted",0,0,0,tiny,-2.5e-17,0.1,exact,0\n'
    )
    rows = [
        ("demo", 5, 2, 120, "count", "12.0", "null", '"exact"', 3),
        ("demo", 7, 2, 336, "ratio", "0.3333333333333333", "2.0", "50", 4),
        ("demo, quoted", 0, 0, 0, "tiny", "-2.5e-17", "0.1", '"exact"', 0),
    ]
    objects = [
        "  {\n"
        f'    "experiment": "{e}",\n    "p": {p},\n    "d": {d},\n'
        f'    "group_order": {n},\n    "statistic": "{s}",\n    "value": {v},\n'
        f'    "bound": {b},\n    "samples": {m},\n    "seed": {seed}\n'
        "  }"
        for e, p, d, n, s, v, b, m, seed in rows
    ]
    assert report.render("json") == "[\n" + ",\n".join(objects) + "\n]\n"


def test_main_repeats_byte_identical_in_one_process(capsys):
    calls = [
        ("szemeredi", "--m", "2", "--n", "5", "--seed", "1"),
        ("conic", "--primes", "5", "--k", "2", "--format", "json", "--seed", "3"),
        ("szemeredi", "--m", "0", "--n", "4"),  # configuration error, exit 2
        ("szemeredi", "--m", "1", "--n", "6", "--k", "2", "--seed", "4"),
        ("elim-constants", "--format", "json"),
        ("mixing3", "--primes", "3", "--samples", "50", "--seed", "2"),
    ]
    first = {argv: run_cli(capsys, *argv) for argv in calls}
    assert first[calls[2]][0] == 2
    assert all(code == 0 for argv, (code, _, _) in first.items() if argv != calls[2])
    with pytest.raises(SystemExit):
        main(["szemeredi", "--m", "2", "--n", "4", "--format", "xml"])
    capsys.readouterr()
    for argv in reversed(calls + calls):
        assert run_cli(capsys, *argv) == first[argv]
