import csv
import io
import json

import numpy as np
import pytest

from progmix.cli import _make_functions, _rng, main
from progmix.groups import (
    GroupTable,
    borel_subgroup,
    coset_decomposition,
    diagonalisable_set,
    special_linear_group,
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


def test_varieties_trace_counts(capsys):
    code, out, _ = run_cli(capsys, "varieties", "--primes", "5")
    assert code == 0
    values = {r[4]: (float(r[5]), float(r[6])) for r in parse_csv(out)}
    assert values["trace_two_count"] == (25.0, 25.0)
    assert values["trace_minus_two_count"] == (25.0, 25.0)


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
    assert run_cli(capsys, "mixing3", "--primes", "3,5", "--samples", "exact")[0] == 0
    # Per prime: one permutation per h in the Borel subgroup, p(p - 1), and one per
    # representative of the p + 1 cosets B g but the identity.  Building the
    # decomposition assembles none.
    assert len(calls) == sum(p * (p - 1) + p for p in (3, 5))


def test_mixing4_diag_sweeps_each_shift_once(capsys, monkeypatch):
    calls = count_rmul_perm(monkeypatch)
    assert run_cli(capsys, "mixing4-diag", "--primes", "3,5")[0] == 0
    want = []
    for p in (3, 5):
        table = special_linear_group(2, p)
        dec = coset_decomposition(table)
        shifts = table.indices_of(diagonalisable_set(p).mats)
        want += np.unique(dec.h[shifts]).tolist()  # one per distinct h
        used = np.unique(dec.coset[shifts])
        want += dec.reps[used[used > 0]].tolist()  # one per used rep; B's is the identity
    assert sorted(calls) == sorted(want)
    assert len(calls) < diagonalisable_set(3).size + diagonalisable_set(5).size


def test_borel4_sweeps_twice_per_prime(capsys, monkeypatch):
    calls = count_rmul_perm(monkeypatch)
    assert run_cli(capsys, "borel4", "--primes", "3,5")[0] == 0
    # the raw and the U-smoothed four-term average, one permutation per shift
    # each, and the U-smoothing of the four functions, one per element of U
    assert len(calls) == sum(2 * borel_subgroup(p).size + 4 * p for p in (3, 5))


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
