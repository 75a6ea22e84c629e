"""Command-line experiment runner.

Every subcommand emits rows with the fixed columns
experiment,p,d,group_order,statistic,value,bound,samples,seed and is
deterministic for a fixed seed: per-(prime, trial) generators are derived
from [seed, p, trial], so row values never depend on evaluation order.

Exit codes: 0 success, 2 configuration error, 3 budget exceeded.  Rows
whose value exceeds their bound are data (flagged in the output), never a
nonzero exit.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import borel as borel_mod
from . import measures, mixing, spectral, szemeredi
from .budget import BudgetExceededError
from .fields import is_prime
from .groups import (
    borel_subgroup,
    centralizer,
    diagonalisable_set,
    special_linear_group,
    trace_discriminant_symbol,
    trace_values,
)
from .report import ExperimentReport

DEFAULT_PRIMES = (3, 5, 7, 11, 13)
BIG_PRIMES = (17, 19, 23, 29, 31)


class ConfigError(ValueError):
    pass


def _parse_primes(raw: str | None, big: bool) -> list[int]:
    if raw is None:
        primes = list(DEFAULT_PRIMES)
    else:
        try:
            primes = [int(tok) for tok in raw.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"--primes must be a comma list of integers: {raw!r}") from exc
        if not primes:
            raise ConfigError(f"--primes names no prime: {raw!r}")
    for p in primes:
        if p < 3 or not is_prime(p) or p % 2 == 0:
            raise ConfigError(f"modulus {p} is not an odd prime")
        if p > max(BIG_PRIMES):
            raise ConfigError(f"prime {p} is beyond the supported grid (max {max(BIG_PRIMES)})")
        if p > max(DEFAULT_PRIMES) and not big:
            raise ConfigError(f"prime {p} needs --big (larger runtimes)")
    if big and any(p > max(DEFAULT_PRIMES) for p in primes):
        print("warning: an exact sweep costs about n^2 group operations per prime, "
              "n = |SL_d(F_p)|; --samples N is the cheaper route where offered",
              file=sys.stderr)
    return primes


def _rng(seed: int, p: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, p, trial])


def _make_functions(kind: str, table, rng, count: int):
    if kind == "random-sign":
        return [mixing.random_sign_function(table, rng) for _ in range(count)]
    if kind == "coset-borel":
        if getattr(table, "label", "") != "full" or table.d != 2:
            raise ConfigError("coset-borel functions need the full SL_2 table")
        # 1_C - |B| / n for a coset C = g B: the numerators p and -1 over p + 1.
        b = borel_subgroup(table.p)
        b_idx = table.indices_of(b.mats)
        out = []
        for _ in range(count):
            coset = table.lmul_perm(int(rng.integers(table.size)))[b_idx]
            values = np.full(table.size, -b.size / table.size)
            values[coset] += 1.0
            out.append(mixing.GroupFunction(values, table, denominator=table.p + 1))
        return out
    if kind.startswith("indicator:"):
        try:
            density = float(kind.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad indicator density in {kind!r}") from exc
        if not 0 <= density <= 1:
            raise ConfigError("indicator density must lie in [0, 1]")
        out = []
        for _ in range(count):
            size = int(round(density * table.size))
            chosen = rng.choice(table.size, size=size, replace=False)
            out.append(mixing.indicator_function(table, chosen))
        return out
    raise ConfigError(f"unknown function generator {kind!r}")


def _parse_samples(raw: str | None):
    if raw is None or raw == "exact":
        return None
    try:
        n = int(raw)
    except ValueError as exc:
        raise ConfigError(f"--samples must be 'exact' or an integer: {raw!r}") from exc
    if n < 1:
        raise ConfigError("--samples must be positive")
    return n


def _samples_column(samples) -> int | str:
    return "exact" if samples is None else samples


def cmd_mixing3(args, report: ExperimentReport) -> None:
    samples = _parse_samples(args.samples)
    for p in _parse_primes(args.primes, args.big):
        table = special_linear_group(args.d, p)
        fs = _make_functions(args.functions, table, _rng(args.seed, p, 0), 3)
        if samples is None:
            avg, dev = mixing.exact_progression_statistics(table, fs)
        else:
            avg = mixing.progression_average(table, fs, samples=samples, seed=[args.seed, p, 1])
            dev = mixing.progression_deviation(table, fs, samples=samples, seed=[args.seed, p, 2])
        common = dict(p=p, d=args.d, group_order=table.size, seed=args.seed)
        report.add("mixing3", "progression_average_3", avg.value,
                   samples=_samples_column(samples), **common)
        report.add("mixing3", "product_of_means", avg.product_of_means,
                   samples=_samples_column(samples), **common)
        report.add("mixing3", "progression_deviation_3", dev.value,
                   samples=_samples_column(samples), **common)


def cmd_mixing4_diag(args, report: ExperimentReport) -> None:
    for p in _parse_primes(args.primes, args.big):
        table = special_linear_group(2, p)
        shift_set = diagonalisable_set(p)
        fs = _make_functions(args.functions, table, _rng(args.seed, p, 0), 4)
        unsigned, signed = mixing.restricted_progression_deviation(table, shift_set, fs)
        common = dict(p=p, d=2, group_order=table.size, seed=args.seed)
        report.add("mixing4-diag", "restricted_deviation_unsigned", unsigned.value, **common)
        report.add("mixing4-diag", "restricted_deviation_signed", signed.value, **common)


def cmd_borel4(args, report: ExperimentReport) -> None:
    for p in _parse_primes(args.primes, args.big):
        ctx = borel_mod.borel_context(p)
        fs = _make_functions(args.functions, ctx.group, _rng(args.seed, p, 0), 4)
        avg = borel_mod.four_term_average(ctx, fs)
        # smoothing_gap, reusing the raw average instead of sweeping B again
        gap = abs(avg.value - borel_mod.four_term_average(ctx, borel_mod.smoothed(ctx, fs)).value)
        common = dict(p=p, d=2, group_order=ctx.group.size, seed=args.seed)
        report.add("borel4", "four_term_average", avg.value, **common)
        report.add("borel4", "smoothing_gap", gap, **common)


def cmd_spectral_class(args, report: ExperimentReport) -> None:
    primes = _parse_primes(args.primes, args.big)
    result = spectral.class_expansion(primes, selector=args.selector,
                                      torus_eigenvalue=args.eigenvalue)
    for row in result.rows:
        report.add("spectral-class", "class_norm_ratio", row.ratio, p=row.p, d=2,
                   group_order=row.group_order, bound=1.0, seed=args.seed)
        report.add("spectral-class", "class_spectral_norm", row.norm, p=row.p, d=2,
                   group_order=row.group_order, bound=float(row.class_size), seed=args.seed)
    report.add("spectral-class", "fitted_expansion_exponent", result.fitted_exponent,
               seed=args.seed)


def cmd_mu_scan(args, report: ExperimentReport) -> None:
    if args.samples == "exact":
        raise ConfigError("mu-scan has no exact route yet (the mean heavy mass over all n^2 "
                          "pairs (b, h)); give --samples N, or leave it out for 50")
    samples = _parse_samples(args.samples) or 50
    for p in _parse_primes(args.primes, args.big):
        table = special_linear_group(2, p)
        est = measures.heavy_mass_mixing_bound(
            table, args.c0, (p - 1) / 2, samples, seed=args.seed
        )
        common = dict(p=p, d=2, group_order=table.size, samples=samples, seed=args.seed)
        report.add("mu-scan", "mean_heavy_mass", est.mean_heavy_mass, bound=5.0 / p, **common)
        report.add("mu-scan", "heavy_mass_stderr", est.stderr, **common)
        report.add("mu-scan", "mixing_bound_estimate", est.value, **common)


def _parse_set(raw: str, m: int, n: int) -> szemeredi.PatternSet:
    tuples = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != m:
            raise ConfigError(f"tuple {chunk!r} does not have {m} coordinates")
        tuples.append(tuple(int(v) for v in parts))
    if not tuples:
        raise ConfigError("--set is empty")
    return szemeredi.PatternSet.from_tuples(m, n, tuples)


def cmd_szemeredi(args, report: ExperimentReport) -> None:
    m, n = args.m, args.n
    if m < 1 or n < 2:
        raise ConfigError("need m >= 1 and n >= 2")
    if args.set is not None:
        pattern = _parse_set(args.set, m, n)
    else:
        pattern = szemeredi.PatternSet.random(m, n, 0.5, _rng(args.seed, n, 0))
    common = dict(p=n, d=m, group_order=n**m, samples="exact", seed=args.seed)
    report.add("szemeredi", "member_count", len(pattern), **common)
    report.add("szemeredi", "corner_count", szemeredi.count_corners(pattern), **common)
    report.add("szemeredi", f"grid_count_k{args.k}", szemeredi.count_grid(pattern, args.k),
               **common)


def cmd_conic(args, report: ExperimentReport) -> None:
    for p in _parse_primes(args.primes, args.big):
        ks = [args.k] if args.k is not None else list(range(2, p))
        for k in ks:
            if k % p in (0, 1):
                raise ConfigError(f"conic parameter k={k} is degenerate mod {p}")
            rep = borel_mod.conic_analysis(p, k)
            common = dict(p=p, d=2, group_order=rep.size, seed=args.seed)
            report.add("conic", f"conic_size_k{k}", rep.size, bound=p + 1, **common)
            report.add("conic", f"conic_max_fibre_k{k}", rep.max_fibre, bound=2, **common)
            report.add("conic", f"conic_max_representations_k{k}", rep.max_representations,
                       bound=2, **common)
            report.add("conic", f"conic_max_representations_off_centre_k{k}",
                       rep.max_representations_off_centre, bound=2, **common)
            report.add("conic", f"conic_energy_k{k}", rep.energy,
                       bound=float(rep.energy_reference), **common)


def cmd_elim_constants(args, report: ExperimentReport) -> None:
    consts = borel_mod.elimination_constants(args.r, args.t)
    report.add("elim-constants", "constraint_lhs", float(consts.lhs), bound=-1.96e24)
    report.add("elim-constants", "constraint_rhs", float(consts.rhs), bound=3.61e32)
    al, ar = borel_mod.alpha_shift_identity(consts, 1)
    report.add("elim-constants", "alpha_identity_j1_difference", float(al - ar), bound=0.0)


def cmd_varieties(args, report: ExperimentReport) -> None:
    for p in _parse_primes(args.primes, args.big):
        table = special_linear_group(2, p)
        tr = trace_values(table)
        common = dict(p=p, d=2, group_order=table.size, seed=args.seed)
        report.add("varieties", "trace_two_count", int(np.sum(tr == 2)),
                   bound=float(p * p), **common)
        report.add("varieties", "trace_minus_two_count", int(np.sum(tr == p - 2)),
                   bound=float(p * p), **common)
        lang_weil = p + 2 * np.sqrt(p) + 1
        # The discriminant t^2 - 4 of a trace t is 0 exactly at t = +-2, a
        # nonzero square for a split regular element and a non-square for a
        # non-split one.  Each row takes the element of smallest index.
        symbol = trace_discriminant_symbol(p)
        for statistic, kind in (("split_centralizer_size", symbol == 1),
                                ("nonsplit_centralizer_size", symbol == -1)):
            first = np.flatnonzero(kind[tr])[:1]
            if first.size:
                size = centralizer(table, table.mats[first[0]]).size
                report.add("varieties", statistic, size, bound=lang_weil, **common)
        sizes = borel_mod.conic_sizes(p)
        report.add("varieties", "conic_size_min", int(sizes.min()), bound=lang_weil, **common)
        report.add("varieties", "conic_size_max", int(sizes.max()), bound=lang_weil, **common)


COMMANDS = {
    "mixing3": cmd_mixing3,
    "mixing4-diag": cmd_mixing4_diag,
    "borel4": cmd_borel4,
    "spectral-class": cmd_spectral_class,
    "mu-scan": cmd_mu_scan,
    "szemeredi": cmd_szemeredi,
    "conic": cmd_conic,
    "elim-constants": cmd_elim_constants,
    "varieties": cmd_varieties,
}


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="progmix",
        description="Progression mixing experiments on SL_d(F_p) at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, primes=True):
        if primes:
            sp.add_argument("--primes", help="comma list (default 3,5,7,11,13)")
            sp.add_argument("--big", action="store_true",
                            help="allow primes above 13 (slow)")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", help="output path (default stdout)")

    sp = sub.add_parser("mixing3", help="three-term averages and deviations")
    common(sp)
    sp.add_argument("--d", type=int, choices=(2, 3), default=2)
    sp.add_argument("--samples", help="'exact' or a Monte Carlo sample count")
    sp.add_argument("--functions", default="random-sign")

    sp = sub.add_parser("mixing4-diag", help="four-term deviation, diagonalisable shifts")
    common(sp)
    sp.add_argument("--functions", default="random-sign")

    sp = sub.add_parser("borel4", help="four-term averages on the upper-triangular group")
    common(sp)
    sp.add_argument("--functions", default="random-sign")

    sp = sub.add_parser("spectral-class", help="conjugacy-class spectral norm scan")
    common(sp)
    sp.add_argument("--selector", choices=("unipotent", "split_torus"), default="unipotent")
    sp.add_argument("--eigenvalue", type=int, default=None,
                    help="torus eigenvalue for split_torus")

    sp = sub.add_parser("mu-scan", help="heavy mass of conjugate-product measures")
    common(sp)
    sp.add_argument("--samples", help="number of (b, h) samples (default 50)")
    sp.add_argument("--c0", type=float, default=4.0)

    sp = sub.add_parser("szemeredi", help="grid and corner configuration counts")
    common(sp, primes=False)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--set", help="semicolon-separated tuples, e.g. 0,0;0,1;1,0")

    sp = sub.add_parser("conic", help="conic point counts and additive structure")
    common(sp)
    sp.add_argument("--k", type=int, default=None, help="single conic parameter")

    sp = sub.add_parser("elim-constants", help="exact elimination constants")
    common(sp, primes=False)
    sp.add_argument("--r", type=int, default=2)
    sp.add_argument("--t", type=int, default=2)

    sp = sub.add_parser("varieties", help="point counts on the hard-coded varieties")
    common(sp)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    report = ExperimentReport()
    try:
        COMMANDS[args.command](args, report)
    except BudgetExceededError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    text = report.render(args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
