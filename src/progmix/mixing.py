"""Progression averages over finite groups and their deviation forms.

The k-term progression average of functions f_0 .. f_{k-1} on a group G is

    E_{x,g in G}  f_0(x) f_1(xg) f_2(xg^2) ... f_{k-1}(xg^{k-1}),

with the shift applied on the right; averaging over x makes this identical
to the variant that starts the progression at xg^{-1}.  The deviation form
replaces the inner x-average by its absolute distance from the product of
the means, measuring how far a single shift g is from mixing.

Every exact statistic is a reduction of one kernel, `shift_sums`, which
returns the per-shift sums s[g] = sum_x prod_i f_i(x g^i).  It composes each
shift's permutation x -> x g from the permutations of h and r in the table's
coset decomposition g = h r, so a full SL_2(F_p) sweep assembles p^2
permutations rather than one per shift.  The exact average
and deviation are two reductions of one sweep (`exact_progression_statistics`),
and the restricted deviations two reductions of one sweep over the shift set.
Integer-valued inputs (indicators, +-1 signs) are accumulated exactly in
integer arithmetic, and the exact value is reported as a Fraction alongside
the float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .budget import OP_BUDGET, charge
from .groups import coset_decomposition


@dataclass
class GroupFunction:
    """A dense function on the elements of a group table.

    Integer values are held as int64, the dtype in which every exact route
    multiplies and sums them, so narrower integer input cannot overflow there.
    """

    values: np.ndarray
    table: object

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.is_integer_valued:
            self.values = self.values.astype(np.int64, copy=False)
        if len(self.values) != self.table.size:
            raise ValueError("value array does not match the table size")

    @property
    def is_integer_valued(self) -> bool:
        return np.issubdtype(self.values.dtype, np.integer)

    def mean(self) -> complex | float:
        return self.values.mean()

    def l2_norm(self) -> float:
        """Averaged norm (E |f|^2)^(1/2)."""
        return float(np.sqrt(np.mean(np.abs(self.values) ** 2)))

    def linf_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def constant_function(table, value=1) -> GroupFunction:
    dtype = np.int64 if isinstance(value, (int, np.integer)) else np.float64
    return GroupFunction(np.full(table.size, value, dtype=dtype), table)


def delta_function(table, index: int) -> GroupFunction:
    values = np.zeros(table.size, dtype=np.int64)
    values[index] = 1
    return GroupFunction(values, table)


def indicator_function(table, indices) -> GroupFunction:
    values = np.zeros(table.size, dtype=np.int64)
    values[np.asarray(indices, dtype=np.int64)] = 1
    return GroupFunction(values, table)


def random_sign_function(table, rng: np.random.Generator) -> GroupFunction:
    return GroupFunction(rng.choice(np.array([-1, 1], dtype=np.int64), size=table.size), table)


@dataclass
class MixingResult:
    """Outcome of one progression-average evaluation."""

    value: float
    product_of_means: float
    deviation: float
    samples_used: int | str
    exact_value: Fraction | None = None
    exact_product: Fraction | None = None
    stderr: float | None = None


MAX_PROGRESSION_LENGTH = 4


def _common_table(fs, table=None):
    if not (1 <= len(fs) <= MAX_PROGRESSION_LENGTH):
        raise ValueError(f"need between 1 and {MAX_PROGRESSION_LENGTH} functions")
    table = table if table is not None else fs[0].table
    for f in fs:
        if f.table is not table:
            raise ValueError("all functions must live on the given table")
    return table


def _exact_inputs(fs) -> bool:
    return all(f.is_integer_valued for f in fs)


def shift_sums(table, fs, shifts=None) -> np.ndarray:
    """The per-shift sums s[j] = sum_x prod_i f_i(x g_j^i).

    `shifts` is an index array of shifts g_j, every table element by default.
    The result is int64 for integer-valued inputs, so each exact statistic is
    an exact reduction of it.

    Each distinct shift is summed once, and a repeated shift copies its sum.
    The shifts are visited grouped by h in their `coset_decomposition`
    g = h r: `table.rmul_perm` assembles x -> x h once per h and x -> x r
    once per representative used, and x -> x g is the gather of the second
    by the first (none for the identity representative).  That is the same
    index array as `table.rmul_perm(g)`, so every sum is bit-identical to the
    one from a fresh permutation per shift.
    """
    vals = [f.values for f in fs]
    shifts = np.arange(table.size) if shifts is None else np.asarray(shifts, dtype=np.intp)
    dtype = np.int64 if _exact_inputs(fs) else np.result_type(*vals, np.float64)
    distinct, where = np.unique(shifts, return_inverse=True)
    dec = coset_decomposition(table)
    hs, cosets = dec.h[distinct], dec.coset[distinct]
    sums = np.empty(len(distinct), dtype=dtype)
    rep_perms = {}  # coset label -> x -> x r for its representative r; at most (p + 1) n ints
    h_done = perm_h = None
    for j in np.lexsort((cosets, hs)):
        prod = vals[0]
        if len(vals) > 1:
            if hs[j] != h_done:
                h_done, perm_h = hs[j], table.rmul_perm(int(hs[j]))
            perm, r = perm_h, int(cosets[j])
            if r:
                if r not in rep_perms:
                    rep_perms[r] = table.rmul_perm(int(dec.reps[r]))
                perm = rep_perms[r][perm_h]
            cursor = perm
            prod = prod * vals[1][cursor]
            for v in vals[2:]:
                cursor = perm[cursor]
                prod = prod * v[cursor]
        sums[j] = prod.sum()
    return sums[where]


def progression_average(table=None, fs=None, samples=None, seed=None) -> MixingResult:
    """The k-term progression average E_{x,g} prod_i f_i(x g^i).

    Exact mode (samples=None or "exact") runs the full double average and
    errors out past the operation budget; an integer `samples` switches to
    seeded Monte Carlo over uniform (x, g) pairs.
    """
    fs = list(fs)
    table = _common_table(fs, table)
    if samples is not None and samples != "exact":
        return _progression_average_sampled(table, fs, int(samples), seed)
    return exact_progression_statistics(table, fs)[0]


def exact_progression_statistics(table, fs) -> tuple[MixingResult, MixingResult]:
    """The exact progression average and deviation, from one `shift_sums` sweep.

    Returns (average, deviation), the results of the exact modes of
    `progression_average` and `progression_deviation`, and charges the
    k n^2 operations of the sweep once.
    """
    fs = list(fs)
    table = _common_table(fs, table)
    n = table.size
    k = len(fs)
    charge(k * n * n, OP_BUDGET, f"exact {k}-term average and deviation on {n} elements")
    sums = shift_sums(table, fs)
    prod_means = np.prod([f.mean() for f in fs])
    total = sum(sums.tolist())  # Python ints stay exact
    value = total / (n * n)
    average = MixingResult(
        value=value,
        product_of_means=prod_means,
        deviation=abs(value - prod_means),
        samples_used="exact",
    )
    if not _exact_inputs(fs):
        dev = float(np.abs(sums / n - prod_means).mean())
        deviation = MixingResult(
            value=dev, product_of_means=prod_means, deviation=dev, samples_used="exact"
        )
        return average, deviation
    target = _product_of_sums(fs)
    exact_product = Fraction(target, n**k)
    average.exact_value = Fraction(total, n * n)
    average.exact_product = exact_product
    average.deviation = abs(float(average.exact_value - exact_product))
    # E_g |s_g / n - prod_i (sum f_i) / n| = sum_g |s_g n^(k-1) - prod_i sum f_i| / n^(k+1)
    scale = n ** (k - 1)
    exact_dev = Fraction(sum(abs(s * scale - target) for s in sums.tolist()), n ** (k + 1))
    deviation = MixingResult(
        value=float(exact_dev),
        product_of_means=prod_means,
        deviation=float(exact_dev),
        samples_used="exact",
        exact_value=exact_dev,
        exact_product=exact_product,
    )
    return average, deviation


def _product_of_sums(fs) -> int:
    """prod_i sum_x f_i(x) for integer-valued inputs, as a Python int."""
    prod = 1
    for f in fs:
        prod *= int(f.values.sum(dtype=np.int64))
    return prod


def _progression_average_sampled(table, fs, samples: int, seed) -> MixingResult:
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = np.random.default_rng(seed)
    n = table.size
    x_idx = rng.integers(0, n, size=samples)
    g_idx = rng.integers(0, n, size=samples)
    result_dtype = np.result_type(*(f.values.dtype for f in fs), np.float64)
    prod = fs[0].values.astype(result_dtype)[x_idx]
    cursor = x_idx
    for f in fs[1:]:
        cursor = table.rmul_indices_many(cursor, g_idx)
        prod = prod * f.values[cursor]
    value = complex(prod.mean()) if np.iscomplexobj(prod) else float(prod.mean())
    stderr = float(prod.std(ddof=1) / np.sqrt(samples)) if samples > 1 else float("inf")
    prod_means = np.prod([f.mean() for f in fs])
    return MixingResult(
        value=value,
        product_of_means=prod_means,
        deviation=abs(value - prod_means),
        samples_used=samples,
        stderr=stderr,
    )


def progression_deviation(table=None, fs=None, samples=None, seed=None) -> MixingResult:
    """The per-shift deviation E_g | E_x prod_i f_i(x g^i) - prod_i E f_i |.

    Vanishes identically for k = 1.  Monte Carlo mode samples shifts g
    uniformly and keeps the inner x-average exact.
    """
    fs = list(fs)
    table = _common_table(fs, table)
    if samples is None or samples == "exact":
        return exact_progression_statistics(table, fs)[1]
    samples = int(samples)
    if samples < 1:
        raise ValueError("samples must be positive")
    n = table.size
    prod_means = np.prod([f.mean() for f in fs])
    rng = np.random.default_rng(seed)
    g_indices = rng.integers(0, n, size=samples)
    devs = np.abs(shift_sums(table, fs, g_indices) / n - prod_means)
    stderr = float(devs.std(ddof=1) / np.sqrt(samples)) if samples > 1 else float("inf")
    value = float(devs.mean())
    return MixingResult(
        value=value,
        product_of_means=prod_means,
        deviation=value,
        samples_used=samples,
        stderr=stderr,
    )


def restricted_progression_deviation(table, shift_set, fs) -> tuple[MixingResult, MixingResult]:
    """Deviations with the shift g restricted to a subset S of the group.

    Returns (unsigned, signed) from one `shift_sums` sweep over S:
    unsigned is E_{g in S} | E_x prod f_i(x g^i) - prod E f_i |, signed is
    | E_{g in S} E_x prod f_i(x g^i) - prod E f_i |.  Charges k |S| n.
    """
    fs = list(fs)
    _common_table(fs, table)
    if shift_set.size == 0:
        raise ValueError("shift set is empty")
    n = table.size
    charge(len(fs) * shift_set.size * n, OP_BUDGET,
           f"restricted {len(fs)}-term deviation over {shift_set.size} shifts on {n} elements")
    shift_indices = table.indices_of(shift_set.mats)
    prod_means = np.prod([f.mean() for f in fs])
    inner = shift_sums(table, fs, shift_indices) / n
    unsigned = float(np.mean(np.abs(inner - prod_means)))
    signed = abs(inner.mean() - prod_means)
    return tuple(
        MixingResult(value=v, product_of_means=prod_means, deviation=v, samples_used="exact")
        for v in (unsigned, signed)
    )


def convolve(f: GroupFunction, mu: GroupFunction) -> GroupFunction:
    """Discrete convolution (f * mu)(x) = sum_y f(y) mu(y^-1 x) = sum_z mu(z) f(x z^-1).

    Sums over the support of mu, one right-multiplication permutation per
    point, and charges |supp mu| n.  Integer inputs give an int64 result.
    """
    if f.table is not mu.table:
        raise ValueError("functions must live on the same table")
    table = f.table
    support = np.flatnonzero(mu.values)
    charge(len(support) * table.size, OP_BUDGET,
           f"convolution over {len(support)} points on {table.size} elements")
    inv = table.inv_perm()
    exact = f.is_integer_valued and mu.is_integer_valued
    out = np.zeros(table.size, dtype=np.int64 if exact else
                   np.result_type(f.values, mu.values, np.float64))
    for z in support:
        out += mu.values[z] * f.values[table.rmul_perm(int(inv[z]))]
    return GroupFunction(out, table)


def coset_smooth(f: GroupFunction, subgroup) -> GroupFunction:
    """Convolve f with the uniform probability on a subgroup.

    The result is constant on the left cosets x H, with the same mean as f;
    its value at x is the mean of f over x H, at |H| permutations.
    """
    table = f.table
    sub_idx = table.indices_of(subgroup.mats)
    mu = np.zeros(table.size, dtype=np.float64)
    mu[sub_idx] = 1.0 / len(sub_idx)
    return convolve(f, GroupFunction(mu, table))
