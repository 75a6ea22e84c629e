"""Progression averages over finite groups and their deviation forms.

The k-term progression average of functions f_0 .. f_{k-1} on a group G is

    E_{x,g in G}  f_0(x) f_1(xg) f_2(xg^2) ... f_{k-1}(xg^{k-1}),

with the shift applied on the right; averaging over x makes this identical
to the variant that starts the progression at xg^{-1}.  The deviation form
replaces the inner x-average by its absolute distance from the product of
the means, measuring how far a single shift g is from mixing.

Every exact statistic is a reduction of one kernel, `shift_sums`, which
returns the per-shift sums s[g] = sum_x prod_i f_i(x g^i).  It anchors each
progression at its middle term y = x g, so that

    s[g] = sum_y f_0(y g^-1) f_1(y) f_2(y g) f_3(y g^2),

and sums each row in y-order, in the dtype of `sum_dtype`, whatever the
dtype of the inputs.  On a full SL_d(F_p) table, d = 2 or 3, a sweep splits
its shifts as g = h r, with h in the stabiliser H of the line through the
bottom row (the matrices whose bottom row is (0, .., 0, l)) and r the
representative of the right coset H g, the line through g's bottom row:
p + 1 lines for d = 2, where H is the Borel subgroup B, and p^2 + p + 1
for d = 3.  `bruhat_split` reads h and r from each shift's entries, and the
sweep runs on the table's `bruhat_layout`, an (|H|, lines) grid on which
x -> x b, for b in H, is a row take: every split sweep, of 2 to 4 terms
and any dtype, is one stacked product of row takes per h (in int8 for signs
and indicators) and assembles no permutation.  A split sweep holds up to
2 (lines) n values, so `shift_sums` splits only when (lines) n is within
the enumeration budget, read at each call: SL_2(F_p) up to p = 53 and
SL_3(F_3), but not SL_3(F_5), with 11.5e6.  An unsplit sweep (B, U, tori,
subsets, cyclic groups, SL_3(F_5)) assembles one permutation per distinct
shift.  Integer rows are summed in int16 up to n = 32767.

Rational inputs.  A `GroupFunction` with a denominator q holds float values
and the integer numerators q f.  The kernels read the numerators whenever
every input is exact (integer, or rational with its denominator), so the
coset-borel functions (p and -1 over p + 1) take the integer routes; each
sum is then Q = prod_i q_i times the true one, and every reduction divides
by Q once.  A tuple with any float-only input takes the float routes over
the values.

The exact average and deviation are two reductions of one sweep
(`exact_progression_statistics`), over the distinct per-shift sums and
their counts, and the restricted deviations two reductions of one sweep
over the shift set.  Exact inputs are summed exactly, and the exact value
is reported as a Fraction alongside the float; other inputs end in a float
division.  The product of means is always the product of the float means.
`average_from_total` turns the sum of all n^2 products into the exact-mode
average, for this sweep and for the shear-coordinate kernel of the Borel
subgroup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .budget import ENUMERATION_BUDGET, OP_BUDGET, budget_limit, charge
from .groups import _mul_many, bruhat_layout, bruhat_split, table_kind

INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass
class GroupFunction:
    """A dense function on the elements of a group table.

    Integer values are held as int64, the dtype in which every exact route
    multiplies and sums them, so narrower integer input cannot overflow there;
    unsigned values above the int64 maximum are refused, not wrapped.

    A `denominator` q > 1 marks real float values as the rationals
    numerators / q, with integer `numerators` = rint(q values) derived once;
    a ValueError refuses a q that is not a positive integer, a q on integer
    values (whose denominator is 1), and float values that numerators / q
    does not reproduce exactly.  `values` stays the float view that every
    float route reads, and the exact routes read the numerators: `numerators`
    is the int64 values themselves for integer input, and None for float
    input without a denominator.
    """

    values: np.ndarray
    table: object
    denominator: int = 1
    numerators: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values)
        q = self.denominator
        if not isinstance(q, (int, np.integer)) or q < 1:
            raise ValueError(f"denominator must be a positive integer, got {q!r}")
        if self.is_integer_valued:
            if q != 1:
                raise ValueError("integer values take no denominator")
            if self.values.dtype.kind == "u" and int(self.values.max(initial=0)) > INT64_MAX:
                raise ValueError("integer values above the int64 maximum")
            self.values = self.values.astype(np.int64, copy=False)
        if len(self.values) != self.table.size:
            raise ValueError("value array does not match the table size")
        self.numerators = self.values if self.is_integer_valued else None
        if q > 1:
            if self.values.dtype.kind != "f":
                raise ValueError("a denominator needs real float values")
            scaled = np.rint(self.values * q)
            if not np.all(np.abs(scaled) < 2.0**63):
                raise ValueError(f"values times {q} are not finite int64 numerators")
            self.numerators = scaled.astype(np.int64)
            if not np.array_equal((self.numerators / q).astype(self.values.dtype), self.values):
                raise ValueError(f"values are not multiples of 1/{q}")

    @property
    def is_integer_valued(self) -> bool:
        return np.issubdtype(self.values.dtype, np.integer)

    def mean(self) -> complex | float:
        return self.values.mean()

    def l2_norm(self) -> float:
        """Averaged norm (E |f|^2)^(1/2)."""
        return float(np.sqrt(np.mean(np.abs(self.values) ** 2)))


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
    return all(f.numerators is not None for f in fs)


def exact_denominator(fs) -> int | None:
    """Q = prod_i q_i when every f_i is exact (integer or rational), the factor
    by which the integer sums of the kernels exceed the true sums; else None."""
    return math.prod(f.denominator for f in fs) if _exact_inputs(fs) else None


def numerators_or_values(fs) -> list[np.ndarray]:
    """The arrays the kernels read: the numerators when every f_i is exact,
    else the values."""
    return [f.numerators for f in fs] if _exact_inputs(fs) else [f.values for f in fs]


def _product_bound(fs) -> int:
    """The largest |prod_i f_i(x_i)| over all points, in numerators, for exact fs."""
    bound = 1
    for f in fs:
        bound *= max(-int(f.numerators.min(initial=0)), int(f.numerators.max(initial=0)), 1)
    return bound


def _narrowest(bound: int, types):
    """The first of types, else int64, that holds bound; raises ValueError
    when not even int64 does, since an exact sum would wrap."""
    if bound > INT64_MAX:
        raise ValueError(f"integer inputs too large to sum exactly: a bound of {bound} "
                         f"exceeds the int64 maximum")
    return next((t for t in types if bound <= np.iinfo(t).max), np.int64)


def kernel_values(fs) -> list[np.ndarray]:
    """The values of fs in the dtype the shift kernels multiply them in.

    Exact fs give their numerators, narrowed to the smallest signed integer
    type that holds every product of them exactly, int8 for signs and
    indicators, which cuts the kernels' memory traffic up to eightfold.
    Other inputs give their values, in their dtype.
    """
    if not _exact_inputs(fs):
        return [f.values for f in fs]
    dtype = _narrowest(_product_bound(fs), (np.int8, np.int16, np.int32))
    return [f.numerators.astype(dtype) for f in fs]


def sum_dtype(fs, length: int):
    """The dtype in which the shift kernels sum `length` products of fs.

    For exact fs it is the narrowest of int16, int32 and int64 that holds
    length times the largest product of numerators, so every such sum is
    exact: int16 for a row of signs up to n = 32767.  It raises ValueError
    when length times the largest product exceeds the int64 maximum.  Other inputs are
    summed in their float or complex result type.
    """
    if not _exact_inputs(fs):
        return np.result_type(*(f.values for f in fs), np.float64)
    return _narrowest(length * _product_bound(fs), (np.int16, np.int32))


def shift_sums(table, fs, shifts=None) -> np.ndarray:
    """The per-shift sums s[j] = sum_x prod_i f_i(x g_j^i).

    `shifts` is an index array of shifts g_j, every table element by default.
    For exact inputs the result is the int64 sums of the numerators, Q times
    the true sums for Q = `exact_denominator(fs)`, so each exact statistic is
    an exact reduction of it.

    Each progression is anchored at its middle term y = x g, so
    s[g] = sum_y f_0(y g^-1) f_1(y) f_2(y g) f_3(y g^2).  Each point's
    product is taken as ((f_0 f_1) f_2) f_3, and each row is summed in
    y-order in the dtype of `sum_dtype`: exact inputs are multiplied in the
    narrow dtype of `kernel_values` and summed exactly, and float and complex
    sums are bit-identical to a loop that takes a fresh `table.rmul_perm(g)`
    per shift.  Each distinct shift is summed once, and a repeated shift
    copies its sum.  Whether the shifts of a full SL_d(F_p) table, d = 2
    or 3, are split over the lines through their bottom rows is decided at
    each call (see the module docstring); a split sweep takes `_bruhat_sums`,
    and every other sweep `_coset_sums`.
    """
    vals = kernel_values(fs)
    shifts = np.arange(table.size) if shifts is None else np.asarray(shifts, dtype=np.intp)
    acc = sum_dtype(fs, table.size)
    dtype = np.int64 if _exact_inputs(fs) else acc
    if len(vals) == 1:
        return np.full(len(shifts), numerators_or_values(fs)[0].sum(), dtype=dtype)
    distinct, where = np.unique(shifts, return_inverse=True)
    # A split sweep holds up to 2 stacks of (lines) n values, one per term after f_1.
    lines = (table.p**table.d - 1) // (table.p - 1) if table_kind(table) == "full" else 1
    split = 1 < lines and lines * table.size <= budget_limit(ENUMERATION_BUDGET)
    sums = (_bruhat_sums if split else _coset_sums)(table, vals, acc, distinct)
    return sums.astype(dtype, copy=False)[where]


def _coset_sums(table, vals, acc, shifts) -> np.ndarray:
    """s[g] for distinct shifts on any table, one permutation P_g: x -> x g
    per shift.  Scattering A[P_g] = f_0 gives A(y) = f_0(y g^-1), and
    f_2(y g) and f_3(y g^2) are f_2[P_g] and f_3[P_g][P_g]."""
    f0, f1, f2, f3 = vals + [None] * (4 - len(vals))
    a = np.empty_like(f0)
    sums = np.empty(len(shifts), dtype=acc)
    for j, g in enumerate(shifts.tolist()):
        perm = table.rmul_perm(g)
        a[perm] = f0
        row = a * f1
        if f2 is not None:
            row = row * f2[perm]
        if f3 is not None:
            row = row * f3[perm][perm]
        sums[j] = row.sum(dtype=acc)
    return sums


def _bruhat_sums(table, vals, acc, shifts) -> np.ndarray:
    """s[g] for distinct shifts on a full SL_d(F_p) table, d = 2 or 3.

    On the `bruhat_layout` grid, where z -> z b for b in H is a row take,
    each shift is g = h r, read from its entries by `bruhat_split`, with r
    the identity or w v for some v in H.  Substituting y = z h^-1, so that
    y g = z r and y g^2 = z (r g), gives

        s[h w v] = sum_z D_h(z h^-1 v^-1) f_1(z h^-1) F_2[r](z) f_3(z r g),
        s[h] = sum_z E_h(z h^-1) f_1(z h^-1) f_2(z) f_3(z g),

    with E_h = f_0 o P_h^-1, D_h = E_h o W^-1 and F_2[r] = f_2 o P_r =
    f_2 o P_v o W, P_z being x -> x z.  With r g = h' r', split by
    `bruhat_split` too, f_3(z r g) = F_3[r'](z h') for F_3[r] = f_3 o P_r.
    So each term after f_1 is a row take of a stack of f_i o P_r over the
    representatives, filled in place once per sweep, one layer at a time.
    The shifts are grouped by h.  Per h, E_h and f_1 o P_h^-1 are row takes,
    D_h one full gather, and the rows of all shifts with that h one stacked
    row take of [D_h; E_h], multiplied in the common dtype of vals.  Integer
    rows are summed in grid order, since integer sums do not depend on their
    order; float and complex rows are first gathered into y-order, from the
    cell z = y h of each y.  A sweep holds one (lines) n stack per term after
    f_1, the rows of h^-1 of (lines) h at a time, n ints, and only one h's
    products.
    """
    layout = bruhat_layout(table)
    coords, p = layout.coords, table.p
    nh, nl = len(coords.inverse), len(coords.reps)  # the grid's rows and columns
    dtype = np.result_type(*vals)
    f0, f1, *rest = (v.astype(dtype, copy=False)[layout.cells].reshape(nh, nl) for v in vals)
    v_rows = coords.rows(coords.v)  # b v_l
    stacks = [np.empty((nl, nh, nl), dtype=dtype) for _ in rest]
    for f, stack in zip(rest, stacks):  # layer l is f o P_r for r = w v_l, layer 0 f itself
        stack[0] = f
        for l in range(1, nl):
            f.take(v_rows[l], axis=0).take(layout.w_fwd, out=stack[l].reshape(-1))
    de_rows = coords.rows(coords.inverse[coords.v])  # b v_l^-1, into D_h
    de_rows[0] += nh  # into E_h for r the identity
    de = np.empty((2 * nh, nl), dtype=dtype)
    flat = np.arange(table.size).reshape(nh, nl)  # the flat index of each cell
    sums = np.empty(len(shifts), dtype=acc)
    mats = table.mats[shifts]
    hs, ks = bruhat_split(mats, p)
    if len(stacks) == 2:  # r g = h' r'
        h3, k3 = bruhat_split(_mul_many(coords.reps[ks], mats, p), p)
        k3 = k3 * nh
    order = np.argsort(hs, kind="stable")
    bounds = np.flatnonzero(np.diff(hs[order], prepend=-1, append=-1))  # where h changes
    into_y_order = not np.issubdtype(acc, np.integer)
    starts = bounds[:-1]
    for step, (start, stop) in enumerate(zip(starts.tolist(), bounds[1:].tolist())):
        if step % nl == 0:  # the rows of h^-1 for the next nl h, n ints
            inv_chunk = coords.rows(coords.inverse[hs[order[starts[step:step + nl]]]])
        group = order[start:stop]
        h, inv_rows = hs[group[0]], inv_chunk[step % nl]
        de[nh:] = f0.take(inv_rows, axis=0)  # E_h
        de[nh:].take(layout.w_back, out=de[:nh].reshape(-1))  # D_h
        k = ks[group]
        prod = de.take(de_rows.take(inv_rows, axis=1)[k], axis=0)
        prod *= f1.take(inv_rows, axis=0)
        if stacks:
            prod *= stacks[0][k]  # F_2[r], or f_2 itself for r the identity
        if len(stacks) == 2:  # F_3[r'], row take by h'
            prod *= stacks[1].reshape(-1, nl).take(k3[group, None] + coords.rows(h3[group]), axis=0)
        prod = prod.reshape(len(group), -1)
        if into_y_order:
            prod = prod.take(layout.compose(flat, coords.rows(h)), axis=1)
        sums[group] = prod.sum(axis=1, dtype=acc)
    return sums


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
    k n^2 operations of the sweep once.  Both are reductions over the
    distinct per-shift sums and their counts, exact Fractions for exact
    inputs, divided once by their Q, and a float division otherwise.
    """
    fs = list(fs)
    table = _common_table(fs, table)
    n = table.size
    k = len(fs)
    charge(k * n * n, OP_BUDGET, f"exact {k}-term average and deviation on {n} elements")
    # Python scalars over the distinct sums: a few hundred for random signs,
    # and integer sums stay exact.
    distinct, counts = (a.tolist() for a in np.unique(shift_sums(table, fs), return_counts=True))
    average = average_from_total(fs, sum(s * c for s, c in zip(distinct, counts)), n)
    # E_g |s_g / n - prod_i (sum f_i) / n| = sum_g |s_g n^(k-1) - prod_i sum f_i| / n^(k+1),
    # with s_g and prod_i sum f_i both Q times the true ones for exact inputs.
    q = exact_denominator(fs)
    target, scale = _product_of_sums(fs), n ** (k - 1)
    dev = sum(abs(s * scale - target) * c for s, c in zip(distinct, counts))
    dev = dev / n ** (k + 1) if q is None else Fraction(dev, q * n ** (k + 1))
    deviation = MixingResult(
        value=float(dev),
        product_of_means=average.product_of_means,
        deviation=float(dev),
        samples_used="exact",
        exact_value=None if q is None else dev,
        exact_product=average.exact_product,
    )
    return average, deviation


def average_from_total(fs, total, n: int) -> MixingResult:
    """The exact-mode progression average of fs on n elements, from the sum
    `total` of prod_i f_i(x g^i) over all n^2 pairs (x, g).

    For exact fs, total is a Python int summed over numerators, Q times the
    true total for Q = `exact_denominator(fs)`, and the result carries the
    exact average and product of means as Fractions; otherwise total is a
    float (complex for complex input).  The product of means is the product
    of the float means in either case.
    """
    q = exact_denominator(fs)
    prod_means = np.prod([f.mean() for f in fs])
    value = total / ((q or 1) * n * n)
    average = MixingResult(value=value, product_of_means=prod_means,
                           deviation=abs(value - prod_means), samples_used="exact")
    if q is not None:
        average.exact_value = Fraction(total, q * n * n)
        average.exact_product = Fraction(_product_of_sums(fs), q * n ** len(fs))
        average.deviation = abs(float(average.exact_value - average.exact_product))
    return average


def _product_of_sums(fs):
    """prod_i sum_x f_i(x), a Python int in numerators for exact inputs."""
    prod = 1
    for v in numerators_or_values(fs):
        prod *= v.sum().item()
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
    scale = (exact_denominator(fs) or 1) * n
    devs = np.abs(shift_sums(table, fs, g_indices) / scale - prod_means)
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
    inner = shift_sums(table, fs, shift_indices) / ((exact_denominator(fs) or 1) * n)
    unsigned = float(np.mean(np.abs(inner - prod_means)))
    signed = abs(inner.mean() - prod_means)
    return tuple(
        MixingResult(value=v, product_of_means=prod_means, deviation=v, samples_used="exact")
        for v in (unsigned, signed)
    )


def convolve(f: GroupFunction, mu: GroupFunction) -> GroupFunction:
    """Discrete convolution (f * mu)(x) = sum_y f(y) mu(y^-1 x) = sum_z mu(z) f(x z^-1).

    Sums over the support of mu, one right-multiplication permutation per
    point, and charges |supp mu| n.  Integer inputs give an int64 result; a
    ValueError refuses them when |supp mu| max|f| max|mu| exceeds the int64
    maximum, since the sum could wrap.
    """
    if f.table is not mu.table:
        raise ValueError("functions must live on the same table")
    table = f.table
    support = np.flatnonzero(mu.values)
    charge(len(support) * table.size, OP_BUDGET,
           f"convolution over {len(support)} points on {table.size} elements")
    inv = table.inv_perm()
    exact = f.is_integer_valued and mu.is_integer_valued
    if exact:
        _narrowest(len(support) * _product_bound([f, mu]), ())
    out = np.zeros(table.size, dtype=np.int64 if exact else
                   np.result_type(f.values, mu.values, np.float64))
    for z in support:
        out += mu.values[z] * f.values[table.rmul_perm(int(inv[z]))]
    return GroupFunction(out, table)
