"""Pushforward measures from centralizer-twisted conjugation.

For b, h in G the conjugate-product measure is the distribution of

    g k g^-1 k,   k := c^-1 h^-1,

with g uniform in G and c uniform in the centralizer of b.  Its histogram
is always computed exactly as integer fibre counts over the (g, c) grid;
only the choice of (b, h) pairs is ever sampled.  The counts come from the
cached conjugacy classes, not from a sweep over g: g k g^-1 runs over the
class Cl(k), hitting each member |Z(k)| = |G| / |Cl(k)| times, so

    fibres = sum over c in Z(b) of |Z(k_c)| * 1_{Cl(k_c) k_c},

and every term is an exact integer.

`conjugate_product_fibres` takes one pair or a stack of pairs.  Each pair
is charged n |Z(b)| before any count is built, in pair order, so a stack
is refused with the message of its first pair over the budget.  The terms
of all pairs, one per (pair, c), are then multiplied in batches of at
most n rows: a term has |Cl(k_c)| < n rows, and a batch holds whole
terms, so the transient arrays stay O(n) however large Z(b) is (a central
b has |Z(b)| = n terms).  `heavy_mass_mixing_bound` passes its sampled
pairs in blocks of 8, so each block costs a few numpy calls per batch
rather than a few per term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .budget import OP_BUDGET, charge
from .groups import (
    GroupTable,
    _as_array,
    _conjugates,
    _inverse_many,
    _mul_many,
    _vectors,
    centralizer,
    centralizer_indices,
    class_members,
    conjugacy_class,
    conjugacy_classes,
    is_regular_semisimple,
    element,
)

_PAIR_BLOCK = 8  # (b, h) pairs per conjugate_product_fibres call in the Monte Carlo bound


@dataclass
class Measure:
    """Nonnegative weights on a group table with tracked total mass.

    When the weights come from an exact fibre count, `counts` and
    `denominator` carry the integer data so that threshold comparisons can
    be done without rounding.
    """

    weights: np.ndarray
    table: object
    total_mass: float
    counts: np.ndarray | None = None
    denominator: int | None = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if len(self.weights) != self.table.size:
            raise ValueError("weights do not match the table size")
        if np.any(self.weights < 0):
            raise ValueError("measure weights must be nonnegative")


def uniform_measure(table) -> Measure:
    n = table.size
    return Measure(np.full(n, 1.0 / n), table, 1.0)


def conjugate_product_fibres(table: GroupTable, b, h) -> np.ndarray:
    """Integer fibre counts of (g, c) -> g (c^-1 h^-1) g^-1 (c^-1 h^-1).

    b and h are one matrix each, giving counts of shape (n,), or equal
    (m, d, d) stacks of pairs, giving one row of counts per pair, (m, n).
    For k = c^-1 h^-1 the map g -> g k g^-1 k is |Z(k)|-to-one onto Cl(k) k,
    so each c adds n / |Cl(k)| to the members of Cl(k) k, read from the
    cached `class_members`.  The centralizers of all b come from one
    `centralizer_indices` call, every k from one product and their class
    labels from one lookup.  Every pair is charged n |Z(b)| in pair order
    before any count is built: that bounds its sum over c of |Cl(k_c)|
    rows, and its counts sum to exactly n |Z(b)|.

    The terms (c, k_c) are taken in order, in batches of at most n rows; one
    term has |Cl(k)| < n rows.  The key of x k is assembled from the row
    keys of x and the image table of k, as in `GroupTable.rmul_perm`, and
    each batch is added with one bincount over the pairs it touches.  Right
    multiplication by k is injective, so no index repeats within one term.
    """
    p, n, d = table.p, table.size, table.d
    b_mats, _ = _as_array(b, p)
    h_mats, _ = _as_array(h, p)
    if b_mats.shape != h_mats.shape or b_mats.ndim not in (2, 3):
        raise ValueError("b and h must be one matrix each, or stacks of equal length")
    single = b_mats.ndim == 2
    b_mats, h_mats = b_mats.reshape(-1, d, d), h_mats.reshape(-1, d, d)
    owner, z_index = centralizer_indices(table, b_mats)
    for z_size in np.bincount(owner, minlength=len(b_mats)):
        charge(n * int(z_size), OP_BUDGET, "exact conjugate-product histogram")
    ks = _mul_many(table.inv_mats()[z_index], _inverse_many(h_mats, p)[owner], p)
    labels = conjugacy_classes(table)[table.indices_of(ks)]
    members = class_members(table)
    rows = np.array([cls.size for cls in members])[labels]
    # |Z(k)| = n / |Cl(k)| is an integer, and every partial sum of a row is at
    # most n |Z(b)| <= n^2, below 2^53 for n < 9.4e7, so float64 bincount
    # weights stay exact.
    weights = (n // rows).astype(np.float64)
    ends = np.cumsum(rows)
    vectors, w = _vectors(d, p), table._digit_weights
    counts = np.zeros((len(b_mats), n), dtype=np.int64)
    start = 0
    while start < len(ks):
        stop = int(np.searchsorted(ends, ends[start] - rows[start] + n, side="right"))
        term = np.repeat(np.arange(stop - start), rows[start:stop])
        xs = np.concatenate([members[label] for label in labels[start:stop]])
        images = (vectors @ ks[start:stop] % p) @ w
        parts = table._row_keys[:, xs] + term * p**d
        index = table._image_indices(parts, images.ravel(), w**d)
        first, last = owner[start], owner[stop - 1] + 1
        counts[first:last] += np.bincount(
            (owner[start:stop][term] - first) * n + index,
            weights=weights[start:stop][term],
            minlength=(last - first) * n,
        ).reshape(-1, n).astype(np.int64)
        start = stop
    return counts[0] if single else counts


def conjugate_product_measure(table: GroupTable, b, h) -> Measure:
    """Exact probability histogram of the conjugate-product distribution."""
    counts = conjugate_product_fibres(table, b, h)
    denom = int(counts.sum())
    return Measure(
        weights=counts / denom,
        table=table,
        total_mass=float(counts.sum() / denom),
        counts=counts,
        denominator=denom,
    )


def _heavy_share(counts: np.ndarray, denominator, n: int, c0: float):
    """Share of each row of exact counts on atoms of weight at least c0 / n.

    count / denominator >= c0 / n  <=>  count * n >= c0 * denominator, so
    the test is made on the integers; denominator is one int or one per row.
    """
    denominator = np.asarray(denominator)
    heavy = counts.sum(axis=-1, where=counts * n >= c0 * denominator[..., None])
    return heavy / denominator


def heavy_mass(mu: Measure, c0: float) -> float:
    """Mass carried by atoms of weight at least c0 / |G|."""
    if c0 < 1:
        raise ValueError("threshold constant must be >= 1")
    n = mu.table.size
    if mu.counts is not None and mu.denominator is not None:
        return float(_heavy_share(mu.counts, mu.denominator, n, c0))
    return float(mu.weights[mu.weights >= c0 / n].sum())


@dataclass
class HeavyMassEstimate:
    value: float
    mean_heavy_mass: float
    stderr: float
    samples: int
    seed: int
    c0: float
    quasi_d: float


def heavy_mass_mixing_bound(
    table: GroupTable, c0: float, quasi_d: float, samples: int, seed: int = 0
) -> HeavyMassEstimate:
    """Monte Carlo estimate of (C0 D^(-1/2) + E_{b,h} heavy_mass)^(1/4).

    Pairs (b, h) are sampled uniformly; each histogram is exact.  The pairs
    go to `conjugate_product_fibres` in blocks of 8, one call per block.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if c0 < 1:
        raise ValueError("threshold constant must be >= 1")
    n = table.size
    rng = np.random.default_rng([seed, n])
    pairs = np.array([rng.integers(0, n, size=2) for _ in range(samples)])
    values = np.empty(samples, dtype=np.float64)
    for start in range(0, samples, _PAIR_BLOCK):
        bi, hi = pairs[start:start + _PAIR_BLOCK].T
        counts = conjugate_product_fibres(table, table.mats[bi], table.mats[hi])
        values[start:start + len(bi)] = _heavy_share(counts, counts.sum(axis=1), n, c0)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(samples)) if samples > 1 else float("inf")
    return HeavyMassEstimate(
        value=float((c0 * quasi_d**-0.5 + mean) ** 0.25),
        mean_heavy_mass=mean,
        stderr=stderr,
        samples=samples,
        seed=seed,
        c0=c0,
        quasi_d=quasi_d,
    )


def trace_stabilizer_set(table: GroupTable, b, h) -> GroupTable:
    """All y with trace(y h c) = trace(h c) for every c commuting with b.

    Requires b regular semisimple, so that the centralizer is a torus.
    Always contains the identity.
    """
    p = table.p
    b_mat, _ = _as_array(b, p)
    if not is_regular_semisimple(element(b_mat, p)):
        raise ValueError("b must be regular semisimple")
    h_mat, _ = _as_array(h, p)
    z = centralizer(table, b_mat)
    hc = _mul_many(h_mat[None], z.mats, p)
    targets = np.einsum("mii->mi", hc).sum(axis=1) % p
    traces = np.einsum("nij,mji->nm", table.mats, hc) % p
    mask = (traces == targets[None, :]).all(axis=1)
    return GroupTable(table.mats[mask], p, "trace_stabilizer")


@dataclass
class ConjugateAverageReport:
    max_abs_difference: float
    exact_equal: bool
    lhs_mass: Fraction
    rhs_mass: Fraction


def check_conjugate_average_identity(table: GroupTable, sub: GroupTable) -> ConjugateAverageReport:
    """Compare E_g (uniform on g U g^-1) with E_{u in U} |C(u)|^-1 1_C(u).

    Both sides are assembled exactly as rationals and compared pointwise.
    Each side makes one conjugation sweep of the table per element of U, so
    the check charges 2 |U| n.
    """
    n = table.size
    u_count = sub.size
    charge(2 * u_count * n, OP_BUDGET, "conjugate-average identity")
    lhs_counts = np.zeros(n, dtype=np.int64)
    for u in sub.mats:
        lhs_counts += np.bincount(_conjugates(table, u), minlength=n)
    lhs = [Fraction(int(c), n * u_count) for c in lhs_counts]

    rhs = [Fraction(0)] * n
    for u in sub.mats:
        cls = conjugacy_class(table, u)
        w = Fraction(1, u_count * cls.size)
        for idx in table.indices_of(cls.mats):
            rhs[idx] += w
    diffs = [abs(float(a - b)) for a, b in zip(lhs, rhs)]
    return ConjugateAverageReport(
        max_abs_difference=max(diffs),
        exact_equal=all(a == b for a, b in zip(lhs, rhs)),
        lhs_mass=sum(lhs, Fraction(0)),
        rhs_mass=sum(rhs, Fraction(0)),
    )
