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
    centralizer,
    class_members,
    conjugacy_class,
    conjugacy_classes,
    is_regular_semisimple,
    element,
)


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

    For k = c^-1 h^-1 the map g -> g k g^-1 k is |Z(k)|-to-one onto Cl(k) k,
    so each c adds |table| / |Cl(k)| to the members of Cl(k) k, read from the
    cached `class_members`.  Right multiplication by k is injective, so no
    index repeats within one term and the fancy-index add is exact.  The
    terms are added one at a time: batching them all would hold sum |Cl|^2
    rows for a central b.  The counts sum to |table| * |Z(b)|, and the charge
    n * |Z(b)| bounds the sum over c of |Cl(k_c)| rows multiplied.
    """
    p = table.p
    b_mat, _ = _as_array(b, p)
    h_mat, _ = _as_array(h, p)
    z = centralizer(table, b_mat)
    n = table.size
    charge(n * z.size, OP_BUDGET, "exact conjugate-product histogram")
    ks = _mul_many(_inverse_many(z.mats, p), _inverse_many(h_mat[None], p), p)
    labels = conjugacy_classes(table)[table.indices_of(ks)]
    members = class_members(table)
    counts = np.zeros(n, dtype=np.int64)
    for k, label in zip(ks, labels):
        cls = members[label]
        counts[table.indices_of(_mul_many(table.mats[cls], k, p))] += n // cls.size
    return counts


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


def heavy_mass(mu: Measure, c0: float) -> float:
    """Mass carried by atoms of weight at least c0 / |G|."""
    if c0 < 1:
        raise ValueError("threshold constant must be >= 1")
    n = mu.table.size
    if mu.counts is not None and mu.denominator is not None:
        # count/denominator >= c0/n  <=>  count * n >= c0 * denominator
        heavy = mu.counts[mu.counts * n >= c0 * mu.denominator]
        return float(heavy.sum() / mu.denominator)
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

    Pairs (b, h) are sampled uniformly; each histogram is exact.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng([seed, table.size])
    values = np.empty(samples, dtype=np.float64)
    for j in range(samples):
        bi, hi = rng.integers(0, table.size, size=2)
        mu = conjugate_product_measure(table, table.mats[bi], table.mats[hi])
        values[j] = heavy_mass(mu, c0)
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
