"""Four-term progression averages on the upper-triangular subgroup of
SL_2(F_p), with the shear-coordinate rewriting, its zero-frequency mass,
the supporting sum-product counter, the exact elimination constants, and
the conic-section analysis.

Conventions.  B is the group of upper-triangular determinant-one matrices,
U < B the shears [[1, a], [0, 1]].  The character pi sends [[t, a], [0,
t^-1]] to t^-1 (its lower-right entry).  Pushing a shear through x in B
dilates the shear parameter by the square of the *upper-left* entry of x:

    x psi(b) = psi(t^2 b) x,   t = x[0][0] = pi(x)^-1,

a fact verified exhaustively in the test suite; all shear bookkeeping here
uses this dilation factor.

Each statistic has one code path for every dtype.  `sheared_average` and
`zero_frequency_mass` reduce integer-valued inputs in int64 and return a
Fraction, and return a float otherwise.  The U-smoothed functions are
`mixing.coset_smooth` over U, which sums over U's p elements; U is normal in
B, so its left and right cosets agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import mixing
from .budget import OP_BUDGET, charge
from .fields import inv_mod
from .fourier import dft
from .groups import GroupTable, borel_subgroup, unipotent_subgroup


@dataclass
class BorelContext:
    """Precomputed index tables for shear-coordinate computations on B."""

    p: int
    group: GroupTable  # upper-triangular subgroup, order p(p-1)
    unipotent: GroupTable  # shear subgroup, order p
    unipotent_indices: np.ndarray  # positions of the shears inside `group`
    pi_values: np.ndarray  # lower-right entry per element of `group`
    upper_left: np.ndarray  # upper-left entry per element of `group`
    shear_mul_index: np.ndarray  # (p, |B|): index of shear(a) * x in `group`
    shear_index: np.ndarray  # a -> index of shear(a) inside `unipotent`
    pi_section: np.ndarray  # t -> index in `group` of a diagonal x with pi(x) = t


@lru_cache(maxsize=16)
def borel_context(p: int) -> BorelContext:
    group = borel_subgroup(p)
    unip = unipotent_subgroup(p)
    unip_idx = group.indices_of(unip.mats)
    pi_values = group.mats[:, 1, 1].copy()
    upper_left = group.mats[:, 0, 0].copy()
    shears = np.array([[[1, a], [0, 1]] for a in range(p)])
    shear_mul = np.stack([group.lmul_perm(int(g)) for g in group.indices_of(shears)])
    shear_idx = unip.indices_of(shears)
    section = np.zeros(p, dtype=np.int64)
    for t in range(1, p):
        section[t] = group.index_of(np.array([[inv_mod(t, p), 0], [0, t]]))
    return BorelContext(
        p=p,
        group=group,
        unipotent=unip,
        unipotent_indices=unip_idx,
        pi_values=pi_values,
        upper_left=upper_left,
        shear_mul_index=shear_mul,
        shear_index=shear_idx,
        pi_section=section,
    )


def four_term_average(ctx: BorelContext, fs) -> mixing.MixingResult:
    """E_{x,g in B} f0(x) f1(xg) f2(xg^2) f3(xg^3), exactly."""
    if len(fs) != 4:
        raise ValueError("need exactly four functions")
    return mixing.progression_average(ctx.group, fs)


def smoothed(ctx: BorelContext, fs) -> list[mixing.GroupFunction]:
    """The U-smoothed functions f * mu_U, constant on the shear cosets U x."""
    return [mixing.coset_smooth(f, ctx.unipotent) for f in fs]


def smoothing_gap(ctx: BorelContext, fs) -> float:
    """|four-term average of fs - four-term average of the U-smoothed fs|."""
    raw = four_term_average(ctx, fs).value
    return abs(raw - four_term_average(ctx, smoothed(ctx, fs)).value)


def _sheared_layers(ctx: BorelContext, fs):
    """Per-shift blocks of the shear-coordinate form of the 4-term average.

    Block g has entry ((a, b), x) = prod_i f_i(psi(a + c_i b) x g^i), with
    c_i = 1 + w + .. + w^(i-1) and w = t^2 for the upper-left entry t of g.
    Each f_i is gathered once onto the shear cosets, F_i[a, x] =
    f_i(psi(a) x); per shift, the columns x -> x g^i are gathered at p x n,
    the rows a + c_i b at p^2 x n, and multiplied into one reused buffer.
    """
    p = ctx.p
    a_row, b_row = np.indices((p, p)).reshape(2, -1)  # all p^2 pairs (a, b)
    on_cosets = [f.values[ctx.shear_mul_index] for f in fs]  # F_i, p x n
    t0 = on_cosets[0][a_row]
    block = np.empty(t0.shape, dtype=np.result_type(*on_cosets))  # reused for every shift
    for gi in range(ctx.group.size):
        perm = ctx.group.rmul_perm(gi)
        w = int(ctx.upper_left[gi]) ** 2 % p
        lhs, cursor, c = t0, perm, 1
        for f_i in on_cosets[1:]:
            np.multiply(lhs, f_i[:, cursor][(a_row + c * b_row) % p], out=block)
            lhs, cursor, c = block, perm[cursor], (1 + w * c) % p
        yield block


def sheared_average(ctx: BorelContext, fs) -> float | Fraction:
    """The 4-term average computed in shear coordinates.

    For each (x, g) the progression is rewritten through the substitution
    (x, g) -> (psi(a) x, psi(b) g) and averaged over (a, b) in F^2; the
    result agrees with the plain four-term average identically.  Integer
    inputs are reduced in int64 and give the exact Fraction; other inputs
    give a float (complex for complex input).
    """
    if len(fs) != 4:
        raise ValueError("need exactly four functions")
    p, n = ctx.p, ctx.group.size
    charge(4 * n * n * p * p, OP_BUDGET, "shear-coordinate 4-term average")
    exact = all(f.is_integer_valued for f in fs)
    dtype = np.int64 if exact else np.result_type(*(f.values for f in fs), np.float64)
    total = sum(block.sum(dtype=dtype).item() for block in _sheared_layers(ctx, fs))
    scale = n * n * p * p
    return Fraction(total, scale) if exact else total / scale


def sheared_average_exact(ctx: BorelContext, fs) -> float | Fraction:
    """sheared_average under a second name, so a trace can time it apart."""
    return sheared_average(ctx, fs)


def _check_coset_mean_zero(ctx: BorelContext, f: mixing.GroupFunction, tol: float = 1e-9):
    worst = float(np.max(np.abs(mixing.coset_smooth(f, ctx.unipotent).values)))
    if worst > tol:
        raise ValueError(
            f"function must have mean zero on every shear coset "
            f"(worst coset mean {worst:.3g})"
        )


def _autocorrelations(ctx: BorelContext, f: mixing.GroupFunction) -> np.ndarray:
    """Row t - 1 is h -> sum_a r(a) conj(r(a + h)) for the shear restriction
    r(a) = f(shear(a) x) at the x with pi(x) = t, for t = 1 .. p - 1."""
    p = ctx.p
    r = f.values[ctx.shear_mul_index[:, ctx.pi_section[1:]]].T  # (p - 1, p)
    lagged = (np.arange(p)[:, None] + np.arange(p)) % p  # [h, a] -> a + h
    return np.einsum("ta,tha->th", r, np.conj(r)[:, lagged])


def zero_frequency_mass(ctx: BorelContext, fs, i0: int) -> float | Fraction:
    """Constrained frequency-side mass of the smoothed 4-term average.

    With mu_{i,t}(xi) the squared Fourier magnitude of the shear restriction
    a -> f_i(shear(a) x) at any x with pi(x) = t, this returns

        E_{s,t in Fx} sum_{xi1 + (1+t^2) xi2 + (1+t^2+t^4) xi3 = 0, xi_{i0} != 0}
            mu_{1,s}(xi1) mu_{2,st}(xi2) mu_{3,st^2}(xi3).

    Requires f_{i0} to have mean zero on every shear coset, which forces
    mu_{i0,.}(0) = 0, so the excluded slice xi_{i0} = 0 adds nothing.  Each
    (s, t) term is then p^-4 sum_h A1(h) A2(c2 h) A3(c3 h) with A_i the
    autocorrelation of the restriction of f_i.  Integer f_1, f_2, f_3 give
    the exact Fraction, other inputs the real part as a float.  Charges the
    3 (p-1) p^2 autocorrelation and (p-1)^2 p summation operations.
    """
    if i0 not in (2, 3):
        raise ValueError("i0 must be 2 or 3")
    p = ctx.p
    charge(3 * (p - 1) * p * p + (p - 1) ** 2 * p, OP_BUDGET, "zero-frequency mass")
    _check_coset_mean_zero(ctx, fs[i0])
    a1, a2, a3 = (_autocorrelations(ctx, fs[i]) for i in (1, 2, 3))
    h = np.arange(p)
    s = np.arange(1, p)
    total = 0
    for t in range(1, p):
        c2 = (1 + t * t) % p
        c3 = (1 + t * t + pow(t, 4, p)) % p
        terms = a1[s - 1] * a2[s * t % p - 1][:, c2 * h % p]
        total += (terms * a3[s * t * t % p - 1][:, c3 * h % p]).sum().item()
    scale = (p - 1) ** 2 * p**4
    if all(fs[i].is_integer_valued for i in (1, 2, 3)):
        return Fraction(total, scale)
    return total.real / scale


def sum_product_collision_rate(p: int, eta1, eta2, eta3) -> Fraction:
    """Fraction of (s, t) in (Fx)^2 with
    eta1(s) + (1+t^2) eta2(st) + (1+t^2+t^4) eta3(st^2) = 0 mod p.

    Each eta is indexed by s = 1 .. p-1 (entry 0 is ignored).
    """
    etas = [np.asarray(e, dtype=np.int64) % p for e in (eta1, eta2, eta3)]
    for e in etas:
        if len(e) != p:
            raise ValueError(f"eta arrays must have length p = {p}")
    count = 0
    for t in range(1, p):
        c2 = (1 + t * t) % p
        c3 = (1 + t * t + pow(t, 4, p)) % p
        s = np.arange(1, p)
        v = (etas[0][s] + c2 * etas[1][(s * t) % p] + c3 * etas[2][(s * t * t) % p]) % p
        count += int(np.sum(v == 0))
    return Fraction(count, (p - 1) ** 2)


@dataclass
class EliminationConstants:
    """Exact rational constants from eliminating the coupled recurrence."""

    r: Fraction
    t: Fraction
    alpha: dict[int, Fraction]  # alpha_j = 1 + r^(2j) t^2,           j in [-1, 5]
    beta: dict[int, Fraction]  # beta_j = 1 + r^(2j) t^2 + r^(4j) t^4, j in [-1, 5]
    beta_prime: dict[int, Fraction]  # beta_j - r^2 beta_{j-1},        j in [0, 5]
    lhs: Fraction
    rhs: Fraction


def elimination_constants(r, t) -> EliminationConstants:
    """Compute the alpha/beta/beta' family and the final two-sided constraint.

    Requires r not in {0, 1, -1}: beta' involves r^-2, and r = +-1 makes the
    common factor 1 - r^-2 vanish.
    """
    r = Fraction(r)
    t = Fraction(t)
    if r in (Fraction(0), Fraction(1), Fraction(-1)):
        raise ValueError("r must avoid 0 and +-1")
    alpha = {j: 1 + r ** (2 * j) * t**2 for j in range(-1, 6)}
    beta = {j: 1 + r ** (2 * j) * t**2 + r ** (4 * j) * t**4 for j in range(-1, 6)}
    bp = {j: beta[j] - r**2 * beta[j - 1] for j in range(0, 6)}
    a = alpha
    lhs = (bp[0] * bp[4] * a[1] * a[2] - bp[1] * bp[3] * a[0] * a[3]) * (
        bp[2] * bp[5] * a[2] * a[3]
        + bp[3] * bp[5] * a[1] * a[2]
        - bp[3] * bp[4] * a[1] * a[3]
        - bp[4] ** 2 * a[1] * a[2]
    )
    rhs = (bp[1] * bp[5] * a[2] * a[3] - bp[2] * bp[4] * a[1] * a[4]) * (
        bp[1] * bp[4] * a[1] * a[2]
        + bp[2] * bp[4] * a[0] * a[1]
        - bp[2] * bp[3] * a[0] * a[3]
        - bp[3] ** 2 * a[0] * a[1]
    )
    return EliminationConstants(r=r, t=t, alpha=alpha, beta=beta, beta_prime=bp, lhs=lhs, rhs=rhs)


def beta_prime_closed_form(consts: EliminationConstants, j: int) -> Fraction:
    """(1 - r^-2)(r^(4j) t^4 - r^2); equals beta_prime[j]."""
    r, t = consts.r, consts.t
    return (1 - r**-2) * (r ** (4 * j) * t**4 - r**2)


def alpha_shift_identity(consts: EliminationConstants, j: int) -> tuple[Fraction, Fraction]:
    """Both sides of alpha_{j+1} alpha_{j+2} - alpha_{j+3} alpha_j
    = r^2 (alpha_j alpha_{j+1} - alpha_{j+2} alpha_{j-1})."""
    a, r = consts.alpha, consts.r
    lhs = a[j + 1] * a[j + 2] - a[j + 3] * a[j]
    rhs = r**2 * (a[j] * a[j + 1] - a[j + 2] * a[j - 1])
    return lhs, rhs


@dataclass
class ConicReport:
    p: int
    k: int
    size: int
    points: list[tuple[int, int]]
    max_fibre: int
    excluded_parameters: int
    max_representations: int
    max_representations_argmax: tuple[int, int]
    centre_representations: int
    max_representations_off_centre: int
    energy: int
    energy_reference: int
    representation_flag: bool


def conic_analysis(p: int, k: int) -> ConicReport:
    """Point count, parametrisation fibres, and additive structure of the
    conic x^2 + k y^2 = x over F_p.

    The parametrisation u -> ((1+k u^2)^-1, u (1+k u^2)^-1) covers the conic
    minus the origin; parameters with 1 + k u^2 = 0 are excluded and counted.
    Representation counts r(z) = #{(c1, c2) in C^2 : c1 + c2 = z} are ordered
    pairs; the reflection z -> (1,0) - z maps the conic to itself, so the
    centre point (1, 0) always has r = |C| and is reported separately.
    """
    k %= p
    if k in (0, 1):
        raise ValueError("k must avoid 0 and 1 mod p")
    xs, ys = np.meshgrid(np.arange(p), np.arange(p), indexing="ij")
    on = (xs * xs + k * ys * ys - xs) % p == 0
    points = [(int(x), int(y)) for x, y in zip(xs[on], ys[on])]
    size = len(points)

    fibre_counts: dict[tuple[int, int], int] = {}
    excluded = 0
    for u in range(p):
        denom = (1 + k * u * u) % p
        if denom == 0:
            excluded += 1
            continue
        d_inv = inv_mod(denom, p)
        pt = (d_inv, (u * d_inv) % p)
        if (pt[0] * pt[0] + k * pt[1] * pt[1] - pt[0]) % p != 0:
            raise AssertionError("parametrised point fell off the conic")
        fibre_counts[pt] = fibre_counts.get(pt, 0) + 1
    max_fibre = max(fibre_counts.values()) if fibre_counts else 0

    reps = np.zeros(p * p, dtype=np.int64)
    pts = np.array(points, dtype=np.int64)
    sums_x = (pts[:, 0][:, None] + pts[:, 0][None, :]) % p
    sums_y = (pts[:, 1][:, None] + pts[:, 1][None, :]) % p
    np.add.at(reps, (sums_x * p + sums_y).ravel(), 1)
    max_reps = int(reps.max())
    argmax_key = int(reps.argmax())
    centre_key = 1 * p + 0
    centre_reps = int(reps[centre_key])
    off = reps.copy()
    off[centre_key] = 0
    energy = int(np.sum(reps**2))
    return ConicReport(
        p=p,
        k=k,
        size=size,
        points=points,
        max_fibre=max_fibre,
        excluded_parameters=excluded,
        max_representations=max_reps,
        max_representations_argmax=(argmax_key // p, argmax_key % p),
        centre_representations=centre_reps,
        max_representations_off_centre=int(off.max()),
        energy=energy,
        energy_reference=2 * size * size,
        representation_flag=max_reps > 2,
    )


@dataclass
class ShearInvarianceReport:
    trials: int
    seed: int
    max_difference: float


def difference_spectrum_invariance(
    ctx: BorelContext, f: mixing.GroupFunction, trials: int = 100, seed: int = 0
) -> ShearInvarianceReport:
    """Check that |dft(Delta_h f_x)(xi)| depends on x only through pi(x).

    Delta_h g(a) := g(a) g(a+h); x and x' = shear(k) x share all these
    magnitudes, since the restriction is just translated by k.
    """
    p = ctx.p
    rng = np.random.default_rng(seed)
    worst = 0.0
    vals = np.asarray(f.values, dtype=complex)
    for _ in range(trials):
        x_idx = int(rng.integers(ctx.group.size))
        k = int(rng.integers(p))
        h = int(rng.integers(p))
        xi = int(rng.integers(p))
        x2_idx = int(ctx.shear_mul_index[k, x_idx])
        r1 = vals[ctx.shear_mul_index[:, x_idx]]
        r2 = vals[ctx.shear_mul_index[:, x2_idx]]
        d1 = r1 * np.roll(r1, -h)
        d2 = r2 * np.roll(r2, -h)
        diff = abs(abs(dft(d1)[xi]) - abs(dft(d2)[xi]))
        worst = max(worst, float(diff))
    return ShearInvarianceReport(trials=trials, seed=seed, max_difference=worst)
