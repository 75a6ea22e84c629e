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

In shear coordinates the progression is a linear pattern: for
x = [[s, u], [0, 1/s]] and g = [[t, a], [0, 1/t]],

    x g^i = [[s t^i, t^-i (u + c_i lam)], [0, (s t^i)^-1]],   lam = s t a,

with c_i = 1 + t^2 + .. + t^(2(i-1)), the coefficients whose Fourier side
`zero_frequency_mass` measures.  One kernel sums the four-term products
directly over (t, s, u, lam), n^2 of them, and both `four_term_average` and
`sheared_average` are reductions of its sum.

Each statistic has one code path for every dtype.  The four-term averages
and `zero_frequency_mass` reduce exact inputs, integer or rational (see
`mixing.GroupFunction`), exactly to a Fraction, over their numerators and
divided once by their denominators, and give a float otherwise; the sheared
kernel multiplies exact inputs in the narrowest integer type that holds
their products, and forms partial sums of n products, in the narrowest type
that holds n of them.  The U-smoothed functions average over each coset
x U = U x (U is normal in B), which is a row of B's (t, a) coordinates, with
no permutation.
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
from .groups import GroupTable, borel_subgroup, field_inverses, parabolic_coordinates


@dataclass
class BorelContext:
    """Precomputed index tables for shear-coordinate computations on B."""

    p: int
    group: GroupTable  # upper-triangular subgroup, order p(p-1)
    shear_mul_index: np.ndarray  # (p, |B|): index of shear(a) * x in `group`
    pi_section: np.ndarray  # t -> index in `group` of a diagonal x with pi(x) = t


@lru_cache(maxsize=16)
def borel_context(p: int) -> BorelContext:
    """The context of B(F_p), every index array a closed form in the entries
    t and a of B's `parabolic_coordinates(2, p).elements`, where element
    (t - 1) p + a is [[t, a], [0, t^-1]]: shear(s) x = [[t, a + s / t],
    [0, t^-1]], and diag(1 / t, t) is element (1 / t - 1) p."""
    h = parabolic_coordinates(2, p).elements
    t, a, inverse = h[:, 0, 0], h[:, 0, 1], field_inverses(p)
    s = np.arange(p)
    section = (inverse - 1) * p
    section[0] = 0
    return BorelContext(
        p=p,
        group=borel_subgroup(p),
        shear_mul_index=(t - 1) * p + (a + s[:, None] * inverse[t]) % p,
        pi_section=section,
    )


def four_term_average(ctx: BorelContext, fs) -> mixing.MixingResult:
    """E_{x,g in B} f0(x) f1(xg) f2(xg^2) f3(xg^3), exactly: the sum of the
    shear-coordinate kernel, reduced as `mixing.average_from_total`."""
    return mixing.average_from_total(fs, _sheared_sum(ctx, fs), ctx.group.size)


def _smooth(ctx: BorelContext, f: mixing.GroupFunction) -> mixing.GroupFunction:
    """f * mu_U, mu_U uniform on the shears u_s = [[1, s], [0, 1]].

    Its value at x is E_s f(x u_s^-1), the mean of f over the coset x U = U x,
    which is x's row t of B's (t, a) coordinates; x -> x u_-s is the index
    arithmetic `parabolic_coordinates(2, p).rows` of u_-s, element -s mod p
    of B.  The terms f(x u_-s) / p are added for s = 0 .. p - 1, as a
    convolution with mu_U adds them, so the values are bit for bit those of
    one.  Charges the p n of that convolution, and assembles no permutation.
    """
    p, n = ctx.p, ctx.group.size
    charge(p * n, OP_BUDGET, f"U-smoothing on {n} elements")
    scaled = f.values * np.float64(1 / p)
    out = np.zeros(n, dtype=scaled.dtype)
    for row in parabolic_coordinates(2, p).rows(-np.arange(p) % p):
        out += scaled[row]
    return mixing.GroupFunction(out, ctx.group)


def smoothed(ctx: BorelContext, fs) -> list[mixing.GroupFunction]:
    """The U-smoothed functions f * mu_U, constant on the shear cosets U x."""
    return [_smooth(ctx, f) for f in fs]


def smoothing_gap(ctx: BorelContext, fs) -> float:
    """|four-term average of fs - four-term average of the U-smoothed fs|."""
    raw = four_term_average(ctx, fs).value
    return abs(raw - four_term_average(ctx, smoothed(ctx, fs)).value)


def _sheared_layers(ctx: BorelContext, fs):
    """Per-t slices of the four-term products, in shear coordinates.

    For x = [[s, u], [0, 1/s]] and g = [[t, a], [0, 1/t]] in B,

        x g^i = [[s t^i, t^-i (u + c_i lam)], [0, (s t^i)^-1]],   lam = s t a,

    with c_i = 1 + t^2 + .. + t^(2(i-1)).  For fixed s and t, a -> lam is a
    bijection of F_p, so the (x, g) with upper-left entry t of g are the
    (s, u, lam) in Fx x F_p x F_p.  Yields one slice per t = 1 .. p - 1, of
    shape (p - 1, p, p) and entry (s, u, lam) = prod_i f_i(x g^i).  With the
    values of `mixing.kernel_values` laid out as B's (T, A) grid (element
    (T - 1) p + A is [[T, A], [0, 1/T]]), factor i takes the rows s t^i mod p
    and then, from each, the (p, p) columns t^-i (u + c_i lam) mod p.  No
    permutation is assembled, and no n p index: the largest transient is
    one slice of n p values.  The slice is one reused buffer.
    """
    p = ctx.p
    inverse = field_inverses(p)
    grids = [v.reshape(p - 1, p) for v in mixing.kernel_values(fs)]
    s = np.arange(1, p)
    u, lam = np.arange(p)[:, None], np.arange(p)
    f0 = grids[0][:, :, None]  # f_0(x) does not depend on lam
    block = np.empty((p - 1, p, p), dtype=np.result_type(*grids))
    for t in range(1, p):
        w, power, c, lhs = t * t % p, 1, 0, f0  # power = t^i, c = c_i
        for grid in grids[1:]:
            power, c = power * t % p, (1 + w * c) % p
            factor = grid[s * power % p - 1].take(inverse[power] * (u + c * lam) % p, axis=1)
            np.multiply(lhs, factor, out=block)
            lhs = block
        yield block


def _sheared_sum(ctx: BorelContext, fs):
    """sum_{x, g in B} prod_i f_i(x g^i), the one kernel of the four-term
    average on B, over the slices of `_sheared_layers`.

    Each slice of n p products is summed as p partial sums of n consecutive
    products (in (s, u, lam) order), in the dtype `mixing.sum_dtype` gives n
    products: so integer inputs are refused with a ValueError exactly when a
    row of the plain sweep over B, which sums n products, would be.  The
    partial sums are added as Python numbers, in order: a Python int for
    integer inputs, else a float (complex for complex input).  Charges
    4 n^2, the products formed.
    """
    if len(fs) != 4 or any(f.table is not ctx.group for f in fs):
        raise ValueError("need exactly four functions on the context's group")
    n = ctx.group.size
    charge(4 * n * n, OP_BUDGET, f"shear-coordinate 4-term average on {n} elements")
    acc = mixing.sum_dtype(fs, n)
    return sum(x for block in _sheared_layers(ctx, fs)
               for x in block.reshape(ctx.p, n).sum(axis=1, dtype=acc).tolist())


def sheared_average(ctx: BorelContext, fs) -> float | Fraction:
    """The 4-term average computed in shear coordinates: the sum of the
    kernel `four_term_average` reduces, over n^2.  Exact inputs, integer or
    rational, give the exact Fraction, the kernel's sum of numerators divided
    by their Q; other inputs a float (complex for complex input)."""
    total, n = _sheared_sum(ctx, fs), ctx.group.size
    q = mixing.exact_denominator(fs)
    return total / (n * n) if q is None else Fraction(total, q * n * n)


def sheared_average_exact(ctx: BorelContext, fs) -> float | Fraction:
    """sheared_average under a second name, so a trace can time it apart."""
    return sheared_average(ctx, fs)


def _check_coset_mean_zero(ctx: BorelContext, f: mixing.GroupFunction, tol: float = 1e-9):
    worst = float(np.max(np.abs(_smooth(ctx, f).values)))
    if worst > tol:
        raise ValueError(
            f"function must have mean zero on every shear coset "
            f"(worst coset mean {worst:.3g})"
        )


def _autocorrelations(ctx: BorelContext, values: np.ndarray) -> np.ndarray:
    """Row t - 1 is h -> sum_a r(a) conj(r(a + h)) for the shear restriction
    r(a) = f(shear(a) x) at the x with pi(x) = t, for t = 1 .. p - 1, where
    f has the given values."""
    p = ctx.p
    r = values[ctx.shear_mul_index[:, ctx.pi_section[1:]]].T  # (p - 1, p)
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
    autocorrelation of the restriction of f_i.  Exact f_1, f_2, f_3, integer
    or rational, give the exact Fraction, other inputs the real part as a
    float.  Charges the 3 (p-1) p^2 autocorrelation and (p-1)^2 p summation
    operations.  Exact inputs are summed in int64 over their numerators, Q^2
    times the true sum for Q = q_1 q_2 q_3, and refused with a ValueError
    when (p-1) p prod_i (p max|f_i|^2), in numerators the bound of one t's
    sum, exceeds its maximum.
    """
    if i0 not in (2, 3):
        raise ValueError("i0 must be 2 or 3")
    p = ctx.p
    charge(3 * (p - 1) * p * p + (p - 1) ** 2 * p, OP_BUDGET, "zero-frequency mass")
    _check_coset_mean_zero(ctx, fs[i0])
    # A_i(h) sums p products f_i f_i, so one t's sum is bounded like a sum of
    # (p - 1) p^4 products of f_1, f_2, f_3 taken twice each.
    mixing.sum_dtype([fs[i] for i in (1, 2, 3)] * 2, (p - 1) * p**4)
    q = mixing.exact_denominator(fs[1:4])
    a1, a2, a3 = (_autocorrelations(ctx, v) for v in mixing.numerators_or_values(fs[1:4]))
    h = np.arange(p)
    s = np.arange(1, p)
    total = 0
    for t in range(1, p):
        c2 = (1 + t * t) % p
        c3 = (1 + t * t + pow(t, 4, p)) % p
        terms = a1[s - 1] * a2[s * t % p - 1][:, c2 * h % p]
        total += (terms * a3[s * t * t % p - 1][:, c3 * h % p]).sum().item()
    scale = (p - 1) ** 2 * p**4
    return total.real / scale if q is None else Fraction(total, q * q * scale)


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


def conic_sizes(p: int) -> np.ndarray:
    """Point counts of the conics x^2 + k y^2 = x over F_p for k = 2, .., p - 1.

    Entry k - 2 equals `conic_analysis(p, k).size`; all p - 2 counts come
    from one pass over the (k, x, y) grid.
    """
    r = np.arange(p)
    on = ((r * r - r)[:, None] + r[2:, None, None] * (r * r)) % p == 0
    return np.count_nonzero(on, axis=(1, 2))


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
