"""Reduced spectral norms of convolution operators, and expansion checks.

The reduced spectral norm of mu: G -> C is the operator norm of the right
convolution f -> f * mu restricted to mean-zero f, with the averaged L^2
norm on both sides.  spectral_norm computes it for any mu from three
(n / p) x (n / p) blocks on a full SL_2(F_p) or Borel table (`_isotypic_norm`),
and from the full SVD of the n x n convolution matrix, up to FULL_SVD_LIMIT
elements, on any other table (CyclicTable, the shears, SL_3, subsets).

A class function mu acts on each irreducible representation rho as the
scalar sum_g mu(g) chi_rho(g) / chi_rho(1), and the character of rho is a
class function carrying that scalar, so class_function_norm works on the k
conjugacy classes instead of the n elements: it builds the k x k matrix of
the operator on class indicators from k shift permutations, rescales it to
an orthonormal basis, projects off the constants and takes its norm.  No
n x n array is formed; class_expansion uses this path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import mixing
from .budget import OP_BUDGET, charge
from .groups import conjugacy_classes, element, special_linear_group, table_kind
from .fields import inv_mod, is_square_mod

FULL_SVD_LIMIT = 5000


@dataclass
class QuasirandomnessParameter:
    """Lower bound on the dimension of nontrivial unitary representations."""

    D: float
    provenance: str = "configured"

    def __post_init__(self):
        if self.D < 1:
            raise ValueError("quasirandomness parameter must be >= 1")


def classical_sl2_parameter(p: int) -> QuasirandomnessParameter:
    """The classical minimal nontrivial representation degree (p-1)/2 for
    SL_2(F_p)."""
    return QuasirandomnessParameter((p - 1) / 2, "classical_formula")


def convolution_matrix(table, mu) -> np.ndarray:
    """Matrix of f -> f * mu: out[x, y] = mu(y^-1 x).  Charges its n^2 entries."""
    vals = np.asarray(mu)
    n = table.size
    charge(n * n, OP_BUDGET, f"{n} x {n} convolution matrix")
    out = np.empty((n, n), dtype=vals.dtype if np.iscomplexobj(vals) else np.float64)
    inv = table.inv_perm()
    for y in range(n):
        out[:, y] = vals[table.lmul_perm(int(inv[y]))]
    return out


def spectral_norm(table, mu) -> float:
    """Reduced spectral norm of mu: from U-blocks on full SL_2(F_p) and Borel
    tables, from the full SVD of the convolution matrix on any other table."""
    vals = np.asarray(mu)
    if table_kind(table) is not None and table.d == 2:
        return _isotypic_norm(table, vals)
    if table.size > FULL_SVD_LIMIT:
        raise ValueError(f"table of size {table.size} exceeds the full SVD limit {FULL_SVD_LIMIT}")
    mat = convolution_matrix(table, vals)
    mat -= mat.mean(axis=1, keepdims=True)  # restrict the domain to mean-zero f
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def _isotypic_norm(table, vals: np.ndarray) -> float:
    """Reduced norm of mu on a full SL_2(F_p) or Borel table.

    f -> f * mu commutes with left translations, so it preserves
    V_psi = {f : f(u y) = psi(u) f(y)} for each character psi of U, where it
    is the k x k block M_psi[r, s] = sum_{w in U} conj psi(w) mu(y_s^-1 w y_r)
    on the k = n / p cosets U y_r.  Every nontrivial irreducible
    representation holds a U-fixed vector or a psi_a, and the torus moves
    psi_a within the square class of a, so the reduced norm is the largest
    norm of the blocks of psi_0 (constants projected off), psi_1 and psi_eps,
    eps a non-square.  For real mu the psi_0 block is real and takes a real
    SVD; the other two stay complex.  Column s is one lmul_perm gather of mu;
    the k n gathered values are charged first.

    Row r of `grid` holds w_t y_r, t = 0, .., p - 1, for w_t = [[1, t], [0, 1]]
    and y_r the first element with the r-th bottom row: w_t y keeps y's bottom
    row and adds t times it to the top row, so t = det(row0(y_r); row0(w_t y_r)).
    """
    n, p, mats = table.size, table.p, table.mats
    charge(n // p * n, OP_BUDGET, f"{n // p} U-isotypic columns on {n} elements")
    _, first, coset = np.unique(mats[:, 1] @ [p, 1], return_index=True, return_inverse=True)
    rep, top = mats[first[coset], 0], mats[:, 0]
    t = (rep[:, 0] * top[:, 1] - rep[:, 1] * top[:, 0]) % p
    grid = np.lexsort((t, coset)).reshape(-1, p)
    eps = next(a for a in range(2, p) if not is_square_mod(a, p))
    chars = np.exp(-2j * np.pi * np.outer(np.arange(p), [0, 1, eps]) / p)
    blocks = np.empty((3, len(grid), len(grid)), dtype=complex)
    inv, order = table.inv_perm(), grid.ravel()
    for s, y in enumerate(grid[:, 0]):
        gathered = vals[table.lmul_perm(int(inv[y]))[order]].reshape(grid.shape)
        blocks[:, :, s] = (gathered @ chars).T
    blocks[0] -= blocks[0].mean(axis=1, keepdims=True)
    # psi_0 has every character value 1, so its block is real for real mu.
    psi0 = blocks[0] if np.iscomplexobj(vals) else blocks[0].real
    return float(max(np.linalg.svd(psi0, compute_uv=False)[0],
                     np.linalg.svd(blocks[1:], compute_uv=False)[:, 0].max()))


def _class_sums(labels: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    if np.iscomplexobj(weights):
        return _class_sums(labels, weights.real, k) + 1j * _class_sums(labels, weights.imag, k)
    return np.bincount(labels, weights, minlength=k)


def class_function_norm(table, mu) -> float:
    """Reduced spectral norm of a class function mu, from the class algebra.

    M[l, j] = (1_{C_j} * mu)(x_l) at the representative x_l of class l is the
    operator on class indicators; N = S M S^-1 with S = diag(sqrt |C_j|) is
    the same operator in the orthonormal basis 1_{C_j} / sqrt |C_j|, so it is
    normal.  Its norm off the constant direction v_j = sqrt(|C_j| / n) is the
    reduced norm.  Costs k shift permutations for k classes.
    """
    vals = np.asarray(mu)
    labels = conjugacy_classes(table)
    _, reps, sizes = np.unique(labels, return_index=True, return_counts=True)
    if np.any(vals != vals[reps][labels]):
        raise ValueError("mu is not constant on conjugacy classes")
    k, n = len(reps), table.size
    charge(k * n, OP_BUDGET, f"class-sum matrix of {k} classes on {n} elements")
    inv = table.inv_perm()
    m = np.array([_class_sums(labels, vals[table.rmul_perm(int(x))[inv]], k) for x in reps])
    root = np.sqrt(sizes)
    normal = m * root[:, None] / root
    proj = np.eye(k) - np.outer(root, root) / n
    return float(np.linalg.norm(proj @ normal @ proj, 2))


def cyclic_spectral_oracle(mu) -> float:
    """max over nonzero frequencies of |sum_x mu(x) e(-xi x / n)| on Z_n."""
    vals = np.asarray(mu, dtype=complex)
    n = len(vals)
    best = 0.0
    for xi in range(1, n):
        s = np.sum(vals * np.exp(-2j * np.pi * xi * np.arange(n) / n))
        best = max(best, abs(s))
    return best


@dataclass
class SpectralBoundsReport:
    norm: float
    l1_bound: float
    l2_bound: float
    split_bound: float
    c0: float
    quasi_d: float
    holds: bool = field(init=False)

    def __post_init__(self):
        slack = 1e-10
        self.holds = (
            self.norm <= self.l1_bound + slack
            and self.norm <= self.l2_bound + slack
            and self.norm <= self.split_bound + slack
        )


def check_spectral_bounds(table, mu, quasi: QuasirandomnessParameter, c0: float = 4.0):
    """Compare the reduced spectral norm against its three standard bounds:
    the l1 mass, the quasirandom l2 bound D^(-1/2) |G|^(1/2) |mu|_2, and the
    split bound C0 D^(-1/2) + (mass above the C0/|G| level)."""
    vals = np.asarray(mu)
    n = table.size
    norm = spectral_norm(table, mu)
    l1 = float(np.sum(np.abs(vals)))
    l2 = float(np.sqrt(np.sum(np.abs(vals) ** 2)))
    heavy = float(np.sum(np.abs(vals)[np.abs(vals) > c0 / n]))
    d = quasi.D
    return SpectralBoundsReport(
        norm=norm,
        l1_bound=l1,
        l2_bound=d ** -0.5 * np.sqrt(n) * l2,
        split_bound=c0 * d**-0.5 + heavy,
        c0=c0,
        quasi_d=d,
    )


@dataclass
class InequalityReport:
    lhs: float
    rhs: float
    quasi_d: float
    margin: float = field(init=False)
    holds: bool = field(init=False)

    def __post_init__(self):
        self.margin = self.rhs - self.lhs
        self.holds = self.lhs <= self.rhs + 1e-10


def check_bnp_inequality(
    table, f1: mixing.GroupFunction, f2: mixing.GroupFunction, quasi: QuasirandomnessParameter
) -> InequalityReport:
    """|f1 * f2|_L2 <= D^(-1/2) |G| |f1|_L2 |f2|_L2, one factor mean-zero."""
    tol = 1e-9
    if abs(f1.mean()) > tol and abs(f2.mean()) > tol:
        raise ValueError("at least one factor must have mean zero")
    conv = mixing.convolve(f1, f2)
    lhs = conv.l2_norm()
    rhs = quasi.D**-0.5 * table.size * f1.l2_norm() * f2.l2_norm()
    return InequalityReport(lhs=lhs, rhs=rhs, quasi_d=quasi.D)


def check_two_point_mixing(
    table, f1: mixing.GroupFunction, f2: mixing.GroupFunction, quasi: QuasirandomnessParameter
) -> InequalityReport:
    """Two-term deviation form against D^(-1/2) |f1|_L2 |f2|_L2."""
    dev = mixing.progression_deviation(table, [f1, f2]).value
    rhs = quasi.D**-0.5 * f1.l2_norm() * f2.l2_norm()
    return InequalityReport(lhs=dev, rhs=rhs, quasi_d=quasi.D)


@dataclass
class TTStarReport:
    norm: float
    norm_squared: float
    composed_norm: float
    relative_difference: float


def tt_star_check(table, mu) -> TTStarReport:
    """Compare |mu * mu~|_S with |mu|_S^2, mu~(g) = conj(mu(g^-1))."""
    vals = np.asarray(mu)
    tilde = np.conj(vals[table.inv_perm()])
    f_mu = mixing.GroupFunction(vals, table)
    f_tilde = mixing.GroupFunction(tilde, table)
    composed = mixing.convolve(f_mu, f_tilde)
    norm = spectral_norm(table, vals)
    composed_norm = spectral_norm(table, composed.values)
    rel = abs(composed_norm - norm**2) / max(norm**2, 1e-300)
    return TTStarReport(
        norm=norm,
        norm_squared=norm**2,
        composed_norm=composed_norm,
        relative_difference=rel,
    )


@dataclass
class ClassExpansionRow:
    p: int
    group_order: int
    class_size: int
    norm: float
    ratio: float


@dataclass
class ClassExpansionReport:
    rows: list[ClassExpansionRow]
    fitted_exponent: float
    strictly_decreasing: bool


def _expansion_base_point(p: int, selector: str, torus_eigenvalue: int | None):
    if selector == "unipotent":
        return element([[1, 1], [0, 1]], p)
    if selector == "split_torus":
        lam = 2 if torus_eigenvalue is None else torus_eigenvalue % p
        if lam % p in (0, 1, p - 1):
            raise ValueError(
                f"eigenvalue {lam} gives a central or non-regular element mod {p}"
            )
        return element([[lam, 0], [0, inv_mod(lam, p)]], p)
    raise ValueError(f"unknown selector {selector!r}")


def class_expansion(
    primes, selector: str = "unipotent", torus_eigenvalue: int | None = None
) -> ClassExpansionReport:
    """Ratio |1_C(a)|_S / |C(a)| across primes, with a log-log slope fit.

    The base point a must be non-central; the ratio is expected to decay
    like p^(-c) for some c > 0, and -slope is reported as the fitted c.
    """
    rows = []
    for p in primes:
        a = _expansion_base_point(p, selector, torus_eigenvalue)
        tbl = special_linear_group(2, p)
        arr = a.array()
        if arr[0, 1] == 0 and arr[1, 0] == 0 and arr[0, 0] == arr[1, 1]:
            raise ValueError("base point is central; expansion needs a non-central class")
        labels = conjugacy_classes(tbl)
        ind = (labels == labels[tbl.index_of(a)]).astype(np.float64)
        norm = class_function_norm(tbl, ind)
        class_size = int(ind.sum())
        rows.append(
            ClassExpansionRow(
                p=p,
                group_order=tbl.size,
                class_size=class_size,
                norm=norm,
                ratio=norm / class_size,
            )
        )
    logs_p = np.log([r.p for r in rows])
    logs_r = np.log([r.ratio for r in rows])
    slope = float(np.polyfit(logs_p, logs_r, 1)[0]) if len(rows) > 1 else float("nan")
    decreasing = all(rows[i].ratio > rows[i + 1].ratio for i in range(len(rows) - 1))
    return ClassExpansionReport(rows=rows, fitted_exponent=-slope, strictly_decreasing=decreasing)
