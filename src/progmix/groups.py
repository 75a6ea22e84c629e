"""Enumeration and indexing of SL_d(F_p) and its substructures.

A GroupTable stores its elements as one (n, d, d) integer array, sorted in
lexicographic order of the flattened entries, so every index is reproducible
across runs.  An element's key is its flattened entries read as a base-p
number.  No n x n multiplication table is ever materialised.

Lookup.  A full SL_d(F_p) table maps keys to indices through one dense
int32 table over all p^(d^2) keys (-1 where a key is absent), built on the
first lookup: 3.7 MB at p = 31 for d = 2, and 79 KB at p = 3, 7.8 MB at
p = 5 and 161 MB at p = 7 for d = 3.  The default enumeration budget stops
SL_3 at p = 7, whose full table holds 405 MB of matrices, so the index of a
full table is about p / 18 of the matrices it indexes (p / 8 for d = 2).  Any
other table (B, a centralizer, a class, a subset) looks its keys up by
binary search in its sorted keys, and allocates no index: a dense index of
B(F_211) would take 7.9 GB.

Shift permutations.  Row i of x g is (row i of x) g, so right multiplication
by g acts on each row separately, as a permutation of the p^d row vectors of
F_p^d.  rmul_perm builds that image table once per g and assembles every key
of x g from the cached row keys of x, with no per-element product or
reduction mod p; lmul_perm does the same for g x with the columns.

Bruhat layout.  For SL_d(F_p), d = 2 or 3, H is the stabiliser of the
line through the bottom row, the Borel subgroup B for d = 2, and the right
coset H g is labelled by `_bottom_row_lines` of g's bottom row: L = p + 1
lines for d = 2 and p^2 + p + 1 for d = 3.  parabolic_coordinates holds H's
elements and arithmetic, so that x -> x h for h in H is an index array
computed in O(|H|), and the identity or w v, v in H, as each line's
representative r_l.  So G is the disjoint union of the left cosets
r_l^-1 H, and cell (b, l) of an (|H|, L) grid holds r_l^-1 b:
special_linear_group enumerates the table from the grid's cells, and
borel_subgroup is H for d = 2, whose element [[t, a], [0, t^-1]] has index
(t - 1) p + a, the sorted order of its keys.  bruhat_layout finds each cell
in the table with one lookup, so that x -> x h for h in H is a row take, and
x -> x w one cached index array; bruhat_split writes each g as h r from g's
entries with one batched product and no lookup.  Since x g = (x h) r, no
split sweep of mixing.shift_sums assembles a permutation, and the sheared
kernel of borel gathers x g^i on B as a closed form in the entries of x and
g.  The layout holds four n-element index arrays and no |H| x |H| array:
157 KB at p = 17 and 952 KB at p = 31 for d = 2, and 180 KB for SL_3(F_3),
whose coordinates add 62 KB, half of it the elements of H.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .budget import ENUMERATION_BUDGET, OP_BUDGET, charge
from .fields import FieldElement, check_odd_prime, inv_mod, squares_mod


@dataclass(frozen=True)
class GroupElement:
    """A d x d matrix over F_p with determinant one."""

    entries: tuple[tuple[int, ...], ...]
    p: int

    def __post_init__(self):
        check_odd_prime(self.p)
        rows = tuple(tuple(int(e) % self.p for e in row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        d = len(rows)
        if any(len(row) != d for row in rows):
            raise ValueError("matrix must be square")

    @property
    def d(self) -> int:
        return len(self.entries)

    def array(self) -> np.ndarray:
        return np.array(self.entries, dtype=np.int64)

    def __repr__(self) -> str:
        rows = "; ".join(" ".join(str(e) for e in row) for row in self.entries)
        return f"[{rows}] (mod {self.p})"


def _as_array(x, p: int | None = None) -> tuple[np.ndarray, int]:
    """Coerce a GroupElement or array-like to an int64 array plus modulus."""
    if isinstance(x, GroupElement):
        if p is not None and x.p != p:
            raise ValueError(f"modulus mismatch: {x.p} vs {p}")
        return x.array(), x.p
    if p is None:
        raise ValueError("a raw matrix needs an explicit modulus")
    return np.asarray(x, dtype=np.int64) % p, p


def element(mat, p: int) -> GroupElement:
    return GroupElement(tuple(tuple(int(e) for e in row) for row in np.asarray(mat)), p)


def identity_element(d: int, p: int) -> GroupElement:
    return element(np.eye(d, dtype=np.int64), p)


def mat_mul(x: GroupElement, y: GroupElement) -> GroupElement:
    """Matrix product over the common prime field."""
    if x.p != y.p or x.d != y.d:
        raise ValueError("operands must share the same dimension and modulus")
    return element(x.array() @ y.array() % x.p, x.p)


def mat_inv(x: GroupElement) -> GroupElement:
    """Inverse of a determinant-one matrix, via the adjugate."""
    return element(_inverse_many(x.array()[None], x.p)[0], x.p)


def mat_trace(x: GroupElement) -> FieldElement:
    return FieldElement(int(np.trace(x.array())), x.p)


def _mul_many(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Batched product of (..., d, d) integer matrices modulo p."""
    return np.matmul(a, b) % p


def _det_many(mats: np.ndarray, p: int) -> np.ndarray:
    d = mats.shape[-1]
    if d == 1:
        return mats[..., 0, 0] % p
    if d == 2:
        return (mats[..., 0, 0] * mats[..., 1, 1] - mats[..., 0, 1] * mats[..., 1, 0]) % p
    a, b, c = mats[..., 0, 0], mats[..., 0, 1], mats[..., 0, 2]
    d0, e, f = mats[..., 1, 0], mats[..., 1, 1], mats[..., 1, 2]
    g, h, i = mats[..., 2, 0], mats[..., 2, 1], mats[..., 2, 2]
    return (a * (e * i - f * h) - b * (d0 * i - f * g) + c * (d0 * h - e * g)) % p


def _inverse_many(mats: np.ndarray, p: int) -> np.ndarray:
    """Batched inverse of determinant-one (..., d, d) matrices (adjugate)."""
    d = mats.shape[-1]
    out = np.empty_like(mats)
    if d == 2:
        out[..., 0, 0] = mats[..., 1, 1]
        out[..., 0, 1] = -mats[..., 0, 1]
        out[..., 1, 0] = -mats[..., 1, 0]
        out[..., 1, 1] = mats[..., 0, 0]
        return out % p
    if d == 3:
        for i in range(3):
            for j in range(3):
                r = [k for k in range(3) if k != j]
                c = [k for k in range(3) if k != i]
                minor = (
                    mats[..., r[0], c[0]] * mats[..., r[1], c[1]]
                    - mats[..., r[0], c[1]] * mats[..., r[1], c[0]]
                )
                out[..., i, j] = (-1) ** (i + j) * minor
        return out % p
    raise ValueError(f"unsupported dimension {d}")


class GroupTable:
    """Immutable indexed enumeration of a set of SL_d(F_p) matrices.

    When `check_group` is set the constructor verifies the identity and all
    inverses are present and spot-checks closure under products; the full
    closure properties of the subgroup constructors are exercised in tests.
    """

    def __init__(self, mats, p: int, label: str, check_group: bool = False):
        check_odd_prime(p)
        mats = np.asarray(mats, dtype=np.int64) % p
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError("expected an (n, d, d) array of matrices")
        self.p = p
        self.d = int(mats.shape[1])
        self.label = label
        keys = self._encode(mats)
        order = np.argsort(keys)  # distinct keys, or the table is refused: any sort will do
        keys = keys[order]
        if np.any(np.diff(keys) == 0):
            raise ValueError("duplicate elements in table")
        self._keys = keys
        self.mats = mats = mats.take(order, axis=0)  # frees the unsorted copy
        self.mats.setflags(write=False)
        self._keys.setflags(write=False)
        self.size = int(len(self.mats))
        self._digit_weights = p ** np.arange(self.d - 1, -1, -1, dtype=np.int64)
        self._inv_perm_cache: np.ndarray | None = None
        self._inv_mats_cache: np.ndarray | None = None
        bad = _det_many(self.mats, p) != 1
        if np.any(bad):
            raise ValueError("table contains a matrix of determinant != 1")
        if check_group:
            self._check_group()

    def _encode(self, mats: np.ndarray) -> np.ndarray:
        if len(mats) == 0:
            return np.empty(0, dtype=np.int64)
        flat = mats.reshape(len(mats), -1)
        weights = self.p ** np.arange(flat.shape[1] - 1, -1, -1, dtype=np.int64)
        return flat @ weights

    def _check_group(self) -> None:
        if self.identity_index is None:
            raise ValueError(f"{self.label}: identity missing")
        self.inv_perm()  # raises if some inverse is absent
        probe = min(self.size, 8)
        prods = _mul_many(self.mats[:probe, None], self.mats[None, :], self.p)
        self.indices_of(prods.reshape(-1, self.d, self.d))

    def __len__(self) -> int:
        return self.size

    @cached_property
    def _dense_index(self) -> np.ndarray:
        """Index of every key of a d x d matrix mod p, -1 where absent."""
        dense = np.full(self.p ** (self.d * self.d), -1, dtype=np.int32)
        dense[self._keys] = np.arange(self.size, dtype=np.int32)
        return dense

    def _lookup(self, keys: np.ndarray) -> np.ndarray:
        """Index of each key, -1 where the key is not in the table.

        A full SL_d(F_p) table reads the dense index; any other table, whose
        dense index would be sized by p^(d^2) and not by the table, searches
        its sorted keys."""
        if self.size == special_linear_order(self.d, self.p):
            return self._dense_index[keys].astype(np.intp)
        if not self.size:
            return np.full(np.shape(keys), -1, dtype=np.intp)
        where = np.searchsorted(self._keys, keys)
        return np.where(self._keys.take(where, mode="clip") == keys, where, -1)

    def _indices(self, keys: np.ndarray) -> np.ndarray:
        idx = self._lookup(keys)
        if np.any(idx < 0):
            raise KeyError(f"element not in table '{self.label}'")
        return idx

    def _find(self, mat: np.ndarray) -> int:
        """Index of one matrix, -1 when it is not in the table."""
        return int(self._lookup(self._encode(mat[None]))[0])

    def __contains__(self, x) -> bool:
        return self._find(_as_array(x, self.p)[0]) >= 0

    def indices_of(self, mats: np.ndarray) -> np.ndarray:
        """Indices of the given (n, d, d) matrices; raises if any is absent."""
        return self._indices(self._encode(np.asarray(mats, dtype=np.int64) % self.p))

    def index_of(self, x) -> int:
        mat, _ = _as_array(x, self.p)
        return int(self.indices_of(mat[None])[0])

    def element(self, i: int) -> GroupElement:
        return element(self.mats[i], self.p)

    @property
    def identity_index(self) -> int | None:
        i = self._find(np.eye(self.d, dtype=np.int64))
        return i if i >= 0 else None

    def inv_mats(self) -> np.ndarray:
        if self._inv_mats_cache is None:
            self._inv_mats_cache = _inverse_many(self.mats, self.p)
            self._inv_mats_cache.setflags(write=False)
        return self._inv_mats_cache

    def inv_perm(self) -> np.ndarray:
        """Index permutation sending each element to its inverse."""
        if self._inv_perm_cache is None:
            self._inv_perm_cache = self.indices_of(self.inv_mats())
            self._inv_perm_cache.setflags(write=False)
        return self._inv_perm_cache

    @cached_property
    def _row_keys(self) -> np.ndarray:
        """(d, n) array: entry (i, x) is the base-p key of row i of element x."""
        return np.ascontiguousarray((self.mats @ self._digit_weights).T)

    @cached_property
    def _col_keys(self) -> np.ndarray:
        """(d, n) array: entry (j, x) is the base-p key of column j of element x."""
        return np.ascontiguousarray((self._digit_weights @ self.mats).T)

    def _image_indices(self, parts: np.ndarray, image: np.ndarray, scales: np.ndarray):
        """Indices of the products whose key is sum_t scales[t] * image[parts[t]]."""
        spread = scales[:, None] * image
        keys = spread[0][parts[0]]
        for t in range(1, self.d):
            keys += spread[t][parts[t]]
        return self._indices(keys)

    def rmul_perm(self, gi: int) -> np.ndarray:
        """Indices of x * g over all table elements x, for g = element gi.

        image[u] is the key of the row vector u g; row i of x g is then
        image[row i of x], and contributes at weight p^(d (d - 1 - i)).
        """
        w = self._digit_weights
        image = (_vectors(self.d, self.p) @ self.mats[gi] % self.p) @ w
        return self._image_indices(self._row_keys, image, w**self.d)

    def lmul_perm(self, gi: int) -> np.ndarray:
        """Indices of g * x over all table elements x, for g = element gi.

        image[v] is the column vector g v keyed at the weights of column 0;
        column j of g x is image[column j of x], shifted by weight p^(d - 1 - j).
        """
        w = self._digit_weights
        image = (_vectors(self.d, self.p) @ self.mats[gi].T % self.p) @ w**self.d
        return self._image_indices(self._col_keys, image, w)

    def rmul_indices_many(self, x_idx: np.ndarray, g_idx: np.ndarray) -> np.ndarray:
        """Indices of x_i * g_i for paired index arrays (sampling paths)."""
        prods = _mul_many(self.mats[x_idx], self.mats[g_idx], self.p)
        return self._indices(self._encode(prods))


class CyclicTable:
    """Z_n with additive composition; used for abelian cross-checks."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = self.size = int(n)
        self.label = f"cyclic_{n}"
        self.identity_index = 0

    def __len__(self) -> int:
        return self.size

    def inv_perm(self) -> np.ndarray:
        return (-np.arange(self.size)) % self.size

    def rmul_perm(self, gi: int) -> np.ndarray:
        return (np.arange(self.size) + gi) % self.size

    lmul_perm = rmul_perm

    def rmul_indices_many(self, x_idx: np.ndarray, g_idx: np.ndarray) -> np.ndarray:
        return (np.asarray(x_idx) + np.asarray(g_idx)) % self.size


@lru_cache(maxsize=32)
def _vectors(d: int, p: int) -> np.ndarray:
    """All p^d vectors of F_p^d as rows, row u holding the base-p digits of u."""
    vectors = np.indices((p,) * d).reshape(d, -1).T.copy()
    vectors.setflags(write=False)
    return vectors


@lru_cache(maxsize=32)
def field_inverses(p: int) -> np.ndarray:
    """t^-1 mod p at index t of [0, p), 0 at 0; cached per prime, read-only."""
    check_odd_prime(p)
    inverse = np.array([0] + [inv_mod(t, p) for t in range(1, p)])
    inverse.setflags(write=False)
    return inverse


def special_linear_order(d: int, p: int) -> int:
    """|SL_d(F_p)| by the closed product formula."""
    order = 1
    for i in range(d):
        order *= p**d - p**i
    return order // (p - 1)


@lru_cache(maxsize=32)
def special_linear_group(d: int, p: int) -> GroupTable:
    """SL_d(F_p) as a GroupTable, enumerated from the cells of its Bruhat
    grid, `ParabolicCoordinates.cell_mats` (cached; tables are immutable)."""
    if d not in (2, 3):
        raise ValueError(f"only d in {{2, 3}} is supported, got {d}")
    check_odd_prime(p)
    charge(p ** (d * d - 1), ENUMERATION_BUDGET, f"enumerating SL_{d}(F_{p})")
    table = GroupTable(parabolic_coordinates(d, p).cell_mats(), p, "full")
    expected = special_linear_order(d, p)
    if table.size != expected:
        raise AssertionError(
            f"enumeration produced {table.size} elements, formula gives {expected}"
        )
    return table


@lru_cache(maxsize=32)
def borel_subgroup(p: int) -> GroupTable:
    """Upper-triangular matrices in SL_2(F_p), order p (p - 1): the elements
    of `parabolic_coordinates(2, p)`, in their row order."""
    mats = parabolic_coordinates(2, p).elements
    table = GroupTable(mats, p, "borel", check_group=True)
    if not np.array_equal(table.mats, mats):
        raise AssertionError("the (t, a) order of B is not its sorted order")
    return table


@lru_cache(maxsize=32)
def unipotent_subgroup(p: int) -> GroupTable:
    """Matrices equal to the identity except possibly at the upper right entry."""
    check_odd_prime(p)
    mats = [[[1, a], [0, 1]] for a in range(p)]
    return GroupTable(np.array(mats, dtype=np.int64), p, "unipotent", check_group=True)


def trace_values(table: GroupTable) -> np.ndarray:
    return np.einsum("nii->ni", table.mats).sum(axis=1) % table.p


def is_regular_semisimple(x: GroupElement) -> bool:
    """Distinct eigenvalues over the algebraic closure: the discriminant of
    the characteristic polynomial is nonzero mod p.

    For d = 2 the characteristic polynomial is X^2 - t X + 1, t the trace,
    with discriminant t^2 - 4.  For d = 3 it is X^3 - c_2 X^2 + c_1 X - 1,
    c_2 the trace and c_1 the sum of the principal 2 x 2 minors, with
    discriminant c_1^2 c_2^2 - 4 c_1^3 - 4 c_2^3 + 18 c_1 c_2 - 27.
    """
    m = x.array().tolist()
    c2 = sum(m[i][i] for i in range(x.d))
    if x.d == 2:
        disc = c2 * c2 - 4
    elif x.d == 3:
        c1 = sum(m[i][i] * m[j][j] - m[i][j] * m[j][i] for i, j in ((0, 1), (0, 2), (1, 2)))
        disc = c1 * c1 * c2 * c2 - 4 * c1**3 - 4 * c2**3 + 18 * c1 * c2 - 27
    else:
        raise ValueError(f"unsupported dimension {x.d}")
    return disc % x.p != 0


def centralizer_indices(table: GroupTable, b_mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Table indices of the elements commuting with each b of an (m, d, d) stack.

    Returns (owner, index): table element index[i] commutes with
    b_mats[owner[i]], sorted by owner and then by index.  For d = 2 and
    non-scalar b, the matrices commuting with b are the polynomials
    alpha I + beta b, so the p^2 candidates of every such b are built at once,
    and those of determinant one looked up and the ones absent from the table
    dropped.  Scalar b and d = 3 compare the products b x and x b for every
    table element x, all such b in one product.  Raises KeyError when some b
    is not in the table.
    """
    p, d = table.p, table.d
    b_mats = np.asarray(b_mats, dtype=np.int64) % p
    if np.any(table._lookup(table._encode(b_mats)) < 0):
        raise KeyError("b is not an element of the table")
    eye = np.eye(d, dtype=np.int64)
    scalar = ~(b_mats - b_mats[:, :1, :1] * eye).reshape(len(b_mats), -1).any(axis=1)
    closed = ~scalar if d == 2 else np.zeros(len(b_mats), dtype=bool)
    alpha, beta = np.indices((p, p)).reshape(2, 1, -1, 1, 1)
    cands = (alpha * eye + beta * b_mats[closed, None]) % p
    det_one = _det_many(cands, p) == 1
    owner = np.flatnonzero(closed)[np.nonzero(det_one)[0]]
    index = table._lookup(table._encode(cands[det_one]))
    swept = np.flatnonzero(~closed)
    left = _mul_many(table.mats, b_mats[swept, None], p)
    right = _mul_many(b_mats[swept, None], table.mats, p)
    swept_owner, swept_index = np.nonzero((left == right).all(axis=(2, 3)))
    owner = np.concatenate([owner[index >= 0], swept[swept_owner]])
    index = np.concatenate([index[index >= 0], swept_index])
    order = np.lexsort((index, owner))
    return owner[order], index[order]


def centralizer(table: GroupTable, b) -> GroupTable:
    """All table elements commuting with b (a subgroup when the table is one),
    from `centralizer_indices` on the one-element stack."""
    b_mat, _ = _as_array(b, table.p)
    index = centralizer_indices(table, b_mat[None])[1]
    return GroupTable(table.mats[index], table.p, "centralizer")


def _conjugates(table: GroupTable, a_mat: np.ndarray) -> np.ndarray:
    """Index of g a g^-1 for every table element g (with repeats)."""
    # One reduction mod p after both products: the entries stay far below 2^63.
    conj = _mul_many(table.mats @ a_mat, table.inv_mats(), table.p)
    return table._indices(table._encode(conj))


def conjugacy_class(table: GroupTable, a) -> GroupTable:
    """The orbit {g a g^-1 : g in table}."""
    a_mat, _ = _as_array(a, table.p)
    if a_mat[None] not in table:
        raise KeyError("a is not an element of the table")
    idx = np.unique(_conjugates(table, a_mat))
    return GroupTable(table.mats[idx], table.p, "class")


@lru_cache(maxsize=32)
def conjugacy_classes(table: GroupTable) -> np.ndarray:
    """Class label of every element under conjugation by the table.

    Classes are numbered in order of their smallest index, so the first
    element carrying label l is the representative of class l.  Each class
    costs one conjugation sweep over the table: k sweeps for k classes, and
    the running count of sweeps times n is charged before each one.  Cached
    per table, like the tables themselves; the labels are read-only.
    """
    labels = np.full(table.size, -1, dtype=np.intp)
    label = 0
    while (unlabelled := np.flatnonzero(labels < 0)).size:
        charge((label + 1) * table.size, OP_BUDGET,
               f"conjugacy classes of {table.size} elements")
        labels[_conjugates(table, table.mats[unlabelled[0]])] = label
        label += 1
    labels.setflags(write=False)
    return labels


@lru_cache(maxsize=32)
def class_members(table: GroupTable) -> tuple[np.ndarray, ...]:
    """Table indices of the members of each conjugacy class, by class label.

    Grouped once from the `conjugacy_classes` labels and cached per table
    next to them; the arrays are read-only and sorted.
    """
    labels = conjugacy_classes(table)
    order = np.argsort(labels, kind="stable")
    order.setflags(write=False)
    return tuple(np.split(order, np.cumsum(np.bincount(labels))[:-1]))


def table_kind(table) -> str | None:
    """Kind of table: "full" for all of SL_d(F_p), d = 2 or 3, "borel" for the
    Borel subgroup of SL_2(F_p) (p (p - 1) upper-triangular elements), else None."""
    n, p, d = table.size, getattr(table, "p", None), getattr(table, "d", None)
    if d in (2, 3) and n == special_linear_order(d, p):
        return "full"
    if d == 2 and n == p * (p - 1) and not table.mats[:, 1, 0].any():
        return "borel"
    return None


def _bottom_row_lines(rows: np.ndarray, p: int) -> np.ndarray:
    """Label of the line through each nonzero row vector of F_p^d.

    A row whose last nonzero entry is at position k, scaled to make that
    entry 1, is labelled sum_{j > k} p^j plus its first k entries read as a
    base-p number.  So a row (0, .., 0, l) has label 0, and the labels run
    over the (p^d - 1) / (p - 1) lines; for d = 2 the row (c, d) has label
    c / d, or p when d = 0.
    """
    d = rows.shape[1]
    inverse = field_inverses(p)
    labels = np.empty(len(rows), dtype=np.int64)
    offset = 0
    for k in range(d - 1, -1, -1):
        at_k = (rows[:, k] != 0) & ~rows[:, k + 1:].any(axis=1)
        scaled = rows[at_k, :k] * inverse[rows[at_k, k], None] % p
        labels[at_k] = offset + scaled @ p ** np.arange(k - 1, -1, -1, dtype=np.int64)
        offset += p**k
    return labels


@dataclass(frozen=True)
class ParabolicCoordinates:
    """Coordinates on H, the stabiliser in SL_d(F_p), d = 2 or 3, of the line
    through the bottom row: the b = [[A, u], [0, 1 / det A]] with A in
    GL_(d-1)(F_p) and u in F_p^(d-1).

    Row i q + j of H, q = p^(d - 1), has the i-th block A in key order and
    the vector u of key j (its base-p digits), and `elements` holds H in
    this order; for d = 2, H is the Borel subgroup B, whose element
    [[t, a], [0, 1 / t]] is row (t - 1) p + a.  Since
    b h = [[A_b A_h, A_b u_h + u_b / det A_h], ..], x -> x h for h in H is
    index arithmetic, `rows`, over four tables of the blocks and vectors, of
    |GL_(d-1)|^2, |H|, |H| and q^2 entries.  reps[l] represents the right
    coset H g of the g whose bottom row lies on line l (`_bottom_row_lines`):
    the identity for l = 0, H itself, and else w v_l, with w the antidiagonal
    [[0, -1], [1, 0]] or [[0, 0, 1], [0, -1, 0], [1, 0, 0]], whose bottom row
    is e_1, and v_l the first element of H whose first row lies on line l.
    So G = H + H w H, and G is the disjoint union of the left cosets
    r_l^-1 H, whose elements `cell_mats` lists.  The arrays are read-only.
    """

    p: int
    elements: np.ndarray  # (|H|, d, d): the element b at each row of H
    levi_index: np.ndarray  # index of each block key among the blocks, -1 where singular
    levi_mul: np.ndarray  # [h, b]: q times the index of A_b A_h
    act: np.ndarray  # [j, b]: q times the key of A_b u_j
    scaled: np.ndarray  # [h, j]: key of u_j / det A_h
    add: np.ndarray  # [x q + y]: key of u_x + u_y
    inverse: np.ndarray  # row of b^-1 for each row b of H
    w: np.ndarray
    reps: np.ndarray  # (L, d, d): the representative r_l of each line l
    v: np.ndarray  # row of v_l for each line l, of the identity for l = 0

    def index(self, mats: np.ndarray) -> np.ndarray:
        """Row in H of each element of H in an (..., d, d) stack."""
        k = mats.shape[-1] - 1
        weights = self.p ** np.arange(k * k - 1, -1, -1)
        levi = self.levi_index[mats[..., :k, :k].reshape(*mats.shape[:-2], k * k) @ weights]
        return levi * self.p**k + mats[..., :k, k] @ weights[-k:]

    def rows(self, hs) -> np.ndarray:
        """Row of b h for every row b of H, for each row h in hs: the index
        array of x -> x h, with H along a new last axis.  O(|H|) per h."""
        i, j = divmod(hs, self.scaled.shape[1])
        moved = self.add.take(self.act[j][..., None] + self.scaled[i][..., None, :])
        return (self.levi_mul[i][..., None] + moved).reshape(*np.shape(i), -1)

    def cell_mats(self) -> np.ndarray:
        """r_l^-1 b at every flat cell b L + l of the (|H|, L) grid, b over
        the rows of H and l over the lines: each element of SL_d(F_p) once."""
        mats = _inverse_many(self.reps, self.p)[None] @ self.elements[:, None]
        mats %= self.p
        return mats.reshape(-1, *self.reps.shape[1:])


@lru_cache(maxsize=32)
def parabolic_coordinates(d: int, p: int) -> ParabolicCoordinates:
    """The `ParabolicCoordinates` of SL_d(F_p), cached per (d, p): for
    SL_3(F_3), 48 blocks, |H| = 432 and 13 lines, 62 KB."""
    inverse, k, q = field_inverses(p), d - 1, p ** (d - 1)
    weights, vectors = p ** np.arange(k * k - 1, -1, -1), _vectors(k, p)
    blocks = _vectors(k * k, p).reshape(-1, k, k)
    det = _det_many(blocks, p)
    levi, lam = blocks[det != 0], inverse[det[det != 0]]
    g = len(levi)
    levi_index = np.full(len(blocks), -1)
    levi_index[det != 0] = np.arange(g)
    levi_mul = levi_index[(levi[None] @ levi[:, None] % p).reshape(g, g, -1) @ weights] * q
    act = (levi[None] @ vectors[:, None, :, None])[..., 0] % p @ weights[-k:] * q
    scaled = lam[:, None, None] * vectors % p @ weights[-k:]
    add = ((vectors[:, None] + vectors) % p @ weights[-k:]).ravel()
    elements = np.zeros((g * q, d, d), dtype=np.int64)  # H, in its row order
    elements[:, :k, :k], elements[:, k, k] = np.repeat(levi, q, axis=0), np.repeat(lam, q)
    elements[:, :k, k] = np.tile(vectors, (g, 1))
    w = np.fliplr(np.diag((-1) ** np.arange(k, -1, -1))) % p
    first = np.unique(_bottom_row_lines(elements[:, 0], p), return_index=True)[1]
    reps = np.concatenate([np.eye(d, dtype=np.int64)[None], w @ elements[first] % p])
    coords = ParabolicCoordinates(p, elements, levi_index, levi_mul, act, scaled, add, None, w,
                                  reps, None)
    coords = replace(coords, inverse=coords.index(_inverse_many(elements, p)),
                     v=np.concatenate([coords.index(reps[:1]), first]))
    for array in (elements, levi_index, levi_mul, act, scaled, add, coords.inverse, w, reps,
                  coords.v):
        array.setflags(write=False)
    return coords


@dataclass(frozen=True)
class BruhatLayout:
    """The elements of a full SL_d(F_p) table, d = 2 or 3, on an (|H|, L) grid.

    Every x is c_l b with c_l = r_l^-1, l the line through the bottom row of
    x^-1 and b in H, the left coset x H being c_l H; r_l and the rows of H
    are those of `coords`.  Cell (b, l), at flat index b L + l, holds
    x = r_l^-1 b, the matrix `coords.cell_mats()` lists there.  So
    x -> x h for h in H moves whole rows: a function laid out as
    f[cells].reshape(|H|, L) composed with it is a row take by
    `coords.rows(h)`.  The arrays are read-only.
    """

    coords: ParabolicCoordinates
    cells: np.ndarray  # table index of the element in each flat cell
    pos: np.ndarray  # flat cell of each table element, the inverse of cells
    w_fwd: np.ndarray  # flat cell of z w for each flat cell z
    w_back: np.ndarray  # flat cell of z w^-1

    def compose(self, grid: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """v o P_h in table order, P_h being x -> x h for the h in H whose
        row take is `rows` (`coords.rows(h)`), for values v laid out as
        grid = v[cells].reshape(|H|, L): a row take and one gather.
        grid = cells.reshape(|H|, L) gives P_h itself, the array
        `GroupTable.rmul_perm` assembles for h."""
        return grid.take(rows, axis=0).ravel()[self.pos]


@lru_cache(maxsize=32)
def bruhat_layout(table) -> BruhatLayout:
    """The `BruhatLayout` of a full SL_d(F_p) table, cached per table.

    Four n-element index arrays: 157 KB at p = 17 and 952 KB at p = 31 for
    SL_2, 180 KB for SL_3(F_3).  No |H| x |H| array is held, because
    x -> x h for h in H is the O(|H|) arithmetic of `coords.rows`.  cells is
    one lookup of `coords.cell_mats()` in the table, pos its inverse, and
    w_fwd and w_back one lookup each of the cells times w and w^-1.
    """
    coords = parabolic_coordinates(table.d, table.p)
    laid = coords.cell_mats()
    cells = table.indices_of(laid)
    pos = np.empty(table.size, dtype=np.intp)
    pos[cells] = np.arange(table.size)
    w_fwd, w_back = (pos[table.indices_of(laid @ m)]
                     for m in (coords.w, _inverse_many(coords.w, table.p)))
    for array in (cells, pos, w_fwd, w_back):
        array.setflags(write=False)
    return BruhatLayout(coords, cells, pos, w_fwd, w_back)


def bruhat_split(mats: np.ndarray, p: int):
    """Each SL_d(F_p) matrix g of an (m, d, d) stack, d = 2 or 3, as
    g = h r_l, with r_l the representative of `parabolic_coordinates`.

    Returns (h, l): l is the line through g's bottom row, and h = g r_l^-1,
    at its row in H, from one batched product and no lookup in the table.
    """
    coords = parabolic_coordinates(mats.shape[-1], p)
    lines = _bottom_row_lines(mats[:, -1], p)
    return coords.index(_mul_many(mats, _inverse_many(coords.reps, p)[lines], p)), lines


def trace_discriminant_symbol(p: int) -> np.ndarray:
    """The Legendre symbol of t^2 - 4 mod p for each trace t in [0, p).

    It is 1 where t^2 - 4 is a nonzero square, the traces of split regular
    elements of SL_2(F_p); -1 where it is a non-square, the non-split ones;
    and 0 at t = +-2.
    """
    square = np.zeros(p, dtype=bool)
    square[list(squares_mod(p))] = True
    t = np.arange(p)
    disc = (t * t - 4) % p
    return np.where(disc == 0, 0, np.where(square[disc], 1, -1))


@lru_cache(maxsize=32)
def diagonalisable_set(p: int) -> GroupTable:
    """Elements of SL_2(F_p) with an eigenbasis over F_p.

    Fast criterion: central (+-identity), or trace^2 - 4 a nonzero square.
    """
    table = special_linear_group(2, p)
    central = np.array([table.index_of(m * np.eye(2, dtype=np.int64)) for m in (1, p - 1)])
    mask = trace_discriminant_symbol(p)[trace_values(table)] == 1
    mask[central] = True
    return GroupTable(table.mats[mask], p, "diag_set")


def shear(a, p: int | None = None) -> GroupElement:
    """The unipotent matrix [[1, a], [0, 1]]."""
    if isinstance(a, FieldElement):
        a, p = a.value, a.p
    if p is None:
        raise ValueError("shear needs a modulus")
    return GroupElement(((1, int(a) % p), (0, 1)), p)


def borel_character(x: GroupElement) -> FieldElement:
    """The homomorphism sending an upper-triangular matrix to its lower-right
    entry (the inverse of its upper-left entry); kernel is the shear subgroup."""
    if x.entries[1][0] != 0:
        raise ValueError("element is not upper-triangular")
    return FieldElement(x.entries[1][1], x.p)


def distinct_conjugate_count(table: GroupTable, sub: GroupTable) -> int:
    """Number of distinct conjugates g * sub * g^-1 with g ranging over table.

    By orbit-stabiliser this is |table| / |Stab(S)| for S = sub, where
    Stab(S) = {g : g u g^-1 in S for every u in S}: a conjugate of the finite
    set S that lies inside S equals it, so this holds for any subset, not only
    subgroups.  One conjugation sweep per element of S, charged |S| * |table|.
    S must lie in the table.
    """
    charge(sub.size * table.size, OP_BUDGET, "distinct conjugate count")
    in_sub = np.zeros(table.size, dtype=bool)
    in_sub[table.indices_of(sub.mats)] = True
    stabilises = np.ones(table.size, dtype=bool)
    for u in sub.mats:
        stabilises &= in_sub[_conjugates(table, u)]
    return table.size // int(stabilises.sum())
