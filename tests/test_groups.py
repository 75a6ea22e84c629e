import tracemalloc
from itertools import product

import numpy as np
import pytest

from progmix import groups
from progmix.borel import borel_context
from progmix.budget import BudgetExceededError
from progmix.groups import (
    CyclicTable,
    GroupTable,
    borel_subgroup,
    borel_character,
    bruhat_layout,
    bruhat_split,
    _as_array,
    _bottom_row_lines,
    _det_many,
    _mul_many,
    centralizer,
    centralizer_indices,
    conjugacy_class,
    conjugacy_classes,
    diagonalisable_set,
    distinct_conjugate_count,
    element,
    field_inverses,
    identity_element,
    is_regular_semisimple,
    mat_inv,
    mat_mul,
    mat_trace,
    parabolic_coordinates,
    shear,
    special_linear_group,
    special_linear_order,
    table_kind,
    trace_values,
    unipotent_subgroup,
)
from test_mixing import assert_same_sums, input_functions


def enumerate_sl2(p):
    """SL_2(F_p) by brute force: all p^4 matrices, filtered by determinant,
    in lexicographic order of their entries."""
    r = np.arange(p, dtype=np.int64)
    a, b, c, d = np.meshgrid(r, r, r, r, indexing="ij")
    mask = (a * d - b * c) % p == 1
    return np.stack([a[mask], b[mask], c[mask], d[mask]], axis=1).reshape(-1, 2, 2)


def enumerate_sl3(p):
    """SL_3(F_p) by brute force: all p^9 matrices, one first row at a time,
    filtered by determinant, in lexicographic order of their entries."""
    r = np.arange(p, dtype=np.int64)
    grids = np.meshgrid(*([r] * 6), indexing="ij")
    lower = np.stack([g.ravel() for g in grids], axis=1)  # rows 2 and 3, p^6 entries
    d, e, f, g, h, i = (lower[:, j] for j in range(6))
    chunks = []
    for a, b, c in product(range(p), repeat=3):
        det = (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % p
        sel = lower[det == 1]
        block = np.empty((len(sel), 3, 3), dtype=np.int64)
        block[:, 0] = (a, b, c)
        block[:, 1] = sel[:, :3]
        block[:, 2] = sel[:, 3:]
        chunks.append(block)
    return np.concatenate(chunks)


def test_group_orders_match_formula():
    for p in (3, 5, 7, 11, 13):
        assert special_linear_group(2, p).size == special_linear_order(2, p) == p * (p * p - 1)
    assert special_linear_order(2, 3) == 24
    assert special_linear_order(2, 5) == 120


def test_enumeration_against_independent_brute_force():
    # The tables, enumerated from the cells of the Bruhat grid, equal brute
    # force over all p^(d^2) matrices element for element, and B its
    # upper-triangular rows.
    for d, p in [(2, 3), (2, 5), (2, 7), (2, 11), (2, 13), (3, 3), (3, 5)]:
        oracle = enumerate_sl2(p) if d == 2 else enumerate_sl3(p)
        assert np.array_equal(special_linear_group(d, p).mats, oracle)
        if d == 2:
            assert np.array_equal(borel_subgroup(p).mats, oracle[oracle[:, 1, 0] == 0])


def test_sl3_order():
    table = special_linear_group(3, 3)
    assert table.size == special_linear_order(3, 3) == 5616


def test_even_modulus_rejected():
    with pytest.raises(ValueError):
        special_linear_group(3, 2)
    with pytest.raises(ValueError):
        special_linear_group(2, 2)


def test_unsupported_dimension_rejected():
    with pytest.raises(ValueError):
        special_linear_group(4, 3)


def test_enumeration_budget(monkeypatch):
    # The enumeration is charged p^(d^2 - 1) units before anything is
    # allocated: at the charge the table builds, and one unit short it is
    # refused before the parabolic coordinates are reached.
    def refuse(*args):
        raise AssertionError("parabolic coordinates built before the charge")

    try:
        for d, p in [(2, 7), (3, 3)]:
            cost, expected = p ** (d * d - 1), special_linear_group(d, p).mats
            special_linear_group.cache_clear()
            with monkeypatch.context() as patch:
                patch.setenv("PROGMIX_BUDGET", str(cost))
                assert np.array_equal(special_linear_group(d, p).mats, expected)
                special_linear_group.cache_clear()
                patch.setenv("PROGMIX_BUDGET", str(cost - 1))
                patch.setattr(groups, "parabolic_coordinates", refuse)
                with pytest.raises(BudgetExceededError, match=f"needs {cost} work units"):
                    special_linear_group(d, p)
    finally:
        special_linear_group.cache_clear()


@pytest.mark.parametrize("p", [2, 4, 9])
def test_every_constructor_refuses_a_bad_modulus(p):
    builds = [lambda: special_linear_group(2, p), lambda: special_linear_group(3, p),
              lambda: borel_subgroup(p), lambda: borel_context(p),
              lambda: parabolic_coordinates(2, p), lambda: parabolic_coordinates(3, p),
              lambda: field_inverses(p)]
    for build in builds:
        with pytest.raises(ValueError, match="odd prime"):
            build()


def test_element_product_inverse_trace():
    ident = identity_element(2, 5)
    x = element([[2, 1], [1, 1]], 5)
    assert mat_mul(ident, x) == x
    u = element([[1, 1], [0, 1]], 7)
    assert mat_inv(u) == element([[1, -1], [0, 1]], 7)
    assert mat_trace(ident).value == 2
    for mat in (x, u):
        assert mat_mul(mat, mat_inv(mat)) == identity_element(2, mat.p)


def test_modulus_mismatch_in_product():
    with pytest.raises(ValueError):
        mat_mul(identity_element(2, 5), identity_element(2, 7))


def test_indexing_is_lexicographic_and_stable():
    table = special_linear_group(2, 5)
    flat = [tuple(m.ravel()) for m in table.mats]
    assert flat == sorted(flat)
    shuffled = table.mats[np.random.default_rng(0).permutation(table.size)]
    rebuilt = GroupTable(shuffled, 5, "full")
    assert np.array_equal(rebuilt.mats, table.mats)
    for i in (0, 17, 119):
        assert table.index_of(table.element(i)) == i


def test_regular_semisimple_examples():
    assert not is_regular_semisimple(element([[1, 1], [0, 1]], 5))
    assert is_regular_semisimple(element([[2, 0], [0, 3]], 5))
    assert not is_regular_semisimple(element([[4, 0], [0, 4]], 5))  # -I, trace -2


def test_regular_semisimple_count_sl2_f7():
    # oracle: exhaustive trace count; elements with trace +-2 are exactly the
    # non-regular ones, two trace hypersurfaces of p^2 points each
    table = special_linear_group(2, 7)
    flagged = sum(not is_regular_semisimple(table.element(i)) for i in range(table.size))
    tr = trace_values(table)
    assert flagged == int(np.sum(tr == 2) + np.sum(tr == 5)) == 2 * 49
    fraction = flagged / table.size
    assert fraction == 98 / 336
    assert 1 / 7 <= fraction <= 3 / 7  # Theta(1/p)


def test_inverse_permutation_d3():
    table = special_linear_group(3, 3)
    inv = table.inv_perm()
    assert np.array_equal(inv[inv], np.arange(table.size))
    rng = np.random.default_rng(0)
    for i in rng.integers(0, table.size, size=20):
        x = table.element(int(i))
        assert mat_mul(x, mat_inv(x)) == identity_element(3, 3)


def test_regular_semisimple_d3():
    assert is_regular_semisimple(element([[1, 0, 0], [0, 2, 0], [0, 0, 4]], 7))
    unipotent = element([[1, 1, 0], [0, 1, 1], [0, 0, 1]], 7)
    assert not is_regular_semisimple(unipotent)
    assert not is_regular_semisimple(identity_element(3, 7))


def poly_gcd_mod(a, b, p):
    """Monic gcd of two polynomials with coefficients mod p (low to high)."""

    def trim(c):
        c = [v % p for v in c]
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        return c

    a, b = trim(a), trim(b)
    while b != [0]:
        while len(a) >= len(b) and a != [0]:
            shift, factor = len(a) - len(b), a[-1] * pow(b[-1], p - 2, p)
            for i, c in enumerate(b):
                a[shift + i] -= factor * c
            a = trim(a)
        a, b = b, a
    return [c * pow(a[-1], p - 2, p) % p for c in a]


def squarefree_charpoly(mat, p):
    """The oracle: the characteristic polynomial has a trivial gcd with its
    formal derivative over F_p."""
    m = np.asarray(mat, dtype=np.int64)
    d = len(m)
    c2 = int(np.trace(m))
    if d == 2:
        f = [1, -c2, 1]
    else:
        c1 = sum(int(m[i, i] * m[j, j] - m[i, j] * m[j, i]) for i, j in ((0, 1), (0, 2), (1, 2)))
        f = [-1, c1, -c2, 1]
    derivative = [i * c for i, c in enumerate(f)][1:]
    return len(poly_gcd_mod(f, derivative, p)) == 1


@pytest.mark.parametrize("d, p", [(2, 3), (2, 5), (2, 7), (2, 11), (2, 13), (3, 3)])
def test_regular_semisimple_matches_squarefree_oracle(d, p):
    table = special_linear_group(d, p)
    flags = [is_regular_semisimple(table.element(i)) for i in range(table.size)]
    assert flags == [squarefree_charpoly(m, p) for m in table.mats]
    assert 0 < sum(flags) < table.size


def test_regular_semisimple_matches_squarefree_oracle_on_sampled_sl3_f5():
    rng = np.random.default_rng(5)
    mats = rng.integers(0, 5, size=(120000, 3, 3))
    mats = mats[np.round(np.linalg.det(mats)).astype(np.int64) % 5 == 1][:20000]
    assert len(mats) == 20000
    for m in mats:
        assert is_regular_semisimple(element(m, 5)) == squarefree_charpoly(m, 5)


def test_centralizer_examples():
    table = special_linear_group(2, 5)
    whole = centralizer(table, identity_element(2, 5))
    assert whole.size == table.size
    split = centralizer(table, element([[2, 0], [0, 3]], 5))
    assert split.size == 4
    unip = centralizer(table, element([[1, 1], [0, 1]], 5))
    assert unip.size == 10
    with pytest.raises(KeyError):
        centralizer(table, element([[2, 0], [0, 2]], 5))  # det 4, not in SL_2


def test_centralizer_sizes_for_regular_semisimple_exhaustive():
    for p in (3, 5, 7, 11, 13):
        table = special_linear_group(2, p)
        tr = trace_values(table)
        sizes = set()
        for i in range(table.size):
            if int(tr[i]) not in (2, p - 2):
                sizes.add(centralizer(table, table.mats[i]).size)
        assert sizes <= {p - 1, p + 1}
        if p > 3:  # mod 3 there is no split torus, so only p + 1 occurs
            assert sizes == {p - 1, p + 1}


@pytest.mark.parametrize("name", ["sl2", "borel", "diag_set"])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_centralizer_matches_commuting_sweep(p, name):
    # the diagonalisable set is not a group: some alpha I + beta b are absent
    table = {"sl2": special_linear_group(2, p), "borel": borel_subgroup(p),
             "diag_set": diagonalisable_set(p)}[name]
    for b in table.mats:
        commutes = (table.mats @ b % p == b @ table.mats % p).all(axis=(1, 2))
        assert np.array_equal(centralizer(table, b).mats, table.mats[commutes])


def per_element_centralizer(table, b):
    """Oracle: the per-element centralizer, one b at a time, with its own
    closed form alpha I + beta b for non-scalar b in d = 2."""
    p = table.p
    b_mat, _ = _as_array(b, p)
    if b_mat[None] not in table:
        raise KeyError("b is not an element of the table")
    scalar = not np.any(b_mat - b_mat[0, 0] * np.eye(table.d, dtype=np.int64))
    if table.d == 2 and not scalar:
        alpha, beta = np.indices((p, p)).reshape(2, -1, 1, 1)
        cands = (alpha * np.eye(2, dtype=np.int64) + beta * b_mat) % p
        idx = table._lookup(table._encode(cands[_det_many(cands, p) == 1]))
        return GroupTable(table.mats[idx[idx >= 0]], p, "centralizer")
    left = _mul_many(table.mats, b_mat, p)
    right = _mul_many(b_mat[None], table.mats, p)
    mask = (left == right).all(axis=(1, 2))
    return GroupTable(table.mats[mask], p, "centralizer")


def assert_stack_matches_oracle(table, b_indices):
    owner, index = centralizer_indices(table, table.mats[b_indices])
    assert np.all(np.diff(owner) >= 0)
    for j, bi in enumerate(b_indices):
        mine = index[owner == j]
        assert np.all(np.diff(mine) > 0)
        assert np.array_equal(table.mats[mine], per_element_centralizer(table, table.mats[bi]).mats)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_centralizer_indices_match_per_element_oracle(p):
    table = special_linear_group(2, p)
    assert_stack_matches_oracle(table, np.arange(table.size))
    assert_stack_matches_oracle(table, np.arange(table.size)[::-1][:7])


def test_centralizer_indices_sl3_stack_with_scalars():
    table = special_linear_group(3, 3)
    scalar = table.index_of(identity_element(3, 3))
    picks = np.random.default_rng(5).choice(table.size, size=5, replace=False)
    assert_stack_matches_oracle(table, np.array([picks[0], scalar, *picks[1:], scalar]))


def test_centralizer_indices_reject_a_foreign_b():
    table = borel_subgroup(5)
    stack = np.array([[[1, 1], [0, 1]], [[1, 0], [1, 1]]])  # the second is lower-triangular
    with pytest.raises(KeyError):
        centralizer_indices(table, stack)


def test_conjugacy_classes_budget_boundary(monkeypatch):
    full = special_linear_group(2, 5)
    labels = conjugacy_classes(full)
    cost = (labels.max() + 1) * full.size  # one sweep of n per class
    monkeypatch.setenv("PROGMIX_BUDGET", str(cost - 1))
    with pytest.raises(BudgetExceededError, match="conjugacy classes"):
        conjugacy_classes(GroupTable(full.mats, 5, "full"))  # a fresh table misses the cache
    monkeypatch.setenv("PROGMIX_BUDGET", str(cost))
    assert np.array_equal(conjugacy_classes(GroupTable(full.mats, 5, "full")), labels)


def test_conjugacy_class_examples():
    table = special_linear_group(2, 5)
    assert conjugacy_class(table, identity_element(2, 5)).size == 1
    cls = conjugacy_class(table, element([[1, 1], [0, 1]], 5))
    assert cls.size == 12 == table.size // centralizer(table, element([[1, 1], [0, 1]], 5)).size


def test_conjugacy_classes_match_single_orbits():
    for table, count in [(special_linear_group(2, p), p + 4) for p in (3, 5, 7)] + [
        (borel_subgroup(5), 5 + 3)
    ]:
        labels = conjugacy_classes(table)
        assert labels.max() + 1 == count
        _, reps = np.unique(labels, return_index=True)
        assert np.all(np.diff(reps) > 0) and reps[0] == 0
        for label, rep in enumerate(reps):
            members = np.flatnonzero(labels == label)
            orbit = conjugacy_class(table, table.mats[rep])
            assert np.array_equal(table.mats[members], orbit.mats)


def parabolic_rows(table):
    """The elements of the bottom-row stabiliser H = {[[A, u], [0, 1 / det A]]}
    of a full SL_d(F_p) table, sorted by the entries of A and then of u."""
    k = table.d - 1
    h = table.mats[~table.mats[:, k, :k].any(axis=1)]
    return h[np.lexsort(np.concatenate([h[:, :k, :k].reshape(-1, k * k).T, h[:, :k, k].T])[::-1])]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_coset_decomposition_over_borel(p):
    # bruhat_split writes every g of SL_2(F_p), and of SL_3(F_3) at p = 3, as
    # h r_l, with h in H, the bottom-row stabiliser (B for d = 2), and l the
    # line through g's bottom row (`_bottom_row_lines`): r_0 is the identity
    # and every other r_l = w v_l with v_l in H, so g = h w v_l.  Checked
    # against matrix products, for g and again for r_l g.
    for d in (2, 3) if p == 3 else (2,):
        table, coords = special_linear_group(d, p), parabolic_coordinates(d, p)
        h_mats = parabolic_rows(table)
        if d == 2:
            assert np.array_equal(h_mats, borel_subgroup(p).mats)
        assert np.array_equal(coords.index(h_mats), np.arange(len(h_mats)))
        w = np.array([[0, -1], [1, 0]] if d == 2 else [[0, 0, 1], [0, -1, 0], [1, 0, 0]]) % p
        assert np.array_equal(coords.w, w)
        v = h_mats[coords.v]
        assert np.array_equal(v[0], np.eye(d)) and np.array_equal(coords.reps[0], np.eye(d))
        assert np.array_equal(coords.reps[1:], w @ v[1:] % p)
        lines = _bottom_row_lines(coords.reps[:, -1], p)
        assert lines.tolist() == list(range((p**d - 1) // (p - 1)))
        mats = table.mats
        for _ in range(2):
            hs, lines = bruhat_split(mats, p)
            assert np.array_equal(lines, _bottom_row_lines(mats[:, -1], p))
            assert np.array_equal(h_mats[hs] @ coords.reps[lines] % p, mats)
            off = lines > 0
            assert np.array_equal(h_mats[hs[off]] @ w @ v[lines[off]] % p, mats[off])  # h w v
            mats = coords.reps[lines] @ mats % p
        # every (h, l) pair occurs once, and each line holds |H| elements
        hs, lines = bruhat_split(table.mats, p)
        assert np.bincount(lines).tolist() == [len(h_mats)] * len(coords.reps)
        assert len(set(zip(hs.tolist(), lines.tolist()))) == table.size


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_bruhat_layout_matches_permutations(p):
    # The layout of SL_2(F_p), and of SL_3(F_3) at p = 3: every x is
    # r_l^-1 b at cell (b, l), and x -> x h for every h in H is the row take
    # by coords.rows(h), equal to the permutation table.rmul_perm assembles.
    for d in (2, 3) if p == 3 else (2,):
        table = special_linear_group(d, p)
        layout = bruhat_layout(table)
        coords = layout.coords
        n, nl = table.size, len(coords.reps)
        nh = n // nl
        assert sorted(layout.cells.tolist()) == list(range(n))
        cell = np.empty(n, dtype=np.intp)
        cell[layout.cells] = np.arange(n)
        assert np.array_equal(layout.pos, cell)
        laid = table.mats[layout.cells].reshape(nh, nl, d, d)
        h_mats = parabolic_rows(table)
        assert np.array_equal(coords.elements, h_mats)
        assert np.array_equal(coords.index(coords.elements), np.arange(nh))
        reps_inv = np.array([mat_inv(element(r, p)).array() for r in coords.reps])
        assert np.array_equal(laid, np.einsum("lij,bjk->blik", reps_inv, h_mats) % p)
        assert np.array_equal(coords.cell_mats(), table.mats[layout.cells])
        w = table.index_of(coords.w)
        for array, z in ((layout.w_fwd, w), (layout.w_back, int(table.inv_perm()[w]))):
            assert np.array_equal(array, cell[table.rmul_perm(z)[layout.cells]])
        # layout.compose gives the permutations of h and of h^-1 that
        # table.rmul_perm assembles, and rows of many h broadcast
        values, grid = np.arange(n), layout.cells.reshape(nh, nl)
        every = coords.rows(np.arange(nh))
        assert every.shape == (nh, nh)
        for h, gi in enumerate(table.indices_of(h_mats).tolist()):
            rows, perm = coords.rows(h), table.rmul_perm(gi)
            assert np.array_equal(rows, every[h])
            moved = values[layout.cells].reshape(nh, nl).take(rows, axis=0)
            assert np.array_equal(moved.ravel(), values[perm][layout.cells])
            assert np.array_equal(layout.compose(grid, rows), perm)
            inverse = layout.compose(grid, coords.rows(coords.inverse[h]))
            assert np.array_equal(inverse, table.rmul_perm(int(table.inv_perm()[gi])))
            f = np.sin(values)  # any values laid out on the grid
            assert np.array_equal(layout.compose(f[layout.cells].reshape(nh, -1), rows), f[perm])
        for array in (layout.cells, layout.pos, layout.w_fwd, layout.w_back, coords.elements,
                      coords.levi_index, coords.levi_mul, coords.act, coords.scaled, coords.add,
                      coords.inverse, coords.w, coords.reps, coords.v):
            assert not array.flags.writeable
        assert bruhat_layout(table) is layout and parabolic_coordinates(d, p) is coords


def test_coset_decomposition_over_parabolic():
    # SL_3(F_3) over the stabiliser H of the line through the bottom row:
    # p^2 + p + 1 = 13 right cosets H g, one per line (`_bottom_row_lines`),
    # of |H| = 432 elements.  With the identity for H and the first element
    # of every other line as representatives r, each g = h r with h in H.
    p = 3
    table = special_linear_group(3, p)
    lines = _bottom_row_lines(table.mats[:, 2], p)
    assert np.bincount(lines).tolist() == [432] * 13
    assert lines[table.identity_index] == 0
    reps = np.unique(lines, return_index=True)[1]
    assert lines[reps[0]] == 0 and not table.mats[reps[0], 2, :2].any()
    reps[0] = table.identity_index
    h = np.einsum("nij,njk->nik", table.mats, table.inv_mats()[reps[lines]]) % p
    assert not h[:, 2, :2].any() and h[:, 2, 2].all()  # every h has bottom row (0, 0, l)
    assert len(set(zip(table.indices_of(h).tolist(), lines.tolist()))) == table.size
    # the label of g is the line through its bottom row
    seen = {}
    for label, row in zip(lines.tolist(), table.mats[:, 2].tolist()):
        line = min(tuple(t * v % p for v in row) for t in (1, 2))
        assert seen.setdefault(line, label) == label
    assert len(seen) == 13


@pytest.mark.parametrize("d, p", [(2, 5), (3, 3)])
def test_coset_decomposition_within_budget_only(d, p, monkeypatch):
    # shift_sums splits the shifts by their bottom-row lines only when
    # (lines) n is within the enumeration budget, read at each call on the
    # same table: split, no permutation is assembled; one short of it, one
    # permutation per shift.
    table = special_linear_group(d, p)
    lines = (p**d - 1) // (p - 1)
    fs = input_functions(table, "float", 3, np.random.default_rng([d, p]))
    monkeypatch.setenv("PROGMIX_BUDGET", str(lines * table.size))
    assert assert_same_sums(table, fs) == []
    monkeypatch.setenv("PROGMIX_BUDGET", str(lines * table.size - 1))
    assert sorted(assert_same_sums(table, fs)) == list(range(table.size))


def conjugated_borel(p):
    """g B g^-1 for g = [[1, 0], [1, 1]]: order p(p - 1), not upper-triangular."""
    g, g_inv = np.array([[1, 0], [1, 1]]), np.array([[1, 0], [p - 1, 1]])
    return GroupTable(g @ borel_subgroup(p).mats @ g_inv % p, p, "borel")


@pytest.mark.parametrize("table", [special_linear_group(3, 5), unipotent_subgroup(5),
                                   GroupTable(borel_subgroup(5).mats[::5], 5, "torus"),
                                   conjugated_borel(5), borel_subgroup(7)],
                         ids=["sl3", "unipotent", "torus", "conjugated_borel", "borel"])
def test_coset_decomposition_trivial_elsewhere(table):
    # SL_3(F_5), with 31 cosets of 12,000, is over the default budget, and
    # no other table here is a full SL_d: their shifts are not split, and a
    # sweep assembles one permutation per distinct shift.
    rng = np.random.default_rng(table.size)
    shifts = rng.integers(0, table.size, size=min(table.size, 6))
    shifts = np.concatenate([shifts, shifts[::-2]])
    fs = input_functions(table, "sign", 4, rng)
    assert sorted(assert_same_sums(table, fs, shifts)) == np.unique(shifts).tolist()


@pytest.mark.parametrize("table, kind", [
    (special_linear_group(2, 3), "full"), (special_linear_group(2, 13), "full"),
    (special_linear_group(3, 3), "full"), (borel_subgroup(3), "borel"),
    (borel_subgroup(13), "borel"), (unipotent_subgroup(5), None),
    (GroupTable(borel_subgroup(5).mats[::5], 5, "torus"), None), (conjugated_borel(5), None),
    (diagonalisable_set(5), None), (CyclicTable(20), None),
], ids=["sl2_3", "sl2_13", "sl3_3", "borel_3", "borel_13", "unipotent", "torus",
        "conjugated_borel", "diag_set", "cyclic"])
def test_table_kind(table, kind):
    assert table_kind(table) == kind


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_borel_coordinates_rows_match_rmul_perm(p):
    # Element (t - 1) p + a of B is [[t, a], [0, 1 / t]], and it is row
    # (t - 1) p + a of parabolic_coordinates(2, p), whose rows(g) is x -> x g
    # for that g, for every g, as scalars and broadcast.
    table, inverse = borel_subgroup(p), field_inverses(p)
    t, a = np.divmod(np.arange(table.size), p)
    t += 1
    assert inverse.tolist() == [0] + [pow(x, -1, p) for x in range(1, p)]
    assert table.mats[:, 0].tolist() == np.stack([t, a], axis=1).tolist()
    assert table.mats[:, 1].tolist() == np.stack([0 * t, inverse[t]], axis=1).tolist()
    perms = np.stack([table.rmul_perm(g) for g in range(table.size)])
    rows = parabolic_coordinates(2, p).rows
    for g in range(table.size):
        assert np.array_equal(rows(g), perms[g])
    assert np.array_equal(rows(np.arange(table.size)), perms)
    assert not inverse.flags.writeable and field_inverses(p) is inverse


def test_orbit_stabilizer_exhaustive_sl2_f3():
    table = special_linear_group(2, 3)
    for i in range(table.size):
        cls = conjugacy_class(table, table.mats[i])
        z = centralizer(table, table.mats[i])
        assert cls.size * z.size == table.size


def test_borel_and_unipotent_structure():
    for p in (3, 5, 7):
        b = borel_subgroup(p)
        u = unipotent_subgroup(p)
        g = special_linear_group(2, p)
        assert b.size == p * (p - 1)
        assert u.size == p
        # containments
        g.indices_of(b.mats)
        b.indices_of(u.mats)
        # U normal in B: x u x^-1 stays unipotent
        for i in range(b.size):
            conj = b.mats[i] @ u.mats @ np.array(b.inv_mats()[i])
            u.indices_of(conj % p)


def test_conjugates_of_borel_count():
    for p in (3, 5, 7):
        g = special_linear_group(2, p)
        assert distinct_conjugate_count(g, borel_subgroup(p)) == p + 1


def direct_distinct_conjugate_count(table, sub):
    """Oracle: the sorted key set of g * sub * g^-1 for every g, counted."""
    seen = set()
    for gi in range(table.size):
        g = table.mats[gi]
        g_inv = table.inv_mats()[gi]
        conj = np.einsum("ij,njk,kl->nil", g, sub.mats, g_inv) % table.p
        seen.add(np.sort(oracle_keys(conj, table.p)).tobytes())
    return len(seen)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_distinct_conjugate_count_matches_direct_loop(p, monkeypatch):
    table = special_linear_group(2, p)
    rng = np.random.default_rng(p)
    torus = [[[t, 0], [0, pow(t, -1, p)]] for t in range(1, p)]
    subsets = [
        borel_subgroup(p),
        unipotent_subgroup(p),
        GroupTable(np.array(torus), p, "split_torus"),
        GroupTable(np.eye(2, dtype=np.int64)[None], p, "trivial"),
        GroupTable(table.mats[rng.choice(table.size, 5, replace=False)], p, "subset"),
    ]
    for sub in subsets:
        assert distinct_conjugate_count(table, sub) == direct_distinct_conjugate_count(table, sub)
    sub = subsets[-1]
    monkeypatch.setenv("PROGMIX_BUDGET", str(sub.size * table.size - 1))
    with pytest.raises(BudgetExceededError):
        distinct_conjugate_count(table, sub)
    monkeypatch.setenv("PROGMIX_BUDGET", str(sub.size * table.size))
    distinct_conjugate_count(table, sub)


def has_eigenbasis(mat, p):
    """Oracle: search all nonzero vectors for two independent eigenvectors."""
    eig = []
    for x in range(p):
        for y in range(p):
            if x == y == 0:
                continue
            wx = (mat[0][0] * x + mat[0][1] * y) % p
            wy = (mat[1][0] * x + mat[1][1] * y) % p
            if (wx * y - wy * x) % p == 0:
                eig.append((x, y))
    for i in range(len(eig)):
        for j in range(i + 1, len(eig)):
            if (eig[i][0] * eig[j][1] - eig[i][1] * eig[j][0]) % p != 0:
                return True
    return False


def test_diagonalisable_set_matches_eigenbasis_oracle():
    for p in (3, 5, 7):
        table = special_linear_group(2, p)
        s = diagonalisable_set(p)
        fast = {int(i) for i in table.indices_of(s.mats)}
        slow = {i for i in range(table.size) if has_eigenbasis(table.mats[i], p)}
        assert fast == slow


def test_diagonalisable_set_examples():
    s = diagonalisable_set(7)
    assert identity_element(2, 7).array()[None] in s
    assert element([[6, 0], [0, 6]], 7).array()[None] in s
    assert element([[1, 1], [0, 1]], 7).array()[None] not in s


def test_diagonalisable_density_p13():
    # oracle-derived exact density: 2 central + (p-3)/2 split classes of p(p+1)
    s = diagonalisable_set(13)
    assert s.size == 2 + 5 * 13 * 14 == 912
    assert abs(s.size / 2184 - 0.41758) < 1e-3


def test_diagonalisable_set_closed_under_conjugation_and_inverse():
    for p in (3, 5, 7):
        g = special_linear_group(2, p)
        s = diagonalisable_set(p)
        s.indices_of(s.inv_mats())
        rng = np.random.default_rng(0)
        for _ in range(20):
            gi = int(rng.integers(g.size))
            conj = g.mats[gi] @ s.mats @ g.inv_mats()[gi]
            s.indices_of(conj % p)


def test_shear_homomorphism():
    p = 7
    assert shear(0, p) == identity_element(2, p)
    for a in range(p):
        for b in range(p):
            assert mat_mul(shear(a, p), shear(b, p)) == shear(a + b, p)


@pytest.mark.parametrize("a", [3, np.int64(3)])
def test_shear_refuses_a_bare_integer_without_modulus(a):
    with pytest.raises(ValueError, match="shear needs a modulus"):
        shear(a)


def test_borel_character_examples():
    x = element([[2, 1], [0, 3]], 5)
    assert borel_character(x).value == 3
    with pytest.raises(ValueError):
        borel_character(element([[0, 1], [4, 0]], 5))
    for a in range(7):
        assert borel_character(shear(a, 7)).value == 1


def test_shear_conjugation_dilates_by_upper_left_squared():
    # x shear(b) x^-1 = shear(t^2 b) with t the upper-left entry of x
    for p in (3, 5, 7):
        bt = borel_subgroup(p)
        for i in range(bt.size):
            x = bt.element(i)
            t = x.entries[0][0]
            for b in range(p):
                lhs = mat_mul(mat_mul(x, shear(b, p)), mat_inv(x))
                assert lhs == shear(t * t * b, p)


def test_group_element_membership():
    table = special_linear_group(2, 5)
    assert element([[1, 1], [0, 1]], 5).array()[None] in table
    assert np.array([[1, 1], [1, 1]])[None] not in table


# Oracle for the table lookups: explicit einsum products, then a binary search
# over the sorted keys of the flattened entries read as base-p numbers.


def oracle_keys(mats, p):
    flat = np.asarray(mats, dtype=np.int64).reshape(len(mats), -1) % p
    return flat @ p ** np.arange(flat.shape[1] - 1, -1, -1, dtype=np.int64)


def oracle_indices(table, mats):
    """Indices of the given matrices in the table, or None if one is absent."""
    sorted_keys = oracle_keys(table.mats, table.p)
    assert np.all(np.diff(sorted_keys) > 0)
    keys = oracle_keys(mats, table.p)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), table.size - 1)
    return pos if np.array_equal(sorted_keys[pos], keys) else None


def oracle_product(a, b, p):
    return np.einsum("...ij,...jk->...ik", a, b) % p


def assert_matches_oracle(fast, expected):
    """`fast` is a zero-argument call; `expected` None means it must raise KeyError."""
    if expected is None:
        with pytest.raises(KeyError):
            fast()
    else:
        assert np.array_equal(fast(), expected)


def lookup_tables(p):
    full = special_linear_group(2, p)
    return [
        full,
        borel_subgroup(p),
        unipotent_subgroup(p),
        diagonalisable_set(p),  # not closed under products: some shifts raise
        centralizer(full, element([[1, 1], [0, 1]], p)),
    ]


def check_mul_perms(table, shifts):
    for gi in shifts:
        g = table.mats[gi]
        right = oracle_indices(table, oracle_product(table.mats, g, table.p))
        left = oracle_indices(table, oracle_product(g, table.mats, table.p))
        assert_matches_oracle(lambda: table.rmul_perm(gi), right)
        assert_matches_oracle(lambda: table.lmul_perm(gi), left)


def check_paired_products(table, rng, count=200):
    x_idx = rng.integers(0, table.size, size=count)
    g_idx = rng.integers(0, table.size, size=count)
    prods = oracle_product(table.mats[x_idx], table.mats[g_idx], table.p)
    expected = oracle_indices(table, prods)
    assert_matches_oracle(lambda: table.rmul_indices_many(x_idx, g_idx), expected)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_shift_permutations_match_oracle_for_every_shift(p):
    for table in lookup_tables(p):
        check_mul_perms(table, range(table.size))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_lookups_match_oracle(p):
    rng = np.random.default_rng(p)
    full = special_linear_group(2, p)
    for table in lookup_tables(p):
        check_paired_products(table, rng)
        shuffled = table.mats[rng.permutation(table.size)]
        assert np.array_equal(table.indices_of(shuffled), oracle_indices(table, shuffled))
        assert np.array_equal(full.indices_of(table.mats), oracle_indices(full, table.mats))
        inverses = oracle_indices(table, table.inv_mats())
        assert_matches_oracle(table.inv_perm, inverses)
        assert table.identity_index == oracle_indices(table, np.eye(2, dtype=np.int64)[None])[0]


def test_d3_lookups_match_oracle_on_sampled_shifts():
    table = special_linear_group(3, 3)
    rng = np.random.default_rng(0)
    check_mul_perms(table, rng.integers(0, table.size, size=12))
    check_paired_products(table, rng, count=1000)
    sample = table.mats[rng.integers(0, table.size, size=500)]
    assert np.array_equal(table.indices_of(sample), oracle_indices(table, sample))
    assert table.identity_index == oracle_indices(table, np.eye(3, dtype=np.int64)[None])[0]
    subset = GroupTable(table.mats[rng.choice(table.size, 50, replace=False)], 3, "subset")
    check_paired_products(subset, rng)  # not closed under products: raises KeyError
    absent = 2 * np.eye(3, dtype=np.int64)  # determinant 2
    assert absent[None] not in table
    with pytest.raises(KeyError):
        table.indices_of(np.stack([sample[0], absent]))
    assert table._dense_index.shape == (3**9,)  # the full SL_3 table keeps the dense index


def test_d3_subtable_first_lookup_allocates_no_dense_index():
    # A one-element SL_3(F_5) table once built a 7.8 MB index over all 5^9
    # keys on its first lookup; it now searches its one sorted key.
    shear3 = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    table = GroupTable(np.eye(3, dtype=np.int64)[None], 5, "one")
    tracemalloc.start()
    try:
        assert table.identity_index == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert shear3[None] not in table
    with pytest.raises(KeyError):
        table.indices_of(np.stack([np.eye(3, dtype=np.int64), shear3]))


@pytest.mark.parametrize("make", [unipotent_subgroup, borel_subgroup], ids=["unipotent", "borel"])
def test_d2_subgroup_lookups_allocate_no_dense_index(make):
    # Only a full SL_d(F_p) table reads the dense index.  Over the 61^4 keys
    # of d = 2 it would take 55.4 MB, even for the 61 elements of U(F_61);
    # the subgroups search their sorted keys, and find what a dict finds.
    p = 61
    table = make(p)
    where = dict(zip(table._keys.tolist(), range(table.size)))
    rng = np.random.default_rng(p)
    keys = np.concatenate([table._keys, (table._keys + 1) % p**4, rng.integers(0, p**4, 5000)])
    assert table._lookup(keys).tolist() == [where.get(key, -1) for key in keys.tolist()]
    assert np.array_equal(table.indices_of(table.mats), np.arange(table.size))
    assert table.identity_index == where[int(table._encode(np.eye(2, dtype=np.int64)[None])[0])]
    assert "_dense_index" not in vars(table)


@pytest.mark.parametrize("kind", ["centralizer", "class"])
def test_d3_subtable_lookups_match_the_dense_index(kind):
    # Every one of the 3^9 keys, present or absent, gets the index the dense
    # route would give, on a centralizer and a conjugacy class of SL_3(F_3).
    full = special_linear_group(3, 3)
    b = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    sub = centralizer(full, b) if kind == "centralizer" else conjugacy_class(full, b)
    assert 1 < sub.size < full.size
    keys = np.arange(3**9)
    got = sub._lookup(keys)
    assert got.dtype == np.intp and "_dense_index" not in vars(sub)
    assert np.array_equal(got, sub._dense_index[keys])
    assert np.array_equal(sub.indices_of(sub.mats), np.arange(sub.size))
    with pytest.raises(KeyError):
        sub.indices_of(full.mats)


def test_absent_elements_raise_key_error():
    lower = np.array([[1, 0], [1, 1]])
    b = borel_subgroup(5)
    assert lower[None] not in b
    with pytest.raises(KeyError):
        b.indices_of(lower[None])
    with pytest.raises(KeyError):
        b.index_of(element(lower, 5))
    with pytest.raises(KeyError):
        b.indices_of(np.stack([np.eye(2, dtype=np.int64), lower]))
    for d in (2, 3):
        empty = GroupTable(np.empty((0, d, d), dtype=np.int64), 5, "empty")
        eye = np.eye(d, dtype=np.int64)
        assert empty.identity_index is None
        assert eye[None] not in empty
        assert len(empty.indices_of(np.empty((0, d, d)))) == 0
        with pytest.raises(KeyError):
            empty.indices_of(eye[None])
