import functools
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from siltglue.fields import QQ, PrimeField
from siltglue.linalg import (
    Matrix,
    det,
    extend_rref,
    in_row_space,
    independent_columns,
    kernel_basis,
    rank,
    residue,
    row_space_rref,
    solve,
)
from siltglue._kernel import rref_fp, rref_qq
from verifiers import is_q_scalar


TESTS = os.path.dirname(os.path.abspath(__file__))


def frac_matrix(rows):
    return Matrix(QQ, [[Fraction(x) for x in r] for r in rows], cols=len(rows[0]) if rows else 0)


def test_rref_canonical():
    m = frac_matrix([[2, 4], [1, 2]])
    red, piv = m.rref()
    assert piv == [0]
    assert red.data == [[Fraction(1), Fraction(2)]]


def _mul_vector(m, vec):
    """The product m . vec of a matrix and a column vector, over m's field."""
    fld = m.field
    return [functools.reduce(fld.add, (fld.mul(a, b) for a, b in zip(row, vec)), fld.zero) for row in m.data]


def test_rank_and_kernel():
    m = frac_matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rank(m) == 2
    ker = kernel_basis(m)
    assert len(ker) == 1
    for v in ker:
        assert _mul_vector(m, v) == [Fraction(0)] * 3


def test_solve_consistent_and_inconsistent():
    m = frac_matrix([[1, 1], [0, 1]])
    x = solve(m, [Fraction(3), Fraction(1)])
    assert _mul_vector(m, x) == [Fraction(3), Fraction(1)]
    m2 = frac_matrix([[1, 1], [2, 2]])
    assert solve(m2, [Fraction(1), Fraction(3)]) is None


def test_row_space_membership():
    rows, piv = row_space_rref(QQ, [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]])
    assert in_row_space(QQ, rows, piv, [Fraction(2), Fraction(5)])
    rows, piv = row_space_rref(QQ, [[Fraction(1), Fraction(1)]])
    assert not in_row_space(QQ, rows, piv, [Fraction(1), Fraction(0)])


def test_fp_solve():
    F = PrimeField(5)
    m = Matrix(F, [[2, 1], [1, 1]])
    x = solve(m, [1, 2])
    assert _mul_vector(m, x) == [1, 2]


def test_det_matches_sympy():
    """Random integer matrices up to 5 x 5, a third made singular, against sympy's determinant."""
    rng = random.Random(31)
    singular = 0
    for trial in range(150):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if trial % 3 == 0 and n > 1:  # row i a combination of other rows
            i, j = rng.sample(range(n), 2)
            k = rng.choice([r for r in range(n) if r != i])
            rows[i] = [2 * a - b for a, b in zip(rows[j], rows[k])]
        expected = sympy.Matrix(rows).det()
        singular += expected == 0
        assert det(frac_matrix(rows)) == Fraction(int(expected))
    assert singular >= 40
    # the same over F_5: the residue of the integer determinant
    F = PrimeField(5)
    for _ in range(40):
        rows = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
        assert det(Matrix(F, [[F.of(x) for x in r] for r in rows])) == int(sympy.Matrix(rows).det()) % 5


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_kernel_impls_agree_qq(seed):
    """The Q kernel gives sympy's RREF with the zero rows dropped."""
    rng = random.Random(seed)
    rows = rng.randint(0, 5)
    cols = rng.randint(1, 5)
    m = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(cols)] for _ in range(rows)]
    red, piv = rref_qq([list(r) for r in m])
    ref, ref_piv = sympy.Matrix(rows, cols, [sympy.Rational(x.numerator, x.denominator) for r in m for x in r]).rref()
    assert piv == list(ref_piv)
    assert red == [[Fraction(int(x.p), int(x.q)) for x in ref.row(i)] for i in range(len(ref_piv))]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_kernel_impls_agree_fp(seed):
    """The F_p kernel gives a reduced echelon basis of the row space, as sympy's GF(p) RREF."""
    rng = random.Random(seed)
    p = rng.choice([2, 3, 5, 7])
    rows = rng.randint(0, 5)
    cols = rng.randint(1, 5)
    m = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
    red, piv = rref_fp([list(r) for r in m], p)
    assert len(red) == len(piv)
    assert piv == sorted(set(piv))
    for i, (row, col) in enumerate(zip(red, piv)):
        assert all(0 <= x < p for x in row)
        assert row[col] == 1 and not any(row[:col])
        assert all(red[j][col] == 0 for j in range(len(red)) if j != i)
    for r in m:  # every input row is the combination its pivot entries dictate
        comb = [sum(r[col] * row[c] for row, col in zip(red, piv)) % p for c in range(cols)]
        assert comb == r
    K = sympy.GF(p)
    ref, ref_piv = DomainMatrix([[K(x) for x in r] for r in m], (rows, cols), K).rref()
    assert len(piv) == ref.rank()
    assert piv == list(ref_piv)
    assert red == [[int(x) % p for x in r] for r in ref.to_list()[: len(ref_piv)]]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_extend_rref_matches_full_reduction(seed):
    """Growing an RREF row by row gives the canonical RREF of the whole span."""
    rng = random.Random(seed)
    for field in (QQ, PrimeField(rng.choice([2, 3, 5]))):
        cols = rng.randint(1, 6)
        vectors = []
        for _ in range(rng.randint(1, 7)):
            if vectors and rng.random() < 0.3:  # a combination of earlier rows
                v = [field.zero] * cols
                for w in vectors:
                    c = field.of(rng.randint(-2, 2))
                    v = [field.add(a, field.mul(c, b)) for a, b in zip(v, w)]
            else:
                v = [field.of(rng.randint(-3, 3) * rng.randint(0, 1)) for _ in range(cols)]
            vectors.append(v)
        rows, pivs = [], []
        for i, v in enumerate(vectors):
            before = row_space_rref(field, vectors[:i])
            assert extend_rref(field, rows, pivs, v) == (not in_row_space(field, *before, v))
            assert (rows, pivs) == tuple(map(list, row_space_rref(field, vectors[: i + 1])))
            assert field != QQ or all(is_q_scalar(x) for r in rows for x in r)


def test_extend_rref_keeps_the_scalar_representation():
    """Over Q an integral entry of the grown rows is an int, not an integral Fraction; over F_5 the rows
    are the canonical RREF, as before."""
    rows, pivs = [], []
    assert extend_rref(QQ, rows, pivs, [2, 4, 0])
    assert rows == [[1, 2, 0]] and all(is_q_scalar(x) for r in rows for x in r)
    assert extend_rref(QQ, rows, pivs, [1, 0, 3])
    assert (rows, pivs) == ([[1, 0, 3], [0, 1, Fraction(-3, 2)]], [0, 1])
    assert all(is_q_scalar(x) for r in rows for x in r)
    assert extend_rref(QQ, rows, pivs, [Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)])  # residue (0, 0, -1/2)
    assert rows == [[1, 0, 0], [0, 1, 0], [0, 0, 1]] and all(type(x) is int for r in rows for x in r)
    F5, rows, pivs = PrimeField(5), [], []
    for v in ([2, 4, 0], [1, 0, 3]):
        assert extend_rref(F5, rows, pivs, v)
    assert (rows, pivs) == ([[1, 0, 3], [0, 1, 1]], [0, 1])
    assert (rows, pivs) == tuple(map(list, row_space_rref(F5, [[2, 4, 0], [1, 0, 3]])))


def test_residue_keeps_the_scalar_representation():
    """Over Q an entry of the residue that changes is an int when integral; over F_5 the values are as before."""
    rows, pivs = [[1, 0, 3], [0, 1, Fraction(-3, 2)]], [0, 1]
    half = Fraction(1, 2)
    got = residue(QQ, rows, pivs, [half, half, half])
    assert got == [0, 0, Fraction(-1, 4)] and [type(x) for x in got] == [int, int, Fraction]
    assert residue(QQ, rows, pivs, [1, 2, 3]) == [0, 0, 3] and all(type(x) is int for x in residue(QQ, rows, pivs, [1, 2, 3]))
    F5 = PrimeField(5)
    rows5 = [[F5.of(x) for x in r] for r in rows]
    h = F5.of(half)
    assert residue(F5, rows5, pivs, [h, h, h]) == [0, 0, F5.of(Fraction(-1, 4))]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_residue_matches_the_unnormalized_reduction(seed):
    """The residue has the values of the plain subtraction loop; over Q its entries are ints or non-integral Fractions."""
    rng = random.Random(seed)
    for field in (QQ, PrimeField(5), PrimeField(2147483647)):
        cols = rng.randint(1, 6)
        vecs = [[field.of(Fraction(rng.randint(-3, 3), rng.randint(1, 3))) for _ in range(cols)] for _ in range(3)]
        rows, pivs = row_space_rref(field, vecs[:2])
        v = vecs[2]
        want = list(v)
        for row, col in zip(rows, pivs):
            f = want[col]
            want = [field.sub(a, field.mul(f, b)) for a, b in zip(want, row)]
        got = residue(field, rows, pivs, v)
        assert got == want
        assert field != QQ or all(is_q_scalar(x) for x in got)


def sparse_rows(rng, value):
    """0-8 rows of 1-12 columns; at most 30% of the entries are `value()`, the rest 0."""
    rows, cols = rng.randint(0, 8), rng.randint(1, 12)
    cells = rng.sample(range(rows * cols), rng.randint(0, rows * cols * 3 // 10))
    m = [[0] * cols for _ in range(rows)]
    for cell in cells:
        m[cell // cols][cell % cols] = value()
    return cols, m


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_sparse_kernel_agrees_qq(seed):
    """On mostly-zero rows the Q kernel still gives sympy's RREF."""
    rng = random.Random(seed)
    cols, m = sparse_rows(rng, lambda: Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 4)))
    m = [[Fraction(x) for x in r] for r in m]
    red, piv = rref_qq([list(r) for r in m])
    ref, ref_piv = sympy.Matrix(len(m), cols, [sympy.Rational(x.numerator, x.denominator) for r in m for x in r]).rref()
    assert piv == list(ref_piv)
    assert red == [[Fraction(int(x.p), int(x.q)) for x in ref.row(i)] for i in range(len(ref_piv))]


def sympy_rref(m, cols):
    """sympy's RREF over Q of the rows `m`, zero rows dropped, as Fractions, and its pivots."""
    K = sympy.QQ
    entries = [[K(Fraction(x).numerator, Fraction(x).denominator) for x in r] for r in m]
    ref, piv = DomainMatrix(entries, (len(m), cols), K).rref()
    return [[Fraction(int(x.numerator), int(x.denominator)) for x in r] for r in ref.to_list()[: len(piv)]], list(piv)


def rows_of_kind(rng, kind):
    """0-6 seeded rows of 1-7 columns over Q, of one of the kinds the Q kernel must handle."""
    rows, cols = rng.randint(0, 6), rng.randint(1, 7)
    if kind == "integer":
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    elif kind == "large":  # large coprime denominators and numerators
        m = [[Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**6)) for _ in range(cols)] for _ in range(rows)]
    elif kind == "content":  # each row a multiple of a primitive row by a common rational factor
        m = []
        for _ in range(rows):
            k = Fraction(rng.randint(2, 60), rng.choice([1, 1, 3, 7, 10**6 + 3]))
            m.append([k * rng.randint(-4, 4) for _ in range(cols)])
    else:  # mostly zero, with pivots that are not units, so rows must be rescaled
        cols, m = sparse_rows(rng, lambda: rng.choice([-1, 1]) * rng.choice([2, 3, 4, 6, 9]))
        if m and rng.random() < 0.5:  # a row that depends on two others up to a non-unit factor
            a, b = rng.choice(m), rng.choice(m)
            m.append([3 * x - 2 * y for x, y in zip(a, b)])
    return cols, m


@pytest.mark.parametrize("kind", ["integer", "large", "content", "sparse"])
def test_rref_qq_matches_sympy_on_every_kind_of_row(kind):
    """The integer-preserving Q kernel gives sympy's RREF, with every entry an int or a proper Fraction."""
    rng = random.Random(f"rref-qq-{kind}")
    non_unit_leads = 0
    for _ in range(150):
        cols, m = rows_of_kind(rng, kind)
        before = [list(r) for r in m]
        red, piv = rref_qq(m)
        assert m == before  # the input rows are not changed
        assert (red, piv) == sympy_rref(m, cols)
        assert all(is_q_scalar(x) for r in red for x in r)
        non_unit_leads += sum(next((x for x in r if x), 1) not in (1, -1) for r in m)
    assert non_unit_leads > 100  # the rows do need rescaling


def test_rref_fp_receives_field_elements_only():
    """Every entry `_kernel.rref_fp` receives in the F_5 and F_2147483647 tests of the Hom, linear
    algebra, decomposition and approximation modules is an int in [0, p), the precondition under
    which it copies its rows as they are, and every value `independent_columns` receives over F_p
    there is an int in [1, p), under which its echelon stores values as they are (the `rref_fp_spy`
    plugin, in a pytest run of its own)."""
    root = os.path.dirname(TESTS)
    files = [os.path.join(TESTS, f"test_{name}.py") for name in ("homs", "linalg", "decompose", "approx")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), TESTS]))
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "rref_fp_spy",
         "-k", "F5 or F2147483647", *files],
        cwd=root, env=env, capture_output=True, text=True, timeout=600,
    )
    assert res.returncode == 0, res.stdout[-3000:]
    calls, bad = map(int, re.search(r"rref_fp calls (\d+), entries out of range (\d+)", res.stdout).groups())
    assert calls > 100 and bad == 0, res.stdout[-3000:]
    calls, bad = map(int, re.search(r"independent_columns F_p calls (\d+), values out of range (\d+)",
                                    res.stdout).groups())
    assert calls > 0 and bad == 0, res.stdout[-3000:]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2, 5, 2147483647]))
def test_sparse_kernel_agrees_fp(seed, p):
    """On mostly-zero rows the F_p kernel gives sympy's GF(p) RREF."""
    rng = random.Random(seed)
    cols, m = sparse_rows(rng, lambda: rng.randrange(1, p))
    red, piv = rref_fp([list(r) for r in m], p)
    K = sympy.GF(p)
    ref, ref_piv = DomainMatrix([[K(x) for x in r] for r in m], (len(m), cols), K).rref()
    assert piv == list(ref_piv)
    assert red == [[int(x) % p for x in r] for r in ref.to_list()[: len(ref_piv)]]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_sparse_extend_rref_matches_full_reduction(seed):
    """Growing an RREF by mostly-zero vectors, and testing membership, agree with a full reduction."""
    rng = random.Random(seed)
    for field in (QQ, PrimeField(5), PrimeField(2147483647)):
        cols, m = sparse_rows(rng, lambda: field.of(rng.choice([-3, -2, -1, 1, 2, 3])))
        vectors = [[field.of(x) for x in r] for r in m]
        if len(vectors) > 1:  # a sparse combination of two earlier vectors
            a, b = rng.sample(vectors, 2)
            vectors.append([field.sub(x, y) for x, y in zip(a, b)])
        rows, pivs = [], []
        for i, v in enumerate(vectors):
            before = row_space_rref(field, vectors[:i])
            assert extend_rref(field, rows, pivs, v) == (not in_row_space(field, *before, v))
            assert (rows, pivs) == tuple(map(list, row_space_rref(field, vectors[: i + 1])))
            assert field != QQ or all(is_q_scalar(x) for r in rows for x in r)
            assert in_row_space(field, rows, pivs, v)


SPARSE_FIELDS = [QQ, PrimeField(5), PrimeField(2147483647)]
SPARSE_IDS = ["Q", "F5", "F2147483647"]


def _nonzero(field, rng):
    """A random non-zero scalar; over Q half of them are Fractions that are not integral."""
    if field == QQ:
        x = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3, 7]))
        return int(x) if x.denominator == 1 else x
    return rng.choice([1, 2, field.p - 1, rng.randrange(1, field.p)])


def _sparse_matrix(field, rng, kind):
    """(rows, cols, entries) of one seeded sparse matrix of the given kind, rows and columns shuffled."""
    nz = functools.partial(_nonzero, field, rng)
    r, c = rng.randint(1, 7), rng.randint(1, 7)
    if kind == "empty":
        cells = {}
    elif kind == "single":
        cells = {(rng.randrange(r), rng.randrange(c)): nz()}
    elif kind == "chain":  # bidiagonal: each line crosses the next, in one long chain
        n = min(r, c)
        cells = {(i, i): nz() for i in range(n)} | {(i, i + 1): nz() for i in range(n - 1)}
        if rng.random() < 0.5:
            cells = {(b, a): x for (a, b), x in cells.items()}
    elif kind == "block":  # every line holds at least two entries, often dependent
        r, c, t = rng.randint(2, 6), rng.randint(2, 6), rng.randint(1, 3)
        a = [[nz() for _ in range(t)] for _ in range(r)]
        b = [[nz() for _ in range(c)] for _ in range(t)]
        cells = {}
        for i in range(r):
            for j in range(c):
                x = field.zero
                for k in range(t):
                    x = field.add(x, field.mul(a[i][k], b[k][j]))
                if not field.is_zero(x):
                    cells[i, j] = field.of(x)
    else:  # random, with a few rows copied or scaled so that the rank drops
        density = rng.choice([0.15, 0.3, 0.6])
        cells = {(i, j): nz() for i in range(r) for j in range(c) if rng.random() < density}
        for _ in range(rng.randint(0, 2)):
            src, dst, s = rng.randrange(r), rng.randrange(r), nz()
            for j in range(c):
                cells.pop((dst, j), None)
                if (src, j) in cells:
                    cells[dst, j] = field.of(field.mul(s, cells[src, j]))
    rows = list(range(max([r] + [i + 1 for i, _ in cells])))
    cols = list(range(max([c] + [j + 1 for _, j in cells])))
    rng.shuffle(rows)
    rng.shuffle(cols)
    entries = [(rows[i], cols[j], x) for (i, j), x in cells.items()]
    rng.shuffle(entries)
    return len(rows), len(cols), entries


@pytest.mark.parametrize("field", SPARSE_FIELDS, ids=SPARSE_IDS)
def test_sparse_rank_matches_the_row_reduction(field):
    """The sparse column echelon keeps as many columns as the rank of the dense RREF, on every kind of sparse
    matrix."""
    rng = random.Random(3201)
    kinds = ["empty", "single", "chain", "block"] + ["random"] * 6
    for trial in range(250):
        nrows, ncols, entries = _sparse_matrix(field, rng, kinds[trial % len(kinds)])
        dense = [[field.zero] * ncols for _ in range(nrows)]
        for a, b, x in entries:
            dense[a][b] = x
        assert len(independent_columns(field, entries)) == len(row_space_rref(field, dense)[1])
    assert independent_columns(field, []) == []


@pytest.mark.parametrize("field", SPARSE_FIELDS, ids=SPARSE_IDS)
def test_independent_columns_are_a_basis_of_the_column_space(field):
    """The columns the echelon keeps are the greedy basis, each column not in the span of those before it: the
    pivot columns of the dense RREF, so sorted, as many as the rank, and independent."""
    rng = random.Random(3202)
    kinds = ["empty", "single", "chain", "block"] + ["random"] * 6
    for trial in range(250):
        nrows, ncols, entries = _sparse_matrix(field, rng, kinds[trial % len(kinds)])
        dense = [[field.zero] * ncols for _ in range(nrows)]
        for a, b, x in entries:
            dense[a][b] = x
        cols = independent_columns(field, entries)
        assert cols == row_space_rref(field, dense)[1]
        assert len(row_space_rref(field, [[row[b] for row in dense] for b in cols])[1]) == len(cols)


def _forward_rows(field, rng):
    """A seeded matrix over `field`, with zero rows, duplicate rows, scaled rows, and sometimes 0 columns."""
    cols, nrows = rng.choice([0, 1, 2, 4, 7]), rng.randint(0, 7)
    nz = functools.partial(_nonzero, field, rng)
    rows = [[nz() if rng.random() < rng.choice([0.2, 0.5, 0.9]) else field.zero for _ in range(cols)] for _ in range(nrows)]
    for _ in range(rng.randint(0, 3)):
        if rows:
            kind, src = rng.choice(["zero", "copy", "scaled"]), rng.choice(rows)
            s = nz()
            rows.insert(rng.randint(0, len(rows)), {
                "zero": [field.zero] * cols, "copy": list(src), "scaled": [field.of(field.mul(s, x)) for x in src]}[kind])
    if field == QQ and rows and rng.random() < 0.5:  # Fraction entries, integral ones included
        rows = [[Fraction(x) for x in row] for row in rows]
    return rows


@pytest.mark.parametrize("field", SPARSE_FIELDS, ids=SPARSE_IDS)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_forward_elimination_stops_at_the_rref_pivots(field, seed):
    """reduced=False gives the pivots of the RREF, and echelon rows spanning the same row space, on
    rows with Fractions, zero rows, duplicate rows and 0 columns; the input rows are not changed."""
    rows = _forward_rows(field, random.Random(seed))
    before = [list(r) for r in rows]
    red, piv = row_space_rref(field, rows)
    echelon, forward = row_space_rref(field, rows, reduced=False)
    assert rows == before and forward == piv and len(echelon) == len(piv)
    assert all(not field.is_zero(row[c]) and not any(row[:c]) for row, c in zip(echelon, forward))
    assert row_space_rref(field, echelon) == (red, piv)
    kernel = rref_qq if field == QQ else functools.partial(rref_fp, p=field.p)
    assert kernel(rows, reduced=False)[1] == kernel(rows)[1] == piv
    assert rank(Matrix(field, rows, cols=len(rows[0]) if rows else 0)) == len(piv)
