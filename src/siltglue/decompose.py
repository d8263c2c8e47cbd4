"""Krull-Schmidt decomposition and isomorphism testing over any field.

Isomorphism of minimal complexes is decided by searching for a chain map
whose trivial-path-coefficient block is invertible in every degree (such a
map is an isomorphism of complexes since the arrow radical is nilpotent).

A minimal complex is cut into summands in one place: the connected
components of its differentials, of which it is the direct sum, so a
component needs no certificate of its own.  A connected complex with two or
more summands is split by an idempotent, as below, which only conjugates
it: the lifted idempotent becomes a 0/1 diagonal, and the conjugate is cut
into its components.

Decomposition splits primitive idempotents of the endomorphism algebra E
modulo homotopy.  E/rad E is read through sigma, the trivial-path
coefficients of the representatives, which are block-diagonal in (degree,
vertex) blocks: the radical is the common kernel of the block trace forms,
exactly so when the characteristic is 0 or exceeds every block size and
certified by a nilpotency check otherwise.  A product in the quotient is one
product of sigma values, formed when it is asked for and reduced modulo the
radical to its coordinates, with no product of chain maps.  Idempotents are
found in the quotient by minimal-polynomial factorization of one candidate
stream, the basis elements and then fixed pseudo-random combinations of them,
which the isomorphism search also walks over the chain maps.  Over Q no
pass over the centre could add a split: an element whose minimal
polynomial is a power of one irreducible has the same trace per dimension
in every simple block, a proper linear condition that no basis meets when
there are two or more blocks, and one block has a field as its centre.
The idempotents are lifted to exact chain-level ones by Newton iteration.
Minimal polynomials are lists of field scalars, and the idempotent of a
split f^k g of one is the Chinese-remainder one, read off the minimal
polynomial of f(x)^k with no Bezout identity.  Over Q one of degree at
most 2 is split exactly through its discriminant and sympy factors the
others; over F_p sympy's `gf_factor` factors them all.  sympy is imported
on the first such factorization, so a run that meets none never loads it.
"""

import importlib.util
import math
import random
import sys
from collections import Counter
from fractions import Fraction

from .fields import QQ
from .complexes import (
    ChainMap,
    MinimizeResult,
    PathMatrix,
    ProjComplex,
    minimal_cone,
    minimize,
    subcomplex_on_indices,
    transform,
)
from .homs import HomSpace
from .linalg import Matrix, extend_rref, kernel_basis, rank, residue, rref_kernel_basis, row_space_rref


class DecomposeError(RuntimeError):
    pass


ISO_TRIALS = 64  # random candidate maps `is_isomorphic` tries after the basis cycles
NEWTON_STEPS = 64  # Newton steps an idempotent lift may take before it fails


def _lazy_module(name):
    """The module `name`, executed on its first attribute access (the `importlib.util.LazyLoader` recipe).

    A module already imported is returned as it is; one that is not
    installed raises ModuleNotFoundError, as `import` would.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


sympy = _lazy_module("sympy")  # factors the minimal polynomials over F_p, and over Q those of degree 3 or more


# ---------------------------------------------------------------------------
# isomorphism testing


class IsoResult:
    __slots__ = ("isomorphic", "witness", "certified")

    def __init__(self, isomorphic, witness=None, certified=True):
        self.isomorphic = isomorphic
        self.witness = witness
        self.certified = certified


def _scalar_invertible_everywhere(g):
    """Is the trivial-path block of g invertible in every degree?"""
    X, Y = g.source, g.target
    fld = X.algebra.field
    for n in set(X.components) | set(Y.components):
        if len(X.component(n)) != len(Y.component(n)):
            return False
        m = g.component(n)
        if m.rows == 0:
            continue
        sp = Matrix(fld, m.scalar_part(), cols=m.cols)
        if rank(sp) < m.rows:
            return False
    return True


def _candidates(fld, basis, tries, bound):
    """The vectors of `basis`, then `tries` random combinations of them with coefficients in [-bound, bound].

    Every call draws from the same fixed stream, `Random(0)`.  A combination
    draws one coefficient per basis vector, in basis order; a combination
    that is zero is skipped but uses up its try.
    """
    yield from basis
    if not basis:
        return
    rng = random.Random(0)
    for _ in range(tries):
        x = [0] * len(basis[0])
        for b in basis:
            c = fld.of(rng.randint(-bound, bound))
            if c:
                x = [fld.add(a, fld.mul(c, v)) for a, v in zip(x, b)]
        if any(x):
            yield x


def _minimal_model(Z):
    """`minimize(Z)`; a complex with no differential is its own minimal model."""
    return minimize(Z) if Z.differentials else MinimizeResult(Z, Z, {}, {})


def is_isomorphic(X, Y):
    """Decide X ~= Y in the homotopy category, with a verified witness.

    A `True` verdict always carries a chain map X -> Y whose cone is
    contractible: the witness is from_min o g o to_min for a chain map g
    between the minimal models whose minimal cone (`minimal_cone`, one
    direct elimination) is zero, and the homotopy equivalences on either
    side leave the cone's homotopy type alone.  A `False` verdict is
    certified when the minimal graded vertex multisets differ or no
    non-zero chain map joins the minimal models, and flagged uncertified
    when only the randomized invertible-map search failed.
    """
    if X.algebra is not Y.algebra and X.algebra != Y.algebra:
        raise DecomposeError("complexes over different algebras")
    mx, my = map(_minimal_model, (X, Y))
    if mx.complex.graded_multiset() != my.complex.graded_multiset():
        return IsoResult(False, certified=True)
    if mx.complex.is_zero():
        w = ChainMap.zero(X, Y)
        return IsoResult(True, witness=w, certified=True)
    hs = HomSpace(mx.complex, my.complex, 0)
    if not hs.cycle_basis:
        return IsoResult(False, certified=True)
    for v in _candidates(X.algebra.field, hs.cycle_basis, ISO_TRIALS, 5):
        g = ChainMap(mx.complex, my.complex, hs.fvars.from_vector(v))
        if _scalar_invertible_everywhere(g) and minimal_cone(g)[0].is_zero():
            return IsoResult(True, witness=my.from_min.compose(g).compose(mx.to_min), certified=True)
    return IsoResult(False, certified=False)


# ---------------------------------------------------------------------------
# endomorphism algebra through its trivial-path coefficients


def _sigma(g):
    """sigma(g): the non-zero trivial-path coefficients of g, {(n, i, j): c}."""
    return {
        (n, i, j): c
        for n, m in g.components.items()
        for (i, j), terms in m.cells.items()
        for p, c in terms.items()
        if not p.arrows
    }


def _sigma_mul(fld, x, y):
    """The product of two sigma values: blockwise matrix products, per degree."""
    out = {}
    for (n, i, j), a in x.items():
        for (m, k, l), b in y.items():
            if (m, k) == (n, j):
                out[n, i, l] = fld.add(out.get((n, i, l), 0), fld.mul(a, b))
    return {key: c for key, c in out.items() if c}


def _combine(fld, coeffs, sigmas):
    """The sigma value sum_a coeffs[a] sigmas[a]."""
    out = {}
    for c, sig in zip(coeffs, sigmas):
        if c:
            for key, a in sig.items():
                out[key] = fld.add(out.get(key, 0), fld.mul(c, a))
    return {key: a for key, a in out.items() if a}


class EndAlgebra:
    """End_{K^b}(X) of a minimal X in the canonical representative basis b_i, seen through sigma.

    sigma sends a chain map to its trivial-path coefficients.  It is
    multiplicative, since a trivial coefficient of a product comes only
    from trivial times trivial; it vanishes on null-homotopic maps, whose
    entries are radical when X is minimal; and its kernel is nilpotent,
    since the quiver is acyclic.  So E / rad E = sigma(E) / rad sigma(E).
    sigma(g) is block-diagonal: its blocks b = (n, v) are the summands P_v of
    X in degree n.  `sigmas[i]` is sigma(b_i).
    """

    def __init__(self, X):
        self.X = X
        self.field = X.algebra.field
        self.reps = HomSpace(X, X, 0).basis_maps()
        self.dim = len(self.reps)
        self.sigmas = [_sigma(b) for b in self.reps]

    def radical(self):
        """R, the common kernel of the block trace forms tr_b(sigma(b_i) sigma(b_j)), as coordinate vectors.

        rad E lies in R in every characteristic.  An x in R has
        tr_b(sigma(x)^k) = 0 for every k >= 1 and every block b, so by
        Newton's identities sigma(x) is nilpotent, and the ideal R is rad E,
        when the characteristic is 0 or exceeds the size of every block.
        """
        fld, comps, rows = self.field, self.X.components, {}
        for j, y in enumerate(self.sigmas):
            for i, x in enumerate(self.sigmas):
                for (n, a, b), c in x.items():
                    if (n, b, a) in y:
                        row = rows.setdefault((n, comps[n][a], j), [0] * self.dim)
                        row[i] = fld.add(row[i], fld.mul(c, y[n, b, a]))
        return kernel_basis(Matrix(fld, list(rows.values()), cols=self.dim))


class SemisimpleQuotient:
    """E / R, R = `end.radical()`, in the coordinates of the representatives off R's RREF pivots.

    One running RREF holds the rows [sigma(r) | 0], r in R, and
    [sigma(b_f) | e_f] for the free representatives b_f: [sigma(x) | 0]
    reduces against it to [0 | -c], c the coordinates of the class of x.  A
    product is formed when it is asked for: sigma(x) sigma(y) is one product
    of sigma values, reduced so.  `certified` says that R is rad E: always
    when the characteristic exceeds the largest block size m, and otherwise
    when sigma(R)^m = 0, since R contains rad E and a nilpotent ideal of
    m x m block matrices has its m-th power zero.
    """

    def __init__(self, end):
        self.end = end
        self.field = fld = end.field
        radical = end.radical()
        pivots = set(row_space_rref(fld, radical, reduced=False)[1])
        self.free = [i for i in range(end.dim) if i not in pivots]
        self.dim = len(self.free)
        self.sigmas = [end.sigmas[f] for f in self.free]
        self.keys = {key: c for c, key in enumerate(sorted({key for x in end.sigmas for key in x}))}
        ideal = [_combine(fld, r, end.sigmas) for r in radical]
        self.rows, self.pivots = [], []
        for r in ideal:
            extend_rref(fld, self.rows, self.pivots, self._row(r))
        for a, x in enumerate(self.sigmas):
            extend_rref(fld, self.rows, self.pivots, self._row(x, a))
        m = max(vs.count(v) for vs in end.X.components.values() for v in vs)
        self.certified = fld == QQ or fld.p > m or self._is_nilpotent(ideal, m)
        self.one = self.project({(n, i, i): 1 for n, vs in end.X.components.items() for i in range(len(vs))})

    def _row(self, x, free=None):
        """[x | e_free] (or [x | 0]) for a sigma value x, its key coordinates in `keys` order."""
        row = [0] * (len(self.keys) + self.dim)
        for key, c in x.items():
            row[self.keys[key]] = c
        if free is not None:
            row[len(self.keys) + free] = 1
        return row

    def _is_nilpotent(self, ideal, m):
        """Is every product of m sigma values from `ideal` zero?

        Each power is kept as the products of the one before with `ideal`
        that are independent of those kept before them.
        """
        power = ideal
        for _ in range(m - 1):
            rows, pivots = [], []
            products = (_sigma_mul(self.field, x, r) for x in power for r in ideal)
            power = [p for p in products if extend_rref(self.field, rows, pivots, self._row(p))]
        return not power

    def project(self, x):
        """Coordinates of the class whose sigma value is x."""
        red = residue(self.field, self.rows, self.pivots, self._row(x))
        return [self.field.neg(c) for c in red[len(self.keys) :]]

    def lift(self, x):
        """The chain map sum_a x_a b_{free[a]}, in the class of x."""
        g = ChainMap.zero(self.end.X, self.end.X)
        for c, i in zip(x, self.free):
            if c:
                g = g + self.end.reps[i].scale(c)
        return g

    def sigma(self, x):
        """sigma of the class with coordinates x: sum_a x_a sigma(b_{free[a]})."""
        return _combine(self.field, x, self.sigmas)

    def mul(self, x, y):
        return self.project(_sigma_mul(self.field, self.sigma(x), self.sigma(y)))


# ---------------------------------------------------------------------------
# idempotent search in the semisimple quotient


def _min_poly(S, x):
    """Monic minimal polynomial of x in S, highest degree first: rows [x^j | e_j] enter one
    running RREF, and the first to leave a pivot in the unit block holds the relation."""
    fld, dim, rows, pivs, cur, j = S.field, S.dim, [], [], S.one, 0
    while True:
        extend_rref(fld, rows, pivs, cur + [int(i == j) for i in range(dim + 1)])
        if pivs[-1] >= dim:
            rel = rows[-1][dim : dim + j + 1]
            return [fld.div(c, rel[j]) for c in reversed(rel)]
        cur, j = S.mul(cur, x), j + 1


def _eval_poly(S, coeffs, x):
    """coeffs(x) in S by Horner's rule."""
    fld, acc = S.field, [0] * S.dim
    for i, c in enumerate(coeffs):
        if i:
            acc = S.mul(acc, x)
        if c:
            acc = [fld.add(a, fld.mul(c, o)) for a, o in zip(acc, S.one)]
    return acc


def _quadratic_first_factor(ints):
    """`_first_factor` of an integer polynomial of degree at most 2, decided exactly.

    A linear polynomial is one factor, and so is a quadratic whose
    discriminant is not a positive square, a double root included.  One with
    two distinct rational roots p/q (lowest terms, q > 0) has the factors
    q t - p; sympy lists the lexicographically least coefficient list first.
    """
    if len(ints) < 3:
        return None
    a, b, c = ints
    disc = b * b - 4 * a * c
    if disc <= 0:
        return None
    root = math.isqrt(disc)
    if root * root != disc:
        return None
    roots = (Fraction(-b + root, 2 * a), Fraction(-b - root, 2 * a))
    return min([r.denominator, -r.numerator] for r in roots), 1


def _first_factor(fld, poly):
    """(coefficients, multiplicity) of sympy's first irreducible factor of poly, or None
    when poly has fewer than two distinct irreducible factors.

    Over F_p sympy's `gf_factor` factors poly.  Factoring over Q clears
    denominators and factors over Z; doing the clearing here gives the same
    factors in the same order.  sympy orders them by degree, then
    multiplicity, then primitive integer coefficients.
    """
    if fld == QQ:
        den = math.lcm(*(c.denominator for c in poly))
        ints = [int(c * den) for c in poly]
        if len(ints) <= 3:
            return _quadratic_first_factor(ints)
        zpoly = sympy.Poly(ints, sympy.Symbol("t"), domain="ZZ")
        factors = [(f.all_coeffs(), k) for f, k in sympy.factor_list(zpoly)[1]]
    else:
        factors = sympy.polys.galoistools.gf_factor(poly, fld.p, sympy.polys.domains.ZZ)[1]
    if len(factors) < 2:
        return None
    f, k = factors[0]
    return [fld.of(int(c)) for c in f], k


def _try_minpoly_split(S, x):
    """The idempotent of x's minimal polynomial's split f^k g, f the first irreducible factor, or None.

    y = f(x)^k is 0 on the f-primary part of k[x] = k[t]/(f^k) x k[t]/(g)
    and a unit on the other, so its minimal polynomial is t r(t) with
    r(0) != 0, and 1 - r(y)/r(0) is 0 on the first part and 1 on the other.
    """
    fld = S.field
    first = _first_factor(fld, _min_poly(S, x))
    if first is None:
        return None
    factor, k = first
    fx = y = _eval_poly(S, factor, x)
    for _ in range(k - 1):
        y = S.mul(y, fx)
    *head, r0, _ = _min_poly(S, y)  # t r(t): head holds r's coefficients above r(0) = r0
    e = _eval_poly(S, [fld.div(fld.neg(c), r0) for c in head] + [0], y)
    if not any(e) or e == S.one or S.mul(e, e) != e:
        return None
    return e


def _find_idempotent(S):
    """A nontrivial idempotent of the semisimple algebra S, or None."""
    if S.dim <= 1:
        return None
    units = [[int(j == i) for j in range(S.dim)] for i in range(S.dim)]
    for x in _candidates(S.field, units, 20, 3):
        e = _try_minpoly_split(S, x)
        if e is not None:
            return e
    return None


# ---------------------------------------------------------------------------
# lifting and strict splitting


def _newton_idempotent_chain(g):
    """Iterate g <- 3g^2 - 2g^3 on chain maps until g o g == g on the nose.

    It converges when g^2 - g is nilpotent as a graded map, as it is when
    sigma(g^2 - g) is radical: the step squares g^2 - g up to a unit.
    """
    for _ in range(NEWTON_STEPS):
        g2 = g.compose(g)
        if (g2 - g).is_zero():
            return g
        g3 = g2.compose(g)
        g = g2.scale(3) - g3.scale(2)
    raise DecomposeError("idempotent lift did not converge at the chain level")


def _components(X):
    """The subcomplexes of X on the connected components of its differentials, in order of first (degree, index).

    Summand (n, i) joins (n + 1, j) when d^n has a cell at (j, i).  No cell
    joins two components, so X is their direct sum.
    """
    parent = {(n, i): (n, i) for n, vs in X.components.items() for i in range(len(vs))}

    def root(a):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    for n, d in X.differentials.items():
        for j, i in d.cells:
            parent[root((n, i))] = root((n + 1, j))
    parts = {}
    for n, i in sorted(parent):
        parts.setdefault(root((n, i)), {}).setdefault(n, []).append(i)
    return [subcomplex_on_indices(X, idx) for idx in parts.values()]


def _conjugate_by_idempotent(X, g):
    """Conjugate a minimal complex so that an exact chain-level idempotent g becomes a 0/1 diagonal.

    Per degree, U has as columns a basis of the image and then one of the
    kernel of each same-vertex block of g's scalar part, and D is the 0/1
    diagonal with ones on the image columns, so U^-1 g U has scalar part D.
    One conjugation, by V = D U^-1 g + (1 - D) U^-1 (1 - g), makes g exactly
    D: V g = D V because g is idempotent, and V is invertible because its
    scalar part is U^-1.  D is then a chain map of the result, so no cell of
    its differential joins a D = 1 index to a D = 0 one, and the result
    stays minimal, since conjugating by an invertible V keeps the
    differential in the radical.
    """
    alg = X.algebra
    fld = alg.field
    change = {}
    for n, vs in X.components.items():
        m = g.component(n)
        sp = m.scalar_part()
        by_vertex = {}
        for i, v in enumerate(vs):
            by_vertex.setdefault(v, []).append(i)
        U, ones = {}, {}
        for v, idx in by_vertex.items():
            # columns: basis of the image then of the kernel (block idempotent).
            # The pivot columns of the block's RREF are those outside the span
            # of the columns before them; the kernel is read off the same RREF.
            block = [[sp[i][j] for j in idx] for i in idx]
            red, piv = row_space_rref(fld, block)
            cols = [[row[j] for row in block] for j in piv] + rref_kernel_basis(fld, red, piv, len(idx))
            e = alg.trivial_path(v)
            for ci, col in enumerate(cols):
                for ri, c in enumerate(col):
                    if not fld.is_zero(c):
                        U[idx[ri], idx[ci]] = {e: c}
            for i in idx[: len(piv)]:
                ones[i, i] = {e: fld.one}
        u_inv = PathMatrix._of(alg, vs, vs, U).invert()
        D = PathMatrix._of(alg, vs, vs, ones)
        one = PathMatrix.identity(alg, vs)
        V = D.compose(u_inv).compose(m) + (one - D).compose(u_inv).compose(one - m)
        if not (V.compose(m) - D.compose(V)).is_zero():
            raise DecomposeError("idempotent not strictly diagonal after conjugation")
        change[n] = V
    return transform(X, change)


def _decompose_minimal(X):
    """(summand, 1, certified) per indecomposable summand of a minimal X, unsorted.

    X is cut into its components.  A connected X with two or more summands
    is conjugated by a lifted idempotent of E / rad E and cut into the
    components of the result.  Each part is decomposed in turn.
    """
    if X.summand_count() == 1:
        return [(X, 1, True)]
    parts = _components(X)
    if len(parts) == 1:
        end = EndAlgebra(X)
        if end.dim == 1:
            return [(X, 1, True)]
        S = SemisimpleQuotient(end)
        if not S.certified or S.dim == 1:
            return [(X, 1, S.certified)]
        e = _find_idempotent(S)
        if e is None:
            return [(X, 1, False)]
        parts = _components(_conjugate_by_idempotent(X, _newton_idempotent_chain(S.lift(e))))
        if len(parts) == 1:
            raise DecomposeError("idempotent split produced a trivial summand")
    return [p for Y in parts for p in _decompose_minimal(Y)]


def group_isomorphic(parts):
    """Merge (summand, multiplicity, certified, *tags) records by isomorphism.

    Returns one [summand, multiplicity, certified, *tags] list per class, in
    order of first appearance: the summand and tags of its first record, the
    sum of the multiplicities, and the conjunction of the `certified` flags.
    A record joins the first class whose summand is isomorphic to it, passed
    to `is_isomorphic` first, because its randomized search is not symmetric
    in its two arguments.  Each summand's minimal graded multiset is formed
    once: a class whose multiset differs is skipped without a call, since
    `is_isomorphic` answers False there, once it has checked that the
    algebras agree.  That check still raises for another algebra.
    """
    classes, keys = [], []
    for X, m, certified, *tags in parts:
        key = _minimal_model(X).complex.graded_multiset()
        for c, c_key in zip(classes, keys):
            alg = c[0].algebra
            if (c_key == key or alg is not X.algebra and alg != X.algebra) and is_isomorphic(c[0], X).isomorphic:
                c[1] += m
                c[2] = c[2] and certified
                break
        else:
            classes.append([X, m, certified, *tags])
            keys.append(key)
    return classes


def summand_order(part):
    """Sort key of a (summand, multiplicity, certified) triple: lowest degree, then graded multiset."""
    return (part[0].lo, sorted(part[0].graded_multiset().items()))


def decompose(X):
    """Indecomposable summands of X with multiplicities.

    Returns a list of (ProjComplex, multiplicity, certified) triples sorted
    by `summand_order`.  `certified` is True when each summand has a local
    endomorphism ring, and False when indecomposability rests on the
    exhausted randomized idempotent search, or on a radical candidate that
    is not nilpotent (`SemisimpleQuotient.certified`).  A complex with two
    or more summands and no differential is the sum of its stalks, each
    with a local End, the field.
    """
    if X.summand_count() > 1 and not X.differentials:
        stalks = Counter((n, v) for n, vs in X.components.items() for v in vs)
        return sorted(((ProjComplex.stalk(X.algebra, v, n), m, True) for (n, v), m in stalks.items()), key=summand_order)
    groups = group_isomorphic(_decompose_minimal(minimize(X).complex if X.differentials else X))
    return sorted((tuple(g) for g in groups), key=summand_order)
