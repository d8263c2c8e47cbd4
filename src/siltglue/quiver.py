"""Finite acyclic quivers and their path algebras.

Conventions (fixed once, everywhere):

* paths compose left-to-right: for arrows a: 1->2 and b: 2->3 the product
  ``a*b`` is the path ``ab`` from 1 to 3;
* right modules, P_v := e_v A; Hom_A(P_v, P_w) is e_w A e_v acting by left
  multiplication, with basis the paths from w to v.

A path is a named tuple (source, target, arrows), so it hashes and compares
as that tuple does, in C, and a plain tuple with the same fields finds it in
any path-keyed dict.  The product of basis paths p and q is one lookup,
`basis_path[p.source, q.target, p.arrows + q.arrows]`: the basis path whose
arrow word is the two words joined.  A trivial factor gives the other, and a
pair that does not compose is no key.

`build_algebra` hands out one live `PathAlgebra` per field, vertex order and
arrow list, so equal algebras (loaded, corner, quotient or opposite) share one
path basis and one set of tables; `==` still compares by value.
"""

import functools
import weakref
from typing import NamedTuple

from .fields import QQ


class QuiverError(ValueError):
    pass


class Arrow(NamedTuple):
    name: str
    source: str
    target: str


class Quiver:
    """Finite quiver with unique vertex labels and arrow names; must be acyclic."""

    def __init__(self, vertices, arrows):
        vertices = [str(v) for v in vertices]
        if len(set(vertices)) != len(vertices):
            raise QuiverError("duplicate vertex labels")
        arrs = [Arrow(str(name), str(src), str(tgt)) for name, src, tgt in arrows]
        names = [a.name for a in arrs]
        if len(set(names)) != len(names):
            raise QuiverError("duplicate arrow names")
        vset = set(vertices)
        for a in arrs:
            if a.source not in vset or a.target not in vset:
                raise QuiverError(f"arrow {a.name} uses unknown vertex")
        self.vertices = vertices
        self.arrows = arrs
        self.arrow_by_name = {a.name: a for a in arrs}
        self.vertex_index = {v: i for i, v in enumerate(vertices)}
        self._check_acyclic()

    def _check_acyclic(self):
        out = {v: [] for v in self.vertices}
        for a in self.arrows:
            out[a.source].append(a)
        state = {v: 0 for v in self.vertices}  # 0 new, 1 on stack, 2 done
        for start in self.vertices:
            if state[start]:
                continue
            stack = [(start, iter(out[start]), [])]
            state[start] = 1
            while stack:
                v, it, _ = stack[-1]
                adv = next(it, None)
                if adv is None:
                    state[v] = 2
                    stack.pop()
                    continue
                w = adv.target
                if state[w] == 1:
                    cycle = [adv.name]
                    for u, _, tr in reversed(stack):
                        if u == w:
                            break
                        if tr:
                            cycle.append(tr[-1])
                    raise QuiverError(
                        "cycle detected through arrow(s) " + ", ".join(reversed(cycle))
                    )
                if state[w] == 0:
                    state[w] = 1
                    stack.append((w, iter(out[w]), [adv.name]))

    def full_subquiver(self, vertex_subset):
        keep = set(vertex_subset)
        verts = [v for v in self.vertices if v in keep]
        arrs = [a for a in self.arrows if a.source in keep and a.target in keep]
        return Quiver(verts, arrs)

    def opposite(self):
        return Quiver(self.vertices, [(a.name, a.target, a.source) for a in self.arrows])

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Quiver)
            and self.vertices == other.vertices
            and self.arrows == other.arrows
        )

    def __repr__(self):
        return f"Quiver({self.vertices}, {[a.name for a in self.arrows]})"


class Path(NamedTuple):
    """A path in a quiver; empty arrow tuple means the trivial path e_v.  A tuple, it hashes as
    hash((source, target, arrows)), afresh in each process, so an unpickled path too."""

    source: str
    target: str
    arrows: tuple  # tuple of arrow names, composing left to right

    @property
    def length(self):
        return len(self.arrows)

    def is_trivial(self):
        return not self.arrows

    def label(self):
        return "*".join(self.arrows) if self.arrows else f"e_{self.source}"

    def __repr__(self):
        return f"Path({self.label()}: {self.source}->{self.target})"


class _Memo(dict):
    """A table of `make(*key)`, each value made on the first read of its key."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(*key)
        return value


def _left_pairs(between, pos, s, v):
    """Left multiplication by the path s, e_{s.target} A e_v -> e_{s.source} A e_v, as position pairs.

    The pairs (a, b) say that s*p is path b of e_{s.source} A e_v when p is
    path a of e_{s.target} A e_v (positions in `between`, found by `pos`).
    A path algebra has no relations, so s*p is a single path; s*p = s'*p
    only when s = s', and s*p = s*p' only when p = p'.  That is why
    `HomComplex` writes each entry of delta^m once, with no sums: for one
    basis path p, the terms s of one entry of d_Y give distinct s*p,
    distinct entries land in distinct blocks, the same holds for the
    products p*t with d_X, and the two kinds land in different degrees.
    Read through the memo `PathAlgebra.left_action[s, v]`.
    """
    return [(a, pos[s.source, p.target, s.arrows + p.arrows]) for a, p in enumerate(between.get((s.target, v), ()))]


def _right_pairs(between, pos, t, w):
    """Right multiplication by the path t, e_w A e_{t.source} -> e_w A e_{t.target}: the mirror
    image of `_left_pairs`, with pairs (a, b) such that p*t is path b when p is path a.
    Read through the memo `PathAlgebra.right_action[t, w]`."""
    return [(a, pos[p.source, t.target, p.arrows + t.arrows]) for a, p in enumerate(between.get((w, t.source), ()))]


class PathAlgebra:
    """Path algebra of a finite acyclic quiver over an exact field.

    The path basis is enumerated once, by length and then lexicographically
    by arrow indices (the trivial paths in vertex order); this order fixes
    all downstream determinism.  `basis_path` maps each basis path, and so
    each equal (source, target, arrows) tuple, to the basis path itself: the
    table of the product rule in the module docstring, whose results are the
    basis objects, so dict lookups on them match by identity.
    """

    def __init__(self, quiver, field=QQ):
        self.quiver = quiver
        self.field = field
        self.basis = self._enumerate_paths()
        self.basis_index = {p: i for i, p in enumerate(self.basis)}
        self.basis_path = {p: p for p in self.basis}
        # between[w, v]: the paths from w to v, a basis of e_w A e_v = Hom(P_v, P_w), not to be
        # changed; between_index[p]: the position of p there
        self.between, self.between_index = {}, {}
        for p in self.basis:
            paths = self.between.setdefault((p.source, p.target), [])
            self.between_index[p] = len(paths)
            paths.append(p)
        self._trivial = {p.source: p for p in self.basis if p.is_trivial()}
        self._by_arrows = {p.arrows: p for p in self.basis if p.arrows}
        # action tables left_action[s, v] and right_action[t, w], filled as they are read; they
        # hold no reference to the algebra, which reference counting can then free at once
        tables = (self.between, self.between_index)
        self.left_action = _Memo(functools.partial(_left_pairs, *tables))
        self.right_action = _Memo(functools.partial(_right_pairs, *tables))

    def _enumerate_paths(self):
        """The paths in basis order, built so: a path of length n + 1 is a path of
        length n, in order, followed by an arrow leaving its target, in arrow order."""
        q = self.quiver
        leaving = {v: [] for v in q.vertices}
        for a in q.arrows:
            leaving[a.source].append(a)
        paths = [Path(v, v, ()) for v in q.vertices]
        layer = [Path(a.source, a.target, (a.name,)) for a in q.arrows]
        while layer:
            paths += layer
            layer = [Path(p.source, a.target, p.arrows + (a.name,)) for p in layer for a in leaving[p.target]]
        return paths

    @property
    def dimension(self):
        return len(self.basis)

    def trivial_path(self, v):
        if v not in self._trivial:
            raise QuiverError(f"unknown vertex {v!r}")
        return self._trivial[v]

    def path_of_arrows(self, arrow_names):
        """The basis path a nonempty arrow-name sequence spells, read from one table; a sequence that
        is not there is checked name by name only to raise the error that says why."""
        try:
            return self._by_arrows[tuple(arrow_names)]
        except (KeyError, TypeError):  # no path, or an unhashable name: the checks below raise the error
            pass
        if not arrow_names:
            raise QuiverError("empty arrow list; a trivial path is written e:<vertex>")
        for n in arrow_names:
            if not isinstance(n, str) or n not in self.quiver.arrow_by_name:
                raise QuiverError(f"unknown arrow {n!r}")
        arrs = [self.quiver.arrow_by_name[n] for n in arrow_names]
        for x, y in zip(arrs, arrs[1:]):
            if x.target != y.source:
                raise QuiverError(f"arrows {x.name}, {y.name} do not compose")

    def compose_paths(self, p, q):
        """p*q = first p then q, by the product rule; None when not composable."""
        return self.basis_path.get((p.source, q.target, p.arrows + q.arrows))

    def paths_between(self, src, tgt):
        """All paths src -> tgt, in basis order."""
        return list(self.between.get((src, tgt), ()))

    def element(self, terms):
        return AlgebraElement(self, dict(terms))

    def zero_element(self):
        return AlgebraElement(self, {})

    def unit_at(self, v, coeff=None):
        c = self.field.one if coeff is None else coeff
        return AlgebraElement(self, {self.trivial_path(v): c})

    def path_element(self, p, coeff=None):
        c = self.field.one if coeff is None else coeff
        return AlgebraElement(self, {p: c})

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, PathAlgebra)
            and self.quiver == other.quiver
            and self.field == other.field
        )

    def __repr__(self):
        return f"PathAlgebra({self.quiver!r}, {self.field!r})"


class AlgebraElement:
    """Scalar-linear combination of paths sharing one (source, target) pair.

    Zero coefficients are never stored; the zero element has no terms and no
    source/target constraint.  The constructor only drops zeros: that every
    term is a basis path with the expected endpoints is checked where
    entries come from outside, by `PathMatrix.check_entries`.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        is_zero = algebra.field.is_zero
        clean = {}
        for p, c in terms.items():
            if not is_zero(c):
                clean[p] = c
        self.algebra = algebra
        self.terms = clean

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if other.algebra != self.algebra:
            raise QuiverError("different algebras")
        if self.terms and other.terms:
            p, q = next(iter(self.terms)), next(iter(other.terms))
            if p.source != q.source or p.target != q.target:
                raise QuiverError("terms do not share source and target")
        fld = self.algebra.field
        out = dict(self.terms)
        for p, c in other.terms.items():
            out[p] = fld.add(out.get(p, fld.zero), c)
        return AlgebraElement(self.algebra, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        fld = self.algebra.field
        return AlgebraElement(self.algebra, {p: fld.neg(c) for p, c in self.terms.items()})

    def scale(self, scalar):
        fld = self.algebra.field
        return AlgebraElement(self.algebra, {p: fld.mul(scalar, c) for p, c in self.terms.items()})

    def __mul__(self, other):
        """Bilinear extension of path concatenation (self first, then other)."""
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if other.algebra != self.algebra:
            raise QuiverError("different algebras")
        alg = self.algebra
        fld = alg.field
        out = {}
        for p, cp in self.terms.items():
            for q, cq in other.terms.items():
                pq = alg.compose_paths(p, q)
                if pq is not None:
                    out[pq] = fld.add(out.get(pq, fld.zero), fld.mul(cp, cq))
        return AlgebraElement(alg, out)

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and other.algebra == self.algebra
            and other.terms == self.terms
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        fld = self.algebra.field
        bits = []
        for p in sorted(self.terms, key=lambda p: self.algebra.basis_index[p]):
            bits.append(f"{fld.to_str(self.terms[p])}*{p.label()}")
        return " + ".join(bits)


ALGEBRAS = weakref.WeakValueDictionary()  # the live algebras by `algebra_key`, each gone with its last reference


def algebra_key(tag, vertices, arrows):
    """The `ALGEBRAS` key: a field tag, the vertex labels and the (name, source, target) of each arrow, in order."""
    return tag, tuple(vertices), tuple(arrows)


def build_algebra(quiver, field=QQ):
    """The path algebra, one object per content (`ALGEBRAS`); `Quiver` has already refused a cyclic quiver."""
    key = algebra_key(field.tag, quiver.vertices, ((a.name, a.source, a.target) for a in quiver.arrows))
    alg = ALGEBRAS.get(key)
    if alg is None:
        alg = ALGEBRAS[key] = PathAlgebra(quiver, field)
    return alg
