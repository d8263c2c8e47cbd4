"""Earlier forms of three library routines, kept as oracles for their one-pass forms.

- `former_cocone` builds CC(f) as C(f) shifted by -1, with the projection
  onto X, as `complexes.cocone` once did.
- `former_envelope_tail` rebuilds V and v_map of an envelope from its f:
  the cocone of f, minimized, and the pull of the cocone's projection.
  `approx._envelope` once ran this after its stages; it now reads V and
  v_map off the last stage.
- `former_invert` inverts a path matrix by the dense reduction of
  [S | 1] on `linalg.Matrix` objects, then the Neumann series in the radical
  part, as `PathMatrix.invert` once did.
"""

from siltglue.complexes import ChainMap, ComplexError, PathMatrix, cone, minimize, shift
from siltglue.linalg import Matrix


def former_cocone(f):
    """(C(f)[-1], its projection onto the source of f)."""
    X, Y = f.source, f.target
    CC = shift(cone(f), -1)
    alg = X.algebra
    proj = {
        n: PathMatrix.blocks(alg, (vs,), (vs, Y.component(n - 1)), {(0, 0): PathMatrix.identity(alg, vs)})
        for n, vs in X.components.items()
    }
    return CC, ChainMap(CC, X, proj)


def former_envelope_tail(f):
    """(V, v_map) of the envelope whose map M -> U is f, rebuilt from f."""
    V, v = former_cocone(f)
    Vm = minimize(V)
    return Vm.complex, Vm.pull(v)


def former_invert(m):
    """The inverse of a path matrix with invertible scalar part, by [S | 1] on `Matrix` objects."""
    if m.rows != m.cols:
        raise ComplexError("not square")
    alg = m.algebra
    fld = alg.field
    n = m.rows
    sp = m.scalar_part()
    if n == 1:
        if fld.is_zero(sp[0][0]):
            raise ComplexError("scalar part is singular")
        s_inv_field = [[fld.inv(sp[0][0])]]
    else:
        aug = [s + e for s, e in zip(sp, Matrix.identity(fld, n).data)]
        red, piv = Matrix(fld, aug, cols=2 * n).rref()
        if piv != list(range(n)):
            raise ComplexError("scalar part is singular")
        s_inv_field = [[red[i, n + j] for j in range(n)] for i in range(n)]
    cv, rv = m.col_vertices, m.row_vertices
    units = ((i, j, c) for i, row in enumerate(s_inv_field) for j, c in enumerate(row) if cv[i] == rv[j])
    cells = {(i, j): {alg.trivial_path(cv[i]): c} for i, j, c in units if not fld.is_zero(c)}
    s_inv = PathMatrix._of(alg, cv, rv, cells)
    r = m.radical_part()
    if r.is_zero():
        return s_inv
    term = s_inv.compose(r)
    acc = power = PathMatrix.identity(alg, cv)
    sign = -1
    while True:
        power = power.compose(term)
        if power.is_zero():
            break
        acc = acc + power if sign > 0 else acc - power
        sign = -sign
    return acc.compose(s_inv)
