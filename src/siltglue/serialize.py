"""JSON interchange for algebras, complexes, and chain maps (schema v=1).

Algebra files fix vertex and arrow order, which in turn fixes the path-basis
order and all downstream determinism.  Complex files reference their algebra
by path; matrix entries are lists of [pathspec, coeff] pairs where a
pathspec is "e:<vertex>" for a trivial path or a list of arrow names.

A file is read in one pass, each entry straight into its matrix cell and []
entries passed over.  Equal algebras are one object (`quiver.build_algebra`),
a content met before is not validated again, and `==` compares by value.
"""

import json
import os

from .fields import QQ, field_from_tag
from .quiver import ALGEBRAS, Quiver, algebra_key, build_algebra
from .complexes import ChainMap, PathMatrix, make_complex


class SerializeError(ValueError):
    pass


MAX_DEGREE_SPAN = 1000  # highest minus lowest occupied degree of a loaded complex; the verbs' work grows with it


def _check_version(data, what):
    if not isinstance(data, dict):
        raise SerializeError(f"{what}: expected a JSON object")
    v = data.get("v", 1)
    if v != 1:
        raise SerializeError(f"{what}: unsupported schema version {v!r}")


JSON_TYPES = {dict: "object", list: "array", str: "string"}


def _expect(value, kind, what):
    """`value` if it has the JSON type `kind` (a key of JSON_TYPES), else a SerializeError naming `what`."""
    if not isinstance(value, kind):
        raise SerializeError(f"{what}: expected a JSON {JSON_TYPES[kind]}")
    return value


def _array_of(value, kind, what):
    """`value` if it is a JSON array whose items have the JSON type `kind`, else a SerializeError."""
    for item in _expect(value, list, what):
        _expect(item, kind, f"{what} item")
    return value


def _degree(key, what):
    """The degree a key names.  Only the form the writer emits, str(n), is read, so that no two keys
    ("0" and "00", say) name one degree."""
    try:
        n = int(key)
    except ValueError:
        n = None
    if n is None or str(n) != key:
        raise SerializeError(f"{what}: bad degree key {key!r}")
    return n


# ---------------------------------------------------------------------------
# algebras


def algebra_to_json(alg):
    return {
        "v": 1,
        "field": alg.field.tag,
        "vertices": list(alg.quiver.vertices),
        "arrows": [
            {"name": a.name, "from": a.source, "to": a.target} for a in alg.quiver.arrows
        ],
    }


def algebra_from_json(data):
    _check_version(data, "algebra")
    for key in ("field", "vertices", "arrows"):
        if key not in data:
            raise SerializeError(f"algebra: missing key {key!r}")
    tag = _expect(data["field"], str, "algebra: field")
    arrows = []
    for i, a in enumerate(_expect(data["arrows"], list, "algebra: arrows")):
        _expect(a, dict, f"algebra: arrow {i}")
        for key in ("name", "from", "to"):
            if key not in a:
                raise SerializeError(f"algebra: arrow {i} missing key {key!r}")
            _expect(a[key], str, f"algebra: arrow {i} {key!r}")
        arrows.append((a["name"], a["from"], a["to"]))
    vertices = _array_of(data["vertices"], str, "algebra: vertices")
    alg = ALGEBRAS.get(algebra_key(tag, vertices, arrows))  # a content met before is not validated again
    return build_algebra(Quiver(vertices, arrows), field_from_tag(tag)) if alg is None else alg


def save_algebra(alg, path):
    with open(path, "w") as fh:
        json.dump(algebra_to_json(alg), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_algebra(path):
    with open(path) as fh:
        return algebra_from_json(json.load(fh))


# ---------------------------------------------------------------------------
# scalars and elements


def _coeff_out(field, c):
    if field == QQ:
        if c.denominator == 1:
            return int(c.numerator)
        return f"{c.numerator}/{c.denominator}"
    return int(c)


def _coeff_in(field, raw):
    """An exact coefficient from a JSON integer or a "p/q" string.

    Floats and booleans are refused: a float such as 0.1 has no exact
    reading, and JSON true would otherwise pass as the integer 1.
    """
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise SerializeError(f"bad coefficient {raw!r}: give an integer or a \"p/q\" string")
    try:
        return field.of(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise SerializeError(f"bad coefficient {raw!r}: {exc}")


def _rows_out(m):
    """The JSON rows of the path matrix `m`, read off its cells: terms in basis order, [] where there is no cell."""
    alg, rows = m.algebra, [[[] for _ in m.col_vertices] for _ in m.row_vertices]
    for (i, j), t in m.cells.items():
        rows[i][j] = [[list(p.arrows) if p.arrows else f"e:{p.source}", _coeff_out(alg.field, t[p])]
                      for p in sorted(t, key=alg.basis_index.__getitem__)]
    return rows


def _terms(alg, raw):
    """The terms {path: coefficient} of one JSON matrix entry, a path written twice summed and zeros dropped."""
    if not isinstance(raw, list):
        raise SerializeError(f"bad matrix entry {raw!r}")
    fld, terms = alg.field, {}
    for item in raw:
        if not isinstance(item, list) or len(item) != 2:
            raise SerializeError(f"bad term {item!r}")
        spec, coeff = item
        if isinstance(spec, str):
            if not spec.startswith("e:"):
                raise SerializeError(f"bad pathspec {spec!r}")
            p = alg.trivial_path(spec[2:])
        elif isinstance(spec, list):
            p = alg.path_of_arrows(spec)
        else:
            raise SerializeError(f"bad pathspec {spec!r}")
        c = _coeff_in(fld, coeff)
        terms[p] = fld.add(terms[p], c) if p in terms else c
    return {p: c for p, c in terms.items() if not fld.is_zero(c)}


def _matrix(alg, rows, rv, cv, what):
    """The PathMatrix rv x cv of the JSON `rows`, each entry parsed straight into a cell; [] entries are passed over."""
    if len(_array_of(rows, list, what)) != len(rv):
        raise SerializeError(f"{what} has {len(rows)} rows, expected {len(rv)}")
    cells = {}
    for i, row in enumerate(rows):
        if len(row) != len(cv):
            raise SerializeError(f"{what} row length mismatch")
        for j, x in enumerate(row):
            if x != []:
                terms = _terms(alg, x)
                if terms:
                    cells[i, j] = terms
    return PathMatrix._of(alg, rv, cv, cells)


# ---------------------------------------------------------------------------
# complexes


def complex_to_json(X, algebra_ref=None):
    data = {
        "v": 1,
        "components": {str(n): list(vs) for n, vs in sorted(X.components.items())},
        "differentials": {str(n): _rows_out(d) for n, d in sorted(X.differentials.items())},
    }
    if algebra_ref is not None:
        data["algebra"] = algebra_ref
    return data


def complex_from_json(data, algebra=None, base_dir=None):
    _check_version(data, "complex")
    if algebra is None:
        ref = data.get("algebra")
        if ref is None:
            raise SerializeError("complex: no algebra given and no 'algebra' reference")
        _expect(ref, str, "complex: algebra")
        path = ref if os.path.isabs(ref) or base_dir is None else os.path.join(base_dir, ref)
        algebra = load_algebra(path)
    comps = {
        _degree(key, "complex"): tuple(_array_of(vs, str, f"complex: component {key}"))
        for key, vs in _expect(data.get("components", {}), dict, "complex: components").items()
    }
    occupied = [n for n, vs in comps.items() if vs]
    if occupied and max(occupied) - min(occupied) > MAX_DEGREE_SPAN:
        raise SerializeError(f"complex: degrees {min(occupied)} to {max(occupied)} span more than {MAX_DEGREE_SPAN}")
    diffs = {}
    for key, rows in _expect(data.get("differentials", {}), dict, "complex: differentials").items():
        n = _degree(key, "complex")
        diffs[n] = _matrix(algebra, rows, comps.get(n + 1, ()), comps.get(n, ()), f"complex: differential {n}")
    return make_complex(algebra, comps, diffs)


def save_complex(X, path, algebra_ref=None):
    with open(path, "w") as fh:
        json.dump(complex_to_json(X, algebra_ref), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_complex(path, algebra=None):
    with open(path) as fh:
        data = json.load(fh)
    return complex_from_json(data, algebra=algebra, base_dir=os.path.dirname(os.path.abspath(path)))


# ---------------------------------------------------------------------------
# chain maps


def chain_map_to_json(f):
    return {
        "v": 1,
        "source": complex_to_json(f.source),
        "target": complex_to_json(f.target),
        "components": {str(n): _rows_out(m) for n, m in sorted(f.components.items())},
    }


def chain_map_from_json(data, algebra):
    """Load a chain map; raises ComplexError unless each entry lies in its e_w A e_v and d f = f d."""
    _check_version(data, "chain map")
    for key in ("source", "target"):
        if key not in data:
            raise SerializeError(f"chain map: missing key {key!r}")
    src = complex_from_json(data["source"], algebra=algebra)
    tgt = complex_from_json(data["target"], algebra=algebra)
    comps = {}
    for key, rows in _expect(data.get("components", {}), dict, "chain map: components").items():
        n = _degree(key, "chain map")
        comps[n] = _matrix(algebra, rows, tgt.component(n), src.component(n), f"chain map: component {n}")
        comps[n].check_entries()
    f = ChainMap(src, tgt, comps)
    f.check_chain_condition()
    return f
