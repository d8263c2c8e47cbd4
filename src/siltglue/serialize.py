"""JSON interchange for algebras, complexes, and chain maps (schema v=1).

Algebra files fix vertex and arrow order, which in turn fixes the path-basis
order and all downstream determinism.  Complex files reference their algebra
by path; matrix entries are lists of [pathspec, coeff] pairs where a
pathspec is "e:<vertex>" for a trivial path or a list of arrow names.
"""

import json
import os

from .fields import QQ, field_from_tag
from .quiver import Quiver, build_algebra
from .complexes import ChainMap, PathMatrix, make_complex


class SerializeError(ValueError):
    pass


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
    field = field_from_tag(_expect(data["field"], str, "algebra: field"))
    arrows = []
    for i, a in enumerate(_expect(data["arrows"], list, "algebra: arrows")):
        _expect(a, dict, f"algebra: arrow {i}")
        for key in ("name", "from", "to"):
            if key not in a:
                raise SerializeError(f"algebra: arrow {i} missing key {key!r}")
            _expect(a[key], str, f"algebra: arrow {i} {key!r}")
        arrows.append((a["name"], a["from"], a["to"]))
    quiver = Quiver(_array_of(data["vertices"], str, "algebra: vertices"), arrows)
    return build_algebra(quiver, field)


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


def _element_out(x):
    alg = x.algebra
    out = []
    for p in sorted(x.terms, key=lambda p: alg.basis_index[p]):
        spec = f"e:{p.source}" if p.is_trivial() else list(p.arrows)
        out.append([spec, _coeff_out(alg.field, x.terms[p])])
    return out


def _element_in(alg, raw):
    terms = {}
    if not isinstance(raw, list):
        raise SerializeError(f"bad matrix entry {raw!r}")
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
        c = _coeff_in(alg.field, coeff)
        terms[p] = alg.field.add(terms.get(p, alg.field.zero), c)
    return alg.element(terms)


# ---------------------------------------------------------------------------
# complexes


def complex_to_json(X, algebra_ref=None):
    data = {
        "v": 1,
        "components": {str(n): list(vs) for n, vs in sorted(X.components.items())},
        "differentials": {},
    }
    if algebra_ref is not None:
        data["algebra"] = algebra_ref
    for n, d in sorted(X.differentials.items()):
        data["differentials"][str(n)] = [
            [_element_out(x) for x in row] for row in d.entries
        ]
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
    diffs = {}
    for key, rows in _expect(data.get("differentials", {}), dict, "complex: differentials").items():
        n = _degree(key, "complex")
        _array_of(rows, list, f"complex: differential {n}")
        tgt = comps.get(n + 1, ())
        src = comps.get(n, ())
        if len(rows) != len(tgt):
            raise SerializeError(f"complex: differential {n} has {len(rows)} rows, expected {len(tgt)}")
        ents = []
        for row in rows:
            if len(row) != len(src):
                raise SerializeError(f"complex: differential {n} row length mismatch")
            ents.append([_element_in(algebra, x) for x in row])
        diffs[n] = PathMatrix(algebra, tgt, src, ents)
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
        "components": {
            str(n): [[_element_out(x) for x in row] for row in m.entries]
            for n, m in sorted(f.components.items())
        },
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
        ents = [[_element_in(algebra, x) for x in row] for row in _array_of(rows, list, f"chain map: component {n}")]
        comps[n] = PathMatrix(algebra, tgt.component(n), src.component(n), ents)
        comps[n].check_entries()
    f = ChainMap(src, tgt, comps)
    f.check_chain_condition()
    return f
