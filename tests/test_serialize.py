import json
import re

import pytest

from conftest import random_complex, random_quiver, seeded_rng
from siltglue.cli import INPUT_ERRORS
from siltglue.fields import QQ, PrimeField
from siltglue.quiver import ALGEBRAS, QuiverError, build_algebra
from siltglue.complexes import ChainMap, ComplexError, PathMatrix, ProjComplex, direct_sum, shift
from siltglue.approx import cosusp_precover, susp_envelope
from siltglue.fixtures import ka3_algebra, ka3_named_complexes
from siltglue.homs import HomSpace
from siltglue.serialize import (
    MAX_DEGREE_SPAN,
    SerializeError,
    algebra_from_json,
    algebra_to_json,
    chain_map_from_json,
    chain_map_to_json,
    complex_from_json,
    complex_to_json,
    load_algebra,
    load_complex,
    save_algebra,
    save_complex,
)


def test_algebra_round_trip(ka3):
    A = ka3["A"]
    back = algebra_from_json(algebra_to_json(A))
    assert list(back.quiver.vertices) == list(A.quiver.vertices)
    assert [a.name for a in back.quiver.arrows] == [a.name for a in A.quiver.arrows]
    assert back.field == A.field
    assert back.dimension == A.dimension


def test_algebra_round_trip_prime_field():
    alg = build_algebra(random_quiver(seeded_rng(9)), PrimeField(7))
    back = algebra_from_json(algebra_to_json(alg))
    assert back.field.tag == "Fp:7"


def test_algebra_missing_keys():
    with pytest.raises(SerializeError, match="missing key 'field'"):
        algebra_from_json({"v": 1, "vertices": [], "arrows": []})
    with pytest.raises(SerializeError, match="arrow 0 missing key 'to'"):
        algebra_from_json(
            {"v": 1, "field": "Q", "vertices": ["1", "2"], "arrows": [{"name": "a", "from": "1"}]}
        )


def test_version_check():
    with pytest.raises(SerializeError, match="schema version"):
        algebra_from_json({"v": 2, "field": "Q", "vertices": [], "arrows": []})
    with pytest.raises(SerializeError, match="JSON object"):
        complex_from_json([1, 2, 3])


def test_complex_round_trip(ka3):
    A = ka3["A"]
    for X in (ka3["I2"], ka3["S2"], shift(ka3["I2"], -2)):
        back = complex_from_json(complex_to_json(X), algebra=A)
        assert back == X


def test_complex_round_trip_random():
    rng = seeded_rng(21)
    for _ in range(5):
        alg = build_algebra(random_quiver(rng, max_vertices=4), QQ)
        X = random_complex(alg, rng, steps=2)
        assert complex_from_json(complex_to_json(X), algebra=alg) == X


def test_complex_fraction_coefficients(ka3):
    A = ka3["A"]
    X = ka3["I2"]
    d = complex_to_json(X)
    # scale the single entry by 1/2 through the JSON text
    d["differentials"]["-1"][0][0][0][1] = "1/2"
    back = complex_from_json(d, algebra=A)
    entry = back.differential(-1).entries[0][0]
    (c,) = entry.terms.values()
    assert c == QQ.of("1/2")


def _through_text(data):
    return json.loads(json.dumps(data))


def _coefficients(matrices):
    """The coefficients written in a JSON map from degree to matrix rows."""
    return [coeff for rows in matrices.values() for row in rows for entry in row for _spec, coeff in entry]


def _assert_map_round_trip(f, algebra):
    data = _through_text(chain_map_to_json(f))
    back = chain_map_from_json(data, algebra)
    assert back.source == f.source and back.target == f.target
    for n in set(f.components) | set(back.components):
        assert (back.component(n) - f.component(n)).is_zero()
    return _coefficients(data["components"])


@pytest.mark.parametrize("p", [5, 2147483647], ids=["F5", "F2147483647"])
def test_prime_field_round_trip_through_json_text(p):
    """Seeded complexes over F_p and Hom representatives between them come back from the JSON text.

    Coefficients are written as residues in [0, p).
    """
    rng = seeded_rng(31)
    field = PrimeField(p)
    written = []
    for _ in range(6):
        alg = build_algebra(random_quiver(rng, max_vertices=4), field)
        X, Y = random_complex(alg, rng), random_complex(alg, rng)
        for Z in (X, Y):
            data = _through_text(complex_to_json(Z))
            assert complex_from_json(data, algebra=alg) == Z
            written += _coefficients(data["differentials"])
        for f in HomSpace(X, Y, 0).basis_maps():
            written += _assert_map_round_trip(f.scale(field.of(-2)), alg)
    d = ka3_named_complexes(ka3_algebra(field))
    (rep,) = HomSpace(d["S2"], d["I2"], 0).basis_maps()
    written += _assert_map_round_trip(rep.scale(field.of(-1)), d["A"])
    assert all(type(c) is int and 0 <= c < p for c in written)
    assert p - 1 in written and p - 2 in written


def test_fraction_round_trip_through_json_text(ka3):
    """Over Q, entries 1/2 and -3/4 are written as "p/q" strings and read back exactly."""
    A = ka3["A"]
    (ab,) = ka3["I2"].differential(-1).entries[0][0].terms
    half, minus_three_quarters = QQ.of("1/2"), QQ.of("-3/4")
    d = PathMatrix(A, ("1",), ("3", "3"), [[A.element({ab: half}), A.element({ab: minus_three_quarters})]])
    X = ProjComplex(A, {-1: ("3", "3"), 0: ("1",)}, {-1: d})
    data = _through_text(complex_to_json(X))
    assert _coefficients(data["differentials"]) == ["1/2", "-3/4"]
    assert complex_from_json(data, algebra=A) == X
    assert set(_assert_map_round_trip(ChainMap.identity(X).scale(minus_three_quarters), A)) == {"-3/4"}


def test_complex_row_mismatch_reported(ka3):
    d = complex_to_json(ka3["I2"])
    d["differentials"]["-1"].append([[["a"], 1]])
    with pytest.raises(SerializeError, match="rows"):
        complex_from_json(d, algebra=ka3["A"])


def test_complex_bad_pathspec(ka3):
    d = complex_to_json(ka3["I2"])
    d["differentials"]["-1"][0][0][0][0] = "q:1"
    with pytest.raises(SerializeError, match="pathspec"):
        complex_from_json(d, algebra=ka3["A"])


def test_complex_bad_degree_key(ka3):
    with pytest.raises(SerializeError, match="degree key"):
        complex_from_json({"v": 1, "components": {"zero": ["1"]}}, algebra=ka3["A"])


NON_CANONICAL = [("00", "0"), ("1_0", "10"), (" 1", "1"), ("+1", "1"), ("-0", "0"), ("-01", "-1")]


@pytest.mark.parametrize("key, degree", NON_CANONICAL, ids=[k for k, _ in NON_CANONICAL])
def test_complex_degree_key_must_be_canonical(ka3, key, degree):
    """A degree key is read only in the form the writer emits, str(n): "00" next to "0" would merge into one
    degree, and "1_0" or " 1" would be read as 10 or 1."""
    A = ka3["A"]
    colliding = {"v": 1, "components": {degree: ["1"], key: ["2"]}}
    with pytest.raises(SerializeError, match=re.escape(f"complex: bad degree key '{key}'")):
        complex_from_json(colliding, algebra=A)
    data = complex_to_json(shift(ka3["I2"], -int(degree) - 1))  # a differential at `degree`
    data["differentials"][key] = data["differentials"].pop(degree)
    with pytest.raises(SerializeError, match=re.escape(f"complex: bad degree key '{key}'")):
        complex_from_json(data, algebra=A)
    assert complex_from_json({"v": 1, "components": {degree: ["1"]}}, algebra=A).components == {int(degree): ("1",)}


@pytest.mark.parametrize("key, degree", NON_CANONICAL, ids=[k for k, _ in NON_CANONICAL])
def test_chain_map_degree_key_must_be_canonical(ka3, key, degree):
    """The same keys are refused in a chain map's components, next to the canonical key or alone."""
    X = shift(ka3["I2"], -int(degree))  # a component at `degree`
    data = chain_map_to_json(ChainMap.identity(X))
    data["components"][key] = data["components"][degree]
    with pytest.raises(SerializeError, match=re.escape(f"chain map: bad degree key '{key}'")):
        chain_map_from_json(data, ka3["A"])
    del data["components"][degree]
    with pytest.raises(SerializeError, match=re.escape(f"chain map: bad degree key '{key}'")):
        chain_map_from_json(data, ka3["A"])


def test_file_round_trip_with_algebra_ref(tmp_path, ka3):
    A = ka3["A"]
    apath = tmp_path / "alg.json"
    save_algebra(A, str(apath))
    xpath = tmp_path / "x.json"
    save_complex(ka3["I2"], str(xpath), algebra_ref="alg.json")
    back = load_complex(str(xpath))  # resolves the relative reference
    assert back.graded_multiset() == ka3["I2"].graded_multiset()
    assert load_algebra(str(apath)).dimension == A.dimension


def test_complex_without_algebra_ref_fails(tmp_path, ka3):
    xpath = tmp_path / "x.json"
    save_complex(ka3["I2"], str(xpath))
    with pytest.raises(SerializeError, match="algebra"):
        load_complex(str(xpath))


def test_chain_map_round_trip(ka3):
    A = ka3["A"]
    hs = HomSpace(ka3["I2"], ka3["S2"], 0)
    maps = hs.basis_maps() + [ChainMap.identity(ka3["I2"])]
    for f in maps:
        _assert_map_round_trip(f, A)


def test_chain_map_from_json_refuses_a_non_chain_map(ka3):
    # the identity of I2 without its degree-0 component: d o f != f o d at degree -1
    data = chain_map_to_json(ChainMap.identity(ka3["I2"]))
    del data["components"]["0"]
    with pytest.raises(ComplexError, match="not a chain map at degree -1"):
        chain_map_from_json(data, ka3["A"])


def test_json_output_is_canonical(ka3):
    a = json.dumps(complex_to_json(ka3["I2"]), sort_keys=True)
    b = json.dumps(complex_to_json(ka3["I2"]), sort_keys=True)
    assert a == b


# Loaded entries, vertices and d^2 are checked once, when the file is read;
# the library builds everything else unchecked.


def _i2_with_entry(ka3, terms):
    """The JSON of I2 (P_3 -> P_1, entry a*b) with its one entry replaced by `terms`."""
    data = complex_to_json(ka3["I2"])
    data["differentials"]["-1"][0][0] = terms
    return data


# Each bad term with the message the loader names it by.  A complex and a chain map give the same
# message, and each error is one the CLI reports as an input error, with exit code 2.
BAD_TERMS = [
    ([["zz"], 1], "unknown arrow 'zz'"),
    ([[5], 1], "unknown arrow 5"),
    ([[["a"]], 1], "unknown arrow ['a']"),
    ([["b", "a"], 1], "arrows b, a do not compose"),
    ([[], 1], "empty arrow list; a trivial path is written e:<vertex>"),
    (["e:9", 1], "unknown vertex '9'"),
    ([["a", "b"], 0.5], 'bad coefficient 0.5: give an integer or a "p/q" string'),
    ([["a", "b"], True], 'bad coefficient True: give an integer or a "p/q" string'),
]


@pytest.mark.parametrize("term, message", BAD_TERMS, ids=[m for _, m in BAD_TERMS])
def test_a_bad_term_is_refused_with_its_message(ka3, term, message):
    A = ka3["A"]
    with pytest.raises(INPUT_ERRORS) as exc:
        complex_from_json(_i2_with_entry(ka3, [[["a", "b"], 1], term]), algebra=A)
    assert str(exc.value) == message
    data = chain_map_to_json(ChainMap.identity(ka3["I2"]))
    data["components"]["0"][0][0].append(term)
    with pytest.raises(INPUT_ERRORS) as exc:
        chain_map_from_json(data, A)
    assert str(exc.value) == message


def test_a_path_written_twice_is_summed_and_a_zero_entry_dropped(ka3):
    A = ka3["A"]
    ab = A.path_of_arrows(["a", "b"])
    summed = complex_from_json(_i2_with_entry(ka3, [[["a", "b"], 2], [["a", "b"], "-1/2"]]), algebra=A)
    assert summed.differential(-1).cells == {(0, 0): {ab: QQ.of("3/2")}}
    cancelled = complex_from_json(_i2_with_entry(ka3, [[["a", "b"], 2], [["a", "b"], -2]]), algebra=A)
    assert cancelled == complex_from_json(_i2_with_entry(ka3, []), algebra=A)
    assert not cancelled.differentials and cancelled.components == ka3["I2"].components
    P1 = ka3["P"]["1"]
    data = chain_map_to_json(ChainMap.zero(P1, P1))
    data["components"]["0"] = [[[["e:1", 1], ["e:1", -1]]]]
    back = chain_map_from_json(data, A)
    assert not back.components and back.source == P1 and back.target == P1


def test_a_chain_map_component_of_the_wrong_shape_is_refused(ka3):
    data = chain_map_to_json(ChainMap.identity(ka3["I2"]))
    data["components"]["0"].append([[]])
    with pytest.raises(SerializeError, match="chain map: component 0 has 2 rows, expected 1"):
        chain_map_from_json(data, ka3["A"])
    data["components"]["0"] = [[[], []]]
    with pytest.raises(SerializeError, match="chain map: component 0 row length mismatch"):
        chain_map_from_json(data, ka3["A"])


def test_two_loads_of_one_algebra_file_give_one_object(ka3, tmp_path):
    A = ka3["A"]
    path = str(tmp_path / "alg.json")
    save_algebra(A, path)
    assert load_algebra(path) is load_algebra(path) is A
    save_complex(ka3["I2"], str(tmp_path / "i2.json"), algebra_ref="alg.json")
    save_complex(ka3["S2"], str(tmp_path / "s2.json"), algebra_ref="alg.json")
    assert load_complex(str(tmp_path / "i2.json")).algebra is load_complex(str(tmp_path / "s2.json")).algebra is A


def test_an_invalid_algebra_file_fails_alike_on_every_load(tmp_path):
    cyclic = _algebra_with(arrows=[{"name": "a", "from": "1", "to": "2"}, {"name": "b", "from": "2", "to": "1"}])
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(cyclic))
    messages = []
    for _ in range(2):
        with pytest.raises(QuiverError, match="cycle") as exc:
            load_algebra(str(path))
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert not [key for key in ALGEBRAS.keys() if key[1:] == (("1", "2"), (("a", "1", "2"), ("b", "2", "1")))]


def test_a_complex_wider_than_the_degree_bound_is_refused(ka3):
    A = ka3["A"]
    widest = complex_from_json({"v": 1, "components": {"-3": ["1"], str(MAX_DEGREE_SPAN - 3): ["2"]}}, algebra=A)
    assert widest.hi - widest.lo == MAX_DEGREE_SPAN
    far = {"v": 1, "components": {"0": ["1"], str(10**9): ["2"], str(-(10**9)): []}}
    with pytest.raises(SerializeError, match=f"complex: degrees 0 to 1000000000 span more than {MAX_DEGREE_SPAN}"):
        complex_from_json(far, algebra=A)
    del far["components"]["0"]  # an empty component occupies no degree
    assert complex_from_json(far, algebra=A).components == {10**9: ("2",)}


def test_loaded_entry_outside_its_hom_space_is_refused(ka3):
    # b runs 2 -> 3, but the entry must lie in e_1 A e_3
    with pytest.raises(ComplexError, match="entry \\(0,0\\) lies outside e_1 A e_3"):
        complex_from_json(_i2_with_entry(ka3, [[["b"], 1]]), algebra=ka3["A"])


def test_loaded_entry_with_mixed_endpoints_is_refused(ka3):
    with pytest.raises(ComplexError, match="lies outside e_1 A e_3"):
        complex_from_json(_i2_with_entry(ka3, [[["a", "b"], 1], [["b"], 1]]), algebra=ka3["A"])


def test_loaded_unknown_vertex_is_refused(ka3):
    with pytest.raises(QuiverError, match="unknown vertex '9'"):
        complex_from_json({"v": 1, "components": {"0": ["9"]}}, algebra=ka3["A"])


def test_loaded_complex_with_nonzero_d_squared_is_refused(ka3):
    data = {
        "v": 1,
        "components": {"-2": ["3"], "-1": ["2"], "0": ["1"]},
        "differentials": {"-2": [[[[["b"], 1]]]], "-1": [[[[["a"], 1]]]]},
    }
    with pytest.raises(ComplexError, match="d\\^2 != 0 at degree -2"):
        complex_from_json(data, algebra=ka3["A"])


def test_loaded_chain_map_entry_outside_its_hom_space_is_refused(ka3):
    # P_1 -> P_2 in degree 0: the entry must lie in e_2 A e_1 = 0, and no
    # differential is there for the chain condition to catch a, which runs 1 -> 2
    data = chain_map_to_json(ChainMap.zero(ka3["P"]["1"], ka3["P"]["2"]))
    data["components"]["0"] = [[[[["a"], 1]]]]
    with pytest.raises(ComplexError, match="entry \\(0,0\\) lies outside e_2 A e_1"):
        chain_map_from_json(data, ka3["A"])


@pytest.mark.parametrize("key", ["source", "target"])
def test_chain_map_missing_complex_is_refused(ka3, key):
    data = chain_map_to_json(ChainMap.identity(ka3["I2"]))
    del data[key]
    with pytest.raises(SerializeError, match=f"chain map: missing key '{key}'"):
        chain_map_from_json(data, ka3["A"])


def test_chain_map_bad_degree_key_is_refused(ka3):
    data = chain_map_to_json(ChainMap.identity(ka3["I2"]))
    data["components"]["zero"] = data["components"].pop("0")
    with pytest.raises(SerializeError, match="chain map: bad degree key 'zero'"):
        chain_map_from_json(data, ka3["A"])


def _algebra_with(**fields):
    return {"v": 1, "field": "Q", "vertices": ["1", "2"], "arrows": [{"name": "a", "from": "1", "to": "2"}], **fields}


@pytest.mark.parametrize(
    "data, message",
    [
        (_algebra_with(field=5), "algebra: field: expected a JSON string"),
        (_algebra_with(vertices=["1", 2]), "vertices item: expected a JSON string"),
        (_algebra_with(arrows={}), "arrows: expected a JSON array"),
        (_algebra_with(arrows=[["a", "1", "2"]]), "arrow 0: expected a JSON object"),
        (_algebra_with(arrows=[{"name": 5, "from": "1", "to": "2"}]), "arrow 0 'name': expected a JSON string"),
    ],
)
def test_algebra_field_of_wrong_json_type_is_refused(data, message):
    with pytest.raises(SerializeError, match=message):
        algebra_from_json(data)


def test_complex_and_chain_map_fields_of_wrong_json_type_are_refused(ka3):
    A = ka3["A"]
    with pytest.raises(SerializeError, match="complex: algebra: expected a JSON string"):
        complex_from_json({"v": 1, "algebra": 5, "components": {}})
    data = complex_to_json(ka3["I2"])
    data["differentials"]["-1"] = [5]
    with pytest.raises(SerializeError, match="differential -1 item: expected a JSON array"):
        complex_from_json(data, algebra=A)
    data = chain_map_to_json(ChainMap.identity(ka3["I2"]))
    data["components"]["0"] = 5
    with pytest.raises(SerializeError, match="chain map: component 0: expected a JSON array"):
        chain_map_from_json(data, A)
    data["components"] = [5]
    with pytest.raises(SerializeError, match="chain map: components: expected a JSON object"):
        chain_map_from_json(data, A)


def _count_checks(monkeypatch):
    """Count the calls of ProjComplex.check and PathMatrix.check_entries from now on."""
    calls = {"check": 0, "check_entries": 0}
    for cls, name in ((ProjComplex, "check"), (PathMatrix, "check_entries")):
        orig = getattr(cls, name)

        def counting(self, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(self)

        monkeypatch.setattr(cls, name, counting)
    return calls


def test_checks_run_on_loading_and_not_inside_approximations(ka3, tmp_path, monkeypatch):
    M = direct_sum(shift(ka3["I2"], 1), ka3["S2"])
    T = [shift(ka3["P"]["3"], 1)]
    N = direct_sum(ka3["P"]["1"], shift(ka3["P"]["2"], -1))
    calls = _count_checks(monkeypatch)
    susp_envelope(M, T)
    susp_envelope(ka3["I2"], [ka3["P"]["1"], ka3["P"]["2"]])
    cosusp_precover(N, T)
    assert calls == {"check": 0, "check_entries": 0}
    path = tmp_path / "m.json"
    save_complex(M, str(path))
    assert load_complex(str(path), algebra=ka3["A"]) == M
    assert calls["check"] == 1 and calls["check_entries"] >= 1
