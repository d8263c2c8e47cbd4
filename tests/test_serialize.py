import json

import pytest

from conftest import random_complex, random_quiver, seeded_rng
from siltglue.fields import QQ, PrimeField
from siltglue.quiver import QuiverError, build_algebra
from siltglue.complexes import ChainMap, ComplexError, PathMatrix, ProjComplex, direct_sum, shift
from siltglue.approx import cosusp_precover, susp_envelope
from siltglue.homs import HomSpace
from siltglue.serialize import (
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
        back = chain_map_from_json(chain_map_to_json(f), A)
        back.check_chain_condition()
        assert back.source == f.source and back.target == f.target
        for n in set(f.components) | set(back.components):
            assert (back.component(n) - f.component(n)).is_zero()


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
