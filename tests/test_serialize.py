import json

import pytest

from conftest import random_complex, random_quiver, seeded_rng
from siltglue.fields import QQ, PrimeField
from siltglue.quiver import build_algebra
from siltglue.complexes import ChainMap, ComplexError, shift
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
