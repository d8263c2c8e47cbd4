import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from conftest import connected_conjugate
from siltglue import cli as cli_module, serialize
from siltglue.cli import _dumps, main
from siltglue.complexes import ProjComplex, direct_sum
from siltglue.fields import PrimeField
from siltglue.fixtures import ka3_algebra, ka3_named_complexes, write_fixture_files
from siltglue.homs import HomSpace


@pytest.fixture(scope="module")
def fx(tmp_path_factory):
    d = tmp_path_factory.mktemp("fx")
    return write_fixture_files(str(d))


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_algebra_check(fx):
    res = run("algebra-check", fx["algebra"])
    assert res.exit_code == 0
    data = json.loads(res.stdout)
    assert data["dimension"] == 6
    assert data["vertices"] == ["1", "2", "3"]
    assert "algebra ok" in res.stderr


def test_algebra_check_cycle_exits_2(tmp_path):
    bad = tmp_path / "cyclic.json"
    bad.write_text(
        json.dumps(
            {
                "v": 1,
                "field": "Q",
                "vertices": ["1", "2"],
                "arrows": [
                    {"name": "a", "from": "1", "to": "2"},
                    {"name": "b", "from": "2", "to": "1"},
                ],
            }
        )
    )
    res = run("algebra-check", str(bad))
    assert res.exit_code == 2
    assert "cycle" in res.stderr


def test_algebra_check_missing_file_exits_2():
    res = run("algebra-check", "no_such_file.json")
    assert res.exit_code == 2
    assert "input error" in res.stderr


def _i2_with_coefficient(fx, tmp_path, coeff):
    """The I2 fixture file with its one differential coefficient replaced."""
    with open(fx["i2"]) as fh:
        data = json.load(fh)
    data["algebra"] = fx["algebra"]
    data["differentials"]["-1"][0][0][0][1] = coeff
    path = tmp_path / "i2_edited.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_hom_float_coefficient_exits_2(fx, tmp_path):
    # 0.1 has no exact binary reading; it must not pass as 3602879701896397/2^55
    res = run("hom", _i2_with_coefficient(fx, tmp_path, 0.1), fx["p3"])
    assert res.exit_code == 2
    assert "bad coefficient 0.1" in res.stderr


def test_hom_boolean_coefficient_exits_2(fx, tmp_path):
    res = run("hom", _i2_with_coefficient(fx, tmp_path, True), fx["p3"])
    assert res.exit_code == 2
    assert "bad coefficient True" in res.stderr


def test_hom_entry_outside_its_hom_space_exits_2(fx, tmp_path):
    with open(fx["i2"]) as fh:
        data = json.load(fh)
    data["algebra"] = fx["algebra"]
    data["differentials"]["-1"][0][0] = [[["b"], 1]]  # b runs 2 -> 3, not 1 -> 3
    path = tmp_path / "i2_outside.json"
    path.write_text(json.dumps(data))
    res = run("hom", str(path), fx["p3"])
    assert res.exit_code == 2
    assert "lies outside e_1 A e_3" in res.stderr


def _i2_with_pathspec(fx, tmp_path, spec):
    """The I2 fixture file with the pathspec of its one differential term replaced."""
    with open(fx["i2"]) as fh:
        data = json.load(fh)
    data["algebra"] = fx["algebra"]
    data["differentials"]["-1"][0][0][0][0] = spec
    path = tmp_path / "i2_pathspec.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_hom_unknown_arrow_exits_2(fx, tmp_path):
    res = run("hom", _i2_with_pathspec(fx, tmp_path, ["zz"]), fx["p3"])
    assert res.exit_code == 2
    assert "input error: unknown arrow 'zz'" in res.stderr
    assert isinstance(res.exception, SystemExit)  # no uncaught error


def test_hom_empty_arrow_list_exits_2(fx, tmp_path):
    res = run("hom", _i2_with_pathspec(fx, tmp_path, []), fx["p3"])
    assert res.exit_code == 2
    assert "input error: empty arrow list" in res.stderr
    assert isinstance(res.exception, SystemExit)  # no uncaught error


def test_hom_anchor(fx):
    res = run("hom", fx["i2"], fx["p3"])
    assert res.exit_code == 0
    data = json.loads(res.stdout)
    assert data["dims"]["1"]["dim"] == 1
    assert data["dims"]["0"]["dim"] == 0


def test_hom_reps_are_included(fx):
    res = run("hom", fx["i2"], fx["p3"], "--reps")
    data = json.loads(res.stdout)
    assert "representatives" in data["dims"]["1"]


def test_hom_reps_builds_each_space_once(fx, monkeypatch):
    built = []
    init = HomSpace.__init__

    def recording(self, X, Y, k=0, hom=None):
        built.append(k)
        init(self, X, Y, k, hom)

    monkeypatch.setattr(HomSpace, "__init__", recording)
    res = run("hom", fx["i2"], fx["p3"], "--reps")
    assert res.exit_code == 0
    data = json.loads(res.stdout)
    assert any("representatives" in d for d in data["dims"].values())
    assert sorted(built) == sorted(set(built))


def test_minimize(fx):
    res = run("minimize", fx["i2"])
    assert res.exit_code == 0
    data = json.loads(res.stdout)
    assert data["minimal"]["components"] == {"-1": ["3"], "0": ["1"]}


def test_decompose_cmd(fx):
    res = run("decompose", fx["tb"])
    assert res.exit_code == 0
    data = json.loads(res.stdout)
    assert len(data["summands"]) == 2
    assert all(s["certified"] for s in data["summands"])


def test_decompose_over_fp(fx, tmp_path):
    """decompose splits a complex over F_5 as it does over Q."""
    tb_dir = os.path.dirname(fx["tb"])
    with open(fx["tb"]) as fh:
        data = json.load(fh)
    with open(os.path.join(tb_dir, data["algebra"])) as fh:
        alg = json.load(fh)
    alg["field"] = "Fp:5"
    (tmp_path / "quotient_f5.json").write_text(json.dumps(alg))
    data["algebra"] = str(tmp_path / "quotient_f5.json")
    (tmp_path / "tb_f5.json").write_text(json.dumps(data))
    res = run("decompose", str(tmp_path / "tb_f5.json"))
    assert res.exit_code == 0
    over_q = json.loads(run("decompose", fx["tb"]).stdout)["summands"]
    summands = json.loads(res.stdout)["summands"]
    assert len(summands) == 2 and all(s["certified"] for s in summands)
    assert [s["complex"]["components"] for s in summands] == [s["complex"]["components"] for s in over_q]
    assert res.stderr.startswith("decomposition: ")


def test_envelope_cmd(fx, tmp_path):
    # M = i_* of the shifted quotient silting is shipped indirectly; instead
    # check the envelope of I2 by P3: s = 1, U = P3[1]-shaped
    res = run("envelope", fx["i2"], fx["p3"])
    assert res.exit_code == 0
    data = json.loads(res.stdout)
    assert data["s"] == 1
    assert data["certificates"]["cocone_orthogonal"] is True


def test_recollement_cmd(fx):
    res = run("recollement", fx["algebra"], "--e", "3")
    assert res.exit_code == 0
    data = json.loads(res.stdout)
    assert data["S"] == ["3"]
    assert data["resolutions"] == {"1": [["a", "b"]], "2": [["b"]]}


def test_recollement_bad_subset_exits_2(fx):
    res = run("recollement", fx["algebra"], "--e", "1")
    assert res.exit_code == 2
    assert "arrow a" in res.stderr


def test_glue_end_to_end(fx):
    res = run("glue", fx["algebra"], "--e", "3", "--tc", fx["tc"], "--tb", fx["tb"])
    assert res.exit_code == 0
    data = json.loads(res.stdout)
    assert data["passed"] is True
    mults = sorted(d["multiplicity"] for d in data["decomposition"])
    assert mults == [1, 1, 1]
    assert "T decomposes as" in res.stderr


def test_shortcut_flag_glues_as_the_canonical_tc(fx):
    """`--shortcut` takes T_C = the corner algebra: the output is that of `--tc` with its file, one T~ per `--tb`."""
    for tb in ([fx["tb"]], [fx["tb"], fx["tb"]]):
        tbs = [arg for path in tb for arg in ("--tb", path)]
        full = run("glue", fx["algebra"], "--e", "3", "--tc", fx["tc"], *tbs)
        quick = run("glue", fx["algebra"], "--e", "3", "--shortcut", *tbs)
        assert quick.exit_code == 0
        assert (quick.stdout, quick.stderr) == (full.stdout, full.stderr)
        assert len(json.loads(quick.stdout)["T"]) == 1 + len(tb)


def test_glue_leaves_a_zero_tilde_out_of_the_glued_set(fx, tmp_path):
    """A zero `--tb` file has a zero T~_Y, which the glued set leaves out: the output is that without the file."""
    zero = tmp_path / "zero_tb.json"
    zero.write_text(json.dumps({"v": 1, "algebra": os.path.abspath(fx["quotient_algebra"]), "components": {}}))
    with_zero = run("glue", fx["algebra"], "--e", "3", "--tc", fx["tc"], "--tb", fx["tb"], "--tb", str(zero))
    without = run("glue", fx["algebra"], "--e", "3", "--tc", fx["tc"], "--tb", fx["tb"])
    assert with_zero.exit_code == 0, with_zero.output
    data = json.loads(with_zero.stdout)
    assert all(t["components"] for t in data["T"])
    assert data == json.loads(without.stdout)


def test_glue_requires_tc_or_shortcut(fx):
    res = run("glue", fx["algebra"], "--e", "3", "--tb", fx["tb"])
    assert res.exit_code == 2


def test_glue_byte_determinism(fx):
    runs = [
run("glue", fx["algebra"], "--e", "3", "--tc", fx["tc"], "--tb", fx["tb"]) for _ in range(2)
    ]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stderr == runs[1].stderr


def test_check_silting_pass(fx):
    res = run("check-silting", fx["p1"], fx["p2"], fx["p3"])
    assert res.exit_code == 0
    data = json.loads(res.stdout)
    assert data["silting_certified"] is True
    assert data["k0"]["unimodular"] is True


def test_check_silting_loads_its_complexes_over_one_algebra_object(fx, monkeypatch):
    seen = []
    orig = cli_module.certify_set
    monkeypatch.setattr(cli_module, "certify_set", lambda T, alg: seen.append((T, alg)) or orig(T, alg))
    res = run("check-silting", fx["p1"], fx["p2"], fx["p3"], fx["i2"])
    assert res.exit_code == 1  # P1, P2, P3 and I2 are not presilting together
    [(T, alg)] = seen
    assert all(t.algebra is alg for t in T)


@pytest.mark.parametrize("verb", ["hom", "check-silting", "envelope"])
def test_a_complex_past_the_degree_bound_exits_2(fx, tmp_path, verb):
    far = tmp_path / "far9.json"
    far.write_text(json.dumps({"v": 1, "algebra": fx["algebra"], "components": {"0": ["1"], "1000000000": ["2"]}}))
    args = {"hom": [fx["p1"], str(far)], "check-silting": [str(far)], "envelope": [str(far), fx["p1"], fx["p2"], fx["p3"]]}
    res = run(verb, *args[verb])
    assert res.exit_code == 2
    assert "input error: complex: degrees 0 to 1000000000 span more than 1000" in res.stderr


def test_check_silting_failure_exits_1(fx):
    # P1 (+) P2 is presilting but does not generate: P3 is not in its thick closure
    res = run("check-silting", fx["p1"], fx["p2"])
    assert res.exit_code == 1
    data = json.loads(res.stdout)
    assert data["generation"]["status"] == "not generated"


def test_check_silting_of_the_zero_complex_generates_nothing(fx, tmp_path):
    """A set with no summand class is presilting and "not generated", every vertex missing, and exits 1."""
    path = tmp_path / "zero.json"
    serialize.save_complex(ProjComplex.zero(ka3_algebra()), str(path), algebra_ref=os.path.abspath(fx["algebra"]))
    res = run("check-silting", str(path))
    assert res.exit_code == 1, res.output
    data = json.loads(res.stdout)
    assert data["presilting"]["ok"] and data["k0"]["classes"] == []
    assert data["generation"] == {"status": "not generated", "ok": False, "missing": ["1", "2", "3"], "objects": 0}


@pytest.mark.parametrize("shortcut", [[], ["--shortcut"]], ids=["glue", "shortcut"])
def test_glue_raised_check_exits_1(fx, tmp_path, shortcut):
    """T_B = P1, P1[-1] over the quotient is not presilting: `glue` raises, and the CLI reports it and exits 1."""
    tb = []
    for degree in (0, 1):
        path = tmp_path / f"p1_degree{degree}.json"
        path.write_text(json.dumps({"v": 1, "components": {str(degree): ["1"]}, "differentials": {}}))
        tb += ["--tb", str(path)]
    res = run("glue", fx["algebra"], "--e", "3", "--tc", fx["tc"], *tb, *shortcut)
    assert res.exit_code == 1
    assert res.stderr == "check failed: T_B is not non-positive: Hom(T_0, T_1[1]) != 0\n"
    assert res.stdout == ""


@pytest.mark.parametrize("verb", ["check-silting", "glue"])
def test_depth_option_is_gone(fx, verb):
    """Generation is decided by approximations, with no search to bound, so no verb takes `--depth`."""
    args = {
        "check-silting": ["check-silting", fx["p1"], fx["p2"], fx["p3"]],
        "glue": ["glue", fx["algebra"], "--e", "3", "--shortcut", "--tb", fx["tb"]],
    }[verb]
    res = run(*args, "--depth", "2")
    assert res.exit_code == 2
    assert "no such option" in res.stderr.lower() and "--depth" in res.stderr


def test_fixtures_flag(tmp_path):
    out = str(tmp_path / "out")
    res = run("--fixtures", out)
    assert res.exit_code == 0
    data = json.loads(res.stdout)
    assert os.path.exists(data["written"]["algebra"])


def test_algebra_over_huge_prime_exits_2(tmp_path):
    bad = tmp_path / "huge_prime.json"
    bad.write_text(
        json.dumps(
            {
                "v": 1,
                "field": "Fp:3317044064679887385961983",
                "vertices": ["1", "2"],
                "arrows": [{"name": "a", "from": "1", "to": "2"}],
            }
        )
    )
    res = run("algebra-check", str(bad))
    assert res.exit_code == 2
    assert "primality bound" in res.stderr


@pytest.mark.parametrize("verb", ["decompose", "envelope", "glue", "check-silting"])
def test_seed_option_is_gone(fx, verb):
    """Every search draws from one fixed stream, so no verb takes `--seed`."""
    args = {
        "decompose": ["decompose", fx["i2"]],
        "envelope": ["envelope", fx["i2"], fx["p3"]],
        "glue": ["glue", fx["algebra"], "--e", "3", "--tc", fx["tc"], "--tb", fx["tb"]],
        "check-silting": ["check-silting", fx["i2"], fx["s2"], fx["p3"]],
    }[verb]
    res = run(*args, "--seed", "0")
    assert res.exit_code == 2
    assert "no such option" in res.stderr.lower() and "--seed" in res.stderr


def _fresh_cli(args, hash_seed):
    """stdout and stderr bytes of the CLI on `args` in a new interpreter under PYTHONHASHSEED=`hash_seed`."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(hash_seed))
    res = subprocess.run([sys.executable, "-m", "siltglue.cli", *args], capture_output=True, env=env, timeout=120)
    return res.returncode, res.stdout, res.stderr


@pytest.mark.parametrize("verb", ["glue", "decompose"])
def test_fresh_interpreters_give_identical_bytes(fx, tmp_path, verb):
    """Two new interpreters with different string hashing print the same bytes.

    `decompose` runs on a connected conjugate of I2 (+) S2 over F_5, which
    splits through the idempotent search.
    """
    if verb == "glue":
        args = ["glue", fx["algebra"], "--e", "3", "--tc", fx["tc"], "--tb", fx["tb"]]
    else:
        d = ka3_named_complexes(ka3_algebra(PrimeField(5)))
        X = connected_conjugate(direct_sum(d["I2"], d["S2"]))
        serialize.save_algebra(X.algebra, str(tmp_path / "ka3_f5.json"))
        serialize.save_complex(X, str(tmp_path / "sum.json"), algebra_ref="ka3_f5.json")
        args = ["decompose", str(tmp_path / "sum.json")]
    first, second = _fresh_cli(args, 1), _fresh_cli(args, 2)
    assert first[0] == 0
    assert first == second
    if verb == "decompose":
        assert len(json.loads(first[1])["summands"]) == 2


@pytest.mark.parametrize(
    "verb, data",
    [
        ("minimize", {"components": {"0": "12"}}),
        ("minimize", {"components": ["0"]}),
        ("minimize", {"components": {"0": ["1"], "1": ["2"]}, "differentials": {"0": 5}}),
        ("algebra-check", {"vertices": "12"}),
        ("algebra-check", {"arrows": [5]}),
    ],
    ids=["string-component", "list-components", "number-differential", "string-vertices", "number-arrow"],
)
def test_wrong_json_type_exits_2(tmp_path, verb, data):
    """A field of the wrong JSON type is an input error, not a misreading or a crash."""
    if verb == "algebra-check":
        body = {"v": 1, "field": "Q", "vertices": ["1", "2"], "arrows": [], **data}
    else:
        (tmp_path / "alg.json").write_text(json.dumps({"v": 1, "field": "Q", "vertices": ["1", "2"], "arrows": []}))
        body = {"v": 1, "algebra": "alg.json", "differentials": {}, **data}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(body))
    res = run(verb, str(path))
    assert res.exit_code == 2
    assert res.stderr.startswith("input error:")
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("components", [{"0": ["1"], "00": ["2"]}, {"1_0": ["1"]}, {" 1": ["1"]}],
                         ids=["colliding", "underscore", "space"])
def test_non_canonical_degree_key_exits_2(tmp_path, components):
    """`minimize` on a file whose degree keys are not str(n) is an input error: "00" next to "0" used to
    merge into one degree and drop P_1 with exit code 0."""
    (tmp_path / "alg.json").write_text(json.dumps({"v": 1, "field": "Q", "vertices": ["1", "2"], "arrows": []}))
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"v": 1, "algebra": "alg.json", "components": components, "differentials": {}}))
    res = run("minimize", str(path))
    assert res.exit_code == 2
    assert res.stderr.startswith("input error:") and "bad degree key" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("tag", ["Fp:05", "Fp:+5", "Fp: 5", "Fp:5_0"])
def test_non_canonical_field_tag_exits_2(tmp_path, tag):
    """An algebra whose field tag is not "Fp:" + str(p) is an input error that names the tag: "Fp:05" used to
    load as F_5, and "Fp:5_0" failed with "50 is not prime"."""
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"v": 1, "field": tag, "vertices": ["1", "2"], "arrows": []}))
    res = run("algebra-check", str(path))
    assert res.exit_code == 2
    assert res.stderr == f"input error: bad field tag {tag!r}\n"
    assert res.stdout == ""


def test_glue_failing_report_exits_1(fx):
    """With no T_B the glued set is j_!(T_C) = P3 alone: it does not generate, and the K_0 screen fails."""
    res = run("glue", fx["algebra"], "--e", "3", "--tc", fx["tc"])
    assert res.exit_code == 1
    data = json.loads(res.stdout)
    assert data["passed"] is False
    assert not data["reports"]["generation"]["ok"] and not data["reports"]["k0"]["ok"]
    assert "generation: FAIL" in res.stderr.splitlines()
    assert "k0: FAIL" in res.stderr.splitlines()


def test_check_silting_over_different_algebras_exits_2(fx):
    res = run("check-silting", fx["p1"], fx["tc"])
    assert res.exit_code == 2
    assert res.stderr == "input error: complexes over different algebras\n"
    assert res.stdout == ""


_scalars = st.none() | st.booleans() | st.integers() | st.text()
_reports = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4)
    | st.dictionaries(st.integers(), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=150, deadline=None)
@given(_reports)
def test_report_writer_matches_json_dumps(report):
    """_dumps writes the bytes of json.dumps(..., indent=1, sort_keys=True): nesting, empty containers,
    non-ASCII and control characters, int keys sorted as numbers."""
    assert _dumps(report) == json.dumps(report, indent=1, sort_keys=True)


def test_report_writer_matches_every_golden_report():
    """Every report recorded under tests/golden is written back byte for byte."""
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
    checked = 0
    for name in sorted(os.listdir(golden)):
        with open(os.path.join(golden, name)) as fh:
            record = json.load(fh)
        for run_ in record.values():
            if run_["stdout"]:
                report = json.loads(run_["stdout"])
                assert _dumps(report) + "\n" == run_["stdout"] == json.dumps(report, indent=1, sort_keys=True) + "\n"
                checked += 1
    assert checked >= 40
