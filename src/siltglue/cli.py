"""Command-line front end.

Every verb reads JSON inputs, writes a JSON report to standard output and a
human summary to standard error.  Exit codes: 0 success, 1 a mathematical
check failed, 2 malformed input.  Every randomized search draws from one
fixed stream, so identical invocations produce byte-identical output.
"""

import json
import sys
from json.encoder import encode_basestring_ascii

import click

from .quiver import QuiverError
from .complexes import ComplexError, minimize
from .homs import hom_spaces, hom_window
from .approx import ApproxError, susp_envelope
from .recollement import RecollementError, idempotent_recollement
from .gluing import GlueError, canonical_corner_silting, certify_set, glue
from .decompose import DecomposeError, decompose
from . import serialize, fixtures

INPUT_ERRORS = (
    serialize.SerializeError,
    QuiverError,
    ComplexError,
    RecollementError,
    ValueError,
    OSError,
    json.JSONDecodeError,
)
MATH_ERRORS = (ApproxError, GlueError, DecomposeError)


def _dumps(report):
    """The text of json.dumps(report, indent=1, sort_keys=True).

    A report is built of dicts with str or int keys, lists or tuples, str,
    int, bool and None.  json.dumps encodes an indented document with its
    pure-Python encoder; this writes the same bytes with its C string
    encoder.  Items are sorted by their keys as given, so int keys sort as
    numbers, as in json.dumps.
    """

    def text(value, pad):
        if isinstance(value, str):
            return encode_basestring_ascii(value)
        if isinstance(value, dict):
            inner = pad + " "
            items = [f"{encode_basestring_ascii(str(k))}: {text(v, inner)}" for k, v in sorted(value.items())]
            return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
        if isinstance(value, (list, tuple)):
            inner = pad + " "
            items = [text(v, inner) for v in value]
            return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
        if value is None:
            return "null"
        if isinstance(value, bool):
            return "true" if value else "false"
        return int.__repr__(value)

    return text(report, "\n")


def _emit(report, summary_lines):
    click.echo(_dumps(report))
    for line in summary_lines:
        click.echo(line, err=True)


def _fail_input(exc):
    click.echo(f"input error: {exc}", err=True)
    sys.exit(2)


def _fail_math(exc):
    click.echo(f"check failed: {exc}", err=True)
    sys.exit(1)


def _load_complexes(paths, algebra=None):
    return [serialize.load_complex(p, algebra=algebra) for p in paths]


def _materialize_fixtures(ctx, _param, value):
    if not value or ctx.resilient_parsing:
        return
    paths = fixtures.write_fixture_files(value)
    _emit({"v": 1, "written": paths}, [f"wrote {len(paths)} fixture files to {value}"])
    ctx.exit(0)


@click.group()
@click.option(
    "--fixtures",
    "fixtures_dir",
    callback=_materialize_fixtures,
    expose_value=False,
    is_eager=True,
    default=None,
    help="write the shipped example JSON files to a directory and exit",
)
def main():
    """Exact silting computations over path algebras of acyclic quivers."""


@main.command("algebra-check")
@click.argument("algebra_file")
def algebra_check(algebra_file):
    """Validate an algebra file and report its path basis size."""
    try:
        alg = serialize.load_algebra(algebra_file)
    except INPUT_ERRORS as exc:
        _fail_input(exc)
    report = {
        "v": 1,
        "field": alg.field.tag,
        "vertices": list(alg.quiver.vertices),
        "arrows": len(alg.quiver.arrows),
        "dimension": alg.dimension,
        "ok": True,
    }
    _emit(report, [f"algebra ok: {len(alg.quiver.vertices)} vertices, dim {alg.dimension}"])


@main.command("hom")
@click.argument("x_file")
@click.argument("y_file")
@click.option("--shift", "shift_", type=int, default=None, help="single shift k")
@click.option("--reps", is_flag=True, help="include representative maps")
def hom(x_file, y_file, shift_, reps):
    """Hom-space dimensions Hom(X, Y[k]) over the support window."""
    try:
        X = serialize.load_complex(x_file)
        Y = serialize.load_complex(y_file, algebra=X.algebra)
    except INPUT_ERRORS as exc:
        _fail_input(exc)
    lo, hi = hom_window(X, Y)
    spaces = hom_spaces(X, Y, shift_, shift_)  # the whole window when no shift is given
    table = {k: 0 if hs is None else hs.dim for k, hs in spaces.items()}
    report = {"v": 1, "window": [lo, hi], "dims": {str(k): {"dim": d} for k, d in table.items()}}
    if reps:
        for k, hs in spaces.items():
            if table[k]:
                maps = hs.basis_maps()
                for f in maps:
                    f.check_chain_condition()
                report["dims"][str(k)]["representatives"] = [
                    serialize.chain_map_to_json(f)["components"] for f in maps
                ]
    _emit(report, [f"hom dims over window [{lo},{hi}]: " + ", ".join(f"{k}:{d}" for k, d in sorted(table.items()))])


@main.command("minimize")
@click.argument("x_file")
def minimize_cmd(x_file):
    """Minimal model of a complex (all unit differential entries stripped)."""
    try:
        X = serialize.load_complex(x_file)
    except INPUT_ERRORS as exc:
        _fail_input(exc)
    m = minimize(X)
    report = {"v": 1, "minimal": serialize.complex_to_json(m.complex)}
    _emit(report, [f"minimal model: {m.complex.describe()}"])


@main.command("decompose")
@click.argument("x_file")
def decompose_cmd(x_file):
    """Indecomposable summands with multiplicities, over any field."""
    try:
        X = serialize.load_complex(x_file)
    except INPUT_ERRORS as exc:
        _fail_input(exc)
    try:
        parts = decompose(X)
    except MATH_ERRORS as exc:
        _fail_math(exc)
    summands = [{"complex": serialize.complex_to_json(c), "multiplicity": m, "certified": cert} for c, m, cert in parts]
    summary = "decomposition: " + " + ".join(f"({c.describe()})^{m}" for c, m, _ in parts)
    _emit({"v": 1, "summands": summands}, [summary])


@main.command("envelope")
@click.argument("m_file")
@click.argument("t_files", nargs=-1, required=True)
def envelope(m_file, t_files):
    """Envelope triangle V -> M -> U for the non-negative shifts of T."""
    try:
        M = serialize.load_complex(m_file)
        T = _load_complexes(t_files, algebra=M.algebra)
    except INPUT_ERRORS as exc:
        _fail_input(exc)
    try:
        env = susp_envelope(M, T)
    except MATH_ERRORS as exc:
        _fail_math(exc)
    report = {
        "v": 1,
        "V": serialize.complex_to_json(env.V),
        "M": serialize.complex_to_json(M),
        "U": serialize.complex_to_json(env.U),
        "f": serialize.chain_map_to_json(env.f),
        "v_map": serialize.chain_map_to_json(env.v_map),
        "s": env.s,
        "trace": [[s, list(tags)] for s, tags in env.trace],
        "certificates": {
            "cocone_orthogonal": env.certificates["cocone_orthogonal"]
        },
    }
    _emit(
        report,
        [
            f"s = {env.s}",
            f"triangle: {env.V.describe()} -> {M.describe()} -> {env.U.describe()}",
        ],
    )


@main.command("recollement")
@click.argument("algebra_file")
@click.option("--e", "e_list", required=True, help="comma-separated vertex subset")
def recollement_cmd(algebra_file, e_list):
    """Validate the idempotent recollement for a vertex subset."""
    try:
        alg = serialize.load_algebra(algebra_file)
        rec = idempotent_recollement(alg, [v.strip() for v in e_list.split(",") if v.strip()])
    except INPUT_ERRORS as exc:
        _fail_input(exc)
    report = {
        "v": 1,
        "S": list(rec.S),
        "corner": serialize.algebra_to_json(rec.C),
        "quotient": serialize.algebra_to_json(rec.B),
        "resolutions": {
            v: [list(p.arrows) for p in ps] for v, ps in rec.resolutions.items()
        },
    }
    _emit(report, [f"recollement ok: C on {list(rec.S)}, B on {list(rec.complement)}"])


def _run_glue(algebra_file, e_list, tc_files, tb_files, shortcut):
    try:
        alg = serialize.load_algebra(algebra_file)
        rec = idempotent_recollement(alg, [v.strip() for v in e_list.split(",") if v.strip()])
        T_B = _load_complexes(tb_files, algebra=rec.B)
        T_C = [canonical_corner_silting(rec)] if shortcut else _load_complexes(tc_files, algebra=rec.C)
    except INPUT_ERRORS as exc:
        _fail_input(exc)
    try:
        cert = glue(rec, T_C, T_B)
    except MATH_ERRORS as exc:
        _fail_math(exc)
    report = {
        "v": 1,
        "T": [serialize.complex_to_json(t) for t in cert.T],
        "reports": {
            name: {k: v for k, v in rep.items() if k != "witnesses"}
            for name, rep in cert.reports.items()
        },
        "passed": cert.passed,
    }
    summary = []
    if cert.decomposition is not None:
        report["decomposition"] = [
            {"complex": serialize.complex_to_json(c), "multiplicity": m}
            for c, m, _ in cert.decomposition
        ]
        pretty = " + ".join(
            (c.describe() if m == 1 else f"({c.describe()})^{m}")
            for c, m, _ in cert.decomposition
        )
        summary.append(f"T decomposes as {pretty}")
    for name, rep in cert.reports.items():
        summary.append(f"{name}: {'pass' if rep.get('ok') else 'FAIL'}")
    _emit(report, summary)
    if not cert.passed:
        sys.exit(1)


@main.command("glue")
@click.argument("algebra_file")
@click.option("--e", "e_list", required=True)
@click.option("--tc", "tc_files", multiple=True, help="T_C complex files (over the corner)")
@click.option("--tb", "tb_files", multiple=True, help="T_B complex files (over the quotient)")
@click.option("--shortcut", is_flag=True, help="take T_C = the corner algebra, in place of --tc")
def glue_cmd(algebra_file, e_list, tc_files, tb_files, shortcut):
    """Glue silting sets along the idempotent recollement at --e."""
    if not shortcut and not tc_files:
        _fail_input("glue requires --tc files (or --shortcut)")
    _run_glue(algebra_file, e_list, tc_files, tb_files, shortcut)


@main.command("check-silting")
@click.argument("t_files", nargs=-1, required=True)
def check_silting(t_files):
    """Presilting + generation + K0 certificates for a set of complexes."""
    try:
        T = _load_complexes(t_files)
        for t in T[1:]:
            if t.algebra is not T[0].algebra and t.algebra != T[0].algebra:
                raise serialize.SerializeError("complexes over different algebras")
    except INPUT_ERRORS as exc:
        _fail_input(exc)
    reports, _classes = certify_set(T, T[0].algebra)
    pres, gen, k0 = reports["presilting"], reports["generation"], reports["k0"]
    report = {
        "v": 1,
        "presilting": pres,
        "generation": {k: v for k, v in gen.items() if k != "witnesses"},
        "k0": k0,
    }
    ok = pres["ok"] and gen["ok"] and k0["ok"]
    report["silting_certified"] = ok
    _emit(
        report,
        [
            f"presilting: {'pass' if pres['ok'] else 'FAIL'}",
            f"generation: {gen['status']}",
            f"K0 unimodular: {k0['unimodular']}",
        ],
    )
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
