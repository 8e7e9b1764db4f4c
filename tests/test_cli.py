import enum
import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

from hga import (
    BoundQuiverPresentation,
    Idempotent,
    Quiver,
    build_algebra,
    commutativity_relation,
    presentation_from_dict,
    presentation_to_dict,
    zero_relation,
)
from hga import cli, reps
from hga.cli import main
from hga.errors import InternalError, UnknownArrow, UnknownVertex


# every report the CLI writes here is compared with json's bytes
pytestmark = pytest.mark.usefixtures("reports_dump_as_json")


def write(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")


def gentle_chain_dict():
    q = Quiver(["1", "2", "3"], [("a1", "1", "2"), ("a2", "2", "3")])
    p = BoundQuiverPresentation(q, [zero_relation(("a1", "a2"))])
    return presentation_to_dict(p)


def test_auslander_counts(tmp_path):
    out = tmp_path / "a.json"
    assert main(["auslander", "--n", "4", "--d", "2",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert (rep["vertices"], rep["arrows"]) == (10, 12)


def test_auslander_roundtrip(tmp_path):
    out = tmp_path / "a.json"
    main(["auslander", "--n", "3", "--d", "1", "--out", str(out)])
    rep = json.loads(out.read_text())
    p = presentation_from_dict(rep["presentation"])
    assert presentation_to_dict(p) == rep["presentation"]


def test_tuples_count(tmp_path):
    out = tmp_path / "t.json"
    assert main(["tuples", "--d", "2", "--m", "7", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["count"] == len(rep["tuples"]) == 10


def test_collections_catalan(tmp_path):
    out = tmp_path / "c.json"
    assert main(["collections", "--d", "1", "--m", "6",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["count"] == 14
    assert all(len(c) == 4 for c in rep["collections"])


def test_collections_scale_cap(tmp_path, monkeypatch):
    monkeypatch.setenv("HGA_CAP", "3")
    out = tmp_path / "c.json"
    assert main(["collections", "--d", "1", "--m", "6",
                 "--out", str(out)]) == 3


def test_endo_projectives(tmp_path):
    col = tmp_path / "col.json"
    write(col, {"tuples": [[1, 3], [1, 4]]})
    out = tmp_path / "endo.json"
    assert main(["endo", "--n", "2", "--d", "1",
                 "--collection", str(col), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert (rep["endDim"], rep["extDim"]) == (3, 0)


def test_check_gentle_pass_and_fail(tmp_path):
    cover = tmp_path / "cover.json"
    e = tmp_path / "e.json"
    write(cover, gentle_chain_dict())
    write(e, ["1", "2", "3"])
    out = tmp_path / "cert.json"
    assert main(["check-gentle", "--d", "1", "--cover", str(cover),
                 "--e", str(e), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["verdict"] == "pass"
    assert main(["check-gentle", "--d", "2", "--cover", str(cover),
                 "--e", str(e), "--out", str(out)]) in (0, 1)


@pytest.mark.parametrize("e", ["12", {"1": 0, "2": 0}, [1, 2], "1"],
                         ids=["string", "dict", "int-list", "name-string"])
def test_check_gentle_takes_only_a_list_of_vertex_names(tmp_path, capsys, e):
    # a string or a dict would be read as the set of its characters or keys
    cover = tmp_path / "cover.json"
    write(cover, gentle_chain_dict())
    path = tmp_path / "e.json"
    out = tmp_path / "cert.json"
    write(path, ["1", "2"])
    assert main(["check-gentle", "--d", "1", "--cover", str(cover),
                 "--e", str(path), "--out", str(out)]) == 0
    out.unlink()
    write(path, e)
    assert main(["check-gentle", "--d", "1", "--cover", str(cover),
                 "--e", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    assert "not a JSON list of vertex names" in capsys.readouterr().err


@pytest.mark.parametrize("module, error", [
    ({"dims": {"1": 1, "2": 1}, "maps": {"b1": [[1]]}}, UnknownArrow),
    ({"dims": {"1": 1, "4": 1}}, UnknownVertex),
    ({"dims": {"1": 1.5}}, ValueError),
    ({"dims": {"1": -1}}, ValueError),
    ({"dims": {"1": 1, "4": 0}}, UnknownVertex),
    ({"dims": {"1": 1}, "maps": {"b1": []}}, UnknownArrow),
    ({"dims": {"1": 1, "2": 1}, "maps": {"a1": [["x"]]}}, ValueError),
], ids=["unknown-arrow", "unknown-vertex", "fractional-dim", "negative-dim",
        "unknown-vertex-at-zero", "unknown-arrow-of-size-zero",
        "non-numeric-entry"])
def test_verify_example_rejects_a_bad_module(tmp_path, module, error):
    a = build_algebra(presentation_from_dict(gentle_chain_dict()))
    with pytest.raises(error):
        reps.representation_from_dict(a, module)
    alg = tmp_path / "g.json"
    write(alg, gentle_chain_dict())
    mods = tmp_path / "m.json"
    write(mods, [module])
    out = tmp_path / "v.json"
    assert main(["verify-example", "--algebra", str(alg),
                 "--modules", str(mods), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("modules", [
    [{"dims": {"1": 1, "2": 1}, "maps": {"a1": 5}}], [{"dims": ["1"]}],
    ["x"], {"dims": {"1": 1}},
], ids=["scalar-map", "dims-list", "module-string", "not-a-list"])
def test_verify_example_malformed_modules_exit_two(tmp_path, capsys, modules):
    alg = tmp_path / "g.json"
    write(alg, gentle_chain_dict())
    mods = tmp_path / "m.json"
    write(mods, modules)
    assert main(["verify-example", "--algebra", str(alg),
                 "--modules", str(mods)]) == 2
    assert "not a list of modules" in capsys.readouterr().err


def test_reduce_gentle_input_trivial(tmp_path):
    alg = tmp_path / "g.json"
    write(alg, gentle_chain_dict())
    out = tmp_path / "trace.json"
    assert main(["reduce", str(alg), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["steps"] == []
    assert rep["sgInvariant"]["cycleLengths"] == []


def test_reduce_non_shrinking_corner_exits_four(tmp_path, capsys,
                                                monkeypatch):
    """A certified step whose corner does not shrink breaks an invariant of
    the reduction: it is an internal error (4), not a negative verdict."""
    from hga import reduction

    def steps(a, rng):
        yield Idempotent.of(a.vertices), a, {}

    monkeypatch.setattr(reduction, "_certified_steps", steps)
    q = Quiver(["a", "b", "c", "d"], [("p", "a", "b"), ("q", "a", "c"),
                                      ("r", "b", "d"), ("s", "c", "d")])
    square = BoundQuiverPresentation(
        q, [commutativity_relation(("p", "r"), ("q", "s"))])
    alg = tmp_path / "sq.json"
    write(alg, presentation_to_dict(square))
    out = tmp_path / "trace.json"
    assert main(["reduce", str(alg), "--out", str(out)]) == \
        cli.EXIT_INTERNAL == 4
    assert not out.exists()
    assert capsys.readouterr().err == \
        "internal error: corner did not decrease the dimension\n"


def test_homdims_report(tmp_path):
    alg = tmp_path / "g.json"
    write(alg, gentle_chain_dict())
    out = tmp_path / "hd.json"
    assert main(["homdims", str(alg), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["globalDim"] == 2
    assert rep["injDimOfA"] == rep["projDimOfDA"]


def test_export_dot(tmp_path, capsys):
    alg = tmp_path / "g.json"
    write(alg, gentle_chain_dict())
    assert main(["export-dot", str(alg)]) == 0
    text = capsys.readouterr().out
    assert "->" in text and "digraph" in text
    out = tmp_path / "g.dot"
    assert main(["export-dot", str(alg), "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == text
    assert capsys.readouterr().out == ""


def test_missing_file_exit_two(tmp_path):
    assert main(["homdims", str(tmp_path / "nope.json")]) == 2


def test_bad_json_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["homdims", str(bad)]) == 2


def test_homdims_accepts_auslander_report(tmp_path):
    report = tmp_path / "a.json"
    assert main(["auslander", "--n", "3", "--d", "2",
                 "--out", str(report)]) == 0
    pres = tmp_path / "p.json"
    write(pres, json.loads(report.read_text())["presentation"])
    out_report, out_pres = tmp_path / "h1.json", tmp_path / "h2.json"
    assert main(["homdims", str(report), "--out", str(out_report)]) == 0
    assert main(["homdims", str(pres), "--out", str(out_pres)]) == 0
    assert out_report.read_bytes() == out_pres.read_bytes()


def test_homdims_step_cap_exit_three(tmp_path, capsys, monkeypatch):
    report = tmp_path / "a23.json"
    assert main(["auslander", "--n", "3", "--d", "2",
                 "--out", str(report)]) == 0
    monkeypatch.setenv("HGA_CAP", "1")
    assert main(["homdims", str(report)]) == cli.EXIT_SCALE == 3
    assert capsys.readouterr().err == (
        "scale cap: projective dimension undecided within the step cap\n")


@pytest.mark.parametrize("data", [
    [1, 2], "text", {"vertices": 3, "arrows": 2},
    {"presentation": {"vertices": ["1"], "arrows": [7]}},
])
def test_malformed_presentation_exit_two(tmp_path, capsys, data):
    bad = tmp_path / "bad.json"
    write(bad, data)
    assert main(["homdims", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("input error: ")


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["auslander", "--n", "4"])
    assert exc.value.code == 2


def test_byte_identical_reports(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        main(["collections", "--d", "2", "--m", "7", "--out", str(out)])
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_example_negative(tmp_path):
    alg = tmp_path / "g.json"
    write(alg, gentle_chain_dict())
    mods = tmp_path / "m.json"
    write(mods, [{"dims": {"1": 1, "2": 0, "3": 0}, "maps": {}}])
    out = tmp_path / "v.json"
    rc = main(["verify-example", "--algebra", str(alg),
               "--modules", str(mods), "--out", str(out)])
    assert rc == 1
    rep = json.loads(out.read_text())
    assert not rep["pass"]
    assert any(f["check"] == "gorensteinProjective" for f in rep["failures"])


def test_verify_example_empty_orbit_is_an_input_error(tmp_path, capsys):
    alg = tmp_path / "g.json"
    write(alg, gentle_chain_dict())
    mods = tmp_path / "m.json"
    write(mods, [])
    out = tmp_path / "v.json"
    rc = main(["verify-example", "--algebra", str(alg),
               "--modules", str(mods), "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "empty syzygy orbit" in capsys.readouterr().err


@pytest.mark.parametrize("exc", [
    InternalError("syzygy lift failed"), ZeroDivisionError("division by zero"),
    ArithmeticError("overflow"), AssertionError(),
])
def test_internal_failure_exit_four(tmp_path, capsys, monkeypatch, exc):
    """A fault of hga reads neither as a negative verdict (1) nor as an
    input error (2), and writes no report."""
    def failing(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_homdims", failing)
    alg = tmp_path / "g.json"
    write(alg, gentle_chain_dict())
    assert main(["homdims", str(alg)]) == cli.EXIT_INTERNAL == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: ")


def test_failed_family_criterion_exits_four(tmp_path, capsys, self_ext):
    """`hga endo` builds the module family itself, so an Ext^d criterion
    that fails on it (typea.LabelMatchFailed) is a fault of hga, not an
    input error: a module with Ext^d(M, M) != 0 breaks it, as in
    test_typea's test_family_checks_the_diagonal."""
    coll = tmp_path / "c.json"
    write(coll, [[1, 3, 5], [1, 3, 6]])
    out = tmp_path / "endo.json"
    assert main(["endo", "--n", "3", "--d", "2", "--collection", str(coll),
                 "--out", str(out)]) == cli.EXIT_INTERNAL == 4
    assert not out.exists()
    assert capsys.readouterr().err.startswith(
        "internal error: Ext criterion fails for ")


def test_broken_l2_invariant_exits_four(tmp_path, capsys, monkeypatch):
    """An L2 invariant that fails inside `hga homdims` is an internal error:
    a cover map that does not commute with the arrows makes the kernel of
    the next resolution step leave its module."""
    from hga import reps

    cover = reps.projective_cover

    def broken_cover(m):
        p, epi, summands = cover(m)
        if summands:
            v = summands[0]
            blocks = dict(epi.blocks)
            blocks[v] = [[0] * p.dims[v] for _ in range(m.dims[v])]
            epi = reps.Morphism(p, m, blocks, check=False)
        return p, epi, summands

    monkeypatch.setattr(reps, "projective_cover", broken_cover)
    alg = tmp_path / "g.json"
    write(alg, gentle_chain_dict())
    assert main(["homdims", str(alg)]) == cli.EXIT_INTERNAL == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: kernel is not a subrepresentation\n"


def test_main_builds_one_parser_on_first_call(tmp_path, monkeypatch):
    """Importing the CLI builds no parser; the first main call builds the
    one every later call parses with, and the reports keep their bytes."""
    probe = ("import hga.cli as c; "
             "print(c._parser.cache_info().currsize)")
    imported = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(cli.__file__))),
        capture_output=True, text=True, check=True).stdout
    assert imported == "0\n"
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    report, dims = tmp_path / "a.json", tmp_path / "h.json"
    try:
        assert main(["auslander", "--n", "3", "--d", "2",
                     "--out", str(report)]) == 0
        assert main(["homdims", str(report), "--out", str(dims)]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    digests = [hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (report, dims)]
    assert digests == [
        "3dbe75b8eac66c3c41ea689d3d4ed166f515e8e6ba88d2e5afc98cbbcd5253d9",
        "76669a10901a5d33f5fe9995ce2663969ffb5f2684c2247007bf989cf951fd98"]


class _Level(enum.IntEnum):
    HIGH = 3


class _Text(str):
    pass


@pytest.mark.parametrize("report", [
    {}, [], (), 0, "x", None, 10 ** 30, [float("nan"), math.inf, -math.inf,
                                         1e300, -0.0, 0.1],
    {"b": [1, (2, 3.5)], "a": {}, "c": [[], ()], "d": None, "e": True,
     "f": False, "g": "é\"\\\n☃"},
    {1: "one", 3: "three", 2: "two"}, {1.5: 0, -2.5: 1}, {True: 1, False: 0},
    {None: 1}, {_Level.HIGH: _Level.HIGH}, {_Text("k"): _Text("v")},
    {"z": [{"a": [{}]}], "y": ((1,),)},
], ids=repr)
def test_json_text_writes_json_bytes(report):
    # the CLI's writer takes containers, keys and leaves as json does,
    # a read-only tuple as a list
    from conftest import json_bytes
    assert cli._json_text(report) == json_bytes(report)


@pytest.mark.parametrize("report", [
    {1: 2, "a": 3}, {(1,): 2}, object(), {"a": [1j]}, {"a": {1, 2}}])
def test_json_text_refuses_what_json_refuses(report):
    from conftest import json_bytes
    errors = []
    for write in (cli._json_text, json_bytes):
        with pytest.raises((TypeError, ValueError)) as info:
            write(report)
        errors.append((info.type, str(info.value)))
    assert errors[0] == errors[1]
