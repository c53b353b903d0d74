import importlib.util
import json
import math
import os
import stat
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from toricq import cli, groups, linalg, serialize
from toricq.cli import main
from toricq.errors import SolverError, ValidationError
from toricq.field import FieldScalar
from toricq.polytope import Polytope
from toricq.strata import build_stratification

from test_groups import CHART_PRECONDITIONS, TRAPEZOID

INSTANCES = Path(__file__).resolve().parent.parent / "instances"

PYRAMID_JSON = {
    "field": {"minpoly": [0, 1], "root_interval": ["0", "0"],
              "irreducibility_checked": True},
    "n": 3,
    "normals": [[["-1"], ["0"], ["-1"]], [["1"], ["0"], ["-1"]],
                [["0"], ["-1"], ["-1"]], [["0"], ["1"], ["-1"]],
                [["0"], ["0"], ["1"]]],
    "offsets": [["-1"], ["-1"], ["-1"], ["-1"], ["0"]],
    "quasilattice": [[["1"], ["0"], ["0"]], [["0"], ["1"], ["0"]],
                     [["0"], ["0"], ["1"]]],
    "solver": {"tolerance": 1e-9, "max_iterations": 100,
               "line_search_shrink": 0.5, "precision_bits": 53},
    "seed": 7,
}

INTERVAL_JSON = {
    "field": {"minpoly": [0, 1], "root_interval": ["0", "0"],
              "irreducibility_checked": True},
    "n": 1,
    "normals": [[["1"]], [["-1"]]],
    "offsets": [["0"], ["-1"]],
    "quasilattice": [[["1"]]],
    "solver": {"tolerance": 1e-9, "max_iterations": 100,
               "line_search_shrink": 0.5, "precision_bits": 53},
    "seed": 3,
}


@pytest.fixture()
def pyramid_file(tmp_path):
    path = tmp_path / "pyramid.json"
    path.write_text(json.dumps(PYRAMID_JSON))
    return str(path)


@pytest.fixture()
def interval_file(tmp_path):
    path = tmp_path / "interval.json"
    path.write_text(json.dumps(INTERVAL_JSON))
    return str(path)


def test_instance_roundtrip_bit_exact():
    inst = serialize.instance_from_json(PYRAMID_JSON)
    blob = serialize.dumps(serialize.instance_to_json(inst))
    inst2 = serialize.instance_from_json(json.loads(blob))
    assert serialize.dumps(serialize.instance_to_json(inst2)) == blob


def test_sqrt2_field_roundtrip(q_sqrt2):
    blob = serialize.dumps(serialize.field_to_json(q_sqrt2))
    back = serialize.field_from_json(json.loads(blob))
    assert back == q_sqrt2
    s = q_sqrt2.scalar([1, -2])
    arr = serialize.scalar_to_json(s)
    assert serialize.scalar_from_json(back, arr) == s
    # scalars made by arithmetic print from their integer numerators
    for s in (q_sqrt2.scalar(["3/4", "-5/6"]), q_sqrt2.scalar(["3/4", "-5/6"]).inverse(),
              q_sqrt2.scalar(["-7/3", 0]), q_sqrt2.zero()):
        arr = serialize.scalar_to_json(s)
        assert arr == [str(c) for c in s.coeffs]
        assert serialize.scalar_from_json(back, arr) == s


def _sqrt2_interval_with(key, value):
    data = json.loads((INSTANCES / "interval_sqrt2.json").read_text())
    return dict(data, **{key: value})


@pytest.mark.parametrize("data, shown", [
    (dict(INTERVAL_JSON, offsets=[["0"], [-1.0]]), "-1.0"),
    (dict(INTERVAL_JSON, offsets=[["0"], [0.1]]), "0.1"),
    (dict(INTERVAL_JSON, offsets=[["0"], [True]]), "true"),
    (dict(INTERVAL_JSON, offsets=[["0"], True]), "true"),
    (_sqrt2_interval_with("normals", [[[1.5, "0"]], [["-1", "0"]]]), "1.5"),
], ids=["integral-float", "float", "boolean", "bare-boolean", "sqrt2-float"])
def test_inexact_scalar_is_refused(tmp_path, capsys, data, shown):
    """A JSON float or boolean scalar is an input error that names the
    value, not 0.1 read as its binary value or true as 1."""
    path = tmp_path / "inexact.json"
    path.write_text(json.dumps(data))
    assert main(["analyze", str(path)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ValidationError"
    assert err["message"] == (f'scalar entry {shown} is not exact: write it as a '
                              'string such as "1/10"')


@pytest.mark.parametrize("interval, shown", [
    ([True, 2], "true"), ([1.4, 1.5], "1.4")], ids=["boolean", "float"])
def test_inexact_root_interval_is_refused(tmp_path, capsys, interval, shown):
    """A float or boolean endpoint of the isolating interval is refused
    like a scalar entry: [true, 2] loaded as [1, 2] and 1.4 as its binary
    value."""
    data = json.loads((INSTANCES / "interval_sqrt2.json").read_text())
    data["field"]["root_interval"] = interval
    path = tmp_path / "inexact_field.json"
    path.write_text(json.dumps(data))
    assert main(["faces", str(path)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"type": "ValidationError",
                   "message": f'root_interval entry {shown} is not exact: write '
                              'it as a string such as "1/10"'}


ACCEPTED_SPELLINGS = [3, -3, "3", "6/4", " 3/4 ", "1_000", "0.5", "1e2"]
REFUSED_SPELLINGS = ["1/0", "one", "-7/-2", "1 /2"]


@pytest.mark.parametrize("value", ACCEPTED_SPELLINGS)
@pytest.mark.parametrize("field", ["qq", "q_sqrt2"])
def test_scalar_reader_reads_what_fraction_reads(request, field, value):
    """A JSON integer or string loads as the scalar of Fraction(value),
    in the list form and the bare form alike."""
    field = request.getfixturevalue(field)
    want = field.from_rational(Fraction(value))
    padded = [value] + ["0"] * (field.degree - 1)
    assert serialize.scalar_from_json(field, padded) == want
    assert serialize.scalar_from_json(field, value) == want


@pytest.mark.parametrize("value", REFUSED_SPELLINGS)
@pytest.mark.parametrize("bare", [False, True], ids=["list", "bare"])
@pytest.mark.parametrize("degree", [1, 2])
def test_unreadable_scalar_is_refused(tmp_path, capsys, value, bare, degree):
    """A string that Fraction does not read as a rational is an input
    error with exit code 2."""
    base = (INTERVAL_JSON if degree == 1
            else json.loads((INSTANCES / "interval_sqrt2.json").read_text()))
    entry = value if bare else [value] + ["0"] * (degree - 1)
    path = tmp_path / "unreadable.json"
    path.write_text(json.dumps(dict(base, offsets=[["0"] * degree, entry])))
    with pytest.raises(ValidationError):
        serialize.load_instance(str(path))
    assert main(["analyze", str(path)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ValidationError"


def _seed_one_families():
    """The seed-1 instances of the lattice-qq and lattice-sqrt2 benchmark
    families, as instance JSON."""
    path = Path(__file__).resolve().parent.parent / "bench" / "families.py"
    spec = importlib.util.spec_from_file_location("bench_families", path)
    families = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(families)
    return {"pyr-cross_3": families.pyramid_cross(3, 1),
            "pyr-cube_4": families.pyramid_cube(4, 1),
            "cube_5": families.cube(5, 1),
            "pyr-cube_4-sqrt2": families.pyramid_cube_sqrt2(4, 1),
            "cross_3-sqrt2": families.cross_sqrt2(3, 1)}


def _encoding_inputs():
    shipped = {path.stem: json.loads(path.read_text())
               for path in sorted(INSTANCES.glob("*.json"))}
    return {**shipped, **_seed_one_families()}


@pytest.mark.parametrize("name", sorted(_encoding_inputs()))
def test_shared_scalar_encodings_give_the_same_report(name, monkeypatch):
    """Every report encoded through one shared scalar encoder equals, and
    dumps to the same bytes as, the same report with a fresh list per
    scalar (``scalar_to_json`` as the encoder)."""
    p = serialize.instance_from_json(_encoding_inputs()[name]).polytope
    report = build_stratification(p)
    lat = p.face_lattice()

    def encodings():
        return [cli._gamma_table(p), serialize.report_to_json(report),
                serialize.lattice_to_json(lat), serialize.polytope_to_json(p)]

    shared = encodings()
    monkeypatch.setattr(serialize, "scalar_encoder",
                        lambda: serialize.scalar_to_json)
    unshared = encodings()
    for a, b in zip(shared, unshared):
        assert a == b
        assert serialize.dumps(a) == serialize.dumps(b)


def _scalar_lists(obj):
    """Every list of strings (an encoded scalar) in a report's dict tree."""
    if isinstance(obj, dict):
        for value in obj.values():
            yield from _scalar_lists(value)
    elif isinstance(obj, list):
        if obj and all(isinstance(x, str) for x in obj):
            yield obj
        else:
            for value in obj:
                yield from _scalar_lists(value)


def test_analyze_report_holds_one_list_per_distinct_scalar():
    """Equal scalars of one report share one list: the analyze dict of
    pyr-cross_3 holds no more scalar-list objects than distinct scalars."""
    data = _seed_one_families()["pyr-cross_3"]
    lists = list(_scalar_lists(cli.analyze_report(serialize.instance_from_json(data))))
    distinct = {tuple(x) for x in lists}
    assert len(lists) > len(distinct)
    assert len({id(x) for x in lists}) <= len(distinct)


def test_cmd_analyze(pyramid_file, capsys):
    assert main(["analyze", pyramid_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["singular_faces"] == 1
    assert report["depth"] == 1
    assert report["is_lattice"] is True
    assert report["quasilattice_rank"] == 3
    # base-vertex charts are unimodular; apex charts carry the Z/2 cone group
    orders = sorted(entry["order"] for entry in report["gamma_table"])
    assert set(orders) == {1, 2}


def test_cmd_faces_with_outputs(pyramid_file, tmp_path, capsys):
    out_json = tmp_path / "faces.json"
    out_dot = tmp_path / "faces.gv"
    assert main(["faces", pyramid_file, "--json", str(out_json),
                 "--dot", str(out_dot)]) == 0
    data = json.loads(out_json.read_text())
    assert data["polytope_depth"] == 1
    assert "[1, 2, 3, 4]" in data["faces"]
    dot = out_dot.read_text()
    assert dot.startswith("digraph face_lattice")
    assert '"[1, 2, 3, 4]"' in dot


def _one_line(out: str):
    """The report of one compact, key-sorted, newline-terminated line."""
    assert out.endswith("\n") and out.count("\n") == 1
    report = json.loads(out)
    assert out == serialize.dumps(report)
    return report


TRIANGLE = str(INSTANCES / "weighted_triangle.json")
OUTPUT_SHAPE = {
    "analyze": [],
    "faces": [],
    "strata": [],
    "verify": ["--samples", "5", "--seed", "7"],
    "retract": ["--point", "[[1,0.5],[0.3,-0.2],[2,1]]"],
    "equiv": ["--points", "[[[1,0],[1,0],[1,0]], [[2,0],[2,0],[2,0]]]"],
    "gamma": [],
}


@pytest.mark.parametrize("command", sorted(OUTPUT_SHAPE))
def test_every_command_prints_one_line_and_copies_it(command, tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main([command, TRIANGLE, *OUTPUT_SHAPE[command],
                 "--json", str(target)]) == 0
    out = capsys.readouterr().out
    _one_line(out)
    assert target.read_bytes() == out.encode()


@pytest.mark.parametrize("argv,code,kind", [
    (["retract", TRIANGLE, "--point", "[[1,0],[1,0],[1,0]]", "--tol", "-1"],
     2, "ValidationError"),
    (["retract", TRIANGLE, "--point",
      "[[5.561e128,0],[1.215e-129,0],[1.904e-78,0]]"], 3, "SolverError"),
], ids=["validation", "solver"])
def test_error_payload_is_one_line(argv, code, kind, capsys):
    assert main(argv) == code
    assert _one_line(capsys.readouterr().out)["error"]["type"] == kind


def test_retract_floats_survive_the_compact_form(capsys):
    """Every float of a retraction prints as its shortest round-trip repr,
    so the compact report parses to the floats of the indented one."""
    assert main(["retract", TRIANGLE, *OUTPUT_SHAPE["retract"]]) == 0
    report = _one_line(capsys.readouterr().out)
    xi = [0.39481241856987925, 0.012968953575299813]
    assert report["canonical"] == {
        "face": [], "xi": xi,
        "x": [[0.6283410050043531, 4.1158998800183345e-18],
              [0.0565009540021346, -0.09887666950373557],
              [1.2566820100087064, 1.9952736092661406e-17]]}
    assert report["retraction"] == {
        "iterations": 6, "residual": 7.716050021144838e-15,
        "tolerance": 1e-09, "xi": xi, "zero_set": [],
        "x": [[0.5620052800961076, 0.2810026400480538],
              [0.09475498045677133, -0.0631699869711809],
              [1.1240105601922155, 0.5620052800961077]],
        "y_star": [0.09171208642936601, 0.183424172858732, 0.091712086429366]}


@pytest.mark.parametrize("flag", ["--json", "--dot"])
def test_unwritable_output_file_is_an_error_payload(interval_file, tmp_path,
                                                    capsys, flag):
    """Files are written before stdout: a path that cannot be written
    prints only the error payload, not the report and a traceback."""
    target = tmp_path / "missing" / "out"
    assert main(["faces", interval_file, flag, str(target)]) == 2
    err = json.loads(capsys.readouterr().out)
    assert list(err) == ["error"]
    assert err["error"]["type"] == "ValidationError"
    assert err["error"]["message"].startswith(f"cannot write {target}: ")


@pytest.mark.parametrize("flag", ["--json", "--dot"])
def test_output_files_honour_the_umask(interval_file, tmp_path, capsys, flag):
    target = tmp_path / "out"
    previous = os.umask(0o022)
    try:
        assert main(["faces", interval_file, flag, str(target)]) == 0
    finally:
        os.umask(previous)
    assert stat.S_IMODE(target.stat().st_mode) == 0o644


@pytest.mark.parametrize("command", ["faces", "strata"])
def test_dot_text_is_built_only_for_the_dot_flag(pyramid_file, monkeypatch,
                                                 capsys, command):
    def refuse(*args):
        raise AssertionError("DOT text built without --dot")

    monkeypatch.setattr(serialize, "lattice_to_dot", refuse)
    monkeypatch.setattr(serialize, "report_to_dot", refuse)
    assert main([command, pyramid_file]) == 0
    assert json.loads(capsys.readouterr().out)


def test_cmd_strata_dot(pyramid_file, tmp_path, capsys):
    out_dot = tmp_path / "strata.gv"
    assert main(["strata", pyramid_file, "--dot", str(out_dot)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["strata"]) == 1
    entry = report["strata"][0]
    assert entry["link"]["N_F_dim"] == 1
    assert entry["link"]["N_F0_dim"] == 2
    assert entry["link"]["delta_F"]["n"] == 2
    dot = out_dot.read_text()
    assert dot.count("->") == 1  # apex stratum -> max


def test_strata_link_feeds_back(pyramid_file, tmp_path, capsys):
    assert main(["strata", pyramid_file]) == 0
    report = json.loads(capsys.readouterr().out)
    link_polytope = report["strata"][0]["link"]["delta_F"]
    # the link polytope JSON is a valid instance by itself
    path = tmp_path / "link.json"
    path.write_text(json.dumps(link_polytope))
    assert main(["analyze", str(path)]) == 0
    nested = json.loads(capsys.readouterr().out)
    assert nested["d"] == 4 and nested["n"] == 2


def test_commands_eliminate_once_per_exact_question(monkeypatch, capsys):
    """Counts the exact eliminations (``linalg.first_basis`` calls, which
    every nonempty ``linalg._rref`` and the chart search make) of in-process
    commands.  A link reduces its active normals once for the basis, the
    normals' span coordinates and the cone kernel, and the DD start reduces
    [rows^T | I] once; with a second solve per normal, a rank before the
    kernel and a separate inverse, strata took 98 on pyramid4 and 111 on
    the octahedron, and faces took 3.  A link polytope reads its face
    lattice off its parent's, so strata enumerates vertices once (6 times
    on pyramid4 and 7 on the octahedron, at 56 and 68 eliminations, when
    each link ran its own double-description pass).  The chart search in
    analyze reduces one tableau per nonsimple vertex to its first basis and
    reaches every other basis of that vertex by single exchanges, which are
    not counted."""
    calls = [0]
    enumerations = [0]
    first_basis = linalg.first_basis
    enumerate_vertices = Polytope._enumerate_vertices

    def counted(rows, ncols):
        calls[0] += 1
        return first_basis(rows, ncols)

    def counted_enumeration(self):
        enumerations[0] += 1
        return enumerate_vertices(self)

    monkeypatch.setattr(linalg, "first_basis", counted)
    monkeypatch.setattr(Polytope, "_enumerate_vertices", counted_enumeration)

    def eliminations(command, name):
        calls[0] = enumerations[0] = 0
        assert main([command, str(INSTANCES / name)]) == 0
        capsys.readouterr()
        return calls[0]

    assert eliminations("strata", "pyramid4.json") <= 51
    assert enumerations[0] == 1
    assert eliminations("strata", "octahedron.json") <= 62
    assert enumerations[0] == 1
    for path in sorted(INSTANCES.glob("*.json")):
        assert eliminations("faces", path.name) <= 2, path.name
    analyze = {"interval": 4, "interval_sqrt2": 4, "octahedron": 8,
               "pyramid4": 8, "pyramid_sqrt2": 7, "square_pyramid": 7,
               "weighted_triangle": 5}
    assert sorted(analyze) == sorted(p.stem for p in INSTANCES.glob("*.json"))
    for name, bound in analyze.items():
        assert eliminations("analyze", name + ".json") <= bound, name


def test_rational_charts_reduce_on_integers(monkeypatch, capsys):
    """analyze over Q reduces chart images on the integer tableau: no
    scalar takes its fractional part, and only the quasilattice's rank
    certificate reads scalar numerators over a common denominator, once per
    polytope.  Over Q(sqrt2) the chart images still take fractional parts."""
    frac_calls, callers = [0], []
    frac_part = FieldScalar.frac_part
    numerators = groups._numerators

    def counted_frac_part(self):
        frac_calls[0] += 1
        return frac_part(self)

    def counted_numerators(vectors):
        callers.append(sys._getframe(1).f_code.co_qualname)
        return numerators(vectors)

    monkeypatch.setattr(FieldScalar, "frac_part", counted_frac_part)
    monkeypatch.setattr(groups, "_numerators", counted_numerators)
    for name in ("interval", "octahedron", "pyramid4", "square_pyramid",
                 "weighted_triangle"):
        callers.clear()
        assert main(["analyze", str(INSTANCES / (name + ".json"))]) == 0
        assert "gamma_table" in json.loads(capsys.readouterr().out)
        assert frac_calls[0] == 0, name
        assert callers == ["Quasilattice._echelon"], name
    assert main(["analyze", str(INSTANCES / "interval_sqrt2.json")]) == 0
    capsys.readouterr()
    assert frac_calls[0] > 0


def test_degree_two_scalar_methods_stay_patchable(monkeypatch, capsys):
    """Degree >= 2 arithmetic runs in FieldScalar's own methods, so a patch
    of FieldScalar.__mul__ or .sign (as the benchmark tracer's counters
    make) sees the Q(sqrt2) calls of analyze."""
    calls = {"__mul__": 0, "sign": 0}

    def counting(name):
        original = getattr(FieldScalar, name)

        def method(self, *args):
            calls[name] += self.field.degree == 2
            return original(self, *args)
        return method

    for name in calls:
        monkeypatch.setattr(FieldScalar, name, counting(name))
    assert main(["analyze", str(INSTANCES / "interval_sqrt2.json")]) == 0
    capsys.readouterr()
    assert calls["__mul__"] > 0 and calls["sign"] > 0


def test_cmd_retract(interval_file, capsys):
    assert main(["retract", interval_file, "--point", "[[1,0],[1,0]]"]) == 0
    out = json.loads(capsys.readouterr().out)
    x = out["retraction"]["x"]
    assert abs(x[0][0] - 0.7071067811865476) < 1e-8
    assert abs(out["retraction"]["xi"][0] - 0.5) < 1e-8
    assert out["closed"] is True


def test_cmd_retract_outside_domain(pyramid_file, capsys):
    code = main(["retract", pyramid_file,
                 "--point", "[[0,0],[0,0],[0,0],[0,0],[0,0]]"])
    assert code == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "DomainError"


def test_cmd_equiv(interval_file, capsys):
    assert main(["equiv", interval_file,
                 "--points", "[[[1,0],[1,0]], [[2,0],[2,0]]]"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["equivalent"] is True
    assert out["exactness"] == "approximate"
    assert main(["equiv", interval_file,
                 "--points", "[[[1,0],[0,0]], [[0,0],[1,0]]]"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["equivalent"] is False


def test_cmd_gamma(pyramid_file, capsys):
    assert main(["gamma", pyramid_file, "--chart", "1,2,3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["order"] == 2  # |det| of three slant normals
    assert out["invariant_factors"] == [2]
    code = main(["gamma", pyramid_file, "--chart", "1,2,5"])
    assert code == 2  # those three normals are linearly dependent


def test_cmd_gamma_chart_precondition_messages(tmp_path, capsys):
    normals, offsets = TRAPEZOID
    path = tmp_path / "trapezoid.json"
    path.write_text(json.dumps(dict(
        INTERVAL_JSON, n=2, normals=[[[str(x)] for x in v] for v in normals],
        offsets=[[str(x)] for x in offsets],
        quasilattice=[[["1"], ["0"]], [["0"], ["1"]]])))
    for chart, message in CHART_PRECONDITIONS:
        code = main(["gamma", str(path), "--chart", ",".join(map(str, chart))])
        assert code == 2
        assert json.loads(capsys.readouterr().out) == {
            "error": {"type": "PreconditionError", "message": message}}


def test_cmd_gamma_table(pyramid_file, capsys):
    assert main(["gamma", pyramid_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["charts"]) > 0
    orders = {tuple(c["I"]): c["order"] for c in out["charts"]}
    assert orders[(1, 3, 5)] == 1


def test_cmd_verify_small(interval_file, capsys):
    assert main(["verify", interval_file, "--samples", "20", "--seed", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is True
    names = {r["name"] for r in out["results"]}
    assert "moment.retraction_unique" in names
    assert "orbits.equivalence_axioms" in names


def test_cmd_verify_deterministic(interval_file, capsys):
    main(["verify", interval_file, "--samples", "15", "--seed", "9"])
    first = capsys.readouterr().out
    main(["verify", interval_file, "--samples", "15", "--seed", "9"])
    second = capsys.readouterr().out
    assert first == second


def test_validation_error_exit_code(tmp_path, capsys):
    bad = dict(INTERVAL_JSON)
    bad["offsets"] = [["1"], ["0"]]  # x >= 1 and x <= 0: empty
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["analyze", str(path)]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "ValidationError"
    assert set(err["error"]) == {"type", "message"}


def test_malformed_json_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["analyze", str(path)]) == 2


@pytest.mark.parametrize("key,value", [
    ("offsets", [["0"], ["one"]]),
    ("offsets", [["0"], ["1/0"]]),
    ("normals", [[["1"]], [["-x"]]]),
    ("quasilattice", [[["1/x"]]]),
    ("n", "one"),
    ("solver", {"tolerance": "x"}),
    ("seed", "x"),
    ("solver", [1]),
    ("seed", 1.5),
    ("solver", {"max_iterations": 2.7}),
    ("n", 1.5),
    ("field", dict(INTERVAL_JSON["field"], minpoly=[0, 1.9])),
    ("seed", True),
], ids=["offsets", "zero-denominator", "normals", "quasilattice", "n",
        "tolerance", "seed", "solver-list", "fractional-seed",
        "fractional-max-iterations", "fractional-n", "fractional-minpoly",
        "boolean-seed"])
def test_malformed_instance_field_exit_code(tmp_path, capsys, key, value):
    """A malformed field prints the error payload, not a traceback."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(INTERVAL_JSON, **{key: value})))
    assert main(["analyze", str(path)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ValidationError"


SQUARE_AS_STRINGS = dict(
    INTERVAL_JSON, n=2, offsets=["0", "-1", "0", "-1"],
    normals=["10", [["-1"], ["0"]], "01", [["0"], ["-1"]]],
    quasilattice=["10", "01"])


@pytest.mark.parametrize("data, message", [
    (SQUARE_AS_STRINGS, 'normal 1 is not a JSON list: "10"'),
    (dict(INTERVAL_JSON, normals=["1", "-1"]), 'normal 1 is not a JSON list: "1"'),
    (dict(SQUARE_AS_STRINGS,
          normals=[[["1"], ["0"]], [["-1"], ["0"]], [["0"], ["1"]], [["0"], ["-1"]]]),
     'quasilattice generator 1 is not a JSON list: "10"'),
    (dict(INTERVAL_JSON, offsets="01"), 'offsets is not a JSON list: "01"'),
], ids=["square", "interval", "generators", "offsets"])
def test_a_string_is_not_read_as_a_vector(tmp_path, capsys, data, message):
    """A string where a vector belongs is refused by name, not read as the
    vector of its characters (which made "10", "01" the unit square)."""
    path = tmp_path / "strings.json"
    path.write_text(json.dumps(data))
    assert main(["faces", str(path)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"type": "ValidationError", "message": message}


def test_ambient_dimension_zero_is_refused(tmp_path, capsys):
    path = tmp_path / "n0.json"
    path.write_text(json.dumps(dict(INTERVAL_JSON, n=0, normals=[[]], offsets=["0"],
                                    quasilattice=[[]])))
    assert main(["faces", str(path)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"type": "ValidationError",
                   "message": "ambient dimension is 0: normals have no coordinates"}


def test_equiv_points_must_be_a_pair(interval_file, capsys):
    # a third vector is rejected, not ignored
    for points in ('{"a": 1}', "[[[1,0],[1,0]], [[2,0],[2,0]], [[3,0]]]"):
        assert main(["equiv", interval_file, "--points", points]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ValidationError"
        assert err["message"].startswith("--points must be a JSON pair")


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("command", ["retract", "equiv"])
def test_nonfinite_point_is_rejected(interval_file, capsys, command, value):
    point = f"[[{value},0],[1,0]]"
    if command == "retract":
        argv = ["retract", interval_file, "--point", point]
    else:
        argv = ["equiv", interval_file, "--points", f"[[[1,0],[1,0]], {point}]"]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"type": "ValidationError",
                   "message": "complex vector has a coordinate that is not finite"}


@pytest.mark.parametrize("tol", ["0", "-1"])
def test_nonpositive_tol_is_rejected(interval_file, capsys, tol):
    assert main(["retract", interval_file, "--point", "[[1,0],[1,0]]",
                 "--tol", tol]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"type": "ValidationError",
                   "message": "tolerance must be positive"}


def test_nonfinite_tol_is_rejected(interval_file, capsys):
    # an infinite tolerance would accept the starting point, off the zero level
    assert main(["retract", interval_file, "--point", "[[5,0],[0.1,0]]",
                 "--tol", "inf"]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"type": "ValidationError",
                   "message": "tolerance must be finite"}


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_rejects_fewer_than_one_sample(interval_file, capsys, samples):
    assert main(["verify", interval_file, "--samples", samples]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"type": "ValidationError",
                   "message": "samples must be at least 1"}


def test_solver_nonconvergence_exit_code(interval_file, capsys):
    # a tolerance below float resolution cannot be met
    code = main(["retract", interval_file, "--point", "[[1,0],[1,0]]",
                 "--tol", "1e-18"])
    assert code == 3
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "SolverError"
    assert err["error"]["iterations"] == 100
    assert 0 < err["error"]["residual"] < 1e-9


def test_overflowing_start_iterate_exits_as_a_solver_error(capsys):
    # the pre-translation of these moduli overflows the objective at once
    point = "[[5.561e128,0],[1.215e-129,0],[1.904e-78,0]]"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["retract", str(INSTANCES / "weighted_triangle.json"),
                     "--point", point])
    assert code == 3
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"type": "SolverError",
                   "message": "objective overflows at the iterate",
                   "residual": None, "iterations": 0}


def test_solver_error_payload_writes_a_nonfinite_residual_as_null(
        interval_file, capsys, monkeypatch):
    def diverge(*args, **kwargs):
        raise SolverError("iterates diverged", residual=math.inf, iterations=4)

    monkeypatch.setattr(cli, "classify_orbit", diverge)
    assert main(["retract", interval_file, "--point", "[[1,0],[1,0]]"]) == 3

    def reject(name):
        raise AssertionError(f"nonstandard JSON constant {name}")

    err = json.loads(capsys.readouterr().out, parse_constant=reject)["error"]
    assert err["residual"] is None and err["iterations"] == 4


@pytest.mark.parametrize("key,value,bad", [
    ("precision_bits", 53, [80, 24, "53"]),
    ("max_iterations", 100, [500, "100", 2.7]),
    ("line_search_shrink", 0.5, [0.25, "0.5"]),
], ids=["precision_bits", "max_iterations", "line_search_shrink"])
def test_fixed_solver_key_is_accepted_only_at_its_value(key, value, bad):
    """Older instances carry solver keys that have one value each; a
    missing key or that value is accepted, anything else is an error."""
    inst = serialize.instance_from_json(INTERVAL_JSON)
    assert serialize.instance_to_json(inst)["solver"] == {"tolerance": 1e-9}
    for solver in ({"tolerance": 1e-9}, {"tolerance": 1e-9, key: value}):
        ok = dict(INTERVAL_JSON, solver=solver)
        assert serialize.instance_from_json(ok).solver == inst.solver
    for v in bad:
        bad_json = dict(INTERVAL_JSON, solver=dict(INTERVAL_JSON["solver"],
                                                   **{key: v}))
        with pytest.raises(ValidationError) as info:
            serialize.instance_from_json(bad_json)
        assert str(info.value) == f"solver.{key} must be {value}, got {v!r}"


def test_precision_flag_is_gone(interval_file):
    with pytest.raises(SystemExit):
        main(["retract", interval_file, "--point", "[[1,0],[1,0]]",
              "--precision", "80"])


def test_nested_strata_json_depth_two(tmp_path, capsys):
    normals = [[["-1"], ["0"], ["-1"], ["-1"]], [["1"], ["0"], ["-1"], ["-1"]],
               [["0"], ["-1"], ["-1"], ["-1"]], [["0"], ["1"], ["-1"], ["-1"]],
               [["0"], ["0"], ["1"], ["0"]], [["0"], ["0"], ["0"], ["1"]]]
    inst = {
        "field": {"minpoly": [0, 1], "root_interval": ["0", "0"],
                  "irreducibility_checked": True},
        "n": 4, "normals": normals,
        "offsets": [["-1"], ["-1"], ["-1"], ["-1"], ["0"], ["0"]],
        "quasilattice": [[["1"], ["0"], ["0"], ["0"]], [["0"], ["1"], ["0"], ["0"]],
                         [["0"], ["0"], ["1"], ["0"]], [["0"], ["0"], ["0"], ["1"]]],
        "seed": 1,
    }
    path = tmp_path / "pyr4.json"
    path.write_text(json.dumps(inst))
    assert main(["strata", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["polytope_depth"] == 2
    apex = next(s for s in report["strata"] if s["face"] == [1, 2, 3, 4, 5])
    level2 = apex["link"]["report"]
    assert len(level2["strata"]) == 1
    assert level2["strata"][0]["link"]["report"]["strata"] == []
