import csv
import hashlib
import io
import json
import contextlib

import pytest
from hypothesis import given, strategies as st

from siphons import (PetriNet, enumerate_minimal_siphons, export_pnml, export_reactions,
                     parse_pnml, parse_reactions, siphon_trap_report)
from siphons.cli import _json, build_parser, main


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_analyze_text(models_dir):
    code, out, _ = run(["analyze", str(models_dir / "enzyme.rxn")])
    assert code == 0
    assert "{A, AE}" in out and "{AE, E}" in out
    assert "2 minimal set(s)" in out


def test_analyze_json_schema(models_dir):
    code, out, _ = run(["analyze", str(models_dir / "enzyme.rxn"),
                        "--target", "both", "--output", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["places"] == 4 and doc["transitions"] == 3
    assert doc["siphons"]["sets"] == [["A", "AE"], ["AE", "E"]]
    assert doc["traps"]["sets"] == [["B"], ["AE", "E"]]
    assert doc["siphons"]["timed_out"] is False
    for key in ("count", "size_min", "size_max", "size_avg", "elapsed_ms",
                "solve_calls", "conflicts", "decisions"):
        assert key in doc["siphons"]


def test_analyze_csv(models_dir):
    code, out, _ = run(["analyze", str(models_dir / "enzyme.rxn"), "--output", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1  # one summary row per model/target
    row = rows[0]
    assert row["model"] == "enzyme.rxn" and row["target"] == "siphons"
    assert row["count"] == "2" and row["size_min"] == row["size_max"] == "2"


def test_analyze_engines_agree(models_dir):
    for model in ("enzyme.rxn", "example2.rxn", "chain_n3.rxn"):
        results = []
        for engine in ("sat", "bb", "oracle"):
            code, out, _ = run(["analyze", str(models_dir / model),
                                "--engine", engine, "--output", "json"])
            assert code == 0
            results.append(json.loads(out)["siphons"]["sets"])
        assert results[0] == results[1] == results[2]


def test_analyze_traps_and_contains(models_dir):
    code, out, _ = run(["analyze", str(models_dir / "example2.rxn"),
                        "--target", "traps"])
    assert code == 0 and "{C, D}" in out
    code, out, _ = run(["analyze", str(models_dir / "example2.rxn"),
                        "--contains", "C"])
    assert code == 0 and "0 minimal set(s)" in out


def test_analyze_marking_report(models_dir):
    code, out, _ = run(["analyze", str(models_dir / "enzyme.rxn"), "--marking-report"])
    assert code == 0
    assert "every minimal siphon contains a marked trap: no" in out


def test_analyze_marking_report_built_once(models_dir, monkeypatch):
    calls = []
    enumerations = []

    def counting_report(*args, **kwargs):
        calls.append(args)
        return siphon_trap_report(*args, **kwargs)

    def counting_enumerate(*args, **kwargs):
        enumerations.append(args)
        return enumerate_minimal_siphons(*args, **kwargs)

    monkeypatch.setattr("siphons.cli.siphon_trap_report", counting_report)
    # the report's own enumeration would go through the analysis module
    monkeypatch.setattr("siphons.cli.enumerate_minimal_siphons", counting_enumerate)
    monkeypatch.setattr("siphons.analysis.enumerate_minimal_siphons", counting_enumerate)
    code, out, _ = run(["analyze", str(models_dir / "enzyme.rxn"), "--marking-report"])
    assert code == 0
    assert "every minimal siphon contains a marked trap: no" in out
    assert len(calls) == 1
    assert len(enumerations) == 1


@pytest.mark.parametrize("extra", [["--contains", "A"], ["--target", "traps"],
                                   ["--target", "both", "--contains", "E"]])
def test_analyze_marking_report_independent_of_target(models_dir, extra):
    # the report covers all minimal siphons whatever --target and --contains select
    path = models_dir / "enzyme.rxn"
    code, out, _ = run(["analyze", str(path), "--marking-report", "--output", "json"] + extra)
    assert code == 0
    net, marking = parse_reactions(path.read_text())
    assert json.loads(out)["marking_report"] == siphon_trap_report(net, marking).to_dict()


def test_analyze_marking_report_json(models_dir):
    code, out, _ = run(["analyze", str(models_dir / "enzyme.rxn"),
                        "--marking-report", "--output", "json"])
    assert code == 0
    block = json.loads(out)["marking_report"]
    assert block["every_siphon_has_marked_trap"] is False
    rows = {tuple(r["siphon"]): r for r in block["siphons"]}
    assert rows[("AE", "E")]["max_trap"] == ["AE", "E"]
    assert rows[("AE", "E")]["trap_marked"] is True
    assert rows[("A", "AE")]["max_trap"] == []


def test_analyze_csv_refuses_the_marking_report(models_dir, monkeypatch):
    # CSV has no report columns, so the pair is a usage error, found before
    # any enumeration
    monkeypatch.setattr("siphons.cli.enumerate_minimal_siphons", None)
    code, out, err = run(["analyze", str(models_dir / "enzyme.rxn"), "--output", "csv",
                          "--marking-report"])
    assert (code, out) == (1, "")
    assert err == "error: --marking-report has no csv columns; use --output json or text\n"


def test_model_files_are_decoded_by_format(tmp_path):
    # PNML is XML, read as bytes in the encoding its declaration names; a
    # .rxn file is UTF-8, and a byte that is not is a parse error
    latin = tmp_path / "latin.pnml"
    cycle = PetriNet(["Aé", "B"], ["t", "u"], {(0, 0): 1, (1, 1): 1}, {(0, 1): 1, (1, 0): 1})
    latin.write_bytes(export_pnml(cycle).replace('encoding="UTF-8"', 'encoding="ISO-8859-1"')
                      .encode("iso-8859-1"))
    assert b"A\xe9" in latin.read_bytes()
    code, out, err = run(["analyze", str(latin), "--output", "json"])
    assert (code, err) == (0, "") and json.loads(out)["siphons"]["sets"] == [["Aé", "B"]]
    bad = tmp_path / "bad.rxn"
    bad.write_bytes(b"A => B\nB => \xff\n")
    code, out, err = run(["analyze", str(bad)])
    assert (code, out, err) == (2, "", "error: line 2: not UTF-8: byte 0xff\n")
    code, out, err = run(["stats", str(tmp_path)])
    assert (code, err) == (0, "")
    assert "bad.rxn: unparseable (line 2: not UTF-8: byte 0xff)" in out.splitlines()


def test_analyze_pnml_and_format_override(models_dir, tmp_path):
    code, out, _ = run(["analyze", str(models_dir / "reduction_n3m2.pnml")])
    assert code == 0
    renamed = tmp_path / "model.txt"
    renamed.write_text((models_dir / "enzyme.rxn").read_text())
    code, _, err = run(["analyze", str(renamed)])
    assert code == 1  # unknown extension needs --format
    code, out, _ = run(["analyze", str(renamed), "--format", "rxn"])
    assert code == 0


def test_analyze_bb_trace(models_dir, tmp_path):
    trace = tmp_path / "trace.txt"
    code, _, _ = run(["analyze", str(models_dir / "example2.rxn"),
                      "--engine", "bb", "--trace", str(trace)])
    assert code == 0
    lines = trace.read_text().splitlines()
    assert any(l.startswith("D ") for l in lines)
    assert "S {A, B}" in lines
    # trace without the bb engine is a usage error
    code, _, err = run(["analyze", str(models_dir / "example2.rxn"),
                        "--trace", str(trace)])
    assert code == 1


def test_exit_codes(models_dir, tmp_path):
    bad = tmp_path / "bad.rxn"
    bad.write_text("A => => B\n")
    assert run(["analyze", str(bad)])[0] == 2
    assert run(["analyze", str(tmp_path / "missing.rxn")])[0] == 1
    assert run(["analyze"])[0] == 1
    assert run(["nonsense"])[0] == 1
    assert run(["--help"])[0] == 0
    for alpha in ("inf", "nan", "-1"):  # not a clause/variable ratio
        code, _, err = run(["sweep", "--alpha", alpha, "--trials", "1"])
        assert code == 1 and err.splitlines() == [f"error: bad alpha list {alpha!r}"]
    code, _, err = run(["sweep", "--alpha", ",", "--trials", "1"])  # a list of no ratio
    assert code == 1 and err.splitlines() == ["error: need at least one alpha"]
    for timeout in ("nan", "inf", "-1"):  # NaN or -1 would mean no budget at all
        for argv in (["analyze", str(models_dir / "enzyme.rxn")],
                     ["sweep", "--alpha", "1", "--vars", "3", "--trials", "1"],
                     ["stats", str(models_dir)]):
            code, out, err = run(argv + [f"--timeout={timeout}"])
            assert (code, out) == (1, "") and err.splitlines() == [
                f"error: bad timeout {float(timeout)!r}"]
    code, out, err = run(["analyze", str(models_dir / "enzyme.rxn"), "--max-conflicts", "-1"])
    assert (code, out) == (1, "") and "argument --max-conflicts: must be an int >= 0" in err


def test_parser_is_built_once_and_reused(models_dir):
    # one parser serves every call in a process, so a parse of good
    # arguments leaves nothing behind that changes the next parse
    assert build_parser() is build_parser()
    good = ["analyze", str(models_dir / "enzyme.rxn"), "--engine", "bb", "--output", "json"]
    code, out, _ = run(good)
    assert code == 0 and json.loads(out)["engine"] == "bb"
    assert run(["analyze", str(models_dir / "enzyme.rxn"), "--engine", "nope"])[0] == 1
    code, out, _ = run(["analyze", str(models_dir / "enzyme.rxn"), "--output", "json"])
    assert code == 0 and json.loads(out)["engine"] == "sat"
    assert run(["analyze"])[0] == 1
    assert run(good)[0] == 0


def test_gen_chain(tmp_path):
    out_file = tmp_path / "c3.rxn"
    code, out, _ = run(["gen", "chain", "--n", "3", str(out_file)])
    assert code == 0
    net, _ = parse_reactions(out_file.read_text())
    assert len(net.places) == 6 and len(net.transitions) == 3


def test_gen_chain_pnml(tmp_path):
    out_file = tmp_path / "c2.pnml"
    code, _, _ = run(["gen", "chain", "--n", "2", str(out_file)])
    assert code == 0
    net, _ = parse_pnml(out_file.read_text())
    assert len(net.places) == 4


def test_gen_sat_reduction(tmp_path):
    out_file = tmp_path / "red.pnml"
    code, out, _ = run(["gen", "sat-reduction", "--vars", "4", "--clauses", "6",
                        "--seed", "2", str(out_file)])
    assert code == 0
    net, _ = parse_pnml(out_file.read_text())
    assert len(net.places) == 17 and len(net.transitions) == 15
    cnf = (tmp_path / "red.cnf").read_text()
    assert "p cnf 4 6" in cnf


@pytest.mark.parametrize("argv", [
    ["gen", "chain", "--n", "2", "out.txt"],
    # the suffix of the DIMACS copy, which would overwrite the net
    ["gen", "sat-reduction", "--vars", "3", "--clauses", "2", "red.cnf"],
], ids=["txt", "cnf"])
def test_gen_refuses_a_suffix_it_has_no_writer_for(tmp_path, argv):
    code, out, err = run(argv[:-1] + [str(tmp_path / argv[-1])])
    assert (code, out) == (1, "")
    assert err == (f"error: cannot infer format of {argv[-1]!r}; "
                   "its suffix must be one of .rxn, .pnml, .xml\n")
    assert list(tmp_path.iterdir()) == []


def test_gen_random_net(tmp_path):
    out_file = tmp_path / "r.rxn"
    code, _, _ = run(["gen", "random-net", "--places", "5", "--transitions", "4",
                      "--degree", "2", "--seed", "1", str(out_file)])
    assert code == 0
    net, _ = parse_reactions(out_file.read_text())
    assert len(net.places) == 5 and len(net.transitions) == 4


def test_sweep_csv(tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run(["sweep", "--vars", "8", "--alpha", "0,2", "--trials", "2",
                      "--timeout", "500", "--seed", "3", "--out", str(out_file)])
    assert code == 0
    rows = list(csv.DictReader(out_file.open()))
    assert [r["alpha"] for r in rows] == ["0.0", "2.0"]
    for row in rows:
        assert row["places"] == str(4 * 8 + 1)
        assert float(row["timed_out"]) <= 1.0
        assert int(row["siphon_count"]) >= 0
    # no-clause endpoint enumerates the n+1 sets
    assert rows[0]["siphon_count"] == "9"


def test_sweep_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(["sweep", "--vars", "6", "--alpha", "1", "--trials", "2",
                          "--timeout", "500", "--seed", "5", "--out", str(path)])
        assert code == 0
    col = lambda p: [(r["alpha"], r["vars"], r["clauses"], r["siphon_count"])
                     for r in csv.DictReader(p.open())]
    assert col(a) == col(b)


def test_sweep_stdout():
    code, out, _ = run(["sweep", "--vars", "6", "--alpha", "0", "--trials", "1",
                        "--timeout", "500"])
    assert code == 0
    assert out.startswith("alpha,")


def test_stats(models_dir):
    code, out, _ = run(["stats", str(models_dir)])
    assert code == 0
    assert "enzyme.rxn: 2 siphons, sizes 2–2" in out
    assert "example2.rxn: 1 siphons, sizes 2–2" in out
    assert "chain_n3.rxn: 8 siphons, sizes 3–3" in out
    assert "corpus: " in out


def test_stats_json(models_dir):
    code, out, _ = run(["stats", str(models_dir), "--output", "json"])
    assert code == 0
    doc = json.loads(out)
    by_model = {m["model"]: m for m in doc["models"]}
    assert by_model["enzyme.rxn"]["count"] == 2
    assert by_model["chain_n3.rxn"]["sizes"] == [3] * 8
    summary = doc["summary"]
    assert summary["models"] == len(doc["models"])
    assert summary["count_max"] >= 8 and summary["unparseable"] == []


def test_stats_reads_only_regular_files(models_dir, tmp_path):
    # a directory whose name has a model suffix is not a model
    (tmp_path / "enzyme.rxn").write_text((models_dir / "enzyme.rxn").read_text())
    (tmp_path / "sub.rxn").mkdir()
    code, out, err = run(["stats", str(tmp_path), "--output", "json"])
    assert (code, err) == (0, "")
    summary = json.loads(out)["summary"]
    assert summary["models"] == 1 and summary["unparseable"] == []


def test_stats_bad_directory(tmp_path):
    assert run(["stats", str(tmp_path / "void")])[0] == 1


def test_stats_lists_an_unparseable_model(models_dir, tmp_path):
    (tmp_path / "enzyme.rxn").write_text((models_dir / "enzyme.rxn").read_text())
    (tmp_path / "bad.rxn").write_text("A => => B\n")
    code, out, err = run(["stats", str(tmp_path), "--output", "json"])
    assert (code, err) == (0, "")
    summary = json.loads(out)["summary"]
    assert summary["models"] == 1 and summary["unparseable"] == ["bad.rxn"]


def test_stats_names_the_model_it_cannot_enumerate(models_dir, tmp_path):
    # The oracle stops at 20 places; chain(11) has 22.
    (tmp_path / "enzyme.rxn").write_text((models_dir / "enzyme.rxn").read_text())
    assert run(["gen", "chain", "--n", "11", str(tmp_path / "chain11.rxn")])[0] == 0
    code, out, err = run(["stats", str(tmp_path), "--engine", "oracle"])
    assert (code, out) == (1, "")
    assert err == "error: chain11.rxn: net has 22 places; brute force is capped at 20\n"


def test_stats_without_model_files_is_a_usage_error(tmp_path):
    (tmp_path / "notes.txt").write_text("no model here\n")
    code, out, err = run(["stats", str(tmp_path)])
    assert (code, out) == (1, "") and err == f"error: no model files in {tmp_path}\n"


def test_a_net_without_places_has_no_sets(tmp_path):
    # It has no nonempty siphon or trap: every engine reports none, complete,
    # with no solve call, as there is nothing to search or scan, and `stats`
    # counts it as a model with no sets and no size.
    model = tmp_path / "empty.rxn"
    model.write_text("")
    blocks = []
    for engine in ("sat", "bb", "oracle"):
        code, out, err = run(["analyze", str(model), "--target", "both", "--output", "json",
                              "--engine", engine])
        doc = json.loads(out)
        assert (code, err, doc["places"]) == (0, "", 0)
        for target in ("siphons", "traps"):
            del doc[target]["elapsed_ms"]
            blocks.append(doc[target])
    assert blocks == [{"count": 0, "sets": [], "size_min": None, "size_max": None,
                       "size_avg": None, "timed_out": False, "solve_calls": 0,
                       "conflicts": 0, "decisions": 0}] * 6
    code, out, err = run(["stats", str(tmp_path), "--output", "json"])
    summary = json.loads(out)["summary"]
    assert (code, err) == (0, "")
    assert (summary["models"], summary["count_max"], summary["unparseable"]) == (1, 0, [])
    code, out, err = run(["stats", str(tmp_path)])
    assert (code, err) == (0, "") and "None" not in out
    assert out.startswith("empty.rxn: 0 siphons, sizes -–-, ")
    assert "counts 0–0 (avg 0.0), sizes -–- (avg -), total " in out.splitlines()[1]


def test_sweep_refuses_zero_trials():
    code, out, err = run(["sweep", "--vars", "4", "--alpha", "1", "--trials", "0"])
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == "siphons sweep: error: argument --trials: must be an int >= 1"


@pytest.mark.parametrize("argv, flag", [
    (["gen", "chain", "--n", "0", "OUT"], "--n"),
    (["gen", "sat-reduction", "--vars", "2", "--clauses", "3", "OUT"], "--vars"),
    (["gen", "sat-reduction", "--vars", "3", "--clauses", "-1", "OUT"], "--clauses"),
    (["gen", "random-net", "--places", "0", "--transitions", "2", "OUT"], "--places"),
    (["gen", "random-net", "--places", "4", "--transitions", "-1", "OUT"], "--transitions"),
    (["gen", "random-net", "--places", "4", "--transitions", "2", "--degree", "0", "OUT"],
     "--degree"),
    (["gen", "random-net", "--places", "3", "--transitions", "2", "OUT"], "--places"),
    (["sweep", "--vars", "2", "--alpha", "1", "--trials", "1", "--out", "OUT"], "--vars"),
    (["sweep", "--vars", "3", "--alpha", "1", "--trials", "0", "--out", "OUT"], "--trials"),
], ids=["n", "vars", "clauses", "places", "transitions", "degree", "degree-above-places",
        "sweep-vars", "sweep-trials"])
def test_count_errors_name_the_flag(tmp_path, argv, flag):
    # A count below its bound is a usage error that names the flag, not the
    # generator's parameter, and nothing is written.
    code, out, err = run([str(tmp_path / "out.rxn") if a == "OUT" else a for a in argv])
    assert (code, out) == (1, "")
    assert flag in err.splitlines()[-1]
    assert list(tmp_path.iterdir()) == []


def _md5(data) -> str:
    return hashlib.md5(data if isinstance(data, bytes) else data.encode()).hexdigest()[:12]


def test_exported_bytes_are_pinned():
    # the exporters' exact text, arc ids and order included
    net, marking = parse_reactions("t: 2*A + B => 3*C\nu: C => 2*A\ninit A 2\ninit C 1\n")
    assert _md5(export_pnml(net, marking)) == "c26192714ec7"
    assert _md5(export_reactions(net, marking)) == "af1a1ccae5d3"


@pytest.mark.parametrize("argv, digests", [
    (["chain", "--n", "3", "c3.pnml"], {"c3.pnml": "8c467c571249"}),
    (["sat-reduction", "--vars", "4", "--clauses", "6", "--seed", "2", "red.rxn"],
     {"red.rxn": "392aa3d25ad1", "red.cnf": "46eb540a1afb"}),
    (["random-net", "--places", "6", "--transitions", "4", "--degree", "2", "--seed", "1",
      "rn.pnml"], {"rn.pnml": "94e25a88f871"}),
])
def test_gen_bytes_are_pinned(tmp_path, argv, digests):
    *options, name = argv
    assert run(["gen", *options, str(tmp_path / name)])[0] == 0
    assert {p.name: _md5(p.read_bytes()) for p in tmp_path.iterdir()} == digests


def test_csv_headers_are_pinned(models_dir):
    headers = {
        ("analyze", str(models_dir / "enzyme.rxn"), "--output", "csv"):
            "model,target,engine,places,transitions,count,size_min,size_max,size_avg,"
            "elapsed_ms,timed_out",
        ("stats", str(models_dir), "--output", "csv"):
            "models,count_min,count_max,count_avg,size_min,size_max,size_avg,total_ms,timeouts",
        ("sweep", "--vars", "4", "--alpha", "1", "--trials", "1"):
            "alpha,places,transitions,density,vars,clauses,time_ms,timed_out,siphon_count",
    }
    for argv, header in headers.items():
        code, out, _ = run(list(argv))
        assert code == 0 and out.splitlines()[0] == header


# Strings with quotes, backslashes, control characters and non-ASCII text,
# and floats with NaN, the infinities and -0.0.
_JSON_LEAVES = (st.none() | st.booleans() | st.integers()
                | st.floats() | st.sampled_from([float("nan"), float("-inf"), -0.0])
                | st.text() | st.sampled_from(['"', "\\", "\x00\n\t\x1f\x7f", "é\u2028\U0001f600"]))
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(st.text(), max_size=4)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=30)


@given(_JSON_VALUES)
def test_json_writer_matches_json_dumps(value):
    assert _json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("engine", ["sat", "bb"])
def test_json_output_is_that_of_json_dumps(models_dir, engine):
    # The report's bytes, every model's: a reader may diff them or hash them.
    for model in sorted(models_dir.iterdir()):
        code, out, _ = run(["analyze", str(model), "--target", "both", "--marking-report",
                            "--output", "json", "--engine", engine])
        assert code == 0 and out == json.dumps(json.loads(out), indent=2) + "\n"
    code, out, _ = run(["stats", str(models_dir), "--output", "json", "--engine", engine])
    assert code == 0 and out == json.dumps(json.loads(out), indent=2) + "\n"
