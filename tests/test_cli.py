import json

import jsonschema
import pytest

from opdim import structure_to_dict
from opdim.cli import main
from opdim.multiorder import dump_multiorder, generate_generic

from conftest import chain

from importlib import resources


def schema(name):
    text = resources.files("opdim.schemas").joinpath(f"{name}.json").read_text()
    return json.loads(text)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    doc = json.loads(out) if out else None
    return code, doc, err


@pytest.fixture
def chain4_file(tmp_path):
    path = tmp_path / "chain4.json"
    path.write_text(json.dumps(structure_to_dict(chain(4))))
    return str(path)


@pytest.fixture
def mo_file(tmp_path):
    path = tmp_path / "mo.json"
    dump_multiorder(generate_generic(2, 2, seed=5), str(path))
    return str(path)


# ---------------------------------------------------------------------------
# rank / opdim


def test_rank_four_chain(capsys, chain4_file):
    code, doc, _ = run_json(capsys, "rank", chain4_file,
                            "--delta", "x ; y : x < y", "--cap", "8")
    assert code == 0
    assert doc["result"]["rank"] == {"exact": 2}
    jsonschema.validate(doc, schema("report"))


def test_rank_shelah_agrees(capsys, chain4_file):
    code, doc, _ = run_json(capsys, "rank", chain4_file, "--shelah",
                            "--delta", "x ; y : x < y", "--cap", "8")
    assert code == 0 and doc["result"]["rank"] == {"exact": 2}
    assert doc["result"]["kind"] == "shelah2"


def test_rank_capped_symbolic(capsys):
    code, doc, _ = run_json(capsys, "rank", "dlo",
                            "--delta", "x0 ; y : x0 < y", "--cap", "3")
    assert code == 0 and doc["result"]["rank"] == {"at_least": 3}


def test_rank_inconsistent_subset_is_input_error(capsys, chain4_file):
    code, _, err = run(capsys, "rank", chain4_file,
                       "--delta", "x ; y : x < y",
                       "--subset", "x ; : x < x")
    assert code == 2 and "error" in err


def test_opdim_symbolic_is_one(capsys):
    code, doc, _ = run_json(capsys, "opdim", "dlo",
                            "--delta", "x0 ; y : x0 < y", "--cap", "6")
    assert code == 0 and doc["result"]["opdim"] == 1


def test_opdim_finite_chain_is_zero(capsys, chain4_file):
    code, doc, _ = run_json(capsys, "opdim", chain4_file,
                            "--delta", "x ; y : x < y", "--cap", "8")
    assert code == 0 and doc["result"]["opdim"] == 0


# ---------------------------------------------------------------------------
# pattern commands


def test_ird_search_none_exhaustive(capsys):
    code, doc, _ = run_json(capsys, "ird", "dlo",
                            "--pool", "x0 ; w : x0 < w",
                            "--depth", "2", "--length", "2",
                            "--grid", "0,1,2")
    assert code == 0 and doc["result"]["status"] == "none_exhaustive"


def test_ird_search_found_and_schema(capsys):
    code, doc, _ = run_json(capsys, "ird", "dlo",
                            "--pool", "x0 ; w : x0 < w",
                            "--depth", "1", "--length", "2",
                            "--grid", "0,1")
    assert code == 0 and doc["result"]["status"] == "found"
    jsonschema.validate(doc["result"]["pattern"], schema("pattern"))


def test_ird_check_round_trip(capsys, tmp_path):
    code, doc, _ = run_json(capsys, "ird", "dlo",
                            "--pool", "x0 ; w : x0 < w",
                            "--depth", "1", "--length", "3",
                            "--grid", "0,1,2")
    assert code == 0 and doc["result"]["status"] == "found"
    pattern_file = tmp_path / "pattern.json"
    pattern_file.write_text(json.dumps(doc["result"]["pattern"]))
    code, doc, _ = run_json(capsys, "ird", "dlo", "--check", str(pattern_file))
    assert code == 0 and doc["result"]["verified"] is True


def test_ict_check_rejects_bad_pattern(capsys, tmp_path):
    doc = {"depth": 2, "length": 2,
           "formulas": ["x0 ; w : x0 < w", "x0 ; w : x0 < w"],
           "witnesses": [[["0"], ["1"]], [["0"], ["1"]]]}
    pattern_file = tmp_path / "bad.json"
    pattern_file.write_text(json.dumps(doc))
    code, out, _ = run_json(capsys, "ict", "dlo", "--check", str(pattern_file))
    assert code == 0 and out["result"]["verified"] is False
    assert out["result"]["failing_selector"] is not None


def test_dprank_finite_equality_row(capsys, chain4_file):
    code, doc, _ = run_json(capsys, "dprank", chain4_file,
                            "--pool", "x ; y : x = y",
                            "--cap", "2", "--length", "2")
    assert code == 0 and doc["result"]["dp_rank_lower"] == 1


# ---------------------------------------------------------------------------
# multi-order commands


def test_mo_gen_deterministic(capsys):
    args = ("mo", "gen", "-n", "2", "--size", "8", "--seed", "7")
    code1, doc1, _ = run_json(capsys, *args)
    code2, doc2, _ = run_json(capsys, *args)
    assert code1 == code2 == 0
    assert doc1["hash"] == doc2["hash"]
    jsonschema.validate(doc1["result"]["multiorder"], schema("multiorder"))


def test_mo_cuts_count(capsys, mo_file):
    code, doc, _ = run_json(capsys, "mo", "cuts", mo_file)
    assert code == 0 and doc["result"]["count"] == 9


def test_mo_embed_verified(capsys, mo_file):
    code, doc, _ = run_json(capsys, "mo", "embed", mo_file)
    assert code == 0 and doc["result"]["verified"] is True


def test_mo_amalgamate(capsys, tmp_path, mo_file):
    other = tmp_path / "other.json"
    dump_multiorder(generate_generic(2, 2, seed=5), str(other))
    code, doc, _ = run_json(capsys, "mo", "amalgamate", mo_file, str(other))
    assert code == 0 and len(doc["result"]["multiorder"]["universe"]) == 2


def test_mo_extcheck(capsys, mo_file):
    code, doc, _ = run_json(capsys, "mo", "extcheck", mo_file, "-k", "0")
    assert code == 0 and doc["result"]["satisfied"] is True


def test_mo_moptest_chain(capsys, tmp_path):
    path = tmp_path / "chain3.json"
    dump_multiorder(generate_generic(1, 3, seed=1), str(path))
    code, doc, _ = run_json(capsys, "mo", "moptest", str(path))
    assert code == 0
    assert doc["result"]["definable"] == doc["result"]["total"] == 4
    assert doc["result"]["status"] == "exhaustive"


def test_mo_gen_budget_exit(capsys, monkeypatch):
    monkeypatch.setenv("OPDIM_MAX_UNIVERSE", "4")
    code, _, err = run(capsys, "mo", "gen", "-n", "2", "--size", "100",
                       "--seed", "0")
    assert code == 3 and "budget" in err


# ---------------------------------------------------------------------------
# symbolic commands


def test_omin_qe(capsys):
    code, doc, _ = run_json(capsys, "omin", "qe", "exists y. x < y & y < z")
    assert code == 0 and doc["result"]["formula"] == "x < z"


def test_omin_cells(capsys):
    code, doc, _ = run_json(capsys, "omin", "cells", "x < y | x = y")
    assert code == 0 and doc["result"]["count"] == 2
    assert len(doc["result"]["cells"]) == 2


def test_omin_dim(capsys):
    code, doc, _ = run_json(capsys, "omin", "dim", "x0 = x1", "-m", "2")
    assert code == 0 and doc["result"]["dim"] == 1


def test_omin_dim_empty(capsys):
    code, doc, _ = run_json(capsys, "omin", "dim", "x0 < x0", "-m", "1")
    assert code == 0 and doc["result"]["dim"] == "empty"


def test_omin_irdwitness(capsys):
    code, doc, _ = run_json(capsys, "omin", "irdwitness", "x0 < x1", "-m", "2")
    assert code == 0 and doc["result"]["verified"] is True
    assert doc["result"]["pattern"]["depth"] == 2


def test_omin_prodcheck(capsys):
    code, doc, _ = run_json(capsys, "omin", "prodcheck", "x0 < 1", "0 < x0",
                            "-m", "1", "-m1", "1")
    assert code == 0 and doc["result"]["additive"] is True
    assert doc["result"]["dim_product"] == 2


# ---------------------------------------------------------------------------
# error handling and determinism


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "rank", "no-such-file.json",
                       "--delta", "x ; y : x < y")
    assert code == 2 and "error" in err


def test_parse_error_is_input_error(capsys, chain4_file):
    code, _, err = run(capsys, "rank", chain4_file, "--delta", "x ; y : x <")
    assert code == 2 and "error" in err


def test_hash_stable_across_runs(capsys, chain4_file):
    hashes = set()
    for _ in range(2):
        _, doc, _ = run_json(capsys, "rank", chain4_file,
                             "--delta", "x ; y : x < y", "--cap", "8")
        hashes.add(doc["hash"])
    assert len(hashes) == 1


def test_text_format_includes_hash(capsys, chain4_file):
    code, out, _ = run(capsys, "rank", chain4_file,
                       "--delta", "x ; y : x < y")
    assert code == 0 and "hash: " in out and "rank: " in out


def test_reports_validate_against_schema(capsys, chain4_file):
    cases = [
        ("rank", chain4_file, "--delta", "x ; y : x < y"),
        ("opdim", "dlo", "--delta", "x0 ; y : x0 < y"),
        ("omin", "dim", "x0 < x1", "-m", "2"),
        ("mo", "gen", "-n", "1", "--size", "3", "--seed", "0"),
    ]
    for argv in cases:
        code, doc, _ = run_json(capsys, *argv)
        assert code == 0
        jsonschema.validate(doc, schema("report"))


# ---------------------------------------------------------------------------
# pinned reports: the same argv must give the same report on every version


MO_B = {"n": 2, "universe": ["a", "b", "c"], "orders": [["a", "b", "c"], ["c", "a", "b"]]}
MO_C = {"n": 2, "universe": ["a", "b", "d"], "orders": [["a", "d", "b"], ["d", "a", "b"]]}
ICT_DOC = {"depth": 1, "length": 3, "formulas": ["x0 ; w : x0 = w"],
           "witnesses": [[["0"], ["1/2"], ["2"]]]}
IRD_CHAIN_DOC = {"depth": 1, "length": 3, "formulas": ["x ; y : x < y"],
                 "witnesses": [[["1"], ["2"], ["3"]]]}


@pytest.fixture
def files(tmp_path, monkeypatch, chain4_file):
    paths = {"chain4": chain4_file}
    for name, doc in (("b", MO_B), ("c", MO_C), ("ict", ICT_DOC), ("ird", IRD_CHAIN_DOC)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    # a path relative to the working directory keeps the config, and so the
    # report hash, the same in every run
    monkeypatch.chdir(tmp_path)
    dump_multiorder(generate_generic(3, 12, seed=11), "mo12.json")
    paths["mo12"] = "mo12.json"
    return paths


# argv with {file} placeholders, and the report's hash when its config holds
# no file path, or else its result (the temporary path moves the hash)
PINNED = [
    (("rank", "{chain4}", "--delta", "x ; y : x < y", "--cap", "8"),
     {"hash": "0cc080e228d7bee3cd70ed22e48fe27be1f78e46e951a0ad762a829165df9b2a"}),
    (("rank", "{chain4}", "--delta", "x ; y : x < y", "--subset", "x ; : 0 < x", "-n", "2"),
     {"hash": "4467e6f7727cfacf6a627abc01b41d7112e765fcbaf7fbc8914e3f31e1faf22b"}),
    (("rank", "dlo", "--delta", "x0 ; y : x0 < y", "--cap", "3"),
     {"hash": "316dadced4c059dac38863612cb95b688c62134a8eb8191bfb47e2dfb705250b"}),
    (("rank", "dlo", "--delta", "x0 ; y : x0 < y", "--subset", "x0 ; : 0 < x0 & x0 < 1",
      "--cap", "3"),
     {"hash": "12c77a08432ded3d482bd3c796c44fed6e293f6a00ab80d67d089cddfed501ef"}),
    (("rank", "{chain4}", "--shelah", "--delta", "x ; y : x < y", "--delta", "x ; y : x = y"),
     {"hash": "7f2490288ba876e4c24fc655f97eb3e2f954a63f96a9f597668ec9c15831b8d0"}),
    (("opdim", "dlo", "--delta", "x0 ; y : x0 < y", "--cap", "4", "--max-n", "3"),
     {"hash": "f83b88192272656f41301c70886aa16a19bf4d86c5f46fab6d201267a61adb0b"}),
    (("dprank", "{chain4}", "--pool", "x ; y : x = y", "--cap", "2", "--length", "2"),
     {"hash": "099a7058845ecd48cb21f362fc3addcbf9b6e72f9f02a732a796057c318453d9"}),
    (("ird", "dlo", "--pool", "x0 ; w : x0 < w", "--depth", "1", "--length", "2",
      "--grid", "0,1/2,1"),
     {"hash": "d417261fcf7db16216e16049a751772e7632eef383ee6896660aa9d63ad80755"}),
    (("ict", "dlo", "--check", "{ict}"),
     {"result": {"depth": 1, "failing_selector": None, "length": 3, "verified": True}}),
    (("ird", "{chain4}", "--check", "{ird}"),
     {"result": {"depth": 1, "failing_selector": None, "length": 3, "verified": True}}),
    (("mo", "gen", "-n", "2", "--size", "6", "--seed", "7"),
     {"hash": "c9950d33fa30601dbca828d86beb4918d43d4cd6d9f8544794496658e4465fda"}),
    (("mo", "amalgamate", "{b}", "{c}"),
     {"result": {"shared": ["a", "b"], "multiorder": {
         "n": 2,
         "universe": ["('B', 'a')", "('B', 'b')", "('B', 'c')", "('C', 'd')"],
         "orders": [["('B', 'a')", "('C', 'd')", "('B', 'b')", "('B', 'c')"],
                    ["('B', 'c')", "('C', 'd')", "('B', 'a')", "('B', 'b')"]]}}}),
    (("mo", "moptest", "{b}"),
     {"result": {"definable": 8, "total": 16, "status": "exhaustive",
                 "missing": [[0, 1], [0, 2], [1, 1], [1, 2], [2, 1], [2, 2], [3, 1], [3, 2]]}}),
    # a generated 12-element 3-order: 2,197 multi-cuts, 78 of them definable
    (("mo", "moptest", "{mo12}"),
     {"hash": "9d3ac1eedc49ed55381c5748866102b2f8b58dc7d1ab88d947040e49bd58aeee"}),
    # the budget stops the trace loop after 8 of its candidates
    (("mo", "moptest", "{mo12}", "--budget", "100"),
     {"hash": "dbfca01b675b337ebb31aacd0921c17b638ac2199dd1799514df914710bf4120"}),
]


def _pin_id(argv):
    # the subcommand; the whole argv for pins on the 12-element 3-order,
    # which share their subcommand with an earlier pin
    return " ".join(argv if "{mo12}" in argv else argv[:2])


@pytest.mark.parametrize("argv, want", PINNED, ids=[_pin_id(a) for a, _ in PINNED])
def test_report_pinned(capsys, files, argv, want):
    code, doc, _ = run_json(capsys, *(a.format(**files) for a in argv))
    assert code == 0
    (key, value), = want.items()
    assert doc[key] == value


def test_seed_belongs_to_mo_gen_only(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rank", "dlo", "--delta", "x0 ; y : x0 < y", "--seed", "1"])
    assert exc.value.code == 2
    code, doc, _ = run_json(capsys, "mo", "gen", "-n", "2", "--size", "6", "--seed", "7")
    assert code == 0 and doc["config"]["seed"] == 7


# ---------------------------------------------------------------------------
# input errors exit 2, never 1 with a traceback


BAD_FILES = {
    "zero_witness": {"depth": 1, "length": 2, "formulas": ["x0 ; w : x0 < w"],
                     "witnesses": [[["0"], ["1/0"]]]},
    "no_formulas": {"depth": 0, "length": 0, "formulas": [], "witnesses": []},
    "no_witnesses": {"depth": 2, "length": 0, "formulas": ["x0 ; y : x0 = x0", "x0 ; y : y = y"],
                     "witnesses": [[], []]},
    "not_object": [],
    "witnesses_not_list": {"depth": 1, "length": 1, "formulas": ["x0 ; w : x0 < w"],
                           "witnesses": 5},
    "formula_not_string": {"depth": 1, "length": 1, "formulas": [5],
                           "witnesses": [[["0"]]]},
    "witness_not_string": {"depth": 1, "length": 1, "formulas": ["x0 ; w : x0 < w"],
                           "witnesses": [[[[1]]]]},
    "abc": {"n": 1, "universe": ["a", "b", "c"], "orders": [["a", "b", "c"]]},
}


@pytest.fixture
def bad_files(tmp_path, chain4_file):
    paths = {"chain4": chain4_file}
    for name, doc in BAD_FILES.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("argv", [
    ("omin", "dim", "x0 < 1/0", "-m", "1"),
    ("omin", "qe", "x < 1/0"),
    ("dprank", "dlo", "--pool", "x0 ; w : x0 < w", "--grid", "1/0"),
    ("ict", "dlo", "--check", "{zero_witness}"),
    ("ict", "dlo", "--check", "{no_formulas}"),
    ("ict", "dlo", "--check", "{not_object}"),
    # pattern files off the shape of schemas/pattern.json
    ("ict", "dlo", "--check", "{witnesses_not_list}"),
    ("ict", "dlo", "--check", "{formula_not_string}"),
    ("ird", "dlo", "--check", "{witness_not_string}"),
    # a --subset or a formula of another object sort than the first formula
    ("rank", "{chain4}", "--delta", "x ; y : x < y", "--subset", "x z ; : x < z"),
    ("rank", "dlo", "--delta", "x0 ; y : x0 < y", "--subset", "x0 x1 ; : x0 < x1"),
    ("rank", "{chain4}", "--delta", "x ; y : x < y", "--delta", "x z ; y : x < z"),
    ("rank", "{chain4}", "--delta", "x ; y : x < y", "--subset", "x ; y : x < y"),
    # multi-order labels that name no element of the host structure
    ("mo", "moptest", "{abc}", "--host", "{chain4}"),
    # formulas without witnesses make every selector vacuously consistent
    ("dprank", "dlo", "--pool", "x0 ; y : x0 = x0", "--pool", "x0 ; y : y = y",
     "--length", "0", "--cap", "4"),
    ("ict", "dlo", "--check", "{no_witnesses}"),
    # a grid of single values offers nothing to a 2-parameter formula
    ("ird", "dlo", "--pool", "x0 ; a b : a < x0 & x0 < b", "--grid", "0,1",
     "--depth", "1", "--length", "2"),
    # negative counts
    ("mo", "extcheck", "{abc}", "-k", "-1"),
    ("omin", "dim", "true", "-m", "-1"),
], ids=lambda argv: " ".join(argv))
def test_input_error_exits_2(capsys, bad_files, argv):
    code, out, err = run(capsys, *(a.format(**bad_files) for a in argv))
    assert code == 2 and out == "" and err.startswith("error (input): ")


def test_mo_moptest_host_labels_name_elements(capsys, tmp_path, chain4_file):
    # the labels "0" "1" "2" name the 4-chain's integer elements 0 1 2, and
    # x < b for b = 0..3 cuts out {}, {0}, {0,1}, {0,1,2}: every cut of 0 < 1 < 2
    path = tmp_path / "mo.json"
    path.write_text(json.dumps({"n": 1, "universe": ["0", "1", "2"],
                                "orders": [["0", "1", "2"]]}))
    code, doc, _ = run_json(capsys, "mo", "moptest", str(path), "--host", chain4_file)
    assert code == 0 and doc["result"]["status"] == "exhaustive"
    assert doc["result"]["definable"] == 4 and doc["result"]["total"] == 4


def test_mo_amalgamate_bounds_both_files(capsys, monkeypatch, tmp_path):
    small, big = tmp_path / "small.json", tmp_path / "big.json"
    dump_multiorder(generate_generic(2, 2, seed=1), str(small))
    dump_multiorder(generate_generic(2, 5, seed=1), str(big))
    monkeypatch.setenv("OPDIM_MAX_UNIVERSE", "3")
    for files in ((small, big), (big, small)):
        code, out, err = run(capsys, "mo", "amalgamate", *map(str, files))
        assert code == 2 and out == "" and "OPDIM_MAX_UNIVERSE" in err


LONG_OR = " | ".join(f"x < {i}" for i in range(1200))


@pytest.mark.parametrize("argv", [
    ("omin", "qe", LONG_OR),
    # a short formula whose answer has about 4,000 disjuncts
    ("omin", "qe", "~(x0 = x1) & x2 = x2 & x3 = x3 & x4 = x4 & x5 = x5"),
    ("rank", "dlo", "--delta", f"x ; : {LONG_OR}"),
], ids=("omin qe long", "omin qe wide answer", "rank dlo long"))
def test_deep_nesting_exits_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error (budget): ") and "recursion limit" in err
