import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from opdim import cli, parse_partitioned, print_formula, structure_to_dict
from opdim.cli import main, make_report
from opdim.multiorder import MultiOrder, dump_multiorder, generate_generic, load_multiorder

import dlo_reference as ref
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


@pytest.mark.parametrize("text, count", [
    ("x0 < 1 | 1 < x0 | x0 = 1", 3),
    ("x0 < 1 | 1 < x0", 2),
    ("x0 < 1 | 0 = 0", 5),
    ("x0 = x1 | x0 < 0", 7),
    ("exists y. x < y & y < 1", 1),
    ("x < 1 & exists x. x < 0", 3),
    ("forall y. (0 < y & y < 1 -> x < y | z < y)", 18),
])
def test_omin_cells_over_the_inputs_own_constants(capsys, text, count):
    # the cells are the order types of the input's free variables over its
    # constants, whether or not elimination would keep every constant
    code, cells, _ = run_json(capsys, "omin", "cells", text)
    assert code == 0 and cells["result"]["count"] == count
    code, qe, _ = run_json(capsys, "omin", "qe", text)
    formula = qe["result"]["formula"]
    if formula not in ("true", "false"):
        assert formula.split(" | ") == cells["result"]["cells"]


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
     {"result": {"definable": 8, "total": 16, "status": "exhaustive", "missing": 8,
                 "cuts": [[0, 1, 2, 3], [0, 3]]}}),
    # a generated 12-element 3-order: 2,197 multi-cuts, 78 of them definable
    (("mo", "moptest", "{mo12}"),
     {"hash": "6cfc32f20d503a4b8895f5dbbe6cca2bbe3eeb6a636f4451dc5cfc114acb51e6"}),
    # the budget stops the trace loop after 8 of its candidates
    (("mo", "moptest", "{mo12}", "--budget", "100"),
     {"hash": "d7c474badf9345e63c7b84323af454af1f97bc7608669c320e0e52dc6ba6f7fa"}),
    (("mo", "cuts", "{mo12}"),
     {"hash": "ab28a644bd61b1df4938c741ad24971961d996ce5c9ae0690bc6ec13826d83c1"}),
    (("omin", "qe", "exists y. exists w. y < x & x < w & w < z & 0 < y"),
     {"hash": "1388e91516b33e8ee0196f35ead5100c57692fa73cef189227af8b3669b8a8f2"}),
    (("omin", "qe", "forall y. (0 < y & y < 1 -> x < y | z < y)"),
     {"hash": "857bb87607c43df73bb0dd216dd729800b50eef714bc54043892ed13328ac7ef"}),
    (("omin", "cells", "x0 = x1 | x0 < 0"),
     {"hash": "812af28a6e9b305f589517ac8c94a5712954e187e617692d3e043cd0a79ee089"}),
    # x2's box is read off its own factor: [-3/2, -1/2], below 0 as x0's is
    (("omin", "dim", "x0 = x1 & x2 < 0", "-m", "3"),
     {"hash": "3c24dd70b5285cceb6a79cfb7e2f713bc3d294f46342d722e1a870b9dbe92c01"}),
    (("omin", "irdwitness", "x0 = x1 & x2 < 0", "-m", "3"),
     {"hash": "28c691b3df51f31114e1aa5705b04117b8f553bf36a3ef298ec1e84a9b3320f2"}),
    (("omin", "prodcheck", "x0 = 0 & 0 < x1", "x0 < x1 & x1 < 1", "-m", "2", "-m1", "2"),
     {"hash": "75605f5b22c4e401cdcc69ddbc359181b72b60214384f492e690402618cbc3b9"}),
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


# a seeded 6-chain and a seeded 40-element 3-order, the sizes of the
# benchmark's dprank and moptest inputs: the finite pattern search and the
# multi-order check decide them on bitmask traces, and these hashes were
# recorded before either did
TRACE_PINS = [
    (("dprank", "chain6.json", "--pool", "x ; y : x = y", "--cap", "2", "--length", "2"),
     "099a7058845ecd48cb21f362fc3addcbf9b6e72f9f02a732a796057c318453d9"),
    (("mo", "moptest", "mo40.json"),
     "e876461eb546881948b9ad5b6355788d2989398dc651688165acb63091de9ab4"),
    # the budget stops the trace loop after 25 of its 81 candidates
    (("mo", "moptest", "mo40.json", "--budget", "1000"),
     "5701261ccd4b60e14e2a0830b93e899adc722c5cd172750e4ab5f6bd7f811210"),
]


@pytest.fixture
def seeded_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the relative paths keep the configs and hashes fixed
    rng = random.Random(6)
    labels = sorted(rng.sample(range(1000), 6))
    universe = rng.sample(labels, 6)
    Path("chain6.json").write_text(json.dumps(
        {"signature": {"relations": [{"name": "<", "arity": 2}], "constants": []},
         "universe": universe, "constants": {},
         "relations": {"<": [[a, b] for a in labels for b in labels if a < b]}}))
    rng = random.Random(40)
    names = [f"b{j}" for j in range(40)]
    dump_multiorder(MultiOrder(3, names, [rng.sample(names, 40) for _ in range(3)]),
                    "mo40.json")


@pytest.mark.parametrize("argv, want", TRACE_PINS, ids=[" ".join(a) for a, _ in TRACE_PINS])
def test_trace_reports_pinned_in_both_formats(capsys, seeded_files, argv, want):
    for fmt in ("json", "text"):
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == 0
        digest = json.loads(out)["hash"] if fmt == "json" else \
            out.split("hash: ")[1].split()[0]
        assert digest == want, fmt


# ---------------------------------------------------------------------------
# one argument parser per process


PARSER_PROBE = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)
import opdim.cli
print(len(built), opdim.cli.build_parser.cache_info().currsize)
"""


def test_import_builds_no_parser():
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", PARSER_PROBE], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.split() == ["0", "0"]


def test_parser_is_built_once(capsys, chain4_file):
    cli.build_parser.cache_clear()
    for argv in (("omin", "dim", "x0 < x1", "-m", "2"), ("mo", "gen", "-n", "1", "--size", "3"),
                 ("rank", chain4_file, "--delta", "x ; y : x < y")):
        assert run(capsys, *argv)[0] == 0
    assert cli.build_parser.cache_info().misses == 1


def test_parser_keeps_no_appended_values(capsys):
    run_json(capsys, "rank", "dlo", "--delta", "x0 ; y : x0 < y", "--cap", "1")
    code, doc, _ = run_json(capsys, "rank", "dlo", "--delta", "x0 ; y : y < x0", "--cap", "1")
    assert code == 0 and doc["config"]["delta"] == ["x0 ; y : y < x0"]


def test_parser_error_leaves_the_parser_usable(capsys):
    cli.build_parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        main(["rank", "dlo", "--cap", "x"])
    assert exc.value.code == 2
    argv, want = PINNED[2]
    assert argv[:2] == ("rank", "dlo")
    code, doc, _ = run_json(capsys, *argv)
    assert code == 0 and doc["hash"] == want["hash"]


# The mo moptest reports as they were when `missing` listed every missing
# multi-cut, before it became a count beside the per-order `cuts`.
LISTED_MOPTEST = [
    (("mo", "moptest", "{b}"),
     {"result": {"definable": 8, "total": 16, "status": "exhaustive",
                 "missing": [[0, 1], [0, 2], [1, 1], [1, 2], [2, 1], [2, 2], [3, 1], [3, 2]]}}),
    (("mo", "moptest", "{mo12}"),
     {"hash": "9d3ac1eedc49ed55381c5748866102b2f8b58dc7d1ab88d947040e49bd58aeee"}),
    (("mo", "moptest", "{mo12}", "--budget", "100"),
     {"hash": "dbfca01b675b337ebb31aacd0921c17b638ac2199dd1799514df914710bf4120"}),
]


@pytest.mark.parametrize("argv, want", LISTED_MOPTEST, ids=[" ".join(a) for a, _ in LISTED_MOPTEST])
def test_moptest_cuts_expand_to_the_listed_report(capsys, files, argv, want):
    # the multi-cuts outside the product of the per-order cut positions are
    # exactly the ones the listed report named, in the same order
    argv = [a.format(**files) for a in argv]
    code, doc, _ = run_json(capsys, *argv)
    assert code == 0
    mo = load_multiorder(argv[2])
    result = dict(doc["result"])
    sides = [set(c) for c in result.pop("cuts")]
    result["missing"] = [list(z) for z in itertools.product(range(mo.size + 1), repeat=mo.n)
                         if not all(c in side for c, side in zip(z, sides))]
    listed = make_report(doc["command"], doc["config"], result, 0)
    (key, value), = want.items()
    assert listed[key] == value


def test_moptest_report_is_small(capsys, tmp_path):
    # the generated 40-element 3-order misses 68,757 of its 68,921 multi-cuts
    path = tmp_path / "mo40.json"
    dump_multiorder(generate_generic(3, 40, seed=5), str(path))
    for fmt in ("text", "json"):
        code, out, _ = run(capsys, "mo", "moptest", str(path), "--format", fmt)
        assert code == 0 and len(out.encode()) < 10_000


def test_multiorder_commands_on_eight_orders(capsys, tmp_path):
    # 21^8 multi-cuts: neither command may visit them one by one
    path = tmp_path / "mo8.json"
    dump_multiorder(generate_generic(8, 20, seed=3), str(path))
    total = 21 ** 8
    code, doc, _ = run_json(capsys, "mo", "cuts", str(path))
    assert code == 0 and doc["result"] == {"count": total, "expected": total}
    code, doc, _ = run_json(capsys, "mo", "moptest", str(path))
    result = doc["result"]
    assert code == 0 and result["total"] == total and result["status"] == "exhaustive"
    # on dlo an element stands at its position in the first order
    assert len(result["cuts"]) == 8 and result["cuts"][0] == list(range(21))
    definable = math.prod(map(len, result["cuts"]))
    assert result["definable"] == definable == total - result["missing"]


def test_quantified_formulas_on_dlo(capsys):
    code, doc, _ = run_json(capsys, "rank", "dlo", "--delta",
                            "x0 ; y : exists z. x0 < z & z < y", "--cap", "3")
    assert code == 0 and doc["result"]["rank"] == {"at_least": 3}
    code, doc, _ = run_json(capsys, "ird", "dlo", "--pool", "x0 ; w : exists z. x0 < z & z < w",
                            "--depth", "1", "--length", "2", "--grid", "0,1")
    assert code == 0 and doc["result"]["status"] == "found"


@pytest.mark.parametrize("phi", ["x0 ; y : exists z. (x0 < z & z < y)",
                                 "x0 ; y : forall z. (z < x0 | y < z | z < 1)",
                                 "x0 ; y : exists z. (x0 < z & z < y & z < 2)"])
def test_mo_moptest_quantified_phi_on_dlo(capsys, tmp_path, phi):
    # the report is the report for the formula's quantifier-free form
    path = tmp_path / "mo.json"
    dump_multiorder(generate_generic(2, 6, seed=3), str(path))
    code, doc, _ = run_json(capsys, "mo", "moptest", str(path), "--phi", phi)
    assert code == 0
    free = print_formula(ref.qe(parse_partitioned(phi).body))
    code, want, _ = run_json(capsys, "mo", "moptest", str(path), "--phi", f"x0 ; y : {free}")
    assert code == 0 and doc["result"] == want["result"]


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
    "pq": {"n": 1, "universe": ["p", "q"], "orders": [["p", "q"]]},
    "rs": {"n": 2, "universe": ["r", "s"], "orders": [["r", "s"], ["s", "r"]]},
    "empty1": {"n": 1, "universe": [], "orders": [[]]},
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
    ("ird", "dlo", "--pool", "x0 ; w : x0 < w", "--depth", "3", "--length", "0"),
    # a grid of single values offers nothing to a 2-parameter formula
    ("ird", "dlo", "--pool", "x0 ; a b : a < x0 & x0 < b", "--grid", "0,1",
     "--depth", "1", "--length", "2"),
    # negative counts
    ("mo", "extcheck", "{abc}", "-k", "-1"),
    ("omin", "dim", "true", "-m", "-1"),
    ("ird", "dlo", "--pool", "x0 ; w : x0 < w", "--depth", "-1"),
    ("ird", "dlo", "--pool", "x0 ; w : x0 < w", "--length", "-1", "--depth", "0"),
    ("ict", "dlo", "--pool", "x0 ; w : x0 < w", "--length", "-1", "--depth", "0"),
    ("omin", "irdwitness", "x0 < 1", "-m", "1", "--length", "-1"),
    ("mo", "gen", "-n", "2", "--size", "-3"),
    # a formula with free variables and no coordinates to hold them
    ("omin", "dim", "x0 < 1", "-m", "0"),
    ("omin", "prodcheck", "x0 < 1", "x0 < 2", "-m", "1", "-m1", "0"),
    ("dprank", "dlo", "--pool", "x0 ; w : x0 < w", "--cap", "-1"),
    # an empty base, as rank and opdim reject it
    ("dprank", "dlo", "--pool", "x0 ; y : x0 < y", "--subset", "x0 ; : x0 < 1 & 2 < x0",
     "--grid", "1,2"),
    ("opdim", "dlo", "--delta", "x0 ; y : x0 < y", "--max-n", "-1"),
    ("ird", "dlo", "--pool", "x0 ; w : x0 < w", "--grid", "0,1", "--budget", "-1"),
    ("ict", "dlo", "--pool", "x0 ; w : x0 = w", "--grid", "0,1", "--budget", "-1"),
    ("mo", "moptest", "{abc}", "--budget", "-5"),
    # multi-orders with different numbers of orders
    ("mo", "amalgamate", "{pq}", "{rs}"),
    ("mo", "amalgamate", "{rs}", "{pq}"),
    ("mo", "amalgamate", "{rs}", "{empty1}"),
], ids=lambda argv: " ".join(argv))
def test_input_error_exits_2(capsys, bad_files, argv):
    code, out, err = run(capsys, *(a.format(**bad_files) for a in argv))
    assert code == 2 and out == "" and err.startswith("error (input): ")


@pytest.mark.parametrize("doc", [
    [],
    {"signature": {"relations": 5}, "universe": [1]},
    {"signature": {"relations": []}, "universe": [[1], [2]]},
], ids=("not_object", "relations_not_list", "universe_of_lists"))
def test_malformed_structure_exits_2(capsys, tmp_path, doc):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "rank", str(path), "--delta", "x;y:x=y")
    assert code == 2 and out == "" and "malformed structure document" in err


def test_symbolic_grid_budget_names_its_sizes(capsys):
    # constants 1..4 give a 9-point grid, and 5 parameters 9^5 tuples
    code, out, err = run(capsys, "rank", "dlo", "--delta",
                         "x0 ; a b c d e : x0 < a & 1 < b & 2 < c & 3 < d & 4 < e", "--cap", "2")
    assert code == 3 and out == ""
    assert "9 points ^ 5 parameters = 59049 tuples exceeds max_candidates 4096" in err


def test_irdwitness_names_a_negative_length(capsys):
    code, _, err = run(capsys, "omin", "irdwitness", "x0 < 1", "-m", "1", "--length", "-1")
    assert code == 2 and "the pattern length must be nonnegative" in err
    code, _, err = run(capsys, "omin", "irdwitness", "x0 < 1", "-m", "1", "--length", "0")
    assert code == 2 and "a pattern with formulas needs witnesses" in err


def test_uninterpreted_term_is_named_as_written(capsys):
    # the message once showed the term's repr, Elem(value='1')
    code, out, err = run(capsys, "omin", "qe", "x < @1")
    assert code == 2 and out == "" and "term @1 has no rational value" in err


@pytest.mark.parametrize("argv", [
    ("omin", "dim", "x0 < 1", "-m", "0"),
    ("omin", "prodcheck", "x0 < 1", "x0 < 2", "-m", "1", "-m1", "0"),
], ids=lambda argv: " ".join(argv))
def test_no_coordinates_is_named(capsys, argv):
    # m = 0 once named the empty range x0..x-1
    code, _, err = run(capsys, *argv)
    assert code == 2 and "there are no coordinates (m = 0)" in err and "x-1" not in err


def test_mo_moptest_host_labels_name_elements(capsys, tmp_path, chain4_file):
    # the labels "0" "1" "2" name the 4-chain's integer elements 0 1 2, and
    # x < b for b = 0..3 cuts out {}, {0}, {0,1}, {0,1,2}: every cut of 0 < 1 < 2
    path = tmp_path / "mo.json"
    path.write_text(json.dumps({"n": 1, "universe": ["0", "1", "2"],
                                "orders": [["0", "1", "2"]]}))
    code, doc, _ = run_json(capsys, "mo", "moptest", str(path), "--host", chain4_file)
    assert code == 0 and doc["result"]["status"] == "exhaustive"
    assert doc["result"]["definable"] == 4 and doc["result"]["total"] == 4


def chain_file(tmp_path, universe):
    path = tmp_path / f"chain-{len(universe)}-{type(universe[0]).__name__}.json"
    path.write_text(json.dumps({
        "signature": {"relations": [{"name": "<", "arity": 2}]}, "universe": universe,
        "relations": {"<": list(map(list, itertools.combinations(universe, 2)))}}))
    return str(path)


@pytest.mark.parametrize("options", [
    ("--delta", "x ; : x = @1"),
    ("--delta", "x ; y : x < y", "--subset", "x ; : x < @2"),
], ids=("delta", "subset"))
def test_at_names_an_element_whatever_its_type(capsys, tmp_path, options):
    # @1 names the element 1 of a chain of integers as it names "1" of a
    # chain of strings
    reports = [run_json(capsys, "rank", chain_file(tmp_path, universe), *options)
               for universe in ([0, 1, 2], ["0", "1", "2"])]
    assert [code for code, _, _ in reports] == [0, 0]
    assert reports[0][1]["hash"] == reports[1][1]["hash"]
    assert reports[0][1]["result"]["rank"] == {"exact": 1}


@pytest.mark.parametrize("universe, name", [([0, 1, 2], "7"), ([1, "1", 2], "1")],
                         ids=("no element", "two elements"))
def test_at_names_exactly_one_element(capsys, tmp_path, universe, name):
    code, out, err = run(capsys, "rank", chain_file(tmp_path, universe),
                         "--delta", f"x ; : x = @{name}")
    assert code == 2 and out == "" and f"element '{name}'" in err


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
