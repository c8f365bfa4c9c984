import json
import math
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from polyrank import OptimizerConfig, bombieri_norm, concentrate, greedy_approximate
from polyrank import generators, serialize, sphere
from polyrank.cli import main
from polyrank.generators import bombieri_gaussian
from polyrank.lowrank import hard_family
from polyrank.serialize import (
    approx_from_dict,
    approx_to_dict,
    dumps_canonical,
    format_float,
    poly_dumps,
    poly_from_dict,
    poly_loads,
    report_from_dict,
    report_to_dict,
)

from conftest import poly_of

SUM4 = ('{"n":4,"d":2,"terms":[{"alpha":[2,0,0,0],"c":1.0},{"alpha":[0,2,0,0],"c":1.0},'
        '{"alpha":[0,0,2,0],"c":1.0},{"alpha":[0,0,0,2],"c":1.0}]}')


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------------- serialization

def test_format_float_roundtrips():
    for x in (0.0, 1.0, -1.5, 1 / 3, math.pi, 1e-300, 6.02e23, -7.1e-8):
        assert float(format_float(x)) == x
    with pytest.raises(ValueError):
        format_float(float("nan"))


def test_dumps_canonical_is_stable_and_parseable():
    obj = {"a": 1, "b": [1.5, "x", True, None], "c": {"nested": 2.0}}
    text = dumps_canonical(obj)
    assert json.loads(text) == {"a": 1, "b": [1.5, "x", True, None], "c": {"nested": 2.0}}
    assert dumps_canonical(obj) == text


def test_poly_json_roundtrip_bitexact(rng):
    p = bombieri_gaussian(4, 3, rng)
    text = poly_dumps(p)
    again = poly_loads(text)
    assert again == p
    assert poly_dumps(again) == text


def test_poly_parse_errors_carry_term_index():
    base = json.loads(SUM4)
    bad = json.loads(SUM4)
    bad["terms"][2]["alpha"] = [1, 0, 0, 0]
    with pytest.raises(ValueError, match="term 2"):
        poly_from_dict(bad)
    dup = json.loads(SUM4)
    dup["terms"][1]["alpha"] = [2, 0, 0, 0]
    with pytest.raises(ValueError, match="duplicate"):
        poly_from_dict(dup)
    zero = json.loads(SUM4)
    zero["terms"][0]["c"] = 0.0
    with pytest.raises(ValueError, match="term 0"):
        poly_from_dict(zero)
    assert poly_from_dict(base).n == 4


@pytest.mark.parametrize("obj", [
    [], "x", {"d": 2, "terms": []}, {"n": 2, "terms": []}, {"n": 2, "d": 2},
    {"n": 2.0, "d": 2, "terms": []}, {"n": True, "d": 1, "terms": []},
    {"n": 2, "d": False, "terms": []}, {"n": 0, "d": 2, "terms": []},
    {"n": 2, "d": 0, "terms": []}, {"n": 2, "d": 21, "terms": []},
    {"n": 2, "d": 2, "terms": {}}, {"n": 2, "d": 2, "terms": [[2, 0]]},
    {"n": 2, "d": 2, "terms": [{"alpha": [2, 0]}]},
    {"n": 2, "d": 2, "terms": [{"c": 1.0}]},
    {"n": 2, "d": 2, "terms": [{"alpha": [2], "c": 1.0}]},
    {"n": 2, "d": 2, "terms": [{"alpha": [3, -1], "c": 1.0}]},
    {"n": 2, "d": 2, "terms": [{"alpha": [1.0, 1], "c": 1.0}]},
    {"n": 2, "d": 2, "terms": [{"alpha": [True, 1], "c": 1.0}]},
    {"n": 2, "d": 2, "terms": [{"alpha": [1, 0], "c": 1.0}]},
    {"n": 2, "d": 2, "terms": [{"alpha": [1, 1], "c": 1.0}, {"alpha": [1, 1], "c": 2.0}]},
    {"n": 2, "d": 2, "terms": [{"alpha": [1, 1], "c": "1"}]},
    {"n": 2, "d": 2, "terms": [{"alpha": [1, 1], "c": True}]},
    {"n": 2, "d": 2, "terms": [{"alpha": [1, 1], "c": 0.0}]},
    {"n": 2, "d": 2, "terms": [{"alpha": [1, 1], "c": float("nan")}]},
    {"n": 2, "d": 2, "terms": [{"alpha": [1, 1], "c": float("inf")}]},
    {"n": 2, "d": 2, "terms": [{"alpha": [1, 1], "c": 10 ** 400}]},
])
def test_poly_from_dict_rejects_bad_input(obj):
    with pytest.raises(ValueError):
        poly_from_dict(obj)


def test_approx_json_roundtrip(rng):
    p = bombieri_gaussian(4, 3, rng)
    a = greedy_approximate(p, 0.4, OptimizerConfig(restarts=6, seed=2))
    obj = approx_to_dict(a)
    back = approx_from_dict(json.loads(dumps_canonical(obj)))
    assert dumps_canonical(approx_to_dict(back)) == dumps_canonical(obj)
    assert back.input_norm == a.input_norm
    assert len(back.terms) == len(a.terms)


def test_report_json_roundtrip(rng):
    p = bombieri_gaussian(4, 2, rng)
    rep = concentrate(p, 0.8, OptimizerConfig(restarts=6, seed=2), eps_inner=0.45)
    obj = report_to_dict(rep)
    text = dumps_canonical(obj)
    back = report_from_dict(json.loads(text))
    assert dumps_canonical(report_to_dict(back)) == text


# ------------------------------------------------------------------------ CLI

def test_cli_norm(capsys):
    code, out, _ = run_cli(["norm", SUM4], capsys)
    assert code == 0
    assert out.splitlines()[0] == "bombieri 2"


def test_cli_norm_zero_terms(capsys):
    code, out, _ = run_cli(["norm", '{"n":2,"d":2,"terms":[]}'], capsys)
    assert code == 0
    assert out.splitlines() == ["bombieri 0", "max_coeff 0"]


def test_cli_norm_json_format(capsys):
    code, out, _ = run_cli(["norm", SUM4, "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["bombieri"] == 2.0
    assert payload["max_coeff"] == 1.0


def test_cli_opnorm_sum_squares(capsys):
    code, out, _ = run_cli(["opnorm", SUM4, "--format", "json", "--restarts", "6"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(1.0, rel=1e-9)
    spread = payload["restart_spread"]
    assert spread["min"] <= spread["median"] <= spread["max"]


def test_cli_opnorm_oracle_flag(capsys):
    poly = '{"n":2,"d":2,"terms":[{"alpha":[2,0],"c":2.0},{"alpha":[0,2],"c":-1.0}]}'
    code, out, _ = run_cli(["opnorm", poly, "--oracle", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(2.0)


def test_cli_oracle_fails_loudly_out_of_range(capsys, rng):
    p = bombieri_gaussian(5, 3, rng)
    code, _, err = run_cli(["opnorm", poly_dumps(p), "--oracle"], capsys)
    assert code == 1
    assert "oracle" in err


def test_cli_subnorm_full_matches_norm(capsys):
    code, out, _ = run_cli(["subnorm", SUM4, "--k", "4", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(2.0, rel=1e-12)


def test_cli_subnorm_linear_form(capsys):
    poly = '{"n":3,"d":1,"terms":[{"alpha":[1,0,0],"c":3.0},{"alpha":[0,0,1],"c":-4.0}]}'
    code, out, _ = run_cli(["subnorm", poly, "--k", "2", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(5.0, rel=1e-12)


_LINEAR = '{"n":3,"d":1,"terms":[{"alpha":[1,0,0],"c":3.0},{"alpha":[0,0,1],"c":-4.0}]}'
_CUBIC = ('{"n":3,"d":3,"terms":[{"alpha":[3,0,0],"c":1.0},{"alpha":[1,1,1],"c":-2.0},'
          '{"alpha":[0,1,2],"c":0.5}]}')


@pytest.mark.parametrize("argv, method", [
    (["opnorm", _LINEAR], "closed-form"),
    (["opnorm", SUM4], "eigh"),
    (["opnorm", _CUBIC], "power"),
    (["subnorm", '{"n":3,"d":2,"terms":[]}', "--k", "2"], "closed-form"),
    (["subnorm", SUM4, "--k", "4"], "closed-form"),
    (["subnorm", _LINEAR, "--k", "2"], "closed-form"),
    (["subnorm", _LINEAR, "--k", "1"], "closed-form"),
    (["subnorm", SUM4, "--k", "2"], "eigh"),
    (["subnorm", SUM4, "--k", "1"], "eigh"),
    (["subnorm", _CUBIC, "--k", "1"], "power"),
    (["subnorm", _CUBIC, "--k", "2"], "hooi"),
    (["subnorm", _CUBIC, "--k", "3"], "closed-form"),
])
def test_cli_method_names_the_engine_that_ran(capsys, argv, method):
    code, out, _ = run_cli(argv + ["--format", "json", "--restarts", "4"], capsys)
    assert code == 0
    assert json.loads(out)["method"] == method


def test_cli_approx_rank1(capsys):
    poly = '{"n":3,"d":2,"terms":[{"alpha":[2,0,0],"c":5.0}]}'
    code, out, _ = run_cli(["approx", poly, "--eps", "0.5", "--format", "json",
                            "--restarts", "6"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["terms"]) == 1
    assert payload["bound_floor_inv_eps_sq"] == 4
    assert payload["bound_satisfied"] is True
    assert payload["final_residual_within_eps"] is True


def test_cli_approx_hard_family_zero_terms(capsys):
    code, out, _ = run_cli(["approx", poly_dumps(hard_family(16)), "--eps", "0.3",
                            "--format", "json", "--restarts", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == []
    assert payload["bound_floor_inv_eps_sq"] == 11


def test_cli_gen_hard_family(capsys):
    code, out, _ = run_cli(["gen", "--n", "3", "--model", "hard-family",
                            "--format", "json"], capsys)
    assert code == 0
    p = poly_loads(out)
    assert p.terms == {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0}


def test_cli_gen_deterministic(capsys):
    args = ["gen", "--n", "4", "--d", "3", "--model", "bombieri-gaussian",
            "--seed", "7", "--format", "json"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_cli_gen_planted_roundtrip(capsys):
    code, out, _ = run_cli(["gen", "--n", "4", "--d", "3", "--model",
                            "planted-lowrank(1)", "--seed", "3", "--format", "json"],
                           capsys)
    assert code == 0
    p = poly_loads(out)
    a = greedy_approximate(p, 0.5, OptimizerConfig(restarts=6, seed=0))
    assert len(a.terms) == 1
    assert a.residual_opnorm_est[-1] <= 1e-6


def test_cli_gen_serializes_once(monkeypatch, capsys):
    # a large form costs seconds per canonical dump; text and json print the same bytes
    dumps = serialize.dumps_canonical
    top_level = []

    def counting(obj, indent=0):
        if indent == 0:
            top_level.append(obj)
        return dumps(obj, indent)

    monkeypatch.setattr(serialize, "dumps_canonical", counting)
    outs = []
    for fmt in ("json", "text"):
        top_level.clear()
        assert main(["gen", "--n", "5", "--d", "3", "--format", fmt]) == 0
        outs.append(capsys.readouterr().out)
        assert len(top_level) == 1
    assert outs[0] == outs[1]


def test_cli_gen_bad_model(capsys):
    code, _, err = run_cli(["gen", "--n", "3", "--model", "nope"], capsys)
    assert code == 1
    assert "unknown model" in err


def test_cli_concentrate_and_chain_check(tmp_path, capsys, rng):
    p = bombieri_gaussian(5, 2, rng)
    poly_path = tmp_path / "p.json"
    poly_path.write_text(poly_dumps(p))
    report_path = tmp_path / "rep.json"
    code, _, _ = run_cli(["concentrate", str(poly_path), "--eps", "0.8",
                          "--eps-inner", "0.45", "--seed", "1", "--restarts", "6",
                          "--format", "json", "--out", str(report_path)], capsys)
    assert code == 0
    code, out, _ = run_cli(["chain-check", str(poly_path), "--report",
                            str(report_path), "--seed", "1", "--restarts", "6"],
                           capsys)
    assert code == 0
    assert out.strip().splitlines()[-1] == "overall PASS"
    # no maximizer runs, so the optimizer flags change nothing
    assert run_cli(["chain-check", str(poly_path), "--report", str(report_path),
                    "--seed", "2", "--restarts", "100000000000"], capsys) == (0, out, "")
    # tampering with the report must surface as a FAIL exit
    obj = json.loads(report_path.read_text())
    obj["per_alpha"] = [{"alpha": e["alpha"], "value": e["value"] + 1.0}
                        for e in obj["per_alpha"]]
    report_path.write_text(json.dumps(obj))
    code, out, _ = run_cli(["chain-check", str(poly_path), "--report",
                            str(report_path), "--seed", "1", "--restarts", "6"],
                           capsys)
    assert code == 2
    assert "FAIL" in out


def test_cli_chain_check_rejects_mistyped_report(tmp_path, capsys, rng):
    p = bombieri_gaussian(4, 2, rng)
    poly_path = tmp_path / "p.json"
    poly_path.write_text(poly_dumps(p))
    rep = report_to_dict(concentrate(p, 0.8, OptimizerConfig(restarts=4, seed=1),
                                     eps_inner=0.45))
    report_path = tmp_path / "rep.json"
    for key, value in (("k", None), ("ratios", [])):
        report_path.write_text(json.dumps({**rep, key: value}))
        code, out, err = run_cli(["chain-check", str(poly_path), "--report",
                                  str(report_path)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: bad report:")


def test_cli_chain_check_refuses_a_bad_witness_frame(tmp_path, capsys, rng):
    # a report without the right end's witness, or with one of the wrong
    # dimension, is refused with one line, as a malformed report is
    p = bombieri_gaussian(5, 3, rng)
    poly_path = tmp_path / "p.json"
    poly_path.write_text(poly_dumps(p))
    rep = report_to_dict(concentrate(p, 0.8, OptimizerConfig(restarts=4, seed=1),
                                     eps_inner=0.45))
    m = rep["frame_v"]["k"]
    wrong_k = {"n": 5, "k": m + 1, "basis": np.eye(5)[:, :m + 1].tolist()}
    no_witness = {key: value for key, value in rep.items() if key != "rhs_frame"}
    report_path = tmp_path / "rep.json"
    for doc, message in ((no_witness, "error: bad report: 'rhs_frame'"),
                         ({**rep, "rhs_frame": wrong_k}, "error: report witness frame")):
        report_path.write_text(json.dumps(doc))
        code, out, err = run_cli(["chain-check", str(poly_path), "--report",
                                  str(report_path)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(message) and err.count("\n") == 1


@pytest.fixture(scope="module")
def degree3_report(tmp_path_factory):
    """`gen --n 5 --d 3 --seed 4`, then `concentrate --eps 0.8 --eps-inner 0.45
    --restarts 6`: k = 2 and dim V = 5."""
    root = tmp_path_factory.mktemp("degree3")
    poly_path, report_path = root / "p.json", root / "rep.json"
    assert main(["gen", "--n", "5", "--d", "3", "--seed", "4", "--format", "json",
                 "--out", str(poly_path)]) == 0
    assert main(["concentrate", str(poly_path), "--eps", "0.8", "--eps-inner", "0.45",
                 "--restarts", "6", "--format", "json", "--out", str(report_path)]) == 0
    rep = json.loads(report_path.read_text())
    assert (rep["k"], rep["chain"]["dims"]["dim_v"]) == (2, 5)
    return poly_path, rep


def _edited_report(tmp_path, rep, path, edit):
    """A copy of the report dict rep, its field at path replaced by
    edit(old value), written to tmp_path / "rep.json"; returns that path."""
    rep = json.loads(json.dumps(rep))
    *keys, last = path
    field = rep
    for key in keys:
        field = field[key]
    field[last] = edit(field[last])
    report_path = tmp_path / "rep.json"
    report_path.write_text(json.dumps(rep))
    return report_path


@pytest.mark.parametrize("path, value, message", [
    (("k",), 2.9, "'k' must be an integer"),
    (("k",), "2", "'k' must be an integer"),
    (("k",), True, "'k' must be an integer"),
    (("frame_v", "k"), 5.5, "'k' must be an integer"),
    (("chain", "dims", "dim_v"), 5.7, "'dim_v' must be an integer"),
    (("eps",), "0.8", "'eps' must be a finite number"),
    (("defect",), False, "'defect' must be a finite number"),
    (("chain", "lhs"), float("nan"), "'lhs' must be a finite number"),
    (("approx", "residual_bombieri"), "1", "'residual_bombieri' must be a list"),
    (("rotation", 0, 1), "0.5", "'rotation' must be a finite number"),
    (("rhs_frame", "basis"), [1.0], "'basis' must be a list"),
    (("per_alpha", 0, "alpha"), [0.5, 1], "'alpha' must be an integer"),
])
def test_cli_chain_check_refuses_mistyped_report_fields(tmp_path, capsys, degree3_report,
                                                         path, value, message):
    # the first five edits gave `overall PASS` while fields were coerced
    poly_path, rep = degree3_report
    report_path = _edited_report(tmp_path, rep, path, lambda _: value)
    code, out, err = run_cli(["chain-check", str(poly_path), "--report", str(report_path)],
                             capsys)
    assert (code, out) == (1, "")
    assert err == f"error: bad report: {message}\n"


@pytest.mark.parametrize("path, edit", [
    (("chain", "dims", "dim_v"), lambda x: 9),
    (("chain", "dims", "budget"), lambda x: 1),
    (("chain", "mid2"), lambda x: x * 1e6),
    (("defect",), lambda x: x * 100),
])
def test_cli_chain_check_fails_on_tampered_chain_values(tmp_path, capsys, degree3_report,
                                                         path, edit):
    # each edit gave `overall PASS` while the stated chain values went unread
    poly_path, rep = degree3_report
    report_path = _edited_report(tmp_path, rep, path, edit)
    code, out, _ = run_cli(["chain-check", str(poly_path), "--report", str(report_path)],
                           capsys)
    assert code == 2
    assert "FAIL chain_consistent" in out.splitlines()
    assert out.strip().splitlines()[-1] == "overall FAIL"


def test_cli_chain_check_parses_a_valid_report_to_the_same_values(degree3_report):
    # numbers written as 17-digit floats, or as integers where the float is
    # integral, parse to the floats and ints the report was made of
    _, rep = degree3_report
    obj = report_from_dict(rep)
    assert report_to_dict(obj) == rep
    assert type(obj.k) is int and type(obj.eps) is float
    assert all(type(x) is int for x in obj.chain.dims)
    assert report_from_dict({**rep, "eps": 1}).eps == 1.0


@pytest.mark.parametrize("c", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
                         ids=["nan", "inf", "-inf", "float-overflow", "int-overflow"])
def test_cli_rejects_non_finite_coefficient(capsys, c):
    code, out, err = run_cli(["norm", '{"n":1,"d":1,"terms":[{"alpha":[1],"c":%s}]}' % c],
                             capsys)
    assert code == 1
    assert out == ""
    assert "term 0: coefficient must be a finite nonzero number" in err


@pytest.mark.parametrize("text", [
    '{"n":true,"d":1,"terms":[{"alpha":[1],"c":2.0}]}',
    '{"n":1,"d":true,"terms":[{"alpha":[1],"c":2.0}]}',
    '{"n":1,"d":1,"terms":[{"alpha":[true],"c":2.0}]}',
], ids=["n", "d", "alpha"])
def test_cli_rejects_boolean_integers(capsys, text):
    code, out, err = run_cli(["norm", text], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _run_cli_capped(argv):
    """The CLI in a fresh process under a 1 GB address-space cap and a 60 s
    timeout, so a missing size guard fails instead of stalling the host."""
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "polyrank.cli"] + argv,
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=cap_memory, env=env)


@pytest.mark.parametrize("model", ["bombieri-gaussian", "planted-lowrank", "sparse",
                                   "hard-family"])
def test_cli_gen_size_guard(model):
    # a missing guard would expand about 1.7e16 monomials (or, for hard-family,
    # 1e5 exponent tuples of length 1e5)
    n = "100000" if model == "hard-family" else "400"
    proc = _run_cli_capped(["gen", "--n", n, "--d", "8", "--model", model])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "refusing" in proc.stderr or "too large" in proc.stderr


@pytest.mark.parametrize("k", ["2", "100000000000"])
def test_cli_subnorm_size_guard(k):
    # a zero form's document does not bound n, and the answer is an n x k
    # frame: without the guard this allocates terabytes
    proc = _run_cli_capped(["subnorm", '{"n": 100000000000, "d": 2, "terms": []}',
                            "--k", k])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "refusing" in proc.stderr


_BIG_ZERO = '{"n": 100000, "d": 2, "terms": []}'


@pytest.mark.parametrize("argv", [
    ["opnorm", "{big}"],
    ["opnorm", "{big}", "--oracle"],
    ["opnorm", _BIG_ZERO, "--oracle"],
    ["subnorm", "{big}", "--k", "1"],
    ["subnorm", "{big}", "--k", "2", "--oracle"],
    ["subnorm", _BIG_ZERO, "--k", "1", "--oracle"],
])
def test_cli_n_squared_guard(tmp_path, argv):
    # n = 1e5: an n x n array (eigh, start points, the oracles' matrix) would
    # take 74.5 GiB; the one-term form goes in a file, as it exceeds an argv entry
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"n": 100000, "d": 2,
                               "terms": [{"alpha": [1, 1] + [0] * 99998, "c": 1.0}]}))
    proc = _run_cli_capped([str(big) if a == "{big}" else a for a in argv])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "refusing" in proc.stderr


_CUBIC = '{"n": 3, "d": 3, "terms": [{"alpha": [3, 0, 0], "c": 1.0}, {"alpha": [1, 1, 1], "c": 0.5}]}'
_QUADRATIC = '{"n": 3, "d": 2, "terms": [{"alpha": [2, 0, 0], "c": 1.0}, {"alpha": [0, 1, 1], "c": 0.5}]}'


@pytest.mark.parametrize("argv", [
    ["opnorm", _CUBIC],
    ["opnorm", _QUADRATIC],
    ["approx", _CUBIC, "--eps", "0.5"],
    ["concentrate", _CUBIC, "--eps", "0.5"],
    ["subnorm", _CUBIC, "--k", "2"],
    ["subnorm", _CUBIC, "--k", "1"],
    ["bench"],
], ids=["opnorm", "opnorm-d2", "approx", "concentrate", "subnorm", "subnorm-k1", "bench"])
def test_cli_restarts_guard(argv):
    # 1e11 restarts: without the guard the start arrays need terabytes (or,
    # for subnorm at k = 2, a Python loop of 1e11 random frames)
    proc = _run_cli_capped(argv + ["--restarts", "100000000000"])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "refusing" in proc.stderr


def test_cli_opnorm_linear_form_needs_no_square_guard(tmp_path):
    # the closed form for c.x holds only length-n vectors
    big = tmp_path / "linear.json"
    big.write_text(json.dumps({"n": 100000, "d": 1,
                               "terms": [{"alpha": [0, 1] + [0] * 99998, "c": -2.5}]}))
    proc = _run_cli_capped(["opnorm", str(big), "--restarts", "1"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "opnorm 2.5"


def test_cli_parse_error_exit_code(capsys):
    code, _, err = run_cli(["norm", '{"n":2,"d":2,"terms":[{"alpha":[1,0],"c":1.0}]}'],
                           capsys)
    assert code == 1
    assert "weight" in err


def test_cli_malformed_json(capsys):
    code, _, err = run_cli(["norm", '{"n": 2, "d":'], capsys)
    assert code == 1
    assert "malformed" in err


def test_cli_bench_small(capsys):
    code, out, _ = run_cli(["bench", "--eps-list", "0.5,1.0", "--d-list", "2",
                            "--n-list", "4", "--samples", "3", "--restarts", "4",
                            "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    cells = {(c["eps"], c["d"], c["n"]): c for c in payload["cells"]}
    assert cells[(0.5, 2, 4)]["violations"] == 0
    assert cells[(0.5, 2, 4)]["max_terms"] <= 4
    assert cells[(1.0, 2, 4)]["max_terms"] == 0


def test_cli_bench_nearby_eps_draw_different_forms(monkeypatch, capsys):
    # eps values that agree to three decimals must still seed apart
    drawn = []
    real = generators.bombieri_gaussian

    def spy(n, d, rng):
        p = real(n, d, rng)
        drawn.append(dict(p.terms))
        return p

    monkeypatch.setattr(generators, "bombieri_gaussian", spy)
    code, _, _ = run_cli(["bench", "--eps-list", "0.5,0.5004", "--d-list", "2",
                          "--n-list", "3", "--samples", "1", "--restarts", "2"], capsys)
    assert code == 0
    assert len(drawn) == 2 and drawn[0] != drawn[1]


def test_cli_bench_resource_guard(capsys):
    code, _, err = run_cli(["bench", "--eps-list", "0.5", "--d-list", "6",
                            "--n-list", "60", "--samples", "1"], capsys)
    assert code == 1
    assert "refusing" in err


def test_cli_ratio_probe(capsys):
    code, out, _ = run_cli(["ratio-probe", "--d", "2", "--k", "1", "--n", "4",
                            "--samples", "5", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["max_ratio"] == pytest.approx(1.0, abs=1e-9)


def test_cli_ratio_probe_passes_the_optimizer_flags(monkeypatch, capsys):
    seen = []
    real = sphere.subspace_norm

    def spy(p, k, cfg=None, extra_starts=()):
        seen.append(cfg)
        return real(p, k, cfg, extra_starts)

    monkeypatch.setattr(sphere, "subspace_norm", spy)
    code, out, _ = run_cli(["ratio-probe", "--d", "3", "--k", "2", "--n", "3",
                            "--samples", "2", "--seed", "4", "--restarts", "3",
                            "--max-iters", "7", "--tol", "1e-6"], capsys)
    assert code == 0 and out.startswith("max_ratio ")
    assert len(seen) == 2
    assert all((c.restarts, c.max_iters, c.tol, c.seed) == (3, 7, 1e-6, 4) for c in seen)


def test_cli_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(SUM4))
    code, out, _ = run_cli(["norm", "-"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "bombieri 2"


_SCIPY_PROBE = """
import contextlib, io, json, sys
import polyrank, polyrank.cli
steps = [["import", 0, "scipy" in sys.modules]]
form, report = sys.argv[1:]
for argv in (["gen", "--n", "5", "--d", "2"], ["norm", form], ["opnorm", form],
             ["subnorm", form, "--k", "2"], ["approx", form, "--eps", "0.5"],
             ["chain-check", form, "--report", report],
             ["concentrate", form, "--eps", "0.8", "--eps-inner", "0.45"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = polyrank.cli.main(argv + ["--seed", "5", "--restarts", "6"])
    steps.append([argv[0], code, "scipy" in sys.modules])
print(json.dumps(steps))
"""


def test_cli_cold_start_leaves_scipy_unloaded(tmp_path):
    # polyrank needs only numpy, and importing scipy.linalg would be most of a
    # command's start-up time; a fresh interpreter is required because this
    # process may already hold scipy
    form, report = tmp_path / "p.json", tmp_path / "rep.json"
    fixed = ["--seed", "5", "--restarts", "6"]
    assert main(["gen", "--n", "5", "--d", "2", "--out", str(form)] + fixed) == 0
    assert main(["concentrate", str(form), "--eps", "0.8", "--eps-inner", "0.45",
                 "--format", "json", "--out", str(report)] + fixed) == 0
    assert json.loads(report.read_text())["k"] >= 1, "rotation branch not reached"
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(form), str(report)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout)
    assert steps[0] == ["import", 0, False]
    assert steps[1:] == [[name, 0, False] for name in
                         ("gen", "norm", "opnorm", "subnorm", "approx", "chain-check",
                          "concentrate")]


def test_cli_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "polyrank.cli", "norm", SUM4],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "bombieri 2"


def _degree3_matrix(tmp_path, threads: str) -> bytes:
    poly_path = tmp_path / "p3.json"
    report_path = tmp_path / f"rep3-{threads}.json"
    env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
    fixed = ["--seed", "5", "--restarts", "6", "--format", "json"]
    outputs = []
    for cmd in (["gen", "--n", "6", "--d", "3"],
                ["subnorm", str(poly_path), "--k", "3"],
                ["concentrate", str(poly_path), "--eps", "0.8", "--eps-inner", "0.45",
                 "--out", str(report_path)],
                ["chain-check", str(poly_path), "--report", str(report_path)]):
        proc = subprocess.run([sys.executable, "-m", "polyrank.cli"] + cmd + fixed,
                              capture_output=True, env=env, timeout=300)
        assert proc.returncode == 0, (cmd, proc.stderr.decode())
        outputs.append(proc.stdout)
        if cmd[0] == "gen":
            poly_path.write_bytes(proc.stdout)
        if cmd[0] == "concentrate":
            outputs.append(report_path.read_bytes())
    return b"\x00".join(outputs)


def test_cli_degree3_determinism_across_thread_counts(tmp_path):
    # the stacked matmul and eigh of the frame maximizer under threaded BLAS
    assert _degree3_matrix(tmp_path, "1") == _degree3_matrix(tmp_path, "2")
