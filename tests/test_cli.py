"""CLI verbs: schemas, round trips, exit codes, exact-mode rationals."""

import json
import math
import os

import numpy as np
import pytest

from freepoisson.cli import run


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_nc_enumerate(capsys):
    code, out, _ = capture(capsys, ["nc", "enumerate", "--n", "4"])
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "v1"
    assert data["count"] == 14
    blocks = [tuple(map(tuple, p["blocks"])) for p in data["partitions"]]
    assert ((1, 3), (2, 4)) not in blocks


def test_nc_kreweras_roundtrip(capsys):
    payload = json.dumps({"n": 3, "blocks": [[1, 3], [2]]})
    code, out, _ = capture(capsys, ["nc", "kreweras", "--inline", payload])
    assert code == 0
    data = json.loads(out)
    assert data["kreweras"]["blocks"] == [[1, 2], [3]]
    # emitted JSON is accepted back
    code2, out2, _ = capture(capsys, ["nc", "kreweras", "--inline",
                                      json.dumps(data["kreweras"])])
    assert code2 == 0


def test_nc_check(capsys):
    code, out, _ = capture(
        capsys, ["nc", "check", "--inline",
                 json.dumps({"blocks": [[1, 3], [2, 4]]})])
    assert code == 0
    assert json.loads(out)["noncrossing"] is False


def test_nc_validation_error_exit_2(capsys):
    code, _, err = capture(capsys, ["nc", "enumerate", "--n", "30"])
    assert code == 2
    obj = json.loads(err)
    assert obj["code"] == "size_limit"


def test_nc_enumerate_without_n_exit_2(capsys):
    code, _, err = capture(capsys, ["nc", "enumerate"])
    assert code == 2
    assert json.loads(err)["code"] == "validation"


def test_nc_check_invalid_partition_exit_2(capsys):
    code, _, err = capture(
        capsys, ["nc", "check", "--inline",
                 json.dumps({"blocks": [[1, 2], [2, 3]]})])
    assert code == 2
    assert json.loads(err)["code"] == "shape"


def test_cum_missing_subword_exit_2(capsys):
    values = [{"word": ["x"], "value": 1}, {"word": ["x"] * 3, "value": 2}]
    code, _, err = capture(capsys, ["cum", "to-cumulants", "--inline",
                                    json.dumps({"values": values})])
    assert code == 2
    assert json.loads(err)["code"] == "validation"


@pytest.mark.parametrize("op", ["to-cumulants", "to-moments"])
def test_cum_word_past_cap_exit_2(capsys, op):
    values = [{"word": ["x"] * 17, "value": 1}]
    code, _, err = capture(capsys, ["cum", op, "--inline",
                                    json.dumps({"values": values})])
    assert code == 2
    assert json.loads(err)["code"] == "size_limit"


def test_cum_roundtrip_exact(capsys):
    values = [{"word": ["x"] * k, "value": {"num": 1, "den": 1}}
              for k in range(1, 5)]
    payload = json.dumps({"values": values})
    code, out, _ = capture(capsys, ["cum", "to-moments", "--mode", "exact",
                                    "--inline", payload])
    assert code == 0
    moments = json.loads(out)["values"]
    got = {tuple(e["word"]): e["value"] for e in moments}
    assert got[("x", "x", "x", "x")] == {"num": 14, "den": 1}
    code2, out2, _ = capture(capsys, ["cum", "to-cumulants", "--mode",
                                      "exact", "--inline", out])
    back = {tuple(e["word"]): e["value"] for e in json.loads(out2)["values"]}
    assert all(v == {"num": 1, "den": 1} for v in back.values())


def test_dist_density_value(capsys):
    code, out, _ = capture(capsys, ["dist", "density", "--law",
                                    "free_poisson", "--lambda", "1",
                                    "--x", "2"])
    assert code == 0
    data = json.loads(out)
    assert abs(data["density"] - 1 / (2 * math.pi)) < 1e-12
    assert data["support"] == [0.0, 4.0]


def test_levy_split_and_cumulants(capsys):
    payload = json.dumps({"a": 0.0, "b": 1.0,
                          "rho": {"atoms": [[0.5, 1.0], [3.0, 0.25]]}})
    code, out, _ = capture(capsys, ["levy", "split", "--inline", payload])
    assert code == 0
    data = json.loads(out)
    assert data["compensated"]["rho"]["atoms"] == [[0.5, 1.0]]
    assert data["compound"]["rho"]["atoms"] == [[3.0, 0.25]]
    code, out, _ = capture(capsys, ["levy", "cumulants", "--n", "4",
                                    "--inline", payload])
    ks = json.loads(out)["kappa"]
    assert abs(ks[0] - 0.75) < 1e-12        # a + large-jump mean
    assert abs(ks[1] - (1 + 0.5 ** 2 + 0.25 * 9)) < 1e-12


def test_levy_recover_roundtrip(capsys):
    payload = json.dumps({"a": 0.3, "b": 0.5,
                          "rho": {"atoms": [[2.0, 0.4]]}, "n": 8})
    code, out, _ = capture(capsys, ["levy", "cumulants", "--n", "8",
                                    "--inline", payload])
    ks = json.loads(out)["kappa"]
    code, out, _ = capture(capsys, ["levy", "recover", "--inline",
                                    json.dumps({"kappa": ks})])
    assert code == 0
    t = json.loads(out)["triple"]
    assert abs(t["a"] - 0.3) < 1e-7
    assert abs(t["b"] - 0.5) < 1e-7
    assert abs(t["rho"]["atoms"][0][0] - 2.0) < 1e-7


def test_levy_recover_rejects_non_fid(capsys):
    code, _, err = capture(capsys, ["levy", "recover", "--inline",
                                    json.dumps({"kappa":
                                                [0, 0, 1, 0, 0, 0]})])
    assert code == 2
    assert "witness" in json.loads(err)


def test_classify_verbs(capsys):
    code, out, _ = capture(capsys, ["classify", "filtration", "--b", "0",
                                    "--rho", "[[1,1]]", "--t", "0.5"])
    assert code == 0
    assert json.loads(out) == {"schema": "v1", "kind": "with_atom",
                               "r": 2.0, "alpha": 0.5}
    code, out, _ = capture(capsys, ["classify", "poisson", "--alpha", "2.5"])
    assert json.loads(out)["r"] == 5.0
    code, out, _ = capture(capsys, ["classify", "freedim", "--n", "1",
                                    "--alpha", "3/2"])
    assert json.loads(out)["value"] == {"num": 3, "den": 1}


def test_fock_moments_verb(capsys):
    payload = json.dumps({
        "algebra": {"gram": [[1.0]], "s": [[1.0]], "lmul": [[[1.0]]],
                    "unit": [1.0]},
        "truncation": 4,
        "words": [[1.0], [1.0], [1.0], [1.0]]})
    code, out, _ = capture(capsys, ["fock", "moments", "--inline", payload])
    assert code == 0
    # X(p)^4 vacuum moment with phi(p)=1: centered Poisson m_4
    from freepoisson.ncps import CumulantFunctional, moments_from_cumulants
    from fractions import Fraction as F
    cf = CumulantFunctional.from_sequence([F(0), F(1), F(1), F(1)])
    want = float(moments_from_cumulants(cf, ("x",) * 4))
    assert abs(json.loads(out)["moment"] - want) < 1e-12


def test_fock_wick_verb(capsys):
    payload = json.dumps({
        "algebra": {"gram": [[1.0]], "s": [[1.0]], "lmul": [[[0.0]]]},
        "truncation": 3,
        "tensor": [[1.0], [2.0]]})
    code, out, _ = capture(capsys, ["fock", "wick", "--inline", payload])
    assert code == 0
    img = json.loads(out)["vacuum_image"]
    assert img == [{"index": [0, 0], "value": 2.0}]


@pytest.mark.parametrize("mode, gram", [
    ("float", [[0.0]]),
    ("float", [[-1.0]]),
    ("exact", [[0]]),
    ("float", [[1.0, 0.5], [0.0, 1.0]]),
    ("float", [[1.0, 2.0], [2.0, 1.0]]),
], ids=["zero", "negative", "zero-exact", "not-hermitian", "indefinite"])
def test_fock_rejects_gram_not_positive_definite(capsys, mode, gram):
    n = len(gram)
    eye = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    zero = [[0.0] * n for _ in range(n)]
    payload = json.dumps({
        "algebra": {"gram": gram, "s": eye, "lmul": [zero] * n},
        "truncation": 2, "words": [[1.0] * n, [1.0] * n]})
    code, out, err = capture(capsys, ["fock", "moments", "--mode", mode,
                                      "--inline", payload])
    assert code == 2 and out == ""
    assert json.loads(err)["code"] == "not_psd"


@pytest.mark.parametrize("argv", [
    ["classify", "poisson", "--alpha", "abc"],
    ["levy", "recover", "--inline", '{"kappa":["a","b"]}'],
    ["nc", "check", "--inline", '{"blocks":[["a",2]]}'],
    ["cum", "to-cumulants", "--inline",
     '{"values":[{"word":["x"],"value":"abc"}]}'],
], ids=["classify-alpha", "levy-kappa", "nc-check", "cum-value"])
def test_non_numeric_input_exit_2(capsys, argv):
    code, out, err = capture(capsys, argv)
    assert code == 2 and out == ""
    assert json.loads(err)["code"] == "validation"


def test_variation_run_csv(capsys):
    payload = json.dumps({"atoms": [[1, 1]], "b": 0, "t": 1, "k": 2,
                          "n_list": [4, 8, 16, 32]})
    code, out, _ = capture(capsys, ["variation", "run", "--csv",
                                    "--inline", payload])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,error"
    assert len(lines) == 5
    code, out, _ = capture(capsys, ["variation", "run", "--inline", payload])
    data = json.loads(out)
    assert -0.65 <= data["slope"] <= -0.35


def test_cp_check_and_gamma(capsys):
    space = {"blocks": [1, 1], "density": [[[0.5]], [[0.5]]],
             "mode": "float"}
    payload = {"source": space, "target": space, "form": "kraus",
               "kraus": [[[0.5, 0.0], [0.0, 0.5]]]}
    code, out, _ = capture(capsys, ["cp", "check",
                                    "--inline", json.dumps(payload)])
    assert code == 0
    assert json.loads(out)["admissible"] is True
    payload["wick_legs"] = [[1.0, 0.0]]
    code, out, _ = capture(capsys, ["cp", "gamma",
                                    "--inline", json.dumps(payload)])
    assert code == 0
    assert "matrix" in json.loads(out)


def test_cp_dual_roundtrips_via_json(capsys):
    space = {"blocks": [1, 1], "density": [[[0.5]], [[0.5]]],
             "mode": "float"}
    payload = {"source": space, "target": space, "form": "kraus",
               "kraus": [[[0.5, 0.0], [0.0, 0.25]]]}
    code, out, _ = capture(capsys, ["cp", "dual",
                                    "--inline", json.dumps(payload)])
    assert code == 0
    dual = json.loads(out)
    dual2 = {"source": dual["source"], "target": dual["target"],
             "form": "kraus", "kraus": dual["kraus"]}
    code, out, _ = capture(capsys, ["cp", "check",
                                    "--inline", json.dumps(dual2)])
    assert code == 0


def test_non_convergence_exit_4(capsys, monkeypatch):
    # the parser binds handlers by name at build time, so patching the
    # module-level handler exercises the real exit-code wiring
    from freepoisson import cli
    from freepoisson.errors import NonConvergenceError

    def boom(args):
        raise NonConvergenceError("did not converge", witness=[0.0, 0.0])

    monkeypatch.setattr(cli, "_cmd_dist", boom)
    code = cli.run(["dist", "density", "--law", "free_poisson"])
    assert code == 4
    err = capsys.readouterr().err
    assert json.loads(err)["code"] == "non_convergence"


def test_io_error_exit_3(capsys):
    code, _, err = capture(capsys, ["nc", "kreweras", "--input",
                                    "/nonexistent/path.json"])
    assert code == 3
    assert json.loads(err)["code"] == "io"


def test_env_var_sets_default_mode(capsys, monkeypatch):
    monkeypatch.setenv("FREEPOISSON_MODE", "exact")
    values = [{"word": ["x"], "value": {"num": 2, "den": 3}}]
    code, out, _ = capture(capsys, ["cum", "to-moments", "--inline",
                                    json.dumps({"values": values})])
    assert code == 0
    assert json.loads(out)["values"][0]["value"] == {"num": 2, "den": 3}


def test_exact_and_float_agree(capsys):
    values = [{"word": ["x"] * k, "value": {"num": 1, "den": 2}}
              for k in range(1, 5)]
    payload = json.dumps({"values": values})
    _, out_e, _ = capture(capsys, ["cum", "to-moments", "--mode", "exact",
                                   "--inline", payload])
    _, out_f, _ = capture(capsys, ["cum", "to-moments", "--mode", "float",
                                   "--inline", payload])
    exact = {tuple(e["word"]): e["value"]
             for e in json.loads(out_e)["values"]}
    flt = {tuple(e["word"]): e["value"] for e in json.loads(out_f)["values"]}
    for w, v in exact.items():
        assert abs(v["num"] / v["den"] - flt[w]) < 1e-12


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "out.json"
    code, _, _ = capture(capsys, ["nc", "enumerate", "--n", "3",
                                  "--output", str(out_path)])
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["count"] == 5
