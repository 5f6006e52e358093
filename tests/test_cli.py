"""CLI verbs: schemas, round trips, exit codes, exact-mode rationals."""

import json
import math
import os
import shlex
from pathlib import Path

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


def test_nc_enumerate_past_enumeration_cap_exit_2(capsys):
    code, out, err = capture(capsys, ["nc", "enumerate", "--n", "13"])
    assert code == 2
    assert out == ""
    assert json.loads(err)["code"] == "size_limit"


def test_nc_enumerate_without_n_exit_2(capsys):
    code, _, err = capture(capsys, ["nc", "enumerate"])
    assert code == 2
    assert json.loads(err)["code"] == "validation"


def test_nc_check_invalid_partition_exit_2(capsys):
    # a repeated element, and an empty block (refused before sorting)
    for blocks in ([[1, 2], [2, 3]], [[1], []]):
        code, _, err = capture(capsys, ["nc", "check", "--inline",
                                        json.dumps({"blocks": blocks})])
        assert code == 2
        assert json.loads(err)["code"] == "shape"


def test_cum_missing_subword_exit_2(capsys):
    for op, values, missing in [
            ("to-cumulants", [{"word": ["x"], "value": 1},
                              {"word": ["x"] * 3, "value": 2}], ("x", "x")),
            ("to-moments", [{"word": ["x", "x"], "value": 1}], ("x",))]:
        code, _, err = capture(capsys, ["cum", op, "--inline",
                                        json.dumps({"values": values})])
        assert code == 2
        body = json.loads(err)
        assert body["code"] == "validation"
        assert body["message"].endswith("missing subword %r" % (missing,))


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


def test_dist_conv_evaluates_c_once_per_point(capsys, monkeypatch):
    from freepoisson import transforms as tr
    calls = []
    c = tr.FreeConvolution.c

    def counted(self, z):
        calls.append(z)
        return c(self, z)

    monkeypatch.setattr(tr.FreeConvolution, "c", counted)
    triple = {"a": 0.3, "b": 0.5, "rho": {"atoms": [[0.5, 0.7], [2.0, 0.2]]}}
    points = [[0.1, 0.05], [-0.2, 0.1], [0.0, 0.2]]
    payload = {"parts": [triple, {"atoms": [[1.0, 1.0]]}], "points": points}
    code, out, _ = capture(capsys, ["dist", "conv", "--inline",
                                    json.dumps(payload)])
    assert code == 0
    assert len(calls) == len(points)
    # C of the unit point mass at 1 is z
    want = [tr.levy_khintchine_C(tr.LevyTriple.from_json(triple), z) + z
            for z in (complex(x, y) for x, y in points)]
    assert [complex(*v) for v in json.loads(out)["C"]] == want


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


def _fock_norm_payload(gram, truncation, tensor):
    """A function algebra's structure (S = 1, lmul[k] = e_kk) on ``gram``."""
    n = len(gram)
    lmul = [np.diag(np.eye(n)[k]).tolist() for k in range(n)]
    return json.dumps({
        "algebra": {"gram": gram, "s": np.eye(n).tolist(), "lmul": lmul,
                    "unit": [1.0] * n},
        "truncation": truncation, "tensor": tensor})


def test_fock_norm_verb_past_dense_size(capsys):
    # 2047 dimensions at L 10: far past the dense matrix cap
    from freepoisson import _scalars as sc
    from freepoisson.algebra import function_algebra
    from freepoisson.fock import PROJECTIVE, FockSpace, wick
    payload = _fock_norm_payload([[0.7, 0.0], [0.0, 1.1]], 10,
                                 [[1.0, -0.5], [0.3, 2.0]])
    code, out, _ = capture(capsys, ["fock", "norm", "--inline", payload])
    assert code == 0
    fk = FockSpace(function_algebra([0.7, 1.1], mode=sc.FLOAT), 10)
    want = wick(fk, [np.array([1.0, -0.5]), np.array([0.3, 2.0])],
                PROJECTIVE).norm()
    assert abs(json.loads(out)["norm"] - want) <= 1e-12 * want


def test_fock_norm_past_nonzero_budget_exit_2(capsys):
    # dim 3 at L 12: a full gauge leg's letter block alone would have
    # 9 * 265,720 nonzeros
    gram = [[2.0, 0.5, 0.5], [0.5, 2.0, 0.5], [0.5, 0.5, 2.0]]
    payload = _fock_norm_payload(gram, 12, [[1.0, -0.5, 0.25]])
    code, out, err = capture(capsys, ["fock", "norm", "--inline", payload])
    assert code == 2 and out == ""
    assert json.loads(err)["code"] == "domain"


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


@pytest.mark.parametrize("mode", ["float", "exact"])
@pytest.mark.parametrize("lmul", [
    [[[1, 0], [0, 0]]],
    [[[1, 0], [0, 0]], [[1]]],
], ids=["count", "shape"])
def test_fock_rejects_malformed_lmul(capsys, mode, lmul):
    # one matrix for two basis vectors, or a 1x1 matrix in a 2-dim algebra
    eye = [[1, 0], [0, 1]]
    payload = json.dumps({
        "algebra": {"gram": eye, "s": eye, "lmul": lmul},
        "truncation": 2, "words": [[1, 0], [0, 1]]})
    code, out, err = capture(capsys, ["fock", "moments", "--mode", mode,
                                      "--inline", payload])
    assert code == 2 and out == ""
    assert json.loads(err)["code"] == "shape"


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


_ZERO_DEN = {"num": 1, "den": 0}
_ALGEBRA_1 = {"gram": [[1.0]], "s": [[1.0]], "lmul": [[[0.0]]]}
_TRIPLE = {"a": 0.0, "b": 1.0, "rho": {"atoms": [[0.5, 1.0]]}}


def _cum_value(value):
    return ["cum", "to-cumulants", "--inline",
            json.dumps({"values": [{"word": ["x"], "value": value}]})]


def _fock_truncation(truncation):
    return ["fock", "moments", "--inline",
            json.dumps({"algebra": _ALGEBRA_1, "truncation": truncation,
                        "words": [[1.0]]})]


@pytest.mark.parametrize("argv, field", [
    (["cum", "to-cumulants", "--mode", "exact", "--inline",
      json.dumps({"values": [{"word": ["x"], "value": _ZERO_DEN}]})],
     "input.values[0].value.den"),
    (["fock", "wick", "--mode", "exact", "--inline",
      json.dumps({"algebra": {"gram": [[1]], "s": [[1]], "lmul": [[[0]]]},
                  "truncation": 3, "tensor": [[_ZERO_DEN], [2]]})],
     "input.tensor[0][0].den"),
    (["nc", "check", "--inline", "[]"], "input"),
    (["levy", "split", "--inline",
      json.dumps({"a": 0.0, "b": 1.0, "rho": [1]})], "input.rho"),
    (["dist", "conv", "--inline",
      json.dumps({"parts": [[1], {"atoms": [[1.0, 1.0]]}]})],
     "input.parts[0]"),
    (["dist", "conv", "--inline",
      json.dumps({"parts": [{"atoms": [[1.0, 1.0]]}, {"atoms": [[0.0, 1.0]]}],
                  "points": [[0]]})], "input.points[0]"),
    (["cum", "to-cumulants", "--inline", '{"values": {}}'], "input.values"),
    (_cum_value([1, 2, 3]), "input.values[0].value"),
    (_cum_value(True), "input.values[0].value"),
    (["levy", "split", "--inline", json.dumps({**_TRIPLE, "a": True})],
     "input.a"),
    (_fock_truncation(4.7), "input.truncation"),
    (_fock_truncation("4"), "input.truncation"),
    (["levy", "cumulants", "--inline", json.dumps({**_TRIPLE, "n": 3.9})],
     "input.n"),
    (["variation", "run", "--inline",
      json.dumps({"atoms": [[1, 1]], "k": 2.9, "n_list": [4, 8, 16, 32]})],
     "input.k"),
    (["nc", "check", "--inline",
      json.dumps({"n": 0, "blocks": [[1, 2]]})], "input.n"),
    (["dist", "conv", "--inline",
      json.dumps({"parts": [{"density": {"kind": "free_poisson"}}]})],
     "input.parts[0].density.lambda"),
    (["levy", "split", "--inline",
      json.dumps({**_TRIPLE, "rho": {"density": {"kind": "semicircle",
                                                 "a": 0.0}}})],
     "input.rho.density.b"),
    (["fock", "moments", "--inline",
      json.dumps({"algebra": {**_ALGEBRA_1, "gram": [[1, 0], [0]]},
                  "words": [[1.0, 0.0]]})], "input.algebra.gram[1]"),
    (["fock", "moments", "--inline",
      json.dumps({"algebra": _ALGEBRA_1, "words": [[1.0]]})[:-9]], "input"),
], ids=["cum-zero-den", "fock-zero-den", "nc-list", "levy-rho-list",
        "dist-part-list", "dist-short-point", "cum-values-object",
        "scalar-three-entries", "scalar-bool", "number-bool",
        "truncation-float", "truncation-string", "levy-n-float",
        "variation-k-float", "nc-check-n-zero", "dist-density-no-lambda",
        "levy-density-no-b", "ragged-gram", "truncated-json"])
def test_malformed_input_exit_2(capsys, argv, field):
    code, out, err = capture(capsys, argv)
    assert code == 2 and out == ""
    body = json.loads(err.strip().splitlines()[-1])
    assert body["code"] == "validation"
    assert body["witness"] == {"field": field}


def test_truncated_json_names_the_decoder_position(capsys):
    code, _, err = capture(capsys, ["nc", "check", "--inline",
                                    '{"blocks": [[1, 2]'])
    assert code == 2
    assert json.loads(err)["message"] == (
        "input is not JSON: Expecting ',' delimiter: line 1 column 19 "
        "(char 18)")


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


def test_variation_run_exact_atoms(capsys):
    # {"num", "den"} atoms, b and t are read as Fractions
    from fractions import Fraction as F
    from freepoisson import variation as va
    half = {"num": 1, "den": 2}
    payload = json.dumps({"atoms": [[half, {"num": 3, "den": 2}]],
                          "b": {"num": 0, "den": 1}, "t": half, "k": 2,
                          "n_list": [4, 8, 16, 32]})
    code, out, _ = capture(capsys, ["variation", "run", "--inline", payload])
    assert code == 0
    data = json.loads(out)
    want = va.run_experiment(va.VariationExperiment(
        atoms=[(F(1, 2), F(3, 2))], b=F(0), t=F(1, 2), k=2,
        n_list=(4, 8, 16, 32)))
    assert data["errors"] == want["errors"]
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


def test_cp_gamma_is_capped_by_the_target_space(capsys):
    # the legs are compressed onto the Fock space over L^2(N), dimension 2:
    # truncation 9 (1023 dimensions) is built although the dilation space
    # has dimension >= 5, and truncation 11 (4095^2 > 4e6 entries) is
    # refused by the dense cap
    from freepoisson import _scalars as sc, quantize as qz
    from freepoisson.ncps import NcProbSpace
    space = {"blocks": [1, 1], "density": [[[0.5]], [[0.5]]],
             "mode": "float"}
    payload = {"source": space, "target": space, "form": "kraus",
               "kraus": [[[0.5, 0.0], [0.0, 0.5]]],
               "wick_legs": [[1.0, 0.0]], "truncation": 9}
    code, out, _ = capture(capsys, ["cp", "gamma",
                                    "--inline", json.dumps(payload)])
    assert code == 0
    got = _decode_matrix(json.loads(out)["matrix"])
    s = NcProbSpace([1, 1], [[[0.5]], [[0.5]]], mode=sc.FLOAT)
    t = qz.CpMap(s, s, [0.5 * np.eye(2)])
    want = qz.second_quantize(t, [(1.0, [np.array([1.0, 0.0])])], 9)
    assert got.shape == (1023, 1023)
    assert np.abs(got - want).max() < 1e-12
    payload["truncation"] = 11
    code, out, err = capture(capsys, ["cp", "gamma",
                                      "--inline", json.dumps(payload)])
    assert code == 2 and out == ""
    assert json.loads(err)["code"] == "domain"


def test_cp_gamma_rejects_an_inadmissible_map(capsys):
    space = {"blocks": [1, 1], "density": [[[0.5]], [[0.5]]],
             "mode": "float"}
    payload = {"source": space, "target": space, "form": "kraus",
               "kraus": [[[1.5, 0.0], [0.0, 1.5]]], "wick_legs": [[1.0, 0.0]]}
    code, out, err = capture(capsys, ["cp", "gamma",
                                      "--inline", json.dumps(payload)])
    assert code == 2 and out == ""
    assert json.loads(err)["code"] == "validation"


def _decode_matrix(rows):
    return np.array([[complex(*v) if isinstance(v, list) else v for v in row]
                     for row in rows], dtype=complex)


@pytest.mark.parametrize("op", ["check", "dual", "gamma"])
def test_cp_verbs_on_exact_spaces_match_float(capsys, op):
    # rational densities in exact mode are floated once, so every verb
    # agrees with the same request in float mode
    def request(mode):
        src = {"blocks": [1, 1], "mode": mode,
               "density": [[[{"num": 1, "den": 3}]], [[{"num": 2, "den": 3}]]]}
        tgt = {"blocks": [1, 1], "mode": mode,
               "density": [[[{"num": 3, "den": 5}]], [[{"num": 1, "den": 2}]]]}
        payload = {"source": src, "target": tgt, "form": "kraus",
                   "kraus": [[[0.5, 0.1], [0.0, 0.4]]],
                   "wick_legs": [[1.0, [0.5, -0.25]]]}
        code, out, _ = capture(capsys, ["cp", op,
                                        "--inline", json.dumps(payload)])
        assert code == 0
        return json.loads(out)

    exact, flt = request("exact"), request("float")
    if op == "check":
        assert exact["admissible"] is True and exact == flt
    elif op == "dual":
        assert exact["source"]["mode"] == "exact"
        for ke, kf in zip(exact["kraus"], flt["kraus"], strict=True):
            assert np.abs(_decode_matrix(ke) -
                          _decode_matrix(kf)).max() <= 1e-12
    else:
        assert np.abs(_decode_matrix(exact["matrix"]) -
                      _decode_matrix(flt["matrix"])).max() <= 1e-12


def test_fock_truncation_past_cap_exit_2(capsys):
    payload = json.dumps({
        "algebra": {"gram": [[1.0]], "s": [[1.0]], "lmul": [[[0.0]]]},
        "truncation": 100000, "words": [[1.0]]})
    code, out, err = capture(capsys, ["fock", "moments", "--inline", payload])
    assert code == 2 and out == ""
    assert json.loads(err)["code"] == "size_limit"


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
    # run() dispatches through the verb table, so patching its entry
    # exercises the real exit-code wiring
    from freepoisson import cli
    from freepoisson.errors import NonConvergenceError

    def boom(args):
        raise NonConvergenceError("did not converge", witness=[0.0, 0.0])

    monkeypatch.setitem(cli.VERBS["dist"], "density", boom)
    code = cli.run(["dist", "density", "--law", "free_poisson"])
    assert code == 4
    err = capsys.readouterr().err
    assert json.loads(err)["code"] == "non_convergence"


def test_non_hermitian_choi_exit_2(capsys):
    # a 2-dim source and a 1-dim target: the Choi matrix is 2 x 2, and
    # [[1, 2], [0, 1]] is refused rather than read as its Hermitian part
    space = {"blocks": [1, 1], "density": [[[0.5]], [[0.5]]]}
    payload = {"source": space, "target": {"blocks": [1],
                                           "density": [[[1.0]]]},
               "form": "choi", "choi": [[1, 2], [0, 1]]}
    for op in ("check", "dual"):
        code, out, err = capture(capsys, ["cp", op, "--inline",
                                          json.dumps(payload)])
        assert code == 2 and out == ""
        body = json.loads(err)
        assert body["code"] == "not_psd"
        assert body["message"] == "Choi matrix is not Hermitian"
        assert set(body["witness"]) == {"slack"}


def test_empty_inline_is_bad_json_and_reads_no_stdin(capsys, monkeypatch):
    class Unread:
        def read(self, *args):
            raise AssertionError("stdin was read")

    monkeypatch.setattr("sys.stdin", Unread())
    for argv in (["nc", "check"], ["classify", "filtration"]):
        code, out, err = capture(capsys, argv + ["--inline", ""])
        assert code == 2 and out == ""
        body = json.loads(err)
        assert body["code"] == "validation"
        assert body["witness"] == {"field": "input"}
        assert body["message"].startswith("input is not JSON")


@pytest.mark.parametrize("argv, code, witness", [
    (["levy", "recover", "--inline", '{"kappa": [0, 0, 1, 0, 0, 0]}'],
     "validation", {"pivot": 0}),
    (["levy", "recover", "--inline", '{"kappa": [0, 1, 0, 0, 0, 1]}'],
     "validation", {"pivot": 1}),
    (["classify", "poisson", "--alpha", "1e400"], "validation",
     {"field": "--alpha"}),
    (["classify", "freedim", "--n", "2", "--alpha", "1/0"], "validation",
     {"field": "--alpha"}),
    (["classify", "filtration", "--rho", "[1,"], "validation",
     {"field": "--rho"}),
], ids=["hankel-not-psd", "hankel-no-measure", "alpha-overflow",
        "alpha-zero-den", "rho-not-json"])
def test_checked_errors_name_their_witness(capsys, argv, code, witness):
    # each of these reached the catch-all (or no check at all) before
    got, out, err = capture(capsys, argv)
    assert got == 2 and out == ""
    body = json.loads(err)
    assert body["code"] == code and body.get("witness") == witness


def test_input_file_that_is_not_utf8_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"blocks": [[1, 2]], "n": "\xff"}')
    code, out, err = capture(capsys, ["nc", "check", "--input", str(path)])
    assert code == 2 and out == ""
    body = json.loads(err)
    assert body["code"] == "validation" and body["witness"] == {"field": "input"}
    assert body["message"].startswith("input is not JSON: 'utf-8' codec")


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


@pytest.mark.parametrize("argv", [
    ["nc", "enumerate", "--n", "abc"],
    ["--seed", "3", "nc", "enumerate", "--n", "3"],
    ["nc", "enumerate", "--n", "3", "--tolerance", "1e-9"],
    [],
    ["dist", "density", "--x", "nan"],
    ["dist", "density", "--lambda", "nan"],
    ["dist", "density", "--lambda", "inf"],
    ["classify", "filtration", "--rho", "[[1, 1]]", "--t", "inf"],
    ["classify", "filtration", "--a", "nan"],
    ["classify", "filtration", "--b", "-inf"],
], ids=["bad-int", "removed-seed", "removed-tolerance", "no-verb", "nan-x",
        "nan-lambda", "inf-lambda", "inf-t", "nan-a", "inf-b"])
def test_usage_error_ends_with_json_exit_2(capsys, argv):
    code, out, err = capture(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("usage:")
    assert json.loads(err.strip().splitlines()[-1])["code"] == "usage"


def _readme_cli_examples():
    """The argv of each README CLI example that needs no --input file."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```")[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("freepoisson ") and "--input" not in line]


@pytest.mark.parametrize("argv", _readme_cli_examples(),
                         ids=lambda argv: " ".join(argv[:2]))
def test_readme_cli_example_exits_0(capsys, argv):
    assert run(argv) == 0


def test_help_exits_0(capsys):
    code, out, _ = capture(capsys, ["nc", "--help"])
    assert code == 0
    assert out.startswith("usage:")
