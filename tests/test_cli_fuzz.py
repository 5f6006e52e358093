"""The CLI error contract under fuzzing: every verb, run in process on
random and mutated JSON built from valid payloads, exits 0, 2, 3 or 4,
ends a failure with a JSON error line on stderr and prints no traceback.

Sizes stay small (matrices at most 3x3, integers at most 4, --n at most 6)
so that no case comes near a size cap."""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from freepoisson import cli

_ALGEBRA = {"gram": [[1.0, 0.0], [0.0, 2.0]], "s": [[1, 0], [0, 1]],
            "lmul": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], "unit": [1, 1]}
_TRIPLE = {"a": 0.3, "b": 0.5, "rho": {"atoms": [[0.5, 1.0], [2.0, 0.25]]}}
_SPACE = {"blocks": [1, 1], "density": [[[0.5]], [[{"num": 1, "den": 2}]]],
          "mode": "float"}
_CP = {"source": _SPACE, "target": _SPACE, "form": "kraus",
       "kraus": [[[0.5, 0.0], [0.0, [0.25, 0.25]]]]}
_VALUES = {"values": [{"word": ["x"], "value": 1},
                      {"word": ["x", "x"], "value": {"num": 3, "den": 2}}]}

# (argv before --inline, a valid payload) for every verb that reads JSON
REQUESTS = [
    (["nc", "kreweras"], {"n": 4, "blocks": [[1, 3], [2], [4]]}),
    (["nc", "check"], {"n": 4, "blocks": [[1, 3], [2, 4]]}),
    (["cum", "to-cumulants"], _VALUES),
    (["cum", "to-moments", "--mode", "exact"], _VALUES),
    (["fock", "moments"], {"algebra": _ALGEBRA, "truncation": 4,
                           "words": [[1, 0], [0.5, 1], [0, 1]]}),
    (["fock", "wick", "--mode", "exact"],
     {"algebra": _ALGEBRA, "truncation": 3,
      "tensor": [[1, 0], [{"num": 1, "den": 2}, 1]]}),
    (["fock", "norm"], {"algebra": _ALGEBRA, "truncation": 3,
                        "tensor": [[1.0, [0.5, -0.5]]]}),
    (["dist", "conv"], {"parts": [
        {"atoms": [], "density": {"kind": "free_poisson", "lambda": 1.0}},
        {"atoms": [[1.0, 1.0]]}, _TRIPLE],
        "grid": [2.5], "points": [[0.1, 0.2]]}),
    (["levy", "split"], _TRIPLE),
    (["levy", "cumulants", "--n", "6"], _TRIPLE),
    (["levy", "recover"], {"kappa": [0.9, 0.9, 0.9, 0.9, 0.9, 0.9]}),
    (["cp", "check"], _CP),
    (["cp", "dual"], _CP),
    (["cp", "gamma"], {**_CP, "wick_legs": [[1.0, 0.0]], "truncation": 3}),
    (["classify", "filtration", "--t", "0.5"], _TRIPLE),
    (["variation", "run"], {"atoms": [[1, 1]], "b": 0, "t": 1, "k": 2,
                            "n_list": [2, 3, 4, 5]}),
]


def _nodes(value, path=()):
    """Every (path, value) inside a JSON value, the root included."""
    yield path, value
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, sub in items:
        yield from _nodes(sub, path + (key,))


# the object keys of the valid payloads, so random objects can hit a spec
_KEYS = sorted({key for _, payload in REQUESTS for _, v in _nodes(payload)
                if isinstance(v, dict) for key in v})
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4),
    st.floats(-4, 4, allow_nan=False),
    st.sampled_from([float("nan"), float("inf"), 1e308, 10 ** 400]),
    st.text(max_size=3), st.sampled_from(_KEYS))
_JSON = st.recursive(
    _LEAVES, lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), kids,
                      max_size=3), max_leaves=9)


def _mutated(draw, payload):
    """``payload`` with one to three nodes replaced or removed."""
    payload = json.loads(json.dumps(payload))
    for _ in range(draw(st.integers(1, 3))):
        path, _ = draw(st.sampled_from(list(_nodes(payload))))
        if not path:
            return draw(_JSON)
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(_JSON)
        else:
            del parent[path[-1]]
    return payload


def _contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    text = err.getvalue()
    assert code in (0, 2, 3, 4), (argv, code, text)
    assert "Traceback" not in text, (argv, text)
    if code:
        body = json.loads(text.strip().splitlines()[-1])
        assert "code" in body, argv
        # every malformed input is refused by a check, not by the safety net
        assert body["code"] != "unchecked", (argv, body)


@st.composite
def _requests(draw):
    argv, payload = draw(st.sampled_from(REQUESTS))
    kind = draw(st.sampled_from(["mutated", "random", "cut"]))
    if kind == "cut":
        text = json.dumps(payload)
        text = text[:draw(st.integers(0, len(text) - 1))]
    else:
        text = json.dumps(draw(_JSON) if kind == "random"
                          else _mutated(draw, payload))
    return argv + ["--inline", text]


def test_valid_payloads_exit_0():
    for argv, payload in REQUESTS:
        assert cli.run(argv + ["--inline", json.dumps(payload)]) == 0, argv


@settings(max_examples=300, deadline=None)
@given(_requests())
def test_fuzzed_json_keeps_the_error_contract(argv):
    _contract(argv)


_WORDS = st.one_of(st.integers(-2, 6).map(str), st.text(max_size=4),
                   st.sampled_from(["5/2", "1/0", "inf", "nan", "1e400"]))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([
    ["nc", "enumerate", "--n"], ["dist", "density", "--lambda"],
    ["dist", "density", "--x"], ["classify", "poisson", "--alpha"],
    ["classify", "freedim", "--n", "2", "--alpha"],
    ["classify", "freedim", "--alpha", "5/2", "--n"],
    ["classify", "filtration", "--rho"], ["classify", "filtration", "--t"],
    ["levy", "cumulants", "--inline", json.dumps(_TRIPLE), "--n"]]), _WORDS)
def test_fuzzed_options_keep_the_error_contract(argv, word):
    _contract(argv + [word])
