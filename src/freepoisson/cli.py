"""Command-line front door: JSON in, JSON or CSV out.

Verbs map one-to-one onto library operations (the table ``VERBS``):

    nc enumerate|kreweras|check
    cum to-cumulants|to-moments
    fock moments|wick|norm
    dist density|conv
    levy split|recover|cumulants
    cp check|dual|gamma
    classify filtration|poisson|freedim
    variation run

Exit codes: 0 success, 2 validation or usage error, 3 I/O error, 4 numeric
non-convergence; errors are emitted as {"code", "message", "witness"?},
after the usage text for a usage error.  An input value that does not fit
its verb's spec names its JSON path in ``witness.field``.
Every output carries "schema": "v1".  ``--mode exact`` renders rationals
as {"num", "den"}; the FREEPOISSON_MODE environment variable sets the
default mode.
"""

import argparse
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import _scalars as sc
from . import algebra, classify, fock, ncpart, ncps
from . import quantize as qz, transforms as tr, variation as va
from .errors import (FreePoissonError, NonConvergenceError, NotPsdError,
                     ValidationError)

SCHEMA = "v1"


def encode_scalar(x, mode):
    if mode == sc.EXACT and isinstance(x, (Fraction, int)):
        f = Fraction(x)
        return {"num": f.numerator, "den": f.denominator}
    x = complex(x)
    return x.real if x.imag == 0 else [x.real, x.imag]


def encode_matrix(m, mode):
    return [[encode_scalar(x, mode) for x in row] for row in np.asarray(m)]


# -- input decoding ----------------------------------------------------------

INT, COUNT, NUM, STR, SCALAR = ("an integer", "a positive integer",
                                "a finite number", "a string", "a scalar")
_LEAVES = {INT: lambda v: type(v) is int,
           COUNT: lambda v: type(v) is int and v > 0,
           NUM: lambda v: type(v) is int or (type(v) is float
                                             and math.isfinite(v)),
           STR: lambda v: type(v) is str}


def _bad(path, message):
    return ValidationError("%s %s" % (path, message), witness={"field": path})


def decode(value, spec, path, mode=None):
    """``value`` read by ``spec``; a misfit raises ValidationError naming
    its path, such as ``input.algebra.gram[1][0]``.

    A spec dict is an object and names the keys read (a key ending in "?"
    may be absent; other keys are ignored), [spec] is a list of any length,
    a tuple a list of exactly its entries, a function picks the spec from
    the value, and the leaves are INT, COUNT, NUM, STR and SCALAR.  A
    scalar is a number, {"num", "den"} or [re, im]; exact ``mode`` makes it
    a Fraction, float mode makes {"num", "den"} a float, and None keeps
    numbers as written.
    """
    if callable(spec):
        spec = spec(value)
    if isinstance(spec, dict):
        if type(value) is not dict:
            raise _bad(path, "must be an object")
        out = {}
        for key, sub in spec.items():
            name = key.rstrip("?")
            if name in value:
                out[name] = decode(value[name], sub, path + "." + name, mode)
            elif name == key:
                raise _bad(path + "." + name, "is missing")
        return out
    if isinstance(spec, (list, tuple)):
        if type(value) is not list:
            raise _bad(path, "must be a list")
        if isinstance(spec, tuple) and len(value) != len(spec):
            raise _bad(path, "must have %d entries" % len(spec))
        subs = spec if isinstance(spec, tuple) else spec * len(value)
        return [decode(v, s, "%s[%d]" % (path, i), mode)
                for i, (v, s) in enumerate(zip(value, subs))]
    if spec == SCALAR:
        if type(value) is dict:
            f = decode(value, {"num": INT, "den": INT}, path)
            if f["den"] == 0:
                raise _bad(path + ".den", "must not be 0")
            f = Fraction(f["num"], f["den"])
            return float(f) if mode == sc.FLOAT else f
        if type(value) is list:
            return complex(*decode(value, (NUM, NUM), path))
        x = decode(value, NUM, path)
        return Fraction(x) if mode == sc.EXACT else x
    if not _LEAVES[spec](value):
        raise _bad(path, "must be " + spec)
    return value


def _parse(parse, text, path, what):
    """parse(text); a ValueError or ArithmeticError names ``path``."""
    try:
        return parse(text)
    except (ValueError, ArithmeticError) as exc:
        raise _bad(path, "%s: %s" % (what, exc)) from None


def _input(args, spec, mode=None):
    """The request's JSON read by spec: --inline or --input if given at all
    (even empty), else stdin; bytes that are not UTF-8 are bad JSON."""
    if args.inline is not None:
        text = args.inline
    elif args.input not in (None, "-"):
        with open(args.input, "rb") as fh:
            text = fh.read()
    else:
        text = sys.stdin.buffer.read()
    return decode(_parse(json.loads, text, "input", "is not JSON"), spec,
                  "input", mode)


def _emit(args, payload):
    """A dict as JSON, or a list of rows as CSV."""
    if isinstance(payload, list):
        text = "\n".join(",".join(str(c) for c in row) for row in payload)
    else:
        text = json.dumps({"schema": SCHEMA, **payload}, indent=2, default=str)
    if args.output and args.output != "-":
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    return 0


def _mode(args):
    m = args.mode or os.environ.get("FREEPOISSON_MODE") or sc.FLOAT
    if m not in (sc.EXACT, sc.FLOAT):
        raise ValidationError("mode must be 'exact' or 'float'")
    return m


# -- input specs -------------------------------------------------------------

# a matrix reads every row as a tuple as long as its first row
MATRIX = lambda m: [(SCALAR,) * len(m[0])] if type(m) is list and m \
    and type(m[0]) is list else [[SCALAR]]
ALGEBRA = {"gram": MATRIX, "s": MATRIX, "lmul": [MATRIX], "unit?": [SCALAR]}
MEASURE = {"atoms?": [(NUM, NUM)], "density?": lambda d: {"kind": STR, **{
    "free_poisson": {"lambda": NUM}, "semicircle": {"a": NUM, "b": NUM},
}.get(type(d) is dict and str(d.get("kind")), {})}}
TRIPLE = {"a": NUM, "b": NUM, "rho": MEASURE}
SPACE = {"blocks": [COUNT], "density": [MATRIX], "mode?": STR}

# -- verb handlers: each returns its output payload --------------------------


def _nc_enumerate(args):
    if args.n is None:
        raise ValidationError("nc enumerate needs --n")
    parts = ncpart.enumerate_nc(args.n)
    return {"n": args.n, "count": len(parts),
            "partitions": [p.to_json() for p in parts]}


def _nc_kreweras(args):
    p = ncpart.NcPartition.from_json(
        _input(args, {"n": COUNT, "blocks": [[INT]]}))
    return {"partition": p.to_json(), "kreweras": ncpart.kreweras(p).to_json()}


def _nc_check(args):
    d = _input(args, {"n?": COUNT, "blocks": [[INT]]})
    return {"noncrossing": ncpart.is_noncrossing(d["blocks"], n=d.get("n"))}


def _cum(args, convert):
    mode = _mode(args)
    d = _input(args, {"values": [{"word": [STR], "value": SCALAR}]}, mode)
    out = convert({tuple(e["word"]): e["value"] for e in d["values"]})
    return {"values": [
        {"word": list(w), "value": encode_scalar(v, mode)}
        for w, v in sorted(out.items(), key=lambda kv: (len(kv[0]), kv[0]))]}


def _algebra(data, mode):
    """An algebra from JSON; its Gram must be Hermitian positive definite."""
    structure = algebra.structure_constants(data["lmul"], len(data["gram"]),
                                            mode)
    alg = algebra.PseudoHilbertAlgebra(
        gram=data["gram"], smat=data["s"], structure=structure,
        unit=data.get("unit") or None, mode=mode)
    g = alg.gram
    if mode == sc.FLOAT:
        sc.spectral_gate("algebra gram", g)     # its Hermitian test
    elif not np.all(g == g.T):
        raise NotPsdError("algebra gram is not Hermitian")
    if len(sc.gram_pivots(g, mode)) < alg.dim:
        raise NotPsdError("algebra gram is not positive definite")
    return alg


def _fock(args, key):
    """The request's mode, its Fock space and its list of vectors ``key``."""
    mode = _mode(args)
    d = _input(args, {"algebra": ALGEBRA, "truncation?": INT, key: MATRIX},
               mode)
    fk = fock.FockSpace(_algebra(d["algebra"], mode), d.get("truncation", 6))
    return mode, fk, d[key]


def _fock_moments(args):
    mode, fk, words = _fock(args, "words")
    val = fock.vacuum_moment([fock.field_X(fk, w) for w in words])
    return {"moment": encode_scalar(val, mode)}


def _fock_wick(args):
    mode, fk, legs = _fock(args, "tensor")
    vec = fock.wick(fk, legs).apply(fk.vacuum())
    return {"tensor_degree": len(legs),
            "vacuum_image": [
                {"index": list(k), "value": encode_scalar(v, mode)}
                for k, v in sorted(vec.entries.items())]}


def _fock_norm(args):
    _, fk, legs = _fock(args, "tensor")
    return {"norm": fock.wick(fk, legs, mode=fock.PROJECTIVE).norm()}


def _dist_density(args):
    if args.law != "free_poisson":
        raise ValidationError("only --law free_poisson has a closed density")
    val, atom = tr.free_poisson_density(args.lam, args.x)
    return {"x": args.x, "density": val, "atom_at_zero": atom,
            "support": list(tr.free_poisson_support(args.lam))}


def _dist_conv(args):
    d = _input(args, {
        "parts": [lambda p: TRIPLE if type(p) is dict and "rho" in p
                  else MEASURE],
        "grid?": [NUM], "points?": [(NUM, NUM)]})
    conv = tr.free_convolve(*[
        (tr.LevyTriple if "rho" in p else tr.Measure).from_json(p)
        for p in d["parts"]])
    out = {"mean": conv.mean()}
    if "grid" in d:
        vals, fails = conv.density_on_grid(d["grid"])
        out["grid"] = d["grid"]
        out["density"] = [None if np.isnan(v) else float(v) for v in vals]
        if fails:
            out["failures"] = [{"x": x, "message": m} for x, m in fails]
    if "points" in d:
        cs = [complex(conv.c(complex(x, y))) for x, y in d["points"]]
        out["C"] = [[c.real, c.imag] for c in cs]
    return out


def _levy_split(args):
    g, comp, cp = tr.levy_ito_split(tr.LevyTriple.from_json(
        _input(args, TRIPLE)))
    return {"gaussian": g.to_json(), "compensated": comp.to_json(),
            "compound": cp.to_json()}


def _levy_cumulants(args):
    d = _input(args, {**TRIPLE, "n?": COUNT})
    n = args.n or d.get("n", 8)
    return {"kappa": tr.cumulants_from_triple(tr.LevyTriple.from_json(d), n)}


def _levy_recover(args):
    triple, verdict = tr.recover_triple_from_cumulants(
        _input(args, {"kappa": [NUM]})["kappa"])
    if not verdict.fid:
        raise ValidationError("not freely infinitely divisible at this order",
                              witness={"pivot": verdict.pivot})
    return {"triple": triple.to_json(), "rank": verdict.rank}


def _cp(args, extra=None):
    """The map a cp request names, and the request read with ``extra``.

    Its matrices are under "kraus", or under "choi" for any other "form".
    """
    def spec(value):
        choi = type(value) is dict and value.get("form", "kraus") != "kraus"
        return {"source": SPACE, "target": SPACE, "form?": STR,
                **({"choi": MATRIX} if choi else {"kraus": [MATRIX]}),
                **(extra or {})}

    d = _input(args, spec)
    src, tgt = (ncps.NcProbSpace(s["blocks"], s["density"],
                                 mode=s.get("mode", sc.FLOAT))
                for s in (d["source"], d["target"]))
    if "choi" in d:
        return qz.CpMap.from_choi(src, tgt,
                                  np.array(d["choi"], dtype=complex)), d
    return qz.CpMap(src, tgt, d["kraus"]), d


def _cp_check(args):
    return qz.check_admissible(_cp(args)[0]).to_json()


def _cp_dual(args):
    dual = qz.petz_dual(_cp(args)[0])
    return {"source": dual.source.to_json(), "target": dual.target.to_json(),
            "form": "kraus",
            "kraus": [encode_matrix(k, sc.FLOAT) for k in dual.kraus]}


def _cp_gamma(args):
    t, d = _cp(args, {"wick_legs": MATRIX, "truncation?": INT})
    L = d.get("truncation", len(d["wick_legs"]) + 2)
    mat = qz.second_quantize(t, [(1.0, d["wick_legs"])], L)
    return {"truncation": L, "matrix": encode_matrix(mat, sc.FLOAT)}


def _classify_filtration(args):
    if args.input is not None or args.inline is not None:
        triple = tr.LevyTriple.from_json(_input(args, TRIPLE))
    else:
        atoms = decode(_parse(json.loads, args.rho, "--rho", "is not JSON"),
                       [(NUM, NUM)], "--rho")
        triple = tr.LevyTriple(a=args.a, b=args.b,
                               rho=tr.Measure(atoms=atoms))
    return classify.filtration_classify(
        triple, args.t, rho_infinite=args.rho_infinite).to_json()


def _classify_freedim(args):
    val = classify.freedim_combine(args.n, _parse(
        Fraction, args.alpha, "--alpha", "is not a rational number"))
    return {"value": encode_scalar(val, sc.EXACT), "equals_two_alpha": True}


def _variation_run(args):
    res = va.run_experiment(va.VariationExperiment(**_input(args, {
        "atoms": [(SCALAR, SCALAR)], "b?": SCALAR, "t?": SCALAR,
        "k?": COUNT, "n_list?": [COUNT]})))
    if args.csv:
        return [("N", "error"), *zip(res["n"], res["errors"])]
    return {key: res[key] for key in ("n", "errors", "slope", "exact")}


VERBS = {
    "nc": {"enumerate": _nc_enumerate, "kreweras": _nc_kreweras,
           "check": _nc_check},
    "cum": {"to-cumulants": lambda a: _cum(a, ncps.cumulants_from_moments),
            "to-moments": lambda a: _cum(
                a, lambda t: ncps.moments_table(t, t))},
    "fock": {"moments": _fock_moments, "wick": _fock_wick, "norm": _fock_norm},
    "dist": {"density": _dist_density, "conv": _dist_conv},
    "levy": {"split": _levy_split, "recover": _levy_recover,
             "cumulants": _levy_cumulants},
    "cp": {"check": _cp_check, "dual": _cp_dual, "gamma": _cp_gamma},
    "classify": {
        "filtration": _classify_filtration, "freedim": _classify_freedim,
        "poisson": lambda a: classify.poisson_filtration(_parse(
            lambda t: float(Fraction(t)), a.alpha, "--alpha",
            "is not a rational number")).to_json()},
    "variation": {"run": _variation_run},
}


def finite(text):
    """argparse type of the float options: nan and inf are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


class _Parser(argparse.ArgumentParser):
    """Usage errors end with a JSON error line and exit 2, like the rest."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(json.dumps({"code": "usage", "message": message})
                         + "\n")
        sys.exit(2)


def build_parser():
    p = _Parser(
        prog="freepoisson",
        description="free Poisson / noncrossing cumulant toolbox")
    sub = p.add_subparsers(dest="cmd", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="JSON input path ('-' for stdin)")
    common.add_argument("--inline", help="inline JSON input")
    common.add_argument("--output", help="output path (default stdout)")
    common.add_argument("--mode", choices=[sc.EXACT, sc.FLOAT])

    verb = {}
    for name, ops in VERBS.items():
        verb[name] = sub.add_parser(name, parents=[common])
        verb[name].add_argument("op", choices=list(ops))
    verb["nc"].add_argument("--n", type=int, default=None)
    verb["dist"].add_argument("--law", default="free_poisson")
    verb["dist"].add_argument("--lambda", dest="lam", type=finite,
                              default=1.0)
    verb["dist"].add_argument("--x", type=finite, default=0.0)
    verb["levy"].add_argument("--n", type=int, default=None)
    cl = verb["classify"]
    cl.add_argument("--n", type=int, default=1)
    cl.add_argument("--alpha", default="1")
    cl.add_argument("--a", type=finite, default=0.0)
    cl.add_argument("--b", type=finite, default=0.0)
    cl.add_argument("--rho", default="[]")
    cl.add_argument("--t", type=finite, default=1.0)
    cl.add_argument("--rho-infinite", action="store_true")
    verb["variation"].add_argument("--csv", action="store_true")
    return p


def run(argv):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _emit(args, VERBS[args.cmd][args.op](args))
    except FreePoissonError as exc:
        err = exc.to_json()
        code = 4 if isinstance(exc, NonConvergenceError) else 2
    except OSError as exc:
        err, code = {"code": "io", "message": str(exc)}, 3
    except (LookupError, ArithmeticError, AttributeError, ValueError,
            TypeError) as exc:
        # the safety net: an input that no check refused made the library
        # fail; exit 2 with a JSON error, never a traceback
        err, code = {"code": "unchecked", "message": "bad input: %s" % exc}, 2
    sys.stderr.write(json.dumps(err) + "\n")
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
