"""Command-line front door: JSON in, JSON or CSV out.

Verbs map one-to-one onto library operations:

    nc enumerate|kreweras|check
    cum to-cumulants|to-moments
    fock moments|wick|norm
    dist density|conv
    levy split|recover|cumulants
    cp check|dual|gamma
    classify filtration|poisson|freedim
    variation run

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 numeric
non-convergence; errors are emitted as {"code", "message", "witness"?}.
Every output carries "schema": "v1".  ``--mode exact`` renders rationals
as {"num", "den"}; the FREEPOISSON_MODE environment variable sets the
default mode.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import _scalars as sc
from .errors import (FreePoissonError, NonConvergenceError, NotPsdError,
                     ValidationError)

SCHEMA = "v1"


def encode_scalar(x, mode):
    if mode == sc.EXACT and isinstance(x, (Fraction, int)):
        f = Fraction(x)
        return {"num": f.numerator, "den": f.denominator}
    x = complex(x)
    if x.imag == 0:
        return x.real
    return [x.real, x.imag]


def decode_scalar(obj, mode):
    if isinstance(obj, dict):
        f = Fraction(int(obj["num"]), int(obj["den"]))
        return f if mode == sc.EXACT else float(f)
    if isinstance(obj, list):
        return complex(obj[0], obj[1])
    if mode == sc.EXACT:
        return sc.as_fraction(obj)
    return obj


def encode_matrix(m, mode):
    m = np.asarray(m)
    if m.ndim == 1:
        return [encode_scalar(x, mode) for x in m]
    return [[encode_scalar(x, mode) for x in row] for row in m]


def decode_matrix(rows, mode):
    return [[decode_scalar(x, mode) for x in row] for row in rows]


def _read_input(args):
    if getattr(args, "inline", None):
        return json.loads(args.inline)
    path = getattr(args, "input", None)
    if not path or path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _emit(args, payload, csv_rows=None):
    if csv_rows is not None:
        text = "\n".join(",".join(str(c) for c in row) for row in csv_rows)
    else:
        if isinstance(payload, dict):
            payload = {"schema": SCHEMA, **payload}
        text = json.dumps(payload, indent=2, default=str)
    out = getattr(args, "output", None)
    if out and out != "-":
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    return 0


def _mode(args):
    m = getattr(args, "mode", None) or os.environ.get("FREEPOISSON_MODE") \
        or sc.FLOAT
    if m not in (sc.EXACT, sc.FLOAT):
        raise ValidationError("mode must be 'exact' or 'float'")
    return m


# -- verb handlers -----------------------------------------------------------

def _cmd_nc(args):
    from . import ncpart
    if args.op == "enumerate":
        if args.n is None:
            raise ValidationError("nc enumerate needs --n")
        parts = ncpart.enumerate_nc(args.n)
        return _emit(args, {"n": args.n, "count": len(parts),
                            "partitions": [p.to_json() for p in parts]})
    data = _read_input(args)
    if args.op == "kreweras":
        p = ncpart.NcPartition.from_json(data)
        return _emit(args, {"partition": p.to_json(),
                            "kreweras": ncpart.kreweras(p).to_json()})
    if args.op == "check":
        n = data.get("n") or sum(len(b) for b in data["blocks"])
        ok = ncpart.is_noncrossing(data["blocks"], n=n)
        return _emit(args, {"noncrossing": ok})
    raise ValidationError("unknown nc op %r" % args.op)


def _cmd_cum(args):
    from . import ncps
    mode = _mode(args)
    data = _read_input(args)
    table = {tuple(e["word"]): decode_scalar(e["value"], mode)
             for e in data["values"]}
    if args.op == "to-cumulants":
        out = ncps.cumulants_from_moments(table)
    elif args.op == "to-moments":
        out = {w: ncps.moments_from_cumulants(table, w) for w in table}
    else:
        raise ValidationError("unknown cum op %r" % args.op)
    return _emit(args, {"values": [
        {"word": list(w), "value": encode_scalar(v, mode)}
        for w, v in sorted(out.items(), key=lambda kv: (len(kv[0]), kv[0]))]})


def _decode_algebra(data, mode):
    """An algebra from JSON; its Gram must be Hermitian positive definite."""
    from .algebra import PseudoHilbertAlgebra
    from .ncps import _check_psd
    alg = PseudoHilbertAlgebra(
        gram=decode_matrix(data["gram"], mode),
        smat=decode_matrix(data["s"], mode),
        lmul=[decode_matrix(m, mode) for m in data["lmul"]],
        unit=[decode_scalar(x, mode) for x in data["unit"]]
        if data.get("unit") else None,
        mode=mode)
    g = alg.gram
    if mode == sc.EXACT:
        hermitian = np.all(g == g.T)
    else:
        hermitian = (np.linalg.norm(g - g.conj().T)
                     <= 1e-12 * max(1.0, np.linalg.norm(g)))
    if not hermitian:
        raise NotPsdError("algebra gram is not Hermitian")
    _check_psd(g, mode)
    if sc.rank(g, mode) < alg.dim:
        raise NotPsdError("algebra gram is not positive definite")
    return alg


def _cmd_fock(args):
    from . import fock
    mode = _mode(args)
    data = _read_input(args)
    alg = _decode_algebra(data["algebra"], mode)
    L = int(data.get("truncation", args.truncation or 6))
    fk = fock.FockSpace(alg, L)
    if args.op == "moments":
        ops = []
        for w in data["words"]:
            ops.append(fock.field_X(fk, [decode_scalar(x, mode) for x in w]))
        val = fock.vacuum_moment(ops)
        return _emit(args, {"moment": encode_scalar(val, mode)})
    if args.op == "wick":
        legs = [[decode_scalar(x, mode) for x in leg]
                for leg in data["tensor"]]
        op = fock.wick(fk, legs)
        vec = op.apply(fk.vacuum())
        return _emit(args, {
            "tensor_degree": len(legs),
            "vacuum_image": [{"index": list(k),
                              "value": encode_scalar(v, mode)}
                             for k, v in sorted(vec.entries.items())]})
    if args.op == "norm":
        legs = [[decode_scalar(x, sc.FLOAT) for x in leg]
                for leg in data["tensor"]]
        op = fock.wick(fk, legs, mode=fock.PROJECTIVE)
        return _emit(args, {"norm": op.norm()})
    raise ValidationError("unknown fock op %r" % args.op)


def _cmd_dist(args):
    from . import transforms as tr
    if args.op == "density":
        if args.law != "free_poisson":
            raise ValidationError("only --law free_poisson has a closed "
                                  "density")
        val, atom = tr.free_poisson_density(args.lam, args.x)
        lo, hi = tr.free_poisson_support(args.lam)
        return _emit(args, {"x": args.x, "density": val, "atom_at_zero": atom,
                            "support": [lo, hi]})
    if args.op == "conv":
        data = _read_input(args)
        parts = []
        for p in data["parts"]:
            if "rho" in p:
                parts.append(tr.LevyTriple.from_json(p))
            else:
                parts.append(tr.Measure.from_json(p))
        conv = tr.free_convolve(*parts)
        out = {"mean": conv.mean()}
        if "grid" in data:
            xs = data["grid"]
            vals, fails = conv.density_on_grid(xs)
            out["grid"] = xs
            out["density"] = [None if np.isnan(v) else float(v)
                              for v in vals]
            if fails:
                out["failures"] = [{"x": x, "message": m} for x, m in fails]
        if "points" in data:
            out["C"] = [[complex(conv.c(complex(z[0], z[1]))).real,
                         complex(conv.c(complex(z[0], z[1]))).imag]
                        for z in data["points"]]
        return _emit(args, out)
    raise ValidationError("unknown dist op %r" % args.op)


def _cmd_levy(args):
    from . import transforms as tr
    data = _read_input(args)
    if args.op == "split":
        triple = tr.LevyTriple.from_json(data)
        g, comp, cp = tr.levy_ito_split(triple)
        return _emit(args, {"gaussian": g.to_json(),
                            "compensated": comp.to_json(),
                            "compound": cp.to_json()})
    if args.op == "cumulants":
        triple = tr.LevyTriple.from_json(data)
        n = int(getattr(args, "n", None) or data.get("n", 8))
        return _emit(args, {"kappa": tr.cumulants_from_triple(triple, n)})
    if args.op == "recover":
        kappas = data["kappa"]
        triple, verdict = tr.recover_triple_from_cumulants(kappas)
        if not verdict.fid:
            raise ValidationError(
                "not freely infinitely divisible at this order",
                witness={"min_eig": verdict.hankel_min_eig})
        return _emit(args, {"triple": triple.to_json(),
                            "rank": verdict.rank})
    raise ValidationError("unknown levy op %r" % args.op)


def _decode_space(data):
    from .ncps import NcProbSpace
    mode = data.get("mode", sc.FLOAT)
    return NcProbSpace(data["blocks"],
                       [decode_matrix(b, mode) for b in data["density"]],
                       mode=mode)


def _decode_cp(data):
    from .quantize import CpMap
    src = _decode_space(data["source"])
    tgt = _decode_space(data["target"])
    if data.get("form", "kraus") == "kraus":
        kraus = [np.array(decode_matrix(k, sc.FLOAT), dtype=complex)
                 for k in data["kraus"]]
        return CpMap(src, tgt, kraus)
    from .quantize import CpMap
    choi = np.array(decode_matrix(data["choi"], sc.FLOAT), dtype=complex)
    return CpMap.from_choi(src, tgt, choi)


def _cmd_cp(args):
    from . import quantize as qz
    data = _read_input(args)
    t = _decode_cp(data)
    if args.op == "check":
        return _emit(args, qz.check_admissible(t).to_json())
    if args.op == "dual":
        dual = qz.petz_dual(t)
        return _emit(args, {
            "source": dual.source.to_json(),
            "target": dual.target.to_json(),
            "form": "kraus",
            "kraus": [encode_matrix(k, sc.FLOAT) for k in dual.kraus]})
    if args.op == "gamma":
        legs = [[decode_scalar(x, sc.FLOAT) for x in leg]
                for leg in data["wick_legs"]]
        L = int(data.get("truncation", len(legs) + 2))
        mat = qz.second_quantize(t, [(1.0, legs)], L)
        return _emit(args, {"truncation": L,
                            "matrix": encode_matrix(mat, sc.FLOAT)})
    raise ValidationError("unknown cp op %r" % args.op)


def _cmd_classify(args):
    from . import classify, transforms as tr
    if args.op == "freedim":
        val = classify.freedim_combine(args.n, Fraction(args.alpha))
        return _emit(args, {"value": encode_scalar(val, sc.EXACT),
                            "equals_two_alpha": True})
    if args.op == "poisson":
        return _emit(args, classify.poisson_filtration(args.alpha).to_json())
    if args.op == "filtration":
        if args.input or args.inline:
            triple = tr.LevyTriple.from_json(_read_input(args))
        else:
            rho = tr.Measure(atoms=[(t, w) for t, w in json.loads(args.rho)])
            triple = tr.LevyTriple(a=args.a, b=args.b, rho=rho)
        desc = classify.filtration_classify(triple, args.t,
                                            rho_infinite=args.rho_infinite)
        return _emit(args, desc.to_json())
    raise ValidationError("unknown classify op %r" % args.op)


def _cmd_variation(args):
    from . import variation as va
    data = _read_input(args)
    exp = va.VariationExperiment(
        atoms=[(sc.as_fraction(t) if isinstance(t, (int, str)) else t,
                sc.as_fraction(w) if isinstance(w, (int, str)) else w)
               for t, w in data["atoms"]],
        b=data.get("b", 0), t=data.get("t", 1), k=int(data.get("k", 2)),
        n_list=tuple(data.get("n_list", (4, 8, 16, 32, 64))))
    res = va.run_experiment(exp)
    if args.csv:
        rows = [("N", "error")] + [(n, e) for n, e in
                                   zip(res["n"], res["errors"])]
        return _emit(args, None, csv_rows=rows)
    return _emit(args, {"n": res["n"], "errors": res["errors"],
                        "slope": res["slope"], "exact": res["exact"]})


def build_parser():
    p = argparse.ArgumentParser(
        prog="freepoisson",
        description="free Poisson / noncrossing cumulant toolbox")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for randomized verbs (reproducibility)")
    sub = p.add_subparsers(dest="cmd", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="JSON input path ('-' for stdin)")
    common.add_argument("--inline", help="inline JSON input")
    common.add_argument("--output", help="output path (default stdout)")
    common.add_argument("--mode", choices=[sc.EXACT, sc.FLOAT])
    common.add_argument("--tolerance", type=float, default=None)

    nc = sub.add_parser("nc", parents=[common])
    nc.add_argument("op", choices=["enumerate", "kreweras", "check"])
    nc.add_argument("--n", type=int, default=None)
    nc.set_defaults(fn=_cmd_nc)

    cum = sub.add_parser("cum", parents=[common])
    cum.add_argument("op", choices=["to-cumulants", "to-moments"])
    cum.set_defaults(fn=_cmd_cum)

    fk = sub.add_parser("fock", parents=[common])
    fk.add_argument("op", choices=["moments", "wick", "norm"])
    fk.add_argument("--truncation", type=int, default=None)
    fk.set_defaults(fn=_cmd_fock)

    dist = sub.add_parser("dist", parents=[common])
    dist.add_argument("op", choices=["density", "conv"])
    dist.add_argument("--law", default="free_poisson")
    dist.add_argument("--lambda", dest="lam", type=float, default=1.0)
    dist.add_argument("--x", type=float, default=0.0)
    dist.set_defaults(fn=_cmd_dist)

    levy = sub.add_parser("levy", parents=[common])
    levy.add_argument("op", choices=["split", "recover", "cumulants"])
    levy.add_argument("--n", type=int, default=None)
    levy.set_defaults(fn=_cmd_levy)

    cp = sub.add_parser("cp", parents=[common])
    cp.add_argument("op", choices=["check", "dual", "gamma"])
    cp.set_defaults(fn=_cmd_cp)

    cl = sub.add_parser("classify", parents=[common])
    cl.add_argument("op", choices=["filtration", "poisson", "freedim"])
    cl.add_argument("--n", type=int, default=1)
    cl.add_argument("--alpha", default="1")
    cl.add_argument("--a", type=float, default=0.0)
    cl.add_argument("--b", type=float, default=0.0)
    cl.add_argument("--rho", default="[]")
    cl.add_argument("--t", type=float, default=1.0)
    cl.add_argument("--rho-infinite", action="store_true")
    cl.set_defaults(fn=_cmd_classify)

    var = sub.add_parser("variation", parents=[common])
    var.add_argument("op", choices=["run"])
    var.add_argument("--csv", action="store_true")
    var.set_defaults(fn=_cmd_variation)
    return p


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.seed is not None:
        np.random.seed(args.seed)
    try:
        if getattr(args, "alpha", None) is not None and args.cmd == "classify":
            try:
                args.alpha = Fraction(args.alpha)
            except (ValueError, ZeroDivisionError):
                args.alpha = float(args.alpha)
        return args.fn(args)
    except NonConvergenceError as exc:
        sys.stderr.write(json.dumps(exc.to_json()) + "\n")
        return 4
    except FreePoissonError as exc:
        sys.stderr.write(json.dumps(exc.to_json()) + "\n")
        return 2
    except OSError as exc:
        sys.stderr.write(json.dumps({"code": "io", "message": str(exc)})
                         + "\n")
        return 3
    except (KeyError, ValueError, TypeError) as exc:
        # JSONDecodeError is a ValueError; so are non-numeric entries
        sys.stderr.write(json.dumps({"code": "validation",
                                     "message": "bad input: %s" % exc})
                         + "\n")
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
