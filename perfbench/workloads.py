"""The three closed-loop workloads.

Each workload turns a seed into rounds of operations.  An operation is a
call into freepoisson's public API (a CLI request goes through
``cli.run`` in the same process) plus a check that uses public API only.
Shapes are fixed per position in a round and the seed draws the values,
so the cost of a round hardly moves between seeds while the inputs do.

Rounds are laid out so that the median and the tail latency land inside
one class of operations of similar cost: the median class holds the
middle three operations of a round, and the tail class (the costliest
operations, two or three a round) holds the eleventh-largest latency
once a run has six rounds or more, which a run has even when the
machine runs at half speed.  Otherwise those order statistics would jump
between classes as the number of rounds in a run changes.  Exact inputs draw
signs and inversions (p/q or q/p) of fixed magnitudes, so the seed
changes the values but hardly the sizes of the rationals, and with them
the cost.

A check returns a dict with ``status`` ("ok", "failed": the call broke
its contract, or "wrong": it returned a wrong value) and optional
``tol_use`` (layer, observed error / pinned tolerance) and ``slack``.
"""

import contextlib
import io
import json
import math
import random
import traceback
from collections import namedtuple
from fractions import Fraction
from itertools import product

import numpy as np

Op = namedtuple("Op", "kind call check argv", defaults=(None,))

ROUNDS = 48       # rounds of inputs generated in set-up; the loop wraps


def ok(**extra):
    return dict(status="ok", **extra)


def failed(detail):
    return {"status": "failed", "detail": detail}


def wrong(detail, **extra):
    return dict(status="wrong", detail=detail, **extra)


def within(err, tol, layer, detail):
    """Status of an observed error against a pinned tolerance."""
    use = (layer, err / tol)
    if err <= tol:
        return ok(tol_use=use)
    return wrong("%s: error %.3e > %.0e" % (detail, err, tol), tol_use=use)


def signed(rng, x, sign=True):
    """x or 1/x, negated at random when ``sign``: sizes do not change."""
    x = x if rng.random() < 0.5 else 1 / x
    return -x if sign and rng.random() < 0.5 else x


# (location, weight) magnitudes of the first and second atom
ATOM_SLOTS = ((Fraction(3, 2), Fraction(2)), (Fraction(2), Fraction(2, 3)))


class Workload:
    """Set-up builds every round's inputs; ``warm`` fills caches."""

    def __init__(self, seed):
        self.seed = seed
        rng = random.Random(seed)
        nrng = np.random.default_rng(seed)
        self.rounds = [self.make_round(r, rng, nrng) for r in range(ROUNDS)]

    def round(self, r):
        return self.rounds[r % ROUNDS]

    def warm(self):
        pass


# -- exact_variation ----------------------------------------------------------


class ExactVariation(Workload):
    """Exact k-th variation errors on seeded rational Levy data."""

    # (atoms, Gaussian part, k, N); algebra dim = N * (atoms + gaussian).
    # Five cheaper shapes, three of the median class, then six costlier
    # ones; the two 2-atom Gaussian shapes are the tail class.  A round
    # takes 1.6-2.2 s, so a 35 s run holds 16 to 22 of them.
    SHAPES = ((1, False, 2, 8), (1, False, 2, 8), (1, False, 3, 8),
              (1, False, 2, 10), (1, False, 2, 10),
              (1, False, 2, 12), (1, False, 2, 12), (1, False, 2, 12),
              (1, False, 3, 10), (1, False, 3, 12), (1, True, 2, 8),
              (2, False, 3, 8), (2, True, 2, 8), (2, True, 2, 8))

    def make_round(self, r, rng, nrng):
        from freepoisson.variation import VariationExperiment
        ops = []
        for n_atoms, gauss, k, n_bins in self.SHAPES:
            atoms = [(signed(rng, loc), signed(rng, w, sign=False))
                     for loc, w in ATOM_SLOTS[:n_atoms]]
            b = signed(rng, Fraction(1, 2)) if gauss else 0
            exact = VariationExperiment(atoms=atoms, b=b, t=1, k=k,
                                        n_list=(n_bins,))
            replica = VariationExperiment(
                atoms=[(float(x), float(w)) for x, w in atoms], b=float(b),
                t=1.0, k=k, n_list=(n_bins,))
            ops.append(self._op(exact, replica, n_bins))
        return ops

    @staticmethod
    def _op(exact, replica, n_bins):
        from freepoisson import variation

        def call():
            return variation.variation_error(exact, n_bins)

        def check(err):
            ref = variation.variation_error(replica, n_bins)
            rel = abs(err - ref) / max(abs(ref), 1e-300)
            return within(rel, 1e-9, "variation", "exact vs float replica")

        kind = "k%d_N%d_a%d%s" % (exact.k, n_bins, len(exact.atoms),
                                  "_gauss" if exact.b else "")
        return Op(kind, call, check)

    def warm(self):
        from freepoisson.variation import VariationExperiment, variation_error
        for atoms in ([(1, 1)], [(1.0, 1.0)]):
            variation_error(VariationExperiment(atoms=atoms, n_list=(2,)), 2)


# -- nc_cumulants -------------------------------------------------------------


class NcCumulants(Workload):
    """Exact moment <-> cumulant round trips and lattice sweeps."""

    # five cheaper operations, three order-5 two-letter round trips (the
    # median class, next to the order-9 enumeration) and four costlier
    # ones; the two order-9 single-variable round trips are the tail
    # class.  A round takes about 2.1 s.
    ROUND = (("roundtrip_x", 6), ("roundtrip_x", 6), ("roundtrip_ab", 4),
             ("roundtrip_x", 7), ("kreweras", 8),
             ("roundtrip_ab", 5), ("roundtrip_ab", 5), ("roundtrip_ab", 5),
             ("enumerate", 9), ("roundtrip_x", 8), ("kreweras", 9),
             ("roundtrip_x", 9), ("roundtrip_x", 9))

    def make_round(self, r, rng, nrng):
        ops = []
        for kind, n in self.ROUND:
            if kind == "roundtrip_x":
                words = [("x",) * k for k in range(1, n + 1)]
            elif kind == "roundtrip_ab":
                words = [w for k in range(1, n + 1)
                         for w in product("ab", repeat=k)]
            if kind.startswith("roundtrip"):
                # Each word's cumulant is 3/2 or 2/3 by its first letter
                # (by the parity of its length, for one variable); the seed
                # picks which.  Values of fixed size keep the cost steady,
                # and a moment built from a wrong subword changes the
                # result.
                pair = (Fraction(3, 2), Fraction(2, 3))
                if rng.random() < 0.5:
                    pair = pair[::-1]
                cums = {w: pair[w[0] == "a" if kind == "roundtrip_ab"
                                else len(w) % 2] for w in words}
                ops.append(self._roundtrip(kind, n, cums))
            else:
                ops.append(getattr(self, "_" + kind)(n))
        return ops

    @staticmethod
    def _roundtrip(kind, n, cums):
        from freepoisson import ncps

        def call():
            moms = {w: ncps.moments_from_cumulants(cums, w) for w in cums}
            return ncps.cumulants_from_moments(moms)

        def check(back):
            if back == cums:
                return ok()
            return wrong("round trip changed the cumulants")

        return Op("%s%d" % (kind, n), call, check)

    @staticmethod
    def _enumerate(n):
        from freepoisson import ncpart

        def check(parts):
            if len(parts) == ncpart.catalan(n):
                return ok()
            return wrong("|NC(%d)| = %d" % (n, len(parts)))

        return Op("enumerate%d" % n, lambda: ncpart.enumerate_nc(n), check)

    @staticmethod
    def _kreweras(n):
        from freepoisson import ncpart

        def call():
            return [(p, ncpart.kreweras(p)) for p in ncpart.enumerate_nc(n)]

        def check(pairs):
            bad = [p for p, k in pairs if len(p) + len(k) != n + 1]
            if not bad and len(pairs) == ncpart.catalan(n):
                return ok()
            return wrong("|pi| + |K(pi)| != n + 1 at %r" % bad[:1])

        return Op("kreweras%d" % n, call, check)

    def warm(self):
        from freepoisson.ncpart import enumerate_nc
        for n in range(1, 10):
            enumerate_nc(n)


# -- float_operators ----------------------------------------------------------


class FloatOperators(Workload):
    """Dense Fock norms, second quantization, a few transforms and CLI
    requests."""

    # nine cheaper operations (four of them CLI requests, one malformed
    # and one crashing), three gamma n=2 L=4 (the median class) and nine
    # costlier ones; the three dim-2 n=3 norms are the tail class.  A
    # round takes about 1.9 s.
    ROUND = (("recover",), ("density",), ("wick_in", 2, 1), ("wick_in", 2, 2),
             ("gamma", 1, 3), ("cli", 0), ("cli", 1), ("cli", "malformed"),
             ("cli", "crashing"),
             ("gamma", 2, 4), ("gamma", 2, 4), ("gamma", 2, 4),
             ("gamma", 2, 5), ("gamma", 2, 5), ("gamma", 2, 5),
             ("gamma", 3, 5), ("gamma", 3, 5), ("gamma", 3, 5),
             ("wick_in", 2, 3), ("wick_in", 2, 3), ("wick_in", 2, 3))

    def make_round(self, r, rng, nrng):
        return [self._cli(args[0], r, rng, nrng) if kind == "cli"
                else getattr(self, "_" + kind)(nrng, *args)
                for kind, *args in self.ROUND]

    def _cli(self, slot, r, rng, nrng):
        """A request by its slot: well-formed verbs in turn, or a
        malformed one from either pool."""
        if slot in ("malformed", "crashing"):
            pool = CLI_MALFORMED if slot == "malformed" else CLI_CRASHING
            return cli_op(slot, pool[(r + self.seed) % len(pool)],
                          expect_error)
        verb = CLI_VERBS[(2 * r + slot) % len(CLI_VERBS)]
        argv, check = globals()["cli_" + verb](rng, nrng)
        return cli_op(verb, argv, check)

    @staticmethod
    def _wick_in(nrng, dim, n):
        """||I_n(x)|| against the Haagerup bound, like criterion 8."""
        from freepoisson import _scalars as sc
        from freepoisson import fock
        from freepoisson.ncps import diag_space
        space = diag_space(list(nrng.uniform(0.5, 1.2, size=dim)),
                           mode=sc.FLOAT)
        xs = [space.element([[[v]] for v in nrng.normal(size=dim)])
              for _ in range(n)]
        xnorm = math.prod(max(abs(complex(b[0, 0])) for b in x) for x in xs)

        def call():
            fk = fock.FockSpace(fock.gns_algebra(space), 2 * n + 2)
            return fock.wick_embedding_In(fk, xs)[1]

        def check(norm):
            bound = fock.haagerup_bound(space, n) * xnorm
            if norm <= bound + 1e-9:
                return ok(slack=("fock", bound - norm))
            return wrong("norm %.6g above bound %.6g" % (norm, bound),
                         slack=("fock", bound - norm))

        return Op("wick_in_d%d_n%d" % (dim, n), call, check)

    @staticmethod
    def _kraus(nrng):
        """A seeded admissible map between 2-point spaces (criterion 9)."""
        phi = np.array([0.6, 0.9])
        psi = np.array([0.8, 0.5])
        a = nrng.uniform(0.05, 1.0, size=(2, 2))
        scale = min(1.0 / a.sum(axis=1).max(), (phi / (a.T @ psi)).min())
        a *= scale * nrng.uniform(0.5, 0.99)
        kraus = []
        for i in range(2):
            for j in range(2):
                k = np.zeros((2, 2), dtype=complex)
                k[i, j] = math.sqrt(a[i, j])
                kraus.append(k)
        return phi, psi, kraus

    @classmethod
    def _gamma(cls, nrng, n, L):
        """second_quantize against Psi(T2 legs) on the target, like
        criterion 9."""
        from freepoisson import _scalars as sc
        from freepoisson import quantize
        from freepoisson.ncps import diag_space
        phi, psi, kraus = cls._kraus(nrng)
        t = quantize.CpMap(diag_space(list(phi), mode=sc.FLOAT),
                           diag_space(list(psi), mode=sc.FLOAT), kraus)
        legs = [nrng.normal(size=2) + 1j * nrng.normal(size=2)
                for _ in range(n)]

        def call():
            return quantize.second_quantize(t, [(1.0, legs)], L)

        def check(got):
            t2 = t.t2_matrix()
            want = quantize.wick_matrix_on_target(t, [t2 @ x for x in legs],
                                                  L)
            return within(float(np.abs(got - want).max()), 1e-8, "quantize",
                          "Gamma(T) vs Psi(T2 legs)")

        return Op("gamma_n%d_L%d" % (n, L), call, check)

    @staticmethod
    def _density(nrng):
        """Density of free Poisson boxplus a point mass: a shifted free
        Poisson density (the shift test's pinned 1e-6)."""
        from freepoisson import transforms as tr
        lam = float(nrng.uniform(1.0, 2.0))
        shift = float(nrng.uniform(-1.0, 1.0))
        lo, hi = tr.free_poisson_support(lam)
        width = hi - lo
        xs = list(np.linspace(lo + 0.1 * width, hi - 0.1 * width, 13) + shift)

        def call():
            conv = tr.free_convolve(tr.free_poisson_measure(lam),
                                    tr.Measure(atoms=[(shift, 1.0)]))
            return conv.density_on_grid(xs)

        def check(result):
            vals, fails = result
            if fails:
                return failed("%d grid points failed" % len(fails))
            err = max(abs(v - mp_density(lam, x - shift))
                      for v, x in zip(vals, xs))
            return within(err, 1e-6, "transforms", "density")

        return Op("density", call, check)

    @staticmethod
    def _recover(nrng):
        """Triple -> cumulants -> triple, like criterion 10."""
        from freepoisson import transforms as tr
        locs = np.array([-2.2, 0.7, 2.5]) + nrng.uniform(-0.2, 0.2, size=3)
        ws = nrng.uniform(0.2, 1.5, size=3)
        triple = tr.LevyTriple(a=float(nrng.normal()),
                               b=float(nrng.uniform(0.3, 1.2)),
                               rho=tr.Measure(atoms=list(zip(
                                   map(float, locs), map(float, ws)))))
        kappas = tr.cumulants_from_triple(triple, 12)

        def call():
            return tr.recover_triple_from_cumulants(kappas)

        def check(result):
            got, verdict = result
            if got is None or not verdict.fid:
                return wrong("FID triple rejected")
            return triple_error(got, triple)

        return Op("recover", call, check)

    def warm(self):
        # first calls import scipy.linalg / scipy.sparse paths lazily
        nrng = np.random.default_rng(self.seed)
        for op in (self._wick_in(nrng, 2, 1), self._gamma(nrng, 1, 3),
                   self._density(nrng), self._recover(nrng),
                   cli_op("warm", ["classify", "freedim", "--n", "2",
                                   "--alpha", "5/2"], None)):
            op.call()


def mp_density(lam, x):
    """Free Poisson (Marchenko-Pastur) density, continuous part."""
    disc = 4 * lam - (x - (lam + 1)) ** 2
    return math.sqrt(disc) / (2 * math.pi * x) if disc > 0 and x > 0 else 0.0


def triple_error(got, want):
    """Atoms within 1e-7, drift within 1e-7, Gaussian scale within 1e-6."""
    ga, wa = sorted(got.rho.atoms), sorted(want.rho.atoms)
    if len(ga) != len(wa):
        return wrong("recovered %d atoms, want %d" % (len(ga), len(wa)))
    use = max([abs(g[0] - w[0]) / 1e-7 for g, w in zip(ga, wa)] +
              [abs(got.a - want.a) / 1e-7, abs(got.b - want.b) / 1e-6])
    if use <= 1:
        return ok(tol_use=("transforms", use))
    return wrong("triple off by %.3g tolerances" % use,
                 tol_use=("transforms", use))


# -- CLI requests, in process (part of float_operators) ----------------------

# Well-formed verbs, taken two a round in turn.  They touch transforms,
# classify, quantize and float fock only, so the lattice layers stay out.
CLI_VERBS = ("dist_density", "classify_poisson", "levy_split", "cp_check",
             "dist_conv", "classify_filtration", "levy_recover",
             "fock_moments", "levy_cumulants", "classify_freedim", "cp_gamma",
             "fock_wick")

# Malformed requests from the documented error contract: they exit 2 with
# a JSON error.
CLI_MALFORMED = (
    ["fock", "moments", "--inline", "{"],
    ["dist", "density", "--law", "semicircle"],
    ["levy", "recover", "--inline", '{"kappa":[0,0,1,0,0,0]}'],
    ["classify", "filtration", "--b", "0", "--rho", "[]", "--t", "1"],
)

# Malformed requests that still crash with a traceback (exit 1); each
# counts as a failed operation until the CLI honours the contract.
CLI_CRASHING = (
    ["nc", "enumerate"],
    ["classify", "poisson", "--alpha", "abc"],
    ["levy", "recover", "--inline", '{"kappa":["a","b"]}'],
)


def cli_op(kind, argv, check):
    """One request through ``cli.run`` in this process.

    The call returns (exit code, stdout, stderr) as a process would: an
    exception that escapes ``cli.run`` is exit 1 with a traceback."""
    from freepoisson import cli

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(list(argv))
            except Exception:
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue()

    def judge(result):
        code, out, err = result
        if check is expect_error:
            return expect_error(code, err)
        if code != 0:
            return failed("exit %d: %s" % (code, err.strip()[-200:]))
        try:
            return check(out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return wrong("unreadable output: %r" % (exc,))

    return Op(kind, call, judge, list(argv))


# Well-formed requests, each built as (argv, check(stdout)).


def cli_fock_moments(rng, nrng):
    # X(a)^4 over one point of mass w: cumulants k_n = w a^n (n >= 2),
    # so m_4 = k_4 + 2 k_2^2.
    w = rng.choice((0.5, 1.0, 2.0))
    a = float(nrng.uniform(0.5, 2.0))
    want = w * a ** 4 + 2 * (w * a * a) ** 2
    payload = {"algebra": {"gram": [[w]], "s": [[1.0]],
                           "lmul": [[[1.0]]], "unit": [1.0]},
               "truncation": 4, "words": [[a]] * 4}

    def check(out):
        got = json.loads(out)["moment"]
        return within(abs(got - want) / want, 1e-12, "fock", "m_4")

    return ["fock", "moments", "--inline", json.dumps(payload)], check


def cli_fock_wick(rng, nrng):
    a, b = (float(v) for v in nrng.uniform(0.5, 2.0, size=2))
    payload = {"algebra": {"gram": [[1.0]], "s": [[1.0]],
                           "lmul": [[[0.0]]]},
               "truncation": 3, "tensor": [[a], [b]]}

    def check(out):
        img = json.loads(out)["vacuum_image"]
        if len(img) == 1 and img[0]["index"] == [0, 0]:
            return within(abs(img[0]["value"] - a * b), 1e-12, "fock",
                          "Psi(a x b) Omega")
        return wrong("vacuum image %r" % (img,))

    return ["fock", "wick", "--inline", json.dumps(payload)], check


def cli_dist_density(rng, nrng):
    lam = float(nrng.uniform(0.5, 2.0))
    lo, hi = (math.sqrt(lam) - 1) ** 2, (math.sqrt(lam) + 1) ** 2
    x = float(nrng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo)))

    def check(out):
        data = json.loads(out)
        if data["atom_at_zero"] != max(1 - lam, 0.0):
            return wrong("atom %r" % data["atom_at_zero"])
        return within(abs(data["density"] - mp_density(lam, x)), 1e-12,
                      "transforms", "density")

    return ["dist", "density", "--law", "free_poisson", "--lambda",
            repr(lam), "--x", repr(x)], check


def cli_dist_conv(rng, nrng):
    lam = float(nrng.uniform(1.0, 2.0))
    shift = float(nrng.uniform(-1.0, 1.0))
    lo, hi = (math.sqrt(lam) - 1) ** 2, (math.sqrt(lam) + 1) ** 2
    xs = [float(x) + shift for x in
          np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 5)]
    payload = {"parts": [{"atoms": [], "density": {
        "kind": "free_poisson", "lambda": lam}},
        {"atoms": [[shift, 1.0]]}], "grid": xs}

    def check(out):
        data = json.loads(out)
        if data.get("failures"):
            return failed("grid failures %r" % data["failures"])
        err = max(abs(v - mp_density(lam, x - shift))
                  for v, x in zip(data["density"], xs))
        return within(err, 1e-6, "transforms", "density")

    return ["dist", "conv", "--inline", json.dumps(payload)], check


def cli_levy_split(rng, nrng):
    atoms = [[float(nrng.uniform(-1, 1)), float(nrng.uniform(0.2, 1.5))],
             [float(nrng.uniform(1.5, 3)), float(nrng.uniform(0.2, 1.5))],
             [float(nrng.uniform(-3, -1.5)),
              float(nrng.uniform(0.2, 1.5))]]
    a, b = float(nrng.normal()), float(nrng.uniform(0, 1))
    payload = {"a": a, "b": b, "rho": {"atoms": atoms}}

    def check(out):
        data = json.loads(out)
        g = data["gaussian"]
        small = data["compensated"]["rho"]["atoms"]
        large = data["compound"]["rho"]["atoms"]
        good = (g["a"] == a and g["b"] == b and not g["rho"]["atoms"]
                and sorted(small + large) == sorted(atoms)
                and all(abs(t) <= 1 for t, _ in small)
                and all(abs(t) > 1 for t, _ in large))
        return ok() if good else wrong("split %r" % (data,))

    return ["levy", "split", "--inline", json.dumps(payload)], check


def cli_levy_recover(rng, nrng):
    from freepoisson import transforms as tr
    triple = tr.LevyTriple(
        a=float(nrng.normal()), b=float(nrng.uniform(0.3, 1.2)),
        rho=tr.Measure(atoms=[(float(nrng.uniform(-2.4, -2.0)),
                               float(nrng.uniform(0.2, 1.5))),
                              (float(nrng.uniform(0.5, 0.9)),
                               float(nrng.uniform(0.2, 1.5)))]))
    kappas = tr.cumulants_from_triple(triple, 8)

    def check(out):
        got = tr.LevyTriple.from_json(json.loads(out)["triple"])
        return triple_error(got, triple)

    return ["levy", "recover", "--inline",
            json.dumps({"kappa": kappas})], check


def cli_levy_cumulants(rng, nrng):
    lam = float(nrng.uniform(0.5, 2.0))
    payload = {"a": lam, "b": 0.0, "rho": {"atoms": [[1.0, lam]]}}

    def check(out):
        err = max(abs(k - lam) for k in json.loads(out)["kappa"])
        return within(err, 1e-12, "transforms", "free Poisson kappa")

    return ["levy", "cumulants", "--n", "6", "--inline",
            json.dumps(payload)], check


def cli_cp_payload(nrng):
    phi, psi, kraus = FloatOperators._kraus(nrng)

    def space(w):
        return {"blocks": [1, 1], "density": [[[float(w[0])]],
                                              [[float(w[1])]]],
                "mode": "float"}

    return {"source": space(phi), "target": space(psi), "form": "kraus",
            "kraus": [[[float(v.real) for v in row] for row in k]
                      for k in kraus]}


def cli_cp_check(rng, nrng):
    payload = cli_cp_payload(nrng)

    def check(out):
        got = json.loads(out)["admissible"]
        return ok() if got is True else wrong("admissible = %r" % got)

    return ["cp", "check", "--inline", json.dumps(payload)], check


def cli_cp_gamma(rng, nrng):
    payload = cli_cp_payload(nrng)
    leg = [float(v) for v in nrng.normal(size=2)]
    payload["wick_legs"] = [leg]
    payload["truncation"] = 3

    def check(out):
        from freepoisson import _scalars as sc
        from freepoisson import quantize
        from freepoisson.ncps import diag_space
        src = payload["source"]["density"]
        tgt = payload["target"]["density"]
        t = quantize.CpMap(
            diag_space([b[0][0] for b in src], mode=sc.FLOAT),
            diag_space([b[0][0] for b in tgt], mode=sc.FLOAT),
            [np.array(k, dtype=complex) for k in payload["kraus"]])
        want = quantize.wick_matrix_on_target(
            t, [t.t2_matrix() @ np.array(leg, dtype=complex)], 3)
        got = np.array([[complex(*v) if isinstance(v, list) else v
                         for v in row]
                        for row in json.loads(out)["matrix"]])
        return within(float(np.abs(got - want).max()), 1e-8, "quantize",
                      "Gamma(T) vs Psi(T2 leg)")

    return ["cp", "gamma", "--inline", json.dumps(payload)], check


def cli_classify_poisson(rng, nrng):
    alpha = Fraction(rng.randint(1, 12), rng.randint(2, 4))
    want = ({"kind": "interpolated_free_group", "r": float(2 * alpha)}
            if alpha >= 1 else
            {"kind": "with_atom", "r": 2.0, "alpha": float(alpha)})

    def check(out):
        got = json.loads(out)
        got.pop("schema", None)
        return ok() if got == want else wrong("descriptor %r" % got)

    return ["classify", "poisson", "--alpha", str(alpha)], check


def cli_classify_filtration(rng, nrng):
    mass = Fraction(rng.randint(1, 8), 4)
    t = Fraction(rng.randint(1, 8), 4)
    tm = float(t * mass)
    want = ({"kind": "interpolated_free_group", "r": 2 * tm} if tm >= 1
            else {"kind": "with_atom", "r": 2.0, "alpha": tm})

    def check(out):
        got = json.loads(out)
        got.pop("schema", None)
        return ok() if got == want else wrong("descriptor %r" % got)

    return ["classify", "filtration", "--b", "0", "--rho",
            json.dumps([[1.0, float(mass)]]), "--t", repr(float(t))], check


def cli_classify_freedim(rng, nrng):
    n = rng.randint(1, 9)
    alpha = n + Fraction(rng.randint(1, 48), 48)

    def check(out):
        got = json.loads(out)["value"]
        if Fraction(got["num"], got["den"]) == 2 * alpha:
            return ok()
        return wrong("value %r" % (got,))

    return ["classify", "freedim", "--n", str(n), "--alpha",
            str(alpha)], check


def expect_error(code, err):
    """Malformed input: exit 2 with a JSON error object on stderr."""
    lines = err.strip().splitlines()
    try:
        body = json.loads(lines[-1]) if lines else None
    except ValueError:
        body = None
    if code == 2 and isinstance(body, dict) and "code" in body:
        return ok(error_exit=True)
    return dict(failed("exit %d without a JSON error" % code),
                error_exit=False)


WORKLOADS = {
    "exact_variation": ExactVariation,
    "nc_cumulants": NcCumulants,
    "float_operators": FloatOperators,
}
