"""Completely positive maps between weighted matrix algebras and their
second quantization on truncated Fock spaces.

A map is stored in Kraus form acting on the ambient full-matrix embedding;
its value is compressed back onto the block-diagonal target, which keeps
complete positivity and covers plain Kraus maps unchanged.  The weight
pairing used throughout is the symmetric finite-dimensional biweight

    [x, y] = trace(rho^{1/2} y rho^{1/2} x),

under which the dual of T is the Petz (KMS) adjoint

    T*(n) = rho_M^{-1/2} Tt(rho_N^{1/2} n rho_N^{1/2}) rho_M^{-1/2},

with Tt the trace adjoint.  On L^2 the dual acts as J_M T2^* J_N, which the
tests check against this closed form.

L^2(M, phi) itself, with its Gram, S, J and left multiplication on matrix
units, is built once, by ``fock.GnsAlgebra``.  ``L2Space`` transports that
core to orthonormal coordinates through the Cholesky factor of its Gram,
and the Stinespring correspondence and the duality isometry read the
core's matrices directly.

The second quantization dilates through the three-summand space
L^2(M) + H_T + L^2(N): an isometry k_M feeds the source fields into the
Stinespring correspondence H_T, the coisometry p_N compresses onto the
target through ``fock.transport``, and Wick words map to Wick words of
the L^2-compression T2.
"""

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import _scalars as sc
from .algebra import PseudoHilbertAlgebra, structure_constants
from .errors import DomainError, ShapeError, TruncationError, ValidationError
from .fock import (PROJECTIVE, FockSpace, GnsAlgebra, transport, wick,
                   wick_words)
from .ncps import NcProbSpace

COISOMETRY_TOL = 1e-10


def _embed(space, x):
    """Block element -> ambient full matrix."""
    out = np.zeros((sum(space.block_dims),) * 2, dtype=complex)
    o = 0
    for d, b in zip(space.block_dims, x):
        out[o:o + d, o:o + d] = sc.to_float_array(b)
        o += d
    return out


def _compress(space, mat):
    """Ambient matrix -> block element (conditional expectation)."""
    o = [0, *accumulate(space.block_dims)]
    return [np.array(mat[a:b, a:b], dtype=complex) for a, b in zip(o, o[1:])]


class L2Space:
    """Orthonormal coordinates on L^2(M, phi) = (M, <x,y> = tr(rho x* y)).

    A Cholesky transport of the matrix-unit core ``fock.GnsAlgebra``, built
    over a float copy of the space: ``chol`` is the Cholesky factor of the
    core's Gram matrix, so matrix-unit coefficients u and orthonormal
    coordinates c are related by c = chol^H u.
    """

    def __init__(self, space):
        self.space = space
        if space.mode != sc.FLOAT:
            space = NcProbSpace(space.block_dims, space.density, sc.FLOAT)
        self._alg = GnsAlgebra(space)
        self.units = self._alg.units
        self.dim = self._alg.dim
        self.gram = self._alg.gram
        self.chol = np.linalg.cholesky(0.5 * (self.gram + self.gram.conj().T))
        self._chol_hinv = np.linalg.inv(self.chol.conj().T)

    def to_onb(self, x):
        """eta(x) in orthonormal coordinates."""
        return self.chol.conj().T @ self._alg.eta(x)

    def from_onb(self, c):
        return self._alg.from_eta(self._chol_hinv @ c)

    def linear_map_onb(self, unit_matrix):
        """Transport a linear map given on unit coefficients to the onb."""
        return self.chol.conj().T @ unit_matrix @ self._chol_hinv

    def antilinear_map_onb(self, unit_matrix):
        """Same for antilinear maps v -> M conj(v)."""
        return self.chol.conj().T @ unit_matrix @ np.conj(self._chol_hinv)

    def lmult_onb(self, x):
        """Left multiplication by the element x, on onb coordinates."""
        return self.linear_map_onb(self._alg.pi_l(self._alg.eta(x)))

    def smat_onb(self):
        return self.antilinear_map_onb(self._alg.smat)

    def jmat_onb(self):
        """J = S Delta^{-1/2}: antilinear matrix on onb coordinates."""
        return self.antilinear_map_onb(self._alg.jmat)

    def onb_algebra(self):
        """PseudoHilbertAlgebra view (gram = identity) for Fock builders."""
        lmul = [self.linear_map_onb(self._alg.pi_l(u))
                for u in self._chol_hinv.T]
        return PseudoHilbertAlgebra(
            gram=np.eye(self.dim), smat=self.smat_onb(),
            structure=structure_constants(lmul, self.dim, sc.FLOAT),
            unit=self.chol.conj().T @ self._alg.unit,
            delta=self.linear_map_onb(self._alg.delta),
            jmat=self.jmat_onb(), mode=sc.FLOAT)


@dataclass
class CpMap:
    """T(x) = E_N( sum_i K_i x K_i^H ) between block-diagonal spaces."""

    source: NcProbSpace
    target: NcProbSpace
    kraus: list = field(default_factory=list)

    def __post_init__(self):
        dm = sum(self.source.block_dims)
        dn = sum(self.target.block_dims)
        self.kraus = [np.asarray(k, dtype=complex) for k in self.kraus]
        for k in self.kraus:
            if k.shape != (dn, dm):
                raise ShapeError("Kraus operator shape %s != (%d, %d)"
                                 % (k.shape, dn, dm))

    def apply(self, x):
        xm, out = _embed(self.source, x), _embed(self.target, [])
        for k in self.kraus:
            out += k @ xm @ k.conj().T
        return _compress(self.target, out)

    def trace_adjoint(self, z):
        zm, out = _embed(self.target, z), _embed(self.source, [])
        for k in self.kraus:
            out += k.conj().T @ zm @ k
        return _compress(self.source, out)

    def choi(self):
        """Choi matrix of T o E_M on the ambient source algebra."""
        return _choi(self.apply, self.source, self.target)

    def t2_matrix(self, l2m=None, l2n=None):
        """L^2 compression eta(m) -> eta(T(m)) in onb coordinates."""
        l2m = l2m or L2Space(self.source)
        l2n = l2n or L2Space(self.target)
        return np.array([l2n.to_onb(self.apply(l2m.from_onb(e)))
                         for e in np.eye(l2m.dim, dtype=complex)]).T

    @classmethod
    def from_choi(cls, source, target, choi):
        dm = sum(source.block_dims)
        dn = sum(target.block_dims)
        if choi.shape != (dm * dn, dm * dn):
            raise ShapeError("Choi matrix has wrong shape")
        ev, vec, _, _ = sc.spectral_gate("Choi matrix", choi, require="PSD")
        # the gate decides PSD; the Kraus family drops only what rounding
        # can produce, so the map is reproduced to rounding and not merely
        # to the gate's band
        keep = ev > len(ev) * np.finfo(float).eps * np.abs(ev).max(initial=0.0)
        return cls(source, target, [math.sqrt(lam) * w.reshape(dm, dn).T
                                    for lam, w in zip(ev[keep], vec.T[keep])])

    @classmethod
    def scalar(cls, space, lam):
        """lam * identity on one space (0 <= lam <= 1 is admissible)."""
        d = sum(space.block_dims)
        return cls(space, space, [math.sqrt(lam) * np.eye(d)])


@dataclass
class AdmissibilityReport:
    cp: bool
    subunital: bool
    weight_decreasing: bool
    witnesses: dict = field(default_factory=dict)

    @property
    def admissible(self):
        return self.cp and self.subunital and self.weight_decreasing

    def to_json(self):
        out = {"cp": self.cp, "subunital": self.subunital,
               "weight_decreasing": self.weight_decreasing,
               "admissible": self.admissible}
        if self.witnesses:
            out["witnesses"] = {k: [float(x.real) for x in v]
                                for k, v in self.witnesses.items()}
        return out


def check_admissible(t):
    """CP / subunital / weight-decreasing booleans with witnesses.

    Each is the spectral gate's PSD verdict: on the Choi matrix, on
    1 - T(1) and on rho_M - Tt(rho_N); a failing one's witness is the
    eigenvector of its lowest eigenvalue.
    """
    one = _embed(t.target, t.apply(t.source.identity()))
    gates = {"cp": ("Choi matrix", t.choi()),
             "subunital": ("1 - T(1)", np.eye(len(one)), one),
             "weight_decreasing": ("rho - T*(rho)",
                                   _embed(t.source, t.source.density),
                                   _embed(t.source, t.trace_adjoint(
                                       t.target.density)))}
    verdicts, witnesses = {}, {}
    for key, args in gates.items():
        _, vec, _, slack = sc.spectral_gate(*args)
        verdicts[key] = slack >= -sc.PIVOT_TOL
        if not verdicts[key]:
            witnesses[key] = vec[:, 0]
    return AdmissibilityReport(**verdicts, witnesses=witnesses)


def biweight(space, x, y):
    """[x, y] = trace(rho^{1/2} y rho^{1/2} x); symmetric, [1, y] = phi(y)."""
    total = 0j
    for (rh, _, _), xb, yb in zip(space.density_powers(), x, y):
        total += np.trace(rh @ sc.to_float_array(yb) @ rh @
                          sc.to_float_array(xb))
    return total


def petz_dual(t):
    """The weight dual T*: N -> M as a CpMap (via its Choi matrix).

    Characterized by [T*(n), m]_phi = [n, T(m)]_psi; at finite dimension
    T*(n) = rho_M^{-1/2} Tt(rho_N^{1/2} n rho_N^{1/2}) rho_M^{-1/2}.
    """
    src, tgt = t.source, t.target
    rmhi = _embed(src, [rhi for _, rhi, _ in src.density_powers()])
    rnh = _embed(tgt, [rh for rh, _, _ in tgt.density_powers()])

    def dual_apply(n_elem):
        z = rnh @ _embed(tgt, n_elem) @ rnh
        td = _embed(src, t.trace_adjoint(_compress(tgt, z)))
        return _compress(src, rmhi @ td @ rmhi)

    return CpMap.from_choi(tgt, src, _choi(dual_apply, tgt, src))


def _choi(fn, source, target):
    """sum_ij e_ij (x) fn(E(e_ij)) for fn: source -> target, with E the
    compression onto the source's blocks, on the ambient algebras."""
    dm = sum(source.block_dims)
    dn = sum(target.block_dims)
    c = np.zeros((dm * dn, dm * dn), dtype=complex)
    for i in range(dm):
        for j in range(dm):
            u = np.zeros((dm, dm), dtype=complex)
            u[i, j] = 1.0
            c[i * dn:i * dn + dn, j * dn:j * dn + dn] = _embed(
                target, fn(_compress(source, u)))
    return c


# -- Stinespring correspondence ----------------------------------------------

@dataclass
class GramSpace:
    """Orthonormalized quotient of M (x) L^2(N) under the T-inner product.

    ``project`` maps raw coefficients (unit_M (x) unit_N basis) to
    orthonormal quotient coordinates; ``left_actions`` and
    ``right_actions``, keyed by matrix units of M and of N, act on those
    coordinates; ``i_n`` embeds L^2(N) (onb coordinates) as 1 (x) eta.
    """

    dim: int
    project: np.ndarray
    unproject: np.ndarray
    left_actions: dict
    right_actions: dict
    i_n: np.ndarray


def stinespring_bimodule(t, l2m=None, l2n=None):
    l2m = l2m or L2Space(t.source)
    l2n = l2n or L2Space(t.target)
    am, an = l2m._alg, l2n._alg
    dm, dn = am.dim, an.dim
    raw = dm * dn

    # Gram of m_a (x) eta(n_c): <.,.> = tr(rho_N n1* T(m1* m2) n2), the
    # (c1, c2) entry of G_N pi_l(eta(T(m1* m2)))
    gram = np.zeros((raw, raw), dtype=complex)
    for a1 in range(dm):
        for a2 in range(dm):
            prod = am.multiply(am.s_apply(am.basis(a1)), am.basis(a2))
            tv = an.eta(t.apply(am.from_eta(prod)))
            gram[a1 * dn:(a1 + 1) * dn,
                 a2 * dn:(a2 + 1) * dn] = an.gram @ an.pi_l(tv)

    ev, vec, keep, _ = sc.spectral_gate("Stinespring Gram", gram,
                                        require="PSD")
    lam, v = ev[keep], vec[:, keep]
    project = (np.sqrt(lam)[:, None] * v.conj().T)
    unproject = v / np.sqrt(lam)[None, :]
    r = int(keep.sum())

    # left action of matrix units of M; right action of units of N (via op)
    left_actions = {u: project @ np.kron(lm, np.eye(dn)) @ unproject
                    for u, lm in zip(am.units, am.lmul)}
    right_actions = {}
    for c, u in enumerate(an.units):
        # y^op = J y* J on unit coefficients: J conj(pi_l(eta(y*))) conj(J).
        # pi_r(y) differs from it when rho_N is not tracial.
        ystar = an.pi_l(an.s_apply(an.basis(c)))
        rm = an.jmat @ np.conj(ystar) @ np.conj(an.jmat)
        right_actions[u] = project @ np.kron(np.eye(dm), rm) @ unproject

    # i_N: eta_psi (onb) -> 1 (x) eta
    i_n = project @ np.kron(am.unit[:, None], l2n._chol_hinv)
    return GramSpace(dim=r, project=project, unproject=unproject,
                     left_actions=left_actions, right_actions=right_actions,
                     i_n=i_n)


def conjugate_embedding(t):
    """The N-M isometry H_{T*} -> conj(H_T) of the duality.

    Maps n (x)_{T*} J eta(m) to the conjugate of m (x)_T J eta(n).
    Vectors of the conjugate space are represented by conjugated H_T
    coordinates, which makes the embedding a plain linear isometry:
    returns (C, gram space of T*, gram space of T) with C^H C = 1.
    """
    l2m = L2Space(t.source)
    l2n = L2Space(t.target)
    hs = stinespring_bimodule(t, l2m, l2n)
    hs_dual = stinespring_bimodule(petz_dual(t), l2n, l2m)

    # the raw basis vector e_c (x) e_a of H_{T*} is n (x) J eta(m) with
    # eta(n) = e_c and eta(m) = J e_a (J is an involution); its image is
    # the conjugate of m (x) J eta(n) = J e_a (x) J e_c
    dm, dn = l2m.dim, l2n.dim
    swap = np.arange(dm * dn).reshape(dm, dn).T.ravel()
    raw = np.kron(l2m._alg.jmat, l2n._alg.jmat)[:, swap]
    cols = np.conj(hs.project @ raw)
    return cols @ hs_dual.unproject, hs_dual, hs


# -- second quantization -------------------------------------------------------

def _psd_sqrt(mat):
    h = 0.5 * (mat + mat.conj().T)
    ev, vec = np.linalg.eigh(h)
    ev = np.clip(ev, 0.0, None)
    return (vec * np.sqrt(ev)) @ vec.conj().T


@dataclass
class Dilation:
    """All the moving parts of one second quantization."""

    t: CpMap
    l2m: L2Space
    l2n: L2Space
    hs: GramSpace
    j_m: np.ndarray
    k_m: np.ndarray
    p_n: np.ndarray
    t2: np.ndarray

    @property
    def tilde_dim(self):
        return self.l2m.dim + self.hs.dim + self.l2n.dim

    def pi_tilde(self, x_elem):
        """Action of x in M on L^2(M) + H_T + L^2(N) (zero on the last)."""
        dm, r, dn = self.l2m.dim, self.hs.dim, self.l2n.dim
        out = np.zeros((dm + r + dn, dm + r + dn), dtype=complex)
        out[:dm, :dm] = self.l2m.lmult_onb(x_elem)
        act = np.zeros((r, r), dtype=complex)
        for c, u in zip(self.l2m._alg.eta(x_elem), self.l2m.units):
            if c != 0:
                act += c * self.hs.left_actions[u]
        out[dm:dm + r, dm:dm + r] = act
        return out


def build_dilation(t):
    """The dilation of an admissible map; ValidationError otherwise."""
    rep = check_admissible(t)
    if not rep.admissible:
        raise ValidationError("map is not admissible: %s" % rep.to_json())
    l2m = L2Space(t.source)
    l2n = L2Space(t.target)
    hs = stinespring_bimodule(t, l2m, l2n)
    dm, r, dn = l2m.dim, hs.dim, l2n.dim

    # j_M: eta(m) (onb) -> m (x)_T eta(1_N)
    j_m = hs.project @ np.kron(l2m._chol_hinv, l2n._alg.unit[:, None])

    k_m = np.zeros((dm + r + dn, dm), dtype=complex)
    k_m[:dm, :] = _psd_sqrt(np.eye(dm) - j_m.conj().T @ j_m)
    k_m[dm:dm + r, :] = j_m

    p_n = np.zeros((dn, dm + r + dn), dtype=complex)
    p_n[:, dm:dm + r] = hs.i_n.conj().T
    p_n[:, dm + r:] = _psd_sqrt(np.eye(dn) - hs.i_n.conj().T @ hs.i_n)

    return Dilation(t=t, l2m=l2m, l2n=l2n, hs=hs, j_m=j_m, k_m=k_m, p_n=p_n,
                    t2=t.t2_matrix(l2m, l2n))


def second_quantize(t, wick_terms, L, dilation=None):
    """Gamma(T) applied to a Wick polynomial, via the explicit dilation.

    ``wick_terms`` is a list of (coefficient, legs) with legs given as
    onb coordinate vectors over L^2(M); the polynomial is
    sum_c c * Psi(legs).  Returns the compressed operator as a dense
    matrix on the truncated Fock space over L^2(N) (onb coordinates),
    which tests compare against Psi(T2 legs).

    Gamma(T) = F(p_N) W F(p_N)*, with W the Wick words on the dilation
    space (payloads k_M x, k_M S conj(x), pi_tilde(x)).  As p_N is a
    coisometry, ``fock.transport`` by (p_N, p_N*) moves each distinct
    letter of W onto the target once, and the words are compiled there,
    under its dense cap.  A p_N further than COISOMETRY_TOL from a
    coisometry raises DomainError.  Admissibility is checked once, by
    build_dilation: a passed ``dilation`` is not checked again.
    """
    if not wick_terms:
        raise DomainError("empty Wick polynomial")
    dil = dilation or build_dilation(t)
    deg = max(len(legs) for _, legs in wick_terms)
    if L < deg + 2:
        raise TruncationError("need L >= degree + 2")
    p_n = dil.p_n
    defect = float(np.abs(p_n @ p_n.conj().T - np.eye(len(p_n))).max())
    if defect > COISOMETRY_TOL:
        raise DomainError("p_N is not a coisometry (defect %.3g)" % defect)
    s_m = dil.l2m.smat_onb()
    terms = []
    for coeff, legs in wick_terms:
        legs = [np.asarray(x, dtype=complex) for x in legs]
        words = wick_words([dil.k_m @ x for x in legs],
                           [dil.k_m @ (s_m @ np.conj(x)) for x in legs],
                           [dil.pi_tilde(dil.l2m.from_onb(x)) for x in legs])
        terms += [(coeff, w) for w in words]
    return transport(terms, L, p_n, p_n.conj().T).matrix()


def wick_matrix_on_target(t, legs_n, L):
    """Psi(legs) on the truncated Fock space over L^2(N), dense matrix."""
    fk = FockSpace(L2Space(t.target).onb_algebra(), L)
    op = wick(fk, [np.asarray(x, dtype=complex) for x in legs_n],
              mode=PROJECTIVE)
    return sc.to_float_array(op.matrix())
