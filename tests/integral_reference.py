"""An independent integral reference for the tests.

Per-primitive Taketa-Huzinaga-Oohata formulas (J. Phys. Soc. Jpn. 21,
2313 (1966)) — the overlap's Obara-Saika-equivalent binomial sum, the
kinetic energy from overlaps of shifted powers, and the nuclear
attraction's ``A`` and the repulsion's ``B`` factors over the Boys
function — for Cartesian Gaussians of momentum up to 2 (3 under one
derivative). Derivatives come from the Gaussian derivative identity
``d/dA_x phi_l = 2 a phi_{l+1} - l phi_{l-1}``, the Boys function from
``scipy.special.hyp1f1``. Nothing here calls `repro.integrals`: a basis
supplies its centres, exponents, contraction coefficients and component
normalization, nothing else.

Every formula is vectorized over all primitive combinations of one
tuple of Cartesian powers, so Python loops run over powers and formula
indices, never over primitives, and the repulsion keeps each slot
combination's pair quantities and axis factors for the other powers a
tensor asks of it; the two-electron tensor of STO-3G water (seven
functions) takes ~0.2 s, of ten functions with a d shell ~0.5 s, and
that basis's four-centre gradient ~5 s. Use small systems.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from math import comb, factorial, pi

import numpy as np
from scipy.special import hyp1f1


def boys(nmax: int, T) -> np.ndarray:
    """``F_0 .. F_nmax`` of ``T`` (any shape), ``(nmax + 1, *T.shape)``:
    ``F_m(T) = 1F1(m + 1/2; m + 3/2; -T) / (2m + 1)``."""
    T = np.asarray(T, dtype=float)
    return np.stack([hyp1f1(m + 0.5, m + 1.5, -T) / (2 * m + 1)
                     for m in range(nmax + 1)])


def _powers(l: int) -> list[tuple[int, int, int]]:
    """Cartesian powers of an ``l`` shell in basis-function order (x
    decreasing first)."""
    return [(lx, ly, l - lx - ly)
            for lx in range(l, -1, -1) for ly in range(l - lx, -1, -1)]


@dataclass
class Prims:
    """The primitives of the basis functions sharing one power triple:
    centres ``A (n, 3)``, exponents ``a``, coefficients ``c``
    (contraction coefficient times component normalization), and each
    primitive's function index and atom."""

    pw: tuple[int, int, int]
    A: np.ndarray
    a: np.ndarray
    c: np.ndarray
    fn: np.ndarray
    atom: np.ndarray

    def derivative(self, axis: int) -> list["Prims"]:
        """``d/dA_axis``: ``2 a`` times the power raised, minus the power
        times the power lowered."""
        up = list(self.pw)
        up[axis] += 1
        terms = [replace(self, pw=tuple(up), c=2.0 * self.a * self.c)]
        if self.pw[axis]:
            down = list(self.pw)
            down[axis] -= 1
            terms.append(replace(self, pw=tuple(down),
                                 c=-self.pw[axis] * self.c))
        return terms


#: the zero-exponent s partner that makes a fitting function a "pair"
#: (its centre drops out of every formula)
UNIT = Prims((0, 0, 0), np.zeros((1, 3)), np.zeros(1), np.ones(1),
             np.zeros(1, dtype=int), np.full(1, -1))


def prims(basis) -> list[Prims]:
    """A basis's primitives grouped by power triple."""
    rows: dict[tuple, list] = {}
    for shell, off in zip(basis.shells, basis.offsets):
        for k, pw in enumerate(_powers(shell.l)):
            for a, c in zip(shell.exps, shell.coefs):
                rows.setdefault(pw, []).append(
                    (shell.center, a, c * shell.comp_norms[k], off + k,
                     shell.atom))
    return [Prims(pw, np.array([r[0] for r in rs]),
                  *(np.array([r[i] for r in rs]) for i in range(1, 5)))
            for pw, rs in rows.items()]


def _combos(slots):
    """Every combination of one primitive from each slot, flattened:
    per slot its centres and exponents, the coefficient products, and
    per slot its function indices and atoms."""
    idx = [i.ravel() for i in np.meshgrid(
        *[np.arange(s.a.size) for s in slots], indexing="ij")]
    c = np.prod([s.c[i] for s, i in zip(slots, idx)], axis=0)
    return ([s.A[i] for s, i in zip(slots, idx)],
            [s.a[i] for s, i in zip(slots, idx)], c,
            [s.fn[i] for s, i in zip(slots, idx)],
            [s.atom[i] for s, i in zip(slots, idx)])


def _dfact(n: int) -> int:
    return 1 if n <= 0 else n * _dfact(n - 2)


def _ratio(i: int, r: int) -> float:
    """``i! / (r! (i - 2r)!)``."""
    return factorial(i) / (factorial(r) * factorial(i - 2 * r))


def _binom(s: int, la: int, lb: int, xa, xb):
    """Coefficient of ``x^s`` in ``(x + xa)^la (x + xb)^lb``."""
    out = 0.0
    for t in range(max(0, s - la), min(s, lb) + 1):
        out = out + comb(la, s - t) * comb(lb, t) * xa ** (la - s + t) * xb ** (lb - t)
    return out


def _product(A, B, a, b):
    """Composite exponent, centre and ``exp(-ab/p |AB|^2)``."""
    p = a + b
    P = (a[:, None] * A + b[:, None] * B) / p[:, None]
    return p, P, np.exp(-a * b / p * ((A - B) ** 2).sum(axis=1))


# --------------------------------------------------------------------------
# Primitive formulas: powers per slot, centres and exponents as arrays
# --------------------------------------------------------------------------

def overlap_prim(pa, pb, A, B, a, b):
    """``<a|b>`` (THO eq. 2.12)."""
    p, P, K = _product(A, B, a, b)
    val = K * (pi / p) ** 1.5
    for d in range(3):
        val = val * sum(
            _binom(2 * i, pa[d], pb[d], P[:, d] - A[:, d], P[:, d] - B[:, d])
            * _dfact(2 * i - 1) / (2 * p) ** i
            for i in range(1 + (pa[d] + pb[d]) // 2))
    return val


def kinetic_prim(pa, pb, A, B, a, b):
    """``<a|-1/2 nabla^2|b>`` from overlaps of ``b``'s powers shifted by
    two."""
    def shifted(d, k):
        q = list(pb)
        q[d] += k
        return overlap_prim(pa, tuple(q), A, B, a, b)

    val = b * (2 * sum(pb) + 3) * overlap_prim(pa, pb, A, B, a, b)
    for d in range(3):
        val = val - 2 * b ** 2 * shifted(d, 2)
        if pb[d] > 1:
            val = val - 0.5 * pb[d] * (pb[d] - 1) * shifted(d, -2)
    return val


def nuclear_prim(pa, pb, A, B, a, b, C):
    """``<a|-1/|r - C||b>`` (THO A factors)."""
    p, P, K = _product(A, B, a, b)
    facs = []
    for d in range(3):
        la, lb = pa[d], pb[d]
        PA, PB, PC = P[:, d] - A[:, d], P[:, d] - B[:, d], P[:, d] - C[d]
        f = [0.0] * (la + lb + 1)
        for i in range(la + lb + 1):
            bi = _binom(i, la, lb, PA, PB)
            for r in range(i // 2 + 1):
                for u in range((i - 2 * r) // 2 + 1):
                    f[i - 2 * r - u] = f[i - 2 * r - u] + (
                        (-1) ** (i + u) * bi * factorial(i)
                        * PC ** (i - 2 * r - 2 * u) * (0.25 / p) ** (r + u)
                        / (factorial(r) * factorial(u)
                           * factorial(i - 2 * r - 2 * u)))
        facs.append(f)
    F = boys(sum(pa) + sum(pb), p * ((P - C) ** 2).sum(axis=1))
    tot = sum(fx * fy * fz * F[i + j + k]
              for (i, fx), (j, fy), (k, fz) in product(*map(enumerate, facs)))
    return -2.0 * pi / p * K * tot


def _side(l1, l2, X1, X2, s):
    """One pair's THO terms along an axis, gathered by ``n = i - 2r``:
    ``h[n] = sum_{i - 2r = n} f_i(l1, l2, X1, X2) i!/(r!(i-2r)!)
    (4s)^(r - i)``."""
    h = [0.0] * (l1 + l2 + 1)
    for i in range(l1 + l2 + 1):
        b = _binom(i, l1, l2, X1, X2)
        for r in range(i // 2 + 1):
            h[i - 2 * r] = h[i - 2 * r] + b * _ratio(i, r) * (4 * s) ** (r - i)
    return h


def _convolve(x, y):
    """The coefficients of the product of two polynomials."""
    out = [0.0] * (len(x) + len(y) - 1)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            out[i + j] = out[i + j] + xi * yj
    return out


class _Slots:
    """One combination of four primitive slots: its pair quantities,
    and the axis factors and Boys values of the powers asked of it so
    far (a tensor's blocks ask the same slots for many powers)."""

    def __init__(self, centres, exps):
        A, B, C, D = centres
        a, b, c, d = exps
        p, P, Kab = _product(A, B, a, b)
        q, Q, Kcd = _product(C, D, c, d)
        self.pq = p, q
        self.delta = 0.25 * (1.0 / p + 1.0 / q)
        self.X = (P - A, P - B, Q - C, Q - D, Q - P)
        self.T = 0.25 * ((P - Q) ** 2).sum(axis=1) / self.delta
        self.pref = 2.0 * pi ** 2.5 / (p * q * np.sqrt(p + q)) * Kab * Kcd
        self.axes: dict = {}
        self.F: dict = {}

    def axis(self, k, ls):
        """The B factor along axis ``k`` of powers ``ls``, by its Boys
        order: THO's sums over ``i1, r1`` and ``i2, r2`` enter only
        through ``n = i1 - 2 r1 + i2 - 2 r2``, a polynomial product."""
        if (k, ls) not in self.axes:
            l1, l2, l3, l4 = ls
            PA, PB, QC, QD, QP = (x[:, k] for x in self.X)
            p, q = self.pq
            h2 = [(-1) ** n * v
                  for n, v in enumerate(_side(l3, l4, QC, QD, q))]
            f = [0.0] * (l1 + l2 + l3 + l4 + 1)
            for n, hn in enumerate(_convolve(_side(l1, l2, PA, PB, p), h2)):
                for u in range(n // 2 + 1):
                    f[n - u] = f[n - u] + (
                        hn * (-1) ** u * _ratio(n, u) * QP ** (n - 2 * u)
                        / self.delta ** (n - u))
            self.axes[k, ls] = f
        return self.axes[k, ls]

    def boys(self, nmax):
        if nmax not in self.F:
            self.F[nmax] = boys(nmax, self.T)
        return self.F[nmax]


def eri_prim(pws, centres, exps, memo=None):
    """``(ab|cd)`` (THO B factors); a zero exponent on ``d`` makes the
    ket one Gaussian on ``c``. The product of the three axes' factors
    enters only through the Boys order ``i + j + k``, a polynomial
    product too. ``memo`` (a dict) keeps each slot combination's
    `_Slots` across calls."""
    memo = {} if memo is None else memo
    key = b"".join(x.tobytes() for x in (*centres, *exps))
    if key not in memo:
        memo[key] = _Slots(centres, exps)
    slots = memo[key]
    x, y, z = (slots.axis(k, tuple(pw[k] for pw in pws)) for k in range(3))
    F = slots.boys(sum(map(sum, pws)))
    tot = sum(v * F[m] for m, v in enumerate(_convolve(_convolve(x, y), z)))
    return slots.pref * tot


# --------------------------------------------------------------------------
# Whole matrices and tensors
# --------------------------------------------------------------------------

def _one_electron(basis, prim, derivative=None):
    """``M[mu, nu]`` of a two-slot primitive formula ``prim(pa, pb, A,
    B, a, b)``; with ``derivative = axis`` the bra function
    differentiated along it."""
    out = np.zeros((basis.nbf, basis.nbf))
    groups = prims(basis)
    for s1, s2 in product(groups, groups):
        for t1 in ([s1] if derivative is None else s1.derivative(derivative)):
            (A, B), (a, b), c, (f1, f2), _ = _combos([t1, s2])
            np.add.at(out, (f1, f2), c * prim(t1.pw, s2.pw, A, B, a, b))
    return out


def overlap(basis, derivative=None):
    return _one_electron(basis, overlap_prim, derivative)


def kinetic(basis, derivative=None):
    return _one_electron(basis, kinetic_prim, derivative)


def nuclear(basis, mol, derivative=None, centres=None):
    """``V`` of the nuclei ``centres`` (default all), charge-weighted."""
    centres = range(mol.natoms) if centres is None else centres
    return sum(
        mol.atomic_numbers[C] * _one_electron(
            basis, lambda pa, pb, A, B, a, b, C=C: nuclear_prim(
                pa, pb, A, B, a, b, mol.coords[C]), derivative)
        for C in centres)


def _eri(slots, on_block):
    """Evaluate ``eri_prim`` on every combination of the slots' power
    groups (each a list of term lists: a derivative slot holds two
    terms), handing each block of primitive values to ``on_block(fns,
    atoms, values)``."""
    memo: dict = {}
    for groups in product(*slots):
        for terms in product(*groups):
            centres, exps, c, fns, atoms = _combos(terms)
            on_block(fns, atoms, c * eri_prim([t.pw for t in terms],
                                              centres, exps, memo))


def _terms(groups, derivative=None):
    """A slot's power groups as term lists: each group itself, or its
    derivative's terms along ``derivative``."""
    return [[g] if derivative is None else g.derivative(derivative)
            for g in groups]


def eri4c(basis) -> np.ndarray:
    """``(mu nu|la si)``: each canonical quartet of power groups once,
    written to every distinct image of the 8-fold symmetry."""
    n = basis.nbf
    out = np.zeros((n, n, n, n))
    groups = prims(basis)
    pairs = [(i, j) for i in range(len(groups)) for j in range(i, len(groups))]
    memo: dict = {}
    for x, (i, j) in enumerate(pairs):
        for k, l in pairs[x:]:
            terms = [groups[m] for m in (i, j, k, l)]
            centres, exps, c, fns, _ = _combos(terms)
            v = c * eri_prim([t.pw for t in terms], centres, exps, memo)
            a, b, cc, d = fns
            images = {(i, j, k, l): (a, b, cc, d), (j, i, k, l): (b, a, cc, d),
                      (i, j, l, k): (a, b, d, cc), (j, i, l, k): (b, a, d, cc),
                      (k, l, i, j): (cc, d, a, b), (l, k, i, j): (d, cc, a, b),
                      (k, l, j, i): (cc, d, b, a), (l, k, j, i): (d, cc, b, a)}
            for at in images.values():
                np.add.at(out, at, v)
    return out


def eri3c(basis, aux) -> np.ndarray:
    """``(mu nu|P)``."""
    out = np.zeros((basis.nbf, basis.nbf, aux.nbf))
    g = _terms(prims(basis))

    def put(fns, atoms, v):
        np.add.at(out, tuple(fns[:3]), v)

    _eri([g, g, _terms(prims(aux)), [[UNIT]]], put)
    return out


def eri2c(aux) -> np.ndarray:
    """``(P|Q)``."""
    out = np.zeros((aux.nbf, aux.nbf))
    g = _terms(prims(aux))

    def put(fns, atoms, v):
        np.add.at(out, (fns[0], fns[2]), v)

    _eri([g, [[UNIT]], g, [[UNIT]]], put)
    return out


def schwarz(basis) -> np.ndarray:
    """``Q_ij = max sqrt((ab|ab))`` over the components of shells ``i``
    and ``j``: the diagonal of the two-electron supermatrix alone."""
    n = basis.nbf
    diag = np.zeros((n, n))
    for s1, s2 in product(prims(basis), repeat=2):
        centres, exps, c, fns, _ = _combos([s1, s2, s1, s2])
        same = (fns[2] == fns[0]) & (fns[3] == fns[1])
        v = c[same] * eri_prim([s1.pw, s2.pw, s1.pw, s2.pw],
                               [x[same] for x in centres],
                               [x[same] for x in exps])
        np.add.at(diag, (fns[0][same], fns[1][same]), v)
    diag = np.sqrt(np.abs(diag))
    offs = list(basis.offsets) + [n]
    nsh = basis.nshells
    return np.array([[diag[offs[i]:offs[i + 1], offs[j]:offs[j + 1]].max()
                      for j in range(nsh)] for i in range(nsh)])


# --------------------------------------------------------------------------
# Contracted derivatives: every centre differentiated directly
# --------------------------------------------------------------------------

def _contract_one_electron(basis, natoms, X, matrix):
    """``sum X_{mu nu} dM_{mu nu}/dR`` of a symmetric one-electron
    matrix from its bra derivatives, ``matrix(axis)``."""
    g = np.zeros((natoms, 3))
    atoms = np.array([sh.atom for sh in basis.shells
                      for _ in range(sh.nfunc)])
    Xs = X + X.T
    for axis in range(3):
        np.add.at(g[:, axis], atoms, (matrix(axis) * Xs).sum(axis=1))
    return g


def contract_overlap_deriv(basis, natoms, X):
    return _contract_one_electron(
        basis, natoms, X, lambda axis: overlap(basis, axis))


def contract_kinetic_deriv(basis, natoms, X):
    return _contract_one_electron(
        basis, natoms, X, lambda axis: kinetic(basis, axis))


def contract_nuclear_deriv(basis, mol, X):
    """Per nucleus ``C``: the bra derivatives of ``V_C`` onto the basis
    atoms, and ``d/dC = -(d/dA + d/dB)`` (``V_C`` moves with all three
    centres as one) onto ``C``."""
    g = np.zeros((mol.natoms, 3))
    for C in range(mol.natoms):
        gC = _contract_one_electron(
            basis, mol.natoms, X,
            lambda axis: nuclear(basis, mol, axis, centres=[C]))
        g += gC
        g[C] -= gC.sum(axis=0)
    return g


def contract_eri3c_deriv(basis, aux, Z, natoms):
    """``sum Z_{mu nu P} d(mu nu|P)/dR``: the orbital bra's first
    function and the fitting function differentiated."""
    g = np.zeros((natoms, 3))
    orb, fit = prims(basis), prims(aux)
    Zs = Z + Z.transpose(1, 0, 2)
    for axis in range(3):
        def bra(fns, atoms, v, axis=axis):
            np.add.at(g[:, axis], atoms[0], v * Zs[fns[0], fns[1], fns[2]])

        def ket(fns, atoms, v, axis=axis):
            np.add.at(g[:, axis], atoms[2], v * Z[fns[0], fns[1], fns[2]])

        _eri([_terms(orb, axis), _terms(orb), _terms(fit), [[UNIT]]], bra)
        _eri([_terms(orb), _terms(orb), _terms(fit, axis), [[UNIT]]], ket)
    return g


def contract_eri2c_deriv(aux, zeta, natoms):
    """``sum zeta_PQ d(P|Q)/dR``."""
    g = np.zeros((natoms, 3))
    fit = prims(aux)
    zs = zeta + zeta.T
    for axis in range(3):
        def bra(fns, atoms, v, axis=axis):
            np.add.at(g[:, axis], atoms[0], v * zs[fns[0], fns[2]])

        _eri([_terms(fit, axis), [[UNIT]], _terms(fit), [[UNIT]]], bra)
    return g


def contract_eri4c_deriv_hf(basis, D, natoms):
    """``1/2 sum (mn|ls)^xi (D_mn D_ls - 1/2 D_ms D_nl)``: the four
    positions of a differentiated function give one sum each, equal
    under the integrals' and the coefficient's symmetry, so it is
    ``2 sum (m'n|ls) G_mnls`` with the first function differentiated.
    As ``(m'n|ls) = (m'n|sl)``, each unordered ket pair of power groups
    is visited once, with ``G`` symmetrized over ``l, s`` when the two
    groups differ (a group paired with itself meets both orders among
    its own primitive combinations)."""
    g = np.zeros((natoms, 3))
    orb = prims(basis)
    G = (np.einsum("mn,ls->mnls", D, D)
         - 0.5 * np.einsum("ms,nl->mnls", D, D))
    Gs = G + G.transpose(0, 1, 3, 2)
    kets = [(k, l) for k in range(len(orb)) for l in range(k, len(orb))]
    memo: dict = {}
    for axis in range(3):
        bras = [t for grp in orb for t in grp.derivative(axis)]
        for t1, g2, (k, l) in product(bras, orb, kets):
            terms = [t1, g2, orb[k], orb[l]]
            centres, exps, c, fns, atoms = _combos(terms)
            v = c * eri_prim([t.pw for t in terms], centres, exps, memo)
            W = G if k == l else Gs
            np.add.at(g[:, axis], atoms[0], 2.0 * v * W[tuple(fns)])
    return g
