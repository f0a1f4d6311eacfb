"""Shell-pair-class batched integral kernels on a pluggable backend.

Instead of looping Python over individual shell pairs, the drivers here
partition the canonical bra pair list (`canonical_shell_pairs`) into
**classes** — pairs sharing ``(la, lb, npa, npb)`` — pack each class's
exponents, contraction products, centers and Hermite E tables into flat
arrays, and evaluate all surviving (post-Schwarz) pairs of a class in a
handful of dense array ops. This amortizes interpreter overhead over the
whole class, which is where the per-step cost lived after PR 5's
screening/caching work (ROADMAP item 1), and is the same layout the
paper needs to feed accelerators as large dense batches.

All dense math goes through a `repro.backend.ArrayBackend` (numpy
default, optional JAX/CuPy), so the same kernel source runs on CPU and
GPU. `AutodiffIntegrals` additionally exposes *functional* value
builders (integral matrices as pure functions of atom coordinates) that
JAX can differentiate — the independent oracle the tests use to
cross-check the hand-derived analytic gradients.

Contract (see docs/PERFORMANCE.md). These kernels are the only runtime
implementation of the public drivers; the per-pair ``*_loop`` functions
in `onee.py`/`eri.py` are the reference the tests compare against.
What is pinned:

* **Determinism** — the same inputs give bit-identical outputs from run
  to run and for any `_CHUNK_ELEMS`: per-pair rows are independent,
  gradients accumulate per class in class order from whole-class
  arrays, and the neglected bound is one exactly rounded `math.fsum`.
  This is all `--deterministic` resume needs.
* **Screening decisions** — skip masks and pair counts are identical to
  the reference's (same Schwarz table, same comparison).
* **Tolerance vs the reference** — matrices and 3c tensors to rtol
  1e-12, contracted gradients to atol 1e-12 Ha/bohr.

Summation order, operand layouts and Hermite ranges are *not* pinned to
the loop code's, so they are free to change under those three clauses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from ..backend import ArrayBackend, get_backend
from .engine import (
    canonical_shell_pairs,
    comp_arrays,
    e_tables_batch,
    hermite_box,
    r_tables_batch,
    w_tensor,
)
from .eri import (
    DERIV_SAFETY,
    _TWO_PI_52,
    _S_COMP,
    _aux_bounds,
    _aux_groups,
    _phase,
    _schwarz_table,
    _zblk_table,
)

if TYPE_CHECKING:
    from ..basis.basisset import BasisSet
    from ..chem.molecule import Molecule
    from .workspace import IntegralWorkspace

__all__ = [
    "AutodiffIntegrals",
    "ShellClass",
    "build_shell_classes",
    "canonical_shell_pairs",
]

#: element budget for the largest per-chunk intermediate (~2 MB f64,
#: sized to keep the chunk's working set cache-resident); per-pair rows
#: are independent, so chunking never changes results
_CHUNK_ELEMS = 1 << 18


# --------------------------------------------------------------------------
# Shell-pair class partition and packing
# --------------------------------------------------------------------------

@dataclass
class ShellClass:
    """All canonical shell pairs sharing ``(la, lb, npa, npb)``, packed.

    Per-pair arrays are stacked along a leading axis of length ``Q``
    (pairs, canonical order within the class); per-primitive arrays have
    a second axis of length ``N = npa * npb``, laid out exactly like
    `engine.pair_data` (bra-major). ``E`` carries the workspace-unified
    ``(di=1, dj=2)`` derivative headroom: lower-index entries of the E
    recursion are independent of headroom, so every driver can gather
    from the one table.
    """

    la: int
    lb: int
    imax: int
    jmax: int
    ish: np.ndarray       # (Q,) bra shell index
    jsh: np.ndarray       # (Q,) ket shell index
    oa: np.ndarray        # (Q,) bra function offset
    ob: np.ndarray        # (Q,) ket function offset
    atom_a: np.ndarray    # (Q,)
    atom_b: np.ndarray    # (Q,)
    diag: np.ndarray      # (Q,) bool, ish == jsh
    a: np.ndarray         # (Q, N) bra exponents, bra-major layout
    b: np.ndarray         # (Q, N) ket exponents
    cc: np.ndarray        # (Q, N) contraction coefficient products
    p: np.ndarray         # (Q, N) total exponents a + b
    P: np.ndarray         # (Q, N, 3) Gaussian product centers
    AB: np.ndarray        # (Q, 3) center separations A - B
    E: np.ndarray         # (Q, N, 3, imax+1, jmax+1, imax+jmax+1)
    norms: np.ndarray     # (nfa, nfb) component normalization outer

    @property
    def npair(self) -> int:
        return int(self.ish.shape[0])

    @property
    def nprim(self) -> int:
        return int(self.a.shape[1])

    @property
    def nfa(self) -> int:
        return (self.la + 1) * (self.la + 2) // 2

    @property
    def nfb(self) -> int:
        return (self.lb + 1) * (self.lb + 2) // 2

    def subset(self, mask: np.ndarray) -> "ShellClass":
        """Survivor view after a screening decision (boolean mask)."""
        return replace(
            self,
            ish=self.ish[mask],
            jsh=self.jsh[mask],
            oa=self.oa[mask],
            ob=self.ob[mask],
            atom_a=self.atom_a[mask],
            atom_b=self.atom_b[mask],
            diag=self.diag[mask],
            a=self.a[mask],
            b=self.b[mask],
            cc=self.cc[mask],
            p=self.p[mask],
            P=self.P[mask],
            AB=self.AB[mask],
            E=self.E[mask],
        )


def _class_partition(basis: BasisSet):
    """Group canonical pairs by ``(la, lb, npa, npb)``; pack statics.

    Returns a list of dicts (sorted by class key) holding the index
    arrays and geometry-independent packed arrays shared by the numpy
    class builder and the autodiff builders.
    """
    shells = basis.shells
    offs = np.asarray(basis.offsets)
    by_key: dict[tuple[int, int, int, int], list[tuple[int, int]]] = {}
    for i, j in canonical_shell_pairs(basis):
        key = (shells[i].l, shells[j].l, shells[i].nprim, shells[j].nprim)
        by_key.setdefault(key, []).append((i, j))
    parts = []
    for key in sorted(by_key):
        la, lb, npa, npb = key
        ish, jsh = np.asarray(by_key[key], dtype=np.intp).T
        exps_a = np.stack([shells[i].exps for i in ish])
        exps_b = np.stack([shells[j].exps for j in jsh])
        coefs_a = np.stack([shells[i].coefs for i in ish])
        coefs_b = np.stack([shells[j].coefs for j in jsh])
        # bra-major primitive layout, as in engine.pair_data
        a = np.repeat(exps_a, npb, axis=1)
        b = np.tile(exps_b, (1, npa))
        cc = np.repeat(coefs_a, npb, axis=1) * np.tile(coefs_b, (1, npa))
        parts.append(
            dict(
                la=la, lb=lb,
                ish=ish, jsh=jsh,
                oa=offs[ish], ob=offs[jsh],
                atom_a=np.asarray([shells[i].atom for i in ish], dtype=np.intp),
                atom_b=np.asarray([shells[j].atom for j in jsh], dtype=np.intp),
                diag=ish == jsh,
                a=a, b=b, cc=cc,
                norms=np.outer(
                    shells[ish[0]].comp_norms, shells[jsh[0]].comp_norms
                ),
            )
        )
    return parts


def _build_shell_classes(basis: BasisSet) -> list[ShellClass]:
    """Pack every shell-pair class of ``basis`` (fresh, no caching)."""
    shells = basis.shells
    centers = np.stack([sh.center for sh in shells])
    classes = []
    for part in _class_partition(basis):
        la, lb = part["la"], part["lb"]
        a, b, cc = part["a"], part["b"], part["cc"]
        Q, N = a.shape
        p = a + b
        A = centers[part["ish"]]
        B = centers[part["jsh"]]
        P = (
            a[:, :, None] * A[:, None, :] + b[:, :, None] * B[:, None, :]
        ) / p[:, :, None]
        AB = A - B
        imax, jmax = la + 1, lb + 2
        E = e_tables_batch(
            imax, jmax, np.repeat(AB, N, axis=0), a.ravel(), b.ravel()
        ).reshape(Q, N, 3, imax + 1, jmax + 1, imax + jmax + 1)
        classes.append(
            ShellClass(
                la=la, lb=lb, imax=imax, jmax=jmax,
                ish=part["ish"], jsh=part["jsh"],
                oa=part["oa"], ob=part["ob"],
                atom_a=part["atom_a"], atom_b=part["atom_b"],
                diag=part["diag"],
                a=a, b=b, cc=cc, p=p, P=P, AB=AB, E=E,
                norms=part["norms"],
            )
        )
    return classes


def build_shell_classes(
    basis: BasisSet, workspace: IntegralWorkspace | None = None
) -> list[ShellClass]:
    """Shell-pair classes from the workspace cache, or freshly packed."""
    if workspace is not None:
        return workspace.shell_classes(basis)
    return _build_shell_classes(basis)


def _chunks(nq: int, per_pair_elems: int):
    """Deterministic pair-axis chunking under the element budget."""
    step = max(1, _CHUNK_ELEMS // max(1, int(per_pair_elems)))
    for lo in range(0, nq, step):
        yield slice(lo, min(lo + step, nq))


# --------------------------------------------------------------------------
# Shared gather/contraction helpers (engine.w_tensor / engine.w_deriv
# with a leading pair axis)
# --------------------------------------------------------------------------

def _einsum(be: ArrayBackend, spec: str, *ops):
    """einsum pinned to ``optimize=False`` on numpy (a fixed, batch-size
    invariant contraction path); other backends use their native
    default."""
    if be.is_numpy:
        return np.einsum(spec, *ops, optimize=False)
    return be.xp.einsum(spec, *ops)


def _contig(be: ArrayBackend, x):
    return np.ascontiguousarray(x) if be.is_numpy else x


def _w_class(E, ca, cb, tbox):
    """``W[q, n, A, B, t, u, v]`` — `engine.w_tensor` over a class."""
    Gs = []
    for dim in range(3):
        G = E[:, :, dim, ca[:, None, dim], cb[None, :, dim], : tbox[dim] + 1]
        Gs.append(G)
    return (
        Gs[0][..., :, None, None]
        * Gs[1][..., None, :, None]
        * Gs[2][..., None, None, :]
    )


def _w_deriv_class(E, aexp, bexp, ca, cb, tbox, side, axis):
    """``d/dX_axis`` of `_w_class` — `engine.w_deriv` over a class."""
    Gs = []
    for dim in range(3):
        ia = ca[:, None, dim]
        jb = cb[None, :, dim]
        T = tbox[dim] + 1
        if dim == axis:
            if side == "bra":
                up = E[:, :, dim, ia + 1, jb, :T]
                lo = E[:, :, dim, np.maximum(ia - 1, 0), jb, :T]
                G = (
                    2.0 * aexp[:, :, None, None, None] * up
                    - ia[None, None, :, :, None] * lo
                )
            elif side == "ket":
                up = E[:, :, dim, ia, jb + 1, :T]
                lo = E[:, :, dim, ia, np.maximum(jb - 1, 0), :T]
                G = (
                    2.0 * bexp[:, :, None, None, None] * up
                    - jb[None, None, :, :, None] * lo
                )
            else:
                raise ValueError(f"side must be 'bra' or 'ket', got {side!r}")
        else:
            G = E[:, :, dim, ia, jb, :T]
        Gs.append(G)
    return (
        Gs[0][..., :, None, None]
        * Gs[1][..., None, :, None]
        * Gs[2][..., None, None, :]
    )


def _block_indices(oa, nfa, ob, nfb):
    """Broadcastable function-index arrays for block scatter."""
    rows = oa[:, None] + np.arange(nfa)[None, :]
    cols = ob[:, None] + np.arange(nfb)[None, :]
    return rows, cols


def _scatter_blocks(out, rows, cols, blk):
    """Write ``(Q, nfa, nfb)`` blocks, then every transposed image
    (diagonal blocks end up holding ``blk.T``)."""
    out[rows[:, :, None], cols[:, None, :]] = blk
    out[cols[:, :, None], rows[:, None, :]] = blk.transpose(0, 2, 1)


# --------------------------------------------------------------------------
# One-electron matrices
# --------------------------------------------------------------------------

def overlap_batched(
    basis: BasisSet,
    workspace: IntegralWorkspace | None = None,
    be: ArrayBackend | None = None,
) -> np.ndarray:
    """Overlap matrix S, shape ``(nbf, nbf)``."""
    be = be or get_backend()
    S = np.zeros((basis.nbf, basis.nbf))
    for cls in build_shell_classes(basis, workspace):
        ca = comp_arrays(cls.la)
        cb = comp_arrays(cls.lb)
        E = be.asarray(cls.E)
        G = E[:, :, 0, ca[:, None, 0], cb[None, :, 0], 0]
        G = G * E[:, :, 1, ca[:, None, 1], cb[None, :, 1], 0]
        G = G * E[:, :, 2, ca[:, None, 2], cb[None, :, 2], 0]
        pref = be.asarray(cls.cc) * (np.pi / be.asarray(cls.p)) ** 1.5
        blk = _einsum(be, "qn,qnab->qab", pref, G) * be.asarray(cls.norms)[None]
        rows, cols = _block_indices(cls.oa, cls.nfa, cls.ob, cls.nfb)
        _scatter_blocks(S, rows, cols, be.to_numpy(blk))
    return S


def _kinetic_1d(E, bexp, ca, cb, deriv_axis=None, aexp=None):
    """Per-dimension overlap/kinetic 1D factors for a class, mirroring
    `onee._kinetic_block` (``deriv_axis=None``) or
    `onee._kinetic_deriv_block` (bra-derivative along ``deriv_axis``)."""
    Svals, Kvals = [], []
    for dim in range(3):
        ia = ca[:, None, dim]
        jb = cb[None, :, dim]
        jm2 = np.maximum(jb - 2, 0)
        if dim == deriv_axis:
            a4 = aexp[:, :, None, None]
            iam = np.maximum(ia - 1, 0)
            s = (
                2.0 * a4 * E[:, :, dim, ia + 1, jb, 0]
                - ia[None, None] * E[:, :, dim, iam, jb, 0]
            )
            s_m2 = (
                2.0 * a4 * E[:, :, dim, ia + 1, jm2, 0]
                - ia[None, None] * E[:, :, dim, iam, jm2, 0]
            )
            s_p2 = (
                2.0 * a4 * E[:, :, dim, ia + 1, jb + 2, 0]
                - ia[None, None] * E[:, :, dim, iam, jb + 2, 0]
            )
        else:
            s = E[:, :, dim, ia, jb, 0]
            s_m2 = E[:, :, dim, ia, jm2, 0]
            s_p2 = E[:, :, dim, ia, jb + 2, 0]
        b4 = bexp[:, :, None, None]
        k = -0.5 * (
            (jb * (jb - 1))[None, None] * s_m2
            - 2.0 * b4 * (2 * jb + 1)[None, None] * s
            + 4.0 * b4**2 * s_p2
        )
        Svals.append(s)
        Kvals.append(k)
    return (
        Kvals[0] * Svals[1] * Svals[2]
        + Svals[0] * Kvals[1] * Svals[2]
        + Svals[0] * Svals[1] * Kvals[2]
    )


def kinetic_batched(
    basis: BasisSet,
    workspace: IntegralWorkspace | None = None,
    be: ArrayBackend | None = None,
) -> np.ndarray:
    """Kinetic-energy matrix T, shape ``(nbf, nbf)``."""
    be = be or get_backend()
    T = np.zeros((basis.nbf, basis.nbf))
    for cls in build_shell_classes(basis, workspace):
        ca = comp_arrays(cls.la)
        cb = comp_arrays(cls.lb)
        E = be.asarray(cls.E)
        tot = _kinetic_1d(E, be.asarray(cls.b), ca, cb)
        pref = be.asarray(cls.cc) * (np.pi / be.asarray(cls.p)) ** 1.5
        blk = _einsum(be, "qn,qnab->qab", pref, tot)
        blk = blk * be.asarray(cls.norms)[None]
        rows, cols = _block_indices(cls.oa, cls.nfa, cls.ob, cls.nfb)
        _scatter_blocks(T, rows, cols, be.to_numpy(blk))
    return T


def _r_tables(be: ArrayBackend, tmax, umax, vmax, p, PQ):
    """Hermite Coulomb tables: fast numpy path or functional xp path."""
    if be.is_numpy:
        return r_tables_batch(tmax, umax, vmax, np.asarray(p), np.asarray(PQ))
    return _r_tables_xp(be, tmax, umax, vmax, p, PQ)


def nuclear_batched(
    basis: BasisSet,
    mol: Molecule,
    workspace: IntegralWorkspace | None = None,
    be: ArrayBackend | None = None,
) -> np.ndarray:
    """Nuclear-attraction matrix V (negative definite), shape
    ``(nbf, nbf)``."""
    be = be or get_backend()
    V = np.zeros((basis.nbf, basis.nbf))
    Zh = mol.atomic_numbers.astype(float)
    centers = mol.coords
    nC = centers.shape[0]
    Z = be.asarray(Zh)
    cen = be.asarray(centers)
    for cls in build_shell_classes(basis, workspace):
        ca = comp_arrays(cls.la)
        cb = comp_arrays(cls.lb)
        L = cls.la + cls.lb
        tbox = (L, L, L)
        nT = (L + 1) ** 3
        N, X = cls.nprim, cls.nfa * cls.nfb
        blk_all = np.empty((cls.npair, cls.nfa, cls.nfb))
        for sl in _chunks(cls.npair, nC * N * nT):
            E = be.asarray(cls.E[sl])
            p = be.asarray(cls.p[sl])
            qc = cls.p[sl].shape[0]
            Wf = _w_class(E, ca, cb, tbox).reshape(qc, N, X, nT)
            PQ = be.asarray(cls.P[sl])[:, None, :, :] - cen[None, :, None, :]
            p_rep = be.xp.broadcast_to(p[:, None, :], (qc, nC, N))
            R = _r_tables(
                be, L, L, L, p_rep.reshape(-1), PQ.reshape(-1, 3)
            ).reshape(qc, nC, N, nT)
            pref = be.asarray(cls.cc[sl]) * (2.0 * np.pi / p)
            t1 = _einsum(be, "qcnt,c->qnt", R, Z)
            val = -_einsum(be, "qnxt,qnt,qn->qx", Wf, t1, pref)
            blk = val.reshape(qc, cls.nfa, cls.nfb) * be.asarray(cls.norms)[None]
            blk_all[sl] = be.to_numpy(blk)
        rows, cols = _block_indices(cls.oa, cls.nfa, cls.ob, cls.nfb)
        _scatter_blocks(V, rows, cols, blk_all)
    return V


# --------------------------------------------------------------------------
# One-electron contracted derivatives
# --------------------------------------------------------------------------

def contract_overlap_deriv_batched(
    basis: BasisSet,
    X: np.ndarray,
    workspace: IntegralWorkspace | None = None,
    be: ArrayBackend | None = None,
) -> np.ndarray:
    """``g[atom, xyz] = sum_{mu nu} X_{mu nu} dS_{mu nu}/d(atom, xyz)``.

    Translational invariance (``dS/dB = -dS/dA``) means only bra
    derivatives are computed; same-atom pairs vanish and are skipped.
    """
    be = be or get_backend()
    natoms = int(max(sh.atom for sh in basis.shells)) + 1
    g = np.zeros((natoms, 3))
    Xs = X + X.T
    for cls in build_shell_classes(basis, workspace):
        mask = (~cls.diag) & (cls.atom_a != cls.atom_b)
        if not mask.any():
            continue
        sub = cls.subset(mask)
        ca = comp_arrays(cls.la)
        cb = comp_arrays(cls.lb)
        E = be.asarray(sub.E)
        a = be.asarray(sub.a)
        b = be.asarray(sub.b)
        pref = be.asarray(sub.cc) * (np.pi / be.asarray(sub.p)) ** 1.5
        rows, cols = _block_indices(sub.oa, cls.nfa, sub.ob, cls.nfb)
        Xblk = be.asarray(
            Xs[rows[:, :, None], cols[:, None, :]] * cls.norms[None]
        )
        vals = np.empty((sub.npair, 3))
        for axis in range(3):
            dW = _w_deriv_class(E, a, b, ca, cb, (0, 0, 0), "bra", axis)
            dW = dW[..., 0, 0, 0]
            v = _einsum(be, "qn,qnab,qab->q", pref, dW, Xblk)
            vals[:, axis] = be.to_numpy(v)
        np.add.at(g, sub.atom_a, vals)
        np.subtract.at(g, sub.atom_b, vals)
    return g


def contract_kinetic_deriv_batched(
    basis: BasisSet,
    X: np.ndarray,
    workspace: IntegralWorkspace | None = None,
    be: ArrayBackend | None = None,
) -> np.ndarray:
    """``sum X_{mu nu} dT_{mu nu}/dR`` via bra-side differentiation."""
    be = be or get_backend()
    natoms = int(max(sh.atom for sh in basis.shells)) + 1
    g = np.zeros((natoms, 3))
    Xs = X + X.T
    for cls in build_shell_classes(basis, workspace):
        mask = (~cls.diag) & (cls.atom_a != cls.atom_b)
        if not mask.any():
            continue
        sub = cls.subset(mask)
        ca = comp_arrays(cls.la)
        cb = comp_arrays(cls.lb)
        E = be.asarray(sub.E)
        a = be.asarray(sub.a)
        b = be.asarray(sub.b)
        pref = be.asarray(sub.cc) * (np.pi / be.asarray(sub.p)) ** 1.5
        rows, cols = _block_indices(sub.oa, cls.nfa, sub.ob, cls.nfb)
        Xblk = be.asarray(
            Xs[rows[:, :, None], cols[:, None, :]] * cls.norms[None]
        )
        vals = np.empty((sub.npair, 3))
        for axis in range(3):
            tot = _kinetic_1d(E, b, ca, cb, deriv_axis=axis, aexp=a)
            blk = _einsum(be, "qn,qnab->qab", pref, tot)
            v = _einsum(be, "qab,qab->q", blk, Xblk)
            vals[:, axis] = be.to_numpy(v)
        np.add.at(g, sub.atom_a, vals)
        np.subtract.at(g, sub.atom_b, vals)
    return g


def contract_nuclear_deriv_batched(
    basis: BasisSet,
    mol: Molecule,
    X: np.ndarray,
    workspace: IntegralWorkspace | None = None,
    be: ArrayBackend | None = None,
) -> np.ndarray:
    """``sum X_{mu nu} dV_{mu nu}/dR`` including operator-center terms.

    Bra/ket derivatives come from the angular-momentum shift; the
    derivative with respect to each nuclear position C follows from
    translational invariance of each C term:
    ``dV_C/dC = -(dV_C/dA + dV_C/dB)``.
    """
    be = be or get_backend()
    natoms = mol.natoms
    g = np.zeros((natoms, 3))
    Zh = mol.atomic_numbers.astype(float)
    centers = mol.coords
    nC = centers.shape[0]
    cen = be.asarray(centers)
    Xs = X + X.T
    for cls in build_shell_classes(basis, workspace):
        ca = comp_arrays(cls.la)
        cb = comp_arrays(cls.lb)
        L = cls.la + cls.lb + 1
        tbox = (L, L, L)
        nT = (L + 1) ** 3
        N, X_ = cls.nprim, cls.nfa * cls.nfb
        rows, cols = _block_indices(cls.oa, cls.nfa, cls.ob, cls.nfb)
        Xg = np.where(
            cls.diag[:, None, None],
            X[rows[:, :, None], cols[:, None, :]],
            Xs[rows[:, :, None], cols[:, None, :]],
        ) * cls.norms[None]
        Xf = be.asarray(Xg.reshape(cls.npair, X_))
        # per-class accumulators so chunking cannot change the result
        vals_all = np.empty((cls.npair, 2, 3, nC))
        for sl in _chunks(cls.npair, nC * N * nT):
            E = be.asarray(cls.E[sl])
            a = be.asarray(cls.a[sl])
            b = be.asarray(cls.b[sl])
            p = be.asarray(cls.p[sl])
            qc = cls.p[sl].shape[0]
            PQ = be.asarray(cls.P[sl])[:, None, :, :] - cen[None, :, None, :]
            p_rep = be.xp.broadcast_to(p[:, None, :], (qc, nC, N))
            R = _r_tables(
                be, L, L, L, p_rep.reshape(-1), PQ.reshape(-1, 3)
            ).reshape(qc, nC, N, nT)
            pref = be.asarray(cls.cc[sl]) * (2.0 * np.pi / p)
            for si, side in enumerate(("bra", "ket")):
                for axis in range(3):
                    dW = _w_deriv_class(E, a, b, ca, cb, tbox, side, axis)
                    dWf = dW.reshape(qc, N, X_, nT)
                    t1 = _einsum(be, "qnxt,qx->qnt", dWf, Xf[sl])
                    t1 = t1 * pref[:, :, None]
                    v = -_einsum(be, "qcnt,qnt->qc", R, t1)
                    vals_all[sl, si, axis] = be.to_numpy(v) * Zh[None, :]
        for si, atoms_side in enumerate((cls.atom_a, cls.atom_b)):
            for axis in range(3):
                v = vals_all[:, si, axis, :]
                np.add.at(g[:, axis], atoms_side, v.sum(axis=1))
                g[:, axis] -= v.sum(axis=0)
    return g


# --------------------------------------------------------------------------
# Schwarz bounds
# --------------------------------------------------------------------------

def schwarz_pair_bounds_batched(
    basis: BasisSet,
    workspace: IntegralWorkspace | None = None,
    be: ArrayBackend | None = None,
) -> np.ndarray:
    """Cauchy-Schwarz bounds ``Q_ij = max sqrt((ab|ab))`` per shell pair.

    Standard screening for all ERI classes: ``|(ab|cd)| <= Q_ab Q_cd``
    and ``|(ab|P)| <= Q_ab Q_P``. Shape ``(nshells, nshells)``. The bound
    ignores the component normalization (O(1) factors). Only the
    diagonal of each ``(ab|ab)`` block is assembled. ``workspace``
    serves the packed shell classes; cached *bound tables* live one
    level up in `IntegralWorkspace.schwarz_bounds`, the one table every
    screened driver (and the loop reference) takes its decisions from.
    """
    be = be or get_backend()
    nsh = basis.nshells
    Qmat = np.zeros((nsh, nsh))
    for cls in build_shell_classes(basis, workspace):
        ca = comp_arrays(cls.la)
        cb = comp_arrays(cls.lb)
        L = cls.la + cls.lb
        tbox = (L, L, L)
        tb_idx = hermite_box(tbox)
        Tb = tb_idx.shape[0]
        phase = be.asarray(_phase(tb_idx))
        N, X = cls.nprim, cls.nfa * cls.nfb
        bound_all = np.empty(cls.npair)
        per_pair = max(N * N * (2 * L + 1) ** 3, N * N * Tb * Tb)
        for sl in _chunks(cls.npair, per_pair):
            E = be.asarray(cls.E[sl])
            p = be.asarray(cls.p[sl])
            cc = be.asarray(cls.cc[sl])
            P = be.asarray(cls.P[sl])
            qc = cls.p[sl].shape[0]
            Wb = _w_class(E, ca, cb, tbox).reshape(qc, N, X, Tb)
            Wk = Wb * phase[None, None, None, :]
            pn = p[:, :, None]
            pm = p[:, None, :]
            alpha = pn * pm / (pn + pm)
            PQ = P[:, :, None, :] - P[:, None, :, :]
            R = _r_tables(
                be, 2 * L, 2 * L, 2 * L,
                alpha.reshape(-1), PQ.reshape(-1, 3),
            ).reshape(qc, N, N, 2 * L + 1, 2 * L + 1, 2 * L + 1)
            K = (
                _TWO_PI_52
                / (pn * pm * be.xp.sqrt(pn + pm))
                * cc[:, :, None]
                * cc[:, None, :]
            )
            ts = tb_idx[:, None, :] + tb_idx[None, :, :]
            M = R[:, :, :, ts[..., 0], ts[..., 1], ts[..., 2]]
            M = M * K[..., None, None]
            M2 = _contig(be, M.transpose(0, 1, 3, 2, 4)).reshape(
                qc, N * Tb, N * Tb
            )
            Wb2 = _contig(be, Wb.transpose(0, 2, 1, 3)).reshape(qc, X, N * Tb)
            t1 = be.xp.matmul(Wb2, M2).reshape(qc, X, N, Tb)
            diag = _einsum(be, "qxms,qmxs->qx", t1, Wk)
            bound = be.xp.sqrt(be.xp.max(be.xp.abs(diag), axis=1))
            bound_all[sl] = be.to_numpy(bound)
        Qmat[cls.ish, cls.jsh] = bound_all
        Qmat[cls.jsh, cls.ish] = bound_all
    return Qmat


# --------------------------------------------------------------------------
# Three-center integrals and derivative contraction
# --------------------------------------------------------------------------

def _group_statics(groups, be: ArrayBackend):
    """Per-auxiliary-group ket expansions, built once per call."""
    statics = []
    for grp in groups:
        lk = (grp.l, grp.l, grp.l)
        tk_idx = hermite_box(lk)
        cg = comp_arrays(grp.l)
        m = grp.pd.nprim
        C = len(cg)
        Wk = w_tensor(grp.pd, cg, _S_COMP, lk)[:, :, 0, :, :, :]
        Wk = Wk.reshape(m, C, -1) * _phase(tk_idx)[None, None, :]
        statics.append(
            dict(
                grp=grp, m=m, C=C, Tk=tk_idx.shape[0], tk_idx=tk_idx,
                qk=be.asarray(grp.pd.p), cck=be.asarray(grp.pd.cc),
                Pk=be.asarray(grp.pd.P),
                Wk=be.asarray(Wk),
                func_idx=grp.offsets[:, None] + np.arange(C)[None, :],
                comp_norms=grp.comp_norms,
            )
        )
    return statics


def _class_group_blocks(be, st, p, cc, P, tb_idx, tbox):
    """Gathered, prefactor-folded Hermite kernel ``M2`` for one
    (class chunk, aux group)."""
    xp = be.xp
    qc, N = p.shape
    lk = (st["grp"].l,) * 3
    TX = tbox[0] + lk[0]
    TY = tbox[1] + lk[1]
    TZ = tbox[2] + lk[2]
    p4 = p[:, :, None]
    qk = st["qk"][None, None, :]
    alpha = p4 * qk / (p4 + qk)
    PQ = P[:, :, None, :] - st["Pk"][None, None, :, :]
    R = _r_tables(
        be, TX, TY, TZ, alpha.reshape(-1), PQ.reshape(-1, 3)
    ).reshape(qc, N, st["m"], TX + 1, TY + 1, TZ + 1)
    K = (
        _TWO_PI_52
        / (p4 * qk * xp.sqrt(p4 + qk))
        * cc[:, :, None]
        * st["cck"][None, None, :]
    )
    ts = tb_idx[:, None, :] + st["tk_idx"][None, :, :]
    M = R[:, :, :, ts[..., 0], ts[..., 1], ts[..., 2]]
    Tb = tb_idx.shape[0]
    if be.is_numpy:
        # fuse the prefactor multiply with the (m, Tb) transpose copy:
        # one pass over M instead of two
        out = np.empty((qc, N, Tb, st["m"], st["Tk"]))
        np.multiply(
            M.transpose(0, 1, 3, 2, 4), K[:, :, None, :, None], out=out
        )
        return out.reshape(qc, N * Tb, st["m"] * st["Tk"])
    M = M * K[..., None, None]
    return _contig(be, M.transpose(0, 1, 3, 2, 4)).reshape(
        qc, N * Tb, st["m"] * st["Tk"]
    )


def _group_apply_batched(be, M2, st, Wb2):
    """Contract bra expansions ``Wb2 (qc, X, N*Tb)`` with the kernel
    pieces of one aux group: ``(qc, m, X, C)`` blocks."""
    qc, X, _ = Wb2.shape
    t1 = be.xp.matmul(Wb2, M2)
    t1 = _contig(
        be, t1.reshape(qc, X, st["m"], st["Tk"]).transpose(0, 2, 1, 3)
    )
    return be.xp.matmul(t1, st["Wk"].transpose(0, 2, 1)[None])


def eri3c_batched(
    basis: BasisSet,
    aux: BasisSet,
    screen: float = 0.0,
    workspace: IntegralWorkspace | None = None,
    be: ArrayBackend | None = None,
) -> np.ndarray:
    """Three-center integrals ``(mu nu | P)``, shape ``(nbf, nbf, naux)``.

    With ``screen > 0`` a bra shell pair is skipped when its Schwarz
    bound ``Q_ab * max_P Q_P`` cannot reach the threshold — every
    neglected integral is individually below ``screen`` and the summed
    bound of everything skipped is accounted to the workspace
    (`IntegralWorkspace.record_screen`). ``workspace`` additionally
    serves cached shell classes, aux scaffolding and bound tables.
    """
    be = be or get_backend()
    nb, na = basis.nbf, aux.nbf
    out = np.zeros((nb, nb, na))
    groups = _aux_groups(workspace, aux)
    statics = _group_statics(groups, be)
    classes = build_shell_classes(basis, workspace)
    Q = None
    if screen > 0.0:
        Q = _schwarz_table(basis, workspace)
        qaux = _aux_bounds(aux, workspace)
        qaux_max = float(qaux.max())
        qaux_sum = float(qaux.sum())
    npairs = len(canonical_shell_pairs(basis))
    nskip = 0
    neglected: list[np.ndarray] = []
    for cls in classes:
        if Q is not None:
            qv = Q[cls.ish, cls.jsh]
            keep = qv * qaux_max > screen
            if not keep.all():
                skip = ~keep
                nskip += int(skip.sum())
                nfab = (cls.nfa * cls.nfb) * np.where(cls.diag[skip], 1.0, 2.0)
                neglected.append(qv[skip] * qaux_sum * nfab)
                cls = cls.subset(keep)
        if cls.npair == 0:
            continue
        ca = comp_arrays(cls.la)
        cb = comp_arrays(cls.lb)
        L = cls.la + cls.lb
        tbox = (L, L, L)
        tb_idx = hermite_box(tbox)
        Tb = tb_idx.shape[0]
        N, X = cls.nprim, cls.nfa * cls.nfb
        rows, cols = _block_indices(cls.oa, cls.nfa, cls.ob, cls.nfb)
        maxTk = max(st["m"] * st["Tk"] for st in statics)
        per_pair = N * maxTk * max(Tb, 8)
        for sl in _chunks(cls.npair, per_pair):
            E = be.asarray(cls.E[sl])
            p = be.asarray(cls.p[sl])
            cc = be.asarray(cls.cc[sl])
            P = be.asarray(cls.P[sl])
            qc = cls.p[sl].shape[0]
            Wb = _w_class(E, ca, cb, tbox).reshape(qc, N, X, Tb)
            Wb2 = _contig(be, Wb.transpose(0, 2, 1, 3)).reshape(qc, X, N * Tb)
            off = ~cls.diag[sl]
            for st in statics:
                M2 = _class_group_blocks(be, st, p, cc, P, tb_idx, tbox)
                blk = _group_apply_batched(be, M2, st, Wb2)
                blk = blk.reshape(qc, st["m"], cls.nfa, cls.nfb, st["C"])
                blk = blk * be.asarray(cls.norms)[None, None, :, :, None]
                blk = blk * be.asarray(st["comp_norms"])[
                    None, None, None, None, :
                ]
                blknp = be.to_numpy(blk)
                fi = st["func_idx"]
                out[
                    rows[sl][:, :, None, None, None],
                    cols[sl][:, None, :, None, None],
                    fi[None, None, None, :, :],
                ] = blknp.transpose(0, 2, 3, 1, 4)
                if off.any():
                    out[
                        cols[sl][off][:, :, None, None, None],
                        rows[sl][off][:, None, :, None, None],
                        fi[None, None, None, :, :],
                    ] = blknp[off].transpose(0, 3, 2, 1, 4)
    if workspace is not None and screen > 0.0:
        workspace.record_screen(
            "eri3c", npairs, nskip, _fsum(neglected)
        )
    return out


def _fsum(chunks: list[np.ndarray]) -> float:
    """Exactly rounded sum of the skipped-pair bounds: independent of
    class order and chunking, so the recorded bound is reproducible."""
    return math.fsum(np.concatenate(chunks)) if chunks else 0.0


def contract_eri3c_deriv_batched(
    basis: BasisSet,
    aux: BasisSet,
    Z: np.ndarray,
    natoms: int,
    screen: float = 0.0,
    workspace: IntegralWorkspace | None = None,
    be: ArrayBackend | None = None,
) -> np.ndarray:
    """``g = sum_{mu nu P} Z_{mu nu P} d(mu nu|P)/dR``, shape ``(natoms, 3)``.

    ``Z`` has shape ``(nbf, nbf, naux)`` and need not be symmetric in
    (mu, nu). Auxiliary-center derivatives follow from translational
    invariance (``dP = -(dA + dB)``).

    With ``screen > 0`` a bra shell pair is skipped when ``DERIV_SAFETY *
    Q_ab * max_P Q_P * max |Z|`` over the pair's coefficient slice cannot
    reach the threshold. Skipping drops the pair's bra derivatives
    together with their translational-invariance images on the auxiliary
    centers, so the screened gradient still sums to zero over all atoms.
    The summed bound of everything skipped is accounted to the workspace.

    Per-(pair, group, axis) contracted values fill whole-class arrays
    chunk by chunk; the gradient is accumulated from those once per
    class, so the result does not depend on the chunk size.
    """
    be = be or get_backend()
    g = np.zeros((natoms, 3))
    groups = _aux_groups(workspace, aux)
    statics = _group_statics(groups, be)
    classes = build_shell_classes(basis, workspace)
    Zs = 0.5 * (Z + Z.transpose(1, 0, 2))
    Q = None
    if screen > 0.0:
        Q = _schwarz_table(basis, workspace)
        qaux = _aux_bounds(aux, workspace)
        qaux_max = float(qaux.max())
        qaux_sum = float(qaux.sum())
        Zblk = _zblk_table(basis, Zs)
    npairs = len(canonical_shell_pairs(basis))
    nskip = 0
    neglected: list[np.ndarray] = []
    for cls in classes:
        pfac = np.where(cls.diag, 1.0, 2.0)
        if Q is not None:
            qv = Q[cls.ish, cls.jsh]
            zv = Zblk[cls.ish, cls.jsh]
            keep = DERIV_SAFETY * qv * qaux_max * zv > screen
            if not keep.all():
                skip = ~keep
                nskip += int(skip.sum())
                neglected.append(
                    DERIV_SAFETY * qv[skip] * zv[skip] * qaux_sum
                    * cls.nfa * cls.nfb * pfac[skip]
                )
                cls = cls.subset(keep)
                pfac = pfac[keep]
        if cls.npair == 0:
            continue
        ca = comp_arrays(cls.la)
        cb = comp_arrays(cls.lb)
        L = cls.la + cls.lb + 1
        tbox = (L, L, L)
        tb_idx = hermite_box(tbox)
        Tb = tb_idx.shape[0]
        N, X = cls.nprim, cls.nfa * cls.nfb
        rows, cols = _block_indices(cls.oa, cls.nfa, cls.ob, cls.nfb)
        norms_flat = cls.norms.ravel()
        # per-pair bra/ket-center sums (Q, 3) and, per group, the
        # per-aux-shell vA + vB (Q, 3, m) that go onto the aux centers
        sA = np.zeros((cls.npair, 3))
        sB = np.zeros((cls.npair, 3))
        vAB = [np.empty((cls.npair, 3, st["m"])) for st in statics]
        maxTk = max(st["m"] * st["Tk"] for st in statics)
        per_pair = N * max(maxTk * Tb // 4, 7 * X * Tb)
        for sl in _chunks(cls.npair, per_pair):
            E = be.asarray(cls.E[sl])
            a = be.asarray(cls.a[sl])
            b = be.asarray(cls.b[sl])
            p = be.asarray(cls.p[sl])
            cc = be.asarray(cls.cc[sl])
            P = be.asarray(cls.P[sl])
            qc = cls.p[sl].shape[0]
            dWb = {}
            for axis in range(3):
                for side in ("bra", "ket"):
                    dW = _w_deriv_class(E, a, b, ca, cb, tbox, side, axis)
                    dWb[(side, axis)] = _contig(
                        be,
                        dW.reshape(qc, N, X, Tb).transpose(0, 2, 1, 3),
                    ).reshape(qc, X, N * Tb)
            pfc = pfac[sl]
            for gi, st in enumerate(statics):
                fi = st["func_idx"]
                # gathered straight into the (q, m, X, C) layout of dA/dB
                zg = Zs[
                    rows[sl][:, None, :, None, None],
                    cols[sl][:, None, None, :, None],
                    fi[None, :, None, None, :],
                ].reshape(qc, st["m"], X, st["C"])
                zg = zg * norms_flat[None, None, :, None]
                zg = zg * (pfc[:, None] * st["comp_norms"][None, :])[
                    :, None, None, :
                ]
                zg = be.asarray(zg)
                M2 = _class_group_blocks(be, st, p, cc, P, tb_idx, tbox)
                for axis in range(3):
                    dA = _group_apply_batched(be, M2, st, dWb[("bra", axis)])
                    dB = _group_apply_batched(be, M2, st, dWb[("ket", axis)])
                    vA = _einsum(be, "qmxc,qmxc->qm", dA, zg)
                    vB = _einsum(be, "qmxc,qmxc->qm", dB, zg)
                    vAh = be.to_numpy(vA)
                    vBh = be.to_numpy(vB)
                    sA[sl, axis] += vAh.sum(axis=1)
                    sB[sl, axis] += vBh.sum(axis=1)
                    vAB[gi][sl, axis] = vAh + vBh
        np.add.at(g, cls.atom_a, sA)
        np.add.at(g, cls.atom_b, sB)
        for st, v in zip(statics, vAB):
            np.subtract.at(g, st["grp"].atoms, v.sum(axis=0).T)
    if workspace is not None and screen > 0.0:
        workspace.record_screen(
            "eri3c_deriv", npairs, nskip, _fsum(neglected)
        )
    return g


# --------------------------------------------------------------------------
# Functional (trace-friendly) table builders for non-numpy backends
# --------------------------------------------------------------------------

def _boys_xp(be: ArrayBackend, mmax: int, T):
    """Functional mirror of `boys.boys_array` in the backend namespace.

    Same algorithm — top order from the regularized incomplete gamma,
    downward recursion, series limit below 1e-14 — written without
    in-place updates so JAX can trace and differentiate it.
    """
    from scipy.special import gamma

    xp = be.xp
    a = mmax + 0.5
    small = T < 1.0e-14
    Tsafe = xp.where(small, 1.0, T)
    top = float(gamma(a)) * be.gammainc(a, Tsafe) / (2.0 * Tsafe**a)
    cols = [None] * (mmax + 1)
    cols[mmax] = xp.where(small, 1.0 / (2 * mmax + 1), top)
    expT = xp.exp(-xp.minimum(T, 700.0))
    for k in range(mmax, 0, -1):
        val = (2.0 * T * cols[k] + expT) / (2 * k - 1)
        cols[k - 1] = xp.where(small, 1.0 / (2 * (k - 1) + 1), val)
    return xp.stack(cols, axis=-1)


def _r_tables_xp(be: ArrayBackend, tmax: int, umax: int, vmax: int, p, PQ):
    """Functional mirror of `engine.r_tables_batch`: Hermite Coulomb
    tables ``R[n, t, u, v]`` via the standard downward recursion over
    auxiliary order, expressed as a dict of per-(t,u,v) vectors."""
    xp = be.xp
    nmax = tmax + umax + vmax
    T = p * xp.sum(PQ * PQ, axis=1)
    F = _boys_xp(be, nmax, T)
    levels = []
    scale = xp.ones_like(p)
    for m in range(nmax + 1):
        levels.append({(0, 0, 0): scale * F[:, m]})
        scale = scale * (-2.0 * p)
    x, y, z = PQ[:, 0], PQ[:, 1], PQ[:, 2]
    for total in range(1, nmax + 1):
        hi = nmax - total + 1
        for t in range(min(total, tmax) + 1):
            for u in range(min(total - t, umax) + 1):
                v = total - t - u
                if v < 0 or v > vmax:
                    continue
                for m in range(hi):
                    up = levels[m + 1]
                    if t > 0:
                        val = x * up[(t - 1, u, v)]
                        if t > 1:
                            val = val + (t - 1) * up[(t - 2, u, v)]
                    elif u > 0:
                        val = y * up[(t, u - 1, v)]
                        if u > 1:
                            val = val + (u - 1) * up[(t, u - 2, v)]
                    else:
                        val = z * up[(t, u, v - 1)]
                        if v > 1:
                            val = val + (v - 1) * up[(t, u, v - 2)]
                    levels[m][(t, u, v)] = val
    L0 = levels[0]
    return xp.stack(
        [
            xp.stack(
                [
                    xp.stack([L0[(t, u, v)] for v in range(vmax + 1)], axis=-1)
                    for u in range(umax + 1)
                ],
                axis=-2,
            )
            for t in range(tmax + 1)
        ],
        axis=-3,
    )


def _e_tables_xp(be: ArrayBackend, imax: int, jmax: int, AB, a, b):
    """Functional mirror of `engine.e_tables_batch`: Hermite expansion
    tables ``E[n, 3, i, j, t]`` built recursively as dicts of vectors.
    ``AB`` has shape ``(n, 3)`` and may be a traced (differentiable)
    array — this is the geometry entry point for autodiff."""
    xp = be.xp
    p = a + b
    q = a * b / p
    inv2p = 1.0 / (2.0 * p)
    tmax = imax + jmax
    dims = []
    for dim in range(3):
        Qd = AB[:, dim]
        tab = {(0, 0, 0): xp.exp(-q * Qd * Qd)}
        Xpa = -(b / p) * Qd
        Xpb = (a / p) * Qd
        for i in range(imax):
            for t in range(i + 1):
                val = Xpa * tab[(i, 0, t)]
                if t > 0:
                    val = val + inv2p * tab[(i, 0, t - 1)]
                if t + 1 <= i:
                    val = val + (t + 1) * tab[(i, 0, t + 1)]
                tab[(i + 1, 0, t)] = val
            tab[(i + 1, 0, i + 1)] = inv2p * tab[(i, 0, i)]
        for i in range(imax + 1):
            for j in range(jmax):
                for t in range(i + j + 1):
                    val = Xpb * tab[(i, j, t)]
                    if t > 0:
                        val = val + inv2p * tab[(i, j, t - 1)]
                    if t + 1 <= i + j:
                        val = val + (t + 1) * tab[(i, j, t + 1)]
                    tab[(i, j + 1, t)] = val
                tab[(i, j + 1, i + j + 1)] = inv2p * tab[(i, j, i + j)]
        zeros = xp.zeros_like(p)
        arr = xp.stack(
            [
                xp.stack(
                    [
                        xp.stack(
                            [
                                tab.get((i, j, t), zeros)
                                for t in range(tmax + 1)
                            ],
                            axis=-1,
                        )
                        for j in range(jmax + 1)
                    ],
                    axis=-2,
                )
                for i in range(imax + 1)
            ],
            axis=-3,
        )
        dims.append(arr)
    return xp.stack(dims, axis=1)


class AutodiffIntegrals:
    """Integral matrices as pure functions of atom coordinates.

    Built for the JAX backend: every method takes ``coords`` with shape
    ``(natoms, 3)`` in the backend namespace and returns a backend
    array assembled purely functionally, so ``jax.grad`` through e.g.
    ``sum(X * overlap(coords))`` yields the exact contracted derivative
    — an autodiff oracle for the hand-derived `contract_*_deriv`
    drivers. Test-only: no screening, no chunking, no caching.
    """

    def __init__(
        self,
        basis: BasisSet,
        mol: Molecule,
        aux: BasisSet | None = None,
        be: ArrayBackend | None = None,
    ) -> None:
        self.be = be or get_backend()
        self.basis = basis
        self.mol = mol
        self.aux = aux
        self.nbf = basis.nbf
        self.natoms = mol.natoms
        self.Z = self.be.asarray(mol.atomic_numbers.astype(float))
        shell_atoms = np.asarray([sh.atom for sh in basis.shells])
        if not np.allclose(
            np.stack([sh.center for sh in basis.shells]),
            mol.coords[shell_atoms],
        ):
            raise ValueError("basis shell centers do not sit on mol atoms")
        self._shell_atoms = shell_atoms
        self._parts = _class_partition(basis)
        self._groups = None
        if aux is not None:
            self._groups = _group_statics(_aux_groups(None, aux), self.be)
            self._aux_atoms = [st["grp"].atoms for st in self._groups]

    def _geometry(self, part, coords, imax: int, jmax: int):
        """Traced per-class geometry: centers, product centers, E."""
        xp = self.be.xp
        a, b = part["a"], part["b"]
        Q, N = a.shape
        A = coords[self._shell_atoms[part["ish"]]]
        B = coords[self._shell_atoms[part["jsh"]]]
        p = a + b
        P = (
            a[:, :, None] * A[:, None, :] + b[:, :, None] * B[:, None, :]
        ) / p[:, :, None]
        AB = A - B
        E = _e_tables_xp(
            self.be, imax, jmax,
            xp.repeat(AB, N, axis=0),
            self.be.asarray(a.ravel()), self.be.asarray(b.ravel()),
        ).reshape(Q, N, 3, imax + 1, jmax + 1, imax + jmax + 1)
        return p, P, E

    def _assemble(self, M, part, blk, nfa, nfb):
        """Scatter symmetric blocks: direct then transposed image."""
        rows, cols = _block_indices(part["oa"], nfa, part["ob"], nfb)
        M = self.be.scatter_set(M, (rows[:, :, None], cols[:, None, :]), blk)
        return self.be.scatter_set(
            M, (cols[:, :, None], rows[:, None, :]), blk.transpose(0, 2, 1)
        )

    def overlap(self, coords):
        xp = self.be.xp
        S = xp.zeros((self.nbf, self.nbf))
        for part in self._parts:
            ca, cb = comp_arrays(part["la"]), comp_arrays(part["lb"])
            nfa, nfb = len(ca), len(cb)
            p, _, E = self._geometry(part, coords, part["la"], part["lb"])
            G = E[:, :, 0, ca[:, None, 0], cb[None, :, 0], 0]
            G = G * E[:, :, 1, ca[:, None, 1], cb[None, :, 1], 0]
            G = G * E[:, :, 2, ca[:, None, 2], cb[None, :, 2], 0]
            pref = self.be.asarray(part["cc"]) * (np.pi / p) ** 1.5
            blk = xp.einsum("qn,qnab->qab", pref, G)
            blk = blk * self.be.asarray(part["norms"])[None]
            S = self._assemble(S, part, blk, nfa, nfb)
        return S

    def kinetic(self, coords):
        xp = self.be.xp
        T = xp.zeros((self.nbf, self.nbf))
        for part in self._parts:
            ca, cb = comp_arrays(part["la"]), comp_arrays(part["lb"])
            nfa, nfb = len(ca), len(cb)
            p, _, E = self._geometry(part, coords, part["la"], part["lb"] + 2)
            tot = _kinetic_1d(E, self.be.asarray(part["b"]), ca, cb)
            pref = self.be.asarray(part["cc"]) * (np.pi / p) ** 1.5
            blk = xp.einsum("qn,qnab->qab", pref, tot)
            blk = blk * self.be.asarray(part["norms"])[None]
            T = self._assemble(T, part, blk, nfa, nfb)
        return T

    def nuclear(self, coords):
        xp = self.be.xp
        V = xp.zeros((self.nbf, self.nbf))
        nC = self.natoms
        for part in self._parts:
            ca, cb = comp_arrays(part["la"]), comp_arrays(part["lb"])
            nfa, nfb = len(ca), len(cb)
            L = part["la"] + part["lb"]
            nT = (L + 1) ** 3
            p, P, E = self._geometry(part, coords, part["la"], part["lb"])
            Q, N = part["a"].shape
            Wf = _w_class(E, ca, cb, (L, L, L)).reshape(Q, N, nfa * nfb, nT)
            PQ = P[:, None, :, :] - coords[None, :, None, :]
            p_rep = xp.broadcast_to(p[:, None, :], (Q, nC, N))
            R = _r_tables_xp(
                self.be, L, L, L, p_rep.reshape(-1), PQ.reshape(-1, 3)
            ).reshape(Q, nC, N, nT)
            pref = self.be.asarray(part["cc"]) * (2.0 * np.pi / p)
            t1 = xp.einsum("qcnt,c->qnt", R, self.Z)
            val = -xp.einsum("qnxt,qnt,qn->qx", Wf, t1, pref)
            blk = val.reshape(Q, nfa, nfb)
            blk = blk * self.be.asarray(part["norms"])[None]
            V = self._assemble(V, part, blk, nfa, nfb)
        return V

    def hcore(self, coords):
        return self.kinetic(coords) + self.nuclear(coords)

    def eri3c(self, coords):
        if self._groups is None:
            raise ValueError("AutodiffIntegrals built without an aux basis")
        xp = self.be.xp
        out = xp.zeros((self.nbf, self.nbf, self.aux.nbf))
        for part in self._parts:
            ca, cb = comp_arrays(part["la"]), comp_arrays(part["lb"])
            nfa, nfb = len(ca), len(cb)
            L = part["la"] + part["lb"]
            tbox = (L, L, L)
            tb_idx = hermite_box(tbox)
            Tb = tb_idx.shape[0]
            p, P, E = self._geometry(part, coords, part["la"], part["lb"])
            Q, N = part["a"].shape
            X = nfa * nfb
            Wb = _w_class(E, ca, cb, tbox).reshape(Q, N, X, Tb)
            cc = self.be.asarray(part["cc"])
            rows, cols = _block_indices(part["oa"], nfa, part["ob"], nfb)
            offdiag = np.nonzero(part["ish"] != part["jsh"])[0]
            for st, g_atoms in zip(self._groups, self._aux_atoms):
                lk = (st["grp"].l,) * 3
                TX, TY, TZ = (tbox[d] + lk[d] for d in range(3))
                Pk = coords[g_atoms]
                p4 = p[:, :, None]
                qk = st["qk"][None, None, :]
                alpha = p4 * qk / (p4 + qk)
                PQ = P[:, :, None, :] - Pk[None, None, :, :]
                R = _r_tables_xp(
                    self.be, TX, TY, TZ, alpha.reshape(-1), PQ.reshape(-1, 3)
                ).reshape(Q, N, st["m"], TX + 1, TY + 1, TZ + 1)
                K = (
                    _TWO_PI_52
                    / (p4 * qk * xp.sqrt(p4 + qk))
                    * cc[:, :, None]
                    * st["cck"][None, None, :]
                )
                ts = tb_idx[:, None, :] + st["tk_idx"][None, :, :]
                M = R[:, :, :, ts[..., 0], ts[..., 1], ts[..., 2]]
                M = M * K[..., None, None]
                blk = xp.einsum("qnxt,qnmts,mcs->qmxc", Wb, M, st["Wk"])
                blk = blk.reshape(Q, st["m"], nfa, nfb, st["C"])
                blk = blk * self.be.asarray(part["norms"])[None, None, :, :, None]
                blk = blk * self.be.asarray(st["comp_norms"])[
                    None, None, None, None, :
                ]
                fi = st["func_idx"]
                out = self.be.scatter_set(
                    out,
                    (
                        rows[:, :, None, None, None],
                        cols[:, None, :, None, None],
                        fi[None, None, None, :, :],
                    ),
                    blk.transpose(0, 2, 3, 1, 4),
                )
                if offdiag.size:
                    out = self.be.scatter_set(
                        out,
                        (
                            cols[offdiag][:, :, None, None, None],
                            rows[offdiag][:, None, :, None, None],
                            fi[None, None, None, :, :],
                        ),
                        blk[offdiag].transpose(0, 3, 2, 1, 4),
                    )
        return out
