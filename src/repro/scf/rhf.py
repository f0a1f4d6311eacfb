"""Restricted Hartree-Fock: conventional (four-center) and RI variants.

The RI fit factorises the metric once per geometry, ``J = L L^T``
(NumPy's Cholesky, then a blocked triangular inverse in LAPACK
``dtrtri``'s order; metrics of one size as one stack), and folds
``L^{-T}`` into the
three-center integrals: ``B = (mu nu|P) L^{-T}``, so that
``(mn|ls)_RI = sum_P B_mn^P B_ls^P`` with the exact ``J^{-1}``. No
metric eigenvalue is screened; a metric that is not positive definite
raises `NumericalDivergenceError` naming the fragment. The RI Fock build
implements the paper's Eq. (8): with ``B`` held in memory, Coulomb and
exchange contractions become sequences of GEMMs routed through the
FLOP-counted `repro.gemm.gemm`. The conventional path (explicit
``(mu nu|la si)``) is retained as the state-of-the-art baseline the paper
compares against (Table III / Fig. 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..basis.auxiliary import auto_auxiliary
from ..basis.basisset import BasisSet
from ..chem.molecule import Molecule
from ..gemm import bgemm, eigh_orth, gemm, sym_inv_sqrt
from ..integrals import eri2c, eri3c, eri4c, hcore, overlap
from ..integrals.engine import in_scope
from ..numerics import NumericalDivergenceError
from .diis import DIIS


class SCFConvergenceError(RuntimeError):
    """Raised when the SCF loop exhausts its iteration budget."""


@dataclass
class SCFResult:
    """Converged restricted HF state.

    ``D`` is the occupation-2 AO density ``2 C_occ C_occ^T``. When the RI
    path is used, the fitted tensor ``B`` (``(nbf, nbf, naux)``, the
    metric's inverse Cholesky factor folded in: ``B = (mu nu|P) L^{-T}``,
    ``J = L L^T``) and ``Linv = L^{-1}`` are retained so MP2 and the
    gradient reuse the three-center integrals (paper Sec. III-A point
    ii: no recomputation); ``B Linv = (mu nu|P) J^{-1}`` is the
    ``J^{-1}``-level tensor the gradient coefficients are built on.
    """

    mol: Molecule
    basis: BasisSet
    energy: float
    e_nuc: float
    C: np.ndarray
    eps: np.ndarray
    D: np.ndarray
    S: np.ndarray
    h: np.ndarray
    F: np.ndarray
    nocc: int
    converged: bool
    niter: int
    method: str
    #: True when the solve started from a caller-supplied density
    #: (``dm0``) that passed validation, False for a cold guess
    warm_started: bool = False
    aux: BasisSet | None = None
    B: np.ndarray | None = None  # (nbf, nbf, naux), L^{-T} folded
    Linv: np.ndarray | None = None  # L^{-1}, lower triangular; J = L L^T
    eri: np.ndarray | None = None  # conventional 4c tensor if built
    #: recovery-cascade stages attempted before this solve succeeded
    #: (empty when the bare loop converged on the first try)
    recovery: tuple[str, ...] = ()

    @property
    def n_iter(self) -> int:
        """SCF iterations taken (alias of ``niter`` for external callers
        auditing warm-start savings)."""
        return self.niter

    @property
    def C_occ(self) -> np.ndarray:
        """Occupied MO coefficients, shape (nbf, nocc)."""
        return self.C[:, : self.nocc]

    @property
    def C_virt(self) -> np.ndarray:
        """Virtual MO coefficients, shape (nbf, nvirt)."""
        return self.C[:, self.nocc :]

    @property
    def nvirt(self) -> int:
        """Number of virtual orbitals."""
        return self.C.shape[1] - self.nocc


def _fock_conventional(h: np.ndarray, ERI: np.ndarray, D: np.ndarray) -> np.ndarray:
    J = np.einsum("mnls,ls->mn", ERI, D)
    K = np.einsum("mlns,ls->mn", ERI, D)
    return h + J - 0.5 * K


@dataclass
class RIFockLayout:
    """Iteration-invariant layouts of the RI fit tensor.

    The Coulomb GEMMs read ``B`` as ``(n*n, naux)`` (a view); the
    exchange GEMMs read one transposed copy ``Bx[m, P, l] = B[m, l, P]``
    (``(n, naux, n)``), in which both exchange contractions are plain
    GEMMs. Only the density changes between SCF iterations, so ``Bx`` is
    materialized once per solve (and shared across recovery rungs via
    the solve memo).
    """

    B: np.ndarray  # (nbf, nbf, naux), L^{-T} folded
    Bx: np.ndarray  # (nbf, naux, nbf): B.transpose(0, 2, 1), contiguous

    @classmethod
    def from_tensor(cls, B: np.ndarray) -> "RIFockLayout":
        return cls(B=B, Bx=np.ascontiguousarray(B.transpose(0, 2, 1)))


def _fock_ri(h: np.ndarray, lay: RIFockLayout, D: np.ndarray) -> np.ndarray:
    """RI Fock build, Eq. (8): pure GEMM sequence.

    Coulomb: fit coefficients ``gamma_P = sum_{ls} B_{ls}^P D_{ls}``
    then ``J_{mn} = sum_P B_{mn}^P gamma_P``. Exchange, on ``lay.Bx``:
    ``X[m, P, s] = sum_l B_{ml}^P D_{ls}`` then
    ``K_{mn} = sum_{P, s} X[m, P, s] B_{ns}^P`` — two GEMMs, no copy.
    """
    n, _, naux = lay.B.shape
    Bf = lay.B.reshape(n * n, naux)
    gamma = gemm(Bf.T, D.reshape(n * n, 1))  # (naux, 1)
    J = gemm(Bf, gamma).reshape(n, n)
    X = gemm(lay.Bx.reshape(n * naux, n), D)  # (n*naux, n)
    K = gemm(X.reshape(n, naux * n), lay.Bx.reshape(n, naux * n).T)
    return h + J - 0.5 * K


def build_ri_tensors(
    basis: BasisSet, aux: BasisSet,
    screen: float = 0.0, workspace=None,
) -> tuple[np.ndarray, np.ndarray]:
    """The fit tensor ``B`` (`_fitted`) and the metric's inverse
    Cholesky factor ``L^{-1}`` (`metric_inverse_factor`) of one basis
    pair.

    ``screen``/``workspace`` enable Schwarz screening and cross-call
    caching in the underlying integral drivers (see
    `repro.integrals.workspace`).
    """
    T3 = eri3c(basis, aux, screen=screen, workspace=workspace)
    Linv = metric_inverse_factor(eri2c(aux, workspace=workspace))
    return _fitted(T3, Linv), Linv


#: Largest diagonal block of the triangular inverse. A metric of size n
#: is cut into ``ceil(n / 32)`` blocks of equal size (the last one short
#: by the remainder). LAPACK's ``dtrtri`` takes 64; here the per-column
#: loop costs more than the block products it saves, and 32 halves it.
_TRI_BLOCK = 32


def _invert_diagonal_blocks(D: np.ndarray) -> None:
    """Invert a stack ``(m, nb, nb)`` of lower-triangular blocks in
    place, all together, column by column from the last as LAPACK
    ``dtrti2`` does: ``X_jj = 1 / L_jj``, then ``X[j+1:, j] = -X_jj
    X[j+1:, j+1:] L[j+1:, j]`` on the trailing part already inverted."""
    nb = D.shape[-1]
    d = np.arange(nb)
    D[:, d, d] = 1.0 / D[:, d, d]
    scale = -D[:, d, d]
    for j in range(nb - 2, -1, -1):
        y = np.matmul(D[:, j + 1:, j + 1:], D[:, j + 1:, j, None])
        np.multiply(y[..., 0], scale[:, j, None], out=D[:, j + 1:, j])


def _invert_lower(L: np.ndarray) -> np.ndarray:
    """``L^{-1}`` of a stack ``(s, n, n)`` of lower-triangular factors,
    in place, blocked in LAPACK ``dtrtri``'s order: every diagonal block
    of every member is inverted at once (`_invert_diagonal_blocks`; the
    short last block padded with the identity), then the block columns
    are filled from the last one, ``X21 = -(X22 L21) X11``, by counted
    `bgemm` over the stack. Each member's result is its result alone."""
    s, n, _ = L.shape
    nblk = -(-n // _TRI_BLOCK)
    nb = -(-n // nblk)
    last = n - (nblk - 1) * nb
    D = np.empty((s, nblk, nb, nb))
    D[:, -1] = np.eye(nb)
    for b in range(nblk):
        lo = b * nb
        w = last if b == nblk - 1 else nb
        D[:, b, :w, :w] = L[:, lo:lo + w, lo:lo + w]
    _invert_diagonal_blocks(D.reshape(s * nblk, nb, nb))
    lo = n - last
    L[:, lo:, lo:] = D[:, -1, :last, :last]
    for b in range(nblk - 2, -1, -1):
        lo, hi = b * nb, b * nb + nb
        np.negative(bgemm(bgemm(L[:, hi:, hi:], L[:, hi:, lo:hi]), D[:, b]),
                    out=L[:, hi:, lo:hi])
        L[:, lo:hi, lo:hi] = D[:, b]
    return L


def metric_inverse_factor(J2: np.ndarray, mols=()) -> np.ndarray:
    """``L^{-1}`` of each metric's Cholesky factor ``J = L L^T``, lower
    triangular (``J^{-1} = L^{-T} L^{-1}``), for a stack ``J2`` of shape
    ``(..., n, n)``: NumPy's Cholesky over the stack, then
    `_invert_lower`. Each member's factor is bitwise its factor
    alone. A metric that is not positive definite (a linearly dependent
    fitting basis) raises `NumericalDivergenceError` naming its
    fragment from ``mols`` (one molecule per member, in C order of the
    leading axes); no eigenvalue screen stands in for it."""
    n = J2.shape[-1]
    stack = J2.reshape(-1, n, n)
    try:
        L = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        raise _not_positive_definite(stack, mols) from None
    return _invert_lower(L).reshape(J2.shape)


def _not_positive_definite(stack: np.ndarray, mols) -> NumericalDivergenceError:
    """The error of a stack whose Cholesky failed, naming the first
    member that fails alone."""
    mols, who = list(mols), ""
    for i, J in enumerate(stack):
        try:
            np.linalg.cholesky(J)
        except np.linalg.LinAlgError:
            if i < len(mols):
                who = (f" of fragment {getattr(mols[i], 'frag_key', None)} "
                       f"({mols[i].formula()}, {mols[i].natoms} atoms)")
            break
    return NumericalDivergenceError(
        f"RI metric{who} is not positive definite: its {stack.shape[-1]}"
        "-function Cholesky factor failed (linearly dependent auxiliary "
        "functions)"
    )


def _fitted(T3: np.ndarray, Linv: np.ndarray) -> np.ndarray:
    """The fit tensor ``B = T3 L^{-T}`` from the raw three-center tensor
    and the metric's inverse factor, by one GEMM."""
    n, _, naux = T3.shape
    return gemm(T3.reshape(n * n, naux), Linv.T).reshape(n, n, naux)


def _metric_factors(J2: list, mols) -> list[np.ndarray]:
    """`metric_inverse_factor` of every metric, one stacked call per
    metric size; each fragment's factor in order."""
    by_size: dict[int, list[int]] = {}
    for f, J in enumerate(J2):
        by_size.setdefault(J.shape[0], []).append(f)
    out = [None] * len(J2)
    for idx in by_size.values():
        Linv = metric_inverse_factor(np.stack([J2[f] for f in idx]),
                                     [mols[f] for f in idx])
        for f, X in zip(idx, Linv):
            out[f] = X
    return out


@in_scope
def prepare_solves(
    mols, bases, auxs=None, int_screen: float = 0.0, workspace=None,
) -> list[dict]:
    """Solve memos (`rhf`'s ``solve_memo``) for molecules, each with its
    basis: ``bs``, ``S``, the core Hamiltonian ``h0`` and, with fitting
    bases ``auxs``, the RI tensors ``ri`` — from one call of each
    integral driver, one evaluation for all of them: a block the
    fragments share is computed once, and the metrics of one size are
    factored as one stack (`_metric_factors`). The solves that read
    them are each fragment's own. The drivers share one scope of
    ``workspace`` (None: the process workspace)."""
    S = overlap(bases, workspace)
    h = hcore(bases, mols, workspace)
    if auxs is not None:
        T3 = eri3c(bases, auxs, screen=int_screen, workspace=workspace)
        J2 = eri2c(auxs, workspace)
        Linv = _metric_factors(J2, mols)
    memos = []
    for f, bs in enumerate(bases):
        memo = {"bs": bs, "S": S[f], "h0": h[f]}
        if auxs is not None:
            memo["ri"] = (_fitted(T3[f], Linv[f]), Linv[f], auxs[f])
            T3[f] = None  # the fit is what the solve reads
        memos.append(memo)
    return memos


def rhf(
    mol: Molecule,
    basis: str = "sto-3g",
    ri: bool = True,
    aux: BasisSet | None = None,
    conv_energy: float = 1.0e-10,
    conv_orb: float = 1.0e-8,
    max_iter: int = 150,
    use_diis: bool = True,
    level_shift: float = 0.0,
    h_extra: np.ndarray | None = None,
    guess: str = "gwh",
    damping: float = 0.0,
    diis_restart: int = 0,
    dm0: np.ndarray | None = None,
    int_screen: float = 0.0,
    workspace=None,
    solve_memo: dict | None = None,
) -> SCFResult:
    """Solve restricted closed-shell Hartree-Fock.

    Args:
        mol: target molecule (must have an even electron count).
        basis: basis-set name.
        ri: use the resolution-of-the-identity Fock build (Eq. 8). The
            conventional path computes and stores four-center ERIs.
        aux: auxiliary basis; auto-generated when None and ``ri``.
        conv_energy / conv_orb: energy and DIIS-error thresholds.
        level_shift: optional virtual-space level shift (Hartree) for
            difficult cases.
        h_extra: optional one-electron perturbation added to the core
            Hamiltonian (e.g. a finite external field for response
            properties).
        guess: initial-density scheme: "gwh" (generalized
            Wolfsberg-Helmholz, default) or "core" (bare core
            Hamiltonian).
        damping: density-damping fraction in [0, 1): the new density is
            mixed as ``(1 - damping) D_new + damping D_old``.  0 (the
            default) reproduces the undamped loop exactly.
        diis_restart: if > 0, discard the accumulated DIIS subspace
            every ``diis_restart`` iterations — a stale, ill-conditioned
            subspace is a classic source of SCF limit cycles.
        dm0: optional initial AO density (occupation-2 convention, shape
            ``(nbf, nbf)``) — typically the converged density of the
            same fragment at the previous MD step (warm start). The
            array is validated against the basis size, finiteness, and
            its electron count ``tr(D S)``; anything incompatible is
            silently discarded and the cold ``guess`` is used instead,
            so a stale cache can never abort a solve. An accepted
            density gets one McWeeny purification step
            ``D' = 3/2 D S D - 1/2 D S D S D`` before use — the
            geometry (and hence S) has moved since the density was
            converged, and extrapolated guesses are not idempotent at
            all; purification projects the guess back toward a proper
            one-particle density at the cost of three GEMMs. Whether
            the warm density was actually used is reported as
            ``SCFResult.warm_started``.
        int_screen: Schwarz screening threshold for the integral drivers
            (0 disables screening — the exact default). See
            `repro.integrals.workspace.DEFAULT_INT_SCREEN`.
        workspace: the `repro.integrals.IntegralWorkspace` serving
            screening bounds across calls (None: the process
            workspace). Its integral calls (`prepare_solves`, `eri4c`)
            run in a scope of it, not the SCF iterations: a scope held
            across them would keep the value drivers' Coulomb tables.
        solve_memo: optional dict shared by repeated solves of the *same*
            molecule/basis (the recovery cascade): geometry-fixed
            matrices (basis, S, core h, RI tensors and Fock layouts) are
            built once and reused by every rung instead of being rebuilt
            from scratch per attempt. `prepare_solves` fills the memos
            of a whole evaluation of fragments at once.

    Returns:
        `SCFResult` with the converged state and reusable RI tensors.

    Raises:
        SCFConvergenceError: if not converged within ``max_iter``.
        NumericalDivergenceError: if the energy, Fock matrix, or density
            goes NaN/Inf mid-iteration (divergence, not slow
            convergence).
        ValueError: for open-shell electron counts or bad parameters.
    """
    if not 0.0 <= damping < 1.0:
        raise ValueError(f"damping must be in [0, 1), got {damping}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    memo = solve_memo if solve_memo is not None else {}
    if "bs" in memo:
        bs = memo["bs"]
    else:
        bs = memo["bs"] = BasisSet.build(mol, basis)
    nelec = mol.nelectrons
    if nelec % 2 != 0:
        raise ValueError(
            f"rhf requires an even electron count, got {nelec} "
            f"(charge={mol.charge})"
        )
    nocc = nelec // 2
    if nocc == 0:
        raise ValueError("no electrons to correlate")
    if nocc > bs.nbf:
        raise ValueError("basis too small for electron count")

    B = Linv = ERI = lay = None
    if "S" not in memo or (ri and "ri" not in memo):
        if ri and aux is None:
            aux = auto_auxiliary(mol, basis)
        memo.update(prepare_solves(
            [mol], [bs], [aux] if ri else None, int_screen, workspace
        )[0])
    S, h = memo["S"], memo["h0"]
    if h_extra is not None:
        h = h + h_extra
        if not np.all(np.isfinite(h)):
            raise NumericalDivergenceError(
                "SCF setup: non-finite core Hamiltonian after h_extra "
                "perturbation"
            )
    if ri:
        B, Linv, aux = memo["ri"]
        if "lay" not in memo:
            memo["lay"] = RIFockLayout.from_tensor(B)
        lay = memo["lay"]
    elif "eri" in memo:
        ERI = memo["eri"]
    else:
        ERI = memo["eri"] = eri4c(bs, workspace)
    e_nuc = mol.nuclear_repulsion()

    X = sym_inv_sqrt(S)
    D = None
    warm_started = False
    if dm0 is not None:
        # Warm start: validate rather than trust. The density must match
        # this basis, be finite, and carry roughly the right number of
        # electrons in the *current* overlap metric (the geometry has
        # moved since it converged, so tr(D S) drifts slightly; a wrong
        # fragment's density at the same nbf usually fails this check).
        cand = np.asarray(dm0, dtype=float)
        if cand.shape == (bs.nbf, bs.nbf) and np.all(np.isfinite(cand)):
            ne = float(np.sum(cand * S))
            if abs(ne - nelec) <= 0.05 * nelec:
                # one McWeeny step restores near-idempotency in the
                # *current* overlap metric (D S D = 2 D at convergence)
                DS = gemm(cand, S)
                DSD = gemm(DS, cand)
                D = 1.5 * DSD - 0.5 * gemm(DS, DSD)
                warm_started = True
    if D is None:
        if guess == "gwh":
            # Generalized Wolfsberg-Helmholz: F_ij = K/2 (h_ii + h_jj) S_ij
            hd = np.diag(h)
            F0 = 0.875 * (hd[:, None] + hd[None, :]) * S
            np.fill_diagonal(F0, hd)
            eps, C = eigh_orth(F0, X)
        elif guess == "core":
            eps, C = eigh_orth(h, X)
        else:
            raise ValueError(f"unknown SCF guess {guess!r}")
        D = 2.0 * gemm(C[:, :nocc], C[:, :nocc].T)

    diis = DIIS() if use_diis else None
    e_old = np.inf
    energy = np.inf
    converged = False
    for it in range(1, max_iter + 1):
        F = _fock_ri(h, lay, D) if ri else _fock_conventional(h, ERI, D)
        e_elec = 0.5 * float(np.sum(D * (h + F)))
        energy = e_elec + e_nuc
        if not np.isfinite(energy) or not np.all(np.isfinite(F)):
            raise NumericalDivergenceError(
                f"SCF iteration {it}: non-finite energy/Fock matrix "
                f"(E={energy!r})"
            )
        err = F @ D @ S - S @ D @ F
        err = X.T @ err @ X
        err_norm = float(np.max(np.abs(err)))
        if abs(energy - e_old) < conv_energy and err_norm < conv_orb:
            converged = True
            break
        e_old = energy
        F_iter = F
        if level_shift:
            # Shift the virtual space: F' = F + shift * (S - S D S / 2)
            F_iter = F + level_shift * (S - 0.5 * (S @ D @ S))
        if diis is not None:
            if diis_restart and it % diis_restart == 0:
                diis = DIIS(max_vecs=diis.max_vecs)
            F_iter = diis.update(F_iter, err)
        eps, C = eigh_orth(F_iter, X)
        D_new = 2.0 * gemm(C[:, :nocc], C[:, :nocc].T)
        if damping:
            D_new = (1.0 - damping) * D_new + damping * D
        if not np.all(np.isfinite(D_new)):
            raise NumericalDivergenceError(
                f"SCF iteration {it}: non-finite density matrix"
            )
        D = D_new
    if not converged:
        raise SCFConvergenceError(
            f"SCF not converged in {max_iter} iterations (dE={energy - e_old:.2e})"
        )
    # Canonical orbitals of the converged *unshifted* Fock matrix.  The
    # iteration above may have diagonalized shifted / DIIS-extrapolated
    # matrices; the returned eps/C must come from the bare converged F in
    # every code path (level shift on or off, DIIS on or off) so virtual
    # orbital energies never carry the artificial shift.
    eps, C = eigh_orth(F, X)
    return SCFResult(
        mol=mol,
        basis=bs,
        energy=energy,
        e_nuc=e_nuc,
        C=C,
        eps=eps,
        D=2.0 * gemm(C[:, :nocc], C[:, :nocc].T),
        S=S,
        h=h,
        F=F,
        nocc=nocc,
        converged=converged,
        niter=it,
        method="ri-rhf" if ri else "rhf",
        warm_started=warm_started,
        aux=aux,
        B=B,
        Linv=Linv,
        eri=ERI,
    )
