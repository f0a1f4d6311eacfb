"""MP2 correlation energies: conventional and RI variants.

Closed-shell restricted formulas; no frozen core (matching the paper,
Sec. V-A). The RI path consumes the fitted B tensor retained by the SCF
result so the three-center integrals are computed exactly once per
fragment (paper contribution ii).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gemm import bgemm, gemm
from ..scf.rhf import SCFResult


@dataclass
class MP2Result:
    """MP2 correlation energy and reusable MO-basis intermediates."""

    e_corr: float
    e_scf: float
    #: MO-basis fitted tensor B_ia^P, shape (nocc, nvirt, naux); None for
    #: the conventional path.
    B_ia: np.ndarray | None = None
    #: amplitudes t_ij^ab = (ia|jb)/Delta, shape (o, o, v, v)
    t2: np.ndarray | None = None

    @property
    def e_total(self) -> float:
        """SCF + correlation energy."""
        return self.e_scf + self.e_corr


def _denominators(eps: np.ndarray, nocc: int) -> np.ndarray:
    """Delta[i,j,a,b] = eps_i + eps_j - eps_a - eps_b."""
    eo = eps[:nocc]
    ev = eps[nocc:]
    return (
        eo[:, None, None, None]
        + eo[None, :, None, None]
        - ev[None, None, :, None]
        - ev[None, None, None, :]
    )


def mp2_conventional(res: SCFResult) -> MP2Result:
    """MP2 energy from explicitly transformed four-center ERIs."""
    if res.eri is None:
        raise ValueError("conventional MP2 requires the 4-center ERI tensor")
    Co, Cv = res.C_occ, res.C_virt
    n, o, v = Co.shape[0], Co.shape[1], Cv.shape[1]
    # (ia|jb): quarter transformations, O(N^5), one index per GEMM
    tmp = gemm(Co.T, res.eri.reshape(n, n**3)).reshape(o, n, n * n)
    tmp = bgemm(Cv.T, tmp).reshape(o * v, n, n)  # [ia, l, s]
    tmp = bgemm(Co.T, tmp).reshape(o * v * o, n)  # [iaj, s]
    ovov = gemm(tmp, Cv).reshape(o, v, o, v)
    delta = _denominators(res.eps, res.nocc)
    iajb = ovov.transpose(0, 2, 1, 3)  # (i,j,a,b)
    t2 = iajb / delta
    e_corr = float(np.einsum("ijab,ijab->", t2, 2.0 * iajb) -
                   np.einsum("ijab,ijba->", t2, iajb))
    return MP2Result(e_corr=e_corr, e_scf=res.energy, t2=t2)


def mo_b_tensor(res: SCFResult) -> np.ndarray:
    """Occupied-virtual block of the fitted tensor: B_ia^P (o, v, naux)."""
    if res.B is None:
        raise ValueError("SCF result carries no RI tensors")
    n, _, naux = res.B.shape
    Co, Cv = res.C_occ, res.C_virt
    o, v = Co.shape[1], Cv.shape[1]
    # half transform: (i nu | P)
    half = gemm(Co.T, res.B.reshape(n, n * naux)).reshape(o, n, naux)
    half = np.ascontiguousarray(half.transpose(0, 2, 1)).reshape(o * naux, n)
    full = gemm(half, Cv).reshape(o, naux, v).transpose(0, 2, 1)
    return np.ascontiguousarray(full)


def scs_theta(t2: np.ndarray, c_os: float, c_ss: float) -> np.ndarray:
    """Spin-component-scaled contraction amplitudes.

    ``theta = (c_os + c_ss) t - c_ss t(ab-swap)``; the plain MP2 case is
    ``c_os = c_ss = 1`` (giving the familiar ``2t - t_swap``). SCS-MP2
    (Grimme) uses ``c_os = 6/5, c_ss = 1/3`` — the 'scaled MP2' the
    paper's lattice-energy predictions rely on (Sec. VI-B).
    """
    return (c_os + c_ss) * t2 - c_ss * t2.transpose(0, 1, 3, 2)


#: Grimme's SCS-MP2 coefficients
SCS_OS = 1.2
SCS_SS = 1.0 / 3.0


def mp2_ri(res: SCFResult, c_os: float = 1.0, c_ss: float = 1.0) -> MP2Result:
    """RI-MP2 energy: (ia|jb)_RI = sum_P B_ia^P B_jb^P (paper Eq. 9).

    ``c_os`` / ``c_ss`` optionally spin-component-scale the correlation
    energy (SCS-MP2 with the `SCS_OS`/`SCS_SS` constants).
    """
    B_ia = mo_b_tensor(res)
    o, v, naux = B_ia.shape
    Bf = B_ia.reshape(o * v, naux)
    iajb = gemm(Bf, Bf.T).reshape(o, v, o, v).transpose(0, 2, 1, 3)
    delta = _denominators(res.eps, res.nocc)
    t2 = iajb / delta
    theta = scs_theta(t2, c_os, c_ss)
    e_corr = float(np.einsum("ijab,ijab->", theta, iajb))
    return MP2Result(e_corr=e_corr, e_scf=res.energy, B_ia=B_ia, t2=t2)


def mp2(res: SCFResult) -> MP2Result:
    """Dispatch on how the SCF was solved."""
    if res.method == "ri-rhf":
        return mp2_ri(res)
    return mp2_conventional(res)
