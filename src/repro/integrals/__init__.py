"""Molecular integrals over contracted Cartesian Gaussians.

From-scratch McMurchie-Davidson implementation: overlap, kinetic,
nuclear attraction, two-/three-/four-center electron repulsion
integrals, and analytic first derivatives of all of them.

Every public driver has one implementation and one name: the
shell-class kernels of `repro.integrals.batch` (with the two- and
four-centre and core-Hamiltonian drivers beside them in `eri.py` /
`onee.py`, on the same kernels), which evaluate whole shell-pair
classes per NumPy kernel call. Each takes a list of fragments — bases
of any compositions, with the molecules and coefficient arrays of the
same fragments — as one evaluation, computes every integral block they
hold once, and returns one result per fragment; given one basis in
place of the list it is a list of one (`engine.stack_driver`). The
four-centre drivers of the conventional-HF baseline take one basis.
They are deterministic (run to run, and for any chunk size); the tests
check them against an independent per-primitive Obara-Saika /
Taketa-Huzinaga-Oohata reference that lives under ``tests/``.
"""

from .batch import (
    contract_eri3c_deriv,
    contract_kinetic_deriv,
    contract_nuclear_deriv,
    contract_overlap_deriv,
    eri3c,
    kinetic,
    nuclear,
    overlap,
    schwarz_pair_bounds,
)
from .boys import boys, boys_array
from .eri import (
    ERI4C_SCREEN,
    aux_function_bounds,
    contract_eri2c_deriv,
    contract_eri4c_deriv_hf,
    eri2c,
    eri4c,
)
from .hermite import cartesian_components, e_table, ncart, r_table
from .onee import contract_hcore_deriv, hcore
from .workspace import (
    DEFAULT_INT_SCREEN,
    IntegralWorkspace,
    get_workspace,
)

__all__ = [
    "DEFAULT_INT_SCREEN",
    "ERI4C_SCREEN",
    "IntegralWorkspace",
    "aux_function_bounds",
    "boys",
    "boys_array",
    "cartesian_components",
    "contract_eri2c_deriv",
    "contract_eri3c_deriv",
    "contract_eri4c_deriv_hf",
    "contract_hcore_deriv",
    "contract_kinetic_deriv",
    "contract_nuclear_deriv",
    "contract_overlap_deriv",
    "e_table",
    "eri2c",
    "eri3c",
    "eri4c",
    "get_workspace",
    "hcore",
    "kinetic",
    "ncart",
    "nuclear",
    "overlap",
    "r_table",
    "schwarz_pair_bounds",
]
