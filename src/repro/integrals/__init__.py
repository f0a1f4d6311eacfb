"""Molecular integrals over contracted Cartesian Gaussians.

From-scratch McMurchie-Davidson implementation: overlap, kinetic,
nuclear attraction, two-/three-/four-center electron repulsion
integrals, and analytic first derivatives of all of them.

Every public driver has one implementation: the shell-class kernels of
`repro.integrals.batch`, which evaluate whole shell-pair classes per
NumPy kernel call, exported here under their plain names. Each takes a
*stack* of fragments of one composition (the ``*_stack`` names: one
call for the stack, results with a leading fragment axis); the plain
names are stacks of one.
They are deterministic (run to run, and for any chunk size) and agree
with the per-pair ``*_loop`` reference functions in `onee.py`/`eri.py`
to a stated tolerance with identical Schwarz skip decisions; the
reference is imported by tests only.
"""

from .batch import (
    contract_eri3c_deriv_stack,
    contract_overlap_deriv_stack,
    eri3c_stack,
    overlap_stack,
    contract_eri3c_deriv_batched as contract_eri3c_deriv,
    contract_kinetic_deriv_batched as contract_kinetic_deriv,
    contract_nuclear_deriv_batched as contract_nuclear_deriv,
    contract_overlap_deriv_batched as contract_overlap_deriv,
    eri3c_batched as eri3c,
    kinetic_batched as kinetic,
    nuclear_batched as nuclear,
    overlap_batched as overlap,
    schwarz_pair_bounds_batched as schwarz_pair_bounds,
)
from .boys import boys, boys_array
from .eri import (
    aux_function_bounds,
    contract_eri2c_deriv,
    contract_eri2c_deriv_stack,
    contract_eri4c_deriv_hf,
    eri2c,
    eri2c_stack,
    eri4c,
)
from .hermite import cartesian_components, e_table, ncart, r_table
from .onee import (
    contract_hcore_deriv,
    contract_hcore_deriv_stack,
    hcore,
    hcore_stack,
    overlap_deriv,
)
from .workspace import (
    DEFAULT_INT_SCREEN,
    IntegralWorkspace,
    get_workspace,
)

__all__ = [
    "DEFAULT_INT_SCREEN",
    "IntegralWorkspace",
    "aux_function_bounds",
    "boys",
    "boys_array",
    "cartesian_components",
    "contract_eri2c_deriv",
    "contract_eri2c_deriv_stack",
    "contract_eri3c_deriv",
    "contract_eri3c_deriv_stack",
    "contract_eri4c_deriv_hf",
    "contract_hcore_deriv",
    "contract_hcore_deriv_stack",
    "contract_kinetic_deriv",
    "contract_nuclear_deriv",
    "contract_overlap_deriv",
    "contract_overlap_deriv_stack",
    "e_table",
    "eri2c",
    "eri2c_stack",
    "eri3c",
    "eri3c_stack",
    "eri4c",
    "get_workspace",
    "hcore",
    "hcore_stack",
    "kinetic",
    "ncart",
    "nuclear",
    "overlap",
    "overlap_stack",
    "overlap_deriv",
    "r_table",
    "schwarz_pair_bounds",
]
