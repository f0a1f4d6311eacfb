"""Cold start: a process imports only what it runs.

Importing the package, driving the step engine and running RI-MP2
(energies, gradients, dynamics) load neither scipy nor networkx; the
NumPy pair search and the union-find components that replaced them
return what the old ones did.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

import repro
from repro.chem import bond_graph, connected_components
from repro.frag.mbe import _centroid_pairs
from repro.systems import (
    fibril,
    glycine_chain,
    paracetamol_sphere,
    urea_cluster,
    water_cluster,
)

SRC = str(Path(repro.__file__).resolve().parents[1])

_REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules
                        if m.split('.')[0] in ('scipy', 'networkx'))))
"""

_ENGINE = """
import numpy as np
from repro.md import AsyncCoordinator, run_serial
from repro.systems import fibril_fragmented

class Zero:
    def energy_gradient(self, mol):
        return 0.0, np.zeros((mol.natoms, 3))

co = AsyncCoordinator(fibril_fragmented(2, 3), 4, 0.5, 15.0, 9.5,
                      replan_interval=2)
run_serial(co, Zero())
assert co.done() and len(co.trajectory_energies()[2]) == 5
"""


_QM = """
from repro.calculators import RIMP2Calculator
from repro.frag import FragmentedSystem
from repro.md import run_aimd
from repro.systems import water_cluster

calc = RIMP2Calculator()
dimer = water_cluster(2, seed=1)
[(e, g)] = calc.energy_gradients([dimer])
assert g.shape == (6, 3) and abs(calc.energy(dimer) - e) < 1e-8
traj = run_aimd(FragmentedSystem.by_components(water_cluster(3, seed=1)),
                RIMP2Calculator(), 2, r_dimer_bohr=30.0, mbe_order=2)
assert len(traj.potential) == 3
"""


def _loaded(script: str) -> list[str]:
    """The scipy / networkx modules a fresh interpreter holds after
    ``script``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script + _REPORT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestImports:
    def test_package_import_loads_neither(self):
        assert _loaded("import repro, repro.md, repro.serve, repro.cli") == []

    def test_step_engine_run_loads_neither(self):
        assert _loaded(_ENGINE) == []

    def test_qm_run_loads_no_scipy(self):
        """RI-MP2 energies and gradients, the energy-only path and a
        short MBE2 dynamics run factor the RI metric on NumPy alone."""
        assert _loaded(_QM) == []


def _brute_pairs(c: np.ndarray, r: float) -> list[tuple[int, int]]:
    """Every pair, the exact sum of squared differences against r^2."""
    r2 = r * r
    out = []
    for i in range(len(c)):
        for j in range(i + 1, len(c)):
            dx, dy, dz = c[i] - c[j]
            if dx * dx + dy * dy + dz * dz <= r2:
                out.append((i, j))
    return out


def _planted(n: int, r: float, shift: float) -> tuple[np.ndarray, list, list]:
    """``n`` random points at about a fibril's monomer density, moved by
    ``shift``, with pairs planted at ``r (1 - 1e-12)`` and exactly ``r``
    along an axis (inside), and at ``r (1 + 1e-12)`` (outside)."""
    rng = np.random.default_rng(n)
    c = np.round(rng.uniform(0.0, 6.0 * max(n, 1) ** (1 / 3), size=(n, 3)) * 64) / 64
    c += shift
    inside, outside = [], []
    for k in range(0, n - 1, 2):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        kind = (k // 2) % 3
        if kind == 2:  # on the cutoff: every difference exact
            c[k + 1] = c[k]
            c[k + 1, k % 3] += r
        else:
            c[k + 1] = c[k] + u * r * (1.0 + (1e-12 if kind else -1e-12))
        (outside if kind == 1 else inside).append((k, k + 1))
    return c, inside, outside


class TestCentroidPairs:
    @pytest.mark.parametrize("shift", [0.0, 500.0])
    @pytest.mark.parametrize("n", [0, 1, 2, 72, 750])
    def test_equals_brute_force_and_kdtree(self, n, shift):
        r = 15.0
        c, inside, outside = _planted(n, r, shift)
        got = _centroid_pairs(c, r)
        want = _brute_pairs(c, r)
        assert got == want
        if n:
            tree = sorted(tuple(sorted(p)) for p in cKDTree(c).query_pairs(r))
            assert got == tree
        assert set(inside) <= set(got)
        assert not set(outside) & set(got)
        assert all(type(a) is int for p in got for a in p)

    def test_empty_cutoff(self):
        c, _, _ = _planted(72, 15.0, 0.0)
        assert _centroid_pairs(c, 0.0) == []


def _bfs_components(mol) -> list[list[int]]:
    """Reference: breadth-first walks over `bond_graph` from each
    unvisited atom, in atom order, members ascending."""
    nbrs = bond_graph(mol)
    seen = [False] * mol.natoms
    out = []
    for a in range(mol.natoms):
        if seen[a]:
            continue
        seen[a] = True
        comp, todo = [], deque([a])
        while todo:
            b = todo.popleft()
            comp.append(b)
            for c in nbrs[b]:
                if not seen[c]:
                    seen[c] = True
                    todo.append(c)
        out.append(sorted(comp))
    return out


@pytest.mark.parametrize("build", [
    lambda: water_cluster(17, seed=2),
    lambda: glycine_chain(5),
    lambda: fibril(3, 4),
    lambda: urea_cluster(40),
    lambda: paracetamol_sphere(8.0),
], ids=["water_cluster", "glycine_chain", "fibril", "urea_cluster",
        "paracetamol_sphere"])
def test_connected_components_equal_bfs(build):
    mol = build()
    assert connected_components(mol) == _bfs_components(mol)
