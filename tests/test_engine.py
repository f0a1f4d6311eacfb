"""Integral-engine internals: batched tables, groups, W tensors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.basis import BasisSet, Shell, auto_auxiliary
from repro.chem import Molecule
from repro.integrals.batch import (
    _w_class,
    _w_deriv_class,
    build_shell_classes,
    pair_plan,
    site_plan,
)
from repro.integrals.engine import (
    aux_group_data,
    comp_arrays,
    e_tables_batch,
    hermite_simplex,
    r_tables_simplex,
    simplex_sum_index,
)
from repro.integrals.hermite import e_table, r_table

from .conftest import hermite_cube


class TestBatchedTables:
    @pytest.mark.parametrize("i,j", [(0, 0), (1, 2), (2, 1), (3, 0)])
    def test_e_batch_matches_scalar(self, i, j):
        rng = np.random.default_rng(0)
        a = rng.uniform(0.2, 4.0, 5)
        b = rng.uniform(0.2, 4.0, 5)
        AB = np.array([0.7, -0.3, 1.2])
        E = e_tables_batch(i, j, AB, a, b)
        for n in range(5):
            for dim in range(3):
                ref = e_table(i, j, float(AB[dim]), float(a[n]), float(b[n]))
                np.testing.assert_allclose(E[n, dim], ref, atol=1e-13)

    def test_e_batch_single_gaussian_limit(self):
        # b = 0: E reduces to the single-center Hermite expansion,
        # independent of the nominal separation.
        a = np.array([1.3, 0.4])
        b = np.zeros(2)
        E1 = e_tables_batch(2, 0, np.zeros(3), a, b)
        E2 = e_tables_batch(2, 0, np.array([5.0, 0, 0]), a, b)
        np.testing.assert_allclose(E1, E2, atol=1e-14)

    @pytest.mark.parametrize("box", [(0, 0, 0), (2, 1, 0), (3, 3, 3)])
    def test_r_batch_matches_scalar(self, box):
        """The batched simplex recursion against the scalar one on every
        row of ``box`` it holds."""
        rng = np.random.default_rng(1)
        p = rng.uniform(0.3, 6.0, 4)
        PQ = rng.uniform(-2, 2, (4, 3))
        L = sum(box)
        R = r_tables_simplex(L, p, PQ)  # (nsimplex, n)
        rows = hermite_simplex(L)
        inside = (rows <= box).all(axis=1)
        for n in range(4):
            ref = r_table(*box, float(p[n]), PQ[n])
            want = ref[rows[inside, 0], rows[inside, 1], rows[inside, 2]]
            np.testing.assert_allclose(R[inside, n], want, rtol=1e-11,
                                       atol=1e-14)

    @pytest.mark.parametrize("L", range(7))
    def test_hermite_simplex_cover_and_count(self, L):
        simplex = hermite_simplex(L)
        assert simplex.shape == ((L + 1) * (L + 2) * (L + 3) // 6, 3)
        box = hermite_cube(L)
        # exactly the cube rows of total order <= L, in the box's C-order
        assert np.array_equal(simplex, box[box.sum(axis=1) <= L])
        assert not simplex.flags.writeable
        assert hermite_simplex(L) is simplex  # memoised

    def test_simplex_sum_index(self):
        for lb, lk in [(0, 0), (2, 0), (1, 2), (3, 2)]:
            idx = simplex_sum_index(lb, lk)
            total = hermite_simplex(lb + lk)
            want = hermite_simplex(lb)[:, None, :] + hermite_simplex(lk)[None]
            assert np.array_equal(total[idx], want)

    @pytest.mark.parametrize("T", range(7))
    def test_r_simplex_matches_cube(self, T):
        """The trimmed recursion (Boys orders 0..T) against the scalar
        cube's (orders 0..3T) on the rows they share; not bitwise, the
        downward Boys recursion starts at another order and the scalar
        recursion uses the other Boys function."""
        rng = np.random.default_rng(2)
        n = 200
        p = rng.uniform(0.05, 60.0, n)
        PQ = rng.uniform(-3.0, 3.0, (n, 3))
        PQ[:10] = 0.0       # coincident centers: the Boys series limit
        PQ[10:20] *= 8.0    # p |PQ|^2 in the hundreds: the large-T regime
        PQ[20:25] *= 1e-8   # just above the series-limit switch
        rows = hermite_simplex(T)
        ref = np.array([
            r_table(T, T, T, float(p[i]), PQ[i])[rows[:, 0], rows[:, 1],
                                                  rows[:, 2]]
            for i in range(n)
        ])
        got = r_tables_simplex(T, p, PQ)  # batch axis last
        assert got.shape == ref.T.shape and got.flags.c_contiguous
        got = got.T
        # rtol 1e-11; entries that cancel to ~0 are held to the same
        # fraction of their own table's scale
        scale = np.abs(ref).max(axis=1, keepdims=True)
        assert (np.abs(got - ref) <= 1e-11 * np.abs(ref) + 1e-15 * scale).all()
        # the batch split is invisible: rows are independent
        assert np.array_equal(
            got[37:91], r_tables_simplex(T, p[37:91], PQ[37:91]).T
        )


class TestPairData:
    def test_composite_centers(self):
        sa = Shell(0, np.array([0.0, 0, 0]), np.array([2.0]), np.array([1.0]))
        sb = Shell(0, np.array([0.0, 0, 2.0]), np.array([1.0]), np.array([1.0]))
        (cls,) = build_shell_classes(BasisSet([sa, sb]))
        # canonical pairs (0, 0), (0, 1), (1, 1): the middle one is a, b
        # P = (aA + bB)/(a+b) = (0 + 2)/3 along z
        np.testing.assert_allclose(cls.P[1, 0], [0, 0, 2.0 / 3.0])
        assert cls.p[1, 0] == pytest.approx(3.0)

    def test_single_data_center(self):
        """An auxiliary site is one Gaussian on its own centre: a pair
        with a zero-exponent partner, whose E tables do not depend on
        where it sits."""
        sh = Shell(1, np.array([1.0, 2, 3]), np.array([0.8]), np.array([1.0]))
        aux = BasisSet([sh])
        (grp,) = aux_group_data(aux)
        (site,) = site_plan([aux]).groups
        np.testing.assert_allclose(site.Pk[0, 0], [1, 2, 3])
        assert np.array_equal(grp.E, e_tables_batch(
            1, 0, np.array([5.0, -1.0, 0.5]), grp.a, np.zeros(1)))


class TestAuxGroups:
    def test_groups_cover_all_shells(self, water):
        aux = auto_auxiliary(water, "sto-3g")
        groups = aux_group_data(aux)
        # a site carries one shell per angular momentum of its group
        total = sum(g.a.size * len(g.ls) for g in groups)
        assert total == aux.nshells
        # func_idx covers every basis function exactly once
        covered = np.concatenate([g.func_idx.ravel() for g in groups])
        assert sorted(covered) == list(range(aux.nbf))

    def test_groups_sorted_by_l(self, water):
        aux = auto_auxiliary(water, "sto-3g")
        ls = [g.lmax for g in aux_group_data(aux)]
        assert ls == sorted(ls)

    def test_contracted_aux_rejected(self):
        sh = Shell(0, np.zeros(3), np.array([1.0, 0.3]), np.array([0.6, 0.5]))
        with pytest.raises(ValueError, match="single-primitive"):
            aux_group_data(BasisSet([sh]))


class TestWTensors:
    def test_w_tensor_overlap_consistency(self):
        """W at t=0 contracted with (pi/p)^{3/2} reproduces the overlap."""
        from repro.integrals import overlap

        mol = Molecule(["C", "H"], [[0, 0, 0], [0, 0, 2.0]])
        bs = BasisSet.build(mol, "sto-3g")
        S = overlap(bs)
        plan = pair_plan([bs])
        for cls, fp in zip(plan.classes, plan.frags[0]):
            ca, cb = comp_arrays(cls.la), comp_arrays(cls.lb)
            W = _w_class(cls.E, ca, cb, hermite_simplex(0))[..., 0]
            pref = cls.cc * (np.pi / cls.p) ** 1.5
            blk = np.einsum("qn,qabn->qab", pref, W) * cls.norms
            for q in range(fp.npair):
                oa, ob = fp.oa[q], fp.ob[q]
                np.testing.assert_allclose(
                    blk[fp.at[q]], S[oa : oa + cls.nfa, ob : ob + cls.nfb],
                    atol=1e-12,
                )

    def test_w_deriv_antisymmetry(self):
        """For s-s pairs, d/dA = -d/dB of the overlap kernel."""
        sa = Shell(0, np.array([0.0, 0, 0]), np.array([1.1]), np.array([1.0]))
        sb = Shell(0, np.array([0.5, -0.2, 1.0]), np.array([0.7]), np.array([1.0]))
        (cls,) = build_shell_classes(BasisSet([sa, sb]))
        ca = cb = comp_arrays(0)
        tuv = hermite_simplex(0)
        for axis in range(3):
            dA = _w_deriv_class(cls.E, cls.a, cls.b, ca, cb, tuv, "bra", axis)
            dB = _w_deriv_class(cls.E, cls.a, cls.b, ca, cb, tuv, "ket", axis)
            np.testing.assert_allclose(dA, -dB, atol=1e-13)

    def test_w_deriv_invalid_side(self):
        sa = Shell(0, np.zeros(3), np.array([1.0]), np.array([1.0]))
        (cls,) = build_shell_classes(BasisSet([sa]))
        ca = comp_arrays(0)
        with pytest.raises(ValueError):
            _w_deriv_class(cls.E, cls.a, cls.b, ca, ca, hermite_simplex(0),
                           "mid", 0)
