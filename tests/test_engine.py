"""Integral-engine internals: batched tables, groups, W tensors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.basis import BasisSet, Shell, auto_auxiliary
from repro.chem import Molecule
from repro.integrals.engine import (
    aux_group_data,
    comp_arrays,
    e_tables_batch,
    hermite_box,
    hermite_simplex,
    pair_data,
    r_tables_batch,
    r_tables_simplex,
    simplex_sum_index,
    single_data,
    w_deriv,
    w_tensor,
)
from repro.integrals.hermite import e_table, r_table


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
        rng = np.random.default_rng(1)
        p = rng.uniform(0.3, 6.0, 4)
        PQ = rng.uniform(-2, 2, (4, 3))
        R = r_tables_batch(*box, p, PQ)
        for n in range(4):
            ref = r_table(*box, float(p[n]), PQ[n])
            np.testing.assert_allclose(R[n], ref, rtol=1e-11, atol=1e-14)

    def test_hermite_box_cover(self):
        box = hermite_box((2, 1, 0))
        assert box.shape == (3 * 2 * 1, 3)
        assert set(map(tuple, box)) == {
            (t, u, 0) for t in range(3) for u in range(2)
        }

    @pytest.mark.parametrize("L", range(7))
    def test_hermite_simplex_cover_and_count(self, L):
        simplex = hermite_simplex(L)
        assert simplex.shape == ((L + 1) * (L + 2) * (L + 3) // 6, 3)
        box = hermite_box((L, L, L))
        # exactly the box rows of total order <= L, in the box's C-order
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
        """The trimmed recursion (Boys orders 0..T) against the cube's
        (orders 0..3T) on the rows they share; not bitwise, because the
        downward Boys recursion starts at a lower order."""
        rng = np.random.default_rng(2)
        n = 200
        p = rng.uniform(0.05, 60.0, n)
        PQ = rng.uniform(-3.0, 3.0, (n, 3))
        PQ[:10] = 0.0       # coincident centers: the Boys series limit
        PQ[10:20] *= 8.0    # p |PQ|^2 in the hundreds: the large-T regime
        PQ[20:25] *= 1e-8   # just above the series-limit switch
        rows = hermite_simplex(T)
        ref = r_tables_batch(T, T, T, p, PQ)[
            :, rows[:, 0], rows[:, 1], rows[:, 2]
        ]
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
        pd = pair_data(sa, sb)
        # P = (aA + bB)/(a+b) = (0 + 2)/3 along z
        np.testing.assert_allclose(pd.P[0], [0, 0, 2.0 / 3.0])
        assert pd.p[0] == pytest.approx(3.0)

    def test_single_data_center(self):
        sh = Shell(1, np.array([1.0, 2, 3]), np.array([0.8]), np.array([1.0]))
        sd = single_data(sh)
        np.testing.assert_allclose(sd.P[0], [1, 2, 3])
        np.testing.assert_allclose(sd.b, 0.0)


class TestAuxGroups:
    def test_groups_cover_all_shells(self, water):
        aux = auto_auxiliary(water, "sto-3g")
        groups = aux_group_data(aux)
        # a site carries one shell per angular momentum of its group
        total = sum(g.pd.nprim * len(g.ls) for g in groups)
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
        for ish, sha in enumerate(bs.shells):
            for jsh, shb in enumerate(bs.shells):
                pd = pair_data(sha, shb)
                ca, cb = comp_arrays(sha.l), comp_arrays(shb.l)
                W = w_tensor(pd, ca, cb, (0, 0, 0))[:, :, :, 0, 0, 0]
                pref = pd.cc * (np.pi / pd.p) ** 1.5
                blk = np.einsum("n,nab->ab", pref, W)
                blk = blk * np.outer(sha.comp_norms, shb.comp_norms)
                oa, ob = bs.offsets[ish], bs.offsets[jsh]
                np.testing.assert_allclose(
                    blk, S[oa : oa + sha.nfunc, ob : ob + shb.nfunc],
                    atol=1e-12,
                )

    def test_w_deriv_antisymmetry(self):
        """For an s-s pair, d/dA = -d/dB of the overlap kernel."""
        sa = Shell(0, np.array([0.0, 0, 0]), np.array([1.1]), np.array([1.0]))
        sb = Shell(0, np.array([0.5, -0.2, 1.0]), np.array([0.7]), np.array([1.0]))
        pd = pair_data(sa, sb, 1, 1)
        ca = cb = comp_arrays(0)
        for axis in range(3):
            dA = w_deriv(pd, ca, cb, (0, 0, 0), "bra", axis)
            dB = w_deriv(pd, ca, cb, (0, 0, 0), "ket", axis)
            np.testing.assert_allclose(dA, -dB, atol=1e-13)

    def test_w_deriv_invalid_side(self):
        sa = Shell(0, np.zeros(3), np.array([1.0]), np.array([1.0]))
        pd = pair_data(sa, sa, 1, 1)
        ca = comp_arrays(0)
        with pytest.raises(ValueError):
            w_deriv(pd, ca, ca, (0, 0, 0), "mid", 0)
