"""Analysis utilities: conservation metrics, landscape data, tables."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    TABLE_II,
    analyze_conservation,
    format_table,
    largest_by_level,
    size_advantage_of_this_work,
)


class TestConservation:
    def test_flat_trajectory(self):
        t = np.arange(10.0)
        pe = -np.ones(10)
        ke = np.ones(10) * 0.5
        rep = analyze_conservation(t, pe, ke)
        assert rep.drift_hartree_per_fs == pytest.approx(0.0, abs=1e-14)
        assert rep.rms_fluctuation_hartree == pytest.approx(0.0, abs=1e-14)
        assert rep.conserved()

    def test_drifting_trajectory(self):
        t = np.arange(100.0)
        tot = 1e-4 * t
        rep = analyze_conservation(t, tot, np.zeros(100))
        assert rep.drift_hartree_per_fs == pytest.approx(1e-4, rel=1e-9)
        assert not rep.conserved()

    def test_oscillating_trajectory(self):
        t = np.linspace(0, 10, 200)
        tot = 1e-4 * np.sin(t * 7)
        rep = analyze_conservation(t, tot, np.zeros_like(t))
        assert abs(rep.drift_hartree_per_fs) < 2e-5
        assert rep.rms_fluctuation_hartree == pytest.approx(1e-4 / np.sqrt(2), rel=0.1)

    def test_kjmol_conversion(self):
        rep = analyze_conservation(
            np.arange(3.0), np.array([0.0, 1e-3, 0.0]), np.zeros(3)
        )
        assert rep.rms_fluctuation_kjmol == pytest.approx(
            rep.rms_fluctuation_hartree * 2625.4996, rel=1e-6
        )


class TestLandscape:
    def test_this_work_is_largest_mp2(self):
        largest = largest_by_level("aimd")
        assert largest["MP2"].reference == "This work"
        assert largest["MP2"].electrons == 2_043_328

    def test_size_advantage_over_1000x(self):
        assert size_advantage_of_this_work() > 1000.0

    def test_accuracy_ordering(self):
        errs = {e.level: e.error_kjmol_per_atom for e in TABLE_II}
        assert errs["CC"] < errs["MP2"] < errs["DFT (Hybrid)"] < errs["DFT(LDA/GGA)/HF"]

    def test_static_larger_than_aimd_per_level(self):
        static = largest_by_level("static")
        aimd = largest_by_level("aimd")
        for level in ("DFT(LDA/GGA)/HF", "DFT (Hybrid)", "CC"):
            assert static[level].electrons > aimd[level].electrons


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["a", "bbb"], [[1, 2], [333, 4]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert len(set(len(l) for l in lines)) == 1  # aligned widths

    def test_format_table_title(self):
        out = format_table(["x"], [[1]], title="T")
        assert out.splitlines()[0] == "T"
