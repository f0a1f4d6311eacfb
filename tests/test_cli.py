"""Command-line interface smoke and behavior tests."""

from __future__ import annotations

import argparse
import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

from repro.chem.xyz import save_xyz
from repro.cli import build_parser, main
from repro.systems import water_cluster, water_monomer

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture()
def water_file(tmp_path):
    p = tmp_path / "water.xyz"
    save_xyz(water_monomer(), p)
    return str(p)


@pytest.fixture()
def cluster_file(tmp_path):
    p = tmp_path / "w3.xyz"
    save_xyz(water_cluster(3, seed=1), p)
    return str(p)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_basis_choices(self, water_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scf", water_file, "--basis", "cc-pvqz"])

    def test_gemm_cache_flag_is_gone(self, cluster_file, capsys):
        """Removed with the tuner's winner tables, not silently ignored."""
        with pytest.raises(SystemExit) as exc:
            main(["aimd", cluster_file, "--surrogate", "--steps", "1",
                  "--gemm-cache", "winners.json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --gemm-cache" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["mp2", "grad", "aimd"])
    def test_no_ri_is_scf_only(self, water_file, command, capsys):
        """Only `scf` has a conventional SCF to switch to; elsewhere the
        flag is refused, not silently ignored."""
        with pytest.raises(SystemExit) as exc:
            main([command, water_file, "--no-ri"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-ri" in capsys.readouterr().err

    def test_subcommands(self):
        """The paper's AIMD and what drives it; DESIGN.md's rule says what
        a new subcommand must be reached by."""
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == {
            "scf", "mp2", "grad", "aimd", "submit", "serve", "project",
        }


def _resolves(module: str, name: str) -> bool:
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return False
    return (hasattr(mod, name)
            or importlib.util.find_spec(f"{module}.{name}") is not None)


def test_example_and_bench_imports_resolve():
    """No tier-1 test runs examples/ or most benches, so a deleted public
    name would break them silently: every ``from repro... import name``
    in them must resolve."""
    broken = []
    for path in sorted([*REPO.glob("examples/*.py"),
                        *REPO.glob("benchmarks/**/*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "repro"):
                continue
            broken += [f"{path.relative_to(REPO)}:{node.lineno} "
                       f"{node.module}.{alias.name}"
                       for alias in node.names
                       if not _resolves(node.module, alias.name)]
    assert not broken


class TestCommands:
    def test_scf(self, water_file, capsys):
        assert main(["scf", water_file]) == 0
        out = capsys.readouterr().out
        assert "E(SCF)" in out
        assert "-74.9" in out  # water/STO-3G ballpark

    def test_mp2(self, water_file, capsys):
        assert main(["mp2", water_file]) == 0
        out = capsys.readouterr().out
        assert "E(total)" in out

    def test_mp2_scs(self, water_file, capsys):
        assert main(["mp2", water_file, "--scs"]) == 0
        assert "SCS-MP2" in capsys.readouterr().out

    def test_grad(self, water_file, capsys):
        assert main(["grad", water_file]) == 0
        out = capsys.readouterr().out
        assert "gradient RMSD" in out

    def test_aimd_surrogate(self, cluster_file, capsys):
        rc = main([
            "aimd", cluster_file, "--surrogate", "--steps", "3",
            "--r-dimer", "30", "--r-trimer", "15", "--order", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "polymer calculations" in out
        assert "asynchronous" in out

    def test_aimd_sync_flag(self, cluster_file, capsys):
        rc = main([
            "aimd", cluster_file, "--surrogate", "--steps", "2",
            "--r-dimer", "30", "--r-trimer", "15", "--sync",
        ])
        assert rc == 0
        assert "synchronous" in capsys.readouterr().out

    def test_aimd_trace_writes_chrome_json(self, cluster_file, tmp_path,
                                           capsys):
        import json

        trace_file = tmp_path / "aimd_trace.json"
        rc = main([
            "aimd", cluster_file, "--surrogate", "--steps", "2",
            "--r-dimer", "30", "--r-trimer", "15", "--order", "2",
            "--trace", str(trace_file),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "wrote chrome trace" in out
        assert "trace summary" in out
        doc = json.loads(trace_file.read_text())
        names = {ev["name"] for ev in doc["traceEvents"]}
        # scheduler, driver, and GEMM layers all show up in one trace
        assert "task.release" in names
        assert "task.exec" in names

    def test_aimd_parallel_workers(self, cluster_file, capsys):
        rc = main([
            "aimd", cluster_file, "--surrogate", "--steps", "2",
            "--r-dimer", "30", "--r-trimer", "15", "--order", "2",
            "--workers", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "polymer calculations" in out
        assert "worker processes" not in out  # a surrogate keeps none

    def test_aimd_qm_workers_say_where_their_counters_are(self, tmp_path,
                                                          capsys):
        """A QM run on worker processes says that its workspace and
        screening counters stay there, instead of printing none (or
        the coordinator's, which saw no integral)."""
        w2 = tmp_path / "w2.xyz"
        save_xyz(water_cluster(2, seed=1), w2)
        assert main(["aimd", str(w2), "--order", "2", "--steps", "1",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert ("integral workspace / screening: counters stay in the "
                "2 worker processes") in out
        assert "integral workspace:" not in out
        assert "integral screening:" not in out

    def test_aimd_one_worker_honours_fault_flags(self, cluster_file,
                                                 tmp_path, capsys):
        """One worker runs the same fault-tolerant loop as a pool: a
        dimer whose forces are NaN on every attempt is quarantined."""
        from repro.faults import FaultPlan, FaultSpec

        plan = tmp_path / "plan.json"
        FaultPlan(specs=[FaultSpec(kind="nan_forces", key=(0, 1),
                                   attempts=99)]).save(plan)
        rc = main([
            "aimd", cluster_file, "--surrogate", "--steps", "2",
            "--r-dimer", "30", "--r-trimer", "15", "--order", "2",
            "--workers", "1", "--fault-plan", str(plan), "--quarantine",
            "--max-retries", "0",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("QUARANTINED polymer (0, 1)") == 3  # steps 0-2

    def test_project(self, capsys):
        rc = main(["project", "--molecules", "500", "--nodes", "32"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PFLOP/s" in out
        assert "polymers/step" in out


class TestServeCommands:
    def test_submit_then_serve(self, tmp_path, capsys):
        specs = str(tmp_path / "specs.json")
        rc = main([
            "submit", specs, "--job-id", "a", "--system", "water", "-n", "3",
            "--steps", "4", "--checkpoint-every", "2",
        ])
        assert rc == 0
        rc = main([
            "submit", specs, "--job-id", "b", "--system", "water", "-n", "2",
            "--steps", "4", "--weight", "2.0",
            "--thermostat", "local-langevin",
        ])
        assert rc == 0
        out_dir = tmp_path / "out"
        rc = main([
            "serve", specs, "--out", str(out_dir), "--workers", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "served 2 job(s)" in out
        assert "a: completed" in out
        assert "b: completed" in out
        assert "final total energy:" in out
        assert re.search(r"^gemm: \d+ calls, \d+\.\d{3} GFLOP$", out, re.M)
        assert (out_dir / "a" / "trajectory.xyz").exists()
        assert (out_dir / "b" / "trajectory.xyz").exists()

    def test_one_spec_two_front_ends(self, cluster_file, tmp_path, capsys):
        """`aimd` runs the spec `submit` writes: the same settings give the
        same final total energy, string for string."""
        shared = ["--order", "2", "--r-dimer", "8", "--r-trimer", "5",
                  "--seed", "3", "--steps", "6"]
        final = re.compile(r"final total energy: (\S+) Ha")
        assert main(["aimd", cluster_file, "--surrogate", "--workers", "1",
                     *shared]) == 0
        (alone,) = final.findall(capsys.readouterr().out)
        specs = str(tmp_path / "specs.json")
        assert main(["submit", specs, "--job-id", "w3", "--system", "xyz",
                     "--xyz", cluster_file, "--method", "surrogate",
                     "--replan-interval", "4", *shared]) == 0
        assert main(["serve", specs, "--out", str(tmp_path / "out"),
                     "--workers", "2"]) == 0
        assert final.findall(capsys.readouterr().out) == [alone]

    def test_submit_rejects_duplicate_job_id(self, tmp_path, capsys):
        specs = str(tmp_path / "specs.json")
        assert main(["submit", specs, "--job-id", "a"]) == 0
        with pytest.raises(SystemExit, match="already in"):
            main(["submit", specs, "--job-id", "a"])

    def test_serve_trace_artifact(self, tmp_path, capsys):
        specs = str(tmp_path / "specs.json")
        main(["submit", specs, "--job-id", "t", "--steps", "3"])
        trace = tmp_path / "trace.json"
        rc = main([
            "serve", specs, "--out", str(tmp_path / "out"),
            "--trace", str(trace),
        ])
        assert rc == 0
        assert trace.exists()
        import json

        events = json.loads(trace.read_text())["traceEvents"]
        names = {e["name"] for e in events}
        assert "serve.submit" in names
        assert "warm_layer" in names

    @pytest.mark.parametrize("pool", ["thread", "process"])
    def test_serve_trace_records_the_workers_side(self, tmp_path, capsys,
                                                  pool):
        """`serve --trace` records what the service, the engine and the
        driver emit on its thread and what the calculators emit on its
        worker threads; worker processes record none of theirs."""
        import json

        specs = str(tmp_path / "specs.json")
        assert main(["submit", specs, "--job-id", "qm", "--system", "water",
                     "-n", "2", "--method", "rihf", "--steps", "2"]) == 0
        trace = tmp_path / "trace.json"
        assert main(["serve", specs, "--out", str(tmp_path / "out"),
                     "--workers", "2", "--pool", pool,
                     "--trace", str(trace)]) == 0
        names = {e["name"] for e in json.loads(trace.read_text())["traceEvents"]}
        assert {"serve.submit", "serve.job_completed", "warm_layer",
                "task.release", "md.step", "task.dispatch",
                "task.exec"} <= names
        worker_side = {"scf.warm_start", "calc.stack", "int.screen"}
        assert names & worker_side == (worker_side if pool == "thread"
                                       else set())
        # the workspace counters: measured on threads, kept by processes
        out = capsys.readouterr().out
        counted = re.search(r"^workspace: (\d+) hits / (\d+) misses", out,
                            re.M)
        stays = ("integral workspace / screening: counters stay in the "
                 "2 worker processes")
        if pool == "thread":
            assert counted and int(counted[1]) > 0 and stays not in out
        else:
            assert counted is None and stays in out

    @pytest.mark.parametrize("pool", ["thread", "process"])
    def test_serve_gemm_line_reads_where_the_gemms_ran(self, tmp_path,
                                                       capsys, pool):
        """The GEMM count is the workers': measured on threads, and on
        worker processes said to stay there instead of printing the
        coordinator's zero."""
        specs = str(tmp_path / "specs.json")
        assert main(["submit", specs, "--job-id", "qm", "--system", "water",
                     "-n", "2", "--method", "rihf", "--steps", "2"]) == 0
        assert main(["serve", specs, "--out", str(tmp_path / "out"),
                     "--workers", "2", "--pool", pool]) == 0
        out = capsys.readouterr().out
        counted = re.search(r"^gemm: (\d+) calls, ([\d.]+) GFLOP", out, re.M)
        stays = "gemm: counters stay in the 2 worker processes"
        if pool == "thread":
            assert counted and int(counted[1]) > 0 and stays not in out
        else:
            assert counted is None and stays in out


class TestUsageErrors:
    """A value the job spec refuses ends the command as argparse ends a
    bad option: exit status 2 and one ``error:`` line naming it, no
    traceback and nothing written."""

    @pytest.mark.parametrize("argv, message", [
        (["aimd", "{xyz}", "--surrogate", "--steps", "0"],
         "repro aimd: error: nsteps must be >= 1, got 0"),
        (["submit", "{specs}", "--job-id", "j", "--steps", "0"],
         "repro submit: error: nsteps must be >= 1, got 0"),
        (["submit", "{specs}", "--job-id", "j", "--weight", "0"],
         "repro submit: error: weight must be > 0, got 0.0"),
    ], ids=["aimd-steps", "submit-steps", "submit-weight"])
    def test_refused_value(self, cluster_file, tmp_path, capsys, argv,
                           message):
        specs = tmp_path / "specs.json"
        argv = [a.format(xyz=cluster_file, specs=specs) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert err.splitlines() == [message]
        assert out == "" and not specs.exists()
