"""Self-tests of the spine harness, at ``--smoke`` sizes.

Run with ``python -m pytest benchmarks/spine -q`` (about a minute). They
check the harness, not the program: names and units against
BENCHMARK.json, exact repeatability of the ``[count]`` metrics, that the
seed reaches the inputs, and that a wrong reference fails the run.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: the harness's four workloads; BENCHMARK.json names the ones the
#: driver runs
WORKLOADS = ["water4_mbe3_rimp2", "gly1_dz_rimp2_grad", "serve_mix4",
             "fibril72_null_async"]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def spine(*args: str, timeout: int = 120) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=timeout)


def contract_run(workload: str, trace: int, outdir: Path, *extra: str):
    return spine("--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--smoke", "--outdir", str(outdir),
                 *extra)


def last_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def outdir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("spine")


@pytest.fixture(scope="module")
def smoke(outdir) -> dict:
    """One untraced and one traced smoke run of every workload."""
    runs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = contract_run(workload, trace, outdir)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            runs[workload, trace] = last_line(proc)
    return runs


@pytest.fixture(scope="module")
def count_metrics() -> frozenset:
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import spine_layers

    declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert declared == list(spine_layers.PER_LAYER)
    return spine_layers.COUNT_METRICS


def test_benchmark_json_names_the_command_and_workloads():
    assert BENCHMARK["command"] == ["python3", "benchmarks/spine/run.py"]
    assert BENCHMARK["paths"] == ["benchmarks/spine"]
    driven = [w["name"] for w in BENCHMARK["workloads"]]
    assert set(driven) <= set(WORKLOADS)
    names = driven + [m["name"] for m in
                      BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted(smoke, outdir, trace, section):
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    for workload in WORKLOADS:
        line = smoke[workload, trace]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
        if trace:
            assert (outdir / f"trace_{workload}.json").exists()
        else:
            assert all(v["value"] > 0 for v in line["metrics"].values())


def test_count_metrics_repeat_exactly(smoke, outdir, count_metrics):
    for workload in WORKLOADS:
        proc = contract_run(workload, 1, outdir)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        again = last_line(proc)["metrics"]
        for name in count_metrics:
            assert again[name]["value"] == smoke[workload, 1]["metrics"][name]["value"], \
                f"{workload} {name}"


def test_seed_reaches_the_inputs():
    def digests(seed: int) -> dict:
        proc = spine("--inputs", "--smoke", "--seed", str(seed))
        assert proc.returncode == 0, proc.stderr
        return last_line(proc)

    zero, one = digests(0), digests(1)
    assert zero == digests(0)
    assert set(zero) == set(WORKLOADS)
    assert all(zero[w] != one[w] for w in WORKLOADS)


def test_setup_only_prints_the_setup_seconds(outdir):
    proc = spine("--workload", "fibril72_null_async", "--smoke", "--setup-only",
                 "--outdir", str(outdir))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert last_line(proc)["setup_s"] > 0


def test_wrong_reference_fails_the_run(outdir, tmp_path):
    references = json.loads((HERE / "references.json").read_text())
    references["smoke"]["gly1_dz_rimp2_grad"]["energy_ha"] = [
        e + 1.0e-3 for e in references["smoke"]["gly1_dz_rimp2_grad"]["energy_ha"]]
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(references))
    proc = contract_run("gly1_dz_rimp2_grad", 0, outdir, "--references", str(wrong))
    assert proc.returncode != 0
    line = last_line(proc)
    assert line["correct"] is False and line["failed"] >= 1
