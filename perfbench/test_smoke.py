"""Smoke test of the benchmark on a tiny slice of each workload.

    python3 -m pytest -q perfbench/test_smoke.py

It checks the result format, that a tampered reference line is reported as
a failure, and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / ".work" / "smoke"
LIMIT = {"sweep-n8": 40, "solve-panel": 3, "certify-export": 3}
REF_FILE = {"sweep-n8": "sweep_n8.tsv", "solve-panel": "panel.tsv", "certify-export": "export.tsv"}


def bench(workload: str, trace: int, *extra: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace),
           "--limit", str(LIMIT[workload]), *extra]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture
def workdir():
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir(parents=True)
    yield WORKDIR
    shutil.rmtree(WORKDIR, ignore_errors=True)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(LIMIT))
def test_every_metric_printed_with_its_unit(workload, trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    result = result_of(bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {d["name"]: d["unit"] for d in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(REF_FILE))
def test_tampered_reference_line_is_reported_as_failed(workload, workdir):
    ref_dir = workdir / "ref"
    shutil.copytree(HERE / "ref", ref_dir)
    path = ref_dir / REF_FILE[workload]
    lines = path.read_text().splitlines()
    eta = lines[0].lstrip("# ").split("\t").index("eta")
    first = lines[1].split("\t")  # first input of every workload's slice
    first[eta] = str(int(first[eta]) + 1)
    lines[1] = "\t".join(first)
    path.write_text("\n".join(lines) + "\n")
    result = result_of(bench(workload, 0, "--ref-dir", str(ref_dir)))
    assert result["correct"] is False and result["failed"] >= 1


def test_refuses_to_run_without_the_program(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(HERE, workdir / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("sweep-n8", 0, root=workdir)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
