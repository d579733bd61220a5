"""Tests of the benchmark itself: python -m pytest perfbench"""

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import run

run.import_library()
import tracing  # noqa: E402
import uradon.cli  # noqa: E402
import workloads  # noqa: E402


def traced_iteration(work: Path, name: str, seed: int):
    work.mkdir()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        wl = workloads.WORKLOADS[name]()
        wl.prepare(np.random.default_rng(seed))
        rec = tracing.Recorder(time.perf_counter)
        rec.iteration = 1
        with tracing.installed(rec):
            wall, failure = run.run_iteration(wl, rec)
        rec.iteration = None
        _, err, failures = run.verify(wl, None)
        scene = Path("scene.txt").read_text(encoding="utf-8")
    finally:
        os.chdir(cwd)
    assert failure is None and not failures and not rec.missing
    return rec, wall, scene


def test_seeds_share_counters_but_not_scenes(tmp_path):
    rec1, wall, scene1 = traced_iteration(tmp_path / "a", "probes", seed=1)
    rec2, _, scene2 = traced_iteration(tmp_path / "b", "probes", seed=2)
    assert scene1 != scene2
    exact = [{k: rec.counters[1][k] for k in tracing.EXACT_COUNTERS} for rec in (rec1, rec2)]
    assert exact[0] == exact[1]
    assert exact[0]["slice_theorem.angles"] == 16
    assert exact[0]["holonomy.term_columns"] == (6 + 6 + 3) * 12
    # self times partition the traced wall time: no double counting, nothing lost
    own, _ = tracing.self_times(rec1.spans)
    assert 0.95 * wall <= sum(own[1].values()) <= wall


def _flip_last_byte(path):
    with open(path, "r+b") as fh:
        fh.seek(-1, os.SEEK_END)
        byte = fh.read(1)
        fh.seek(-1, os.SEEK_END)
        fh.write(bytes([byte[0] ^ 0xFF]))


@pytest.mark.parametrize("corruption", ["flipped byte", "exit code"])
def test_corrupted_iteration_is_counted_not_fatal(tmp_path, monkeypatch, corruption):
    monkeypatch.setattr(run, "OUT", tmp_path)
    real_main = uradon.cli.main
    calls = []

    def main(argv):
        calls.append(argv)
        code = real_main(argv)
        if len(calls) == 2:  # first measured iteration, after the warm-up
            if corruption == "exit code":
                return 3
            _flip_last_byte("hyb_volume.urdn")
        return code

    monkeypatch.setattr(uradon.cli, "main", main)
    log = []
    result = run.run_workload("volume", seed=1, seconds=0.0, trace=False, log=log.append)
    assert result["attempted"] == 2 and result["failed"] == 1 and not result["correct"]
    assert result["metrics"]["pass_frac"]["value"] == 0.5
    reason = "sha256 differs" if corruption == "flipped byte" else "exited with code 3"
    assert any(line.startswith("FAIL iteration 1") and reason in line for line in log)


def test_out_of_tolerance_reference_fails_every_iteration(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    prepare = workloads.Volume.prepare

    def skewed(self, rng):
        prepare(self, rng)
        self.base = 2.0 * self.base

    monkeypatch.setattr(workloads.Volume, "prepare", skewed)
    log = []
    result = run.run_workload("volume", seed=1, seconds=0.0, trace=False, log=log.append)
    assert result["failed"] == result["attempted"] == 2
    assert any("worst slice rmse/peak" in line for line in log)


def test_refuses_to_run_without_library_source(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "volume",
                           "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
