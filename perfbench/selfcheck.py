"""The benchmark's own checks, at tiny sizes.

Run from the repository root::

    python3 -m pytest -q perfbench/selfcheck.py

(The file name keeps these out of the repository's default test
collection: each check starts real ``repro serve`` processes.)
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
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Each workload at a size that builds and serves in about a second.
TINY = {
    "identify-100k": WORKLOADS["identify-100k"].scaled(records=400,
                                                       genuine=16),
    "verify-4k": WORKLOADS["verify-4k"].scaled(records=64, genuine=64),
    "write-mix-10k": WORKLOADS["write-mix-10k"].scaled(records=400,
                                                       genuine=16),
}

FLIP_ONE_ANSWER = '''
import sys
from repro.cli import main
from repro.protocols.messages import IdentificationOutcome
from repro.protocols.server import AuthenticationServer

original = AuthenticationServer.handle_identification_response
flipped = []

def handle_identification_response(self, response):
    reply = original(self, response)
    if not flipped and getattr(reply, "identified", False):
        flipped.append(reply.user_id)
        return IdentificationOutcome(identified=False, user_id=None)
    return reply

AuthenticationServer.handle_identification_response = \\
    handle_identification_response
raise SystemExit(main(sys.argv[1:]))
'''


@pytest.fixture
def quick(monkeypatch):
    """One set-up launch and a short warm-up keep each run to seconds."""
    monkeypatch.setattr(run, "LAUNCHES", 1)
    monkeypatch.setattr(run, "WARMUP_OPS", 16)


def _names(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_workload_prints_every_metric(name, trace, quick, tmp_path):
    result, details = run.run(TINY[name], seed=3, seconds=2.0, trace=trace,
                              work=tmp_path)
    expected = _names("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    assert details["client_threads"] <= 2
    if not trace:
        for metric in expected:
            assert result["metrics"][metric]["value"] > 0, metric


def test_a_flipped_answer_raises_error_share(quick, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WARMUP_OPS", 0)
    wrapper = tmp_path / "flip_one.py"
    wrapper.write_text(FLIP_ONE_ANSWER)
    work = tmp_path / "work"
    work.mkdir()
    result, details = run.run(TINY["identify-100k"], seed=3, seconds=2.0,
                              trace=False, work=work, wrapper=wrapper)
    assert result["failed"] >= 1
    assert details["leg"]["failures"].get("wrong_answer", 0) >= 1
    assert result["metrics"]["ok_share"]["value"] < 1.0


def test_command_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload",
         "identify-100k", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
