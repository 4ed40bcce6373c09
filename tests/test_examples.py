"""Smoke tests: the example scripts must run end to end.

Each fast example executes as a subprocess exactly as a user would run it;
the slow circuit-sizing examples are exercised at tiny budgets via their
CLI flags.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str, timeout: int = 600) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "best value" in out
    assert "convergence" in out


def test_async_vs_sync():
    out = run_example("async_vs_sync.py")
    assert "op-amp-like" in out and "class-E-like" in out
    # Every row shows a positive saving at every batch size.
    assert out.count("%") > 10


def test_custom_simulator():
    out = run_example("custom_simulator.py")
    assert "resonance" in out
    assert "real time" in out


@pytest.mark.slow
def test_opamp_sizing_small_budget():
    out = run_example("opamp_sizing.py", "--budget", "40")
    assert "Best design found" in out
    assert "phase margin" in out


@pytest.mark.slow
def test_classe_sizing_small_budget():
    out = run_example(
        "classe_pa_sizing.py", "--budget", "24", "--batch", "4", "--fast"
    )
    assert "Best design found" in out
    assert "PAE" in out


@pytest.mark.slow
def test_constrained_sizing_small_budget():
    # Seed 1 finds feasible designs within 40 evaluations (seed 0 finds
    # none), so the best-feasible report runs.
    out = run_example(
        "constrained_sizing.py", "--budget", "40", "--batch", "2", "--seed", "1"
    )
    assert "best feasible UGF" in out
    assert "Best sizing:" in out


@pytest.mark.slow
def test_process_variation_small_budget():
    out = run_example(
        "process_variation.py", "--mc", "4", "--budget", "16", "--seed", "0"
    )
    assert "Monte Carlo (4 runs)" in out
    assert "best worst-corner FOM" in out
