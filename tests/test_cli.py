"""Tests for the ``python -m repro`` command-line interface."""

import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro import __main__ as cli
from repro.core import easybo
from repro.core.recovery import resolve_problem


def run_cli(*args, timeout=600):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestCli:
    def test_info(self):
        result = run_cli("info")
        assert result.returncode == 0
        assert "EasyBO" in result.stdout
        assert "phcbo" in result.stdout
        assert "OpAmpProblem" in result.stdout

    def test_demo(self):
        result = run_cli("demo", "--budget", "25", "--batch", "3")
        assert result.returncode == 0
        assert "best value" in result.stdout
        assert "utilization" in result.stdout

    @pytest.mark.slow
    def test_opamp(self):
        result = run_cli("opamp", "--budget", "30", "--batch", "3")
        assert result.returncode == 0
        assert "best FOM" in result.stdout
        assert "pm_deg" in result.stdout

    def test_run_with_metrics_then_trace_renders(self, tmp_path):
        trace = tmp_path / "run-trace.jsonl"
        result = run_cli(
            "run", "--problem", "sphere", "--algorithm", "EasyBO-2",
            "--budget", "10", "--n-init", "4",
            "--metrics", "--trace", str(trace),
        )
        assert result.returncode == 0
        assert "best FOM" in result.stdout
        assert "run metrics" in result.stdout
        assert "driver.evaluations" in result.stdout
        assert "spans written" in result.stdout
        assert trace.is_file()

        rendered = run_cli("trace", str(trace), "--top", "5")
        assert rendered.returncode == 0
        assert "run [" in rendered.stdout
        assert "iteration" in rendered.stdout
        assert "hotspots" in rendered.stdout

    def test_run_without_obs_flags_writes_no_trace(self, tmp_path):
        result = run_cli(
            "run", "--problem", "sphere", "--algorithm", "LCB",
            "--budget", "6", "--n-init", "3",
        )
        assert result.returncode == 0
        assert "spans written" not in result.stdout

    def test_rejects_unknown_surrogate_kind(self):
        result = run_cli(
            "run", "--problem", "sphere", "--algorithm", "LCB",
            "--budget", "6", "--n-init", "3", "--surrogate", "dense",
        )
        assert result.returncode != 0

    def test_resume_finishes_a_sigkilled_run(self, tmp_path):
        # A real SIGKILL, not an exception raised inside the process: the
        # journal is whatever the dead process had fsync'd.
        journal = tmp_path / "j.jsonl"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", "--problem", "sphere",
             "--algorithm", "EasyBO-2", "--budget", "40", "--n-init", "4",
             "--journal", str(journal)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 300
            while not journal.exists() or journal.read_bytes().count(b"\n") < 12:
                assert proc.poll() is None, "the run ended before the kill"
                assert time.monotonic() < deadline, "the journal never grew"
                time.sleep(0.02)
        finally:
            proc.kill()
            proc.wait()
        result = run_cli("resume", str(journal))
        assert result.returncode == 0, result.stderr
        assert "after 40 evaluations" in result.stdout

    def test_resume_refuses_a_finished_run(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        done = run_cli(
            "run", "--problem", "sphere", "--algorithm", "LCB",
            "--budget", "6", "--n-init", "3", "--journal", str(journal),
        )
        assert done.returncode == 0, done.stderr
        result = run_cli("resume", str(journal))
        assert result.returncode != 0
        assert "already completed" in result.stderr

    @pytest.mark.parametrize("label", ["DE"])
    def test_run_refuses_a_journal_it_could_not_resume(self, label, tmp_path):
        journal = tmp_path / "j.jsonl"
        result = run_cli(
            "run", "--problem", "sphere", "--algorithm", label,
            "--budget", "12", "--journal", str(journal),
        )
        assert result.returncode != 0
        assert label in result.stderr
        assert not journal.exists()

    def test_run_accepts_a_dimension_suffixed_problem(self):
        result = run_cli(
            "run", "--problem", "sphere2", "--algorithm", "LCB",
            "--budget", "6", "--n-init", "3",
        )
        assert result.returncode == 0, result.stderr
        assert "on sphere2" in result.stdout

    def test_run_refuses_an_unknown_problem(self):
        result = run_cli("run", "--problem", "teapot", "--algorithm", "LCB")
        assert result.returncode == 2
        assert "teapot" in result.stderr

    @pytest.mark.parametrize("existing", [None, b"kept bytes\n"],
                             ids=["absent", "existing"])
    def test_a_refused_run_leaves_its_trace_path_as_found(
        self, tmp_path, monkeypatch, capsys, existing
    ):
        """DE refuses ``--metrics``/``--trace`` after the tracer is armed:
        the refusal writes no trace file, and an existing one keeps its
        bytes."""
        monkeypatch.chdir(tmp_path)
        trace = tmp_path / "t.jsonl"
        if existing is not None:
            trace.write_bytes(existing)
        assert cli.main(["run", "--problem", "sphere2", "--algorithm", "DE",
                         "--metrics", "--trace", str(trace)]) == 2
        assert "DE does not take" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == (
            [] if existing is None else [trace.name]
        )
        if existing is not None:
            assert trace.read_bytes() == existing

    def test_an_unknown_problem_leaves_no_default_trace(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", "--problem", "teapot", "--algorithm", "LCB",
                         "--metrics"]) == 2
        assert "teapot" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_serve_refuses_a_journal_dir_holding_a_server_manifest(self, tmp_path):
        manifest = tmp_path / "server.manifest"
        manifest.write_bytes(b"")
        result = run_cli("serve", "--port", "0", "--journal-dir", str(tmp_path),
                         timeout=60)
        assert result.returncode == 2
        assert str(manifest) in result.stderr

    def test_requires_command(self):
        result = run_cli()
        assert result.returncode != 0

    def test_unknown_command(self):
        result = run_cli("fly")
        assert result.returncode != 0


class _Built(Exception):
    """Stops a CLI command once it has built its problem."""


def cli_problem(monkeypatch, argv):
    """The problem a CLI command would optimize, captured before it runs."""
    seen = []

    def capture(*args, **kwargs):
        seen.append(args[1] if len(args) > 1 else args[0])
        raise _Built

    monkeypatch.setattr(easybo, "make_algorithm", capture)
    monkeypatch.setattr(repro, "EasyBO", capture)
    with pytest.raises(_Built):
        cli.main(argv)
    return seen[0]


class TestProblemNames:
    """The CLI names problems as ``resume`` rebuilds them, so a resumed CLI
    run continues on the problem it ran."""

    @pytest.mark.parametrize(
        "argv",
        [["opamp"], ["classe"]]
        + [["run", "--problem", name] for name in (
            "opamp", "classe", "branin", "hartmann6", "sphere", "sphere3",
            "sphere2",
        )],
        ids=lambda argv: "-".join(argv),
    )
    def test_resume_rebuilds_the_cli_problem(self, monkeypatch, argv):
        problem = cli_problem(monkeypatch, argv)
        rebuilt = resolve_problem(problem.name)
        np.testing.assert_array_equal(problem.bounds, rebuilt.bounds)
        x = problem.bounds.mean(axis=1)
        assert problem.evaluate(x).fom == rebuilt.evaluate(x).fom
