"""Golden-fixture coverage of every readable persistence format version.

``tests/golden/persistence/`` holds one hand-built runs file per historical
format (v1 .. v8, written by ``regenerate.py``).  These tests pin three
contracts:

* ``load_runs`` reads **every** version it claims to
  (``_READABLE_VERSIONS``), filling version-appropriate defaults for
  blocks the file predates;
* the committed fixtures are byte-exact reproductions of the generator
  (nobody edited the JSON by hand);
* the current writer emits the newest version and round-trips losslessly.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import numpy as np
import pytest

from repro.core import persistence
from repro.core.persistence import load_runs, run_from_dict, save_runs

GOLDEN = pathlib.Path(__file__).parent / "golden" / "persistence"
VERSIONS = sorted(persistence._READABLE_VERSIONS)


def _regenerator():
    spec = importlib.util.spec_from_file_location(
        "golden_persistence_regenerate", GOLDEN / "regenerate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_readable_version_has_a_fixture():
    assert persistence._FORMAT_VERSION == max(VERSIONS)
    for version in VERSIONS:
        assert (GOLDEN / f"runs_v{version}.json").is_file(), version


@pytest.mark.parametrize("version", VERSIONS)
def test_golden_fixture_loads(version):
    grid = load_runs(GOLDEN / f"runs_v{version}.json")
    assert list(grid) == ["EasyBO-2"]
    (run,) = grid["EasyBO-2"]
    assert run.algorithm == "EasyBO-2"
    assert run.problem == "golden-sphere"
    assert run.best_fom == -1.5
    np.testing.assert_allclose(run.best_x, [0.6, 0.4])
    assert run.trace.n_workers == 2

    if version == 1:
        # Pre-failure-semantics: every record loads as a clean success.
        assert run.n_evaluations == 3
        assert run.n_failures == 0 and run.n_retries == 0
        assert all(r.status == "ok" for r in run.trace.records)
        assert all(r.attempts == 1 for r in run.trace.records)
    else:
        assert run.n_evaluations == 4
        assert run.n_failures == 2 and run.n_retries == 3
        statuses = [r.status for r in run.trace.records]
        assert statuses == ["ok", "failed", "ok", "orphaned"]
        assert np.isnan(run.trace.records[1].fom)
        assert run.trace.records[1].error == "simulation diverged"
        assert run.trace.records[2].attempts == 2

    # Optional blocks appear exactly from the version that introduced them.
    assert (run.surrogate_stats is not None) == (version >= 3)
    assert (run.rng_state is not None) == (version >= 4)
    assert (run.pool_telemetry is not None) == (version >= 5)
    assert (run.metrics is not None) == (version >= 6)

    if version >= 3:
        assert run.surrogate_stats.n_refits == 2
        assert run.surrogate_stats.refit_seconds == [0.01, 0.02]
    if version >= 4:
        assert run.rng_state["bit_generator"] == "PCG64"
    if version >= 5:
        assert run.pool_telemetry.backend == "process"
        assert run.pool_telemetry.n_respawns == 1
    if version >= 6:
        counters = run.metrics["counters"]
        assert counters["driver.failures"] == run.n_failures
        assert counters["driver.retries"] == run.n_retries
        hist = run.metrics["histograms"]["pool.queue_wait_seconds"]
        assert hist["count"] == 4
    if version >= 7:
        assert run.pending_policy == "hallucinate"
    if version >= 8:
        # v8 files carry the retired sparse posterior's ``surrogate`` label
        # and ``n_mode_switches`` counter; they load without them.
        assert not hasattr(run, "surrogate")
        assert "n_mode_switches" not in run.surrogate_stats.as_dict()


def test_fixtures_are_byte_exact():
    """The committed files are exactly what the generator emits."""
    module = _regenerator()
    for version in VERSIONS:
        path = GOLDEN / f"runs_v{version}.json"
        assert path.read_text(encoding="utf-8") == module.render(version), (
            f"{path.name} drifted from regenerate.py — rerun "
            "'python tests/golden/persistence/regenerate.py' after an "
            "intentional change"
        )


def test_current_writer_round_trips_newest_version(tmp_path):
    grid = load_runs(GOLDEN / f"runs_v{max(VERSIONS)}.json")
    out = tmp_path / "roundtrip.json"
    save_runs(out, grid)
    payload = json.loads(out.read_text())
    assert payload["version"] == persistence._FORMAT_VERSION
    written = payload["grid"]["EasyBO-2"][0]
    assert written["version"] == persistence._FORMAT_VERSION
    # The writer no longer emits the retired sparse posterior's fields.
    assert "surrogate" not in written
    assert "n_mode_switches" not in written["surrogate_stats"]

    reloaded = load_runs(out)
    original = grid["EasyBO-2"][0]
    back = reloaded["EasyBO-2"][0]
    assert back.best_fom == original.best_fom
    assert back.metrics == original.metrics
    assert back.rng_state == original.rng_state
    assert back.surrogate_stats.as_dict() == original.surrogate_stats.as_dict()
    assert back.pool_telemetry.as_dict() == original.pool_telemetry.as_dict()
    assert [r.as_dict() for r in back.trace.records] == [
        r.as_dict() for r in original.trace.records
    ]


def test_unsupported_versions_are_rejected():
    module = _regenerator()
    # A *newer* format gets the explicit upgrade-me message, not a generic
    # rejection (tests/test_campaign.py covers the same guard for journals).
    payload = module.build_payload(6)
    payload["version"] = 99
    with pytest.raises(ValueError, match="grid format v99 is newer than supported"):
        load_runs_from_payload(payload)

    run = module.build_run(6)
    run["version"] = 0
    with pytest.raises(ValueError, match="unsupported run format"):
        run_from_dict(run)


def load_runs_from_payload(payload, tmp=pathlib.Path("/tmp")):
    import tempfile

    with tempfile.NamedTemporaryFile(
        "w", suffix=".json", delete=False, dir=tmp
    ) as handle:
        json.dump(payload, handle)
        name = handle.name
    try:
        return load_runs(name)
    finally:
        pathlib.Path(name).unlink()
