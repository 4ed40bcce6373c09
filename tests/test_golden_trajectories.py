"""Golden-trajectory regression harness.

Replays the seeded scenarios defined in ``tests/golden/regenerate.py`` and
compares against the committed fixtures:

* every scenario must reproduce its fixture **byte-for-byte** (every queried
  point, FOM, worker assignment, and simulated timestamp) on the one
  surrogate path every run takes — frozen-kernel refits append to the cached
  Cholesky factor, and Eq. 9 is a factor-sharing ``HallucinatedView``;
* the from-scratch rebuild the view is checked against per event
  (``condition_on_pending``, reached here by making every view lose positive
  definiteness, which is the session's own fallback) must reproduce the
  *sequential* fixture byte-for-byte too (no pending points, so no view),
  and for the batch fixtures the initial design exactly and the first BO
  proposal within a documented tolerance — full batch trajectories are a
  closed loop and may legally diverge after one ulp (see
  ``tests/golden/README.md``; per-event exactness is enforced separately by
  ``tests/test_incremental_equivalence.py``).

Any unexplained diff here is a behaviour regression: a change in rng
consumption order, acquisition defaults, scheduling, or GP numerics.
"""

import json

import numpy as np
import pytest

from repro.core import surrogate as surrogate_mod
from tests.golden.regenerate import (
    SCENARIOS,
    canonical_json,
    golden_path,
    run_scenario,
    trajectory_payload,
)

#: |x_golden - x_replayed| bound for the first post-init proposal of batch
#: scenarios replayed on the rebuild path (L-BFGS stops within ~1e-9 of the
#: view path's optimum when the acquisition surface differs by round-off).
FIRST_PROPOSAL_TOL = 1e-6

BATCH_SCENARIOS = [n for n in SCENARIOS if n != "lcb-branin"]


def load_golden(name: str) -> dict:
    return json.loads(golden_path(name).read_text())


def run_on_rebuild(monkeypatch, name: str):
    """Replay ``name`` with every hallucination on the rebuild path."""

    class LosesPositiveDefiniteness(surrogate_mod.HallucinatedView):
        def __init__(self, base, X_pending):
            raise np.linalg.LinAlgError("forced onto the rebuild path")

    with monkeypatch.context() as patch:
        patch.setattr(surrogate_mod, "HallucinatedView", LosesPositiveDefiniteness)
        return run_scenario(name)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
class TestFixtures:
    def test_fixture_exists_and_is_canonical(self, name):
        text = golden_path(name).read_text()
        payload = json.loads(text)
        # The file itself must be in canonical form, or byte-for-byte
        # comparisons would fail for formatting rather than behaviour.
        assert canonical_json(payload) == text
        assert payload["scenario"] == name
        assert len(payload["records"]) == payload["n_evaluations"]

    def test_records_are_wellformed(self, name):
        payload = load_golden(name)
        # Records land in completion order; the submission indices must
        # still form a gapless permutation of the budget.
        indices = [r["index"] for r in payload["records"]]
        assert sorted(indices) == list(range(payload["n_evaluations"]))
        for record in payload["records"]:
            assert record["finish_time"] >= record["issue_time"]
            assert record["status"] == "ok"
            assert np.isfinite(record["fom"])
        best = max(r["fom"] for r in payload["records"])
        assert payload["best_fom"] == best


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_full_mode_is_byte_for_byte(name):
    # The whole trajectory, on the path every run takes.
    result = run_scenario(name)
    replayed = canonical_json(trajectory_payload(name, result))
    assert replayed == golden_path(name).read_text(), (
        f"golden {name} drifted; if this change is intentional, "
        "regenerate via tests/golden/regenerate.py and commit the diff"
    )


def test_explicit_hallucinate_policy_matches_legacy_golden():
    # pending_policy="hallucinate" is the refactored spelling of the original
    # Eq. 9 pending-point handling; selecting it explicitly must reproduce
    # the fixture byte-for-byte.
    result = run_scenario("easybo-async-branin", pending_policy="hallucinate")
    replayed = canonical_json(trajectory_payload("easybo-async-branin", result))
    assert replayed == golden_path("easybo-async-branin").read_text()


def test_incremental_sequential_is_byte_for_byte(monkeypatch):
    # No pending points and refit_every=1: the rebuild path executes
    # bit-identical arithmetic, so it must hit the fixture too.
    result = run_on_rebuild(monkeypatch, "lcb-branin")
    replayed = canonical_json(trajectory_payload("lcb-branin", result))
    assert replayed == golden_path("lcb-branin").read_text()
    assert result.surrogate_stats.n_fallbacks == 0


@pytest.mark.parametrize("name", sorted(BATCH_SCENARIOS))
def test_incremental_batch_matches_prefix(name, monkeypatch):
    golden = load_golden(name)
    result = run_on_rebuild(monkeypatch, name)
    _, _, kwargs = SCENARIOS[name]
    n_init = kwargs["n_init"]
    # Records land in completion order, and durations hash the exact point,
    # so select by submission index: the design is indices below n_init.
    records = sorted(result.trace.records, key=lambda r: r.index)
    wanted = sorted(golden["records"], key=lambda r: r["index"])
    assert len(records) == golden["n_evaluations"]
    # The initial design never touches the surrogate: bitwise identical.
    for got, want in zip(records[:n_init], wanted[:n_init]):
        np.testing.assert_array_equal(np.asarray(got.x), np.asarray(want["x"]))
        assert got.fom == want["fom"]
        assert got.issue_time == want["issue_time"]
    # First model-driven proposal: same posterior up to <=1e-8 (equivalence
    # harness), so the maximizer lands within FIRST_PROPOSAL_TOL.
    got_first = np.asarray(records[n_init].x)
    want_first = np.asarray(wanted[n_init]["x"])
    np.testing.assert_allclose(got_first, want_first, atol=FIRST_PROPOSAL_TOL, rtol=0)
    # Structural invariants hold for the whole (legally divergent) tail.
    for record in records:
        assert record.status == "ok"
        assert np.isfinite(record.fom)


def test_modes_disagree_only_after_feedback(monkeypatch):
    # Documents *why* the rebuild path is compared by prefix: replaying the
    # async scenario on both, the runs agree through the first proposal and
    # split later, once differing observations have fed back into the
    # surrogate.
    view = run_scenario("easybo-async-branin")
    rebuild = run_on_rebuild(monkeypatch, "easybo-async-branin")
    n_init = SCENARIOS["easybo-async-branin"][2]["n_init"]
    # By submission index: a round-off difference in a point reorders
    # completions (durations hash the exact point).
    X_view = np.vstack([r.x for r in sorted(view.trace.records, key=lambda r: r.index)])
    X_rebuild = np.vstack(
        [r.x for r in sorted(rebuild.trace.records, key=lambda r: r.index)]
    )
    np.testing.assert_array_equal(X_view[:n_init], X_rebuild[:n_init])
    np.testing.assert_allclose(
        X_view[n_init], X_rebuild[n_init], atol=FIRST_PROPOSAL_TOL, rtol=0
    )
    assert not np.array_equal(X_view, X_rebuild)
    assert view.surrogate_stats.n_hallucinated_views > 0
    assert view.surrogate_stats.n_hallucinated_rebuilds == 0
    assert rebuild.surrogate_stats.n_hallucinated_views == 0
    assert rebuild.surrogate_stats.n_hallucinated_rebuilds > 0
