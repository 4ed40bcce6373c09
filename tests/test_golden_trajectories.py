"""Golden-trajectory regression harness.

Replays the seeded scenarios defined in ``tests/golden/regenerate.py`` and
compares against the committed fixtures:

* ``surrogate_update="full"`` must reproduce each fixture **byte-for-byte**
  (every queried point, FOM, worker assignment, and simulated timestamp);
* ``surrogate_update="incremental"`` must reproduce the *sequential* fixture
  byte-for-byte too (no pending points -> identical arithmetic), and for the
  batch fixtures must match the initial design exactly and the first BO
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

from tests.golden.regenerate import (
    SCENARIOS,
    canonical_json,
    golden_path,
    run_scenario,
    trajectory_payload,
)

#: |x_golden - x_replayed| bound for the first post-init proposal of batch
#: scenarios replayed in incremental mode (L-BFGS stops within ~1e-9 of the
#: full-mode optimum when the acquisition surface differs by round-off).
FIRST_PROPOSAL_TOL = 1e-6

BATCH_SCENARIOS = [n for n in SCENARIOS if n != "lcb-branin"]


def load_golden(name: str) -> dict:
    return json.loads(golden_path(name).read_text())


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
    result = run_scenario(name, surrogate_update="full", refit_every=1)
    replayed = canonical_json(trajectory_payload(name, result))
    assert replayed == golden_path(name).read_text(), (
        f"golden {name} drifted in full mode; if this change is intentional, "
        "regenerate via tests/golden/regenerate.py and commit the diff"
    )


def test_explicit_hallucinate_policy_matches_legacy_golden():
    # pending_policy="hallucinate" is the refactored spelling of the original
    # Eq. 9 pending-point handling; selecting it explicitly must reproduce
    # the pre-refactor fixture byte-for-byte.
    result = run_scenario(
        "easybo-async-branin", surrogate_update="full", refit_every=1,
        pending_policy="hallucinate",
    )
    replayed = canonical_json(trajectory_payload("easybo-async-branin", result))
    assert replayed == golden_path("easybo-async-branin").read_text()


def test_incremental_sequential_is_byte_for_byte():
    # No pending points and refit_every=1: the incremental mode executes
    # bit-identical arithmetic, so even the fast path must hit the fixture.
    result = run_scenario("lcb-branin", surrogate_update="incremental")
    replayed = canonical_json(trajectory_payload("lcb-branin", result))
    assert replayed == golden_path("lcb-branin").read_text()


@pytest.mark.parametrize("name", sorted(BATCH_SCENARIOS))
def test_incremental_batch_matches_prefix(name):
    golden = load_golden(name)
    result = run_scenario(name, surrogate_update="incremental")
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


def test_modes_disagree_only_after_feedback():
    # Documents *why* batch trajectories are compared by prefix: replaying
    # the async scenario in both modes, the runs agree through the first
    # proposal and may only split later, once differing observations have
    # fed back into the surrogate.
    full = run_scenario("easybo-async-branin", surrogate_update="full")
    fast = run_scenario("easybo-async-branin", surrogate_update="incremental")
    n_init = SCENARIOS["easybo-async-branin"][2]["n_init"]
    # By submission index: a round-off difference in a point reorders
    # completions (durations hash the exact point).
    X_full = np.vstack([r.x for r in sorted(full.trace.records, key=lambda r: r.index)])
    X_fast = np.vstack([r.x for r in sorted(fast.trace.records, key=lambda r: r.index)])
    np.testing.assert_array_equal(X_full[:n_init], X_fast[:n_init])
    np.testing.assert_allclose(
        X_full[n_init], X_fast[n_init], atol=FIRST_PROPOSAL_TOL, rtol=0
    )
    assert fast.surrogate_stats.n_hallucinated_views > 0
    assert full.surrogate_stats.n_hallucinated_views == 0
