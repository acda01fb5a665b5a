"""Replay the recorded bursty update trace through the serving engine.

The fixture (``tests/fixtures/bursty_update_trace.json``) encodes a
write-traffic pattern that previously exposed seam bugs: small mixed
bursts the engine must migrate by delta-patching, an add-then-remove
pair that must collapse out of the delta, and a final burst touching
over half the population that must trip the migration skip threshold.
After every republish the engine's answers are checked bit-identical to
a fresh engine over the same population — churn may change *cost*,
never *answers*.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.entities import MovingUser
from repro.service import DatasetSnapshot, SelectionEngine, SelectionQuery
from repro.streaming import StreamingMC2LS
from tests.conftest import build_instance

TRACE_PATH = Path(__file__).parent / "fixtures" / "bursty_update_trace.json"


@pytest.fixture(scope="module")
def trace():
    return json.loads(TRACE_PATH.read_text())


def apply_event(session, event):
    op = event["op"]
    if op == "remove":
        session.remove_user(event["uid"])
        return
    rng = np.random.default_rng(event["seed"])
    if op == "move":
        user = session.user(event["uid"])
        jitter = rng.normal(0.0, 1.0, user.positions.shape)
        session.update_user(MovingUser(event["uid"], user.positions + jitter))
    elif op == "add":
        anchor = session.user(session.uids()[0]).positions
        offset = rng.normal(0.0, 4.0, anchor.shape)
        session.add_user(MovingUser(event["uid"], anchor + offset))
    else:  # pragma: no cover - malformed fixture
        raise ValueError(f"unknown op {op!r}")


def test_bursty_trace_replays_identically(trace):
    dataset = build_instance(**trace["dataset"])
    k, tau = trace["k"], trace["tau"]
    session = StreamingMC2LS.from_dataset(dataset, k=k, tau=tau)
    queries = [SelectionQuery(k=kk, tau=tau) for kk in (1, k)]
    engine = SelectionEngine(session.snapshot())
    try:
        for query in queries:
            engine.execute(query)
        for burst in trace["bursts"]:
            for event in burst["events"]:
                apply_event(session, event)
            engine.publish(session.snapshot())
            fresh = SelectionEngine(DatasetSnapshot(session.current_dataset()))
            try:
                for query in queries:
                    served = engine.execute(query)
                    expect = fresh.execute(query)
                    assert served.selected == expect.selected, burst["label"]
                    assert served.gains == expect.gains, burst["label"]
                    assert served.objective == expect.objective, burst["label"]
            finally:
                fresh.shutdown()
        inc = engine.stats()["incremental"]
        # The three small bursts migrate; the heavy one is skipped.
        assert inc["patched"] == 3
        assert inc["skipped"] == 1
        assert inc["failed"] == 0
    finally:
        engine.shutdown()


def test_trace_exercises_the_collapse_rules(trace):
    """The re-add burst's delta must net out the transient user."""
    dataset = build_instance(**trace["dataset"])
    session = StreamingMC2LS.from_dataset(dataset, k=trace["k"], tau=trace["tau"])
    session.snapshot()  # seal the bootstrap delta
    for burst in trace["bursts"]:
        if burst["label"] != "readd-collapse":
            for event in burst["events"]:
                apply_event(session, event)
            session.snapshot()
            continue
        for event in burst["events"]:
            apply_event(session, event)
        delta = session.pending_delta()
        assert 601 not in delta.added  # added then removed: netted out
        assert 601 not in delta.removed
        assert 13 in delta.removed
        assert 602 in delta.added
        break
