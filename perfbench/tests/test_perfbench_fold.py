"""The span-tree fold on synthetic traces."""

import pytest

from perfbench.fold import exclusive_by_name, fold_spans, layer_of


def _span(span_id, parent, name, start, end, **attributes):
    return {
        "span_id": span_id,
        "parent_id": parent,
        "name": name,
        "start": float(start),
        "duration": float(end - start),
        "attributes": attributes,
    }


def enforce_job():
    """A job whose check and enforce stages each nest a sweep."""
    return [
        _span("J", None, "job", 0.0, 10.0),
        _span("W", "J", "queue.wait", 0.0, 2.0),
        _span("A", "J", "worker.attempt", 2.0, 10.0),
        _span("C", "A", "queue.claim", 2.0, 2.1),
        _span("P", "A", "batch.pipeline", 2.5, 9.5),
        _span("K", "P", "stage.check", 3.0, 6.0),
        _span("S1", "K", "solve.sweep", 3.2, 5.8),
        _span("E", "P", "stage.enforce", 6.0, 9.0),
        _span("I", "E", "enforce.iteration", 6.1, 8.9),
        _span("S2", "I", "solve.sweep", 6.2, 8.7),
        _span("Q", "A", "queue.ack", 9.6, 9.7),
    ]


def test_exclusive_time_per_layer():
    fold = fold_spans(enforce_job())
    assert fold.layer_self["core"] == pytest.approx(2.6 + 2.5)
    # enforce.iteration keeps only what its nested sweep does not cover.
    assert fold.layer_self["passivity"] == pytest.approx(2.8 - 2.5)
    assert fold.layer_self["api"] == pytest.approx((3.0 - 2.6) + (3.0 - 2.8))
    assert fold.layer_self["batch"] == pytest.approx(
        (8.0 - 0.1 - 7.0 - 0.1) + (7.0 - 6.0)
    )
    assert fold.name_self["worker.attempt"] == pytest.approx(0.8)
    assert fold.name_total["solve.sweep"] == pytest.approx(5.1)
    assert fold.root_end == pytest.approx(10.0)
    assert fold.orphans == 0


def test_self_times_add_up_to_the_root():
    fold = fold_spans(enforce_job())
    assert sum(fold.layer_self.values()) == pytest.approx(10.0)


def test_missing_root_is_not_folded():
    spans = [s for s in enforce_job() if s["name"] != "job"]
    assert fold_spans(spans) is None


def test_children_are_clipped_to_their_parent():
    spans = [
        _span("J", None, "job", 0.0, 1.0),
        # Clock skew: the child claims to outlive the root.
        _span("A", "J", "worker.attempt", 0.5, 1.5),
        _span("P", "A", "batch.pipeline", 0.6, 1.4),
    ]
    fold = fold_spans(spans)
    assert fold.name_total["worker.attempt"] == pytest.approx(0.5)
    assert fold.name_total["batch.pipeline"] == pytest.approx(0.4)
    assert fold.name_self["job"] == pytest.approx(0.5)
    assert all(value >= 0.0 for value in fold.name_self.values())
    assert sum(fold.layer_self.values()) == pytest.approx(1.0)


def test_overlapping_children_count_once_and_orphans_are_left_out():
    spans = [
        _span("J", None, "job", 0.0, 4.0),
        _span("D", "J", "eigensweep.dispatch", 0.0, 4.0),
        _span("S1", "D", "eigensweep.shard", 0.5, 3.0),
        _span("S2", "D", "eigensweep.shard", 1.0, 3.5),
        _span("X", "gone", "store.put", 0.0, 9.0),
    ]
    fold = fold_spans(spans)
    assert fold.name_self["eigensweep.dispatch"] == pytest.approx(1.0)
    assert fold.name_total["eigensweep.shard"] == pytest.approx(5.0)
    assert fold.orphans == 1
    assert "store" not in fold.layer_self


def test_exclusive_by_name_over_an_in_process_forest():
    spans = [
        _span("R", "bench", "solve.sweep", 0.0, 2.0),
        _span("D", "R", "eigensweep.dispatch", 0.1, 1.9),
        _span("S", "D", "eigensweep.shard", 0.2, 1.5),
    ]
    own = exclusive_by_name(spans)
    assert own["solve.sweep"] == pytest.approx(0.2)
    assert own["eigensweep.dispatch"] == pytest.approx(0.5)
    assert own["eigensweep.shard"] == pytest.approx(1.3)


@pytest.mark.parametrize(
    "name, layer",
    [
        ("job", "service"),
        ("queue.wait", "queue"),
        ("worker.attempt", "batch"),
        ("stage.fit", "api"),
        ("vectfit.relocate", "vectfit"),
        ("solve.sweep", "core"),
        ("enforce.iteration", "passivity"),
        ("store.get", "store"),
        ("mystery", "other"),
    ],
)
def test_layer_of(name, layer):
    assert layer_of(name) == layer
