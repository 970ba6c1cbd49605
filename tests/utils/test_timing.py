"""Unit tests for repro.utils.timing."""

import threading

import pytest

from repro.utils.timing import WorkCounter


class TestWorkCounter:
    def test_add_single_field(self):
        wc = WorkCounter()
        wc.add(arnoldi_steps=3)
        assert wc.arnoldi_steps == 3

    def test_add_multiple_fields(self):
        wc = WorkCounter()
        wc.add(operator_applies=2, restarts=1)
        assert wc.operator_applies == 2
        assert wc.restarts == 1

    def test_add_unknown_field_raises(self):
        wc = WorkCounter()
        with pytest.raises(AttributeError):
            wc.add(bogus=1)

    def test_add_private_field_raises(self):
        wc = WorkCounter()
        with pytest.raises(AttributeError):
            wc.add(_lock=1)

    def test_merge(self):
        a = WorkCounter()
        b = WorkCounter()
        a.add(operator_applies=3)
        b.add(operator_applies=4, shifts_processed=1)
        a.merge(b)
        assert a.operator_applies == 7
        assert a.shifts_processed == 1

    def test_snapshot_is_plain_dict(self):
        wc = WorkCounter()
        wc.add(small_solves=2)
        snap = wc.snapshot()
        assert snap["small_solves"] == 2
        assert set(snap) == {
            "operator_applies",
            "arnoldi_steps",
            "restarts",
            "shifts_processed",
            "shifts_eliminated",
            "small_solves",
        }

    def test_total_work_weights_small_solves(self):
        wc = WorkCounter()
        wc.add(operator_applies=10, small_solves=2)
        assert wc.total_work == 10 + 4 * 2

    def test_thread_safety_under_contention(self):
        wc = WorkCounter()

        def bump():
            for _ in range(1000):
                wc.add(operator_applies=1)

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert wc.operator_applies == 4000
