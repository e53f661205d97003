"""Coalescer invariants: keyed batches, dedup planning, shed answers."""

import math

import pytest

from repro.errors import ServeError
from repro.serve.coalescer import (
    BatchKey,
    Coalescer,
    PendingItem,
    TuneRequest,
    plan_unique_jobs,
    shed_report,
)


def _key(**overrides):
    base = dict(characterization="abcd" * 16, board="tx2",
                current_model="SC", strict=False)
    base.update(overrides)
    return BatchKey(**base)


def _item(board="tx2", app="shwfs", **overrides):
    return PendingItem(request=TuneRequest(board=board, app=app,
                                           **overrides),
                       future=None)


class TestRequestValidation:
    def test_app_and_workload_are_mutually_exclusive(self):
        with pytest.raises(ServeError) as excinfo:
            TuneRequest(board="tx2").validate()
        assert excinfo.value.code == "SERVE_BAD_REQUEST"

    def test_unknown_app_rejected(self):
        with pytest.raises(ServeError) as excinfo:
            TuneRequest(board="tx2", app="doom").validate()
        assert excinfo.value.code == "SERVE_BAD_REQUEST"

    def test_non_positive_deadline_rejected(self):
        with pytest.raises(ServeError):
            TuneRequest(board="tx2", app="shwfs", deadline_s=0.0).validate()

    def test_valid_request_passes(self):
        TuneRequest(board="tx2", app="shwfs", deadline_s=1.0).validate()


class TestCoalescer:
    def test_bad_config_rejected(self):
        with pytest.raises(ServeError):
            Coalescer(max_batch=0)

    def test_first_add_opens_batch(self):
        coalescer = Coalescer()
        batch, full = coalescer.add(_key(), object(), _item())
        assert coalescer.open_batches == [batch] and not full
        assert len(batch) == 1 and len(coalescer) == 1

    def test_batches_never_mix_keys(self):
        coalescer = Coalescer()
        keys = [_key(), _key(current_model="ZC"), _key(strict=True),
                _key(board="xavier"), _key(characterization="ef01" * 16)]
        for key in keys:
            for _ in range(3):
                coalescer.add(key, object(), _item())
        batches = coalescer.open_batches
        assert len(batches) == len(keys)
        for batch in batches:
            assert len(batch) == 3
        # every queued item sits under exactly its own key
        assert {batch.key for batch in batches} == set(keys)

    def test_size_window_closes_batch(self):
        coalescer = Coalescer(max_batch=2)
        _, full = coalescer.add(_key(), object(), _item())
        assert not full
        _, full = coalescer.add(_key(), object(), _item())
        assert full

    def test_pop_oldest_follows_opening_order(self):
        coalescer = Coalescer()
        keys = [_key(board="xavier"), _key(), _key(current_model="ZC")]
        for key in keys:
            coalescer.add(key, object(), _item())
        # a later item joins its key's batch without moving it
        coalescer.add(keys[0], object(), _item())
        popped = [coalescer.pop_oldest() for _ in keys]
        assert [batch.key for batch in popped] == keys
        assert [len(batch) for batch in popped] == [2, 1, 1]
        assert coalescer.pop_oldest() is None and len(coalescer) == 0

    def test_flush_drains_everything(self):
        coalescer = Coalescer()
        coalescer.add(_key(), object(), _item())
        coalescer.add(_key(board="nano"), object(), _item(board="nano"))
        assert len(coalescer.flush()) == 2
        assert len(coalescer) == 0 and coalescer.flush() == []


class TestUniqueJobPlanning:
    def test_identical_app_requests_collapse(self):
        items = [_item(), _item(), _item(app="orbslam"), _item()]
        jobs = plan_unique_jobs(items)
        assert [len(job.items) for job in jobs] == [3, 1]
        assert jobs[0].items == [items[0], items[1], items[3]]

    def test_explicit_workloads_never_deduplicate(self):
        from repro.apps import build_workload

        workload = build_workload("shwfs", board_name="tx2")
        items = [
            PendingItem(request=TuneRequest(board="tx2", workload=workload),
                        future=None)
            for _ in range(3)
        ]
        assert [len(job.items) for job in plan_unique_jobs(items)] == [1, 1, 1]

    def test_job_order_follows_first_appearance(self):
        items = [_item(app="orbslam"), _item(), _item(app="orbslam")]
        jobs = plan_unique_jobs(items)
        assert jobs[0].items[0].request.app == "orbslam"
        assert jobs[1].items[0].request.app == "shwfs"


class TestShedReport:
    def test_shed_report_is_coded_keep_current(self):
        request = TuneRequest(board="tx2", app="shwfs", current_model="zc")
        report = shed_report(request, "SERVE_OVERLOADED", "queue full")
        rec = report.recommendation
        assert report.workload_name == "shwfs"
        assert report.current_model == "ZC"
        assert rec.model.value == "keep current"
        assert any("request shed — SERVE_OVERLOADED: queue full" in caveat
                   for caveat in rec.caveats)
        assert math.isnan(report.gpu_cache_usage_pct)
