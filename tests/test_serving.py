"""Serving layer: request batcher ordering/flush/cap and metrics."""

import threading
import time

import numpy as np
import pytest

from repro.serve import BatcherClosedError, RequestBatcher, ServingMetrics


class FakeEngine:
    """Engine stand-in: classify returns each image's constant fill value."""

    def __init__(self, delay_s: float = 0.0, fail: bool = False):
        self.batch_sizes = []
        self.delay_s = delay_s
        self.fail = fail

    def classify(self, images: np.ndarray) -> np.ndarray:
        self.batch_sizes.append(images.shape[0])
        if self.fail:
            raise RuntimeError("engine exploded")
        if self.delay_s:
            time.sleep(self.delay_s)
        return images[:, 0, 0, 0].astype(int)


def image(value: float, size: int = 8) -> np.ndarray:
    return np.full((3, size, size), value, dtype=np.float32)


class TestBatchingCore:
    def test_results_match_requests_in_order(self):
        eng = FakeEngine()
        batcher = RequestBatcher(eng, max_batch_size=4)
        results = batcher.serve_all([image(i) for i in range(10)])
        assert results == list(range(10))

    def test_batch_size_cap_respected(self):
        eng = FakeEngine()
        batcher = RequestBatcher(eng, max_batch_size=3)
        batcher.serve_all([image(i) for i in range(8)])
        assert eng.batch_sizes == [3, 3, 2]
        assert max(batcher.metrics.batch_size_histogram()) <= 3

    def test_mixed_shapes_never_share_a_batch(self):
        eng = FakeEngine()
        batcher = RequestBatcher(eng, max_batch_size=8)
        futures = [batcher.submit(image(1, size=8)),
                   batcher.submit(image(2, size=8)),
                   batcher.submit(image(3, size=16)),
                   batcher.submit(image(4, size=16))]
        batcher.flush()
        assert eng.batch_sizes == [2, 2]
        assert [f.result() for f in futures] == [1, 2, 3, 4]

    def test_engine_failure_propagates_to_batch_futures(self):
        batcher = RequestBatcher(FakeEngine(fail=True), max_batch_size=2)
        futures = batcher.submit_many([image(0), image(1)])
        batcher.flush()
        for f in futures:
            with pytest.raises(RuntimeError, match="engine exploded"):
                f.result(timeout=0)

    def test_interleaved_shapes_bucket_without_hol_blocking(self):
        """A shape change must not force-close the current batch: requests
        are bucketed per shape, so interleaved shapes still coalesce."""
        eng = FakeEngine()
        batcher = RequestBatcher(eng, max_batch_size=4)
        futures = [batcher.submit(image(1, size=8)),
                   batcher.submit(image(2, size=16)),
                   batcher.submit(image(3, size=8)),
                   batcher.submit(image(4, size=16)),
                   batcher.submit(image(5, size=8))]
        batcher.flush()
        # pre-fix this produced 5 singleton batches; bucketed it is 2
        assert eng.batch_sizes == [3, 2]
        assert [f.result() for f in futures] == [1, 2, 3, 4, 5]

    def test_bucket_service_order_is_oldest_request_first(self):
        eng = FakeEngine()
        batcher = RequestBatcher(eng, max_batch_size=8)
        batcher.submit(image(1, size=16))      # bucket 16 arrives first
        batcher.submit(image(2, size=8))
        batcher.submit(image(3, size=16))
        batcher.flush()
        # the 16-bucket holds the oldest request, so it is served first
        assert eng.batch_sizes == [2, 1]

    def test_rejects_batched_input_and_bad_params(self):
        batcher = RequestBatcher(FakeEngine())
        with pytest.raises(ValueError):
            batcher.submit(np.zeros((2, 3, 8, 8), dtype=np.float32))
        with pytest.raises(ValueError):
            RequestBatcher(FakeEngine(), task="segment")
        with pytest.raises(ValueError):
            RequestBatcher(FakeEngine(), max_batch_size=0)

    def test_unknown_task_keyword_raises_at_construction(self):
        """A misspelt option is named at construction, not swallowed
        (classify) or raised at the first engine call (detect)."""
        with pytest.raises(TypeError, match="max_batch"):
            RequestBatcher(FakeEngine(), task="classify", max_batch=2)
        with pytest.raises(TypeError, match="max_batch"):
            RequestBatcher(FakeEngine(), task="detect", max_batch=2)
        with pytest.raises(TypeError, match="score_threshold"):
            RequestBatcher(FakeEngine(), score_threshold=0.05)
        batcher = RequestBatcher(FakeEngine(), task="detect",
                                 score_threshold=0.05, nms_iou=0.4,
                                 max_dets=3)
        assert batcher.task_kwargs == {"score_threshold": 0.05,
                                       "nms_iou": 0.4, "max_dets": 3}


class TestThreadedServing:
    def test_max_wait_flushes_partial_batch(self):
        eng = FakeEngine()
        with RequestBatcher(eng, max_batch_size=8,
                            max_wait_s=0.02) as batcher:
            t0 = time.monotonic()
            result = batcher.submit(image(5)).result(timeout=2.0)
            elapsed = time.monotonic() - t0
        assert result == 5
        assert eng.batch_sizes == [1]     # deadline flush, not a full batch
        assert elapsed < 1.0

    def test_concurrent_submitters_all_served(self):
        eng = FakeEngine(delay_s=0.002)
        results = {}

        with RequestBatcher(eng, max_batch_size=4,
                            max_wait_s=0.01) as batcher:
            def client(i):
                results[i] = batcher.submit(image(i)).result(timeout=5.0)

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(12)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert results == {i: i for i in range(12)}
        assert max(eng.batch_sizes) <= 4
        assert sum(eng.batch_sizes) == 12

    def test_close_serves_remaining_requests(self):
        eng = FakeEngine()
        batcher = RequestBatcher(eng, max_batch_size=4).start()
        futures = batcher.submit_many([image(i) for i in range(3)])
        batcher.close()
        assert [f.result(timeout=0) for f in futures] == [0, 1, 2]
        with pytest.raises(RuntimeError):
            batcher.submit(image(9))


class TestCloseSemantics:
    def test_submit_after_close_fails_fast_sync_path(self):
        """Synchronous (never-started) batcher: close() seals it."""
        batcher = RequestBatcher(FakeEngine(), max_batch_size=4)
        batcher.close()
        with pytest.raises(BatcherClosedError):
            batcher.submit(image(1))

    def test_submit_after_close_fails_fast_threaded_path(self):
        batcher = RequestBatcher(FakeEngine(), max_batch_size=4).start()
        batcher.close()
        with pytest.raises(BatcherClosedError):
            batcher.submit(image(1))

    def test_start_after_close_raises(self):
        batcher = RequestBatcher(FakeEngine())
        batcher.close()
        with pytest.raises(BatcherClosedError):
            batcher.start()

    def test_close_without_flush_resolves_in_flight_futures(self):
        """close(flush=False) must deterministically resolve every queued
        future with BatcherClosedError rather than abandon it."""
        eng = FakeEngine()
        batcher = RequestBatcher(eng, max_batch_size=4)
        futures = batcher.submit_many([image(i) for i in range(3)])
        batcher.close(flush=False)
        for f in futures:
            assert f.done()
            with pytest.raises(BatcherClosedError):
                f.result(timeout=0)
        assert eng.batch_sizes == []      # nothing was served
        with pytest.raises(BatcherClosedError):
            batcher.submit(image(9))

    def test_close_is_idempotent(self):
        batcher = RequestBatcher(FakeEngine()).start()
        batcher.submit(image(1))
        batcher.close()
        batcher.close()
        batcher.close(flush=False)


class TestThreadedEngineFailure:
    def test_failed_batch_isolated_and_metrics_count_failure(self):
        """start() daemon path: exactly the failed batch's futures get the
        exception, later batches still complete, and ServingMetrics counts
        the failure."""
        class FlakyEngine(FakeEngine):
            def classify(self, images):
                out = super().classify(images)
                if (images[:, 0, 0, 0] >= 7).any():
                    raise RuntimeError("poisoned batch")
                return out

        metrics = ServingMetrics()
        eng = FlakyEngine()
        with RequestBatcher(eng, max_batch_size=2, max_wait_s=0.005,
                            metrics=metrics) as batcher:
            # submit in bursts so the poisoned pair forms its own batch
            good_a = batcher.submit_many([image(1), image(2)])
            for f in good_a:
                f.result(timeout=5.0)
            bad = batcher.submit_many([image(7), image(8)])
            for f in bad:
                with pytest.raises(RuntimeError, match="poisoned batch"):
                    f.result(timeout=5.0)
            good_b = batcher.submit_many([image(3), image(4)])
            assert [f.result(timeout=5.0) for f in good_b] == [3, 4]
        assert [f.result(timeout=0) for f in good_a] == [1, 2]
        snap = metrics.snapshot()
        assert snap["requests_failed"] == 2
        # 1 if [7, 8] coalesced, 2 if the deadline split them — either way
        # every poisoned batch is counted and nothing else is
        assert snap["batch_failures"] in (1, 2)
        assert snap["requests_completed"] == 4
        assert snap["requests_submitted"] == 6
        assert snap["queue_depth"] == 0


class TestMetrics:
    def test_counts_and_histogram(self):
        metrics = ServingMetrics()
        batcher = RequestBatcher(FakeEngine(), max_batch_size=4,
                                 metrics=metrics)
        batcher.serve_all([image(i) for i in range(6)])
        snap = metrics.snapshot()
        assert snap["requests_submitted"] == 6
        assert snap["requests_completed"] == 6
        assert snap["queue_depth"] == 0
        assert snap["peak_queue_depth"] == 6
        assert snap["batch_size_histogram"] == {2: 1, 4: 1}
        assert snap["mean_batch_size"] == pytest.approx(3.0)

    def test_summary_renders(self):
        batcher = RequestBatcher(FakeEngine(), max_batch_size=2)
        batcher.serve_all([image(i) for i in range(2)])
        text = batcher.metrics.summary(
            nvprof_rows=[{"kernel": "k", "time_ms": 1.0}])
        assert "Serving metrics" in text
        assert "Engine nvprof counters" in text

    def test_sim_ms_accounting_uses_engine_log(self):
        class LoggedEngine(FakeEngine):
            class _Log:
                total_ms = 0.0

            def __init__(self):
                super().__init__()
                self.log = self._Log()

            def classify(self, images):
                self.log.total_ms += 0.5   # pretend half a ms per batch
                return super().classify(images)

        batcher = RequestBatcher(LoggedEngine(), max_batch_size=4)
        batcher.serve_all([image(i) for i in range(8)])
        snap = batcher.metrics.snapshot()
        assert snap["sim_ms_total"] == pytest.approx(1.0)   # 2 batches
        assert snap["sim_ms_per_image"] == pytest.approx(0.125)


class TestDetectTask:
    def test_detections_split_and_relabelled_per_request(self):
        from repro.data.coco_map import Detection

        class DetectEngine:
            def detect(self, images, **kwargs):
                dets = []
                for i in range(images.shape[0]):
                    value = int(images[i, 0, 0, 0])
                    dets.append(Detection(image_id=i, label=value, score=0.9,
                                          box=np.zeros(4)))
                return dets

        batcher = RequestBatcher(DetectEngine(), task="detect",
                                 max_batch_size=4)
        futures = batcher.submit_many([image(10), image(20)])
        batcher.flush()
        first, second = [f.result() for f in futures]
        assert [d.label for d in first] == [10]
        assert [d.label for d in second] == [20]
        assert first[0].image_id == 0 and second[0].image_id == 1
