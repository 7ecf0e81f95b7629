"""Equivalence tests for the incremental DPD engine (repro.core.dpd).

The incremental mismatch counters, the batch path, and the predictor's
vectorised ``observe_many`` must all be *bit-identical* to the naive
from-scratch scan (:meth:`DynamicPeriodicityDetector.distances_naive`) and to
a sequential ``observe`` loop, after every single append.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.dpd as dpd_module
from repro.core.dpd import DynamicPeriodicityDetector
from repro.core.predictor import _BATCH_CROSSOVER, PeriodicityPredictor

values = st.integers(min_value=0, max_value=5)


def assert_counters_match(detector: DynamicPeriodicityDetector) -> None:
    incremental = detector.distances()
    naive = detector.distances_naive()
    assert incremental.dtype == naive.dtype == np.int64
    np.testing.assert_array_equal(incremental, naive)


class TestIncrementalEqualsNaive:
    @given(
        window=st.integers(1, 16),
        max_period=st.integers(1, 32),
        tolerance=st.integers(0, 3),
        data=st.lists(values, max_size=160),
    )
    @settings(max_examples=80, deadline=None)
    def test_counters_match_naive_after_every_append(
        self, window, max_period, tolerance, data
    ):
        detector = DynamicPeriodicityDetector(window, max_period, tolerance)
        for value in data:
            detector.observe(value)
            assert_counters_match(detector)
            # detect() must agree with the smallest accepted naive delay
            naive = detector.distances_naive()
            accepted = np.nonzero(naive <= tolerance)[0]
            expected = int(accepted[0]) + 1 if accepted.size else None
            assert detector.detect().period == expected
            assert detector.current_period() == expected

    @given(
        window=st.integers(1, 12),
        max_period=st.integers(1, 24),
        tolerance=st.integers(0, 2),
        data=st.lists(values, max_size=120),
        split=st.integers(0, 120),
    )
    @settings(max_examples=80, deadline=None)
    def test_batch_observe_equals_sequential(
        self, window, max_period, tolerance, data, split
    ):
        sequential = DynamicPeriodicityDetector(window, max_period, tolerance)
        step_periods = []
        for value in data:
            sequential.observe(value)
            period = sequential.current_period()
            step_periods.append(0 if period is None else period)

        batched = DynamicPeriodicityDetector(window, max_period, tolerance)
        split = min(split, len(data))
        first = batched.batch_observe(data[:split], return_periods=True)
        second = batched.batch_observe(data[split:], return_periods=True)
        np.testing.assert_array_equal(
            np.concatenate((first, second)),
            np.asarray(step_periods, dtype=np.int64),
        )
        np.testing.assert_array_equal(batched.distances(), sequential.distances())
        assert batched.samples_seen == sequential.samples_seen


class TestEdgeCaseRegressions:
    def test_not_yet_full_buffer_matches_naive_at_every_prefix(self):
        rng = np.random.default_rng(42)
        stream = rng.integers(0, 3, size=30)
        # Capacity is 24, so the 30-sample run covers growing, just-full and
        # freshly wrapped states.
        detector = DynamicPeriodicityDetector(window_size=8, max_period=16)
        for value in stream:
            detector.observe(int(value))
            assert_counters_match(detector)

    def test_wraparound_matches_naive_long_after_buffer_full(self):
        rng = np.random.default_rng(43)
        detector = DynamicPeriodicityDetector(window_size=6, max_period=10)
        # capacity is 16; run 10x longer so the ring wraps many times
        for value in rng.integers(0, 2, size=160):
            detector.observe(int(value))
            assert_counters_match(detector)

    def test_window_larger_than_max_period(self):
        detector = DynamicPeriodicityDetector(window_size=12, max_period=3)
        for value in [1, 2, 3] * 20:
            detector.observe(value)
            assert_counters_match(detector)
        assert detector.detect().period == 3

    def test_max_period_larger_than_window(self):
        detector = DynamicPeriodicityDetector(window_size=4, max_period=30)
        for value in list(range(10)) * 8:
            detector.observe(value)
            assert_counters_match(detector)
        assert detector.detect().period == 10

    def test_reset_clears_counters(self):
        detector = DynamicPeriodicityDetector(window_size=4, max_period=8)
        for value in [1, 2] * 10:
            detector.observe(value)
        detector.reset()
        assert detector.distances().size == 0
        assert detector.detect().period is None
        for value in [3, 4, 5] * 10:
            detector.observe(value)
            assert_counters_match(detector)
        assert detector.detect().period == 3

    def test_batch_observe_empty_input(self):
        detector = DynamicPeriodicityDetector(window_size=4)
        assert detector.batch_observe([], return_periods=True).size == 0
        assert detector.batch_observe([]) is None
        assert detector.samples_seen == 0

    def test_batch_observe_chunked_matches_single_shot(self, monkeypatch):
        rng = np.random.default_rng(44)
        stream = rng.integers(0, 2, size=200)
        monkeypatch.setattr(dpd_module, "_BATCH_CHUNK", 16)
        chunked = DynamicPeriodicityDetector(window_size=5, max_period=9)
        chunked_periods = chunked.batch_observe(stream, return_periods=True)
        monkeypatch.undo()
        single = DynamicPeriodicityDetector(window_size=5, max_period=9)
        single_periods = single.batch_observe(stream, return_periods=True)
        np.testing.assert_array_equal(chunked_periods, single_periods)
        np.testing.assert_array_equal(chunked.distances(), single.distances())

    def test_tolerance_accepted_by_batch_and_incremental(self):
        stream = [1, 2, 3, 4] * 10
        stream[17] = 99
        sequential = DynamicPeriodicityDetector(8, 8, mismatch_tolerance=2)
        for value in stream:
            sequential.observe(value)
            assert_counters_match(sequential)
        batched = DynamicPeriodicityDetector(8, 8, mismatch_tolerance=2)
        periods = batched.batch_observe(stream, return_periods=True)
        assert periods[-1] == 4
        assert sequential.current_period() == 4


class TestPredictorObserveMany:
    @given(
        window=st.integers(1, 10),
        max_period=st.integers(1, 20),
        sticky=st.booleans(),
        data=st.lists(values, max_size=100),
        split=st.integers(0, 100),
    )
    @settings(max_examples=80, deadline=None)
    def test_observe_many_matches_sequential_bookkeeping(
        self, window, max_period, sticky, data, split
    ):
        sequential = PeriodicityPredictor(window, max_period, sticky=sticky)
        for value in data:
            sequential.observe(value)

        batched = PeriodicityPredictor(window, max_period, sticky=sticky)
        split = min(split, len(data))
        batched.observe_many(data[:split])
        batched.observe_many(data[split:])

        assert batched.detections == sequential.detections
        assert batched.period_changes == sequential.period_changes
        assert batched.current_period == sequential.current_period
        assert batched.predict(6) == sequential.predict(6)

    def test_predict_array_matches_predict(self):
        predictor = PeriodicityPredictor(window_size=6, max_period=6)
        predictor.observe_many([4, 5, 6] * 8)
        for horizon in (1, 3, 7):
            array, mask = predictor.predict_array(horizon)
            assert mask.all()
            assert [int(v) for v in array] == predictor.predict(horizon)

    def test_predict_array_declines_before_learning(self):
        predictor = PeriodicityPredictor(window_size=6)
        array, mask = predictor.predict_array(4)
        assert not mask.any()
        assert predictor.predict(4) == [None] * 4

    def test_predict_array_invalid_horizon(self):
        with pytest.raises(ValueError):
            PeriodicityPredictor().predict_array(0)


def noisy_periodic(pattern, length, noise):
    """``pattern`` repeated to ``length`` samples, with ``noise`` overrides."""
    stream = (pattern * (length // len(pattern) + 1))[:length]
    for index, value in noise:
        if index < length:
            stream[index] = value
    return stream


def assert_same_predictor_state(batched, sequential):
    assert batched.detections == sequential.detections
    assert batched.period_changes == sequential.period_changes
    assert batched.current_period == sequential.current_period
    assert batched.predict(6) == sequential.predict(6)
    np.testing.assert_array_equal(batched._dpd.distances(), sequential._dpd.distances())
    assert_counters_match(batched._dpd)


class TestObserveManyChunkings:
    """``observe_many`` over any chunking equals the per-sample loop.

    Chunk lengths straddle the predictor's loop/batch crossover, and the
    DPD's ``_BATCH_CHUNK`` is patched down so long chunks are split too.
    Streams start cold, so every run covers warm-up, the chunk that makes
    every delay evaluable, and the warm batch path afterwards.
    """

    @given(
        window=st.integers(1, 10),
        max_period=st.integers(1, 20),
        tolerance=st.integers(0, 2),
        sticky=st.booleans(),
        pattern=st.lists(values, min_size=1, max_size=8),
        length=st.integers(0, 160),
        noise=st.lists(st.tuples(st.integers(0, 159), values), max_size=6),
        lengths=st.lists(st.integers(1, 2 * _BATCH_CROSSOVER + 4), min_size=1, max_size=12),
        batch_chunk=st.integers(1, 12),
    )
    @settings(max_examples=120, deadline=None)
    def test_random_chunkings_match_per_sample_loop(
        self, window, max_period, tolerance, sticky, pattern, length, noise, lengths, batch_chunk
    ):
        stream = noisy_periodic(pattern, length, noise)
        sequential = PeriodicityPredictor(window, max_period, tolerance, sticky=sticky)
        batched = PeriodicityPredictor(window, max_period, tolerance, sticky=sticky)
        start = 0
        with mock.patch.object(dpd_module, "_BATCH_CHUNK", batch_chunk):
            for size in itertools.cycle(lengths):
                if start >= len(stream):
                    break
                chunk = stream[start : start + size]
                start += size
                batched.observe_many(chunk)
                for value in chunk:
                    sequential.observe(value)
                assert_same_predictor_state(batched, sequential)

    @pytest.mark.parametrize("tolerance", [0, 2])
    @pytest.mark.parametrize("sticky", [True, False])
    def test_chunk_crossing_warm_up_then_warm_chunks(self, tolerance, sticky):
        window, max_period = 6, 10
        stream = noisy_periodic([3, 1, 4, 1, 5], 120, [(40, 9), (41, 9), (77, 2)])
        sequential = PeriodicityPredictor(window, max_period, tolerance, sticky=sticky)
        batched = PeriodicityPredictor(window, max_period, tolerance, sticky=sticky)
        # 12 samples leave the detector cold; the next chunk of 20 completes
        # the warm-up (N + M = 16) part-way through.
        cuts = [0, 12, 32, 32 + 3 * _BATCH_CROSSOVER, 120]
        for begin, end in zip(cuts, cuts[1:]):
            before = batched._dpd._usable
            batched.observe_many(stream[begin:end])
            for value in stream[begin:end]:
                sequential.observe(value)
            assert_same_predictor_state(batched, sequential)
            if begin == 12:
                assert before < max_period == batched._dpd._usable

    def test_warm_batches_never_rescan(self, monkeypatch):
        predictor = PeriodicityPredictor(24, 256)
        predictor.observe_many(noisy_periodic([1, 2, 5, 7, 9], 300, []))
        calls = []
        for name in ("_batch_periods", "_recompute_counters"):
            original = getattr(DynamicPeriodicityDetector, name)

            def spy(self, *args, _original=original, _name=name):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(DynamicPeriodicityDetector, name, spy)
        for size in (1, _BATCH_CROSSOVER, 64, 512):
            predictor.observe_many(noisy_periodic([1, 2, 5, 7, 9], size, []))
        assert calls == []
        assert predictor.current_period == 5
