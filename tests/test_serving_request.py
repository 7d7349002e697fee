"""Unit tests for the request lifecycle."""

import pytest

from repro.serving.pool import RequestPool
from repro.serving.request import InferenceRequest, RequestStatus


class TestValidation:
    def test_nonpositive_input_raises(self):
        with pytest.raises(ValueError):
            InferenceRequest(0, input_len=0, output_len=10)

    def test_nonpositive_output_raises(self):
        with pytest.raises(ValueError):
            InferenceRequest(0, input_len=10, output_len=0)

    def test_generated_out_of_range_raises(self):
        with pytest.raises(ValueError):
            InferenceRequest(0, input_len=10, output_len=10, generated=11)


class TestLifecycle:
    def test_seq_len_is_prompt_plus_generated(self):
        request = InferenceRequest(0, input_len=10, output_len=20, generated=5)
        assert request.seq_len == 15

    def test_advance_increments_generated(self):
        request = InferenceRequest(0, input_len=10, output_len=3)
        request.advance()
        assert request.generated == 1
        assert not request.is_finished

    def test_advance_to_completion_leaves_status_to_pool(self):
        request = InferenceRequest(0, input_len=10, output_len=2,
                                   status=RequestStatus.RUNNING)
        pool = RequestPool()
        pool.submit(request)
        request.advance(2)
        assert request.is_finished
        # advance only counts tokens; the pool moves the request to DONE.
        assert request.status is RequestStatus.RUNNING
        pool.transition(request, RequestStatus.DONE)
        assert request.status is RequestStatus.DONE
        assert pool.finished() == [request]

    def test_advance_clamps_at_output_len(self):
        request = InferenceRequest(0, input_len=10, output_len=2)
        request.advance(10)
        assert request.generated == 2

    def test_advance_finished_request_raises(self):
        request = InferenceRequest(0, input_len=10, output_len=1, generated=1)
        with pytest.raises(RuntimeError):
            request.advance()

    def test_advance_nonpositive_raises(self):
        request = InferenceRequest(0, input_len=10, output_len=5)
        with pytest.raises(ValueError):
            request.advance(0)

    def test_transition_to_running_keeps_channel(self):
        request = InferenceRequest(0, input_len=10, output_len=5)
        pool = RequestPool()
        pool.submit(request)
        request.channel = 7
        pool.transition(request, RequestStatus.RUNNING)
        assert request.status is RequestStatus.RUNNING
        assert request.channel == 7
        assert pool.running() == [request]
        assert pool.waiting() == []

    def test_new_request_waiting(self):
        request = InferenceRequest(0, input_len=1, output_len=1)
        assert request.status is RequestStatus.WAITING
        assert request.channel is None
