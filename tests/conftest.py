"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core.config import NeuPimsConfig
from repro.core.estimator import MhaLatencyEstimator, analytic_latencies
from repro.dram.timing import HbmOrganization, PimTiming, TimingParams
from repro.model.spec import GPT3_7B, GPT3_13B, GPT3_30B
from repro.serving.request import InferenceRequest, RequestStatus
from repro.serving.trace import SHAREGPT, warmed_batch

#: A larger example budget for CI's differential runs:
#: ``pytest --hypothesis-profile=ci`` (tests pinning their own
#: ``max_examples`` keep it).
settings.register_profile("ci", max_examples=500, deadline=None)


@pytest.fixture
def timing() -> TimingParams:
    return TimingParams()


@pytest.fixture
def org() -> HbmOrganization:
    return HbmOrganization()


@pytest.fixture
def pim_timing() -> PimTiming:
    return PimTiming()


@pytest.fixture
def config() -> NeuPimsConfig:
    return NeuPimsConfig()


@pytest.fixture
def small_org() -> HbmOrganization:
    """A small organization for fast command-level tests."""
    return HbmOrganization(channels=1, banks_per_channel=8, banks_per_group=4,
                           capacity_per_channel=1 << 24)


@pytest.fixture
def estimator() -> MhaLatencyEstimator:
    return MhaLatencyEstimator(spec=GPT3_7B, org=HbmOrganization(),
                               latencies=analytic_latencies())


@pytest.fixture
def spec_7b():
    return GPT3_7B


@pytest.fixture
def spec_13b():
    return GPT3_13B


@pytest.fixture
def spec_30b():
    return GPT3_30B


def make_request(request_id: int = 0, input_len: int = 64,
                 output_len: int = 128, generated: int = 0,
                 channel=None) -> InferenceRequest:
    """Factory for running-state requests used across tests."""
    request = InferenceRequest(
        request_id=request_id,
        input_len=input_len,
        output_len=output_len,
        generated=generated,
        status=RequestStatus.RUNNING,
        channel=channel,
    )
    return request


@pytest.fixture
def sharegpt_batch():
    return warmed_batch(SHAREGPT, batch_size=32, seed=7)
