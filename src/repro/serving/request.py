"""Inference request lifecycle.

Requests arrive with an input (prompt) length and a target output length
(known from the dataset trace).  A request moves through:

``WAITING`` (queued in the request pool) -> ``PREFILL`` (summarization
phase on the standalone NPUs) -> ``RUNNING`` (generation phase on the
NeuPIMs device, one token per iteration) -> ``DONE``.

The paper's Figure 7 request-pool table tracks exactly these fields:
request id, input length, generated-token count, assigned PIM channel and
status.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional


class RequestStatus(Enum):
    WAITING = "wait"
    PREFILL = "prefill"
    RUNNING = "run"
    DONE = "done"

    # Members are singletons compared by identity, so identity hashing (in
    # C) agrees with ``==``; the pool keys its status buckets by member.
    __hash__ = object.__hash__


@dataclass
class InferenceRequest:
    """One LLM inference request.

    Attributes
    ----------
    request_id:
        Unique id.
    input_len:
        Prompt length in tokens.
    output_len:
        Number of tokens to generate before completion.
    generated:
        Tokens generated so far.
    channel:
        PIM channel holding this request's KV cache (assigned by the
        greedy min-load bin packing algorithm), or ``None`` if unassigned.
    arrival_time:
        Arrival timestamp in cycles (streaming arrivals).
    """

    request_id: int
    input_len: int
    output_len: int
    generated: int = 0
    status: RequestStatus = RequestStatus.WAITING
    channel: Optional[int] = None
    arrival_time: float = 0.0

    def __post_init__(self) -> None:
        if self.input_len <= 0:
            raise ValueError("input_len must be positive")
        if self.output_len <= 0:
            raise ValueError("output_len must be positive")
        if self.generated < 0 or self.generated > self.output_len:
            raise ValueError("generated out of range")

    def __getstate__(self) -> dict:
        # The status observer points at a live pool; never serialize it.
        state = self.__dict__.copy()
        state.pop("_status_observer", None)
        return state

    @property
    def seq_len(self) -> int:
        """Current context length (KV-cache entries): prompt + generated."""
        return self.input_len + self.generated

    @property
    def is_finished(self) -> bool:
        return self.generated >= self.output_len

    def advance(self, tokens: int = 1) -> None:
        """Record ``tokens`` newly generated tokens."""
        if tokens <= 0:
            raise ValueError("tokens must be positive")
        if self.is_finished:
            raise RuntimeError(f"request {self.request_id} already finished")
        self.generated = min(self.output_len, self.generated + tokens)
        if self.is_finished:
            self.status = RequestStatus.DONE

    def begin_generation(self, channel: int) -> None:
        """Transition into the generation phase on ``channel``."""
        self.status = RequestStatus.RUNNING
        self.channel = channel


class _StatusHook:
    """Set-only data descriptor on :attr:`InferenceRequest.status`.

    The request pool indexes requests by status, but transitions
    (begin_generation, advance, preemption demotions) happen directly on
    request objects all over the serving stack.  Writes to ``status`` land
    here and notify the owning pool's ``_status_observer`` when the value
    changes, so its per-status buckets stay exact without rescans.  With
    no ``__get__``, reads come straight from the instance dict, and writes
    to every other field never reach this hook.
    """

    __slots__ = ()

    def __set__(self, request: InferenceRequest,
                value: RequestStatus) -> None:
        state = request.__dict__
        old = state.get("status")
        state["status"] = value
        if old is not value:
            observer = state.get("_status_observer")
            if observer is not None:
                observer(request, old, value)


# Installed after the dataclass is built: its ``__init__`` keeps the
# WAITING default and assigns ``status`` through the hook.
InferenceRequest.status = _StatusHook()  # type: ignore[assignment]
