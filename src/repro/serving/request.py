"""Inference request lifecycle.

Requests arrive with an input (prompt) length and a target output length
(known from the dataset trace).  A request moves through:

``WAITING`` (queued in the request pool until admitted) -> ``RUNNING``
(generation phase on the NeuPIMs device, one token per iteration) ->
``DONE``.  A preempted or retried request drops back to ``WAITING``.

The paper's Figure 7 request-pool table tracks exactly these fields:
request id, input length, generated-token count, assigned PIM channel and
status.  The pool owns the status of every request it holds: it changes
only through :meth:`~repro.serving.pool.RequestPool.transition`, which
keeps the pool's per-status buckets exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional


class RequestStatus(Enum):
    WAITING = "wait"
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

    @property
    def seq_len(self) -> int:
        """Current context length (KV-cache entries): prompt + generated."""
        return self.input_len + self.generated

    @property
    def is_finished(self) -> bool:
        return self.generated >= self.output_len

    def advance(self, tokens: int = 1) -> None:
        """Record ``tokens`` newly generated tokens.

        Only counts: a request that reaches ``output_len`` stays in its
        status until its pool transitions it to ``DONE``.
        """
        if tokens <= 0:
            raise ValueError("tokens must be positive")
        if self.is_finished:
            raise RuntimeError(f"request {self.request_id} already finished")
        self.generated = min(self.output_len, self.generated + tokens)
