"""Request pool table (paper Figure 7, component 3).

The NeuPIMs scheduler keeps arriving requests in a pool table recording
request id, input length, generated-token count, assigned channel and
status.  At every iteration boundary the scheduler admits waiting requests
into the running batch (iteration-level scheduling, per Orca) and retires
finished ones.

The pool indexes requests **by status** so the per-iteration accessors
(`waiting` / `running` / `finished`) scan only their own bucket instead of
the whole table.  The pool owns the status of every request it holds:
admission, completion and preemption demotions all go through
:meth:`RequestPool.transition`, so buckets stay exact without
per-iteration rescans, and sorted views are cached until their bucket
actually changes.  Admission takes waiting requests from the head of the
arrival-sorted view, so the WAITING view also keeps a consumed-prefix
cursor: a request leaving from the head advances it instead of dropping
the view.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, Iterator, List, Optional

from repro.serving.grouping import ClassKey, ClassTable, class_histogram
from repro.serving.request import (DONE, RUNNING, WAITING, InferenceRequest,
                                   RequestStatus)


class RequestPool:
    """The request pool table."""

    def __init__(self) -> None:
        self._requests: Dict[int, InferenceRequest] = {}
        self._buckets: Dict[RequestStatus, Dict[int, InferenceRequest]] = {
            status: {} for status in RequestStatus
        }
        #: per-status cached sorted views, dropped on bucket mutation
        self._sorted: Dict[RequestStatus, Optional[List[InferenceRequest]]] = {
            status: None for status in RequestStatus
        }
        #: arrival times aligned with the sorted WAITING view (for the
        #: arrived-by-``now`` prefix cut)
        self._waiting_arrivals: List[float] = []
        #: index of the first WAITING view entry still waiting (entries
        #: before it left from the head without dropping the view)
        self._waiting_head = 0
        #: The live class table of the RUNNING bucket, while one is
        #: attached: every transition into or out of RUNNING and every
        #: eviction joins or leaves it (a request submitted already
        #: RUNNING is caught by the table's size check when it opens).
        self.table: Optional[ClassTable] = None

    # ------------------------------------------------------------------
    # Bucket maintenance.
    # ------------------------------------------------------------------

    def _leave(self, request: InferenceRequest,
               status: RequestStatus) -> None:
        """Take ``request`` out of its ``status`` bucket.

        Leaving from the head of the WAITING view only advances the
        consumed-prefix cursor; any other removal drops the view.
        """
        self._buckets[status].pop(request.request_id, None)
        view = self._sorted[status]
        if view is not None and status is WAITING:
            head = self._waiting_head
            if head < len(view) and view[head] is request:
                self._waiting_head = head + 1
                return
        self._sorted[status] = None

    def _drop(self, request: InferenceRequest) -> None:
        del self._requests[request.request_id]
        self._leave(request, request.status)

    def _bucket_sorted(self, status: RequestStatus) -> List[InferenceRequest]:
        """The bucket ordered by request id, cached until it changes."""
        view = self._sorted[status]
        if view is None:
            bucket = self._buckets[status]
            view = [bucket[rid] for rid in sorted(bucket)]
            self._sorted[status] = view
            if status is WAITING:
                # Waiting requests sort by (arrival_time, id); re-sort the
                # id-ordered view (stable) and remember the arrival keys.
                view.sort(key=lambda r: r.arrival_time)
                self._waiting_arrivals = [r.arrival_time for r in view]
                self._waiting_head = 0
        return view

    # ------------------------------------------------------------------
    # Submission and lookup.
    # ------------------------------------------------------------------

    def submit(self, request: InferenceRequest) -> None:
        """Add a new request to the pool, in the bucket of its status."""
        if request.request_id in self._requests:
            raise ValueError(f"duplicate request id {request.request_id}")
        self._requests[request.request_id] = request
        self._buckets[request.status][request.request_id] = request
        self._sorted[request.status] = None

    def submit_all(self, requests: Iterable[InferenceRequest]) -> None:
        """Add several requests to the pool."""
        for request in requests:
            self.submit(request)

    def get(self, request_id: int) -> InferenceRequest:
        """Look up one request by id."""
        return self._requests[request_id]

    def transition(self, request: InferenceRequest,
                   status: RequestStatus) -> None:
        """Move a pooled ``request`` to ``status``.

        The only way a pooled request's status changes, so the buckets
        cannot drift from ``request.status``.  Raises ``KeyError`` for a
        request this pool does not hold (never submitted, or evicted or
        retired since).
        """
        rid = request.request_id
        if self._requests.get(rid) is not request:
            raise KeyError(f"request {rid} is not in this pool")
        old = request.status
        if old is status:
            return
        self._leave(request, old)
        request.status = status
        self._buckets[status][rid] = request
        self._sorted[status] = None
        table = self.table
        if table is not None:
            if old is RUNNING:
                table.leave(request)
            elif status is RUNNING:
                table.join(request)

    # ------------------------------------------------------------------
    # Status views.
    # ------------------------------------------------------------------

    def waiting(self, now: float = float("inf")) -> List[InferenceRequest]:
        """Waiting requests that have arrived by ``now``, FIFO by arrival."""
        view = self._bucket_sorted(WAITING)
        head = self._waiting_head
        if head == len(view):
            return []
        arrivals = self._waiting_arrivals
        if now >= arrivals[-1]:
            return view[head:]
        return view[head:bisect_right(arrivals, now, head)]

    def waiting_count(self) -> int:
        """Number of waiting requests (no scan, no sort)."""
        return len(self._buckets[WAITING])

    def has_waiting_arrived(self, now: float) -> bool:
        """Whether any waiting request has arrived by ``now`` (O(1) after
        the cached arrival-sorted view is built)."""
        view = self._bucket_sorted(WAITING)
        head = self._waiting_head
        return head < len(view) and self._waiting_arrivals[head] <= now

    def next_arrival(self) -> Optional[InferenceRequest]:
        """The earliest-arriving waiting request (ties by id), or ``None``;
        O(1) after the cached arrival-sorted view is built."""
        view = self._bucket_sorted(WAITING)
        head = self._waiting_head
        return view[head] if head < len(view) else None

    def running(self) -> List[InferenceRequest]:
        """Requests currently in the generation batch."""
        return list(self._bucket_sorted(RUNNING))

    def running_count(self) -> int:
        """Size of the generation batch (no scan, no sort)."""
        return len(self._buckets[RUNNING])

    def finished(self) -> List[InferenceRequest]:
        """Completed requests still present in the pool."""
        return list(self._bucket_sorted(DONE))

    def has_finished(self) -> bool:
        """Whether any request awaits retirement (no scan)."""
        return bool(self._buckets[DONE])

    def retire_finished(self) -> List[InferenceRequest]:
        """Remove and return finished requests (iteration boundary)."""
        done = self.finished()
        for request in done:
            self._drop(request)
        return done

    def evict(self, request_id: int) -> InferenceRequest:
        """Remove a request in any status.

        This is the supported way to hand a request to another pool (or
        drop it entirely): once evicted, :meth:`transition` on it raises
        here, and its status is a plain field until a pool takes it.
        """
        request = self._requests.get(request_id)
        if request is None:
            raise KeyError(f"unknown request id {request_id}")
        self._drop(request)
        if self.table is not None and request.status is RUNNING:
            self.table.leave(request)
        return request

    def class_histogram(self, status: RequestStatus = RUNNING
                        ) -> Dict[ClassKey, int]:
        """Equivalence classes of one status bucket, with multiplicities.

        Keys are ``(channel, seq_len, remaining_decode)`` — the grouping
        the serving engine and Algorithm-2 admission consume (requests in
        one class are indistinguishable to the iteration latency model
        and finish together).
        """
        return class_histogram(list(self._buckets[status].values()))

    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[InferenceRequest]:
        """Every pooled request, in any status."""
        return iter(self._requests.values())

    def __contains__(self, request_id: int) -> bool:
        return request_id in self._requests

    def channel_occupancy(self, num_channels: int) -> List[int]:
        """Running-request count per channel (for the Figure 7 table view)."""
        counts = [0] * num_channels
        for request in self._buckets[RUNNING].values():
            if request.channel is not None:
                counts[request.channel] += 1
        return counts

    def format_table(self, limit: Optional[int] = None) -> str:
        """Render the pool as the paper's table (for examples/debugging).

        An empty pool renders as the header row alone; ``limit`` caps
        the number of rows and must be non-negative.
        """
        if limit is not None and limit < 0:
            raise ValueError("limit must be non-negative")
        rows = ["ReqID  InLen  Gen  Chnl  Status"]
        entries = sorted(self._requests.values(), key=lambda r: r.request_id)
        if limit is not None:
            entries = entries[:limit]
        for r in entries:
            chnl = "-" if r.channel is None else str(r.channel)
            rows.append(
                f"{r.request_id:>5}  {r.input_len:>5}  {r.generated:>3}  "
                f"{chnl:>4}  {r.status.value}"
            )
        return "\n".join(rows)
