"""Latency and throughput metrics for serving experiments.

Collects, per request: TTFT, every token gap (TBT), TPOT, end-to-end
latency; and per run: percentiles, SLO attainment, token throughput.  These
are exactly the quantities of the paper's Figs. 14-17 and Tables 3-5.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Iterable

from repro.serving.slo import SLO
from repro.workloads.request import Request


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile; NaN for empty (or all-NaN) input.

    NaN samples are excluded up front: NaN compares false against
    everything, so letting it into ``sorted()`` leaves the list partially
    ordered and silently corrupts every rank.
    """
    if not 0 <= pct <= 100:
        raise ValueError("pct must be in [0, 100]")
    ordered = sorted(v for v in values if not math.isnan(v))
    return _percentile_of_sorted(ordered, pct)


def _percentile_of_sorted(ordered: list[float], pct: float) -> float:
    """:func:`percentile` over an already sorted, NaN-free sample list.

    Split out so :meth:`MetricsCollector.summarize` can sort each sample
    list once and read several percentiles off it.
    """
    if not ordered:
        return math.nan
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


def _new_gap_ledger() -> array:
    return array("d")


@dataclass
class RequestRecord:
    """Lifecycle timestamps of one request.

    ``token_gaps`` holds every decode token gap (TBT sample) in emission
    order as an ``array('d')``: 8 bytes per token instead of a boxed
    float plus a list slot.  It reads like a list of floats (iteration,
    ``len``, indexing, ``sorted``), but compares equal only to another
    array — use ``.tolist()`` to compare against a list.
    """

    request: Request
    arrival: float
    first_token: float | None = None
    last_token: float | None = None
    tokens_emitted: int = 0
    token_gaps: array = field(default_factory=_new_gap_ledger)
    #: New (non-reused) tokens this request's prefill computed; remembered
    #: so a record discarded after a replica failure can be un-counted.
    prefilled_tokens: int = 0

    @property
    def finished(self) -> bool:
        """True once every output token was emitted."""
        return self.tokens_emitted >= self.request.output_tokens

    @property
    def ttft(self) -> float:
        """Time to first token."""
        if self.first_token is None:
            return math.nan
        return self.first_token - self.arrival

    @property
    def ttft_per_token(self) -> float:
        """TTFT normalised by input length (Fig. 20's metric)."""
        return self.ttft / max(1, self.request.input_tokens)

    @property
    def tpot(self) -> float:
        """Average time per output token after the first."""
        if self.first_token is None or self.last_token is None or self.tokens_emitted < 2:
            return math.nan
        return (self.last_token - self.first_token) / (self.tokens_emitted - 1)

    @property
    def e2e(self) -> float:
        """End-to-end latency (arrival to last token)."""
        if self.last_token is None:
            return math.nan
        return self.last_token - self.arrival


@dataclass
class Summary:
    """Aggregate results of one run (one system x workload x rate)."""

    name: str
    requests_total: int
    requests_finished: int
    ttft_avg: float
    ttft_p50: float
    ttft_p99: float
    tbt_avg: float
    tbt_p50: float
    tbt_p99: float
    tpot_avg: float
    tpot_p50: float
    e2e_avg: float
    e2e_p50: float
    token_throughput: float
    useful_throughput: float
    output_throughput: float
    tbt_attainment: float
    slo_met: bool

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view for table printing."""
        return dict(self.__dict__)


class MetricsCollector:
    """Accumulates per-request records and produces run summaries.

    ``sink`` (any :class:`repro.bench.sinks.RecordSink`) taps the
    per-token gap stream: every decode emission also produces a record
    ``{"req": <arrival index>, "ts": <time>, "gaps": [..]}`` in emission
    order.  The tap is opt-in and purely additive — summaries and
    fingerprints are computed from the records exactly as without it; the
    fast-path equivalence suite diffs these streams between the elided
    and scalar paths.
    """

    def __init__(self, slo: SLO, name: str = "", sink=None) -> None:
        self.slo = slo
        self.name = name
        self.sink = sink
        self.records: dict[int, RequestRecord] = {}
        self._arrival_index: dict[int, int] = {}
        self._prefilled_tokens = 0
        self._useful_input_tokens = 0
        self._start_time: float | None = None
        self._end_time: float | None = None

    # ------------------------------------------------------------------ #
    # Event recording
    # ------------------------------------------------------------------ #

    def on_arrival(self, request: Request, time: float) -> RequestRecord:
        """Register a request's arrival."""
        record = RequestRecord(request=request, arrival=time)
        self.records[request.request_id] = record
        if request.request_id not in self._arrival_index:
            # Stable per-collector index: raw request ids are process-global
            # counters, so streamed records identify requests by arrival
            # order, which is invariant across runs in one process.
            self._arrival_index[request.request_id] = len(self._arrival_index)
        if self._start_time is None or time < self._start_time:
            self._start_time = time
        return record

    def on_prefill_done(self, request: Request, time: float, new_tokens: int) -> None:
        """Record the first token (end of prefill) and prefilled volume."""
        record = self.records[request.request_id]
        if record.first_token is not None:
            raise ValueError(f"request {request.request_id} prefilled twice")
        record.first_token = time
        record.last_token = time
        record.tokens_emitted = 1
        record.prefilled_tokens += new_tokens
        self._prefilled_tokens += new_tokens
        self._useful_input_tokens += request.input_tokens
        self._end_time = time if self._end_time is None else max(self._end_time, time)

    def on_tokens(self, request: Request, time: float, count: int = 1) -> None:
        """Record ``count`` decode tokens emitted at ``time``."""
        self.on_tokens_record(self.records[request.request_id], time, count)

    def on_tokens_record(self, record: RequestRecord, time: float, count: int = 1) -> None:
        """:meth:`on_tokens` for callers already holding the record.

        The serving hot path emits per-iteration decode tokens for every
        active request; handing the record in directly skips one dict
        lookup per token batch.
        """
        last = record.last_token
        if last is None:
            raise ValueError("tokens before first token")
        record.token_gaps.append(time - last)
        if count > 1:
            # A step that emits several tokens (speculative verification)
            # stalled the stream for the whole step: the first token carries
            # the full gap and the rest arrive with it.  Smearing the gap
            # evenly would hide the stall from P99 TBT and SLO attainment.
            record.token_gaps.extend(repeat(0.0, count - 1))
        record.tokens_emitted += count
        record.last_token = time
        if self.sink is not None:
            self.sink.emit(
                {
                    "req": self._arrival_index.get(record.request.request_id, -1),
                    "ts": time,
                    "gaps": record.token_gaps[-count:].tolist(),
                }
            )
        end = self._end_time
        if end is None or time > end:
            self._end_time = time

    def on_batch_tokens(self, records: list[RequestRecord], times: list[float]) -> None:
        """One decode token per record at each of ``times``.

        Equivalent, bit for bit, to ``on_tokens_record(record, t)`` for
        each ``t`` in ``times`` (non-decreasing, as the clock is) and,
        within each, each record in order: a record's first gap is
        ``times[0] - last_token`` and every later gap is ``times[i] -
        times[i-1]`` — the subtractions the per-token calls perform, the
        latter computed once and shared by every record.  The sink sees
        the same records in the same order.  The decode fast loop hands a
        whole stretch of decode-only iterations in one call; plain decode
        iterations hand one time.
        """
        count = len(times)
        first = times[0]
        last_time = times[-1]
        steps = [t - s for s, t in zip(times, times[1:])] if count > 1 else None
        for record in records:
            last = record.last_token
            if last is None:
                raise ValueError("tokens before first token")
            gaps = record.token_gaps
            gaps.append(first - last)
            if steps:
                gaps.extend(steps)
            record.tokens_emitted += count
            record.last_token = last_time
        if self.sink is not None:
            self._emit_batch(records, times, steps)
        end = self._end_time
        if records and (end is None or last_time > end):
            self._end_time = last_time

    def _emit_batch(
        self, records: list[RequestRecord], times: list[float], steps: list[float] | None
    ) -> None:
        """Sink records of :meth:`on_batch_tokens`, in per-token call order."""
        index = self._arrival_index
        reqs = [index.get(record.request.request_id, -1) for record in records]
        count = len(times)
        emit = self.sink.emit
        for req, record in zip(reqs, records):
            emit({"req": req, "ts": times[0], "gaps": [record.token_gaps[-count]]})
        if steps:
            for time, gap in zip(times[1:], steps):
                for req in reqs:
                    emit({"req": req, "ts": time, "gaps": [gap]})

    def discard(self, request_id: int) -> RequestRecord | None:
        """Forget an in-flight request whose replica died mid-serve.

        Un-counts the record's prefilled/useful token contributions so the
        collector reports only work this (now dead) replica actually
        delivered; the partial decode tokens it emitted are returned with
        the record so the fault layer can account them as wasted.  The
        request is then re-recorded from scratch wherever the router
        re-dispatches it — its TTFT is measured honestly against the
        original arrival, not the retry.  Returns None for unknown ids
        (e.g. a delivery that never reached the replica).
        """
        record = self.records.pop(request_id, None)
        if record is None:
            return None
        if record.first_token is not None:
            self._prefilled_tokens -= record.prefilled_tokens
            self._useful_input_tokens -= record.request.input_tokens
        return record

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #

    def sliced(
        self,
        predicate: "Callable[[Request], bool]",
        slo: SLO | None = None,
        name: str | None = None,
    ) -> "MetricsCollector":
        """A sub-collector over the requests matching ``predicate``.

        Records are shared (not copied) and the throughput counters are
        recomputed from the surviving records.  The observation window is
        the *parent's* window, so per-slice throughputs are shares of the
        same elapsed time and sum to the parent's — the multi-tenant
        accounting slices per tenant/tier this way.  ``slo`` substitutes a
        different target (e.g. a tier SLO) for the slice's summary.
        """
        sub = MetricsCollector(slo if slo is not None else self.slo, name=name or self.name)
        for request_id, record in self.records.items():
            if not predicate(record.request):
                continue
            sub.records[request_id] = record
            if record.first_token is not None:
                sub._prefilled_tokens += record.prefilled_tokens
                sub._useful_input_tokens += record.request.input_tokens
        sub._start_time = self._start_time
        sub._end_time = self._end_time
        return sub

    @property
    def finished_records(self) -> list[RequestRecord]:
        """Records of requests that emitted all their tokens."""
        return [r for r in self.records.values() if r.finished]

    def all_token_gaps(self) -> list[float]:
        """Every TBT sample across all requests, as a list of floats."""
        gaps: list[float] = []
        for record in self.records.values():
            gaps.extend(record.token_gaps)
        return gaps

    def ttft_values(self, finished_only: bool = False) -> list[float]:
        """TTFT samples (of requests that at least started decoding)."""
        records = self.finished_records if finished_only else self.records.values()
        return [r.ttft for r in records if r.first_token is not None]

    def summarize(self) -> Summary:
        """Aggregate all records into a :class:`Summary`."""
        finished = self.finished_records
        ttfts = self.ttft_values()
        gaps = self.all_token_gaps()
        tpots = [r.tpot for r in finished if not math.isnan(r.tpot)]
        e2es = [r.e2e for r in finished]
        elapsed = 0.0
        if self._start_time is not None and self._end_time is not None:
            elapsed = max(1e-9, self._end_time - self._start_time)
        output_tokens = sum(r.tokens_emitted for r in self.records.values())
        total_tokens = output_tokens + self._prefilled_tokens
        useful_tokens = output_tokens + self._useful_input_tokens
        # Sort each multi-percentile sample list once; means stay over the
        # *original* order (float addition is not associative, and these
        # numbers are fingerprinted byte-for-byte).
        isnan = math.isnan
        ordered_gaps = sorted([g for g in gaps if not isnan(g)])
        ordered_ttfts = sorted([t for t in ttfts if not isnan(t)])
        tbt_p99 = _percentile_of_sorted(ordered_gaps, 99.0)
        # A run with no decode gaps (every request emitted a single output
        # token) never violated the TBT SLO: attainment is vacuously 1.0
        # and the SLO is met, not failed.  NaN gaps (none in practice) would
        # sort out of ``ordered_gaps`` but stay in the denominator, exactly
        # like the original ``g <= tbt`` scan that counted them as misses.
        attainment = (
            bisect_right(ordered_gaps, self.slo.tbt) / len(gaps) if gaps else 1.0
        )
        return Summary(
            name=self.name,
            requests_total=len(self.records),
            requests_finished=len(finished),
            ttft_avg=_mean(ttfts),
            ttft_p50=_percentile_of_sorted(ordered_ttfts, 50.0),
            ttft_p99=_percentile_of_sorted(ordered_ttfts, 99.0),
            tbt_avg=_mean(gaps),
            tbt_p50=_percentile_of_sorted(ordered_gaps, 50.0),
            tbt_p99=tbt_p99,
            tpot_avg=_mean(tpots),
            tpot_p50=percentile(tpots, 50.0),
            e2e_avg=_mean(e2es),
            e2e_p50=percentile(e2es, 50.0),
            token_throughput=total_tokens / elapsed if elapsed else 0.0,
            useful_throughput=useful_tokens / elapsed if elapsed else 0.0,
            output_throughput=output_tokens / elapsed if elapsed else 0.0,
            tbt_attainment=attainment,
            slo_met=tbt_p99 <= self.slo.tbt if gaps else True,
        )


def merge_collectors(
    collectors: Iterable[MetricsCollector], slo: SLO, name: str = "fleet"
) -> MetricsCollector:
    """Union several collectors into one (fleet-level aggregation).

    Request ids are globally unique, so the merged record set is the plain
    union; throughput counters add and the observation window spans the
    earliest start to the latest end.  Summarising the merged collector
    computes fleet percentiles over the *pooled* per-request samples — the
    same numbers a single collector would have produced had it observed
    every replica's events directly.
    """
    merged = MetricsCollector(slo, name=name)
    for collector in collectors:
        overlap = merged.records.keys() & collector.records.keys()
        if overlap:
            raise ValueError(f"request ids recorded on two replicas: {sorted(overlap)[:5]}")
        merged.records.update(collector.records)
        merged._prefilled_tokens += collector._prefilled_tokens
        merged._useful_input_tokens += collector._useful_input_tokens
        for bound, pick in (("_start_time", min), ("_end_time", max)):
            theirs = getattr(collector, bound)
            if theirs is None:
                continue
            ours = getattr(merged, bound)
            setattr(merged, bound, theirs if ours is None else pick(ours, theirs))
    return merged


def _mean(values: list[float]) -> float:
    if not values:
        return math.nan
    return sum(values) / len(values)
