"""``MetricsCollector.on_batch_tokens`` against per-token ``on_tokens_record``.

The decode fast loop records a whole stretch of decode iterations' tokens
in one ``on_batch_tokens(records, times)`` call.  Its contract is the slow
reference it replaces: ``on_tokens_record(record, t)`` for every time in
order and, within each, every record in batch order.  Two collectors are
fed the same drawn history and then one stretch each way; every gap must
agree bit for bit, as must ``tokens_emitted``, ``last_token``, the
collector's ``_end_time`` and the sink stream.

The example budget comes from the Hypothesis profile (``ci-deep`` runs
ten times the default).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.sinks import ListSink
from repro.kvcache import new_segment
from repro.serving import SLO, MetricsCollector
from repro.workloads import Request

#: Clock increments: exact ties, tiny and awkward binary fractions.
STEPS = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-9, max_value=0.2, allow_nan=False, allow_infinity=False),
)


@st.composite
def stretches(draw):
    """Per-request (arrival, prefill delay, earlier gaps) and stretch times."""
    requests = draw(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
                STEPS,
                st.lists(STEPS, max_size=4),
            ),
            max_size=5,
        )
    )
    start = draw(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
    times = [start]
    for step in draw(st.lists(STEPS, max_size=9)):
        times.append(times[-1] + step)
    # A request finished elsewhere may have pushed the collector's end
    # time past the stretch.
    late = draw(st.one_of(st.none(), st.floats(min_value=0.0, max_value=20.0)))
    return requests, times, late


def _collector(requests, late):
    """A collector whose records sit at the stretch's starting line."""
    sink = ListSink()
    metrics = MetricsCollector(SLO(tbt=0.05), sink=sink)
    records = []
    for arrival, delay, earlier in requests:
        request = Request(
            session_id=len(records),
            turn_index=0,
            arrival_time=arrival,
            history=[],
            new_input=new_segment(16),
            output_tokens=1000,
        )
        metrics.on_arrival(request, arrival)
        now = arrival + delay
        metrics.on_prefill_done(request, now, 16)
        for step in earlier:
            now += step
            metrics.on_tokens(request, now)
        records.append(metrics.records[request.request_id])
    if late is not None:
        metrics._end_time = late if metrics._end_time is None else max(late, metrics._end_time)
    return metrics, sink, records


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def _stream(sink: ListSink) -> list[tuple]:
    return [(r["req"], r["ts"].hex(), _bits(r["gaps"])) for r in sink.records]


@settings(deadline=None)
@given(case=stretches())
def test_on_batch_tokens_matches_per_token_calls(case):
    requests, times, late = case
    # Stretches only start once every request is past its last token.
    last = max(
        [arrival + delay + sum(earlier) for arrival, delay, earlier in requests],
        default=0.0,
    )
    times = [t + last for t in times]

    scalar, scalar_sink, scalar_records = _collector(requests, late)
    batched, batched_sink, batched_records = _collector(requests, late)
    for time in times:
        for record in scalar_records:
            scalar.on_tokens_record(record, time)
    batched.on_batch_tokens(batched_records, times)

    for ours, theirs in zip(batched_records, scalar_records):
        assert _bits(ours.token_gaps) == _bits(theirs.token_gaps)
        assert ours.tokens_emitted == theirs.tokens_emitted
        assert ours.last_token.hex() == theirs.last_token.hex()
    assert batched._end_time == scalar._end_time
    assert _stream(batched_sink) == _stream(scalar_sink)
    # The sink payload stays plain JSON: gaps are lists of floats.
    assert all(type(r["gaps"]) is list for r in batched_sink.records)
