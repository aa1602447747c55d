"""``RadixCache.extend_many`` against per-lease ``extend`` rounds.

The decode fast loop grows a whole stretch of decode iterations' KV in one
``extend_many(leases, k)`` call.  Its contract is the slow reference it
replaces: ``k`` rounds of ``extend(lease, 1)`` over the leases in batch
order.  Two caches are built from the same drawn program — cached paths
released at assorted clocks so eviction has an LRU order with ties, then
leases each ending in their own fresh tail — and one gets the rounds, the
other the batched call.  Pool pages, every node's tokens, pages, pins and
``last_access``, the eviction victims in order, ``evictable_pages()`` and
``CacheStats`` must agree; the batched call must refuse (leaving its cache
untouched) exactly when a round would raise :class:`PoolExhaustedError`.

The example budget comes from the Hypothesis profile (``ci-deep`` runs
ten times the default).
"""

from __future__ import annotations

from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvcache import KVCachePool, PoolExhaustedError, RadixCache, new_segment

TOKENS = st.integers(min_value=0, max_value=20)


@st.composite
def programs(draw):
    """Everything a pair of identical caches is built from, pre-drawn."""
    page_tokens = draw(st.integers(min_value=1, max_value=6))
    capacity = draw(st.integers(min_value=2, max_value=40))
    cached = draw(
        st.lists(
            st.tuples(
                st.lists(TOKENS, min_size=1, max_size=3),
                st.sampled_from([0.0, 0.0, 0.5, 1.0]),
            ),
            max_size=6,
        )
    )
    leases = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=-1, max_value=5),  # cached path to extend, -1: none
                TOKENS,  # tail tokens already decoded
            ),
            min_size=1,
            max_size=5,
        )
    )
    steps = draw(st.integers(min_value=0, max_value=12))
    return page_tokens, capacity, cached, leases, steps


class _Built:
    """One cache built from a program, with a victim log."""

    def __init__(self, program, segments) -> None:
        page_tokens, capacity, cached, leases, _ = program
        cached_paths, tails = segments
        pool = KVCachePool(capacity * page_tokens * 1.0, kv_bytes_per_token=1.0, page_tokens=page_tokens)
        self.cache = RadixCache(pool)
        self.victims: list[tuple] = []
        self.cache.spill = lambda key, tokens, clock: self.victims.append((key, tokens, clock))
        clock = 0.0
        for path, (_, dt) in zip(cached_paths, cached):
            clock += dt
            self.cache.touch(clock)
            lease = self.cache.acquire(path)
            try:
                self.cache.insert(lease, path[lease.depth :])
            except PoolExhaustedError:
                pass
            self.cache.release(lease)
        self.leases = []
        for (base, _), tail in zip(leases, tails):
            prefix = cached_paths[base] if 0 <= base < len(cached_paths) else []
            path = [*prefix, tail]
            lease = self.cache.acquire(path)
            try:
                self.cache.insert(lease, path[lease.depth :])
            except PoolExhaustedError:
                self.cache.release(lease)
                continue
            self.leases.append(lease)
        self.cache.touch(clock + 1.0)

    def snapshot(self) -> dict:
        nodes = {}
        stack = [((), self.cache._root)]
        while stack:
            key, node = stack.pop()
            for uid, child in node.children.items():
                path = (*key, uid)
                nodes[path] = (
                    child.tokens,
                    child.pages,
                    child.last_access,
                    child.ref_count,
                    child.subtree_refs,
                )
                stack.append((path, child))
        return {
            "used_pages": self.cache.pool.used_pages,
            "nodes": nodes,
            "victims": list(self.victims),
            "evictable": self.cache.evictable_pages(),
            "stats": asdict(self.cache.stats),
        }


def _segments(program):
    _, _, cached, leases, _ = program
    paths = [[new_segment(tokens) for tokens in path] for path, _ in cached]
    return paths, [new_segment(tokens) for _, tokens in leases]


@settings(deadline=None)
@given(program=programs())
def test_extend_many_matches_sequential_rounds(program):
    steps = program[4]
    segments = _segments(program)
    rounds = _Built(program, segments)
    batched = _Built(program, segments)
    assert rounds.snapshot() == batched.snapshot()
    before = batched.snapshot()

    completed = 0
    refused = False
    try:
        for _ in range(steps):
            for lease in rounds.leases:
                rounds.cache.extend(lease, 1)
            completed += 1
    except PoolExhaustedError:
        refused = True

    limit = batched.cache.extend_limit(batched.leases, steps)
    try:
        batched.cache.extend_many(batched.leases, steps)
    except PoolExhaustedError:
        assert refused
        # All or nothing: a refusal mutates nothing.
        assert batched.snapshot() == before
    else:
        assert not refused
        assert batched.snapshot() == rounds.snapshot()
    # The stretch cap: exactly the rounds that complete without raising.
    assert limit == completed

