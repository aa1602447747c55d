"""The radix cache's eviction indexes against O(N) reference oracles.

:class:`RadixCache` picks eviction victims from a lazy-invalidation heap
and answers ``evictable_pages``/``can_fit``/``can_fit_path`` from
incrementally maintained subtree reference counts.  The full-tree scans
they replaced live on here as references, and a Hypothesis state machine
drives every mutating entry point and compares after each step.
"""

from __future__ import annotations

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.baselines import ChunkedPrefillServer
from repro.bench.runner import run_capped
from repro.gpu.specs import A100
from repro.kvcache import KVCachePool, PoolExhaustedError, RadixCache, Segment, new_segment
from repro.kvcache.radix import HEAP_FACTOR, HEAP_SLACK
from repro.models.config import LLAMA_8B
from repro.serving.base import iter_instances
from repro.serving.config import ServingConfig
from repro.sim import make_sim
from repro.workloads import sharegpt_workload

# --------------------------------------------------------------------- #
# Reference oracles (full-tree scans)
# --------------------------------------------------------------------- #


def reference_victim(cache: RadixCache):
    """The documented policy by exhaustive scan: least recently used
    unpinned leaf, most recently inserted among equal ``last_access``."""
    best = None
    for node in cache._iter_nodes():
        if node.ref_count > 0 or node.children:
            continue
        if best is None or (node.last_access, -node.seq) < (best.last_access, -best.seq):
            best = node
    return best


def dfs_victim(cache: RadixCache):
    """The pre-index picker: first minimum in stack-DFS order."""
    best = None
    for node in cache._iter_nodes():
        if node.ref_count > 0 or node.children:
            continue
        if best is None or node.last_access < best.last_access:
            best = node
    return best


def reference_evictable_pages(cache: RadixCache, extra_pinned=()) -> int:
    """Pages in subtrees with no pinned node, ``extra_pinned`` counted as pinned."""
    pinned = {id(node) for node in extra_pinned}
    total = 0

    def walk(node) -> bool:
        nonlocal total
        free = node.ref_count == 0 and id(node) not in pinned
        for child in node.children.values():
            free = walk(child) and free
        if free:
            total += node.pages
        return free

    for child in cache._root.children.values():
        walk(child)
    return total


def reference_can_fit_path(cache: RadixCache, segments: list[Segment]) -> bool:
    node = cache._root
    chain = []
    for segment in segments:
        child = node.children.get(segment.uid)
        if child is None:
            break
        chain.append(child)
        node = child
    needed = sum(cache.pool.pages_for(s.tokens) for s in segments[len(chain) :])
    free = cache.pool.free_pages
    return needed <= free or needed <= free + reference_evictable_pages(cache, chain)


def make_cache(capacity_pages: int) -> RadixCache:
    pool = KVCachePool(capacity_pages * 4 * 1.0, kv_bytes_per_token=1.0, page_tokens=4)
    return RadixCache(pool)


# --------------------------------------------------------------------- #
# Stateful suite
# --------------------------------------------------------------------- #

TOKENS = st.integers(min_value=0, max_value=24)


class RadixMachine(RuleBasedStateMachine):
    """Random acquire/insert/extend/release/seed/evict_path/touch traffic
    over a small pool, so eviction runs often and ties are common (the
    clock only moves on ``touch``)."""

    def __init__(self) -> None:
        super().__init__()
        self.cache = make_cache(capacity_pages=24)
        self.spilled: list[tuple[tuple[int, ...], int, float]] = []
        self.cache.spill = lambda key, tokens, clock: self.spilled.append((key, tokens, clock))
        #: Context paths seen so far: new paths branch off their prefixes.
        self.paths: list[list[Segment]] = []
        #: (lease, path) for leases not yet released.
        self.leases: list[tuple] = []
        self.clock = 0.0

    def _path(self, data, extend: bool) -> list[Segment]:
        base: list[Segment] = []
        if self.paths and data.draw(st.booleans()):
            base = data.draw(st.sampled_from(self.paths))
            base = base[: data.draw(st.integers(min_value=0, max_value=len(base)))]
        if extend or not base:
            fresh = data.draw(st.lists(TOKENS, min_size=1, max_size=3))
            base = base + [new_segment(tokens) for tokens in fresh]
            self.paths.append(base)
        return base

    @rule(data=st.data(), insert=st.booleans())
    def acquire(self, data, insert):
        path = self._path(data, extend=data.draw(st.booleans()))
        fits = self.cache.can_fit_path(path)
        lease = self.cache.acquire(path)
        self.leases.append((lease, path))
        if insert:
            if fits:
                # The can_fit_path promise: a True answer never fails.
                self.cache.insert(lease, path[lease.depth :])
            else:
                try:
                    self.cache.insert(lease, path[lease.depth :])
                except PoolExhaustedError:
                    pass

    @precondition(lambda self: self.leases)
    @rule(data=st.data())
    def insert_more(self, data):
        lease, path = data.draw(st.sampled_from(self.leases))
        extra = [new_segment(tokens) for tokens in data.draw(st.lists(TOKENS, max_size=2))]
        try:
            self.cache.insert(lease, extra)
        except PoolExhaustedError:
            pass

    @precondition(lambda self: any(lease.depth for lease, _ in self.leases))
    @rule(data=st.data(), tokens=st.integers(min_value=0, max_value=20))
    def extend(self, data, tokens):
        lease, _ = data.draw(st.sampled_from([pair for pair in self.leases if pair[0].depth]))
        try:
            self.cache.extend(lease, tokens)
        except PoolExhaustedError:
            pass

    @precondition(lambda self: self.leases)
    @rule(data=st.data(), keep_cached=st.booleans())
    def release(self, data, keep_cached):
        index = data.draw(st.integers(min_value=0, max_value=len(self.leases) - 1))
        lease, _ = self.leases.pop(index)
        self.cache.release(lease, keep_cached=keep_cached)

    @rule(data=st.data())
    def seed(self, data):
        path = self._path(data, extend=data.draw(st.booleans()))
        require = data.draw(st.integers(min_value=0, max_value=len(path)))
        added = self.cache.seed(path, require_cached=require)
        assert 0 <= added <= sum(segment.tokens for segment in path)

    @precondition(lambda self: self.paths)
    @rule(data=st.data())
    def evict_path(self, data):
        path = data.draw(st.sampled_from(self.paths))
        evictions = self.cache.stats.evictions
        self.cache.evict_path(path)
        assert self.cache.stats.evictions == evictions  # migration is not eviction

    @rule(dt=st.sampled_from([0.0, 0.0, 0.5, 1.0]))
    def touch(self, dt):
        self.clock += dt
        self.cache.touch(self.clock)

    # ------------------------------------------------------------------ #

    @invariant()
    def victim_matches_reference(self):
        victim = self.cache._pick_victim()
        assert victim is reference_victim(self.cache)
        # Only the tie-break differs from the old DFS picker.
        old = dfs_victim(self.cache)
        assert (victim is None) == (old is None)
        if victim is not None:
            assert victim.last_access == old.last_access

    @invariant()
    def evictable_pages_match_reference(self):
        expected = reference_evictable_pages(self.cache)
        assert self.cache.evictable_pages() == expected
        for tokens in (1, 17, 60):
            assert self.cache.can_fit(tokens) == (
                self.cache.pool.pages_for(tokens) <= self.cache.pool.free_pages + expected
            )
        for path in self.paths[-8:]:
            assert self.cache.can_fit_path(path) == reference_can_fit_path(self.cache, path)

    @invariant()
    def structure_is_conserved(self):
        nodes = list(self.cache._iter_nodes())
        assert self.cache._node_count == len(nodes)
        assert self.cache.pool.used_pages == sum(node.pages for node in nodes)
        assert len(self.cache._victims) <= HEAP_FACTOR * len(nodes) + HEAP_SLACK
        assert len(self.spilled) == self.cache.stats.evictions
        assert sum(tokens for _, tokens, _ in self.spilled) == self.cache.stats.evicted_tokens


TestRadixMachine = RadixMachine.TestCase
TestRadixMachine.settings = settings(
    max_examples=60,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestVictimHeapBound:
    def test_release_churn_without_eviction_stays_bounded(self):
        cache = make_cache(capacity_pages=1000)
        path = [new_segment(8), new_segment(8)]
        lease = cache.acquire(path)
        cache.insert(lease, path)
        cache.release(lease)
        for step in range(5000):
            cache.touch(float(step))
            cache.release(cache.acquire(path))
        assert cache.stats.evictions == 0
        assert len(cache._victims) <= HEAP_FACTOR * cache._node_count + HEAP_SLACK

    def test_equal_last_access_evicts_newest_insert_first(self):
        cache = make_cache(capacity_pages=6)
        a, b = new_segment(8), new_segment(8)
        for seg in (a, b):
            lease = cache.acquire([seg])
            cache.insert(lease, [seg])
            cache.release(lease)
        child = new_segment(8)
        lease = cache.acquire([a, child])
        cache.insert(lease, [child])
        cache.release(lease)
        # Leaves b and a/child tie on last_access; child was inserted last.
        # (Stack-DFS order would have picked b: root children pop newest
        # first.)
        assert cache._pick_victim().segment_uid == child.uid
        assert dfs_victim(cache).segment_uid == b.uid


class TestNoTreeWalkOnHotPath:
    def test_serving_run_with_evictions_never_walks_the_tree(self, monkeypatch):
        """Insert, extend, fit checks and eviction are all O(depth)/O(log N):
        a run that evicts must never call the full-tree iterator."""
        def walk(self):
            raise AssertionError("full-tree walk on the serving hot path")

        monkeypatch.setattr(RadixCache, "_iter_nodes", walk)
        # A pool of ~8k tokens (LLaMA-8B KV is 128 KiB/token) for ~20k
        # tokens of traffic.
        cfg = ServingConfig(model=LLAMA_8B, spec=A100, n_gpus=1, kv_pool_limit_bytes=8000 * 2**17)
        sim = make_sim()
        system = ChunkedPrefillServer(sim, cfg, token_budget=256)
        workload = sharegpt_workload(40, 6.0, seed=0)
        system.submit(workload)
        run_capped(sim, workload.requests[-1].arrival_time + 3600.0)
        assert system.metrics.summarize().requests_finished == 40
        assert sum(inst.cache.stats.evictions for inst in iter_instances(system)) > 0


class TestVictimIndexEdges:
    def test_parent_left_childless_becomes_the_next_victim(self):
        cache = make_cache(capacity_pages=8)
        parent, child = new_segment(8), new_segment(8)
        lease = cache.acquire([parent, child])
        cache.insert(lease, [parent, child])
        cache.release(lease)
        cache.touch(1.0)
        other = new_segment(8)
        lease = cache.acquire([other])
        cache.insert(lease, [other])
        cache.release(lease)
        assert cache._pick_victim().segment_uid == child.uid
        cache._drop(cache._pick_victim())
        assert cache._pick_victim().segment_uid == parent.uid

    def test_seed_guard_pin_is_re_armed_after_failed_eviction(self):
        cache = make_cache(capacity_pages=2)
        anchor = new_segment(8)
        assert cache.seed([anchor]) == 8
        # The anchor fills the pool; seeding a child below it must not
        # evict the (guard-pinned) anchor, and fails instead ...
        assert cache.seed([anchor, new_segment(4)]) == 0
        # ... after which the anchor is an ordinary candidate again.
        assert cache._pick_victim() is reference_victim(cache)
        assert cache._pick_victim().segment_uid == anchor.uid

    def test_can_fit_path_discounts_the_chain_it_will_pin(self):
        cache = make_cache(capacity_pages=4)
        anchor = new_segment(8)  # 2 pages, unpinned
        cache.seed([anchor])
        assert cache.evictable_pages() == 2
        # Inserting 3 pages below the anchor pins it: only 2 free pages.
        assert not cache.can_fit_path([anchor, new_segment(12)])
        # Elsewhere the anchor is evictable: 2 free + 2 evictable.
        assert cache.can_fit_path([new_segment(12)])
