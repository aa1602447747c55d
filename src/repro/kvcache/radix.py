"""Radix-tree prefix cache over the paged KV pool (SGLang-style).

Contexts are sequences of :class:`Segment` objects — a segment is a
contiguous run of tokens with a stable identity (a user message, a model
reply, a shared system prompt).  Multi-turn sessions grow linear chains of
segments; workloads with a shared system prompt branch below a common node.

The cache supports:

* ``match`` / ``acquire`` — longest-prefix lookup, pinning matched nodes
  against eviction (the reused context of the paper's Table 1);
* ``insert`` — append newly computed segments, allocating pool pages;
* ``extend`` — grow the tail segment as decode generates tokens, and
  ``extend_many`` — grow many leases' tails at once (a decode stretch);
* LRU eviction of unpinned subtrees when the pool runs out of pages.

Eviction never walks the tree.  Two incrementally maintained structures
answer its questions in O(log N) / O(1):

* a lazy-invalidation min-heap of victim candidates (unpinned leaves)
  keyed ``(last_access, -seq)`` — the least recently used leaf goes
  first and, among equal ``last_access``, the most recently inserted
  node (largest per-cache insertion sequence number) goes first;
* each node's ``subtree_refs`` (references held anywhere in its subtree)
  plus a running total of the pages of nodes whose subtree holds none —
  exactly the pages eviction could reclaim leaf-first.

Hit statistics feed the paper's Fig. 5 (hit rate vs. pool capacity).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.kvcache.pool import KVCachePool, PoolExhaustedError
from repro.trace.tracer import CAT_CACHE

if TYPE_CHECKING:
    from repro.sim.simulator import Simulator

_segment_uids = itertools.count()

#: The victim heap is compacted (stale entries filtered out) once it holds
#: more than ``HEAP_FACTOR * resident nodes + HEAP_SLACK`` entries, so runs
#: that release often but rarely evict keep it O(resident nodes).
HEAP_FACTOR = 2
HEAP_SLACK = 64


@dataclass(frozen=True)
class Segment:
    """A contiguous, identity-carrying run of context tokens."""

    uid: int
    tokens: int

    def __post_init__(self) -> None:
        if self.tokens < 0:
            raise ValueError("segment token count must be non-negative")


def new_segment(tokens: int) -> Segment:
    """Create a segment with a fresh globally unique identity."""
    return Segment(uid=next(_segment_uids), tokens=tokens)


class _Node:
    """One cached segment in the radix tree."""

    __slots__ = (
        "segment_uid",
        "tokens",
        "pages",
        "parent",
        "children",
        "ref_count",
        "last_access",
        "seq",
        "subtree_refs",
    )

    def __init__(
        self, segment_uid: int, tokens: int, pages: int, parent: "_Node | None", seq: int
    ) -> None:
        self.segment_uid = segment_uid
        self.tokens = tokens
        self.pages = pages
        #: None for the root and for dropped nodes (the victim heap's
        #: liveness test).
        self.parent = parent
        self.children: dict[int, _Node] = {}
        self.ref_count = 0
        self.last_access = 0.0
        #: Per-cache insertion sequence number (the LRU tie-break).
        self.seq = seq
        #: Sum of ``ref_count`` over this node's subtree, itself included;
        #: zero iff the whole subtree is reclaimable by eviction.
        self.subtree_refs = 0


def _is_candidate(node: _Node, last_access: float) -> bool:
    """True if a victim-heap entry stamped ``last_access`` is still live:
    its node is resident, unpinned, childless and not touched since."""
    return (
        node.ref_count == 0
        and not node.children
        and node.parent is not None
        and node.last_access == last_access
    )


class Lease:
    """A pinned path in the radix tree held by one in-flight request.

    While a lease holds nodes, they cannot be evicted.  The lease also owns
    the request's growing output segment.
    """

    def __init__(self, cache: "RadixCache", nodes: list[_Node]) -> None:
        self._cache = cache
        self._nodes = nodes
        self.released = False

    @property
    def cached_tokens(self) -> int:
        """Tokens covered by the pinned path (the reused context length)."""
        return sum(node.tokens for node in self._nodes)

    @property
    def depth(self) -> int:
        """Number of pinned segments."""
        return len(self._nodes)


@dataclass
class CacheStats:
    """Aggregate hit statistics for Fig. 5."""

    lookups: int = 0
    tokens_requested: int = 0
    tokens_hit: int = 0
    evicted_tokens: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Token-weighted cache hit rate."""
        if self.tokens_requested == 0:
            return 0.0
        return self.tokens_hit / self.tokens_requested


class RadixCache:
    """Prefix cache mapping segment paths onto pooled KV pages."""

    def __init__(
        self,
        pool: KVCachePool,
        enable_prefix_sharing: bool = True,
        sim: "Simulator | None" = None,
        name: str = "kvcache",
    ) -> None:
        self.pool = pool
        self.enable_prefix_sharing = enable_prefix_sharing
        self._root = _Node(segment_uid=-1, tokens=0, pages=0, parent=None, seq=0)
        self._clock = 0.0
        self._next_seq = 1
        #: Resident nodes (root excluded); sizes the victim-heap bound.
        self._node_count = 0
        #: Pages of nodes with ``subtree_refs == 0`` (see module docstring).
        self._evictable = 0
        #: ``(last_access, -seq, node)`` entries.  Every victim candidate
        #: (live, unpinned, childless, non-root node) has an entry carrying
        #: its current ``last_access``; entries that no longer describe a
        #: candidate are discarded when they reach the head.
        self._victims: list[tuple[float, int, _Node]] = []
        self.stats = CacheStats()
        #: The owning simulator, whose ``tracer`` is read at each emit
        #: (timestamps come from the LRU clock, which callers advance with
        #: :meth:`touch` before mutating the cache); None for a standalone
        #: cache, which is never traced.
        self.sim = sim
        self.trace_track = f"kvcache/{name}"
        #: Optional demotion hook, called as ``spill(path_uids, tokens,
        #: clock)`` for every node evicted *for capacity* (not for nodes
        #: dropped by ``release(keep_cached=False)``, which were never
        #: meant to be reusable).  Wired to
        #: :meth:`repro.kvcache.tiers.TieredKVStore.demote`; None (the
        #: default) keeps the eviction path byte-identical to the
        #: pre-tier code.
        self.spill: Callable[[tuple[int, ...], int, float], None] | None = None

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def touch(self, time: float) -> None:
        """Advance the LRU clock (call with the simulation time)."""
        if time > self._clock:
            self._clock = time

    def match(self, segments: list[Segment]) -> int:
        """Tokens of ``segments`` covered by the cached prefix (no pinning)."""
        if not self.enable_prefix_sharing:
            return 0
        node = self._root
        covered = 0
        for segment in segments:
            child = node.children.get(segment.uid)
            if child is None:
                break
            covered += child.tokens
            node = child
        return covered

    def match_chain(self, segments: list[Segment]) -> list[int]:
        """Per-node token counts along the longest cached prefix.

        ``match_chain(p) == [n1, n2]`` means the first two segments of
        ``p`` are cached, holding ``n1`` and ``n2`` tokens (the tail node
        may cover fewer tokens than its segment while decode is growing
        it).  No pinning, no statistics — this is the donor-side probe of
        the cross-replica transfer path.
        """
        if not self.enable_prefix_sharing:
            return []
        node = self._root
        chain: list[int] = []
        for segment in segments:
            child = node.children.get(segment.uid)
            if child is None:
                break
            chain.append(child.tokens)
            node = child
        return chain

    def match_depth(self, segments: list[Segment]) -> int:
        """Number of leading segments of ``segments`` cached here."""
        return len(self.match_chain(segments))

    def prefix_affinity(self, segments: list[Segment]) -> float:
        """Fraction of ``segments``' tokens already cached here (no pinning).

        Routing hook for cache-aware fleet policies: scores how much of a
        request's context this replica could reuse right now.  Unlike
        :meth:`acquire`, it records no statistics — a scoring pass over N
        replicas must not count as N-1 misses.
        """
        total = sum(segment.tokens for segment in segments)
        if total == 0:
            return 0.0
        return self.match(segments) / total

    def acquire(self, segments: list[Segment]) -> Lease:
        """Pin the longest cached prefix of ``segments`` and record stats."""
        requested = sum(s.tokens for s in segments)
        nodes: list[_Node] = []
        if self.enable_prefix_sharing:
            node = self._root
            for segment in segments:
                child = node.children.get(segment.uid)
                if child is None:
                    break
                nodes.append(child)
                node = child
        if nodes:
            clock = self._clock
            for node in nodes:
                node.last_access = clock
            self._pin(nodes[-1], len(nodes))
        lease = Lease(self, nodes)
        self.stats.lookups += 1
        self.stats.tokens_requested += requested
        self.stats.tokens_hit += lease.cached_tokens
        sim = self.sim
        if sim is not None and sim.tracer is not None:
            sim.tracer.instant(
                self.trace_track,
                "hit" if lease.cached_tokens else "miss",
                CAT_CACHE,
                self._clock,
                {"requested": requested, "hit": lease.cached_tokens},
            )
        return lease

    # ------------------------------------------------------------------ #
    # Growth
    # ------------------------------------------------------------------ #

    def insert(self, lease: Lease, segments: list[Segment]) -> None:
        """Append ``segments`` below the lease's pinned path.

        Allocates pool pages for every token, evicting LRU subtrees when
        necessary; raises :class:`PoolExhaustedError` if pinned data leaves
        no room.
        """
        if lease.released:
            raise ValueError("lease already released")
        parent = lease._nodes[-1] if lease._nodes else self._root
        for segment in segments:
            node = parent.children.get(segment.uid)
            if node is None:
                pages = self.pool.pages_for(segment.tokens)
                self._ensure_free_pages(pages)
                self.pool.allocate(segment.tokens)
                node = self._attach(parent, segment, pages)
            node.last_access = self._clock
            # Pinned before the next segment's eviction can run.
            self._pin(node, 1)
            lease._nodes.append(node)
            parent = node

    def extend(self, lease: Lease, tokens: int) -> None:
        """Grow the lease's tail segment by ``tokens`` decode outputs."""
        if lease.released:
            raise ValueError("lease already released")
        if not lease._nodes:
            raise ValueError("cannot extend an empty lease; insert first")
        if tokens < 0:
            raise ValueError("tokens must be non-negative")
        # The lease pins its tail, so growing it touches neither eviction
        # index (pinned pages are not evictable; pinned nodes not victims).
        tail = lease._nodes[-1]
        new_total = tail.tokens + tokens
        # Most decode steps stay within the tail's last page:
        # ceil(new_total / page) > pages  <=>  new_total > pages * page,
        # so the boundary test needs no division on the common path.
        if new_total > tail.pages * self.pool.page_tokens:
            extra_pages = self.pool.pages_for(new_total) - tail.pages
            self._ensure_free_pages(extra_pages)
            self.pool.allocate(extra_pages * self.pool.page_tokens)
            tail.pages += extra_pages
        tail.tokens = new_total
        tail.last_access = self._clock

    def extend_many(self, leases: list[Lease], tokens: int) -> None:
        """Grow every lease's tail by ``tokens``, all or nothing.

        The end state — pool pages, node tokens, pages and
        ``last_access``, the eviction victims and their order,
        :class:`CacheStats` — equals ``tokens`` rounds of
        ``extend(lease, 1)`` over ``leases`` in order, and this raises
        :class:`PoolExhaustedError`, mutating nothing, exactly when those
        rounds would raise.  The leases' tails must be distinct nodes (a
        running request's tail is its own output segment).

        Exactness: the tails are pinned, so their growth never changes
        the victim order or the evictable total, and eviction moves pages
        from evictable to free without changing their sum.  The rounds
        therefore succeed iff the total page demand fits in free plus
        evictable pages, and they evict the shortest LRU prefix of victims
        that covers that demand — which one ``_ensure_free_pages(total)``
        evicts too, in the same order.  Eviction stamps only the
        simulator's tracer and a ``spill`` hook with the cache clock;
        callers spanning several clock values must fall back to per-step
        extends when either is set.
        """
        if tokens < 0:
            raise ValueError("tokens must be non-negative")
        if tokens == 0:
            return  # zero rounds
        page = self.pool.page_tokens
        need = 0
        for lease in leases:
            if lease.released:
                raise ValueError("lease already released")
            nodes = lease._nodes
            if not nodes:
                raise ValueError("cannot extend an empty lease; insert first")
            tail = nodes[-1]
            new_total = tail.tokens + tokens
            if new_total > tail.pages * page:
                need += -(-new_total // page) - tail.pages
        if need:
            if need > self.pool.free_pages + self._evictable:
                raise PoolExhaustedError(
                    f"need {need} pages, {self.pool.free_pages} free and "
                    f"{self._evictable} evictable"
                )
            self._ensure_free_pages(need)
            self.pool.allocate(need * page)
        clock = self._clock
        for lease in leases:
            tail = lease._nodes[-1]
            new_total = tail.tokens + tokens
            if new_total > tail.pages * page:
                tail.pages = -(-new_total // page)
            tail.tokens = new_total
            tail.last_access = clock

    def extend_limit(self, leases: list[Lease], limit: int) -> int:
        """Largest ``k <= limit`` for which ``extend_many(leases, k)`` fits.

        The page demand of ``k`` tokens per lease grows with ``k`` and must
        stay within free plus evictable pages (see :meth:`extend_many`).
        """
        page = self.pool.page_tokens
        budget = self.pool.free_pages + self._evictable
        tails = [(lease._nodes[-1].tokens, lease._nodes[-1].pages) for lease in leases]

        def demand(k: int) -> int:
            need = 0
            for tokens, pages in tails:
                extra = -(-(tokens + k) // page) - pages
                if extra > 0:
                    need += extra
            return need

        if demand(limit) <= budget:
            return limit
        # demand(0) == 0 <= budget < demand(limit): bisect the boundary.
        low, high = 0, limit
        while high - low > 1:
            mid = (low + high) // 2
            if demand(mid) <= budget:
                low = mid
            else:
                high = mid
        return low

    def release(self, lease: Lease, keep_cached: bool = True) -> None:
        """Unpin the lease's path.

        With ``keep_cached=False`` (LoongServe-style, no cross-request
        reuse) the unpinned tail segments are freed immediately.
        """
        if lease.released:
            return
        lease.released = True
        nodes = lease._nodes
        if nodes:
            clock = self._clock
            for node in nodes:
                node.last_access = clock
            self._unpin(nodes[-1], len(nodes))
        if not keep_cached:
            for node in reversed(lease._nodes):
                if node.ref_count == 0 and not node.children:
                    self._drop(node)

    # ------------------------------------------------------------------ #
    # Eviction
    # ------------------------------------------------------------------ #

    def evictable_pages(self) -> int:
        """Pages reclaimable by eviction (whole subtrees with no pins)."""
        return self._evictable

    def can_fit(self, tokens: int) -> bool:
        """True if ``tokens`` can be stored, evicting unpinned data if needed."""
        needed = self.pool.pages_for(tokens)
        return needed <= self.pool.free_pages + self._evictable

    def can_fit_path(self, segments: list[Segment]) -> bool:
        """True if inserting ``segments`` (full context path) cannot fail.

        The segment-aware twin of :meth:`can_fit`, mirroring what
        acquire+insert will actually do: segments already cached cost
        nothing but become *pinned* (so their pages stop being evictable),
        and each missing segment pays its own page ceiling (the sum of
        per-segment ceilings, not one ceiling over the total).
        """
        node = self._root
        # The cached prefix chain (root-down, so each node's subtree holds
        # the rest of the chain) stops being reclaimable once pinned.
        chain_evictable = 0
        index = 0
        for segment in segments:
            child = node.children.get(segment.uid)
            if child is None:
                break
            if child.subtree_refs == 0:
                chain_evictable += child.pages
            node = child
            index += 1
        needed = sum(self.pool.pages_for(s.tokens) for s in segments[index:])
        return needed <= self.pool.free_pages + self._evictable - chain_evictable

    def seed(self, segments: list[Segment], require_cached: int = 0) -> int:
        """Insert ``segments`` without a lease, pinning nothing.

        The promotion path of the tier store: restored segments re-enter
        the tree as ordinary unpinned cached data.  The first
        ``require_cached`` segments must already be cached — they are the
        HBM anchor the fetch was planned against; if any is missing
        (evicted while the fetch was in flight) seeding stops rather than
        attach segments below a hole.  Stops early (returning what was
        added so far) if the pool cannot fit a segment even after
        eviction.  Returns the number of newly added tokens.
        """
        node = self._root
        added = 0
        for index, segment in enumerate(segments):
            child = node.children.get(segment.uid)
            if child is not None:
                child.last_access = self._clock
                if child.ref_count == 0 and not child.children:
                    self._push_victim(child)
                node = child
                continue
            if index < require_cached:
                return added
            pages = self.pool.pages_for(segment.tokens)
            # Guard-pin the attach parent: eviction inside
            # _ensure_free_pages must not pick a just-seeded, still
            # unpinned ancestor while making room for its child.
            self._pin(node, 1)
            try:
                self._ensure_free_pages(pages)
            except PoolExhaustedError:
                return added
            finally:
                self._unpin(node, 1)
            self.pool.allocate(segment.tokens)
            node = self._attach(node, segment, pages)
            node.last_access = self._clock
            self._push_victim(node)
            added += segment.tokens
        return added

    def evict_path(self, segments: list[Segment]) -> int:
        """Drop the cached tail of ``segments`` without spilling (migrate).

        Used when a cross-replica transfer *moves* a prefix: the donor
        frees its copy deepest-first, stopping at the first pinned or
        branching node.  Returns the number of tokens dropped.
        """
        node = self._root
        chain: list[_Node] = []
        for segment in segments:
            child = node.children.get(segment.uid)
            if child is None:
                break
            chain.append(child)
            node = child
        dropped = 0
        for victim in reversed(chain):
            if victim.ref_count > 0 or victim.children:
                break
            self._drop(victim)
            dropped += victim.tokens
        return dropped

    def _ensure_free_pages(self, pages: int) -> None:
        spill = self.spill
        while self.pool.free_pages < pages:
            victim = self._pick_victim()
            if victim is None:
                raise PoolExhaustedError(
                    f"need {pages} pages, {self.pool.free_pages} free and "
                    "nothing evictable"
                )
            if spill is not None:
                key: list[int] = []
                node = victim
                while node.parent is not None:
                    key.append(node.segment_uid)
                    node = node.parent
                key.reverse()
                spill(tuple(key), victim.tokens, self._clock)
            self._drop(victim)
            self.stats.evictions += 1
            self.stats.evicted_tokens += victim.tokens
            sim = self.sim
            if sim is not None and sim.tracer is not None:
                sim.tracer.instant(
                    self.trace_track,
                    "evict",
                    CAT_CACHE,
                    self._clock,
                    {"tokens": victim.tokens, "pages": victim.pages},
                )

    def _pick_victim(self) -> _Node | None:
        """The next eviction victim (peek; the caller drops it), or None.

        The least recently used unpinned leaf; among equal
        ``last_access`` the most recently inserted one.
        """
        heap = self._victims
        while heap:
            last_access, _, node = heap[0]
            if _is_candidate(node, last_access):
                return node
            heapq.heappop(heap)
        return None

    def _push_victim(self, node: _Node) -> None:
        """Record that ``node`` is a candidate with its current ``last_access``."""
        if node.parent is None:
            return  # the root is never evicted
        heapq.heappush(self._victims, (node.last_access, -node.seq, node))
        self._bound_victims()

    def _bound_victims(self) -> None:
        """Keep one entry per candidate once the heap outgrows its bound."""
        heap = self._victims
        if len(heap) <= HEAP_FACTOR * self._node_count + HEAP_SLACK:
            return
        seen: set[int] = set()
        live = []
        for entry in heap:
            last_access, _, node = entry
            if _is_candidate(node, last_access) and node.seq not in seen:
                seen.add(node.seq)
                live.append(entry)
        heapq.heapify(live)
        heap[:] = live

    def _attach(self, parent: _Node, segment: Segment, pages: int) -> _Node:
        """Create an unreferenced node for ``segment`` below ``parent``."""
        node = _Node(segment.uid, segment.tokens, pages, parent, self._next_seq)
        self._next_seq += 1
        parent.children[segment.uid] = node
        self._node_count += 1
        self._evictable += pages
        return node

    def _pin(self, tail: _Node, count: int) -> None:
        """Add a reference to ``tail`` and its ``count - 1`` nearest ancestors.

        One tail-to-root pass: each node's ``subtree_refs`` grows by the
        number of new references at or below it, and a node whose subtree
        becomes referenced leaves the evictable total.
        """
        node: _Node | None = tail
        carry = 0
        while node is not None:
            if carry < count:
                node.ref_count += 1
                carry += 1
            if node.subtree_refs == 0:
                self._evictable -= node.pages
            node.subtree_refs += carry
            node = node.parent

    def _unpin(self, tail: _Node, count: int) -> None:
        """Inverse of :meth:`_pin`; unreferenced leaves become candidates."""
        node: _Node | None = tail
        carry = 0
        while node is not None:
            if carry < count:
                node.ref_count -= 1
                carry += 1
                if node.ref_count == 0 and not node.children:
                    self._push_victim(node)
            node.subtree_refs -= carry
            if node.subtree_refs == 0:
                self._evictable += node.pages
            node = node.parent

    def _drop(self, node: _Node) -> None:
        """Free an unreferenced leaf (always in the evictable total)."""
        parent = node.parent
        del parent.children[node.segment_uid]
        node.parent = None
        self.pool.release_pages(node.pages)
        self._node_count -= 1
        self._evictable -= node.pages
        if parent.ref_count == 0 and not parent.children:
            self._push_victim(parent)
        else:
            self._bound_victims()  # the bound shrank with the node count

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def cached_tokens(self) -> int:
        """Total tokens resident in the cache (pinned and unpinned)."""
        return sum(node.tokens for node in self._iter_nodes())

    def _iter_nodes(self):
        stack = list(self._root.children.values())
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())
