"""GPU → DRAM → NVMe KV-cache tier hierarchy (per replica).

The radix cache (:mod:`repro.kvcache.radix`) lives in HBM and historically
*dropped* pages on LRU eviction — every evicted prefix had to be recomputed
on its next use, and a replica kill destroyed every prefix it ever held.
This module adds the lower tiers of the memory hierarchy the llmserve /
Mooncake designs use:

* **Demotion** — the radix cache's capacity-eviction path spills the victim
  node's KV (keyed by its full segment-uid path) into the first tier
  instead of discarding it; a full tier cascades its own LRU entry down to
  the next tier, and the last tier's overflow is finally dropped.
* **Promotion** — before a request is handed to the scheduler, the serving
  system probes the store for a cached continuation of the request's
  context beyond what HBM already covers and, on a hit, pays a modelled
  fetch delay (per-tier latency + tokens / read bandwidth) before seeding
  the restored segments back into the radix cache.
* **Failover restore** — the store belongs to the *replica slot*, not the
  serving-system generation: a kill destroys HBM but the DRAM/NVMe tiers
  survive, so the restarted system promotes surviving prefixes instead of
  recomputing them.  Promotions after a kill are additionally counted as
  ``restored_tokens`` for the failover ledger.

Byte-identity invariant: with ``ServingConfig.kv_tiers is None`` no store
is ever constructed, the radix cache's ``spill`` hook stays ``None``, and
the arrival path schedules no extra events — untiered runs are
byte-identical to the pre-tier stack (pinned by ``BENCH_perf.json``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.kvcache.radix import Segment
from repro.trace.tracer import CAT_KV_XFER

if TYPE_CHECKING:
    from repro.sim.simulator import Simulator

#: Path key of one demoted radix node: the segment uids from the root down
#: to (and including) the node.  Prefix-closed by construction, so a chain
#: of demoted ancestors/descendants can be re-assembled tier-side.
PathKey = tuple[int, ...]


@dataclass(frozen=True)
class TierSpec:
    """Capacity and speed of one tier below HBM.

    Attributes:
        name: Tier name (``"dram"``, ``"nvme"``, ...), unique per config.
        capacity_bytes: KV bytes the tier can hold.
        read_bandwidth: Promotion (tier → HBM) bandwidth, bytes/s.
        write_bandwidth: Demotion (HBM → tier) bandwidth, bytes/s.  The
            simulator treats demotion as asynchronous (write-behind), so
            this is recorded for reporting but adds no event latency.
        latency: Per-access setup latency for a promotion, seconds.
    """

    name: str
    capacity_bytes: float
    read_bandwidth: float
    write_bandwidth: float
    latency: float

    def __post_init__(self) -> None:
        if self.capacity_bytes < 0:
            raise ValueError("capacity_bytes must be non-negative")
        if self.read_bandwidth <= 0 or self.write_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        if self.latency < 0:
            raise ValueError("latency must be non-negative")


#: Host-DRAM tier: PCIe gen4 x16-class bandwidth, microsecond setup.
DRAM_TIER = TierSpec(
    name="dram",
    capacity_bytes=64 * 2**30,
    read_bandwidth=25e9,
    write_bandwidth=25e9,
    latency=100e-6,
)

#: Local-NVMe tier: datacenter SSD bandwidth, millisecond setup.
NVME_TIER = TierSpec(
    name="nvme",
    capacity_bytes=1024 * 2**30,
    read_bandwidth=7e9,
    write_bandwidth=3e9,
    latency=1.2e-3,
)


@dataclass(frozen=True)
class KVTierConfig:
    """Ordered tier hierarchy below the HBM radix cache.

    ``tiers[0]`` receives demotions from HBM; each tier's own overflow
    cascades to the next; the last tier's overflow is dropped.
    """

    tiers: tuple[TierSpec, ...] = (DRAM_TIER, NVME_TIER)
    #: Minimum continuation tokens worth paying a fetch for; smaller hits
    #: are cheaper to recompute than to page in.
    min_promote_tokens: int = 1

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ValueError("at least one tier is required")
        names = [t.name for t in self.tiers]
        if len(set(names)) != len(names):
            raise ValueError(f"tier names must be unique, got {names}")
        if self.min_promote_tokens < 1:
            raise ValueError("min_promote_tokens must be >= 1")


def default_tier_config() -> KVTierConfig:
    """The canonical DRAM → NVMe hierarchy."""
    return KVTierConfig()


@dataclass
class TierStats:
    """Aggregate tier-traffic counters (the restored-vs-recomputed ledger)."""

    demotions: int = 0
    demoted_tokens: int = 0
    promotions: int = 0
    promoted_tokens: int = 0
    #: Tokens that fell off the bottom tier (truly lost).
    dropped_tokens: int = 0
    #: Promotions landed after the owning replica was killed at least once:
    #: prefixes the failover *restored* instead of recomputing.
    restored_tokens: int = 0
    #: Tokens a fetch paid for that had vanished (or lost their HBM anchor)
    #: by completion time.
    wasted_fetch_tokens: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "demotions": self.demotions,
            "demoted_tokens": self.demoted_tokens,
            "promotions": self.promotions,
            "promoted_tokens": self.promoted_tokens,
            "dropped_tokens": self.dropped_tokens,
            "restored_tokens": self.restored_tokens,
            "wasted_fetch_tokens": self.wasted_fetch_tokens,
        }


@dataclass(frozen=True)
class TierFetchPlan:
    """One planned promotion: which entries to page in and what it costs."""

    #: ``(path key, tokens, tier spec)`` per entry, shallowest first.
    chain: tuple[tuple[PathKey, int, TierSpec], ...]
    tokens: int
    delay: float


class _Entry:
    __slots__ = ("tokens", "last_access")

    def __init__(self, tokens: int, last_access: float) -> None:
        self.tokens = tokens
        self.last_access = last_access


class _TierState:
    """One tier's resident entries in LRU order (dict insertion order)."""

    __slots__ = ("spec", "capacity_tokens", "used_tokens", "entries")

    def __init__(self, spec: TierSpec, kv_bytes_per_token: float) -> None:
        self.spec = spec
        self.capacity_tokens = int(spec.capacity_bytes // kv_bytes_per_token)
        self.used_tokens = 0
        self.entries: dict[PathKey, _Entry] = {}


class TieredKVStore:
    """DRAM/NVMe spill store behind one replica's radix cache(s).

    Keys are full root-to-node segment-uid paths, so entries from several
    instances of one replica (e.g. a disaggregated prefill/decode pair)
    share one namespace and a promotion can seed any instance.
    """

    def __init__(
        self,
        config: KVTierConfig,
        kv_bytes_per_token: float,
        sim: "Simulator | None" = None,
        name: str = "kv",
    ) -> None:
        if kv_bytes_per_token <= 0:
            raise ValueError("kv_bytes_per_token must be positive")
        self.config = config
        self.kv_bytes_per_token = kv_bytes_per_token
        self._tiers = [_TierState(spec, kv_bytes_per_token) for spec in config.tiers]
        self.stats = TierStats()
        self._killed = False
        #: The owning simulator, whose ``tracer`` is read at each emit; None
        #: for a standalone store, which is never traced.
        self.sim = sim
        self.trace_track = f"kvtiers/{name}"

    def __len__(self) -> int:
        return sum(len(tier.entries) for tier in self._tiers)

    def is_empty(self) -> bool:
        return all(not tier.entries for tier in self._tiers)

    def resident_tokens(self) -> int:
        """Tokens currently held across every tier."""
        return sum(tier.used_tokens for tier in self._tiers)

    def tier_utilization(self) -> dict[str, float]:
        """Per-tier occupancy fraction (0.0 for a zero-capacity tier)."""
        return {
            tier.spec.name: (
                tier.used_tokens / tier.capacity_tokens if tier.capacity_tokens else 0.0
            )
            for tier in self._tiers
        }

    # ------------------------------------------------------------------ #
    # Failover hook
    # ------------------------------------------------------------------ #

    def mark_killed(self) -> None:
        """The owning replica died: HBM is gone, these tiers survive.

        Subsequent promotions additionally count as ``restored_tokens`` —
        prefixes recovery brought back instead of recomputing.
        """
        self._killed = True

    # ------------------------------------------------------------------ #
    # Demotion (radix spill hook)
    # ------------------------------------------------------------------ #

    def demote(self, path: PathKey, tokens: int, now: float) -> None:
        """Spill one evicted radix node's KV into the hierarchy.

        Signature matches :attr:`repro.kvcache.radix.RadixCache.spill`.
        A key already resident (the node was re-seeded and evicted again)
        is refreshed in place at the top tier.
        """
        if tokens <= 0:
            return
        for tier in self._tiers:
            entry = tier.entries.pop(path, None)
            if entry is not None:
                tier.used_tokens -= entry.tokens
                break
        self.stats.demotions += 1
        self.stats.demoted_tokens += tokens
        self._insert(0, path, tokens, now)
        sim = self.sim
        if sim is not None and sim.tracer is not None:
            sim.tracer.instant(
                self.trace_track,
                "demote",
                CAT_KV_XFER,
                now,
                {"tokens": tokens, "depth": len(path)},
            )

    def _insert(self, level: int, path: PathKey, tokens: int, now: float) -> None:
        if level >= len(self._tiers):
            self.stats.dropped_tokens += tokens
            return
        tier = self._tiers[level]
        if tokens > tier.capacity_tokens:
            # Cannot ever fit this tier; try the next one down.
            self._insert(level + 1, path, tokens, now)
            return
        while tier.used_tokens + tokens > tier.capacity_tokens:
            victim_key = next(iter(tier.entries))
            victim = tier.entries.pop(victim_key)
            tier.used_tokens -= victim.tokens
            self._insert(level + 1, victim_key, victim.tokens, now)
        tier.entries[path] = _Entry(tokens, now)
        tier.used_tokens += tokens

    # ------------------------------------------------------------------ #
    # Promotion
    # ------------------------------------------------------------------ #

    def plan_fetch(self, path: list[Segment], start_depth: int) -> TierFetchPlan | None:
        """Continuation of ``path`` beyond ``start_depth`` held down-tier.

        Walks segment by segment from the first HBM miss, collecting
        resident entries until the chain breaks (a miss, or a partial
        segment after which nothing deeper can attach).  Non-destructive:
        entries move only when :meth:`take` runs at fetch-completion time.
        Returns ``None`` when nothing (or too little) is resident.
        """
        uids = tuple(segment.uid for segment in path)
        chain: list[tuple[PathKey, int, TierSpec]] = []
        tokens_total = 0
        delay = 0.0
        for i in range(start_depth, len(path)):
            key = uids[: i + 1]
            hit: tuple[_TierState, _Entry] | None = None
            for tier in self._tiers:
                entry = tier.entries.get(key)
                if entry is not None:
                    hit = (tier, entry)
                    break
            if hit is None:
                break
            tier, entry = hit
            chain.append((key, entry.tokens, tier.spec))
            tokens_total += entry.tokens
            delay += tier.spec.latency + (
                entry.tokens * self.kv_bytes_per_token / tier.spec.read_bandwidth
            )
            if entry.tokens < path[i].tokens:
                # Partial segment: deeper segments cannot attach behind it.
                break
        if not chain or tokens_total < self.config.min_promote_tokens:
            return None
        return TierFetchPlan(chain=tuple(chain), tokens=tokens_total, delay=delay)

    def take(self, path: PathKey) -> int | None:
        """Remove ``path`` from whichever tier holds it (fetch completed).

        Returns its token count, or ``None`` if the entry was cascaded out
        (or taken by a concurrent fetch) while the transfer was in flight.
        """
        for tier in self._tiers:
            entry = tier.entries.pop(path, None)
            if entry is not None:
                tier.used_tokens -= entry.tokens
                return entry.tokens
        return None

    def note_promoted(self, tokens: int) -> None:
        """Account a completed promotion of ``tokens`` tokens."""
        self.stats.promotions += 1
        self.stats.promoted_tokens += tokens
        if self._killed:
            self.stats.restored_tokens += tokens
