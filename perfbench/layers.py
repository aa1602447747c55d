"""Per-layer probes: wrap public entry points from outside the program.

A :class:`Probe` replaces a function or method with a wrapper that counts
calls and records *self time*: the call's duration minus the time spent in
wrapped calls it made.  A module-level function is replaced in its home
module and in every ``repro`` module that imported it by name (for example
``phase_latency`` is also bound in ``repro.core.server``), so no caller
keeps the unwrapped binding.

The wrappers only observe: they call the original with the same arguments
and return its result.  The benchmark proves this by comparing the traced
run's result digest with the untraced run's.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from functools import wraps

from repro.cluster import router
from repro.core import ContentionTolerantEstimator, MultiplexEngine
from repro.gpu import device
from repro.kvcache.radix import RadixCache
from repro.models import costs
from repro.serving.batching import DecodeBatchMixin
from repro.serving.metrics import MetricsCollector
from repro.sim import Simulator, fastpath

#: (owner, attribute, probe key).  Several attributes may share a key; the
#: key's calls and self time are then their sums.
TARGETS = [
    (Simulator, "run", "sim.run"),
    (Simulator, "schedule_at", "sim.schedule"),
    (fastpath, "plan_chain", "fastpath.plan"),
    (fastpath, "commit_chain", "fastpath.commit"),
    (device.Device, "submit", "device.submit"),
    (device, "waterfill", "device.waterfill"),
    *(
        (costs.CostModel, name, "costs")
        for name, value in vars(costs.CostModel).items()
        if callable(value) and not name.startswith("_")
    ),
    (costs, "phase_latency", "costs"),
    (RadixCache, "acquire", "radix.acquire"),
    (RadixCache, "insert", "radix.insert"),
    (RadixCache, "extend", "radix.extend"),
    (RadixCache, "can_fit", "radix.fit_check"),
    (RadixCache, "can_fit_path", "radix.fit_check"),
    (DecodeBatchMixin, "emit_decode_iteration", "serving.emit_decode"),
    (MetricsCollector, "on_tokens_record", "serving.on_tokens"),
    (MetricsCollector, "summarize", "serving.summarize"),
    *(
        (ContentionTolerantEstimator, name, "core.estimator")
        for name, value in vars(ContentionTolerantEstimator).items()
        if callable(value) and not name.startswith("_")
    ),
    (MultiplexEngine, "set_partition", "core.set_partition"),
    (MultiplexEngine, "launch_prefill_group", "core.prefill_group"),
    (router.Router, "route", "router.route"),
    *(
        (policy, "choose", "router.choose")
        for policy in vars(router).values()
        if isinstance(policy, type)
        and issubclass(policy, router.RoutingPolicy)
        and "choose" in vars(policy)
    ),
]


class Probe:
    """Call counts and self times of the wrapped entry points, by key."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        #: Time spent in wrapped children, one slot per open wrapped call.
        self._children: list[float] = []

    def reset(self) -> None:
        """Forget everything recorded so far (e.g. during set-up)."""
        self.calls.clear()
        self.self_s.clear()

    def wrap(self, key: str, fn):
        calls, self_s, children = self.calls, self.self_s, self._children
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                calls[key] += 1
                self_s[key] += elapsed - children.pop()
                if children:
                    children[-1] += elapsed

        return wrapper

    def install(self) -> None:
        """Wrap every target, at its owner and at every importer's binding."""
        for owner, name, key in TARGETS:
            original = vars(owner)[name]
            wrapper = self.wrap(key, original)
            setattr(owner, name, wrapper)
            if isinstance(owner, type):
                continue
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
