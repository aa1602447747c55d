"""The noisy-neighbor isolation study: acceptance properties at small scale.

The CI study-smoke job checks the same verdicts through ``repro study
tenancy``; this test pins the qualitative contract directly: FIFO lets the
batch flood wreck the interactive tier, WFQ+tiered-brownout keeps it
within a hair of isolated.
"""

import pytest

from repro.bench.tenancy import (
    BATCH_TENANT,
    CHAT_TENANT,
    compare_isolation,
    noisy_neighbor_workload,
)
from repro.tenancy import TIER_BATCH, TIER_INTERACTIVE

SCALE = 0.25


@pytest.fixture(scope="module")
def study():
    return compare_isolation(scale=SCALE)


class TestWorkload:
    def test_noisy_neighbor_is_tagged_and_merged(self):
        workload = noisy_neighbor_workload(scale=0.1)
        tenants = {r.tenant for r in workload}
        assert tenants == {CHAT_TENANT, BATCH_TENANT}
        tiers = {r.tier for r in workload}
        assert tiers == {TIER_INTERACTIVE, TIER_BATCH}
        arrivals = [r.arrival_time for r in workload]
        assert arrivals == sorted(arrivals)
        ids = [r.request_id for r in workload]
        assert len(set(ids)) == len(ids)

    def test_workload_is_deterministic(self):
        a = noisy_neighbor_workload(scale=0.1, seed=3)
        b = noisy_neighbor_workload(scale=0.1, seed=3)
        assert [(r.request_id, r.arrival_time, r.tenant) for r in a] == [
            (r.request_id, r.arrival_time, r.tenant) for r in b
        ]


class TestIsolationStudy:
    def test_fifo_degrades_interactive_badly(self, study):
        """The motivating failure: >= 10 pts of interactive TBT attainment
        lost to the batch flood under plain FIFO."""
        assert study.degradation("fifo") >= 10.0

    def test_brownout_holds_interactive_near_isolated(self, study):
        """The acceptance bar: WFQ + tiered brownout keeps the interactive
        tier within 2 pts of its isolated-run attainment."""
        assert study.degradation("wfq+brownout") <= 2.0

    def test_interactive_attains_at_least_batch_under_brownout(self, study):
        protected = study.contended["wfq+brownout"]
        batch = protected.attainment(TIER_BATCH)
        interactive = protected.attainment(TIER_INTERACTIVE)
        assert interactive >= batch or batch != batch  # NaN-safe

    def test_brownout_sheds_only_batch(self, study):
        protected = study.contended["wfq+brownout"]
        assert protected.requests_shed > 0
        assert set(protected.shed_by_tier) == {TIER_BATCH}

    def test_fifo_and_wfq_shed_nothing(self, study):
        assert study.contended["fifo"].requests_shed == 0
        assert study.contended["wfq"].requests_shed == 0

    def test_brownout_improves_weighted_fairness(self, study):
        assert (
            study.contended["wfq+brownout"].fairness
            > study.contended["fifo"].fairness
        )

    def test_every_mode_reports_both_tiers_when_served(self, study):
        for mode in ("fifo", "wfq"):
            tiers = {t.tier for t in study.contended[mode].tiers}
            assert tiers == {TIER_INTERACTIVE, TIER_BATCH}

    def test_as_dict_is_json_shaped(self, study):
        data = study.as_dict()
        assert set(data["contended"]) == {"fifo", "wfq", "wfq+brownout"}
        assert "degradation_pts" in data
        assert data["isolated"]["mode"] == "isolated"

    def test_tier_table_renders(self, study):
        from repro.bench import tier_table

        text = tier_table({m: r.tiers for m, r in study.contended.items()})
        assert "interactive" in text
        assert "TBT att%" in text
        assert "wfq+brownout" in text
