"""Passive-driven reactive re-keying, hysteresis, and the GreedyDual-safe path.

Four families of guarantees are pinned here (ISSUE 5):

* **Anchor seeding** — the rekeyer's anchor seeds from the estimate the
  policy actually keyed at (the *pre*-sample estimate), so the very first
  sample on a path can already trigger a re-key; the old behaviour of
  seeding from the post-sample estimate silently swallowed a first shift
  of any magnitude.
* **Per-group last-mile views** — anchors and caps are kept per client
  group, and with ``estimate_last_mile`` the ``(server, group)`` keyed
  estimator mode lets a last-mile degradation that is invisible to the
  origin estimate still re-key — the two-group case a single cap over
  origin-only notifies provably ignores.
* **Bounded churn** — the hysteresis re-arm band and the per-server re-key
  cap bound re-keys under adversarial oscillating bandwidth
  (property-tested), and passive-driven runs match their recorded
  goldens.
* **GreedyDual safety** — GDS/GDSP with the ``"delay"`` cost model are
  ``bandwidth_keyed`` and re-key with each entry's inflation preserved
  (property-tested); ``"uniform"``/``"size"`` never re-key.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.policies import make_policy
from repro.core.policies.greedydual import (
    GreedyDualSizePolicy,
    PopularityAwareGreedyDualSizePolicy,
)
from repro.core.store import CacheStore
from repro.exceptions import ConfigurationError
from repro.network.distributions import NLANRBandwidthDistribution
from repro.network.measurement import PassiveEstimator
from repro.network.variability import NLANRRatioVariability
from repro.sim.config import BandwidthKnowledge, ClientCloudConfig, SimulationConfig
from repro.sim.events import ReactiveRekeyer, RemeasurementConfig
from repro.sim.simulator import ProxyCacheSimulator
from repro.workload.catalog import Catalog, MediaObject
from repro.workload.gismo import GismoWorkloadGenerator, WorkloadConfig

from conftest import assert_golden


def _catalog() -> Catalog:
    """Two servers, two objects each; bit-rate 48 so bandwidth binds."""
    return Catalog(
        [
            MediaObject(object_id=0, duration=100.0, bitrate=48.0, server_id=0),
            MediaObject(object_id=1, duration=200.0, bitrate=48.0, server_id=1),
            MediaObject(object_id=2, duration=50.0, bitrate=96.0, server_id=1),
            MediaObject(object_id=3, duration=400.0, bitrate=24.0, server_id=0),
        ]
    )


def _tracked_policy(catalog, bandwidth: float = 20.0):
    """A PB policy with every catalog object requested (and tracked) once."""
    policy = make_policy("PB")
    store = CacheStore(capacity_kb=1e9)
    policy.install(store, catalog)
    for obj in catalog:
        policy.on_request(obj, bandwidth, 0.0, store)
    return policy, store


@pytest.fixture(scope="module")
def reactive_workload():
    """A small multi-client columnar workload (100 objects, 2000 requests)."""
    config = replace(WorkloadConfig(seed=7).scaled(0.02), num_clients=24)
    return GismoWorkloadGenerator(config).generate()


def _passive_config(**overrides):
    defaults = dict(
        cache_size_gb=0.5,
        variability=NLANRRatioVariability(),
        bandwidth_knowledge=BandwidthKnowledge.PASSIVE,
        seed=11,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def _reactive_config(**overrides):
    defaults = dict(reactive_threshold=0.15, reactive_passive=True)
    defaults.update(overrides)
    return _passive_config(**defaults)


# ----------------------------------------------------------------------
# Regression: anchor seeds from the pre-sample estimate (ISSUE 5 bugfix 1).
# ----------------------------------------------------------------------
class TestAnchorSeeding:
    def test_first_sample_can_trigger_a_rekey(self):
        """The old rekeyer seeded the anchor from the first *post*-sample
        estimate and returned — a first shift of any magnitude was
        swallowed, leaving heap keys built at the pre-sample belief stale
        forever if the estimate then hovered near that first sample."""
        catalog = _catalog()
        policy, _ = _tracked_policy(catalog, bandwidth=20.0)
        estimator = PassiveEstimator(smoothing=1.0, initial_estimate=20.0)
        rekeyer = ReactiveRekeyer(policy, estimator, threshold=0.5)

        # The policy keyed server 0's objects at the pre-sample belief, 20.
        prior = estimator.estimate(0)
        assert prior == 20.0
        estimator.observe(0, 200.0)  # a first sample, 10x the keyed belief
        rekeyer.notify(1.0, 0, prior)
        assert rekeyer.shifts == 1
        assert rekeyer.entries_rekeyed == 2  # both tracked objects on server 0

    def test_hovering_near_first_sample_never_corrects_without_the_fix(self):
        """With the anchor seeded at the pre-sample belief, later samples
        hovering near the first one are (correctly) quiet — the single
        re-key already fixed the keys."""
        catalog = _catalog()
        policy, _ = _tracked_policy(catalog, bandwidth=20.0)
        estimator = PassiveEstimator(smoothing=1.0, initial_estimate=20.0)
        rekeyer = ReactiveRekeyer(policy, estimator, threshold=0.5)

        estimator.observe(0, 200.0)
        rekeyer.notify(1.0, 0, 20.0)
        assert rekeyer.shifts == 1
        for step, sample in enumerate((205.0, 195.0, 210.0), start=2):
            before = estimator.estimate(0)
            estimator.observe(0, sample)
            rekeyer.notify(float(step), 0, before)
        assert rekeyer.shifts == 1  # anchor moved to 200: hovering is quiet


# ----------------------------------------------------------------------
# Per-group anchors/caps and last-mile estimation (ISSUE 5 bugfix 2).
# ----------------------------------------------------------------------
class TestPerGroupViews:
    def test_two_group_last_mile_collapse_legacy_cap_misses(self):
        """The failing-then-fixed two-group case: the origin estimate never
        moves, so a rekeyer with one cap sees nothing — but the slow
        group's *delivered* bandwidth collapses, which the per-group
        ``(server, group)`` estimation mode catches."""
        catalog = _catalog()

        # Legacy shape: one global cap, probe-style (origin-only) notifies.
        legacy_policy, _ = _tracked_policy(catalog, bandwidth=40.0)
        legacy_est = PassiveEstimator(smoothing=1.0)
        legacy = ReactiveRekeyer(
            legacy_policy, legacy_est, threshold=0.5, group_caps=(100.0,)
        )
        # Fixed shape: per-group caps plus per-group delivered estimation.
        fixed_policy, _ = _tracked_policy(catalog, bandwidth=40.0)
        fixed_est = PassiveEstimator(smoothing=1.0)
        fixed = ReactiveRekeyer(
            fixed_policy,
            fixed_est,
            threshold=0.5,
            group_caps=(100.0, 40.0),
            group_estimation=True,
        )

        # The origin path is rock-steady at 100 KB/s; group 1's last mile
        # degrades: delivered samples fall 38 -> 15.
        steps = [(1.0, 38.0), (2.0, 15.0)]
        for now, delivered in steps:
            prior = legacy_est.estimate(0)
            legacy_est.observe(0, 100.0)
            legacy.notify(now, 0, prior)

            prior = fixed_est.estimate(0)
            estimate = fixed_est.observe(0, 100.0)
            fixed.observe_request(now, 0, 1, prior, delivered, estimate)

        assert legacy.shifts == 0  # the origin view never moved
        assert fixed.shifts == 1   # group 1's believed 40 -> 15 crossed 50%
        assert fixed.entries_rekeyed > 0
        assert fixed_est.estimate_group(0, 1) == 15.0
        assert fixed_est.estimate(0) == 100.0  # origin estimate untouched

    def test_group_view_first_sample_seeds_from_pre_sample_estimate(self):
        """Regression (review): on a group view's first contact,
        ``estimate_group`` falls back to the origin estimate — which the
        loops have already updated with the request's sample by the time
        ``observe_request`` runs.  Seeding the group anchor from that
        fallback would swallow the first group shift exactly like the
        original anchor bug; the pre-sample ``prior_estimate`` must win."""
        catalog = _catalog()
        # Tracked at a binding bandwidth so the heap has entries to re-key.
        policy, _ = _tracked_policy(catalog, bandwidth=20.0)
        estimator = PassiveEstimator(smoothing=1.0, initial_estimate=100.0)
        rekeyer = ReactiveRekeyer(
            policy,
            estimator,
            threshold=0.5,
            group_caps=(200.0, 200.0),
            group_estimation=True,
        )
        # The replay loop's order: the origin sample lands first (the
        # collapse to 10), THEN the rekeyer is notified with the
        # pre-sample prior the policy keyed at (100).
        estimate = estimator.observe(0, 10.0)
        rekeyer.observe_request(1.0, 0, 1, 100.0, 10.0, estimate)
        assert rekeyer.shifts == 1  # 100 -> 10 is a 90% collapse
        assert rekeyer.entries_rekeyed > 0

    def test_group_views_are_independent(self):
        catalog = _catalog()
        policy, _ = _tracked_policy(catalog, bandwidth=40.0)
        estimator = PassiveEstimator(smoothing=1.0)
        rekeyer = ReactiveRekeyer(
            policy,
            estimator,
            threshold=0.5,
            group_caps=(100.0, 40.0),
            group_estimation=True,
        )
        estimate = estimator.observe(0, 100.0)
        # Group 1 collapses and triggers; group 0 stays quiet throughout.
        rekeyer.observe_request(1.0, 0, 1, 100.0, 38.0, estimate)
        rekeyer.observe_request(2.0, 0, 1, 100.0, 15.0, estimate)
        assert rekeyer.shifts == 1
        rekeyer.observe_request(3.0, 0, 0, 100.0, 100.0, estimate)
        rekeyer.observe_request(4.0, 0, 0, 100.0, 98.0, estimate)
        assert rekeyer.shifts == 1
        assert estimator.group_sample_count(0, 0) == 2
        assert estimator.group_sample_count(0, 1) == 2
        assert estimator.known_groups(0) == [0, 1]

    @pytest.mark.parametrize("trigger", [None, 2], ids=["origin", "group-2"])
    @pytest.mark.parametrize("group_estimation", [False, True])
    def test_shift_reanchors_every_view_at_its_capped_estimate(
        self, group_estimation, trigger
    ):
        """After a shift every view of the server is re-anchored at its own
        estimate capped by its own group's cap: an infinite cap leaves the
        estimate as it is, and a group id past the cap table wraps
        (``group_id % len(caps)``)."""
        catalog = _catalog()
        policy, _ = _tracked_policy(catalog, bandwidth=20.0)
        estimator = PassiveEstimator(smoothing=1.0, initial_estimate=50.0)
        caps = (float("inf"), 30.0, 80.0)
        rekeyer = ReactiveRekeyer(
            policy,
            estimator,
            threshold=0.5,
            group_caps=caps,
            group_estimation=group_estimation,
        )
        views = (None, 0, 1, 2, 4)  # group 4 shares group 1's 30 KB/s cap
        for view in views:  # every view agrees with its keys: quiet
            rekeyer.notify(0.0, 0, 50.0, group_id=view)
        assert rekeyer.shifts == 0

        estimator.observe(0, 200.0)
        for group, delivered in ((0, 150.0), (2, 160.0), (4, 90.0)):
            estimator.observe_group(0, group, delivered)
        rekeyer.notify(1.0, 0, 50.0, group_id=trigger)
        assert rekeyer.shifts == 1

        def capped_estimate(view):
            if view is not None and group_estimation:
                estimate = estimator.estimate_group(0, view)
            else:
                estimate = estimator.estimate(0)
            cap = max(caps) if view is None else caps[view % len(caps)]
            return min(estimate, cap)

        anchors = {view: rekeyer.anchor_for(0, view) for view in views}
        assert anchors == {view: capped_estimate(view) for view in views}
        assert anchors[None] == 200.0 and anchors[1] == anchors[4] == 30.0

    def test_rekeyer_validation(self):
        catalog = _catalog()
        policy, _ = _tracked_policy(catalog)
        estimator = PassiveEstimator()
        with pytest.raises(ConfigurationError):
            ReactiveRekeyer(policy, estimator, threshold=0.2, group_caps=())
        with pytest.raises(ConfigurationError):
            ReactiveRekeyer(policy, estimator, threshold=0.2, group_caps=(0.0,))
        with pytest.raises(ConfigurationError):
            ReactiveRekeyer(policy, estimator, threshold=0.2, hysteresis=0.3)
        with pytest.raises(ConfigurationError):
            ReactiveRekeyer(policy, estimator, threshold=0.2, hysteresis=0.0)
        with pytest.raises(ConfigurationError):
            ReactiveRekeyer(policy, estimator, threshold=0.2, rekey_cap=0)
        nan = float("nan")
        for kwargs in (
            dict(threshold=nan),
            dict(threshold=0.2, group_caps=(50.0, nan)),
            dict(threshold=0.2, rekey_cap=nan),
        ):
            with pytest.raises(ConfigurationError):
                ReactiveRekeyer(policy, estimator, **kwargs)

    def test_estimator_group_mode_fallback_and_reset(self):
        estimator = PassiveEstimator(smoothing=0.5, initial_estimate=80.0)
        assert estimator.estimate_group(3, 1) == 80.0  # full fallback
        estimator.observe(3, 60.0)
        assert estimator.estimate_group(3, 1) == 60.0  # server fallback
        estimator.observe_group(3, 1, 20.0)
        assert estimator.estimate_group(3, 1) == 20.0
        assert estimator.estimate_group(3, 0) == 60.0  # other group untouched
        estimator.observe_group(3, 1, 40.0)
        assert estimator.estimate_group(3, 1) == pytest.approx(30.0)
        assert estimator.group_sample_count(3, 1) == 2
        estimator.reset()
        assert estimator.estimate_group(3, 1) == 80.0
        assert estimator.group_sample_count(3, 1) == 0


# ----------------------------------------------------------------------
# Hysteresis and the per-server re-key cap bound churn.
# ----------------------------------------------------------------------
class TestBoundedChurn:
    @settings(max_examples=25, deadline=None)
    @given(
        samples=st.lists(st.sampled_from([25.0, 80.0, 300.0]), min_size=2, max_size=50),
        cap=st.integers(min_value=1, max_value=4),
    )
    def test_rekey_cap_bounds_rekeys_under_adversarial_oscillation(self, samples, cap):
        catalog = _catalog()
        policy, _ = _tracked_policy(catalog, bandwidth=20.0)
        estimator = PassiveEstimator(smoothing=1.0)
        rekeyer = ReactiveRekeyer(
            policy, estimator, threshold=0.2, hysteresis=0.1, rekey_cap=cap
        )
        for step, sample in enumerate(samples):
            prior = estimator.estimate(0)
            estimator.observe(0, sample)
            rekeyer.notify(float(step), 0, prior)
        assert rekeyer.rekeys_by_server.get(0, 0) <= cap
        assert rekeyer.shifts <= cap

    def test_hysteresis_requires_band_reentry_before_rearming(self):
        """After a re-key the view is disarmed: an estimate oscillating
        between two distant values cannot re-key on every swing — it must
        first settle back into the band around the new anchor."""
        catalog = _catalog()
        policy, _ = _tracked_policy(catalog, bandwidth=20.0)
        estimator = PassiveEstimator(smoothing=1.0, initial_estimate=100.0)
        rekeyer = ReactiveRekeyer(
            policy, estimator, threshold=0.5, hysteresis=0.1
        )
        def sample(now, value):
            prior = estimator.estimate(0)
            estimator.observe(0, value)
            rekeyer.notify(now, 0, prior)

        sample(1.0, 300.0)          # 100 -> 300: trigger, anchor 300, disarmed
        assert rekeyer.shifts == 1
        sample(2.0, 100.0)          # far outside the band: stays disarmed
        assert rekeyer.shifts == 1
        sample(3.0, 100.0)          # still outside: no re-arm, no trigger
        assert rekeyer.shifts == 1
        sample(4.0, 310.0)          # back inside 10% of 300: re-arms, quiet
        assert rekeyer.shifts == 1
        sample(5.0, 100.0)          # armed again: 310 -> 100 crosses 50%
        assert rekeyer.shifts == 2

    def test_hysteresis_never_increases_churn(self):
        catalog = _catalog()
        oscillation = [300.0, 100.0] * 10

        def run(hysteresis):
            policy, _ = _tracked_policy(catalog, bandwidth=20.0)
            estimator = PassiveEstimator(smoothing=1.0, initial_estimate=100.0)
            rekeyer = ReactiveRekeyer(
                policy, estimator, threshold=0.5, hysteresis=hysteresis
            )
            for step, value in enumerate(oscillation):
                prior = estimator.estimate(0)
                estimator.observe(0, value)
                rekeyer.notify(float(step), 0, prior)
            return rekeyer.shifts

        assert run(hysteresis=0.1) < run(hysteresis=None)

    def test_simulation_respects_rekey_cap(self, reactive_workload):
        config = _reactive_config(
            reactive_threshold=0.02,
            reactive_rekey_cap=2,
            remeasurement=RemeasurementConfig(interval=120.0),
        )
        result = ProxyCacheSimulator(reactive_workload, config).run(make_policy("PB"))
        assert result.reactive_shifts > 0
        assert result.reactive_suppressed > 0
        assert result.reactive_rekeys_by_server
        assert max(result.reactive_rekeys_by_server.values()) <= 2
        assert sum(result.reactive_rekeys_by_server.values()) == result.reactive_shifts


# ----------------------------------------------------------------------
# Passive-driven runs: bit-identical to the recorded goldens.
# ----------------------------------------------------------------------
class TestPassiveDrivenReplayEquivalence:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            _passive_config(reactive_passive=True)  # no threshold
        with pytest.raises(ConfigurationError):
            _passive_config(reactive_hysteresis=0.1)
        with pytest.raises(ConfigurationError):
            _passive_config(reactive_rekey_cap=5)
        with pytest.raises(ConfigurationError):
            _reactive_config(reactive_hysteresis=0.5)  # band above threshold
        with pytest.raises(ConfigurationError):
            _reactive_config(reactive_rekey_cap=0)
        # Passive-driven alone is a valid shift source: no remeasurement.
        config = _reactive_config()
        assert config.remeasurement is None

    def test_passive_only_reactive_runs_on_every_path(self, reactive_workload):
        """With no probes scheduled, passive-driven re-keying still fires,
        and the run (every ``reactive_*`` counter included) matches its
        golden."""
        config = _reactive_config(reactive_hysteresis=0.05)
        simulator = ProxyCacheSimulator(reactive_workload, config)
        topology = simulator.build_topology(np.random.default_rng(config.seed))
        result = simulator.run(make_policy("PB"), topology=topology)
        assert result.reactive_shifts > 0
        assert_golden("reactive/passive-only", result)

    def test_passive_plus_probes_bit_identical_across_event_paths(
        self, reactive_workload
    ):
        config = _reactive_config(
            remeasurement=RemeasurementConfig(interval=120.0),
            reactive_hysteresis=0.05,
        ).with_client_clouds(
            ClientCloudConfig(
                groups=8,
                distribution=NLANRBandwidthDistribution(),
                estimate_last_mile=True,
            )
        )
        simulator = ProxyCacheSimulator(reactive_workload, config)
        topology = simulator.build_topology(np.random.default_rng(config.seed))
        result = simulator.run(make_policy("PB"), topology=topology)
        assert result.auxiliary_events_fired > 0
        assert result.reactive_shifts > 0
        assert_golden("reactive/passive-plus-probes", result)

    def test_passive_driven_changes_outcomes_vs_probe_only(self, reactive_workload):
        probes_only = _passive_config(
            remeasurement=RemeasurementConfig(interval=120.0),
            reactive_threshold=0.15,
        )
        passive_too = replace(probes_only, reactive_passive=True)
        a = ProxyCacheSimulator(reactive_workload, probes_only).run(make_policy("PB"))
        b = ProxyCacheSimulator(reactive_workload, passive_too).run(make_policy("PB"))
        assert b.reactive_shifts > a.reactive_shifts
        assert a.as_dict() != b.as_dict()


# ----------------------------------------------------------------------
# GreedyDual: the "delay" cost model re-keys, inflation preserved.
# ----------------------------------------------------------------------
class TestGreedyDualSafeRekey:
    @pytest.mark.parametrize("policy_class", [
        GreedyDualSizePolicy, PopularityAwareGreedyDualSizePolicy
    ])
    def test_gate_is_cost_model_dependent(self, policy_class):
        assert policy_class("delay").bandwidth_keyed
        assert not policy_class("uniform").bandwidth_keyed
        assert not policy_class("size").bandwidth_keyed

    @pytest.mark.parametrize("cost_model", ["uniform", "size"])
    @pytest.mark.parametrize("policy_class", [
        GreedyDualSizePolicy, PopularityAwareGreedyDualSizePolicy
    ])
    def test_uniform_and_size_never_rekey(self, policy_class, cost_model):
        catalog = _catalog()
        policy = policy_class(cost_model)
        store = CacheStore(capacity_kb=1e9)
        policy.install(store, catalog)
        for obj in catalog:
            policy.on_request(obj, 20.0, 0.0, store)
        keys = {oid: policy.cached_utility(oid) for oid in range(4)}
        assert policy.on_bandwidth_shift(0, 200.0, 1.0) == 0
        assert {oid: policy.cached_utility(oid) for oid in range(4)} == keys

    @pytest.mark.parametrize("policy_class", [
        GreedyDualSizePolicy, PopularityAwareGreedyDualSizePolicy
    ])
    def test_delay_rekey_preserves_entry_inflation(self, policy_class):
        catalog = _catalog()
        policy = policy_class("delay")
        # A tiny store forces evictions, so the inflation L rises and the
        # tracked entries carry *different* inflation components.
        store = CacheStore(capacity_kb=6000.0)
        policy.install(store, catalog)
        for step, obj in enumerate(list(catalog) + list(catalog)[:2]):
            policy.on_request(obj, 20.0 + 3.0 * step, float(step), store)
        tracked = dict(policy._utilities)
        assert tracked
        inflation_before = policy.inflation
        entry_inflation = dict(policy._keyed_inflation)

        rekeyed = policy.on_bandwidth_shift(0, 5.0, 10.0)
        assert rekeyed > 0
        assert policy.inflation == inflation_before  # global L untouched
        for object_id, utility in policy._utilities.items():
            # Every entry keeps the inflation it was keyed at ...
            assert policy._keyed_inflation[object_id] == entry_inflation[object_id]
            obj = catalog.get(object_id)
            if obj.server_id == 0:
                # ... and re-keyed entries are exactly inflation + new credit.
                frequency = policy.frequencies.frequency(object_id)
                assert utility == entry_inflation[object_id] + policy.credit(
                    obj, 5.0, frequency
                )
            else:
                assert utility == tracked[object_id]

    @settings(max_examples=20, deadline=None)
    @given(
        bandwidths=st.lists(
            st.floats(min_value=2.0, max_value=200.0), min_size=4, max_size=12
        ),
        shift_bandwidth=st.floats(min_value=2.0, max_value=200.0),
    )
    def test_delay_rekey_never_perturbs_inflation_ordering(
        self, bandwidths, shift_bandwidth
    ):
        """Property: re-keying changes credits only — the per-entry
        inflation components (and therefore the aging order GreedyDual
        relies on) are exactly as before the shift."""
        catalog = _catalog()
        policy = GreedyDualSizePolicy("delay")
        store = CacheStore(capacity_kb=5000.0)
        policy.install(store, catalog)
        objects = list(catalog)
        for step, bandwidth in enumerate(bandwidths):
            policy.on_request(objects[step % len(objects)], bandwidth, float(step), store)
        by_inflation_before = sorted(
            policy._keyed_inflation.items(), key=lambda item: (item[1], item[0])
        )
        for server_id in (0, 1):
            policy.on_bandwidth_shift(server_id, shift_bandwidth, 100.0)
        by_inflation_after = sorted(
            policy._keyed_inflation.items(), key=lambda item: (item[1], item[0])
        )
        assert by_inflation_before == by_inflation_after

    def test_gds_delay_reactive_end_to_end(self, reactive_workload):
        config = _reactive_config(
            remeasurement=RemeasurementConfig(interval=120.0)
        )
        simulator = ProxyCacheSimulator(reactive_workload, config)
        topology = simulator.build_topology(np.random.default_rng(config.seed))
        result = simulator.run(GreedyDualSizePolicy("delay"), topology=topology)
        assert result.reactive_rekeys > 0
        assert_golden("reactive/gds-delay", result)
        # The inflation-keyed cost models still never react.
        uniform = simulator.run(
            GreedyDualSizePolicy("uniform"), topology=topology
        )
        assert uniform.reactive_rekeys == 0
        size = simulator.run(GreedyDualSizePolicy("size"), topology=topology)
        assert size.reactive_rekeys == 0

    def test_gdsp_delay_reactive_end_to_end(self, reactive_workload):
        config = _reactive_config(
            remeasurement=RemeasurementConfig(interval=120.0)
        )
        result = ProxyCacheSimulator(reactive_workload, config).run(
            PopularityAwareGreedyDualSizePolicy("delay")
        )
        assert result.reactive_shifts > 0
        assert result.reactive_rekeys > 0


# ----------------------------------------------------------------------
# Differential: the in-band check of observe_request against the path
# where every request went through notify.
# ----------------------------------------------------------------------
class _ReferenceRekeyer(ReactiveRekeyer):
    """``observe_request`` and ``notify`` as they were before
    ``observe_request`` settled in-band views itself (the trace event
    left out): every request goes to ``notify``, which re-reads the
    estimator.  The post-sample ``estimate`` argument is accepted and
    ignored."""

    def observe_request(
        self, now, server_id, group_id, prior_estimate, delivered, estimate=None
    ):
        if group_id is not None and self.group_estimation:
            if self.estimator.group_sample_count(server_id, group_id) > 0:
                prior = self.estimator.estimate_group(server_id, group_id)
            else:
                prior = prior_estimate
            self.estimator.observe_group(server_id, group_id, delivered)
            self.notify(now, server_id, prior, group_id=group_id)
        else:
            self.notify(now, server_id, prior_estimate, group_id=group_id)

    def notify(self, now, server_id, prior_estimate, group_id=None):
        if group_id is None:
            estimate = self.estimator.estimate(server_id)
            cap = self._max_cap
        else:
            if self.group_estimation:
                estimate = self.estimator.estimate_group(server_id, group_id)
            else:
                estimate = self.estimator.estimate(server_id)
            caps = self._caps
            cap = caps[group_id % len(caps)]
        believed = estimate if cap is None or estimate <= cap else cap
        views = self._anchors.get(server_id)
        if views is None:
            views = self._anchors[server_id] = {}
        anchor = views.get(group_id)
        if anchor is None:
            prior = prior_estimate
            if cap is not None and prior > cap:
                prior = cap
            views[group_id] = anchor = prior
        disarmed = self._disarmed.get(server_id)
        if disarmed is not None and disarmed.get(group_id):
            if abs(believed - anchor) <= self.hysteresis * anchor:
                disarmed[group_id] = False
            return
        if abs(believed - anchor) <= self.threshold * anchor:
            return
        if (
            self.rekey_cap is not None
            and self.rekeys_by_server.get(server_id, 0) >= self.rekey_cap
        ):
            self.suppressed += 1
            return
        self.shifts += 1
        self.rekeys_by_server[server_id] = self.rekeys_by_server.get(server_id, 0) + 1
        rekey_bandwidth = estimate
        if self._max_cap is not None and rekey_bandwidth > self._max_cap:
            rekey_bandwidth = self._max_cap
        self.entries_rekeyed += self.policy.on_bandwidth_shift(
            server_id, rekey_bandwidth, now
        )
        views[group_id] = believed
        origin_estimate = self.estimator.estimate(server_id)
        caps = self._caps
        for other_group in views:
            if other_group == group_id:
                continue
            if other_group is None:
                other_estimate = origin_estimate
                other_cap = self._max_cap
            else:
                if self.group_estimation:
                    other_estimate = self.estimator.estimate_group(
                        server_id, other_group
                    )
                else:
                    other_estimate = origin_estimate
                other_cap = caps[other_group % len(caps)]
            if other_cap is not None and other_estimate > other_cap:
                other_estimate = other_cap
            views[other_group] = other_estimate
        if self.hysteresis is not None:
            self._disarmed[server_id] = {group: True for group in views}


class _ShiftLog:
    """A policy stand-in that records every re-key it is asked for."""

    def __init__(self):
        self.calls = []

    def on_bandwidth_shift(self, server_id, bandwidth, now):
        self.calls.append((server_id, bandwidth, now))
        return len(self.calls) % 3


# Values around the initial estimate 32 that sit exactly on its band
# edges (|believed - anchor| == band * anchor for bands 1/16 to 1/2), so
# a test can tell < from <=; all of them dyadic, so the EWMA stays exact.
_bandwidths = st.sampled_from(
    [16.0, 24.0, 28.0, 30.0, 32.0, 34.0, 36.0, 40.0, 48.0, 64.0]
)
_steps = st.lists(
    st.tuples(
        st.sampled_from([False, False, False, True]),  # a probe (notify)
        st.integers(min_value=0, max_value=2),  # server, reduced mod servers
        st.integers(min_value=0, max_value=3),  # group, reduced mod groups
        _bandwidths,  # origin sample
        _bandwidths,  # delivered throughput
    ),
    min_size=1,
    max_size=40,
)


@st.composite
def _rekeyer_settings(draw):
    threshold = draw(st.sampled_from([0.125, 0.25, 0.5]))
    hysteresis = draw(
        st.sampled_from([None] + [h for h in (0.0625, 0.125, 0.25) if h <= threshold])
    )
    caps = draw(
        st.none()
        | st.lists(st.sampled_from([16.0, 32.0, 64.0, float("inf")]), min_size=1, max_size=4)
    )
    return dict(
        threshold=threshold,
        hysteresis=hysteresis,
        rekey_cap=draw(st.none() | st.integers(min_value=1, max_value=4)),
        group_caps=caps,
        group_estimation=draw(st.booleans()),
    )


def _rekeyer_state(rekeyer, servers, views):
    return (
        rekeyer.shifts,
        rekeyer.suppressed,
        rekeyer.entries_rekeyed,
        dict(rekeyer.rekeys_by_server),
        [rekeyer.anchor_for(server, group) for server in servers for group in views],
        [rekeyer.disarmed_views(server) for server in servers],
        list(rekeyer.policy.calls),
    )


class TestInBandCheckMatchesNotify:
    @settings(max_examples=200, deadline=None)
    @given(
        settings_=_rekeyer_settings(),
        servers=st.integers(min_value=1, max_value=3),
        groups=st.integers(min_value=0, max_value=4),
        smoothing=st.sampled_from([1.0, 0.5, 0.25]),
        steps=_steps,
    )
    # 32 -> 48 re-keys and disarms the view at anchor 48; 36 then lands
    # exactly on the edge of its 25% band, which re-arms it.
    @example(
        settings_=dict(
            threshold=0.25,
            hysteresis=0.25,
            rekey_cap=None,
            group_caps=None,
            group_estimation=False,
        ),
        servers=1,
        groups=0,
        smoothing=1.0,
        steps=[(False, 0, 0, 48.0, 48.0), (False, 0, 0, 36.0, 36.0)],
    )
    def test_every_step_matches_the_notify_path(
        self, settings_, servers, groups, smoothing, steps
    ):
        """Requests through ``observe_request`` (with the estimate
        ``observe`` returned) and probes through ``notify`` leave both
        rekeyers in the same state after every step."""
        pairs = []
        for cls in (ReactiveRekeyer, _ReferenceRekeyer):
            estimator = PassiveEstimator(smoothing=smoothing, initial_estimate=32.0)
            pairs.append((cls(_ShiftLog(), estimator, **settings_), estimator))
        views = [None] + list(range(groups))
        for now, (probe, server, group, sample, delivered) in enumerate(steps):
            server %= servers
            group = group % groups if groups else None
            for rekeyer, estimator in pairs:
                prior = estimator.estimate(server)
                estimate = estimator.observe(server, sample)
                if probe:
                    rekeyer.notify(float(now), server, prior)
                else:
                    rekeyer.observe_request(
                        float(now), server, group, prior, delivered, estimate
                    )
            new, reference = (
                _rekeyer_state(rekeyer, range(servers), views) for rekeyer, _ in pairs
            )
            assert new == reference

    @settings(max_examples=20, deadline=None)
    @given(
        settings_=_rekeyer_settings(),
        groups=st.integers(min_value=0, max_value=4),
        probes=st.booleans(),
    )
    @example(
        settings_=dict(
            threshold=0.125,
            hysteresis=0.0625,
            rekey_cap=None,
            group_caps=None,
            group_estimation=False,
        ),
        groups=0,
        probes=False,
    )
    def test_replay_matches_the_notify_path(
        self, reactive_workload, settings_, groups, probes
    ):
        """The same through the replay kernel, whose passive stage hands
        ``observe_request`` the estimate ``observe`` returned."""
        del settings_["group_caps"]  # the client clouds' last-mile bases
        estimate_last_mile = settings_.pop("group_estimation") and groups > 0
        config = _reactive_config(
            reactive_threshold=settings_["threshold"],
            reactive_hysteresis=settings_["hysteresis"],
            reactive_rekey_cap=settings_["rekey_cap"],
            remeasurement=RemeasurementConfig(interval=120.0) if probes else None,
        )
        if groups:
            config = config.with_client_clouds(
                ClientCloudConfig(
                    groups=groups,
                    distribution=NLANRBandwidthDistribution(),
                    estimate_last_mile=estimate_last_mile,
                )
            )

        def replay():
            result = ProxyCacheSimulator(reactive_workload, config).run(
                make_policy("PB")
            )
            return (
                result.reactive_shifts,
                result.reactive_rekeys,
                result.reactive_suppressed,
                result.reactive_rekeys_by_server,
                result.as_dict(),
            )

        new = replay()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("repro.sim.simulator.ReactiveRekeyer", _ReferenceRekeyer)
            reference = replay()
        assert new == reference
