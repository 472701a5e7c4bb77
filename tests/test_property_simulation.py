"""Property-based tests over the simulation-side models."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import AnalysisContext, run_study
from repro.apps.demand import DemandModel
from repro.apps.updates import UpdatePolicy
from repro.mobility.schedule import LocationState, ScheduleGenerator
from repro.net.identifiers import bssid_prefix, random_bssid, sibling_bssid
from repro.population.demographics import Occupation
from repro.radio.pathloss import PathLossModel
from repro.reporting.experiments import list_experiments


seeds = st.integers(0, 2**31 - 1)


class TestDemandProperties:
    @given(seeds)
    @settings(max_examples=40)
    def test_mix_shares_are_distributions(self, seed):
        rng = np.random.default_rng(seed)
        model = DemandModel(2, appetite_median_mb=50.0)
        mix = model.sample_mix(rng)
        for on_wifi in (True, False):
            shares = mix.context_shares(on_wifi)
            assert shares.sum() == np.float64(1.0) or abs(shares.sum() - 1) < 1e-9
            assert (shares >= 0).all()

    @given(seeds)
    @settings(max_examples=30)
    def test_appetite_positive(self, seed):
        rng = np.random.default_rng(seed)
        model = DemandModel(0, appetite_median_mb=30.0)
        assert model.sample_appetite_bytes(rng) > 0


class TestScheduleProperties:
    occupations = st.sampled_from(list(Occupation))

    @given(occupations, seeds, st.integers(0, 6))
    @settings(max_examples=60)
    def test_schedule_always_valid(self, occupation, seed, weekday):
        rng = np.random.default_rng(seed)
        gen = ScheduleGenerator(occupation, np.random.default_rng(seed + 1))
        day = gen.day(weekday, rng)
        assert len(day) == 144
        valid = {int(s) for s in LocationState}
        assert set(np.unique(day)) <= valid
        # Everyone is home at 4am.
        assert day[24] == int(LocationState.HOME)

    @given(occupations, seeds)
    @settings(max_examples=40)
    def test_home_is_plurality_over_a_week(self, occupation, seed):
        rng = np.random.default_rng(seed)
        gen = ScheduleGenerator(occupation, np.random.default_rng(seed + 1))
        totals = np.zeros(5)
        for weekday in range(7):
            day = gen.day(weekday, rng)
            for code in range(5):
                totals[code] += (day == code).sum()
        assert totals[int(LocationState.HOME)] == totals.max()


class TestUpdatePolicyProperties:
    @given(st.integers(0, 20), st.booleans())
    def test_hazard_in_unit_interval(self, days_since, weekend):
        policy = UpdatePolicy(release_day=0)
        h = policy.hazard(days_since, weekend)
        assert 0.0 <= h <= 1.0

    @given(st.integers(1, 20))
    def test_tail_decays(self, day):
        policy = UpdatePolicy(release_day=0)
        assert policy.hazard(day + 1, False) <= policy.hazard(day, False)


class TestIdentifierProperties:
    @given(seeds)
    @settings(max_examples=50)
    def test_sibling_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        bssid = random_bssid(rng)
        for offset in (-3, -1, 1, 2, 7):
            sibling = sibling_bssid(bssid, offset)
            assert bssid_prefix(sibling) == bssid_prefix(bssid)
            assert sibling_bssid(sibling, -offset) == bssid

    @given(seeds)
    @settings(max_examples=50)
    def test_sibling_zero_is_identity(self, seed):
        rng = np.random.default_rng(seed)
        bssid = random_bssid(rng)
        assert sibling_bssid(bssid, 0) == bssid


class TestPathLossProperties:
    @given(
        st.floats(1.5, 5.0),
        st.floats(1.0, 500.0),
        st.floats(1.0, 500.0),
    )
    def test_monotone_in_distance(self, exponent, d1, d2):
        model = PathLossModel(exponent=exponent)
        lo, hi = sorted((d1, d2))
        assert model.loss_db(lo) <= model.loss_db(hi) + 1e-9

    @given(st.floats(1.5, 5.0), st.floats(1.0, 1000.0))
    def test_loss_nonnegative_and_finite(self, exponent, distance):
        model = PathLossModel(exponent=exponent)
        loss = model.loss_db(distance)
        assert np.isfinite(loss) and loss > 0


class TestSmallPanelsRender:
    """Every registered experiment renders on any valid small campaign:
    an undefined quantity reads ``n/a`` or ``(no data)``, it never raises.
    At scale 0.02, seeds 1 and 4 each have a campaign without capped
    device-days (Figure 19)."""

    @given(seed=st.integers(0, 11), scale=st.sampled_from([0.01, 0.015, 0.02]))
    @example(seed=1, scale=0.02)
    @example(seed=4, scale=0.02)
    @settings(max_examples=6, deadline=None)
    def test_every_experiment_renders(self, seed, scale):
        ctx = AnalysisContext(run_study(scale=scale, seed=seed, n_jobs=1))
        for experiment in list_experiments():
            assert experiment.run(ctx).render()
