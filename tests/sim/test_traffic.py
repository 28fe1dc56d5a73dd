"""Tests for traffic schedules and Poisson sources."""

import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.traffic as traffic
from repro.frames import FrameType
from repro.sim import (
    CONFERENCE_MIX,
    ConstantRate,
    LinearRamp,
    ModulatedRate,
    PoissonSource,
    ScaledRate,
    Simulator,
    StepSchedule,
    available_scenarios,
    build_scenario,
    class_mixture,
    scenario_config,
    uniform_sizes,
)
from repro.sim.traffic import size_pool


class TestSchedules:
    def test_constant(self):
        assert ConstantRate(7.0).rate_at(0) == 7.0
        assert ConstantRate(7.0).rate_at(10**9) == 7.0

    def test_linear_ramp_endpoints(self):
        ramp = LinearRamp(1.0, 11.0, 10_000_000)
        assert ramp.rate_at(0) == 1.0
        assert ramp.rate_at(5_000_000) == pytest.approx(6.0)
        assert ramp.rate_at(10_000_000) == 11.0
        assert ramp.rate_at(99_000_000) == 11.0  # clamped past the end

    def test_zero_duration_ramp(self):
        assert LinearRamp(1.0, 9.0, 0).rate_at(123) == 9.0

    def test_step_schedule(self):
        steps = StepSchedule(((0, 1.0), (5_000_000, 4.0), (8_000_000, 2.0)))
        assert steps.rate_at(0) == 1.0
        assert steps.rate_at(6_000_000) == 4.0
        assert steps.rate_at(9_000_000) == 2.0

    def test_scaled(self):
        assert ScaledRate(ConstantRate(10.0), 0.35).rate_at(0) == pytest.approx(3.5)

    def test_modulated_mean_near_one(self):
        """Log-normal multipliers have unit mean over many epochs."""
        mod = ModulatedRate(ConstantRate(1.0), sigma=0.8, period_us=1000, seed=3)
        rates = [mod.rate_at(t * 1000) for t in range(5000)]
        assert np.mean(rates) == pytest.approx(1.0, rel=0.1)

    def test_modulated_constant_within_epoch(self):
        mod = ModulatedRate(ConstantRate(5.0), sigma=1.0, period_us=1_000_000)
        assert mod.rate_at(100) == mod.rate_at(999_999)

    def test_modulated_deterministic_per_seed(self):
        a = ModulatedRate(ConstantRate(1.0), seed=7).rate_at(0)
        b = ModulatedRate(ConstantRate(1.0), seed=7).rate_at(0)
        assert a == b

    def test_modulated_validation(self):
        with pytest.raises(ValueError):
            ModulatedRate(ConstantRate(1.0), sigma=-1)
        with pytest.raises(ValueError):
            ModulatedRate(ConstantRate(1.0), period_us=0)


class TestSizeSamplers:
    def test_uniform_bounds(self):
        sampler = uniform_sizes(100, 200)
        rng = np.random.default_rng(1)
        sizes = [sampler(rng) for _ in range(500)]
        assert min(sizes) >= 100 and max(sizes) <= 200

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            uniform_sizes(200, 100)

    def test_class_mixture_respects_bands(self):
        from repro.frames import SizeClass, size_class

        sampler = class_mixture({"S": 0.5, "XL": 0.5})
        rng = np.random.default_rng(2)
        classes = {size_class(sampler(rng)) for _ in range(300)}
        assert classes == {SizeClass.S, SizeClass.XL}

    def test_class_mixture_validation(self):
        with pytest.raises(ValueError):
            class_mixture({"HUGE": 1.0})
        with pytest.raises(ValueError):
            class_mixture({"S": 0.0})


class TestDeclaredData:
    """Samplers, schedules and attendance blocks are frozen data: equal
    when declared alike, and a pickled copy (what a pool worker
    rebuilds) draws what the original draws."""

    def test_mixes_declared_alike_are_equal(self):
        a = class_mixture({"S": 0.5, "XL": 0.5})
        assert a == class_mixture({"S": 0.5, "XL": 0.5})
        assert a != class_mixture({"S": 0.6, "XL": 0.4})
        # The weights' order is the search order, so it is declared too.
        assert a != class_mixture({"XL": 0.5, "S": 0.5})
        with pytest.raises(FrozenInstanceError):
            a.weights = ()

    def test_size_mix_pickles_with_its_draws(self):
        clone = pickle.loads(pickle.dumps(CONFERENCE_MIX))
        assert clone == CONFERENCE_MIX
        assert scalar_draws(clone, 5, 300) == scalar_draws(CONFERENCE_MIX, 5, 300)
        assert size_pool(clone, 5, 300).tolist() == scalar_draws(CONFERENCE_MIX, 5, 300)

    def test_modulated_rate_pickles_with_its_draws(self):
        mod = ModulatedRate(ConstantRate(3.0), sigma=0.9, period_us=1000, seed=4)
        mod.rate_at(0)  # a warm memo travels with the pickle
        clone = pickle.loads(pickle.dumps(mod))
        fresh = ModulatedRate(ConstantRate(3.0), sigma=0.9, period_us=1000, seed=4)
        assert clone == mod == fresh
        times = range(0, 50_000, 700)
        rates = [mod.rate_at(t) for t in times]
        assert [clone.rate_at(t) for t in times] == rates
        assert [fresh.rate_at(t) for t in times] == rates

    def test_session_blocks_pickle_with_their_draws(self):
        from repro.sim.scenarios import SessionBlocks

        blocks = SessionBlocks(((0.0, 0.45), (0.30, 0.75), (0.55, 1.0)), 10_000_000)
        clone = pickle.loads(pickle.dumps(blocks))
        assert clone == blocks
        a, b = np.random.default_rng(8), np.random.default_rng(8)
        assert [clone(j, a) for j in range(40)] == [blocks(j, b) for j in range(40)]


class TestPoissonSource:
    def _run(self, schedule, duration_s=20, start_us=0, end_us=None, seed=4):
        sim = Simulator()
        arrivals = []

        def enqueue(dst, size, ftype):
            arrivals.append((sim.now_us, dst, size, ftype))
            return True

        source = PoissonSource(
            sim=sim,
            enqueue=enqueue,
            dst=9,
            schedule=schedule,
            sizes=uniform_sizes(100, 100),
            rng=np.random.default_rng(seed),
            start_us=start_us,
            end_us=end_us,
        )
        sim.run_until(int(duration_s * 1e6))
        return arrivals, source

    def test_mean_rate(self):
        arrivals, _ = self._run(ConstantRate(50.0), duration_s=20)
        assert len(arrivals) == pytest.approx(1000, rel=0.15)

    def test_arrival_payloads(self):
        arrivals, _ = self._run(ConstantRate(10.0), duration_s=2)
        assert all(dst == 9 and size == 100 and ftype == FrameType.DATA
                   for _, dst, size, ftype in arrivals)

    def test_activity_window_respected(self):
        arrivals, _ = self._run(
            ConstantRate(100.0), duration_s=10, start_us=2_000_000, end_us=4_000_000
        )
        times = [t for t, *_ in arrivals]
        assert min(times) >= 2_000_000
        assert max(times) <= 4_000_000

    def test_zero_rate_produces_nothing(self):
        arrivals, _ = self._run(ConstantRate(0.0), duration_s=5)
        assert arrivals == []

    def test_packets_offered_counter(self):
        arrivals, source = self._run(ConstantRate(20.0), duration_s=5)
        assert source.packets_offered == len(arrivals)


class TestRngStreamEquivalence:
    """The hot-path RNG shortcuts must replicate numpy's streams exactly."""

    def test_vector_random_matches_scalar_random(self):
        """Medium._finish pre-draws rng.random(n): must equal n scalar draws."""
        a = np.random.default_rng(123)
        b = np.random.default_rng(123)
        assert [a.random() for _ in range(257)] == list(b.random(257))

    def test_class_mixture_matches_reference_choice_draws(self):
        """The searchsorted draw consumes and maps the bitstream
        identically to rng.choice(p=...), interleaved with size draws."""
        weights = {"S": 0.45, "M": 0.08, "L": 0.07, "XL": 0.40}
        sampler = class_mixture(weights)
        names = list(weights)
        probs = np.array([weights[n] for n in names], dtype=np.float64)
        probs = probs / probs.sum()
        ranges = [
            {"S": (60, 400), "M": (401, 800), "L": (801, 1200),
             "XL": (1201, 1500)}[n]
            for n in names
        ]
        a = np.random.default_rng(77)
        b = np.random.default_rng(77)
        got = [sampler(a) for _ in range(500)]
        expected = []
        for _ in range(500):
            idx = int(b.choice(len(names), p=probs))
            low, high = ranges[idx]
            expected.append(int(b.integers(low, high + 1)))
        assert got == expected
        assert a.bit_generator.state == b.bit_generator.state


def scalar_draws(sampler, seed, n):
    """The first ``n`` draws of ``sampler``, one scalar call at a time."""
    rng = np.random.default_rng(seed)
    return [sampler(rng) for _ in range(n)]


#: Every size mix a library scenario draws from, once each.
LIBRARY_MIXES = list(
    {
        id(mix): mix
        for mix in (scenario_config(name).size_mix for name in available_scenarios())
    }.values()
)

#: Random class_mixture weights: any non-empty subset of the classes,
#: zero weights included, summing to a positive value.
RANDOM_MIXES = st.dictionaries(
    st.sampled_from(["S", "M", "L", "XL"]), st.floats(0.0, 10.0), min_size=1
).filter(lambda weights: sum(weights.values()) > 0).map(class_mixture)

#: Plain integer seeds and the fast engine's ``[seed, 0x512E]`` form.
SEEDS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**32 - 1).map(lambda seed: [seed, 0x512E]),
)


class TestSizePool:
    """``size_pool`` is the first n scalar draws, whichever path runs."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        sampler=st.one_of(st.sampled_from(LIBRARY_MIXES), RANDOM_MIXES),
        seed=SEEDS,
        n=st.integers(1, 600),
    )
    def test_equals_scalar_draws(self, sampler, seed, n):
        pool = size_pool(sampler, seed, n)
        assert pool.dtype == np.int64
        assert pool.tolist() == scalar_draws(sampler, seed, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 4095, 4096])
    @pytest.mark.parametrize("mix", range(len(LIBRARY_MIXES)))
    def test_library_mixes_at_pool_sizes(self, mix, n):
        sampler = LIBRARY_MIXES[mix]
        for seed in (0, 1, [3, 0x512E]):
            assert size_pool(sampler, seed, n).tolist() == scalar_draws(
                sampler, seed, n
            )

    def test_rejection_branch_falls_back_to_the_scalar_loop(self):
        # On this seed's stream a draw takes Lemire's rejection branch,
        # which reads a further word and shifts every later draw.
        seed = [29306, 0x512E]
        assert traffic._replay_pool(CONFERENCE_MIX.table, seed, 4096) is None
        pool = size_pool(CONFERENCE_MIX, seed, 4096)
        assert pool.tolist() == scalar_draws(CONFERENCE_MIX, seed, 4096)

    def test_other_samplers_run_the_scalar_loop(self):
        sampler = uniform_sizes(60, 1500)
        assert size_pool(sampler, 5, 333).tolist() == scalar_draws(sampler, 5, 333)

    def test_failed_probe_falls_back_to_the_scalar_loop(self, monkeypatch):
        monkeypatch.setattr(traffic, "_REPLAY_OK", False)
        monkeypatch.setattr(traffic, "_replay_pool", None)  # never called
        pool = size_pool(CONFERENCE_MIX, 11, 257)
        assert pool.tolist() == scalar_draws(CONFERENCE_MIX, 11, 257)

    def test_every_library_pool_is_replayed(self, monkeypatch):
        """On this numpy the vectorised replay, not the scalar
        fallback, builds every library scenario's fast-engine pool."""
        assert traffic._replay_supported()

        def scalar_pool(*args):
            raise AssertionError("the scalar fallback built a pool")

        monkeypatch.setattr(traffic, "_scalar_pool", scalar_pool)
        for name in available_scenarios():
            for seed in (1, 3):
                build_scenario(name, fidelity="fast", duration_s=1.0, seed=seed)


def _reference_lazy_arrivals(schedule, sizes, rng, end_us):
    """The arrival process as a plain loop, independent of the engine.

    Idle 'loop' ticks poll every 100 ms without touching the RNG; an
    emission draws its size first, then the gap at the post-emission
    rate.  ``PoissonSource`` must match it draw for draw, including the
    shared ``max(1, gap)`` clamp.
    """
    from repro.sim.traffic import _poisson_gap_us

    arrivals = []
    kind, t = "loop", 0
    while kind is not None:
        if kind == "emit":
            if t < end_us:
                arrivals.append((t, sizes(rng)))
                rate = schedule.rate_at(t)
                if rate <= 0:
                    kind, t = "loop", t + 100_000
                else:
                    t += _poisson_gap_us(rng, rate)
            else:
                kind = None
        else:
            if t >= end_us:
                kind = None
            else:
                rate = schedule.rate_at(t)
                if rate <= 0:
                    t += 100_000
                else:
                    kind, t = "emit", t + _poisson_gap_us(rng, rate)
    return arrivals


class TestLazyBatchEquivalence:
    """The event-driven source must emit the exact stream the reference
    loop would — same times, same sizes, same RNG consumption — because
    the two share one gap helper (``_poisson_gap_us``)."""

    def _source_arrivals(self, schedule, end_us, seed, run_us):
        sim = Simulator()
        arrivals = []

        def enqueue(dst, size, ftype):
            arrivals.append((sim.now_us, size))
            return True

        PoissonSource(
            sim=sim,
            enqueue=enqueue,
            dst=1,
            schedule=schedule,
            sizes=uniform_sizes(60, 1500),
            rng=np.random.default_rng(seed),
            end_us=end_us,
        )
        sim.run_until(run_us)
        return arrivals

    def test_batch_matches_lazy_reference_at_moderate_rate(self):
        schedule = ConstantRate(400.0)
        got = self._source_arrivals(schedule, end_us=5_000_000, seed=21,
                                   run_us=6_000_000)
        expected = _reference_lazy_arrivals(
            schedule, uniform_sizes(60, 1500), np.random.default_rng(21),
            end_us=5_000_000,
        )
        assert len(got) > 1_000
        assert got == expected

    def test_batch_matches_lazy_reference_under_gap_clamp(self):
        """Rate high enough that raw exponential gaps round to 0 µs and
        the max(1, ...) clamp engages: both paths must clamp alike."""
        schedule = ConstantRate(5_000_000.0)  # mean gap 0.2 µs
        got = self._source_arrivals(schedule, end_us=3_000, seed=9,
                                   run_us=10_000)
        expected = _reference_lazy_arrivals(
            schedule, uniform_sizes(60, 1500), np.random.default_rng(9),
            end_us=3_000,
        )
        assert got == expected
        times = np.array([t for t, _ in got])
        gaps = np.diff(times)
        # The clamp is actually exercised: arrivals march at the 1 µs
        # floor (any unclamped draw would average five per microsecond).
        assert len(got) > 1_500
        assert (gaps >= 1).all()
        assert (gaps == 1).mean() > 0.5
