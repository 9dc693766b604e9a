"""Statistical + determinism tests for the open-loop load generator.

The loadgen is a seeded non-homogeneous Poisson sampler; these tests
check the *distribution*, not single draws, with confidence bounds
derived from the process itself:

* flat-spec interarrival gaps are exponential(λ): sample mean within
  4·σ/√n of 1/λ and sample variance within 5·√(8/n) of 1/λ² (the
  exponential's fourth moment gives Var(s²) ≈ 8σ⁴/n);
* the normalised envelope integrates to the configured request count
  (analytic normaliser vs an independent trapezoid), and the realised
  Poisson count lands within 5·√N of N;
* a burst episode multiplies the windowed arrival rate by its factor;
* identical specs yield byte-identical event streams in this process
  and in a pool worker (``test_key_stability.py`` style).
"""

import math

import numpy as np
import pytest

from repro.fleet.loadgen import (Arrival, BurstEpisode, LoadSpec,
                                 RequestClass, parse_loadgen)

pytestmark = pytest.mark.fleet

FLAT = LoadSpec(requests=4000, duration_ms=1000.0, seed=11)

CROSS = LoadSpec(requests=500, duration_ms=100.0, diurnal_amplitude=0.6,
                 diurnal_cycles=2.0,
                 bursts=(BurstEpisode(20.0, 30.0, 4.0),),
                 classes=(RequestClass("small", 3.0, 16, 2.0, 0),
                          RequestClass("large", 1.0, 32, 8.0, 1)),
                 seed=7)


# Pool entry points must be module-level so they pickle.
def _worker_stream_digest(_=None) -> str:
    return CROSS.stream_digest()


def _in_worker(fn):
    """Run ``fn`` in a single pool worker; skip if pools are unavailable."""
    from concurrent.futures import ProcessPoolExecutor

    try:
        with ProcessPoolExecutor(max_workers=1) as pool:
            return pool.submit(fn).result(timeout=60)
    except Exception as exc:  # sandboxed CI without fork/spawn support
        pytest.skip(f"process pool unavailable: {exc}")


class TestPoissonStatistics:
    def test_interarrival_mean_within_bounds(self):
        """Flat spec: gaps are exponential(λ = N/D), so the sample mean
        must land within 4 standard errors of 1/λ."""
        times = np.array([a.t_ms for a in FLAT.events()])
        gaps = np.diff(times)
        n = len(gaps)
        lam = FLAT.requests / FLAT.duration_ms
        mu = 1.0 / lam
        stderr = mu / math.sqrt(n)       # σ = μ for the exponential
        assert abs(gaps.mean() - mu) < 4.0 * stderr, \
            f"mean {gaps.mean():.4f} vs {mu:.4f} ± {4 * stderr:.4f}"

    def test_interarrival_variance_within_bounds(self):
        """Sample variance of exponential(λ) gaps ≈ 1/λ², with sampling
        error √(Var(s²)) ≈ √(8/n)·σ² from the fourth moment."""
        times = np.array([a.t_ms for a in FLAT.events()])
        gaps = np.diff(times)
        n = len(gaps)
        var = (FLAT.duration_ms / FLAT.requests) ** 2
        tol = 5.0 * math.sqrt(8.0 / n) * var
        sample = gaps.var(ddof=1)
        assert abs(sample - var) < tol, \
            f"variance {sample:.5f} vs {var:.5f} ± {tol:.5f}"

    def test_realised_count_is_poisson_around_requests(self):
        """The envelope is normalised to mass N, so the realised count is
        Poisson(N): within 5·√N of N."""
        for seed in (0, 1, 2):
            spec = LoadSpec(requests=2000, duration_ms=200.0,
                            diurnal_amplitude=0.5,
                            bursts=(BurstEpisode(50.0, 80.0, 3.0),),
                            seed=seed)
            n = len(spec.events())
            assert abs(n - spec.requests) < 5 * math.sqrt(spec.requests), \
                f"seed {seed}: realised {n} vs expected {spec.requests}"


class TestEnvelope:
    def test_envelope_integrates_to_request_count(self):
        """The analytic normaliser must agree with an independent
        numerical integral of rate(t)."""
        spec = CROSS
        # integrate each burst segment separately so the trapezoid never
        # straddles a rate discontinuity
        total = 0.0
        for t0, t1, _ in spec._segments():
            ts = np.linspace(t0, t1, 20001)
            rates = np.array([spec.rate(t) for t in ts[:-1]] +
                             [spec.rate(t1 - 1e-9)])
            total += float(np.sum(0.5 * (rates[1:] + rates[:-1])
                                  * np.diff(ts)))
        assert total == pytest.approx(spec.requests, rel=1e-3)

    def test_diurnal_modulates_arrival_density(self):
        """With a strong diurnal swell, the peak half of the cycle must
        hold more arrivals than the trough half."""
        spec = LoadSpec(requests=4000, duration_ms=400.0,
                        diurnal_amplitude=0.8, diurnal_cycles=1.0, seed=5)
        times = np.array([a.t_ms for a in spec.events()])
        # sin > 0 on the first half-period, < 0 on the second
        peak = np.sum(times < 200.0)
        trough = np.sum(times >= 200.0)
        assert peak > 1.5 * trough

    def test_burst_raises_windowed_rate_by_factor(self):
        """Arrival rate inside the burst window over the rate outside it
        must recover the configured factor."""
        factor = 4.0
        spec = LoadSpec(requests=6000, duration_ms=600.0,
                        bursts=(BurstEpisode(200.0, 300.0, factor),),
                        seed=13)
        times = np.array([a.t_ms for a in spec.events()])
        inside = np.sum((times >= 200.0) & (times < 300.0)) / 100.0
        outside = np.sum((times < 200.0) | (times >= 300.0)) / 500.0
        assert inside / outside == pytest.approx(factor, rel=0.15)

    def test_overlapping_bursts_compound(self):
        spec = LoadSpec(requests=100, duration_ms=100.0,
                        bursts=(BurstEpisode(10.0, 30.0, 2.0),
                                BurstEpisode(20.0, 40.0, 3.0)))
        assert spec.burst_factor(25.0) == pytest.approx(6.0)
        assert spec.burst_factor(15.0) == pytest.approx(2.0)
        assert spec.burst_factor(35.0) == pytest.approx(3.0)
        assert spec.burst_factor(50.0) == pytest.approx(1.0)

    def test_peak_rate_bounds_rate_everywhere(self):
        spec = CROSS
        peak = spec.peak_rate()
        ts = np.linspace(0.0, spec.duration_ms, 5003)[:-1]
        assert max(spec.rate(t) for t in ts) <= peak + 1e-12

    def test_scaled_preserves_shape_and_scales_mass(self):
        spec = CROSS.scaled(2.0)
        assert spec.requests == 2 * CROSS.requests
        assert spec.bursts == CROSS.bursts
        assert spec.classes == CROSS.classes
        assert spec.offered_rpms == pytest.approx(2 * CROSS.offered_rpms)


class TestRequestClasses:
    def test_class_mix_follows_weights(self):
        """3:1 weights → the small class holds ~75% of arrivals."""
        events = CROSS.events()
        small = sum(1 for a in events if a.cls.name == "small")
        frac = small / len(events)
        # binomial: p=0.75, σ = √(p(1−p)/n)
        sigma = math.sqrt(0.75 * 0.25 / len(events))
        assert abs(frac - 0.75) < 5 * sigma

    def test_classes_carry_geometry_deadline_priority(self):
        events = CROSS.events()
        by_name = {a.cls.name: a for a in events}
        small, large = by_name["small"], by_name["large"]
        assert small.image().shape == (3, 16, 16)
        assert large.image().shape == (3, 32, 32)
        assert small.cls.deadline_ms == 2.0 and small.cls.priority == 0
        assert large.cls.deadline_ms == 8.0 and large.cls.priority == 1

    def test_images_are_deterministic_per_arrival(self):
        a = CROSS.events()[0]
        img1, img2 = a.image(), a.image()
        assert img1.dtype == np.float32
        np.testing.assert_array_equal(img1, img2)


class TestDeterminism:
    def test_same_seed_same_stream_same_process(self):
        assert CROSS.stream_bytes() == CROSS.stream_bytes()
        assert LoadSpec(**{**CROSS.__dict__}).stream_digest() \
            == CROSS.stream_digest()

    def test_different_seed_different_stream(self):
        other = LoadSpec(**{**CROSS.__dict__, "seed": CROSS.seed + 1})
        assert other.stream_digest() != CROSS.stream_digest()

    def test_stream_identical_across_processes(self):
        """The acceptance criterion: byte-identical event streams for
        identical seeds in two different processes."""
        assert _worker_stream_digest() == _in_worker(_worker_stream_digest)

    def test_ci_demo_stream_pinned(self):
        """The sessionless stream of the CI loadgen + autoscale demo,
        pinned byte for byte: a grammar change must leave it alone."""
        spec = parse_loadgen(
            "n=200,duration=20,diurnal=0.4,burst=6-10x4,seed=3,"
            "classes=small:3:16:4.0:0|large:1:32:12.0:1")
        assert len(spec.events()) == 196
        assert spec.stream_digest() == "2ef130086c59cdff8afbbe5245e9cdfe"

    def test_stream_digest_covers_event_content(self):
        events = CROSS.events()
        bumped = list(events)
        a = bumped[0]
        bumped[0] = Arrival(a.index, a.t_ms + 1e-9, a.cls, a.image_seed)
        assert CROSS.stream_digest(bumped) != CROSS.stream_digest(events)


class TestGrammar:
    def test_parse_full_spec(self):
        spec = parse_loadgen(
            "n=400,duration=50,diurnal=0.5,cycles=2,seed=3,"
            "burst=10-14x4,burst=30-31x8,"
            "classes=small:3:16:2.0:0|large:1:32:8.0:1")
        assert spec.requests == 400
        assert spec.duration_ms == 50.0
        assert spec.diurnal_amplitude == 0.5
        assert spec.diurnal_cycles == 2.0
        assert spec.seed == 3
        assert spec.bursts == (BurstEpisode(10.0, 14.0, 4.0),
                               BurstEpisode(30.0, 31.0, 8.0))
        assert spec.classes == (RequestClass("small", 3.0, 16, 2.0, 0),
                                RequestClass("large", 1.0, 32, 8.0, 1))

    def test_parse_defaults(self):
        spec = parse_loadgen("n=32,duration=16")
        assert spec.diurnal_amplitude == 0.0
        assert spec.bursts == ()
        assert len(spec.classes) == 1
        assert spec.classes[0].deadline_ms is None

    def test_dash_deadline_means_none(self):
        spec = parse_loadgen("n=8,duration=4,classes=c:1:16:-:2")
        assert spec.classes[0].deadline_ms is None
        assert spec.classes[0].priority == 2

    def test_unknown_trailing_fields_rejected(self):
        with pytest.raises(ValueError, match=r"unknown trailing fields .*"
                           r"name:weight:size\[:deadline_ms\[:priority\]\]$"):
            parse_loadgen("classes=vid:1:16:-:0:5")

    @pytest.mark.parametrize("bad", [
        "nope",                          # no key=value
        "n=8,duration=4,what=1",         # unknown key
        "n=8,duration=4,burst=10x4",     # malformed burst window
        "n=8,duration=4,classes=:1",     # empty class name
        "n=0,duration=4",                # zero requests
        "n=8,duration=4,burst=2-9x4",    # burst window outside [0, D)
    ])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_loadgen(bad)

    def test_validation_rejects_bad_values(self):
        with pytest.raises(ValueError):
            LoadSpec(requests=10, duration_ms=10.0, diurnal_amplitude=1.0)
        with pytest.raises(ValueError):
            BurstEpisode(5.0, 5.0, 2.0)
        with pytest.raises(ValueError):
            RequestClass("x", weight=0.0)
        with pytest.raises(ValueError):
            LoadSpec(requests=10, duration_ms=10.0,
                     classes=(RequestClass("a"), RequestClass("a")))
