"""Hawkes engine tests against direct-summation and compensator oracles."""

import math

import numpy as np
import pytest
from scipy import stats

from hawkeslob.events import N_EVENT_TYPES
from hawkeslob.hawkes import HawkesClock
from hawkeslob.params import (KernelParams, default_kernel_params,
                              powerlaw_tail_intensity_bound)
from hawkeslob.rng import RandomStream


def one_type_params(mu=1.0, alpha=0.5, gamma=1.0) -> KernelParams:
    return KernelParams(kind="exponential", mu=[mu], alpha=[[alpha]],
                        gamma=[[gamma]])


def brute_force_intensity(params: KernelParams, log, i: int, t: float,
                          horizon: float = math.inf) -> float:
    """Oracle: direct kernel summation over the raw event log."""
    lam = float(params.mu[i])
    for s, j in log:
        age = t - s
        if age < 0 or age > horizon:
            continue
        if params.kind == "exponential":
            lam += params.alpha[i, j] * math.exp(-params.gamma[i, j] * age)
        else:
            lam += params.alpha_pl[i, j] * (
                1.0 + age / params.delta_pl[i, j]) ** (-params.beta_pl[i, j])
    return lam


def exp_compensator(params: KernelParams, times, t: float) -> float:
    """Oracle: integrated total intensity of a 1-type exponential process."""
    mu = float(params.mu[0])
    a = float(params.alpha[0, 0])
    g = float(params.gamma[0, 0])
    past = np.asarray(times)
    past = past[past < t]
    return mu * t + (a / g) * float(np.sum(1.0 - np.exp(-g * (t - past))))


class TestIntensity:
    def test_baseline_only(self):
        clock = HawkesClock(one_type_params())
        assert clock.intensity(0, 0.0) == 1.0

    def test_single_event_closed_form(self):
        clock = HawkesClock(one_type_params())
        clock.apply_event(0, 0.0)
        # 1 + 0.5 * exp(-ln 2) = 1.25 exactly
        assert clock.intensity(0, math.log(2.0)) == pytest.approx(
            1.25, abs=1e-14)

    def test_jump_at_event(self):
        clock = HawkesClock(one_type_params())
        clock.apply_event(0, 0.0)
        assert clock.intensity(0, 0.0) == pytest.approx(1.5, abs=1e-14)

    def test_two_event_superposition(self):
        clock = HawkesClock(one_type_params())
        clock.apply_event(0, 0.0)
        clock.apply_event(0, 1.0)
        expected = 1.0 + 0.5 * math.exp(-1.0) + 0.5
        assert clock.intensity(0, 1.0) == pytest.approx(expected, abs=1e-14)

    def test_two_type_cross_excitation(self):
        params = KernelParams(
            kind="exponential", mu=[1.0, 1.0],
            alpha=[[0.0, 0.3], [0.0, 0.0]],
            gamma=[[1.0, 2.0], [1.0, 1.0]])
        clock = HawkesClock(params)
        clock.apply_event(1, 0.0)
        oracle = brute_force_intensity(params, [(0.0, 1)], 0, 0.5)
        # frozen from the oracle: 1 + 0.3 * exp(-1)
        assert oracle == pytest.approx(1.1103638323514327, abs=1e-15)
        assert clock.intensity(0, 0.5) == pytest.approx(oracle, abs=1e-12)

    def test_rejects_bad_index(self):
        clock = HawkesClock(one_type_params())
        with pytest.raises(IndexError):
            clock.intensity(1)

    def test_rejects_past_event(self):
        clock = HawkesClock(one_type_params())
        clock.apply_event(0, 1.0)
        with pytest.raises(ValueError):
            clock.apply_event(0, 0.5)


class TestRecursionVsBruteForce:
    def _random_log(self, rng, d, n, t_span):
        times = np.sort(np.array([rng.uniform() * t_span for _ in range(n)]))
        types = [rng.integer(d) for _ in range(n)]
        return list(zip(times.tolist(), types))

    def test_exponential_random_log(self):
        params = default_kernel_params()
        rng = RandomStream(10)
        log = self._random_log(rng, params.n_types, 1000, 50.0)
        clock = HawkesClock(params)
        for s, j in log:
            clock.apply_event(j, s)
        t_query = 50.0
        lam = clock.intensities(t_query)
        for i in range(params.n_types):
            oracle = brute_force_intensity(params, log, i, t_query)
            assert abs(lam[i] - oracle) < 1e-10

    def test_exponential_interleaved_queries(self):
        # queries between events must not perturb the recursion
        params = one_type_params()
        rng = RandomStream(11)
        log = self._random_log(rng, 1, 100, 20.0)
        clock = HawkesClock(params)
        for s, j in log:
            clock.apply_event(j, s)
            clock.intensity(0, s + 0.01)
        oracle = brute_force_intensity(params, log, 0, 20.0)
        assert abs(clock.intensity(0, 20.0) - oracle) < 1e-10

    def test_powerlaw_random_log(self):
        params = default_kernel_params("powerlaw")
        rng = RandomStream(12)
        log = self._random_log(rng, params.n_types, 1000, 50.0)
        clock = HawkesClock(params)
        for s, j in log:
            clock.apply_event(j, s)
        t_query = 50.0
        lam = clock.intensities(t_query)
        horizon = params.pl_horizon
        for i in range(params.n_types):
            truncated = brute_force_intensity(params, log, i, t_query,
                                              horizon=horizon)
            assert abs(lam[i] - truncated) < 1e-10

    def test_powerlaw_truncation_within_tail_bound(self):
        params = default_kernel_params("powerlaw")
        rng = RandomStream(13)
        # events spread far beyond the horizon
        log = self._random_log(rng, params.n_types, 1000, 300.0)
        clock = HawkesClock(params)
        for s, j in log:
            clock.apply_event(j, s)
        t_query = 300.0
        n_old = sum(1 for s, _ in log if t_query - s > params.pl_horizon)
        assert n_old > 0
        bound = powerlaw_tail_intensity_bound(params, n_old)
        lam = clock.intensities(t_query)
        for i in range(params.n_types):
            full = brute_force_intensity(params, log, i, t_query)
            assert abs(lam[i] - full) <= bound + 1e-10

    def test_intensity_never_below_baseline(self):
        params = default_kernel_params()
        clock = HawkesClock(params)
        rng = RandomStream(14)
        clock.simulate(50.0, rng)
        for t in (50.0, 55.0, 80.0, 200.0):
            lam = clock.intensities(t)
            assert np.all(lam >= params.mu - 1e-12)


class TestSampling:
    def test_poisson_rate(self):
        # alpha = 0: pure Poisson with total rate 2.0
        params = KernelParams(kind="exponential", mu=[1.2, 0.8],
                              alpha=np.zeros((2, 2)),
                              gamma=np.ones((2, 2)))
        clock = HawkesClock(params)
        rng = RandomStream(21)
        times, types = clock.simulate(10_000.0, rng)
        rate = len(times) / 10_000.0
        assert rate == pytest.approx(2.0, rel=0.02)

    def test_stationary_rate(self):
        clock = HawkesClock(one_type_params())
        rng = RandomStream(22)
        times, _ = clock.simulate(10_000.0, rng)
        # mu / (1 - alpha/gamma) = 2.0
        assert len(times) / 10_000.0 == pytest.approx(2.0, rel=0.05)

    def test_time_rescaling_ks(self):
        params = one_type_params()
        clock = HawkesClock(params, log_capacity=1 << 17)
        rng = RandomStream(23)
        times, _ = clock.simulate(6000.0, rng)
        assert len(times) >= 10_000
        times = times[:10_000]
        values = [exp_compensator(params, times, t) for t in times]
        rescaled = np.diff(np.array(values))
        result = stats.kstest(rescaled, "expon")
        assert result.pvalue > 0.01

    def test_poisson_interarrivals_exponential(self):
        params = KernelParams(kind="exponential", mu=[0.7],
                              alpha=[[0.0]], gamma=[[1.0]])
        clock = HawkesClock(params, log_capacity=1 << 15)
        rng = RandomStream(24)
        times, _ = clock.simulate(10_000.0, rng)
        gaps = np.diff(times)
        result = stats.kstest(gaps * 0.7, "expon")
        assert result.pvalue > 0.01

    def test_partition_invariance(self):
        params = default_kernel_params()
        c1 = HawkesClock(params)
        r1 = RandomStream(25)
        t1, e1 = c1.simulate(200.0, r1)

        c2 = HawkesClock(params)
        r2 = RandomStream(25)
        chunks_t, chunks_e = [], []
        boundaries = np.concatenate([np.linspace(0.37, 199.2, 57), [200.0]])
        for t_max in boundaries:
            tt, ee = c2.simulate(float(t_max), r2)
            chunks_t.append(tt)
            chunks_e.append(ee)
        t2 = np.concatenate(chunks_t)
        e2 = np.concatenate(chunks_e)
        assert np.array_equal(t1, t2)
        assert np.array_equal(e1, e2)

    def test_sample_next_event_matches_simulate(self):
        params = one_type_params()
        c1 = HawkesClock(params)
        r1 = RandomStream(26)
        t1, _ = c1.simulate(50.0, r1)

        c2 = HawkesClock(params)
        r2 = RandomStream(26)
        events = []
        while True:
            nxt = c2.sample_next_event(50.0, r2)
            if nxt is None:
                break
            events.append(nxt[0])
        assert np.array_equal(t1, np.array(events))

    def test_determinism(self):
        params = default_kernel_params()
        out = []
        for _ in range(2):
            clock = HawkesClock(params)
            rng = RandomStream(99)
            times, types = clock.simulate(50.0, rng)
            out.append((times, types))
        assert np.array_equal(out[0][0], out[1][0])
        assert np.array_equal(out[0][1], out[1][1])

    def test_unstable_params_rejected(self):
        with pytest.raises(ValueError, match="unstable"):
            KernelParams(kind="exponential", mu=[1.0], alpha=[[1.0]],
                         gamma=[[1.0]])


class TestHistoryFeatures:
    def test_empty_log(self):
        clock = HawkesClock(default_kernel_params())
        feats = clock.history_features(1.0)
        assert np.all(feats[:N_EVENT_TYPES] == 0)
        assert feats[-1] == 1.0

    def test_counts_in_window(self):
        from hawkeslob.events import EventType
        clock = HawkesClock(default_kernel_params())
        for k in range(3):
            clock.apply_event(int(EventType.MO_ASK), 0.5 + 0.01 * k)
        clock.intensities(1.0)  # queries must not affect features
        clock.apply_event(int(EventType.LO_BID_T), 1.0)
        feats = clock.history_features(1.0)
        assert feats[int(EventType.MO_ASK)] == 3
        assert feats[int(EventType.LO_BID_T)] == 1
        assert feats[-1] == 0.0

    def test_window_boundary_vs_linear_scan(self):
        params = default_kernel_params()
        clock = HawkesClock(params)
        rng = RandomStream(31)
        times, types = clock.simulate(30.0, rng)
        window = 1.0
        feats = clock.history_features(window)
        now = clock.now
        # oracle: plain linear filter over the raw log
        expected = np.zeros(N_EVENT_TYPES)
        for s, j in zip(times, types):
            if now - s <= window:
                expected[j] += 1
        assert np.array_equal(feats[:N_EVENT_TYPES], expected)
        assert feats[-1] == pytest.approx(now - times[-1])

    def test_bad_window(self):
        clock = HawkesClock(default_kernel_params())
        with pytest.raises(ValueError):
            clock.history_features(0.0)
