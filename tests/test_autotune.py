"""Autotuner tests: GP surrogate, acquisition, Bayesian search, tile tuner."""

import numpy as np
import pytest

from repro.autotune import (BayesianOptimizer, GaussianProcess, SearchSpace,
                            TileTuner, expected_improvement, grid_search,
                            lower_confidence_bound, random_search, rbf_kernel)
from repro.gpusim import XAVIER
from repro.kernels import LayerConfig

from helpers import rng


class TestSearchSpace:
    def test_basic_properties(self):
        space = SearchSpace.from_tiles([(4, 4), (8, 8), (16, 16)])
        assert len(space) == 3 and space.dim == 2
        assert space.index((8, 8)) == 1

    def test_normalized_in_unit_cube(self):
        space = SearchSpace.from_tiles([(2, 4), (8, 64), (32, 16)])
        coords = space.normalized()
        assert coords.min() >= 0.0 and coords.max() <= 1.0
        assert coords.shape == (3, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace(points=())

    def test_mixed_dim_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace(points=((1, 2), (1, 2, 3)))


class TestGaussianProcess:
    def test_interpolates_training_points(self):
        x = np.array([[0.0], [0.5], [1.0]])
        y = np.array([1.0, -1.0, 2.0])
        gp = GaussianProcess(lengthscale=0.3, noise=1e-6).fit(x, y)
        mean, std = gp.predict(x)
        assert np.allclose(mean, y, atol=1e-2)
        assert (std < 0.1).all()

    def test_uncertainty_grows_away_from_data(self):
        x = np.array([[0.0], [0.1]])
        y = np.array([0.0, 0.1])
        gp = GaussianProcess(lengthscale=0.1).fit(x, y)
        _, std_near = gp.predict(np.array([[0.05]]))
        _, std_far = gp.predict(np.array([[0.9]]))
        assert std_far > std_near

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GaussianProcess().predict(np.zeros((1, 1)))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            GaussianProcess().fit(np.zeros((3, 1)), np.zeros(2))

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            GaussianProcess(lengthscale=0.0)

    def test_rbf_kernel_diagonal_is_variance(self):
        a = rng(0).normal(size=(4, 2))
        k = rbf_kernel(a, a, lengthscale=0.5, variance=2.0)
        assert np.allclose(np.diag(k), 2.0)


class TestAcquisition:
    def test_ei_zero_when_certain_and_worse(self):
        ei = expected_improvement(np.array([5.0]), np.array([1e-12]),
                                  best=1.0)
        assert ei[0] == pytest.approx(0.0, abs=1e-9)

    def test_ei_positive_when_mean_better(self):
        ei = expected_improvement(np.array([0.0]), np.array([0.1]),
                                  best=1.0)
        assert ei[0] > 0.5

    def test_ei_rewards_uncertainty(self):
        low = expected_improvement(np.array([1.0]), np.array([0.01]),
                                   best=1.0)
        high = expected_improvement(np.array([1.0]), np.array([1.0]),
                                    best=1.0)
        assert high[0] > low[0]

    def test_lcb_ordering(self):
        s = lower_confidence_bound(np.array([1.0, 1.0]),
                                   np.array([0.1, 1.0]))
        assert s[1] > s[0]   # more uncertain = more promising

    def test_ei_bit_identical_to_the_scipy_stats_form(self):
        """``scipy.special.ndtr`` and the PDF written out give the former
        ``scipy.stats.norm`` EI bit for bit: over random means and
        spreads, on a z sweep out to ±40, and with std at its 1e-12
        floor (where z reaches ±1e12)."""
        import acquisition_reference as ref

        g = rng(5)
        n = 20_000
        rand_mean = g.normal(size=n) * 10.0 ** g.integers(-6, 4, size=n)
        rand_std = np.abs(g.normal(size=n)) * 10.0 ** g.integers(-14, 3,
                                                                 size=n)
        z = np.concatenate([np.linspace(-40.0, 40.0, 8001), [-40.0, 40.0]])
        floor_std = np.array([0.0, -1.0, 1e-15, 1e-13, 1e-12, 2e-12] * 3)
        floor_mean = np.repeat([0.49, 0.5, 0.51], 6)
        cases = [(rand_mean, rand_std, 0.7, 0.01),
                 (rand_mean, rand_std, -3.0, 0.0),
                 (0.5 - 0.01 - z, np.ones_like(z), 0.5, 0.01),
                 (0.5 - 0.01 - 40 * rand_std, rand_std, 0.5, 0.01),
                 (0.5 - 0.01 + 40 * rand_std, rand_std, 0.5, 0.01),
                 (floor_mean, floor_std, 0.5, 0.01),
                 (np.float64(0.3), np.float64(0.2), 0.5, 0.01)]
        for mean, std, best, xi in cases:
            got = expected_improvement(mean, std, best, xi)
            want = ref.expected_improvement(mean, std, best, xi)
            assert type(got) is type(want)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestBayesianOptimizer:
    def _space(self):
        return SearchSpace.from_tiles(
            [(ty, tx) for ty in (2, 4, 8, 16, 32) for tx in (2, 4, 8, 16, 32)])

    def test_finds_optimum_of_smooth_function(self):
        space = self._space()

        def objective(tile):
            ty, tx = tile
            return (np.log2(ty) - 3) ** 2 + (np.log2(tx) - 3) ** 2

        result = BayesianOptimizer(space, seed=0).minimize(objective,
                                                           budget=12)
        assert result.best_point == (8, 8)
        assert result.evaluations == 12

    def test_budget_clipped_to_space(self):
        space = SearchSpace.from_tiles([(2, 2), (4, 4)])
        result = BayesianOptimizer(space, seed=0).minimize(
            lambda t: float(t[0]), budget=50)
        assert result.evaluations == 2
        assert result.best_point == (2, 2)

    def test_deterministic_given_seed(self):
        space = self._space()

        def objective(tile):
            return float(tile[0] * 31 % 7 + tile[1] * 17 % 5)

        a = BayesianOptimizer(space, seed=3).minimize(objective, budget=10)
        b = BayesianOptimizer(space, seed=3).minimize(objective, budget=10)
        assert a.history == b.history

    def test_best_trace_monotone(self):
        space = self._space()
        result = BayesianOptimizer(space, seed=1).minimize(
            lambda t: float((t[0] - 7) ** 2 + t[1]), budget=10)
        trace = result.best_trace()
        assert all(a >= b for a, b in zip(trace, trace[1:]))

    def test_histories_match_the_scipy_stats_form_on_tied_values(
            self, monkeypatch):
        """300 searches over random tile spaces whose objective takes
        only four distinct values, so expected improvements tie often:
        every history equals the one the former ``scipy.stats`` EI
        gives."""
        import acquisition_reference as ref
        import repro.autotune.bayesopt as bayesopt

        g = rng(11)
        extents = (2, 4, 8, 16, 32, 64)
        searches = []
        for _ in range(300):
            tiles = [(ty, tx) for ty in extents for tx in extents
                     if g.random() < 0.5] or [(2, 2)]
            values = dict(zip(tiles, g.integers(0, 4, size=len(tiles))
                              .astype(float)))
            searches.append((SearchSpace.from_tiles(tiles), values,
                             int(g.integers(1000)), int(g.integers(5, 16))))

        def histories():
            return [BayesianOptimizer(space, seed=seed).minimize(
                        values.__getitem__, budget=budget).history
                    for space, values, seed, budget in searches]

        today = histories()
        monkeypatch.setattr(bayesopt, "expected_improvement",
                            ref.expected_improvement)
        assert histories() == today

    def test_matches_or_beats_random_on_structured_objective(self):
        space = self._space()

        def objective(tile):
            ty, tx = tile
            return abs(np.log2(ty) - 2.0) + abs(np.log2(tx) - 4.0)

        bo = BayesianOptimizer(space, seed=0).minimize(objective, budget=12)
        rs = random_search(space, objective, budget=12, seed=0)
        assert bo.best_value <= rs.best_value + 1e-9


class TestGridAndRandom:
    def test_grid_search_exhaustive(self):
        space = SearchSpace.from_tiles([(2, 2), (4, 4), (8, 8)])
        result = grid_search(space, lambda t: float(-t[0]))
        assert result.evaluations == 3
        assert result.best_point == (8, 8)

    def test_random_search_distinct_points(self):
        space = SearchSpace.from_tiles(
            [(i, i) for i in (2, 4, 8, 16, 32, 64)])
        result = random_search(space, lambda t: float(t[0]), budget=6,
                               seed=0)
        assert len({p for p, _ in result.history}) == 6


class TestTileTuner:
    CFG = LayerConfig(16, 16, 24, 24)

    def test_bayes_matches_grid_oracle_or_close(self):
        tuner = TileTuner(XAVIER, budget=12, seed=0)
        bayes = tuner.tune(self.CFG, "bayes")
        oracle = tuner.tune(self.CFG, "grid")
        assert bayes.best_value <= oracle.best_value * 1.1

    def test_cache_returns_same_result(self):
        tuner = TileTuner(XAVIER, budget=6, seed=0)
        assert tuner.tune(self.CFG) is tuner.tune(self.CFG)

    def test_best_tile_is_legal(self):
        tuner = TileTuner(XAVIER, budget=6, seed=0)
        ty, tx = tuner.best_tile(self.CFG)
        assert ty * tx <= XAVIER.max_threads_per_block

    def test_rejects_non_texture_backend(self):
        with pytest.raises(ValueError):
            TileTuner(XAVIER, backend="pytorch")

    @pytest.mark.parametrize("budget", [0, -1])
    def test_rejects_a_budget_below_one(self, budget):
        with pytest.raises(ValueError, match="at least one evaluation"):
            TileTuner(XAVIER, budget=budget)

    def test_unknown_method(self):
        tuner = TileTuner(XAVIER, budget=4)
        with pytest.raises(ValueError):
            tuner.tune(self.CFG, "annealing")

    def test_tune_layers_deduplicates(self):
        tuner = TileTuner(XAVIER, budget=4, seed=0)
        tiles = tuner.tune_layers([self.CFG, self.CFG])
        assert len(tiles) == 1
