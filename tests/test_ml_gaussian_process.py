"""Unit tests for the Gaussian Process regressor and kernels."""

from unittest import mock

import numpy as np
import pytest

from determine_oracle import ReferenceGaussianProcess
from repro.ml import GaussianProcessRegressor, Matern52Kernel, RBFKernel, WhiteKernel
from repro.ml.kernels import PrecomputedKernel, ScaledKernel, SumKernel


class TestKernels:
    def test_rbf_is_one_at_zero_distance(self):
        kernel = RBFKernel(length_scale=2.0)
        points = np.array([[1.0, 2.0], [3.0, 4.0]])
        gram = kernel(points, points)
        assert np.allclose(np.diag(gram), 1.0)

    def test_rbf_decays_with_distance(self):
        kernel = RBFKernel(length_scale=1.0)
        a = np.array([[0.0]])
        near, far = kernel(a, np.array([[0.5], [5.0]]))[0]
        assert near > far

    def test_matern_is_rougher_than_rbf_nearby(self):
        # At small distances the Matern covariance falls off faster.
        rbf, matern = RBFKernel(1.0), Matern52Kernel(1.0)
        a, b = np.array([[0.0]]), np.array([[0.3]])
        assert matern(a, b)[0, 0] < rbf(a, b)[0, 0]

    def test_white_kernel_only_on_diagonal(self):
        kernel = WhiteKernel(noise=0.5)
        points = np.array([[1.0], [2.0]])
        gram = kernel(points, points)
        assert gram[0, 0] == pytest.approx(0.25)
        assert gram[0, 1] == 0.0

    def test_kernel_composition(self):
        combined = RBFKernel(1.0) + WhiteKernel(0.1)
        assert isinstance(combined, SumKernel)
        scaled = 2.0 * RBFKernel(1.0)
        assert isinstance(scaled, ScaledKernel)
        points = np.array([[0.0], [1.0]])
        assert scaled(points, points)[0, 0] == pytest.approx(2.0)

    def test_gram_matrix_is_positive_semidefinite(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(15, 3))
        for kernel in (RBFKernel(1.5), Matern52Kernel(0.7)):
            gram = kernel(points, points)
            eigenvalues = np.linalg.eigvalsh(gram)
            assert eigenvalues.min() > -1e-8

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RBFKernel(length_scale=0.0)
        with pytest.raises(ValueError):
            Matern52Kernel(length_scale=-1.0)
        with pytest.raises(ValueError):
            WhiteKernel(noise=-0.1)


class TestGaussianProcess:
    def test_interpolates_observations(self):
        x = np.linspace(0, 5, 8)[:, None]
        y = np.sin(x[:, 0])
        gp = GaussianProcessRegressor(noise=1e-4).fit(x, y)
        assert np.allclose(gp.predict(x), y, atol=1e-2)

    def test_uncertainty_grows_away_from_data(self):
        x = np.array([[0.0], [1.0], [2.0]])
        gp = GaussianProcessRegressor().fit(x, np.array([0.0, 1.0, 0.0]))
        _, std_near = gp.predict(np.array([[1.0]]), return_std=True)
        _, std_far = gp.predict(np.array([[10.0]]), return_std=True)
        assert std_far[0] > std_near[0]

    def test_incremental_update_matches_batch_fit(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 5, size=(10, 2))
        y = x[:, 0] * 2 + x[:, 1]
        batch = GaussianProcessRegressor(noise=1e-3).fit(x, y)
        incremental = GaussianProcessRegressor(noise=1e-3)
        for xi, yi in zip(x, y):
            incremental.add_observation(xi[None, :], yi)
        probe = rng.uniform(0, 5, size=(5, 2))
        assert np.allclose(batch.predict(probe), incremental.predict(probe))

    def test_prior_prediction_without_data(self):
        gp = GaussianProcessRegressor()
        mean, std = gp.predict(np.array([[1.0], [2.0]]), return_std=True)
        assert np.allclose(mean, 0.0)
        assert (std > 0).all()

    def test_n_observations_counter(self):
        gp = GaussianProcessRegressor()
        assert gp.n_observations == 0
        gp.add_observation(np.array([1.0, 2.0]), 3.0)
        gp.add_observation(np.array([2.0, 3.0]), 4.0)
        assert gp.n_observations == 2

    def test_log_marginal_likelihood_prefers_fitting_kernel(self):
        x = np.linspace(0, 10, 25)[:, None]
        y = np.sin(x[:, 0])
        good = GaussianProcessRegressor(Matern52Kernel(2.0), noise=0.05).fit(x, y)
        bad = GaussianProcessRegressor(Matern52Kernel(0.01), noise=0.05).fit(x, y)
        assert good.log_marginal_likelihood() > bad.log_marginal_likelihood()

    def test_samples_have_requested_shape(self):
        x = np.array([[0.0], [1.0]])
        gp = GaussianProcessRegressor().fit(x, np.array([0.0, 1.0]))
        draws = gp.sample(np.linspace(0, 1, 5)[:, None], n_samples=3, rng=2)
        assert draws.shape == (3, 5)

    def test_rejects_inconsistent_shapes(self):
        gp = GaussianProcessRegressor()
        with pytest.raises(ValueError):
            gp.fit(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            gp.fit(np.zeros((0, 2)), np.zeros(0))

    def test_lml_requires_observations(self):
        with pytest.raises(RuntimeError):
            GaussianProcessRegressor().log_marginal_likelihood()

    def test_normalization_handles_large_offsets(self):
        x = np.linspace(0, 5, 10)[:, None]
        y = np.sin(x[:, 0]) + 1e6
        gp = GaussianProcessRegressor(noise=1e-3).fit(x, y)
        assert np.allclose(gp.predict(x), y, rtol=1e-5)

    def test_rejects_non_finite_inputs_before_any_update(self):
        gp = GaussianProcessRegressor()
        with pytest.raises(ValueError):
            gp.fit(np.array([[0.0], [np.nan]]), np.zeros(2))
        with pytest.raises(ValueError):
            gp.fit(np.zeros((2, 1)), np.array([0.0, np.inf]))
        gp.fit(np.zeros((1, 1)), np.zeros(1))
        with pytest.raises(ValueError):
            gp.add_observation(np.array([np.nan]), 0.0)
        with pytest.raises(ValueError):
            gp.add_observation(np.array([1.0]), np.nan)
        with pytest.raises(ValueError):
            gp.predict(np.array([[np.inf]]))
        assert gp.n_observations == 1


def _integer_grid(width: int) -> np.ndarray:
    return np.array(
        [[v, s] for v in range(width) for s in range(width) if v + s > 0],
        dtype=np.float64,
    )


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestPrecomputedKernel:
    def test_slices_equal_fresh_kernel_values(self):
        grid = _integer_grid(13)
        kernel = Matern52Kernel(length_scale=4.2)
        indexed = PrecomputedKernel(kernel(grid, grid))
        rng = np.random.default_rng(0)
        for size_a, size_b in ((1, 1), (1, 7), (9, 1), (30, 20)):
            a = rng.choice(len(grid), size=size_a, replace=False)
            b = rng.choice(len(grid), size=size_b, replace=False)
            fresh = kernel(grid[a], grid[b])
            sliced = indexed(a[:, None].astype(float), b[:, None].astype(float))
            assert sliced.shape == fresh.shape
            assert np.array_equal(_bits(sliced), _bits(fresh))
            assert np.array_equal(
                _bits(indexed.diagonal(a[:, None])), _bits(kernel.diagonal(grid[a]))
            )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            PrecomputedKernel(np.ones((2, 3)))
        with pytest.raises(ValueError):
            PrecomputedKernel(np.eye(3))(np.zeros((1, 2)), np.zeros((1, 2)))


def _index_vs_coordinate(kernel, grid, order, targets, noise) -> bool:
    """Feed three GPs the same observations; compare every posterior.

    The index-space GP, the coordinate-space GP and the scipy-solved
    reference (``determine_oracle``) must agree bit for bit.  Returns
    ``False`` if the observations made the kernel matrix singular (which
    all three must then report alike).
    """
    coordinate = GaussianProcessRegressor(kernel, noise=noise)
    indexed = GaussianProcessRegressor(
        PrecomputedKernel(kernel(grid, grid)), noise=noise
    )
    reference = ReferenceGaussianProcess(kernel, noise)
    every = np.arange(len(grid), dtype=np.float64)[:, None]
    for index, target in zip(order, targets):
        singular = []
        for gp, point in (
            (coordinate, grid[index]),
            (indexed, every[index]),
            (reference, grid[index]),
        ):
            try:
                gp.add_observation(point, target)
                singular.append(False)
            except np.linalg.LinAlgError:
                singular.append(True)
        assert singular == [singular[0]] * 3
        if singular[0]:
            return False
        mean_c, std_c = coordinate.predict(grid, return_std=True)
        mean_i, std_i = indexed.predict(every, return_std=True)
        mean_r, std_r = reference.predict(grid)
        for mean, std in ((mean_i, std_i), (mean_r, std_r)):
            assert np.array_equal(_bits(mean), _bits(mean_c))
            assert np.array_equal(_bits(std), _bits(std_c))
    return True


class TestIndexSpaceGP:
    """A GP over candidate indices is bitwise the coordinate-space GP,
    and both are bitwise the scipy-solved reference."""

    @pytest.mark.parametrize("width, noise", [(13, 1e-2), (6, 1e-3), (2, 1e-2)])
    def test_posterior_bitwise_equal_on_integer_grids(self, width, noise):
        grid = _integer_grid(width)
        kernel = Matern52Kernel(length_scale=width / 2.0)
        rng = np.random.default_rng(width)
        order = rng.permutation(len(grid))[:40]
        targets = -(900.0 / grid[order].sum(axis=1)) + rng.normal(0, 5, order.size)
        _index_vs_coordinate(kernel, grid, order, targets, noise)

    def test_refactor_fallback_bitwise_equal(self):
        # A 1e6-scaled Matern at zero noise loses the 1e-10 jitter to
        # rounding, so repeated points drive the rank-1 extension's Schur
        # complement to <= 1e-12 and force full refactorisations.
        grid = _integer_grid(5)
        kernel = ScaledKernel(Matern52Kernel(1.0), 1e6)
        rng = np.random.default_rng(0)
        refactor = GaussianProcessRegressor._refactor
        with mock.patch.object(
            GaussianProcessRegressor, "_refactor", autospec=True,
            side_effect=refactor,
        ) as spy:
            fallbacks = 0
            for _ in range(100):
                order = rng.integers(0, len(grid), size=6)
                targets = rng.normal(size=6)
                spy.reset_mock()
                if _index_vs_coordinate(kernel, grid, order, targets, 0.0):
                    # Two GPs: one initial factorisation each, plus fallbacks.
                    fallbacks += spy.call_count > 2
        assert fallbacks > 0
