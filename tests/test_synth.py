import numpy as np
import pytest

from ordpat import (
    Ar1Config,
    InvalidRho,
    NotAligned,
    OutlierConfig,
    TooManyOutliers,
    analyze_pair,
    correlated_ar1_pair,
    gaussian_walk_pair,
    increment_correlation,
    inject_outliers,
)


def test_walk_determinism_and_independence_of_seeds():
    x1, y1 = gaussian_walk_pair(500, seed=7)
    x2, y2 = gaussian_walk_pair(500, seed=7)
    assert np.array_equal(x1.values, x2.values)
    assert np.array_equal(y1.values, y2.values)
    x3, _ = gaussian_walk_pair(500, seed=8)
    assert not np.array_equal(x1.values, x3.values)


def test_walk_is_cumulative_sum_of_increments():
    x, y = gaussian_walk_pair(100, seed=1)
    assert x.keys == tuple(str(i) for i in range(100))
    dx = np.diff(x.values)
    # first value is the first increment; steps are the later increments
    assert np.isfinite(x.values).all()
    assert abs(np.mean(dx)) < 0.5
    assert 0.5 < np.std(dx) < 1.5
    assert not np.array_equal(x.values, y.values)


def test_walk_increment_moments_at_scale():
    x, y = gaussian_walk_pair(5791, seed=2)
    for s in (x, y):
        d = np.diff(s.values)
        assert abs(d.var() - 1.0) < 0.1
        assert abs(d.mean()) < 0.05


def test_ar1_recursion_matches_manual_loop():
    cfg = Ar1Config(n=50, phi=0.99, rho=-0.8, seed=11)
    x, y = correlated_ar1_pair(cfg)
    # re-derive the noise from the series: z_t = x_t - phi * x_{t-1}
    z = np.empty(50)
    z[0] = x.values[0]
    z[1:] = x.values[1:] - cfg.phi * x.values[:-1]
    rebuilt = np.empty(50)
    rebuilt[0] = z[0]
    for t in range(1, 50):
        rebuilt[t] = cfg.phi * rebuilt[t - 1] + z[t]
    np.testing.assert_allclose(rebuilt, x.values, rtol=1e-10, atol=1e-10)
    assert y.keys == x.keys


def test_ar1_determinism():
    cfg = Ar1Config(n=200, phi=0.5, rho=0.3, seed=4)
    x1, y1 = correlated_ar1_pair(cfg)
    x2, y2 = correlated_ar1_pair(cfg)
    assert np.array_equal(x1.values, x2.values)
    assert np.array_equal(y1.values, y2.values)


def test_ar1_noise_moments_at_million_scale():
    # phi = 0 makes the outputs the raw noise pair
    rho = -0.8
    x, y = correlated_ar1_pair(Ar1Config(n=1_000_000, phi=0.0, rho=rho, seed=5))
    z, w = x.values, y.values
    assert abs(np.corrcoef(z, w)[0, 1] - rho) < 0.01
    for noise in (z, w):
        assert abs(noise.mean()) < 0.005
        assert abs(noise.var() - 1.0) < 0.01


def test_ar1_rho_zero_decouples():
    x, y = correlated_ar1_pair(Ar1Config(n=20_000, phi=0.0, rho=0.0, seed=6))
    assert abs(np.corrcoef(x.values, y.values)[0, 1]) < 0.05


def test_ar1_perfect_antithesis():
    x, y = correlated_ar1_pair(Ar1Config(n=300, phi=0.0, rho=-1.0, seed=7))
    assert np.array_equal(y.values, -x.values)
    rep = analyze_pair(x, y, 2)
    assert rep.p_neq == 1.0


def test_ar1_marginal_symmetry_under_swapped_roles():
    # swapping the two outputs while negating rho's construction role leaves
    # the marginal law unchanged; check second moments agree within noise
    a1, b1 = correlated_ar1_pair(Ar1Config(n=200_000, phi=0.5, rho=0.6, seed=8))
    a2, b2 = correlated_ar1_pair(Ar1Config(n=200_000, phi=0.5, rho=0.6, seed=9))
    assert abs(b1.values.var() - a2.values.var()) < 0.05
    assert abs(np.corrcoef(a1.values, b1.values)[0, 1]
               - np.corrcoef(a2.values, b2.values)[0, 1]) < 0.05


def test_ar1_config_validation():
    with pytest.raises(InvalidRho):
        Ar1Config(n=10, phi=0.5, rho=1.5, seed=0)
    with pytest.raises(ValueError):
        Ar1Config(n=1, phi=0.5, rho=0.5, seed=0)
    with pytest.raises(ValueError, match="^n must be >= 2, got 1$"):
        gaussian_walk_pair(1, 0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_phi_and_magnitude_are_rejected_by_name(value):
    with pytest.raises(ValueError, match="^phi must be finite"):
        Ar1Config(n=10, phi=value, rho=0.5, seed=0)
    with pytest.raises(ValueError, match="^magnitude must be finite"):
        OutlierConfig(k=1, magnitude=value, seed=0)


def test_inject_zero_outliers_is_identity():
    x, y = correlated_ar1_pair(Ar1Config(n=100, phi=0.0, rho=0.0, seed=10))
    ox, oy = inject_outliers(x, y, OutlierConfig(k=0, magnitude=10.0, seed=1))
    assert np.array_equal(ox.values, x.values)
    assert np.array_equal(oy.values, y.values)
    assert ox.keys == x.keys


def test_inject_sets_exact_values_at_k_positions():
    x, y = correlated_ar1_pair(Ar1Config(n=503, phi=0.0, rho=0.0, seed=12))
    ox, oy = inject_outliers(x, y, OutlierConfig(k=12, magnitude=10.0, seed=13))
    hit_x = np.flatnonzero(ox.values != x.values)
    hit_y = np.flatnonzero(oy.values != y.values)
    # standard normal draws never hit +/-10, so exactly k positions change
    assert len(hit_x) == len(hit_y) == 12
    assert np.array_equal(hit_x, hit_y)
    assert (ox.values[hit_x] == 10.0).all()
    assert (oy.values[hit_y] == -10.0).all()


def test_inject_determinism():
    x, y = correlated_ar1_pair(Ar1Config(n=100, phi=0.0, rho=0.0, seed=14))
    a = inject_outliers(x, y, OutlierConfig(k=5, magnitude=10.0, seed=2))
    b = inject_outliers(x, y, OutlierConfig(k=5, magnitude=10.0, seed=2))
    assert np.array_equal(a[0].values, b[0].values)


def test_inject_validation():
    x, y = correlated_ar1_pair(Ar1Config(n=10, phi=0.0, rho=0.0, seed=15))
    with pytest.raises(TooManyOutliers):
        inject_outliers(x, y, OutlierConfig(k=11, magnitude=10.0, seed=0))
    with pytest.raises(ValueError):
        OutlierConfig(k=-1, magnitude=10.0, seed=0)
    other, _ = correlated_ar1_pair(Ar1Config(n=11, phi=0.0, rho=0.0, seed=16))
    with pytest.raises(NotAligned):
        inject_outliers(x, other, OutlierConfig(k=1, magnitude=10.0, seed=0))


def test_outlier_construction_breaks_correlation_not_patterns():
    # correlated measurement errors swing the increment correlation while the
    # reflected-pattern rate stays near the independence level
    x, y = correlated_ar1_pair(Ar1Config(n=503, phi=0.0, rho=0.0, seed=17))
    before = increment_correlation(x, y)
    ox, oy = inject_outliers(x, y, OutlierConfig(k=12, magnitude=10.0, seed=18))
    after = increment_correlation(ox, oy)
    assert abs(before) < 0.2
    assert after < -0.5
    rep = analyze_pair(ox, oy, 2)
    assert 60 <= rep.n_reflected <= 130  # independence level for 501 windows
