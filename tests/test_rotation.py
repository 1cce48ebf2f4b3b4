import numpy as np
import pytest
from scipy.linalg import hadamard

from mxemu.analysis import group_stats, stats_summary
from mxemu.errors import ConfigError, DataError
from mxemu.rotation import make_rotation, rotate, splitmix64


def rotation_matrix(spec):
    """Dense d x d matrix of the rotation, for checking rotate against."""
    return rotate(np.eye(spec.dim), spec, axis=0)


def splitmix64_reference(seed, n):
    """Independent pure-Python splitmix64."""
    mask = (1 << 64) - 1
    x = seed & mask
    out = []
    for _ in range(n):
        x = (x + 0x9E3779B97F4A7C15) & mask
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def radix2_rotate(x, spec, axis=-1, transpose=False):
    """rotate spelled out with one radix-2 butterfly stage at a time: the
    bits contract of the fused butterfly."""
    y = np.moveaxis(np.asarray(x, dtype=float), axis, -1) * (1.0 if transpose else spec.signs)
    y = np.ascontiguousarray(y)
    rows = y.reshape(-1, spec.dim)  # a view: the stages write into y
    n, h = spec.dim, 1
    while h < n:
        blocks = rows.reshape(-1, n // (2 * h), 2, h)
        a = blocks[:, :, 0, :]
        b = blocks[:, :, 1, :]
        s = a + b
        np.subtract(a, b, out=b)
        a[...] = s
        h *= 2
    y *= 1.0 / np.sqrt(spec.dim)
    if transpose:
        y *= spec.signs
    return np.moveaxis(y, -1, axis)


@pytest.mark.parametrize("log2_dim", range(13))
def test_rotate_bits_match_the_radix2_butterfly(log2_dim):
    dim = 1 << log2_dim
    spec = make_rotation(dim, 100 + log2_dim)
    rng = np.random.default_rng(log2_dim)
    for axis in (-1, 0, 1):
        shape = [3, 2, 5]
        shape[axis] = dim
        for exponents in ((-30, 31), (30, 31), (-30, -29)):
            # 2**-30 to 2**30 mixed, then all 2**30, then all 2**-30: the sums round
            x = rng.normal(0, 1, shape) * 2.0 ** rng.integers(*exponents, shape)
            for transpose in (False, True):
                got = rotate(x, spec, axis=axis, transpose=transpose)
                want = radix2_rotate(x, spec, axis=axis, transpose=transpose)
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_splitmix64_matches_reference():
    for seed in (0, 1, 42, 2**64 - 1):
        got = splitmix64(seed, 8).tolist()
        assert got == splitmix64_reference(seed, 8)


def test_dim_one():
    spec = make_rotation(1, 3)
    r = rotation_matrix(spec)
    assert abs(r[0, 0]) == 1.0


def test_dim_two_plus_signs():
    # find a seed whose two signs are +1, +1
    seed = next(s for s in range(64) if np.all(make_rotation(2, s).signs == 1.0))
    spec = make_rotation(2, seed)
    r = rotation_matrix(spec)
    np.testing.assert_allclose(r, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(r @ np.array([1.0, 0.0]),
                               [2**-0.5, 2**-0.5], atol=1e-15)


def test_rotation_relates_to_sylvester_hadamard():
    for dim in (4, 16, 64):
        spec = make_rotation(dim, 99)
        r = rotation_matrix(spec)
        # undoing the sign diagonal must leave exactly H/sqrt(d)
        np.testing.assert_allclose(
            r * spec.signs[None, :], hadamard(dim) / np.sqrt(dim), atol=1e-12
        )


@pytest.mark.parametrize("dim", [2, 8, 64, 256])
def test_orthogonality(dim):
    r = rotation_matrix(make_rotation(dim, 7))
    assert np.abs(r @ r.T - np.eye(dim)).max() < 1e-10


@pytest.mark.parametrize("x, match", [
    (np.r_[np.ones(5), np.nan, np.ones(2)], "non-finite input value at flat index 5"),
    (np.r_[-np.inf, np.ones(7)], "non-finite input value at flat index 0"),
    (np.zeros((0, 8)), "empty input tensor"),
])
def test_rotate_rejects_bad_input(x, match):
    # a NaN or inf would spread to its whole row through the butterfly
    with pytest.raises(DataError, match=match):
        rotate(x, make_rotation(8, 1))


def test_non_power_of_two_rejected():
    for dim in (0, 3, 20, -4):
        with pytest.raises(ConfigError, match="power of two"):
            make_rotation(dim, 0)


def test_rotate_then_transpose_recovers(rng):
    x = rng.normal(0, 5, (16, 128))
    spec = make_rotation(128, 11)
    y = rotate(rotate(x, spec), spec, transpose=True)
    assert np.abs(y - x).max() <= 1e-9 * np.abs(x).max()


def test_isometry(rng):
    x = rng.normal(0, 3, (4, 64))
    spec = make_rotation(64, 5)
    y = rotate(x, spec)
    for xi, yi in zip(x, y):
        assert abs(np.linalg.norm(yi) - np.linalg.norm(xi)) <= 1e-9 * np.linalg.norm(xi)


def test_determinism_and_seed_sensitivity():
    a = make_rotation(64, 12).signs
    b = make_rotation(64, 12).signs
    c = make_rotation(64, 13).signs
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_dimension_mismatch():
    spec = make_rotation(64, 0)
    with pytest.raises(ConfigError, match="extent"):
        rotate(np.zeros((4, 32)), spec)


def test_out_of_range_axis():
    with pytest.raises(ConfigError, match=r"axis 5 out of range for shape \(4, 64\)"):
        rotate(np.zeros((4, 64)), make_rotation(64, 0), axis=5)


def test_axis_zero():
    x = np.random.default_rng(0).normal(0, 1, (8, 3))
    spec = make_rotation(8, 2)
    y = rotate(x, spec, axis=0)
    np.testing.assert_allclose(y, rotation_matrix(spec) @ x, atol=1e-12)


@pytest.mark.parametrize("axis", [-1, 0])
@pytest.mark.parametrize("transpose", [False, True])
def test_rotate_leaves_input_unchanged(rng, axis, transpose):
    x = rng.normal(0, 1, (16, 16))
    before = x.copy()
    y = rotate(x, make_rotation(16, 4), axis=axis, transpose=transpose)
    np.testing.assert_array_equal(x, before)
    assert not np.shares_memory(x, y)


def test_one_hot_spike_flattens():
    x = np.zeros(64)
    x[19] = 8.0
    spec = make_rotation(64, 21)
    y = rotate(x, spec)
    np.testing.assert_allclose(np.abs(y), 1.0, atol=1e-12)
    k_before = group_stats(x).kurtosis[0]
    k_after = group_stats(y).kurtosis[0]
    assert k_after <= k_before
    assert abs(k_after - 1.0) < 1e-9
    assert k_before > 50


def spike_plus_noise(rng, rows=64, dim=1024):
    x = rng.normal(0, 0.05, (rows, dim))
    hot = rng.integers(0, dim, rows)
    x[np.arange(rows), hot] += 8.0
    return x


def test_rotation_trades_kurtosis_for_mean_spread(rng):
    x = spike_plus_noise(rng)
    spec = make_rotation(1024, 17)
    y = rotate(x, spec)
    k_before = stats_summary(group_stats(x, None)).kurtosis.median
    k_after = stats_summary(group_stats(y, None)).kurtosis.median
    assert k_after <= k_before
    iqr_before = stats_summary(group_stats(x, 32)).mean.iqr
    iqr_after = stats_summary(group_stats(y, 32)).mean.iqr
    assert iqr_after >= iqr_before
