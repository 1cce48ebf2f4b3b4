"""Benchmark inputs: activations with the group structure AMXFP4 targets."""

from __future__ import annotations

import numpy as np

GS = 32


def activation(rows, cols, normal, uniform):
    """Float64 activation whose groups of GS are what AMXFP4 targets.

    Every group gets its own random shift, so its positive and negative
    sides have different ranges. A few outlier channels make elements clamp.
    A few groups are all zero or one-signed, so scales take the degenerate
    path; the first three groups of row 0 always are, whatever the seed.
    Every eighth row holds multiples of 1/8, so that under power-of-two
    scales many elements fall exactly on rounding midpoints and the tie rule
    decides their codes.
    """
    groups = cols // GS
    x = normal((rows, cols)) + np.repeat(0.75 * normal((rows, groups)), GS, axis=1)
    outliers = np.argsort(uniform(cols), kind="stable")[: max(1, cols // 1024)]
    x[:, outliers] *= 40.0
    view = x.reshape(rows, groups, GS)
    pick = uniform((rows, groups))
    pick[0, :3] = (0.0, 0.01, 0.02)
    view[pick < 0.005] = 0.0
    pos = (pick >= 0.005) & (pick < 0.015)
    neg = (pick >= 0.015) & (pick < 0.025)
    view[pos] = np.abs(view[pos])
    view[neg] = -np.abs(view[neg])
    x[::8] = np.round(x[::8] * 8.0) / 8.0
    return x


def seeded_activation(rng, rows, cols):
    """Activation drawn from a numpy Generator."""
    return activation(rows, cols, rng.standard_normal, rng.random)


def fixed_activation(rows, cols, seed=0):
    """Activation from raw PCG64 bits and exact arithmetic only.

    numpy keeps the raw bit streams stable across versions but not the
    samplers built on them, so digests of this input stay valid when the
    Generator's normal sampler changes.
    """
    bits = np.random.PCG64(seed)

    def uniform(shape):
        raw = bits.random_raw(int(np.prod(shape)))
        return ((raw >> np.uint64(11)).astype(np.float64) * 2.0**-53).reshape(shape)

    def normal(shape):
        acc = np.zeros(shape)
        for _ in range(12):  # Irwin-Hall: mean 6, variance 1
            acc = acc + uniform(shape)
        return acc - 6.0

    return activation(rows, cols, normal, uniform)
