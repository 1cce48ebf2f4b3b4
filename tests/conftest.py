import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from mxemu import quantizer
from mxemu.quantizer import quantize_blocks

settings.register_profile(
    "mxemu",
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("mxemu")

SEED = 20250810


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture
def ramp_1024():
    """1024-point asymmetric ramp fixture, single row."""
    return np.linspace(-4.9, 31, 1024)


def shifted_gaussian(rng, n_groups, gs, sigma=1.0):
    """Per-group Gaussian with |shift| = sigma, random shift sign per group."""
    shifts = rng.choice([-sigma, sigma], n_groups)
    return rng.normal(0.0, sigma, (n_groups, gs)) + shifts[:, None]


def blocks_in_layout(x, cfg):
    """The values and the clamp mask that quantize_blocks(x, cfg) yields, each
    put together in x's shape: the blocks' rows in the grouped layout, viewed
    with the grouping axis moved back to cfg.axis."""
    blocks = list(quantize_blocks(x, cfg))
    moved_shape = np.moveaxis(np.empty(np.shape(x)), cfg.axis, -1).shape
    return [np.moveaxis(np.concatenate([b[part] for b in blocks]).reshape(moved_shape), -1,
                        cfg.axis) for part in (1, 2)]


@pytest.fixture(autouse=True)
def block_elems(request, monkeypatch):
    """Run a test under the block size its module sets as BLOCK_ELEMS, if any
    (see test_one_group_blocks.py); under quantizer's own otherwise."""
    size = getattr(request.module, "BLOCK_ELEMS", None)
    if size is not None:
        monkeypatch.setattr(quantizer, "BLOCK_ELEMS", size)
