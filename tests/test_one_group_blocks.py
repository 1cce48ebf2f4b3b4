"""The quantizer, analysis and rotation tests once more, at one group per
block (one row for rotate): each bit-exactness oracle there then also covers
the multi-block path of quantizer.row_blocks. The block_elems fixture of
conftest.py reads BLOCK_ELEMS below."""

import numpy as np

from mxemu import quantizer
from test_analysis import *  # noqa: F401,F403
from test_quantizer import *  # noqa: F401,F403
from test_rotation import *  # noqa: F401,F403

BLOCK_ELEMS = 1


def test_this_module_runs_with_one_group_per_block():
    assert quantizer.BLOCK_ELEMS == 1
    xg = quantizer.group_view(np.zeros((2, 6)), 3)[1]
    assert [b.shape for _, b in quantizer.row_blocks(xg)] == [(1, 3)] * 4
