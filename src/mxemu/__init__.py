"""mxemu: bit-exact emulation of microscaling number formats.

Group-wise low-precision quantization with shared scales (symmetric and
asymmetric), emulated reduced-precision GEMM, quantization-error analysis,
randomized Hadamard rotation, and a cluster-wise Lloyd-Max reference
quantizer. Pure numpy, deterministic throughout.
"""

from .analysis import (
    ErrorReport,
    GroupStats,
    StatsSummary,
    error_decomposition,
    group_stats,
    mse,
    stats_summary,
)
from .errors import ConfigError, DataError, MxemuError, TensorFileError
from .formats import (
    ELEMENT_FORMAT_NAMES,
    FORMATS,
    ElementFormat,
    emax_elem,
    get_format,
    grid,
    max_normal,
    parse_format,
    register_codebook_format,
    round_to_grid,
)
from .gemm import AccumSpec, dot, matmul
from .lloydmax import Codebook, LloydConfig, cluster_groups, lloyd_fit, reference_quantize
from .quantizer import (
    QuantConfig,
    QuantizedTensor,
    config,
    dequantize,
    quantize,
    quantize_dequantize,
)
from .rotation import RotationSpec, make_rotation, rotate
from .scaling import (
    SCALE_MODES,
    ScaleMode,
    fp_scale,
    get_scale_mode,
    nvfp4_scales,
    pot_floor_scale,
    pot_round_scale,
)

__version__ = "0.1.0"
