"""ARMA convolutional layers and receptive-field analysis.

The layer couples a standard (moving-average) convolution on its inputs with
convolutional constraints among its outputs (the autoregressive part), solved
exactly by frequency-domain division.  The package provides the forward and
analytic backward passes, a provably stable unconstrained parameterization of
the autoregressive filters, an effective-receptive-field toolkit with both
analytic and empirical radii, a small training harness, and a CLI.
"""

from .numerics import DEFAULT_EPSILON, FieldTensor, MaKernel, SingularSpectrumError
from .filters import (
    SeparableArKernel,
    compose_1d,
    materialize,
    materialize_2d,
    reparam_gradient,
)
from .arma import (
    ArGradients,
    ArmaLayerParams,
    LayerCache,
    ar_forward_dense,
    arma_backward,
    arma_forward,
    layer_backward,
    layer_forward,
)
from .erf import (
    ErfMap,
    LayerSpec1D,
    LinearNetSpec,
    WraparoundError,
    analytic_radius_arma,
    effective_filter_1d,
    empirical_erf_1d,
    empirical_erf_2d,
    erf_axis_variance,
    erf_radius,
    layer_moments,
)
from .training import (
    ToyTask,
    TrainConfig,
    TrainTrace,
    finite_diff_grad,
    train,
)

__version__ = "0.1.0"
