"""Field and kernel tensors, and the error of the spectral singularity guard
(the guard itself is :func:`armakit.arma.ar_spectra`).

Conventions used throughout the package:

* fields are rank-3 arrays indexed ``(row, column, channel)`` in row-major
  order, double precision, optionally with a leading sample axis;
* all convolutions are circular (periodic boundary), so the DFT diagonalizes
  them exactly;
* the forward DFT is unnormalized and the inverse carries ``1/(I1*I2)``;
* every field is real, so spectra are half spectra of shape
  ``(I1, I2//2 + 1, C)`` (``numpy.fft.rfft2`` along the two grid axes); a
  separable kernel's spectrum is built from two 1D DFTs, one per axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Default guard threshold for frequency-domain division, an absolute bound
#: on every ``|G_hat| * |F_hat|``.  Re-parameterized kernels fall below it
#: once ``|beta|`` exceeds about 9.56; a guard on conditioning is ROADMAP item I.
DEFAULT_EPSILON = 1e-8


class SingularSpectrumError(ValueError):
    """A frequency-domain denominator entry fell below the guard threshold,
    or is not finite.

    Carries the offending frequency index so callers can report which mode of
    the autoregressive kernel is (near-)singular or out of range.
    """

    def __init__(self, index, magnitude, epsilon):
        self.index = tuple(int(i) for i in index)
        self.magnitude = float(magnitude)
        self.epsilon = float(epsilon)
        problem = (
            f"below guard {self.epsilon:.3e}" if np.isfinite(self.magnitude) else "is not finite"
        )
        super().__init__(
            f"spectrum magnitude {self.magnitude:.3e} {problem} at frequency index {self.index}"
        )


@dataclass(eq=False)
class FieldTensor:
    """Real-valued array of shape ``(height, width, channels)``, or a batch of
    such fields of shape ``(samples, height, width, channels)``.

    Entries must be finite on construction; shapes must be positive.
    """

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim not in (3, 4):
            raise ValueError(f"field must be rank-3 or rank-4, got shape {self.data.shape}")
        if min(self.data.shape) < 1:
            raise ValueError(f"field dimensions must be positive, got {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("field contains non-finite entries")

    @property
    def height(self) -> int:
        return self.data.shape[-3]

    @property
    def width(self) -> int:
        return self.data.shape[-2]

    @property
    def channels(self) -> int:
        return self.data.shape[-1]

    @classmethod
    def from_2d(cls, array) -> "FieldTensor":
        """Wrap a 2D array as a single-channel field."""
        array = np.asarray(array, dtype=np.float64)
        if array.ndim != 2:
            raise ValueError(f"expected a 2D array, got shape {array.shape}")
        return cls(array[:, :, np.newaxis])

    def plane(self, channel: int = 0) -> np.ndarray:
        """Return one channel as an array without the channel axis (a view)."""
        return self.data[..., channel]


@dataclass(eq=False)
class MaKernel:
    """Moving-average kernel of shape ``(tap_height, tap_width, out, in)``.

    Tap counts are odd so the kernel has a well-defined center; offsets run
    from ``-(K-1)/2`` to ``+(K-1)/2`` per axis and are scaled by ``dilation``
    when the kernel is applied.
    """

    data: np.ndarray
    dilation: int = 1

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 4:
            raise ValueError(f"kernel must be rank-4, got shape {self.data.shape}")
        kh, kw = self.data.shape[:2]
        if kh % 2 == 0 or kw % 2 == 0:
            raise ValueError(f"tap counts must be odd, got {kh}x{kw}")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("kernel contains non-finite entries")
        self.dilation = int(self.dilation)
        if self.dilation < 1:
            raise ValueError(f"dilation must be >= 1, got {self.dilation}")

    @property
    def tap_height(self) -> int:
        return self.data.shape[0]

    @property
    def tap_width(self) -> int:
        return self.data.shape[1]

    @property
    def out_channels(self) -> int:
        return self.data.shape[2]

    @property
    def in_channels(self) -> int:
        return self.data.shape[3]

