"""Orthonormal discrete wavelet transform for dyadic-length signals.

Periodic (circular) boundary handling keeps the transform exactly
orthonormal at every decomposition level, so forward/inverse are adjoint
maps and energy is preserved.  Coefficient vectors are laid out as
``[scale block (2**j0 values) | detail blocks, coarsest to finest]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DataError, DimensionError, _as_int

# Extremal-phase Daubechies lowpass filters, named by vanishing-moment
# count ("db4" has 4 vanishing moments, 8 taps).  Values are frozen from a
# 60-digit spectral factorization; orthonormality holds to ~1e-16 in
# double precision.
FILTERS: dict[str, tuple[float, ...]] = {
    "haar": (
        0.70710678118654757,
        0.70710678118654757,
    ),
    "db2": (
        -0.12940952255126037,
        0.22414386804201339,
        0.83651630373780794,
        0.48296291314453416,
    ),
    "db3": (
        0.035226291885709533,
        -0.085441273882026658,
        -0.13501102001025458,
        0.45987750211849154,
        0.80689150931109255,
        0.33267055295008263,
    ),
    "db4": (
        -0.010597401785069032,
        0.032883011666885197,
        0.030841381835560764,
        -0.18703481171909309,
        -0.027983769416859854,
        0.63088076792985892,
        0.71484657055291567,
        0.23037781330889651,
    ),
    "db5": (
        0.0033357252854737712,
        -0.012580751999081999,
        -0.0062414902127982744,
        0.077571493840045719,
        -0.032244869584638375,
        -0.24229488706638203,
        0.13842814590132074,
        0.72430852843777294,
        0.60382926979718965,
        0.16010239797419293,
    ),
    "db6": (
        -0.0010773010853084796,
        0.0047772575109455108,
        0.00055384220116149613,
        -0.03158203931748603,
        0.027522865530305727,
        0.097501605587323043,
        -0.12976686756726194,
        -0.22626469396543983,
        0.31525035170919763,
        0.75113390802109536,
        0.49462389039845306,
        0.11154074335010947,
    ),
    "db7": (
        0.00035371379997452024,
        -0.0018016407040474908,
        0.00042957797292136651,
        0.01255099855609984,
        -0.016574541630666881,
        -0.038029936935014413,
        0.080612609151083078,
        0.071309219266830259,
        -0.22403618499387498,
        -0.14390600392856498,
        0.46978228740519312,
        0.72913209084623509,
        0.39653931948191729,
        0.077852054085009184,
    ),
    "db8": (
        -0.00011747678412476953,
        0.00067544940645056933,
        -0.00039174037337694705,
        -0.0048703529934515741,
        0.0087460940474057766,
        0.013981027917398282,
        -0.044088253930794755,
        -0.017369301001807547,
        0.12874742662047847,
        0.00047248457391328279,
        -0.28401554296154691,
        -0.015829105256349306,
        0.58535468365420673,
        0.67563073629728976,
        0.31287159091429995,
        0.054415842243104008,
    ),
    "db9": (
        3.9347320316271603e-05,
        -0.00025196318894271012,
        0.00023038576352319597,
        0.0018476468830562265,
        -0.0042815036824634303,
        -0.0047232047577513972,
        0.022361662123679096,
        0.00025094711483145197,
        -0.067632829061329974,
        0.03072568147933338,
        0.14854074933810638,
        -0.096840783222976456,
        -0.29327378327917492,
        0.13319738582500756,
        0.65728807805130052,
        0.60482312369011115,
        0.24383467461259034,
        0.038077947363878345,
    ),
    "db10": (
        -1.3264202894521244e-05,
        9.3588670320069592e-05,
        -0.00011646685512928545,
        -0.00068585669495971162,
        0.0019924052951850561,
        0.0013953517470529011,
        -0.010733175483330575,
        0.0036065535669561697,
        0.033212674059341002,
        -0.029457536821875813,
        -0.071394147166397082,
        0.093057364603572348,
        0.12736934033579325,
        -0.19594627437737705,
        -0.24984642432731538,
        0.28117234366057747,
        0.68845903945360354,
        0.52720118893172563,
        0.1881768000776915,
        0.026670057900555554,
    ),
}

DEFAULT_FAMILY = "db4"
DEFAULT_J0 = 3

# values per block of rows that a batch transform, a batch of scores and the
# curve CSV reader work on at a time: every level step is per row, so the
# blocks give the same bits as the whole batch, and the temporaries stay a
# few blocks in size however many rows there are
_BLOCK_VALUES = 64 * 1024


def _is_power_of_two(d: int) -> bool:
    return d >= 2 and (d & (d - 1)) == 0


@dataclass(frozen=True)
class WaveletBasis:
    """A named filter family plus the (j0, d) geometry of the transform.

    The lowpass taps are ``FILTERS[family]``, and the highpass filter is
    their quadrature mirror, so the family name alone fixes both filters.
    """

    family: str
    j0: int
    d: int

    def __post_init__(self):
        if self.family not in FILTERS:
            known = ", ".join(sorted(FILTERS))
            raise DataError(f"unknown wavelet family {self.family!r} (supported: {known})")
        for name in ("j0", "d"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        if not _is_power_of_two(self.d):
            raise DataError(f"signal length d={self.d} is not a power of two >= 2")
        if self.j0 < 0:
            raise DataError(f"coarsest scale j0={self.j0} must be >= 0")
        if (1 << self.j0) >= self.d:
            raise DataError(
                f"coarsest scale j0={self.j0} leaves no detail levels for d={self.d}"
            )

    @property
    def lowpass(self) -> tuple[float, ...]:
        return FILTERS[self.family]

    @property
    def n_scale(self) -> int:
        """Size of the unpenalized scale block, 2**j0."""
        return 1 << self.j0


def make_basis(family: str = DEFAULT_FAMILY, j0: int = DEFAULT_J0, d: int = 256) -> WaveletBasis:
    """Build a :class:`WaveletBasis` from a named filter family."""
    return WaveletBasis(family=family, j0=j0, d=d)


def _filter_pair(basis: WaveletBasis) -> tuple[np.ndarray, np.ndarray]:
    h = np.asarray(basis.lowpass, dtype=float)
    # quadrature mirror: g[k] = (-1)^k h[L-1-k]
    g = h[::-1].copy()
    g[1::2] *= -1.0
    return h, g


def _as_batch(x, d: int, what: str) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
        squeeze = True
    elif arr.ndim == 2:
        squeeze = False
    else:
        raise DimensionError(f"{what} must be 1-D or 2-D, got ndim={arr.ndim}")
    if arr.shape[1] != d:
        raise DimensionError(f"{what} has length {arr.shape[1]}, basis expects d={d}")
    return arr, squeeze


def _analysis_step(a: np.ndarray, h: np.ndarray, g: np.ndarray):
    # tap k reads sample 2i+k: phase k % 2, rolled left by k // 2
    approx = np.zeros((a.shape[0], a.shape[1] // 2))
    detail = np.zeros_like(approx)
    for k in range(h.size):
        x = np.roll(a[:, k % 2 :: 2], -(k // 2), axis=1)
        approx += h[k] * x
        detail += g[k] * x
    return approx, detail


def _synthesis_step(approx: np.ndarray, detail: np.ndarray, h: np.ndarray, g: np.ndarray):
    out = np.zeros((approx.shape[0], 2 * approx.shape[1]))
    # adjoint of the analysis loop; running the taps downwards adds each
    # output's terms in window order (window i before window i+1), except at
    # outputs that wrap around the period, which take theirs in tap order
    for k in range(h.size - 1, -1, -1):
        out[:, k % 2 :: 2] += np.roll(approx * h[k] + detail * g[k], k // 2, axis=1)
    return out


def _block_bounds(n: int, d: int):
    """Start and stop of each block of rows of an n x d batch, each about
    ``_BLOCK_VALUES`` values.

    A 1-row tail joins the block before it: numpy multiplies a 1-row block
    by a vector with a dot, whose sum order differs from the matrix-vector
    product that gives every other row its bits.
    """
    rows = max(1, _BLOCK_VALUES // d)
    starts = list(range(0, n, rows))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return zip(starts, starts[1:] + [n])


def _row_blocks(batch: np.ndarray, out: np.ndarray):
    """Yield matching blocks of rows of ``batch`` and ``out``, split at
    ``_block_bounds``."""
    for start, stop in _block_bounds(*batch.shape):
        yield batch[start:stop], out[start:stop]


def dwt_forward(x, basis: WaveletBasis) -> np.ndarray:
    """Wavelet coefficients of ``x`` (one signal, or one per row of a matrix)."""
    batch, squeeze = _as_batch(x, basis.d, "signal")
    h, g = _filter_pair(basis)
    theta = np.empty(batch.shape)
    for a, out in _row_blocks(batch, theta):
        while a.shape[1] > basis.n_scale:
            m = a.shape[1] // 2
            a, out[:, m : 2 * m] = _analysis_step(a, h, g)
        out[:, : basis.n_scale] = a
    return theta[0] if squeeze else theta


def dwt_inverse(theta, basis: WaveletBasis) -> np.ndarray:
    """Reconstruct the signal(s) whose coefficient vector(s) are ``theta``."""
    batch, squeeze = _as_batch(theta, basis.d, "coefficient vector")
    h, g = _filter_pair(basis)
    x = np.empty(batch.shape)
    for block, out in _row_blocks(batch, x):
        m = basis.n_scale
        a = block[:, :m]
        while m < basis.d:
            a = _synthesis_step(a, block[:, m : 2 * m], h, g)
            m *= 2
        out[:] = a
    return x[0] if squeeze else x


def coefficient_levels(basis: WaveletBasis) -> np.ndarray:
    """Dyadic level of each coefficient position (scale block counts as j0)."""
    levels = np.empty(basis.d, dtype=int)
    levels[: basis.n_scale] = basis.j0
    pos, m = basis.n_scale, basis.n_scale
    j = basis.j0
    while pos < basis.d:
        levels[pos : pos + m] = j
        pos += m
        m *= 2
        j += 1
    return levels
