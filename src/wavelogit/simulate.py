"""Synthetic curve generator for a sparse wavelet-domain class signal.

Curves are built in the wavelet domain: every coefficient carries Gaussian
nuisance variation whose variance decays with dyadic level, class 1 adds a
mean shift on a small set of detail coordinates, and white observation
noise is added in the time domain after the inverse transform. The class
signal is therefore sparse and localized, which is the regime the
estimators in this package target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import CurveDataset
from .exceptions import DataError
from .wavelet import (
    DEFAULT_FAMILY,
    DEFAULT_J0,
    WaveletBasis,
    coefficient_levels,
    dwt_inverse,
    make_basis,
)

# default planted signal: five detail coordinates spread over dyadic levels,
# effect sizes near one within-class standard deviation per coordinate
DEFAULT_SUPPORT = (20, 40, 85, 150, 200)
DEFAULT_EFFECTS = (0.70, 0.55, 0.45, 0.36, 0.36)
DEFAULT_NOISE_SD = 0.1
DEFAULT_BACKGROUND_DECAY = 0.6
DEFAULT_N_TRAIN_PER_CLASS = 75
DEFAULT_N_TEST_PER_CLASS = 25


@dataclass(frozen=True)
class SynthSpec:
    """Generation recipe: sizes, planted signal, and noise levels."""

    n_per_class: int
    basis: WaveletBasis
    true_support: tuple
    effect_sizes: tuple
    noise_sd: float = DEFAULT_NOISE_SD
    background_decay: float = DEFAULT_BACKGROUND_DECAY
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "true_support", tuple(int(i) for i in self.true_support))
        object.__setattr__(self, "effect_sizes", tuple(float(e) for e in self.effect_sizes))
        if self.n_per_class < 1:
            raise DataError(f"n_per_class must be >= 1, got {self.n_per_class}")
        if len(self.true_support) != len(self.effect_sizes):
            raise DataError(
                f"{len(self.true_support)} support indices but "
                f"{len(self.effect_sizes)} effect sizes"
            )
        if len(set(self.true_support)) != len(self.true_support):
            raise DataError("support indices must be distinct")
        for idx in self.true_support:
            if not self.basis.n_scale <= idx < self.basis.d:
                raise DataError(
                    f"support index {idx} outside the detail range "
                    f"[{self.basis.n_scale}, {self.basis.d})"
                )
        if not all(np.isfinite(self.effect_sizes)):
            raise DataError("effect sizes must be finite")
        if not (np.isfinite(self.noise_sd) and self.noise_sd >= 0):
            raise DataError(f"noise_sd must be >= 0, got {self.noise_sd}")
        if not 0 < self.background_decay < 1:
            raise DataError(
                f"background_decay must lie in (0,1), got {self.background_decay}"
            )
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")

    @property
    def d(self) -> int:
        return self.basis.d


def coefficient_sds(spec: SynthSpec) -> np.ndarray:
    """Nuisance standard deviation per coefficient: level j has variance
    background_decay**(j - j0), so the coarsest block has unit variance."""
    levels = coefficient_levels(spec.basis)
    return np.sqrt(spec.background_decay ** (levels - spec.basis.j0).astype(float))


def generate_dataset(spec: SynthSpec) -> CurveDataset:
    """Draw 2*n_per_class labeled curves (class 0 rows first)."""
    rng = np.random.default_rng(spec.seed)
    n = 2 * spec.n_per_class
    coeffs = rng.standard_normal((n, spec.d)) * coefficient_sds(spec)
    labels = np.concatenate([np.zeros(spec.n_per_class), np.ones(spec.n_per_class)])
    if spec.true_support:
        coeffs[spec.n_per_class :, list(spec.true_support)] += np.asarray(spec.effect_sizes)
    curves = dwt_inverse(coeffs, spec.basis)
    del coeffs  # so the noise below is drawn without the coefficients held
    # in place, the same bits; freeing the noise, not the curves, steadies the peak RSS
    noise = rng.standard_normal((n, spec.d))
    noise *= spec.noise_sd
    curves += noise
    return CurveDataset(curves=curves, labels=labels)


def generate_beta(spec: SynthSpec) -> np.ndarray:
    """The planted discriminant function: inverse transform of the effect
    sizes placed on the support, zero elsewhere."""
    omega = np.zeros(spec.d)
    if spec.true_support:
        omega[list(spec.true_support)] = np.asarray(spec.effect_sizes)
    return dwt_inverse(omega, spec.basis)


def default_spec(
    seed: int = 0,
    n_per_class: int = DEFAULT_N_TRAIN_PER_CLASS + DEFAULT_N_TEST_PER_CLASS,
    family: str = DEFAULT_FAMILY,
    j0: int = DEFAULT_J0,
    d: int = 256,
) -> SynthSpec:
    """The stock generation recipe: d=256 curves, five planted coordinates,
    100 curves per class sized for a 75/25 train/test split."""
    return SynthSpec(
        n_per_class=n_per_class,
        basis=make_basis(family, j0, d),
        true_support=DEFAULT_SUPPORT,
        effect_sizes=DEFAULT_EFFECTS,
        noise_sd=DEFAULT_NOISE_SD,
        background_decay=DEFAULT_BACKGROUND_DECAY,
        seed=seed,
    )
