"""Tests for the synthetic curve generator."""

import tracemalloc

import numpy as np
import pytest

from oracles import generate_curves
from wavelogit.cli import main
from wavelogit.dataio import to_coefficients
from wavelogit.exceptions import DataError
from wavelogit.glm import link_logistic
from wavelogit.metrics import auc
from wavelogit.penalized import FitConfig, fit_wnet
from wavelogit.simulate import (
    DEFAULT_EFFECTS,
    DEFAULT_SUPPORT,
    SynthSpec,
    coefficient_sds,
    default_spec,
    generate_beta,
    generate_dataset,
)
from wavelogit.wavelet import _BLOCK_VALUES, dwt_forward, dwt_inverse, make_basis


def small_spec(**overrides):
    defaults = dict(
        n_per_class=30,
        basis=make_basis("db4", 2, 64),
        true_support=(10, 40),
        effect_sizes=(0.8, 0.6),
        noise_sd=0.1,
        background_decay=0.5,
        seed=0,
    )
    defaults.update(overrides)
    return SynthSpec(**defaults)


class TestSynthSpec:
    def test_validation(self):
        with pytest.raises(DataError):
            small_spec(true_support=(2,), effect_sizes=(1.0,))  # scale coordinate
        with pytest.raises(DataError):
            small_spec(true_support=(64,), effect_sizes=(1.0,))  # out of range
        with pytest.raises(DataError):
            small_spec(true_support=(10, 10), effect_sizes=(1.0, 1.0))  # duplicate
        with pytest.raises(DataError):
            small_spec(effect_sizes=(1.0,))  # length mismatch
        with pytest.raises(DataError):
            small_spec(noise_sd=-0.1)
        with pytest.raises(DataError):
            small_spec(background_decay=1.0)
        with pytest.raises(DataError):
            small_spec(n_per_class=0)

    @pytest.mark.parametrize(
        "field, value",
        [("n_per_class", 2.5), ("n_per_class", True), ("seed", 1.5), ("true_support", (5.7, 40))],
    )
    def test_counts_seed_and_support_must_be_integers(self, field, value):
        """A float count or seed used to fail with a bare TypeError only when
        data was generated, and a support index of 5.7 was truncated to 5."""
        with pytest.raises(DataError, match="must be an integer"):
            small_spec(**{field: value})

    def test_background_sds_decay_with_level(self):
        spec = small_spec()
        sds = coefficient_sds(spec)
        n_scale = spec.basis.n_scale
        assert np.all(sds[:n_scale] == 1.0)
        assert np.all(np.diff(sds) <= 1e-15)
        # finest level: variance decay^(levels-1 - j0)
        assert abs(sds[-1] ** 2 - 0.5 ** (5 - 2)) <= 1e-15


class TestGenerateDataset:
    def test_shapes_and_label_blocks(self):
        ds = generate_dataset(small_spec())
        assert ds.curves.shape == (60, 64)
        np.testing.assert_array_equal(ds.labels[:30], 0.0)
        np.testing.assert_array_equal(ds.labels[30:], 1.0)

    def test_deterministic_per_seed(self):
        a = generate_dataset(small_spec(seed=7))
        b = generate_dataset(small_spec(seed=7))
        assert np.array_equal(a.curves, b.curves)
        c = generate_dataset(small_spec(seed=8))
        assert not np.array_equal(a.curves, c.curves)

    def test_null_effects_give_chance_auc(self):
        """No planted signal: a fitted classifier scores near 0.5 out of
        sample (n=400 curves total)."""
        null = small_spec(
            n_per_class=100, true_support=(), effect_sizes=(), seed=1
        )
        train = generate_dataset(null)
        test = generate_dataset(small_spec(n_per_class=100, true_support=(), effect_sizes=(), seed=2))
        basis = null.basis
        data = to_coefficients(train, basis)
        sol = fit_wnet(data, FitConfig(estimator="wnet", lam=2.0))
        tdata = to_coefficients(test, basis)
        a = auc(link_logistic(tdata.theta @ sol.omega + sol.intercept), tdata.labels)
        assert abs(a - 0.5) <= 0.05

    def test_noiseless_strong_single_coordinate_separates(self):
        """One large planted coefficient with no observation noise: the
        classes separate and the fit scores essentially perfectly."""
        spec = small_spec(
            n_per_class=100,
            true_support=(48,),
            effect_sizes=(5.0,),
            noise_sd=0.0,
            seed=3,
        )
        train = generate_dataset(spec)
        test = generate_dataset(
            small_spec(
                n_per_class=100,
                true_support=(48,),
                effect_sizes=(5.0,),
                noise_sd=0.0,
                seed=4,
            )
        )
        data = to_coefficients(train, spec.basis)
        sol = fit_wnet(data, FitConfig(estimator="wnet", lam=1.0))
        tdata = to_coefficients(test, spec.basis)
        a = auc(link_logistic(tdata.theta @ sol.omega + sol.intercept), tdata.labels)
        assert a >= 0.99

    def test_planted_mean_shift_recovered(self):
        """Transforming the default-spec curves recovers the planted shift on
        every support coordinate to within three standard errors."""
        spec = default_spec(seed=0)
        ds = generate_dataset(spec)
        theta = dwt_forward(ds.curves, spec.basis)
        cls0 = theta[ds.labels == 0.0]
        cls1 = theta[ds.labels == 1.0]
        diff = cls1.mean(axis=0) - cls0.mean(axis=0)
        se = np.sqrt(cls1.var(axis=0, ddof=1) / cls1.shape[0] + cls0.var(axis=0, ddof=1) / cls0.shape[0])
        for idx, effect in zip(DEFAULT_SUPPORT, DEFAULT_EFFECTS):
            assert abs(diff[idx] - effect) <= 3.0 * se[idx]

    def test_off_support_mean_differences_small(self):
        spec = default_spec(seed=0)
        ds = generate_dataset(spec)
        theta = dwt_forward(ds.curves, spec.basis)
        cls0 = theta[ds.labels == 0.0]
        cls1 = theta[ds.labels == 1.0]
        diff = cls1.mean(axis=0) - cls0.mean(axis=0)
        se = np.sqrt(cls1.var(axis=0, ddof=1) / cls1.shape[0] + cls0.var(axis=0, ddof=1) / cls0.shape[0])
        off = np.ones(spec.d, dtype=bool)
        off[list(DEFAULT_SUPPORT)] = False
        assert np.all(np.abs(diff[off]) <= 4.0 * se[off])


def spread_spec(family, d, **overrides):
    """A spec whose support lies at the start, middle and end of the detail
    range of any d. By default each class holds half again a block of rows
    and a few more: four blocks, class 1 starting inside the second."""
    basis = make_basis(family, 2, d)
    rows = max(1, _BLOCK_VALUES // d)
    fields = dict(
        n_per_class=rows + rows // 2 + 5,
        basis=basis,
        true_support=(basis.n_scale, d // 2 + 3, d - 1),
        effect_sizes=(0.9, -0.7, 0.5),
        seed=0,
    )
    fields.update(overrides)
    return SynthSpec(**fields)


class TestBlockedDraws:
    """The curves are drawn, inverted and made noisy one row block at a
    time; the bits are those of the whole-matrix generator."""

    @pytest.mark.parametrize("family", ["haar", "db4", "db8"])
    @pytest.mark.parametrize("d", [64, 256, 1024])
    def test_class_boundary_inside_a_block(self, family, d):
        spec = spread_spec(family, d)
        assert spec.n_per_class % (_BLOCK_VALUES // d) != 0
        assert np.array_equal(generate_dataset(spec).curves, generate_curves(spec))

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n_per_class=5),  # fewer rows than one block
            dict(true_support=(), effect_sizes=()),
            dict(noise_sd=0.0),
            dict(seed=1),
            dict(seed=7),
            dict(seed=12345),
        ],
        ids=["small-n", "empty-support", "no-noise", "seed1", "seed7", "seed12345"],
    )
    def test_special_cases(self, overrides):
        spec = spread_spec("db4", 256, **overrides)
        assert np.array_equal(generate_dataset(spec).curves, generate_curves(spec))

    def test_one_row_tail_joins_the_block_before(self):
        # from d = _BLOCK_VALUES on, a block is one row, and the odd last
        # row joins the block before it
        d = _BLOCK_VALUES
        spec = spread_spec("db8", d, n_per_class=3)
        assert np.array_equal(generate_dataset(spec).curves, generate_curves(spec))


class TestBoundedMemory:
    """Generating and writing hold one copy of the curves; a second one
    (8 MB here) would break the bound."""

    N_PER_CLASS, D = 500, 1024
    MARGIN = 2**22

    def test_generate_dataset_holds_the_curves(self):
        spec = spread_spec("db8", self.D, n_per_class=self.N_PER_CLASS)
        tracemalloc.start()
        try:
            dataset = generate_dataset(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra = peak - dataset.curves.nbytes
        assert extra <= self.MARGIN < dataset.curves.nbytes, extra

    def test_simulate_command_holds_the_curves(self, tmp_path, capsys):
        out = str(tmp_path / "curves.csv")
        args = ["--n-per-class", str(self.N_PER_CLASS), "--d", str(self.D), "--wavelet", "db8"]
        tracemalloc.start()
        try:
            assert main(["simulate", "--out", out, *args]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        curves_nbytes = 2 * self.N_PER_CLASS * self.D * 8
        assert peak - curves_nbytes <= self.MARGIN < curves_nbytes, peak - curves_nbytes

    def test_split_command_holds_the_curves(self, tmp_path, capsys):
        """With --test-out each file is written from row ranges of the one
        array: copying the 1200 training curves (9.8 MB) breaks the bound."""
        args = ["--n-per-class", "600", "--n-test-per-class", "200", "--d", str(self.D),
                "--wavelet", "db8", "--test-out", str(tmp_path / "test.csv")]
        tracemalloc.start()
        try:
            assert main(["simulate", "--out", str(tmp_path / "train.csv"), *args]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        curves_nbytes = 2 * 800 * self.D * 8
        assert peak - curves_nbytes <= self.MARGIN, peak - curves_nbytes


class TestGenerateBeta:
    def test_empty_support_is_zero(self):
        spec = small_spec(true_support=(), effect_sizes=())
        np.testing.assert_array_equal(generate_beta(spec), np.zeros(64))

    def test_single_coordinate_is_one_atom(self):
        spec = small_spec(true_support=(40,), effect_sizes=(1.5,))
        atom = np.zeros(64)
        atom[40] = 1.5
        np.testing.assert_allclose(
            generate_beta(spec), dwt_inverse(atom, spec.basis), atol=1e-14
        )

    def test_round_trip_recovers_planted_coefficients(self):
        spec = small_spec()
        omega = dwt_forward(generate_beta(spec), spec.basis)
        expected = np.zeros(64)
        expected[[10, 40]] = [0.8, 0.6]
        np.testing.assert_allclose(omega, expected, atol=1e-10)
