"""Tests for the orthonormal discrete wavelet transform."""

import tracemalloc

import numpy as np
import pytest

from wavelogit import wavelet
from wavelogit.exceptions import DataError, DimensionError
from wavelogit.wavelet import (
    FILTERS,
    WaveletBasis,
    coefficient_levels,
    dwt_forward,
    dwt_inverse,
    make_basis,
)

from oracles import transform_matrix

ALL_FAMILIES = sorted(FILTERS)


class TestFilters:
    def test_known_families(self):
        assert ALL_FAMILIES == ["db10", "db2", "db3", "db4", "db5", "db6", "db7", "db8", "db9", "haar"]

    def test_tap_counts_match_vanishing_moments(self):
        """dbN has 2N taps; haar has 2."""
        assert len(FILTERS["haar"]) == 2
        for n in range(2, 11):
            assert len(FILTERS[f"db{n}"]) == 2 * n

    def test_orthonormality_and_sum(self):
        for family, taps in FILTERS.items():
            h = np.asarray(taps)
            assert abs(h @ h - 1.0) <= 1e-12, family
            for m in range(1, h.size // 2):
                assert abs(h[: h.size - 2 * m] @ h[2 * m :]) <= 1e-12, family
            assert abs(h.sum() - np.sqrt(2.0)) <= 1e-12, family

    def test_vanishing_moments(self):
        """The mirror highpass of dbN annihilates polynomials up to degree N-1."""
        for n in range(1, 11):
            family = "haar" if n == 1 else f"db{n}"
            h = np.asarray(FILTERS[family])
            g = h[::-1].copy()
            g[1::2] *= -1.0
            # scaled argument keeps cancellation error comparable across degrees
            k = np.arange(g.size, dtype=float) / max(1, g.size - 1)
            for p in range(n):
                assert abs(g @ k**p) <= 1e-12, (family, p)


class TestBasisValidation:
    def test_non_power_of_two_rejected(self):
        for d in (0, 1, 3, 6, 12, 100):
            with pytest.raises(DataError):
                make_basis("haar", j0=0, d=d)

    def test_j0_too_large_rejected(self):
        with pytest.raises(DataError):
            make_basis("haar", j0=3, d=8)
        with pytest.raises(DataError):
            make_basis("haar", j0=4, d=8)

    @pytest.mark.parametrize("j0", [1.5, "1", True])
    def test_j0_must_be_an_integer(self, j0):
        """1.5 used to fail with a bare TypeError from the shift 1 << j0."""
        with pytest.raises(DataError, match="j0 must be an integer"):
            WaveletBasis(family="db4", j0=j0, d=8)

    def test_negative_j0_rejected(self):
        with pytest.raises(DataError):
            make_basis("haar", j0=-1, d=8)

    def test_unknown_family_rejected(self):
        with pytest.raises(DataError):
            make_basis("sym4", j0=0, d=8)
        with pytest.raises(DataError):
            WaveletBasis(family="sym4", j0=0, d=8)

    def test_taps_come_from_the_family(self):
        for family in ALL_FAMILIES:
            assert WaveletBasis(family=family, j0=0, d=8).lowpass == FILTERS[family]

    def test_geometry_properties(self):
        b = make_basis("db2", j0=3, d=256)
        assert b.n_scale == 8


class TestForwardExamples:
    def test_haar_constant_four(self):
        """Constant [1,1,1,1] carries all its energy in the scale coefficient."""
        b = make_basis("haar", j0=0, d=4)
        theta = dwt_forward(np.ones(4), b)
        np.testing.assert_allclose(theta, [2.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_haar_antisymmetric_pair(self):
        b = make_basis("haar", j0=0, d=2)
        theta = dwt_forward(np.array([1.0, -1.0]), b)
        np.testing.assert_allclose(theta, [0.0, np.sqrt(2.0)], atol=1e-12)

    def test_length_mismatch(self):
        b = make_basis("haar", j0=0, d=4)
        with pytest.raises(DimensionError):
            dwt_forward(np.ones(8), b)
        with pytest.raises(DimensionError):
            dwt_forward(np.ones((3, 8)), b)

    def test_batch_matches_rowwise(self):
        rng = np.random.default_rng(7)
        b = make_basis("db4", j0=2, d=64)
        X = rng.standard_normal((9, 64))
        batch = dwt_forward(X, b)
        rows = np.stack([dwt_forward(X[i], b) for i in range(9)])
        np.testing.assert_allclose(batch, rows, rtol=0, atol=1e-13)


class TestInverseExamples:
    def test_haar_scale_only(self):
        b = make_basis("haar", j0=0, d=4)
        x = dwt_inverse(np.array([2.0, 0.0, 0.0, 0.0]), b)
        np.testing.assert_allclose(x, np.ones(4), atol=1e-12)

    def test_zero_maps_to_zero(self):
        for family in ("haar", "db4", "db10"):
            b = make_basis(family, j0=1, d=64)
            np.testing.assert_array_equal(dwt_inverse(np.zeros(64), b), np.zeros(64))

    def test_unit_coordinate_matches_matrix_row(self):
        """dwt_inverse(e_k) samples the k-th basis function, i.e. row k of W."""
        b = make_basis("db4", j0=3, d=256)
        W = transform_matrix(b)
        for k in (0, 5, 8, 100, 255):
            e = np.zeros(256)
            e[k] = 1.0
            np.testing.assert_allclose(dwt_inverse(e, b), W[k], atol=1e-12)


def _reference_forward(x, family, j0):
    """The periodic DWT written out from its definition, one sum at a time."""
    h = FILTERS[family]
    taps = len(h)
    g = [(-1) ** k * h[taps - 1 - k] for k in range(taps)]
    a = list(x)
    details = []
    while len(a) > 2**j0:
        n = len(a)
        approx = [sum(h[k] * a[(2 * i + k) % n] for k in range(taps)) for i in range(n // 2)]
        detail = [sum(g[k] * a[(2 * i + k) % n] for k in range(taps)) for i in range(n // 2)]
        details.insert(0, detail)
        a = approx
    return np.array(a + [c for block in details for c in block])


class TestReference:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_forward_matches_definition(self, family):
        """Pins the shift convention: tap k of output i reads sample 2i+k,
        also where a level is shorter than the filter (d=8, j0=0)."""
        rng = np.random.default_rng(5)
        for d, j0 in ((8, 0), (8, 2), (16, 1), (32, 3)):
            x = rng.standard_normal(d)
            theta = dwt_forward(x, make_basis(family, j0=j0, d=d))
            np.testing.assert_allclose(theta, _reference_forward(x, family, j0), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_peak_memory_is_a_few_batches(self, family):
        """Neither direction holds a copy of the batch per filter tap."""
        X = np.random.default_rng(6).standard_normal((200, 1024))
        b = make_basis(family, j0=3, d=1024)
        for transform in (dwt_forward, dwt_inverse):
            tracemalloc.start()
            try:
                transform(X, b)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 * X.nbytes, (transform.__name__, peak / X.nbytes)


class TestRowBlocks:
    """A batch is transformed a block of rows at a time, into one output."""

    D = 4096
    ROWS = wavelet._BLOCK_VALUES // D

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", [1, ROWS - 1, ROWS, ROWS + 1, 3 * ROWS + 5])
    def test_every_row_is_its_own_transform(self, family, n):
        X = np.random.default_rng(n).standard_normal((n, self.D))
        b = make_basis(family, j0=3, d=self.D)
        for transform in (dwt_forward, dwt_inverse):
            batch = transform(X, b)
            assert batch.shape == X.shape
            for i in range(n):
                row = transform(X[i], b)
                assert row.shape == (self.D,)
                np.testing.assert_array_equal(batch[i], row)

    @pytest.mark.parametrize("d", [16, 1024, 4096, wavelet._BLOCK_VALUES * 2])
    def test_blocks_cover_the_rows_and_leave_no_one_row_tail(self, d):
        rows = max(1, wavelet._BLOCK_VALUES // d)
        for n in {1, 2, 3, rows - 1, rows, rows + 1, rows + 2, 2 * rows + 1, 3 * rows} - {0}:
            bounds = list(wavelet._block_bounds(n, d))
            assert [start for start, _ in bounds] == [0] + [stop for _, stop in bounds[:-1]]
            assert bounds[-1][1] == n
            sizes = [stop - start for start, stop in bounds]
            assert all(size == rows for size in sizes[:-1])
            assert 1 <= sizes[-1] <= rows + 1
            assert sizes[-1] > 1 or n == 1, (n, sizes)

    @pytest.mark.parametrize("transform", [dwt_forward, dwt_inverse])
    def test_temporaries_do_not_grow_with_the_batch(self, transform):
        b = make_basis("db8", j0=3, d=1024)
        extra = []
        for n in (200, 2000):
            X = np.random.default_rng(n).standard_normal((n, 1024))
            tracemalloc.start()
            try:
                out = transform(X, b)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra.append(peak - out.nbytes)
        # the slack covers the interpreter's free lists of small objects (up
        # to about 100 KB); a temporary of one level of the batch adds megabytes
        assert extra[1] <= extra[0] + 2**17, extra


class TestTransformMatrix:
    def test_haar_two_point(self):
        b = make_basis("haar", j0=0, d=2)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(transform_matrix(b), [[s, s], [s, -s]], atol=1e-15)

    def test_matches_forward(self):
        rng = np.random.default_rng(3)
        for family, j0, d in (("haar", 0, 16), ("db4", 1, 8), ("db4", 3, 64), ("db7", 2, 32)):
            b = make_basis(family, j0=j0, d=d)
            W = transform_matrix(b)
            x = rng.standard_normal(d)
            np.testing.assert_allclose(W @ x, dwt_forward(x, b), atol=1e-12)

    def test_rows_are_forward_of_unit_vectors(self):
        b = make_basis("db4", j0=0, d=8)
        W = transform_matrix(b)
        for j in range(8):
            e = np.zeros(8)
            e[j] = 1.0
            np.testing.assert_allclose(W[:, j], dwt_forward(e, b), atol=0)

    def test_orthonormal(self):
        for family in ("haar", "db2", "db4", "db10"):
            for j0, d in ((0, 8), (2, 32), (3, 128)):
                b = make_basis(family, j0=j0, d=d)
                W = transform_matrix(b)
                err = np.max(np.abs(W @ W.T - np.eye(d)))
                assert err <= 1e-10, (family, j0, d, err)


class TestTransformProperties:
    def _cases(self):
        for family in ALL_FAMILIES:
            for d in (2, 4, 8, 16, 32, 64):
                for j0 in range(0, d.bit_length() - 1):
                    yield family, j0, d

    def test_perfect_reconstruction(self):
        """Round trip is the identity across every family and admissible j0."""
        rng = np.random.default_rng(11)
        count = 0
        for family, j0, d in self._cases():
            b = make_basis(family, j0=j0, d=d)
            X = rng.standard_normal((5, d))
            back = dwt_inverse(dwt_forward(X, b), b)
            rel = np.linalg.norm(back - X) / np.linalg.norm(X)
            assert rel <= 1e-10, (family, j0, d)
            count += X.shape[0]
        assert count >= 1000

    def test_energy_preserved(self):
        rng = np.random.default_rng(12)
        for family, j0, d in self._cases():
            b = make_basis(family, j0=j0, d=d)
            x = rng.standard_normal(d)
            n_x = np.linalg.norm(x)
            n_t = np.linalg.norm(dwt_forward(x, b))
            assert abs(n_t - n_x) / n_x <= 1e-10, (family, j0, d)

    def test_linearity(self):
        rng = np.random.default_rng(13)
        for family in ("haar", "db3", "db8"):
            b = make_basis(family, j0=2, d=32)
            for _ in range(20):
                x, y = rng.standard_normal((2, 32))
                a, c = rng.standard_normal(2)
                lhs = dwt_forward(a * x + c * y, b)
                rhs = a * dwt_forward(x, b) + c * dwt_forward(y, b)
                np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_constant_signal_sparsity(self):
        """Constant input puts nothing in the detail block."""
        for family in ALL_FAMILIES:
            for j0, d in ((0, 32), (3, 64)):
                b = make_basis(family, j0=j0, d=d)
                theta = dwt_forward(np.full(d, 2.5), b)
                assert np.max(np.abs(theta[b.n_scale :])) <= 1e-10, (family, j0, d)


class TestCoefficientLevels:
    def test_layout(self):
        b = make_basis("haar", j0=1, d=8)
        np.testing.assert_array_equal(coefficient_levels(b), [1, 1, 1, 1, 2, 2, 2, 2])

    def test_block_sizes(self):
        b = make_basis("db4", j0=3, d=256)
        levels = coefficient_levels(b)
        assert np.sum(levels == 3) == 8 + 8  # scale block plus coarsest detail
        assert np.sum(levels == 7) == 128
        assert levels.size == 256
