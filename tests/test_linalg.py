import numpy as np
import pytest

from _setup import balance_setup, near_degenerate_c
from talklora.linalg import (
    RngState,
    kaiming_init,
    softmax,
    softmax_rows,
    spectral_norm,
    spectral_norms,
    zero_init,
)


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_ln2_case(self):
        out = softmax([np.log(2.0), 0.0])
        assert np.allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_large_logits_do_not_overflow(self):
        out = softmax([1000.0, 1000.0, 999.0])
        assert np.isfinite(out).all()
        assert abs(out.sum() - 1.0) < 1e-12

    def test_simplex_on_random_inputs(self):
        gen = RngState(5).generator()
        for _ in range(50):
            v = gen.normal(size=gen.integers(1, 9)) * 10
            out = softmax(v)
            assert (out > 0).all()
            assert abs(out.sum() - 1.0) < 1e-12

    def test_shift_invariance_exact(self):
        # shifts chosen so v + c is exactly representable: the max-subtraction
        # then cancels the shift bit for bit
        gen = RngState(6).generator()
        v = gen.integers(-512, 512, size=7) * 2.0**-10
        for c in (2.0, -64.0, 1024.0, -0.5):
            assert np.array_equal(softmax(v + c), softmax(v))

    def test_shift_invariance_generic(self):
        gen = RngState(7).generator()
        for _ in range(20):
            v = gen.normal(size=5)
            c = gen.normal() * 100
            assert np.allclose(softmax(v + c), softmax(v), rtol=1e-12, atol=1e-15)

    def test_l2_nonexpansive(self):
        # supports the routing-stability proof: softmax is 1-Lipschitz in l2
        gen = RngState(8).generator()
        for _ in range(200):
            u = gen.normal(size=6) * 5
            v = gen.normal(size=6) * 5
            lhs = np.linalg.norm(softmax(u) - softmax(v))
            rhs = np.linalg.norm(u - v)
            assert lhs <= rhs + 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([]))

    def test_rows_variant_matches_vector_softmax(self):
        gen = RngState(9).generator()
        logits = gen.normal(size=(4, 3))
        rows = softmax_rows(logits)
        for i in range(4):
            assert np.array_equal(rows[i], softmax(logits[i]))


class TestInitializers:
    def test_kaiming_deterministic(self):
        a = kaiming_init(4, 6, RngState(7))
        b = kaiming_init(4, 6, RngState(7))
        assert np.array_equal(a, b)

    def test_kaiming_respects_uniform_bound(self):
        m = kaiming_init(1000, 100, RngState(1))
        bound = np.sqrt(6.0 / 100)
        assert np.abs(m).max() <= bound

    def test_kaiming_sample_mean_near_zero(self):
        m = kaiming_init(100, 100, RngState(2))
        assert abs(m.mean()) < 0.01

    def test_kaiming_split_streams_differ(self):
        root = RngState(3)
        a = kaiming_init(4, 4, root.split("a"))
        b = kaiming_init(4, 4, root.split("b"))
        assert not np.array_equal(a, b)
        assert np.array_equal(a, kaiming_init(4, 4, root.split("a")))

    def test_zero_init(self):
        assert np.array_equal(zero_init(2, 3), np.zeros((2, 3)))
        assert np.array_equal(zero_init(1, 1), np.zeros((1, 1)))
        assert np.linalg.norm(zero_init(5, 7)) == 0.0

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            kaiming_init(0, 3, RngState(0))
        with pytest.raises(ValueError):
            zero_init(3, 0)


class TestRngState:
    def test_same_seed_same_stream(self):
        g1 = RngState(42).generator()
        g2 = RngState(42).generator()
        assert np.array_equal(g1.uniform(size=100), g2.uniform(size=100))

    def test_algorithm_identifier_enforced(self):
        with pytest.raises(ValueError):
            RngState(1, algorithm="mersenne-twister")

    def test_seed_range_enforced(self):
        with pytest.raises(ValueError):
            RngState(-1)
        with pytest.raises(ValueError):
            RngState(1 << 64)


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-10)

    @pytest.mark.parametrize("seed", [10, 11, 12, 13, 14])
    def test_against_svd_oracle(self, seed):
        gen = RngState(seed).generator()
        m = gen.normal(size=(5, 5))
        oracle = np.linalg.svd(m, compute_uv=False)[0]
        assert abs(spectral_norm(m) - oracle) < 1e-8

    def test_rectangular_against_svd_oracle(self):
        gen = RngState(20).generator()
        m = gen.normal(size=(3, 7))
        oracle = np.linalg.svd(m, compute_uv=False)[0]
        assert abs(spectral_norm(m) - oracle) < 1e-8

    @pytest.mark.parametrize("alpha", [2.0, -3.5, 0.25])
    def test_scale_homogeneity(self, alpha):
        gen = RngState(15).generator()
        m = gen.normal(size=(4, 4))
        assert abs(spectral_norm(alpha * m) - abs(alpha) * spectral_norm(m)) < 1e-9

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_ones_vector_in_nullspace_falls_back(self):
        # the all-ones start vector is annihilated here; the deterministic
        # basis-vector fallback must still find sigma = sqrt(2)
        m = np.array([[1.0, -1.0]])
        assert spectral_norm(m) == pytest.approx(np.sqrt(2.0), abs=1e-10)



class TestSpectralNorms:
    """One batched SVD must give each matrix's own SVD value bit for bit."""

    @staticmethod
    def _assert_bitwise(ms):
        got = spectral_norms(np.stack(ms))
        assert got.shape == (len(ms),) and got.dtype == np.float64
        for sigma, m in zip(got, ms):
            assert sigma == spectral_norm(m)
            assert sigma == np.linalg.svd(m, compute_uv=False)[0]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_balance_stack_cs(self, seed):
        self._assert_bitwise([ad.c for ad in balance_setup(seed)[1].adapters])

    def test_near_degenerate_and_zero_cs(self):
        self._assert_bitwise([near_degenerate_c(s) for s in range(4)] + [np.zeros((4, 4))])

    def test_non_square_a_reshapes(self):
        _, stack = balance_setup(0)
        self._assert_bitwise([ad.a.reshape(-1, ad.a.shape[-1]) for ad in stack.adapters])

    def test_non_finite_entry_rejected(self):
        ms = np.zeros((2, 3, 3))
        ms[1, 2, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            spectral_norms(ms)

    def test_two_d_input_rejected(self):
        with pytest.raises(ValueError, match="3-d"):
            spectral_norms(np.eye(3))

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            spectral_norms(np.zeros((0, 4, 4)))
