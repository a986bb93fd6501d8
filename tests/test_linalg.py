import threading
import tracemalloc

import numpy as np
from numpy.random import bit_generator
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _setup import balance_setup, near_degenerate_c
from talklora import linalg
from talklora.adapters import build_frozen_stack
from talklora.linalg import (
    RngState,
    as_matrix,
    as_vector,
    kaiming_init,
    softmax_rows,
    spectral_norm,
    spectral_norms,
)


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax_rows(np.zeros((1, 2))), [[0.5, 0.5]], atol=1e-15)

    def test_ln2_case(self):
        out = softmax_rows(np.array([[np.log(2.0), 0.0]]))
        assert np.allclose(out, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-15)

    def test_large_logits_do_not_overflow(self):
        out = softmax_rows(np.array([[1000.0, 1000.0, 999.0], [-1000.0, 0.0, 1000.0]]))
        assert np.isfinite(out).all()
        assert np.all(np.abs(out.sum(axis=1) - 1.0) < 1e-12)

    def test_simplex_on_random_inputs(self):
        gen = RngState(5).generator()
        for _ in range(50):
            logits = gen.normal(size=(3, gen.integers(1, 9))) * 10
            out = softmax_rows(logits)
            assert (out > 0).all()
            assert np.all(np.abs(out.sum(axis=1) - 1.0) < 1e-12)

    def test_shift_invariance_exact(self):
        # shifts chosen so v + c is exactly representable: the max-subtraction
        # then cancels the shift bit for bit, whichever row it shifts
        gen = RngState(6).generator()
        v = gen.integers(-512, 512, size=(3, 7)) * 2.0**-10
        for c in (2.0, -64.0, 1024.0, -0.5, np.array([[2.0], [-0.5], [1024.0]])):
            assert np.array_equal(softmax_rows(v + c), softmax_rows(v))

    def test_shift_invariance_generic(self):
        gen = RngState(7).generator()
        for _ in range(20):
            v = gen.normal(size=(4, 5))
            c = gen.normal() * 100
            assert np.allclose(softmax_rows(v + c), softmax_rows(v), rtol=1e-12, atol=1e-15)

    def test_l2_nonexpansive(self):
        # supports the routing-stability proof: softmax is 1-Lipschitz in l2
        gen = RngState(8).generator()
        u = gen.normal(size=(200, 6)) * 5
        v = gen.normal(size=(200, 6)) * 5
        lhs = np.linalg.norm(softmax_rows(u) - softmax_rows(v), axis=1)
        rhs = np.linalg.norm(u - v, axis=1)
        assert np.all(lhs <= rhs + 1e-12)


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

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            kaiming_init(0, 3, RngState(0))


def _uniform_oracle(rows, cols, seed):
    """numpy's own He-uniform draw, independent of the chunked fill.

    Entry i of the row-major matrix is low + (high - low) * u_i with
    low = -b, high = b, b = sqrt(6 / cols), and u_i the i-th
    ``Generator.random`` double of the Philox stream keyed [seed, 0].
    """
    bound = np.sqrt(6.0 / cols)
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    return gen.uniform(-bound, bound, size=(rows, cols))


SMALL_CHUNK = 64  # doubles: lets tiny draws take the multi-chunk path
THREADS = [1, 2, 3, 7]


def _force(mp, threads, chunk=None):
    mp.setattr(linalg, "_fill_threads", lambda: threads)
    if chunk is not None:
        mp.setattr(linalg, "_FILL_CHUNK", chunk)


class TestKaimingFill:
    """The chunked, threaded fill gives numpy's single-stream draw bit for bit."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(
        rows=st.integers(1, 40),
        cols=st.integers(1, 40),
        seed=st.integers(0, 2**64 - 1),
        threads=st.sampled_from(THREADS),
    )
    @example(rows=1, cols=2 * SMALL_CHUNK - 1, seed=0, threads=7)
    @example(rows=1, cols=2 * SMALL_CHUNK, seed=0, threads=7)
    @example(rows=1, cols=2 * SMALL_CHUNK + 1, seed=0, threads=7)
    @example(rows=7, cols=SMALL_CHUNK + 3, seed=5, threads=3)
    def test_small_chunks_match_oracle(self, rows, cols, seed, threads):
        with pytest.MonkeyPatch.context() as mp:
            _force(mp, threads, SMALL_CHUNK)
            got = kaiming_init(rows, cols, RngState(seed))
        assert got.tobytes() == _uniform_oracle(rows, cols, seed).tobytes()

    @pytest.mark.parametrize("threads", THREADS)
    @pytest.mark.parametrize(
        "cols", [(1 << 20) - 1, 1 << 20, (1 << 20) + 3, (2 << 20) - 1, 2 << 20, (2 << 20) + 3]
    )
    def test_real_chunk_edges_match_oracle(self, monkeypatch, cols, threads):
        _force(monkeypatch, threads)
        got = kaiming_init(1, cols, RngState(cols))
        assert got.tobytes() == _uniform_oracle(1, cols, cols).tobytes()

    @pytest.mark.parametrize("threads", THREADS)
    def test_chunks_cover_the_draw_from_whole_counter_steps(self, monkeypatch, threads):
        _force(monkeypatch, threads, SMALL_CHUNK)
        fill_span = linalg._fill_span
        spans = []

        def spy(span, low, high, rng, start=0):
            spans.append((start, span.size, threading.get_ident()))
            fill_span(span, low, high, rng, start)

        monkeypatch.setattr(linalg, "_fill_span", spy)
        n = 10 * SMALL_CHUNK + 3
        kaiming_init(1, n, RngState(1))
        spans.sort()
        starts = [start for start, _, _ in spans]
        ends = [start + size for start, size, _ in spans]
        assert len(spans) == threads
        assert starts == [0] + ends[:-1] and ends[-1] == n  # contiguous, no gap
        assert all(start % 4 == 0 for start in starts)
        callers = {ident for _, _, ident in spans}
        assert (threading.get_ident() in callers) == (threads == 1)

    def test_short_draw_stays_on_the_calling_thread(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a draw under two chunks must not start a pool")

        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", no_pool)
        _force(monkeypatch, 7, SMALL_CHUNK)
        got = kaiming_init(1, 2 * SMALL_CHUNK - 1, RngState(2))
        assert got.tobytes() == _uniform_oracle(1, 2 * SMALL_CHUNK - 1, 2).tobytes()

    @pytest.mark.parametrize("threads", [2, 3])
    def test_threads_write_in_place(self, monkeypatch, threads):
        _force(monkeypatch, threads, SMALL_CHUNK)
        tracemalloc.start()
        try:
            out = kaiming_init(256, 256, RngState(3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 64 * 1024

    def test_multi_chunk_host_through_build_frozen_stack(self):
        # the real CPU count: two chunks on a 2-CPU machine, one when pinned to one CPU
        rng = RngState(9)
        (layer,) = build_frozen_stack(2048, 2048, 1, rng)
        seed = rng.split("frozen.L00").seed
        assert layer.w0.tobytes() == _uniform_oracle(2048, 2048, seed).tobytes()


class TestFiniteChecks:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("position", [0, 17, 35])
    def test_non_finite_rejected_anywhere(self, value, position):
        m = np.ones((6, 6))
        m.flat[position] = value
        with pytest.raises(ValueError, match="m contains non-finite entries"):
            as_matrix(m, "m")
        with pytest.raises(ValueError, match="v contains non-finite entries"):
            as_vector(m.reshape(-1), "v")

    def test_validation_allocates_no_mask(self):
        m = np.ones((1024, 1024))
        tracemalloc.start()
        try:
            as_matrix(m)
            as_vector(m.reshape(-1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestKeyedStreams:
    """``RngState(s).generator()`` is Philox keyed ``[s, 0]``, built without OS entropy."""

    @staticmethod
    def _reference(seed):
        return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 40), steps=st.integers(0, 2**70))
    @example(seed=0, n=1, steps=0)
    @example(seed=0, n=40, steps=1)
    @example(seed=2**64 - 1, n=7, steps=2**70)
    def test_draws_match_philox_keyed_by_seed(self, seed, n, steps):
        ours, ref = RngState(seed).generator(), self._reference(seed)
        assert ours.random(n).tobytes() == ref.random(n).tobytes()
        assert ours.normal(size=n).tobytes() == ref.normal(size=n).tobytes()
        assert np.array_equal(ours.permutation(n), ref.permutation(n))
        ours.bit_generator.advance(steps)
        ref.bit_generator.advance(steps)
        assert ours.random(n).tobytes() == ref.random(n).tobytes()
        # a fresh generator advanced first, as each chunk of the threaded fill is
        ours, ref = RngState(seed).generator(), self._reference(seed)
        ours.bit_generator.advance(steps)
        ref.bit_generator.advance(steps)
        assert ours.random(n).tobytes() == ref.random(n).tobytes()

    @settings(derandomize=True, database=None, deadline=None, max_examples=50)
    @given(seed=st.integers(0, 2**64 - 1))
    @example(seed=0)
    @example(seed=2**64 - 1)
    def test_generators_of_one_state_draw_independently(self, seed):
        def no_entropy(bits):
            raise AssertionError("a generator read OS entropy")

        state = RngState(seed)
        with pytest.MonkeyPatch.context() as mp:
            # numpy seeds an unseeded SeedSequence from this function
            mp.setattr(bit_generator, "randbits", no_entropy)
            first, second = state.generator(), state.generator()
        head = first.random(9)
        first.bit_generator.advance(5)
        first.normal(size=3)
        # the draws of one move nothing in the other
        assert second.random(9).tobytes() == head.tobytes()
        assert second.random(4).tobytes() == self._reference(seed).random(13)[9:].tobytes()


class TestRngState:
    def test_same_seed_same_stream(self):
        g1 = RngState(42).generator()
        g2 = RngState(42).generator()
        assert np.array_equal(g1.uniform(size=100), g2.uniform(size=100))

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

    def test_one_row_norm_is_its_length(self):
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
