"""Deterministic dense linear algebra substrate.

Everything downstream (adapter forwards, gradients, certificates) runs on
plain float64 numpy arrays.  This module owns the matrix and vector
contract checks, the numerically stable softmax, the Kaiming initializer,
the exact spectral norm of one matrix or of a stack of them (one LAPACK SVD
call), and the reproducible RNG streams.

All functions but :func:`kaiming_fill` are pure: arrays are treated as
immutable values and results are freshly allocated, so concurrent callers
can share inputs freely.  ``kaiming_fill`` writes only the array it is given.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngState:
    """Value-semantics handle on a counter-based random stream.

    Wraps numpy's Philox generator (4x64 words, 10 rounds).  The same
    ``RngState`` always reproduces the same draw sequence, bit for bit,
    across runs and platforms.  Independent streams are derived with
    :meth:`split`, which hashes a purpose label into a child seed, so the
    draw order of one stream never disturbs another.
    """

    seed: int

    def __post_init__(self):
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream: Philox keyed ``[seed, 0]``."""
        return np.random.Generator(np.random.Philox(_PhiloxKey(self.seed)))

    def split(self, label: str) -> "RngState":
        """Child state dedicated to ``label``, independent of the parent."""
        digest = hashlib.sha256(
            self.seed.to_bytes(8, "little") + label.encode("utf-8")
        ).digest()
        return RngState(int.from_bytes(digest[:8], "little"))


class _PhiloxKey(ISeedSequence):
    """Seed sequence that hands Philox the key ``[seed, 0]`` as it is.

    ``np.random.Philox(key=...)`` first seeds a throwaway ``SeedSequence``
    from OS entropy, which costs more than the rest of the construction.
    Given a seed sequence instead, Philox asks it for two 64-bit words, takes
    them as its key (copied into its own state) and starts its counter at
    0, so the stream is that of ``Philox(key=[seed, 0])`` bit for bit.
    """

    def __init__(self, seed: int):
        self.key = np.array([seed, 0], dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (2, np.uint64):
            raise ValueError(f"a Philox key is two uint64 words, not {n_words} of {dtype}")
        return self.key


def _all_finite(arr: np.ndarray) -> bool:
    """True when a nonempty array holds no NaN or infinity.

    A NaN anywhere makes both reductions NaN, and an infinity makes one of
    them infinite.  Unlike ``np.isfinite(arr).all()`` this allocates no
    boolean mask the size of ``arr``.
    """
    lo, hi = np.minimum.reduce(arr, axis=None), np.maximum.reduce(arr, axis=None)
    return math.isfinite(lo) and math.isfinite(hi)


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate a dense 2-d float64 matrix with finite entries."""
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be nonempty, got shape {arr.shape}")
    if not _all_finite(arr):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Validate a dense 1-d float64 vector with finite entries."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not _all_finite(arr):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax of a batch of logit vectors, each row shifted by
    its max so that no exp overflows."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def kaiming_init(rows: int, cols: int, rng: RngState) -> np.ndarray:
    """He-uniform initializer with fan-in = cols and gain 1.

    Entries are i.i.d. uniform on [-sqrt(6/cols), +sqrt(6/cols)], drawn
    row-major from the given stream, so the same ``RngState`` always
    yields the same matrix: bit for bit
    ``rng.generator().uniform(-b, b, size=(rows, cols))``.

    The matrix is filled in place by :func:`_fill_uniform`.  A draw of
    at least two ``_FILL_CHUNK`` doubles is cut into contiguous chunks of
    at least that size, at most one per CPU this process may run on, each
    filled on its own thread.
    The bits cannot depend on the cut: Philox is counter-based, one
    counter step yields 4 doubles, and every chunk starts at a multiple
    of 4, so a chunk's own generator advanced by ``start // 4`` steps
    continues the stream exactly where the previous chunk stops.  The
    affine map to [low, high) is numpy's own, ``low + (high - low) * u``,
    applied per entry, so a chunk's result is the same whichever thread
    computes it.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"kaiming_init needs positive dims, got ({rows}, {cols})")
    out = np.empty((rows, cols))
    kaiming_fill(out, rng)
    return out


def kaiming_fill(out: np.ndarray, rng: RngState) -> None:
    """Overwrite the C-contiguous matrix ``out`` with ``kaiming_init(*out.shape, rng)``.

    The draw is written in place, so a view of a larger buffer is filled
    without a temporary.
    """
    if out.ndim != 2 or not out.flags.c_contiguous:
        raise ValueError(f"kaiming_fill needs a C-contiguous matrix, got shape {out.shape}")
    bound = math.sqrt(6.0 / out.shape[1])
    _fill_uniform(out.reshape(-1), -bound, bound, rng)


# Draws shorter than two chunks of this many doubles (8 MiB) are filled on
# the calling thread, where a thread pool would cost more than it saves.
_FILL_CHUNK = 1 << 20


def _fill_threads() -> int:
    """CPUs this process may run on: its affinity mask, where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _fill_uniform(flat: np.ndarray, low: float, high: float, rng: RngState) -> None:
    """Overwrite the contiguous 1-d ``flat`` with uniform [low, high) draws.

    Bit-identical to ``rng.generator().uniform(low, high, size=flat.size)``
    for any number of chunks (see :func:`kaiming_init`).  ``Generator.random``
    and the in-place ufuncs release the GIL, so the chunks fill in parallel,
    and no chunk allocates a temporary.
    """
    n = flat.size
    chunks = n // _FILL_CHUNK
    if chunks > 1:
        chunks = min(chunks, _fill_threads())
    if chunks < 2:
        _fill_span(flat, low, high, rng)
        return
    step = n // chunks // 4 * 4  # chunk starts are whole Philox counter steps
    starts = [i * step for i in range(chunks)]
    stops = starts[1:] + [n]
    # imported here: importing it costs about 0.6 MB of resident memory, and
    # most processes never make a draw this large
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(chunks) as pool:
        list(pool.map(lambda a, b: _fill_span(flat[a:b], low, high, rng, a), starts, stops))


def _fill_span(span: np.ndarray, low: float, high: float, rng: RngState, start: int = 0):
    """Fill ``span`` with draws ``start, start + 1, ...`` of the stream of ``rng``."""
    gen = rng.generator()
    if start:
        gen.bit_generator.advance(start // 4)  # one Philox counter step is 4 doubles
    gen.random(out=span)
    span *= high - low  # Generator.uniform's low + (high - low) * u, in its order
    span += low


def spectral_norms(ms) -> np.ndarray:
    """Largest singular value of each matrix of an (m, rows, cols) stack.

    One call of LAPACK's SVD covers the whole stack.  The SVD is
    deterministic and has no iteration cap or tolerance, so a clip that
    divides by these values lands on the spectral-norm ball up to
    rounding, and each value equals the SVD of its matrix alone bit for
    bit.
    """
    arr = np.asarray(ms, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"ms must be a 3-d stack of matrices, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"ms must be nonempty, got shape {arr.shape}")
    if not _all_finite(arr):
        raise ValueError("ms contains non-finite entries")
    return np.linalg.svd(arr, compute_uv=False)[:, 0]  # descending: [0] is the max


def spectral_norm(m) -> float:
    """Largest singular value of ``m``: :func:`spectral_norms` of a one-matrix stack."""
    return float(spectral_norms(as_matrix(m, "m")[None])[0])
