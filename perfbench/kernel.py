"""Computed work per training step, and a measured dgemm peak.

Flops and bytes come from the array shapes, not from hardware counters:
each matrix product of the forward and backward pass counts 2*m*n*k
flops and 8 bytes per float64 element of its two operands and its result.
Elementwise work (tanh, softmax, AdamW) is left out, and so are cache
effects, so bytes are *computed* bytes, not measured traffic.  No
bandwidth figure is derived from them: a 4096-wide frozen weight (128 MiB)
is smaller than the 300 MiB last-level cache some VMs report, so a
bandwidth test on it could not be four times the cache, as it must.
"""

from __future__ import annotations

import time

import numpy as np


def _mm(m: int, n: int, k: int) -> tuple:
    """Flops and bytes of an (m x k) @ (k x n) product."""
    return 2 * m * n * k, 8 * (m * k + k * n + m * n)


def _layer_products(family: str, batch: int, d_in: int, d_out: int, r: int, n: int) -> list:
    """Shapes (m, n, k) of every product one adapted layer runs per step."""
    re = r // n
    frozen = [(batch, d_out, d_in), (batch, d_in, d_out)]  # x @ w0.T, gx @ w0
    if family == "lora":
        fwd = [(batch, r, d_in), (batch, d_out, r)]
        bwd = [(d_out, r, batch), (batch, r, d_out), (r, d_in, batch), (batch, d_in, r)]
    elif family == "moelora":
        fwd = [(batch, re, d_in)] * n + [(batch, n, d_in)] + [(batch, d_out, re)] * n
        bwd = [(n, d_in, batch), (batch, d_in, n)]
        bwd += [(d_out, re, batch), (batch, re, d_out), (re, d_in, batch), (batch, d_in, re)] * n
    elif family == "talklora":
        fwd = [(batch, re, d_in)] * n + [(n, batch * re, n), (batch, n, r)]
        fwd += [(batch, re, re)] * n + [(batch, d_out, re)] * n
        bwd = [(n, r, batch), (batch, r, n), (n, n, batch * re), (n, batch * re, n)]
        bwd += [(d_out, re, batch), (batch, re, d_out), (re, re, batch), (batch, re, re),
                (re, d_in, batch), (batch, d_in, re)] * n
    else:
        raise ValueError(f"unknown family {family!r}")
    return frozen + fwd + bwd


def step_counts(family: str, batch: int, dims, r: int, n: int) -> tuple:
    """(flops, bytes) of one training step over layers of the given (d_in, d_out)."""
    flops = nbytes = 0
    for d_in, d_out in dims:
        for shape in _layer_products(family, batch, d_in, d_out, r, n):
            f, b = _mm(*shape)
            flops += f
            nbytes += b
    return flops, nbytes


DGEMM_SIZE = 4096
DGEMM_REPEATS = 3


def dgemm_peak_gflops() -> float:
    """Best rate of three float64 products of two 4096 x 4096 matrices."""
    gen = np.random.default_rng(0)
    a = gen.standard_normal((DGEMM_SIZE, DGEMM_SIZE))
    b = gen.standard_normal((DGEMM_SIZE, DGEMM_SIZE))
    out = np.empty((DGEMM_SIZE, DGEMM_SIZE))
    best = float("inf")
    for _ in range(DGEMM_REPEATS):
        t0 = time.perf_counter()
        np.matmul(a, b, out=out)
        best = min(best, time.perf_counter() - t0)
    return 2 * DGEMM_SIZE**3 / best / 1e9
