"""Routing-stability certificates, non-expansiveness, and degeneracy probes.

The routing-stability guarantee says: if the stacked low-rank projection has
spectral norm alpha, the router weights beta, and the communication
matrix is non-expansive (sigma_max <= 1), then the gate vector moves by
at most alpha * beta * |dx| under an input perturbation dx.  This script
measures all three norms, hammers the bound with random perturbations,
and then probes what the communication matrix does structurally.
"""

import numpy as np

from talklora import (
    AdapterConfig,
    RngState,
    degeneracy_check,
    init_layer,
    spectral_norm,
    stability_certificate,
)

cfg = AdapterConfig(total_rank=8, experts=4, lora_alpha=16.0)

print("=== Lipschitz certificate on a clipped layer ===")
tl = init_layer("talklora", cfg, 16, 16, RngState(1))
sigma = spectral_norm(tl.c)
print(f"fresh Kaiming C has sigma_max = {sigma:.3f}; projecting to the unit ball")
if sigma > 1.0:
    tl.c *= 1.0 / sigma
cert = stability_certificate(tl, trials=10_000, delta_scale=0.1, rng=RngState(2))
print(f"  alpha (stacked A) = {cert.alpha:.4f}")
print(f"  beta  (router)    = {cert.beta:.4f}")
print(f"  |C|_2             = {cert.c_norm:.4f}")
print(f"  bound alpha*beta  = {cert.bound:.4f}")
print(f"  max observed |g(x+dx)-g(x)|/|dx| over 10^4 trials = "
      f"{cert.max_observed_ratio:.4f}")
print(f"  verdict: {cert.verdict} (observed stays under the bound; softmax's")
print("  own 1-Lipschitz slack is why the gap is comfortable)")

print("\n=== the same layer with C inflated past the assumption ===")
tl_bad = init_layer("talklora", cfg, 16, 16, RngState(1))
tl_bad.c *= 5.0
cert_bad = stability_certificate(
    tl_bad, trials=10_000, delta_scale=0.1, rng=RngState(2)
)
print(f"  |C|_2 = {cert_bad.c_norm:.3f} > 1: the certificate refuses the "
      f"verdict ({cert_bad.verdict}) even though")
print(f"  the observed ratio ({cert_bad.max_observed_ratio:.4f}) may still "
      f"sit under alpha*beta = {cert_bad.bound:.4f};")
print("  the guarantee simply does not cover expansive communication.")

print("\n=== degeneracy probes: what C structurally does ===")
rep = degeneracy_check(init_layer("talklora", cfg, 16, 16, RngState(7)), trials=100,
                       rng=RngState(8))
print(f"  C = I            -> h~ == h bit-exact "
      f"(max diff {rep.identity_max_diff})")
print(f"  diagonal C       -> perturbing A_j never reaches h~_i, i != j "
      f"(max diff {rep.isolation_max_diff})")
print(f"  off-diagonal C   -> cross-expert influence witnessed "
      f"(min change {rep.cross_influence_min:.3e})")
print("With communication zeroed off the diagonal the experts are fully")
print("independent (the plain mixture-of-experts case); any nonzero")
print("off-diagonal entry opens an interaction channel that the plain")
print("mixture cannot express.")
