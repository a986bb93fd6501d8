"""Analytic gradients vs the complex-step oracle, family by family.

The analytic backward implements the exact chain rule, including the
softmax-router Jacobian and the communication matrix; the oracle is a
naive reference forward evaluated in complex128 at theta + i*h*e_j, whose
imaginary part over h is the derivative, exact to rounding.
Also demonstrates the shared-B contract: the gradient of a shared tensor
is the sum of all aliasing layers' contributions.
"""

import numpy as np

from talklora import (
    AdapterConfig,
    LossSpec,
    RngState,
    backward,
    build_frozen_stack,
    build_stack_from_slots,
    frozen_stack_slots,
)
from talklora.cli import parse_run_config, run_gradcheck_suite

print("=== gradcheck of a talklora config: lora, moelora, talklora x {share_b} x {talking} ===")
config = parse_run_config({
    "method": "talklora",
    "seed": 0,
    "adapter": {"total_rank": 4, "experts": 2, "lora_alpha": 8.0},
    "task": {"clusters": 2, "input_dim": 8, "output_dim": 8,
             "samples_per_cluster": 40},
    "model_depth": 2,
})
result = run_gradcheck_suite(config)
print(f"{'method':9s} {'share_b':>7s} {'talking':>7s} {'max rel err':>12s}  worst handle")
for combo in result["combinations"]:
    print(f"{combo['method']:9s} {str(combo['share_b']):>7s} "
          f"{str(combo['talking_enabled']):>7s} "
          f"{combo['max_relative_error']:12.2e}  {combo['worst_handle']}")
print(f"\noverall max relative error: {result['max_relative_error']:.2e} "
      f"(tolerance {result['tolerance']:.0e}) -> "
      f"{'PASS' if result['passed'] else 'FAIL'}")

print("\n=== shared-B gradients sum over aliasing layers ===")
rng = RngState(3)
frozen = build_frozen_stack(8, 8, 3, rng)
slots = frozen_stack_slots(frozen)
cfg_shared = AdapterConfig(total_rank=4, experts=2, lora_alpha=8.0, share_b=True)
cfg_private = AdapterConfig(total_rank=4, experts=2, lora_alpha=8.0, share_b=False)
shared = build_stack_from_slots("talklora", cfg_shared, slots, rng)
private = build_stack_from_slots("talklora", cfg_private, slots, rng)

fill = rng.split("bfill").generator()
for j in range(2):
    values = 0.3 * fill.normal(size=(8, 2))
    shared.parameter(f"shared.8x8.B{j}")[:] = values
    for slot in private.slots:
        private.parameter(f"{slot.name}.B{j}")[:] = values

gen = rng.split("batch").generator()
batch = (gen.normal(size=(6, 8)), gen.normal(size=(6, 8)))
g_shared = shared.views(backward(shared, frozen, batch, LossSpec())[1])
g_private = private.views(backward(private, frozen, batch, LossSpec())[1])

summed = sum(g_private[f"{slot.name}.B0"] for slot in private.slots)
gap = float(np.abs(g_shared["shared.8x8.B0"] - summed).max())
print("grad(shared B0) vs sum of per-layer grads with tied values:")
print(f"  max |difference| = {gap:.2e}")
print("One tensor, three layers, one optimizer update: that is the whole")
print("sharing mechanism, and its gradient is exactly the aliasing sum.")
