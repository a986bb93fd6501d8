"""Tour of the three adapter families on a toy frozen layer.

Walks LoRA -> MoELoRA -> TalkLoRA on the same 8x8 frozen weight: the
zero-init contract, what each forward computes, what the router sees, and
how plain LoRA merges into the frozen weight for free inference.  Every
family is built by ``init_layer`` at the frozen weight's dims and run by
``forward_one``, which reads the family off the arrays the layer holds.
"""

import numpy as np

from talklora import (
    AdapterConfig,
    FrozenLinear,
    RngState,
    forward_one,
    init_layer,
    lora_merge,
)

rng = RngState(0)
cfg = AdapterConfig(total_rank=4, experts=2, lora_alpha=8.0)
layer = FrozenLinear(rng.split("w0").generator().normal(size=(8, 8)))
x = rng.split("x").generator().normal(size=8)

print("=== zero-init contract ===")
print("Every family starts with all B_i = 0, so the adapted model is")
print("exactly the frozen model until training moves the B's.\n")

lora = init_layer("lora", cfg, 8, 8, rng.split("lora"))
moe = init_layer("moelora", cfg, 8, 8, rng.split("moe"))
talk = init_layer("talklora", cfg, 8, 8, rng.split("talk"))

y_frozen = layer.w0 @ x
for name, ad in [("lora", lora), ("moelora", moe), ("talklora", talk)]:
    y, _ = forward_one(layer, ad, x, cfg)
    print(f"  {name:9s} output == w0 @ x exactly: {np.array_equal(y, y_frozen)}")

print("\n=== what the gated families compute ===")
fill = rng.split("fill").generator()
for b_i in moe.b:
    b_i[:] = 0.3 * fill.normal(size=b_i.shape)
for b_i in talk.b:
    b_i[:] = 0.3 * fill.normal(size=b_i.shape)

y_moe, tr_moe = forward_one(layer, moe, x, cfg)
print(f"MoELoRA routes on the raw input x; gates = {np.round(tr_moe.gates, 4)}")
print(f"  per-expert h_i shapes: {[h.shape for h in tr_moe.h]}"
      f"  (r_e = r/n = {moe.a.shape[1]})")

y_talk, tr_talk = forward_one(layer, talk, x, cfg)
print("\nTalkLoRA first mixes the low-rank representations through C")
print(f"  h      = {np.round(tr_talk.h.ravel(), 3)}")
print(f"  h~     = {np.round(tr_talk.h_tilde.ravel(), 3)}   (= C-mixed h)")
print(f"  gates  = {np.round(tr_talk.gates, 4)}   (router reads h~, experts use h)")
print(f"  y - w0x = {np.round(tr_talk.delta, 4)}")

print("\n=== merge-at-inference (plain LoRA only) ===")
lora.b[:] = 0.3 * fill.normal(size=lora.b.shape)
merged = lora_merge(layer, lora, cfg)
worst = max(
    float(np.abs(merged @ v - forward_one(layer, lora, v, cfg)[0]).max())
    for v in rng.split("probe").generator().normal(size=(50, 8))
)
print(f"W' = w0 + (alpha/r) B A reproduces the forward path on 50 random")
print(f"inputs; worst |difference| = {worst:.2e}")
print("Gated mixtures cannot merge input-independently: their delta depends")
print("on x through the gate vector.")
