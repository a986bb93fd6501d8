"""Forward semantics of the LoRA, MoELoRA and TalkLoRA adapter families.

LoRA adds a single low-rank update B A to a frozen weight.  MoELoRA splits
the rank budget across n experts B_i A_i combined by a softmax router over
the raw input.  TalkLoRA additionally factors each expert's up-projection
through a small square E_i, mixes the per-expert low-rank representations
h_j = A_j x through a learnable n x n communication matrix before routing,
and shares the B_i matrices across adaptation layers of the same
projection type.

Expert outputs always use the uncommunicated h_i; the communicated
representations feed only the router.  All three families run one
forward (:func:`_layer_forward`) and one backward, and the arrays a layer
holds (a router or not, E or not, C or not) set what differs.  LoRA is
the one-expert layer without a router, so its delta is its expert's
output: it is exactly MoELoRA with one expert, whose softmax over one
logit is 1.  TalkLoRA with C = I and E = I is exactly MoELoRA with the
router W_g A_stack, where A_stack is the (r, d) stack of the A_i:
TalkLoRA generalizes MoELoRA whose router rows lie in rowspace(A_stack),
not MoELoRA with a generic (n, d) router.
All math is float64 and every random draw comes from a named
:class:`~talklora.linalg.RngState` stream, so construction is bit-reproducible.

Expert layout: every family's layer is one :class:`AdapterLayer`, and the
arrays it holds are its family.  :func:`layer_layout` states each
family's arrays and the rule on a layer's dims once; the dims come from
what the layer adapts (a slot, or w0), never from the config.
Initializers, stacks, budgets, checkpoints and the single-sample
:func:`forward_one` all read it; :func:`forward_one` takes the family its
arrays imply and rejects an array of another shape than that family's
layout at w0's dims, or one holding NaN or infinity.  Every family
stacks its experts along a leading axis, one array per role: A (n, r_e,
d), E (n, r_e, r_e) and B (n, k, r_e), with n = 1 and r_e = r for LoRA.
Forwards (and the backward in :mod:`talklora.autodiff`) batch over that
axis with ``np.matmul``, so neither loops over experts.  The gate mix
runs in rank space, before B: with u_i = E_i h_i (h_i without E), delta =
scaling [g_1 u_1 ... g_n u_n] @ [B_1 ... B_n]^T is one (B, r) @ (r, k)
product, so no batched pass forms the (n, B, k) expert outputs; only
:func:`forward_one`'s trace does.
An :class:`AdapterStack` keeps one config and every trainable scalar in
one float64 buffer ``flat``; layer arrays are views of it, a shared B is
stored once, and per-expert handles (``L00.Q.A1``, ``shared.Q.B0``) name
views ``a[j]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import accumulate
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .linalg import (RngState, _all_finite, as_matrix, as_vector, kaiming_fill, kaiming_init,
                     softmax_rows)

METHODS = ("lora", "moelora", "talklora")


@dataclass(frozen=True)
class AdapterConfig:
    """Family-level hyperparameters shared by all adapter constructors."""

    total_rank: int
    experts: int = 1
    lora_alpha: float = 16.0
    share_b: bool = True
    talking_enabled: bool = True
    spectral_clip_c: Optional[float] = None

    def __post_init__(self):
        if self.total_rank < 1:
            raise ValueError(f"total_rank must be positive, got {self.total_rank}")
        if self.experts < 1:
            raise ValueError(f"experts must be positive, got {self.experts}")
        if self.lora_alpha <= 0:
            raise ValueError(f"lora_alpha must be positive, got {self.lora_alpha}")
        if self.spectral_clip_c is not None and self.spectral_clip_c <= 0:
            raise ValueError("spectral_clip_c must be positive when set, "
                             f"got {self.spectral_clip_c}")

    @property
    def scaling(self) -> float:
        """Multiplier lora_alpha / total_rank applied to the adapter delta."""
        return self.lora_alpha / self.total_rank


# (name, JSON kind, run-config default) of each AdapterConfig field: what a
# run config's ``adapter`` section and a checkpoint header's ``adapter_config`` hold
ADAPTER_FIELDS = (("total_rank", int, 16), ("experts", int, 4), ("lora_alpha", float, 16.0),
                  ("share_b", bool, True), ("talking_enabled", bool, True),
                  ("spectral_clip_c", float, None))


@dataclass
class FrozenLinear:
    """Pretrained weight w0 (k x d); never mutated by training.

    A float64, C-contiguous array that owns its data and is already
    read-only is adopted as is, so a host weight handed over by its maker
    is held once.  Any other input (a list, another dtype, a view, or a
    writable array the caller may still change) is copied.  Either way
    ``w0`` ends up read-only and validated by :func:`as_matrix`.
    """

    w0: np.ndarray

    def __post_init__(self):
        w0 = as_matrix(self.w0, "w0")
        flags = w0.flags
        if not (flags.owndata and flags.c_contiguous and not flags.writeable):
            w0 = np.array(w0)
            w0.setflags(write=False)
        self.w0 = w0

    @property
    def d_in(self) -> int:
        return self.w0.shape[1]

    @property
    def d_out(self) -> int:
        return self.w0.shape[0]


@dataclass
class AdapterLayer:
    """One adapter layer of any family; the arrays it holds are its family.

    Every family holds A and B.  LoRA holds nothing else, MoELoRA adds a
    router ``router_wg`` over the raw input, and TalkLoRA adds E, the
    communication matrix C and a router over the C-mixed h.  An array the
    family does not hold is ``None``; :func:`layer_layout` states each
    family's arrays and their shapes.
    """

    a: np.ndarray
    b: np.ndarray
    router_wg: Optional[np.ndarray] = None
    e: Optional[np.ndarray] = None
    c: Optional[np.ndarray] = None


class LowRankError(ValueError):
    """A rank that a layer cannot hold: ``total_rank`` above its min(d_in, d_out),
    or a gated layer's ``experts`` not dividing it.  The message starts with the field."""


class Field(NamedTuple):
    """One trainable array of a layer: attribute, handle role, shape, and
    whether a stack holds it once for all layers of a projection tag."""

    name: str
    role: str
    shape: tuple
    shared: bool = False

    def parts(self):
        """(handle role, shape) per handle, lazily: one per expert of a stacked
        (n, ...) array (``A0``, ``A1``, ...), else the role (``C``, ``Wg``)."""
        if len(self.shape) == 3:
            return ((f"{self.role}{j}", self.shape[1:]) for j in range(self.shape[0]))
        return iter([(self.role, self.shape)])


def layer_layout(method: str, cfg: AdapterConfig, d_in: int, d_out: int,
                 site: str = "the layer") -> tuple:
    """The trainable arrays of one ``method`` layer at a d_in -> d_out site.

    Listed in buffer and handle order.  This is where the families differ:
    LoRA holds one expert, A (1, r, d) and B (1, k, r), and no router, and
    ignores ``experts``; MoELoRA stacks n experts of rank r_e = r / n, so n
    must divide r, and routes the raw input through Wg (n, d); TalkLoRA
    adds E and the n x n C, routes the r-dim communicated h~, and with
    ``share_b`` holds one B per projection tag.  An :class:`AdapterLayer`
    holds exactly these arrays, and the one forward and backward read the
    differences off them.  Allocates nothing; first checks the rule on the
    dims of every family, naming ``site`` (``slot L00.Q``, ``target K``):
    both positive, and total_rank <= min(d_in, d_out).
    """
    r, n = cfg.total_rank, cfg.experts
    if d_in < 1 or d_out < 1:
        raise ValueError(f"{site} needs positive dims, got d_in {d_in}, d_out {d_out}")
    if r > min(d_in, d_out):
        raise LowRankError(f"total_rank {r} exceeds min(d_in, d_out) = {min(d_in, d_out)} "
                           f"at {site} with d_in {d_in}, d_out {d_out} (low-rank regime)")
    if method == "lora":
        return Field("a", "A", (1, r, d_in)), Field("b", "B", (1, d_out, r))
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if r % n != 0:
        raise LowRankError(f"experts ({n}) must divide total_rank ({r}) at {site}")
    r_e = r // n
    a, b = Field("a", "A", (n, r_e, d_in)), Field("b", "B", (n, d_out, r_e))
    if method == "moelora":
        return a, b, Field("router_wg", "Wg", (n, d_in))
    return (a, Field("e", "E", (n, r_e, r_e)), Field("c", "C", (n, n)),
            Field("router_wg", "Wg", (n, r)), b._replace(shared=cfg.share_b))


class Site(NamedTuple):
    """``field`` of ``slot``, the ``index``-th slot, with handles under ``owner``:
    ``shared.<tag>`` for a shared array, else the slot name.  ``first`` is
    False for a shared array that an earlier slot of its tag holds."""

    index: int
    slot: LayerSlot
    field: Field
    owner: str
    first: bool

    def handles(self):
        """(role, handle, shape) per handle of the array, lazily."""
        return ((role, f"{self.owner}.{role}", shape) for role, shape in self.field.parts())

    @property
    def size(self) -> int:
        """Scalars of the array: its share of ``flat`` where this site holds it."""
        return math.prod(self.field.shape)


def stack_layout(method: str, cfg: AdapterConfig, slots: Sequence[LayerSlot]):
    """Every array of a ``method`` stack over ``slots`` as a :class:`Site`, lazily.

    Sites come in buffer order and allocate nothing, so a caller can stop
    at the first one that disagrees with what it holds.  No slot at all, a
    slot whose dims break :func:`layer_layout`'s rule, a slot repeated, or a
    tag whose slots imply different shapes for a shared array, raises.
    """
    if not slots:
        raise ValueError("at least one slot is required")
    holders = {}  # (owner, attribute) -> the site that holds the array
    for i, slot in enumerate(slots):
        for field in layer_layout(method, cfg, slot.d_in, slot.d_out, f"slot {slot.name}"):
            owner = f"shared.{slot.tag}" if field.shared else slot.name
            site = Site(i, slot, field, owner, (owner, field.name) not in holders)
            earlier = holders.setdefault((owner, field.name), site)
            if not site.first and (not field.shared or earlier.field.shape != field.shape):
                (_, handle, shape), had = next(site.handles()), next(earlier.handles())
                raise ValueError(
                    f"slot {slot.name} (d_in {slot.d_in}, d_out {slot.d_out}) implies "
                    f"{handle} {shape}, which an earlier slot gave shape {had[2]}"
                )
            yield site


def alias_table(sites) -> dict:
    """Each layer-level name of a shared tensor (``L01.Q.B0``) -> its handle (``shared.Q.B0``)."""
    return {f"{site.slot.name}.{role}": handle
            for site in sites if site.field.shared for role, handle, _ in site.handles()}


@dataclass
class ForwardTrace:
    """Intermediate quantities of one single-sample forward, in any family."""

    h: np.ndarray  # (n, r_e) per-expert low-rank representations
    h_tilde: np.ndarray  # (n, r_e) communicated representations (== h without talking)
    gates: Optional[np.ndarray]  # (n,) softmax routing weights; None for LoRA (no router)
    expert_outputs: np.ndarray  # (n, k), unweighted B_i E_i h_i (or B_i A_i x)
    delta: np.ndarray  # (k,) adapter contribution, y - w0 @ x computed exactly


@dataclass
class LayerCache:
    """Batched forward intermediates retained for the backward pass.

    It holds no (n, B, k) expert outputs, and no pass forms them: the
    forward mixes the experts in rank space, and the backward takes the
    gate and B gradients there, from ``h`` or ``p`` and the gates.
    ``autodiff.backward`` touches only the caches of its own forward: it
    drops ``delta`` and ``z`` as that forward returns, writes the tanh
    derivative over a layer's ``x`` once that layer's backward is done,
    and drops each cache once the sweep is past it.  A cache any other
    caller gets keeps every field.
    """

    x: np.ndarray  # (B, d) clean layer input
    xa: np.ndarray  # (B, d) adapter-path input (after dropout, == x otherwise)
    h: np.ndarray  # (n, B, r_e) per-expert representations
    router_in: Optional[np.ndarray]  # what router_wg multiplied, (B, r) or (B, d)
    gates: Optional[np.ndarray]  # (B, n); both None for a layer without a router
    p: Optional[np.ndarray]  # (n, B, r_e) E_i h_i when the layer holds E
    delta: np.ndarray  # (B, k)
    z: np.ndarray  # (B, k) = x @ w0.T + delta


def _expert_outputs(layer: AdapterLayer, h: np.ndarray, p: Optional[np.ndarray]) -> np.ndarray:
    """The (n, B, k) unweighted expert outputs B_i E_i h_i (B_i h_i without E),
    a fresh array, for :func:`forward_one`'s trace; no batched pass forms them."""
    return (h if p is None else p) @ layer.b.transpose(0, 2, 1)


def _gated(u: np.ndarray, gates: Optional[np.ndarray]) -> np.ndarray:
    """g_i u_i of the stacked (n, B, r_e) ``u``, or u itself without gates
    (LoRA's one expert)."""
    return u if gates is None else u * gates.T[:, :, None]


def _layer_forward(w0: np.ndarray, layer: AdapterLayer, x: np.ndarray, cfg: AdapterConfig,
                   xa: Optional[np.ndarray]) -> LayerCache:
    """The batched forward of every family.

    The arrays the layer holds set what differs: each expert reads its
    h_i, or u_i = p_i = E_i h_i when the layer holds E; a layer with a
    router weighs the experts by the gates of what :func:`_router_input`
    gives, and one without (LoRA's one expert) takes its expert whole.
    The experts are mixed in rank space, before B: delta = scaling (U_g
    @ B_cat^T), one (B, r) @ (r, k) product, so no (n, B, k) expert
    outputs are formed.
    """
    xa = x if xa is None else xa
    h = xa @ layer.a.transpose(0, 2, 1)  # (n, B, r_e)
    # experts use the uncommunicated h
    p = None if layer.e is None else h @ layer.e.transpose(0, 2, 1)
    router_in = gates = None
    if layer.router_wg is not None:
        router_in = _router_input(layer, xa, h, cfg.talking_enabled)
        gates = softmax_rows(router_in @ layer.router_wg.T)
    # U_g = [g_1 u_1 ... g_n u_n] (B, r) and B_cat = [B_1 ... B_n] (k, r), a
    # copy of the stacked B (a view of LoRA's one)
    ug = _gated(h if p is None else p, gates).transpose(1, 0, 2).reshape(x.shape[0], -1)
    delta = ug @ layer.b.transpose(1, 0, 2).reshape(w0.shape[0], -1).T
    delta *= cfg.scaling
    z = x @ w0.T
    z += delta
    return LayerCache(x=x, xa=xa, h=h, router_in=router_in, gates=gates, p=p, delta=delta, z=z)


def lora_batch_forward(w0: np.ndarray, ad: AdapterLayer, x: np.ndarray, cfg: AdapterConfig,
                       xa: Optional[np.ndarray] = None) -> LayerCache:
    return _layer_forward(w0, ad, x, cfg, xa)


def moelora_batch_forward(w0: np.ndarray, ml: AdapterLayer, x: np.ndarray, cfg: AdapterConfig,
                          xa: Optional[np.ndarray] = None) -> LayerCache:
    return _layer_forward(w0, ml, x, cfg, xa)


def talklora_batch_forward(w0: np.ndarray, tl: AdapterLayer, x: np.ndarray, cfg: AdapterConfig,
                           xa: Optional[np.ndarray] = None) -> LayerCache:
    return _layer_forward(w0, tl, x, cfg, xa)


def _family(adapter: AdapterLayer) -> str:
    """The family a layer's arrays imply: C (TalkLoRA), else a router
    (MoELoRA), else neither (LoRA)."""
    if adapter.c is not None:
        return "talklora"
    return "lora" if adapter.router_wg is None else "moelora"


def batch_forward(w0, adapter: AdapterLayer, x, cfg, xa=None) -> LayerCache:
    """:func:`_layer_forward` through the entry point of the layer's
    :func:`_family`."""
    family = _family(adapter)
    if family == "talklora":
        return talklora_batch_forward(w0, adapter, x, cfg, xa)
    if family == "moelora":
        return moelora_batch_forward(w0, adapter, x, cfg, xa)
    return lora_batch_forward(w0, adapter, x, cfg, xa)


def _check_layer(method: str, layer: FrozenLinear, adapter, cfg: AdapterConfig) -> None:
    """The single-sample API's one adapter check: each array of ``adapter``
    against the :func:`layer_layout` that w0's dims imply (None where the
    ``method`` layer holds no such array), and for finiteness."""
    layout = layer_layout(method, cfg, layer.d_in, layer.d_out, f"w0 {layer.w0.shape}")
    implied = {field.name: field.shape for field in layout}
    for field in fields(AdapterLayer):
        held = getattr(adapter, field.name)
        shape = None if held is None else np.shape(held)
        if shape != implied.get(field.name):
            what = "is None" if shape is None else f"has shape {shape}"
            raise ValueError(f"{method} layer's {field.name} {what}, but w0 {layer.w0.shape} at "
                             f"total_rank {cfg.total_rank}, experts {cfg.experts} implies "
                             f"{implied.get(field.name)}")
        if held is not None and not _all_finite(held):
            raise ValueError(f"{method} layer's {field.name} contains non-finite entries")


def forward_one(layer: FrozenLinear, adapter: AdapterLayer, x,
                cfg: AdapterConfig) -> tuple[np.ndarray, ForwardTrace]:
    """One sample ``x`` through a layer of any family: (y, trace).

    y = w0 x + (alpha/r) sum_i g_i B_i E_i h_i with h_i = A_i x, where E_i
    is I for a layer without E and g is 1 for LoRA's one expert.  The
    router reads x (MoELoRA) or the C-mixed h~ (TalkLoRA, h itself with
    talking off); the experts always use h.  Checks ``x``, and the adapter
    against w0 under the family its arrays imply (:func:`_check_layer`).
    """
    x = as_vector(x, "x")
    if x.shape[0] != layer.d_in:
        raise ValueError(f"input length {x.shape[0]} does not match w0 input dim {layer.d_in}")
    _check_layer(_family(adapter), layer, adapter, cfg)
    cache = batch_forward(layer.w0, adapter, x[None, :], cfg)
    h = cache.h[:, 0]
    # h~ is what the router read when the layer holds E; without communication it mirrors h
    h_tilde = h.copy() if cache.p is None else cache.router_in[0].reshape(h.shape)
    gates = None if cache.gates is None else cache.gates[0].copy()
    return cache.z[0], ForwardTrace(h=h, h_tilde=h_tilde, gates=gates,
                                    expert_outputs=_expert_outputs(adapter, cache.h, cache.p)[:, 0],
                                    delta=cache.delta[0])


def lora_merge(layer: FrozenLinear, ad: AdapterLayer, cfg: AdapterConfig) -> np.ndarray:
    """Fold the low-rank update into the frozen weight: w0 + (alpha/r) B A."""
    if ad.router_wg is not None:
        raise ValueError("lora_merge needs a LoRA layer, one that holds no router_wg")
    _check_layer("lora", layer, ad, cfg)
    return layer.w0 + cfg.scaling * (ad.b[0] @ ad.a[0])


def _c_mix(c: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Communicated representations h~_i = sum_j C_ij h_j of ``h`` stacked on
    axis 0, (n, r_e) or (n, B, r_e): (C kron I) applied to the stacked h."""
    return (c @ h.reshape(h.shape[0], -1)).reshape(h.shape)


def _router_input(layer, xa: np.ndarray, h: np.ndarray, talking_enabled: bool) -> np.ndarray:
    """What a gated layer's router reads: the raw adapter input ``xa`` (B, d),
    or, when the layer holds C, the concatenation [h~_1, ..., h~_n] (B, r) of
    the C-mixed stacked h (n, B, r_e), which is h itself with talking off."""
    if layer.c is None:
        return xa
    h_tilde = _c_mix(layer.c, h) if talking_enabled else h
    return h_tilde.transpose(1, 0, 2).reshape(h.shape[1], -1)


def router_gates(tl: AdapterLayer, x: np.ndarray, talking_enabled: bool = True) -> np.ndarray:
    """Routing function alone: gates for a batch of inputs (B, d) -> (B, n)."""
    if tl.router_wg is None:
        raise ValueError("router_gates needs a gated layer, one that holds router_wg")
    router_in = _router_input(tl, x, x @ tl.a.transpose(0, 2, 1), talking_enabled)
    return softmax_rows(router_in @ tl.router_wg.T)


@dataclass(frozen=True)
class LayerSlot:
    """One adaptation site: (depth index, projection tag, dims)."""

    layer: int
    tag: str
    d_in: int
    d_out: int

    @property
    def name(self) -> str:
        return f"L{self.layer:02d}.{self.tag}"


class AdapterStack:
    """All adapters of one method over a list of slots, in one parameter buffer.

    ``flat`` (C-contiguous float64) holds every trainable scalar in the
    order of ``layout``, the list of :func:`stack_layout` over ``slots``.
    ``cfg`` is every layer's one config; a layer's dims are its slot's.
    The stack adopts ``flat`` as it is, filled or not: each layer array is
    a view of it, and ``ranges[i]`` maps slot i's field names to their
    slices.  A shared array has one slice and view for all layers of its
    tag, taken from the first, and its handles (``shared.<tag>.B<i>``)
    appear once.  Forwards never mutate parameters; optimizers update ``flat``.
    """

    def __init__(self, method: str, cfg: AdapterConfig, slots: list, layout: list,
                 flat: np.ndarray):
        self.method = method
        self.cfg = cfg
        self.slots = slots
        self.layout = layout
        self.flat = flat
        self.ranges = [{} for _ in slots]
        self._slot_handles = [[] for _ in slots]
        self._by_handle = {}  # shared handles once, from the first slot of their tag
        arrays = [{} for _ in slots]
        held, end = {}, 0  # (owner, attribute) -> (slice, view) of the holding site
        for site in layout:
            name = site.field.name
            if site.first:
                span = slice(end, end + site.size)
                held[site.owner, name] = span, flat[span].reshape(site.field.shape)
                end = span.stop
            span, view = held[site.owner, name]
            self.ranges[site.index][name] = span
            arrays[site.index][name] = view
            for (role, handle, _), arr in zip(site.handles(), view if view.ndim == 3 else [view]):
                self._slot_handles[site.index].append((role, handle, arr))
                if site.first:
                    self._by_handle[handle] = arr
        if end != flat.size:
            raise ValueError(f"the layout holds {end} scalars, flat {flat.size}")
        self.adapters = [AdapterLayer(**held) for held in arrays]

    def slot_cfg(self, i: int) -> AdapterConfig:
        """The config of slot i: :attr:`cfg`, as for every slot.  Nothing in the
        program calls it; it stays only because the benchmark traces this name."""
        return self.cfg

    def slot_handles(self, i: int) -> list:
        """(role, handle, array) triples for slot i, sharing-resolved."""
        return self._slot_handles[i]

    def named_parameters(self) -> list:
        """(handle, array) pairs in buffer order; shared tensors once."""
        return list(self._by_handle.items())

    def parameter(self, handle: str) -> np.ndarray:
        return self._by_handle[handle]

    @property
    def handles(self) -> list:
        return list(self._by_handle)

    def views(self, buf: np.ndarray) -> dict:
        """handle -> view of ``buf``, an array laid out like :attr:`flat`."""
        params = self._by_handle.items()
        ends = accumulate(arr.size for arr in self._by_handle.values())
        return {handle: buf[end - arr.size:end].reshape(arr.shape)
                for (handle, arr), end in zip(params, ends)}


def _init_stack(method: str, cfg: AdapterConfig, slots: list, slot_rngs: list) -> AdapterStack:
    """A fresh stack: the one init path of every adapter family.

    The layout walk checks every slot's dims before anything is allocated.
    ``flat`` is then allocated once, zero, and adopted by the stack; B stays
    zero, and every other array is Kaiming-filled in place, one draw per
    handle from the stream of its role (``A0``, ``E1``, ``C``, ``Wg``) under
    the slot's stream ``slot_rngs[i]``.
    """
    layout = list(stack_layout(method, cfg, slots))
    flat = np.zeros(sum(site.size for site in layout if site.first))
    stack = AdapterStack(method, cfg, slots, layout, flat)
    for i, rng in enumerate(slot_rngs):
        for role, _, arr in stack.slot_handles(i):
            if not role.startswith("B"):
                kaiming_fill(arr, rng.split(role))
    return stack


def init_layer(method: str, cfg: AdapterConfig, d_in: int, d_out: int,
               rng: RngState) -> AdapterLayer:
    """A fresh ``method`` layer at a d_in -> d_out site, drawn from ``rng``:
    the one layer of a one-slot stack, its arrays views of that stack's buffer."""
    slot = LayerSlot(0, "layer", d_in, d_out)
    return _init_stack(method, cfg, [slot], [rng]).adapters[0]


def build_stack_from_slots(
    method: str, cfg: AdapterConfig, slots: Sequence[LayerSlot], rng: RngState
) -> AdapterStack:
    """Construct fresh adapters for every slot, slot i drawing from ``init.<slot name>``."""
    slots = list(slots)
    return _init_stack(method, cfg, slots, [rng.split(f"init.{s.name}") for s in slots])


def build_frozen_stack(input_dim: int, output_dim: int, depth: int, rng: RngState) -> list:
    """Frozen host model: ``depth`` linear layers with tanh between them.

    Hidden layers are square (input_dim x input_dim); the last layer maps
    to output_dim and has no activation after it.  Weights are Kaiming
    draws from named streams, so the host is bit-reproducible from the
    seed and is never trained.  Each draw is made read-only and adopted
    by its :class:`FrozenLinear`, so every host weight is held once.
    """
    if depth < 1:
        raise ValueError(f"depth must be positive, got {depth}")
    layers = []
    for i in range(depth):
        d_out = output_dim if i == depth - 1 else input_dim
        w0 = kaiming_init(d_out, input_dim, rng.split(f"frozen.L{i:02d}"))
        w0.setflags(write=False)
        layers.append(FrozenLinear(w0))
    return layers


def frozen_stack_slots(frozen_layers) -> list:
    """Adaptation slots for a frozen stack, tagged by layer shape.

    Layers with identical shapes share a tag, which is what makes
    cross-layer B sharing shape-compatible in the synthetic model.
    """
    return [LayerSlot(i, f"{fl.d_in}x{fl.d_out}", fl.d_in, fl.d_out)
            for i, fl in enumerate(frozen_layers)]

