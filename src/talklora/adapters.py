"""Forward semantics of the LoRA, MoELoRA and TalkLoRA adapter families.

LoRA adds a single low-rank update B A to a frozen weight.  MoELoRA splits
the rank budget across n experts B_i A_i combined by a softmax router over
the raw input.  TalkLoRA additionally factors each expert's up-projection
through a small square E_i, mixes the per-expert low-rank representations
h_j = A_j x through a learnable n x n communication matrix before routing,
and shares the B_i matrices across adaptation layers of the same
projection type.

Expert outputs always use the uncommunicated h_i; the communicated
representations feed only the router.  All math is float64 and every
random draw comes from a named :class:`~talklora.linalg.RngState` stream,
so construction is bit-reproducible.

Expert layout: :func:`layer_layout` states each family's arrays once, and
initializers, stacks, budgets and checkpoints all read it.  MoELoRA and
TalkLoRA stack their experts along a leading axis, one array per role:
A (n, r_e, d), E (n, r_e, r_e) and B (n, k, r_e).  Forwards (and the
backward in :mod:`talklora.autodiff`) batch over that axis with
``np.matmul``, so neither loops over experts.
An :class:`AdapterStack` keeps every trainable scalar in one float64
buffer ``flat``; layer arrays are views of it, a shared B is stored once,
and per-expert handles (``L00.Q.A1``, ``shared.Q.B0``) name views ``a[j]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .linalg import RngState, as_matrix, as_vector, kaiming_fill, kaiming_init, softmax_rows

METHODS = ("lora", "moelora", "talklora")


@dataclass(frozen=True)
class AdapterConfig:
    """Family-level hyperparameters shared by all adapter constructors.

    ``input_dim``/``output_dim`` may stay ``None`` for configs used to
    build stacks over a model geometry (each slot fills in its own dims);
    single-layer constructors require them.
    """

    total_rank: int
    experts: int = 1
    input_dim: Optional[int] = None
    output_dim: Optional[int] = None
    lora_alpha: float = 16.0
    share_b: bool = True
    talking_enabled: bool = True
    spectral_clip_c: Optional[float] = None

    def __post_init__(self):
        if self.total_rank < 1:
            raise ValueError(f"total_rank must be positive, got {self.total_rank}")
        if self.experts < 1:
            raise ValueError(f"experts must be positive, got {self.experts}")
        if self.total_rank % self.experts != 0:
            raise ValueError(
                f"experts ({self.experts}) must divide total_rank ({self.total_rank})"
            )
        if self.lora_alpha <= 0:
            raise ValueError(f"lora_alpha must be positive, got {self.lora_alpha}")
        if self.spectral_clip_c is not None and self.spectral_clip_c <= 0:
            raise ValueError("spectral_clip_c must be positive when set")
        if (self.input_dim is None) != (self.output_dim is None):
            raise ValueError("input_dim and output_dim must be set together")
        if self.input_dim is not None:
            if self.input_dim < 1 or self.output_dim < 1:
                raise ValueError("input_dim/output_dim must be positive")
            if self.total_rank > min(self.input_dim, self.output_dim):
                raise ValueError(
                    f"total_rank {self.total_rank} exceeds min(input_dim, output_dim) "
                    f"= {min(self.input_dim, self.output_dim)} (low-rank regime)"
                )

    @property
    def expert_rank(self) -> int:
        return self.total_rank // self.experts

    @property
    def scaling(self) -> float:
        """Multiplier lora_alpha / total_rank applied to the adapter delta."""
        return self.lora_alpha / self.total_rank

    def with_dims(self, d_in: int, d_out: int) -> "AdapterConfig":
        return replace(self, input_dim=d_in, output_dim=d_out)

    def require_dims(self) -> tuple[int, int]:
        if self.input_dim is None or self.output_dim is None:
            raise ValueError("this operation needs input_dim/output_dim on the config")
        return self.input_dim, self.output_dim


# (name, JSON kind, run-config default) of each field that a run config's
# ``adapter`` section and a checkpoint header's ``adapter_config`` hold
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
class LoRAAdapter:
    a: np.ndarray  # (r, d), Kaiming at construction
    b: np.ndarray  # (k, r), zero at construction


@dataclass
class MoELoRALayer:
    a: np.ndarray  # (n, r_e, d) stacked expert down-projections
    b: np.ndarray  # (n, k, r_e) stacked expert up-projections
    router_wg: np.ndarray  # (n, d)


@dataclass
class TalkLoRALayer:
    a: np.ndarray  # (n, r_e, d)
    e: np.ndarray  # (n, r_e, r_e)
    b: np.ndarray  # (n, k, r_e); in a stack with share_b, one array per projection tag
    c: np.ndarray  # (n, n) communication matrix
    router_wg: np.ndarray  # (n, r)


_LAYER_TYPES = {"lora": LoRAAdapter, "moelora": MoELoRALayer, "talklora": TalkLoRALayer}


class Field(NamedTuple):
    """One trainable array of a layer: attribute, handle role, shape, and
    whether a stack holds it once for all layers of a projection tag."""

    name: str
    role: str
    shape: tuple
    shared: bool = False

    def parts(self):
        """(handle role, shape) per handle, lazily: one per expert of a stacked (n, ...)
        array (``A0``, ``A1``, ...), LoRA's single expert (``A0``), else the role."""
        if len(self.shape) == 3:
            return ((f"{self.role}{j}", self.shape[1:]) for j in range(self.shape[0]))
        return iter([(self.role + ("0" if self.role in ("A", "B") else ""), self.shape)])


def layer_layout(method: str, cfg: AdapterConfig, d_in: int, d_out: int) -> tuple:
    """The trainable arrays of one ``method`` layer at a d_in -> d_out site.

    Listed in buffer and handle order.  This is where the families differ:
    LoRA holds A (r, d) and B (k, r); MoELoRA stacks n experts of rank r_e
    and routes the raw input through Wg (n, d); TalkLoRA adds E and the
    n x n C, routes the r-dim communicated h~, and with ``share_b`` holds
    one B per projection tag.  Allocates nothing and checks no dims.
    """
    r, n, r_e = cfg.total_rank, cfg.experts, cfg.expert_rank
    if method == "lora":
        return Field("a", "A", (r, d_in)), Field("b", "B", (d_out, r))
    a, b = Field("a", "A", (n, r_e, d_in)), Field("b", "B", (n, d_out, r_e))
    if method == "moelora":
        return a, b, Field("router_wg", "Wg", (n, d_in))
    if method == "talklora":
        return (a, Field("e", "E", (n, r_e, r_e)), Field("c", "C", (n, n)),
                Field("router_wg", "Wg", (n, r)), b._replace(shared=cfg.share_b))
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


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
    at the first one that disagrees with what it holds.  A slot repeated,
    or a tag whose slots imply different shapes for a shared array, raises.
    """
    holders = {}  # (owner, attribute) -> the site that holds the array
    for i, slot in enumerate(slots):
        for field in layer_layout(method, cfg, slot.d_in, slot.d_out):
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


def init_lora(cfg: AdapterConfig, rng: RngState) -> LoRAAdapter:
    return _init_layer("lora", cfg, rng)


def init_moelora(cfg: AdapterConfig, rng: RngState) -> MoELoRALayer:
    return _init_layer("moelora", cfg, rng)


def init_talklora(cfg: AdapterConfig, rng: RngState) -> TalkLoRALayer:
    return _init_layer("talklora", cfg, rng)


@dataclass
class ForwardTrace:
    """Intermediate quantities of one gated-adapter forward pass."""

    h: np.ndarray  # (n, r_e) per-expert low-rank representations
    h_tilde: np.ndarray  # (n, r_e) communicated representations (== h without talking)
    gates: np.ndarray  # (n,) softmax routing weights
    expert_outputs: np.ndarray  # (n, k), unweighted B_i E_i h_i (or B_i A_i x)
    y: np.ndarray  # (k,) full layer output
    delta: np.ndarray  # (k,) adapter contribution, y - w0 @ x computed exactly

    def __post_init__(self):
        # softmax may underflow to exact zeros, so only nonnegativity holds
        if not (self.gates >= 0).all():
            raise ValueError("gate vector must be entrywise nonnegative")
        if abs(self.gates.sum() - 1.0) > 1e-12:
            raise ValueError("gate vector must sum to 1 within 1e-12")


@dataclass
class LayerCache:
    """Batched forward intermediates retained for the backward pass."""

    x: np.ndarray  # (B, d) clean layer input
    xa: np.ndarray  # (B, d) adapter-path input (after dropout, == x otherwise)
    drop_scale: Optional[np.ndarray]  # (B, d) mask/(1-p), None without dropout
    h: np.ndarray  # (n, B, r_e) per-expert representations; (B, r) for LoRA
    router_in: Optional[np.ndarray]  # what router_wg multiplied: (B, r) or (B, d)
    gates: Optional[np.ndarray]  # (B, n)
    p: Optional[np.ndarray]  # talklora only: (n, B, r_e) E_i h_i
    yexp: Optional[np.ndarray]  # (n, B, k) unweighted expert outputs; None for LoRA
    delta: np.ndarray  # (B, k)
    z: np.ndarray  # (B, k) = x @ w0.T + delta


def _gate_mix(gates: np.ndarray, yexp: np.ndarray) -> np.ndarray:
    """sum_i g_i y_i for (B, n) gates and (n, B, k) expert outputs."""
    # added along the expert axis in expert order, as a loop over experts would
    return (gates.T[:, :, None] * yexp).sum(axis=0)


def lora_batch_forward(
    w0: np.ndarray,
    ad: LoRAAdapter,
    x: np.ndarray,
    cfg: AdapterConfig,
    xa: Optional[np.ndarray] = None,
    drop_scale: Optional[np.ndarray] = None,
) -> LayerCache:
    xa = x if xa is None else xa
    h = xa @ ad.a.T
    delta = cfg.scaling * (h @ ad.b.T)
    return LayerCache(
        x=x, xa=xa, drop_scale=drop_scale,
        h=h, router_in=None, gates=None, p=None, yexp=None,
        delta=delta, z=x @ w0.T + delta,
    )


def moelora_batch_forward(
    w0: np.ndarray,
    ml: MoELoRALayer,
    x: np.ndarray,
    cfg: AdapterConfig,
    xa: Optional[np.ndarray] = None,
    drop_scale: Optional[np.ndarray] = None,
) -> LayerCache:
    xa = x if xa is None else xa
    h = xa @ ml.a.transpose(0, 2, 1)  # (n, B, r_e)
    gates = softmax_rows(xa @ ml.router_wg.T)  # router reads the raw input
    yexp = h @ ml.b.transpose(0, 2, 1)  # (n, B, k)
    delta = cfg.scaling * _gate_mix(gates, yexp)
    return LayerCache(
        x=x, xa=xa, drop_scale=drop_scale,
        h=h, router_in=xa, gates=gates, p=None, yexp=yexp,
        delta=delta, z=x @ w0.T + delta,
    )


def talklora_batch_forward(
    w0: np.ndarray,
    tl: TalkLoRALayer,
    x: np.ndarray,
    cfg: AdapterConfig,
    xa: Optional[np.ndarray] = None,
    drop_scale: Optional[np.ndarray] = None,
) -> LayerCache:
    xa = x if xa is None else xa
    h = xa @ tl.a.transpose(0, 2, 1)  # (n, B, r_e)
    router_in, gates = _route(tl, h, cfg.talking_enabled)
    p = h @ tl.e.transpose(0, 2, 1)  # experts use the uncommunicated h
    yexp = p @ tl.b.transpose(0, 2, 1)  # (n, B, k)
    delta = cfg.scaling * _gate_mix(gates, yexp)
    return LayerCache(
        x=x, xa=xa, drop_scale=drop_scale,
        h=h, router_in=router_in, gates=gates, p=p, yexp=yexp,
        delta=delta, z=x @ w0.T + delta,
    )


def batch_forward(w0, adapter, x, cfg, xa=None, drop_scale=None) -> LayerCache:
    if isinstance(adapter, LoRAAdapter):
        return lora_batch_forward(w0, adapter, x, cfg, xa, drop_scale)
    if isinstance(adapter, MoELoRALayer):
        return moelora_batch_forward(w0, adapter, x, cfg, xa, drop_scale)
    if isinstance(adapter, TalkLoRALayer):
        return talklora_batch_forward(w0, adapter, x, cfg, xa, drop_scale)
    raise TypeError(f"unknown adapter type {type(adapter).__name__}")


def _check_input(layer: FrozenLinear, x: np.ndarray, cfg: AdapterConfig) -> np.ndarray:
    x = as_vector(x, "x")
    if x.shape[0] != layer.d_in:
        raise ValueError(
            f"input length {x.shape[0]} does not match w0 input dim {layer.d_in}"
        )
    if cfg.input_dim is not None and cfg.input_dim != layer.d_in:
        raise ValueError(
            f"config input_dim {cfg.input_dim} does not match w0 input dim {layer.d_in}"
        )
    return x


def lora_forward(
    layer: FrozenLinear, ad: LoRAAdapter, x, cfg: AdapterConfig
) -> np.ndarray:
    """y = w0 x + (alpha/r) B A x."""
    x = _check_input(layer, x, cfg)
    if ad.a.shape != (cfg.total_rank, layer.d_in) or ad.b.shape != (
        layer.d_out,
        cfg.total_rank,
    ):
        raise ValueError(
            f"adapter shapes A{ad.a.shape} / B{ad.b.shape} inconsistent with "
            f"w0 {layer.w0.shape} and rank {cfg.total_rank}"
        )
    return lora_batch_forward(layer.w0, ad, x[None, :], cfg).z[0]


def lora_merge(layer: FrozenLinear, ad: LoRAAdapter, cfg: AdapterConfig) -> np.ndarray:
    """Fold the low-rank update into the frozen weight: w0 + (alpha/r) B A."""
    if ad.b.shape[0] != layer.d_out or ad.a.shape[1] != layer.d_in:
        raise ValueError(
            f"cannot merge: A{ad.a.shape} / B{ad.b.shape} vs w0 {layer.w0.shape}"
        )
    return layer.w0 + cfg.scaling * (ad.b @ ad.a)


def _trace_from_cache(cache: LayerCache) -> ForwardTrace:
    h = cache.h[:, 0]
    if cache.p is not None:
        # talklora: router input is the concatenated communicated h~
        h_tilde = cache.router_in[0].reshape(h.shape)
    else:
        h_tilde = h.copy()  # no communication exists: mirrors h
    return ForwardTrace(
        h=h,
        h_tilde=h_tilde,
        gates=cache.gates[0].copy(),
        expert_outputs=cache.yexp[:, 0],
        y=cache.z[0],
        delta=cache.delta[0],
    )


def moelora_forward(
    layer: FrozenLinear, ml: MoELoRALayer, x, cfg: AdapterConfig
) -> tuple[np.ndarray, ForwardTrace]:
    """y = w0 x + (alpha/r) sum_i g_i(x) B_i A_i x with g = softmax(W_g x)."""
    x = _check_input(layer, x, cfg)
    cache = moelora_batch_forward(layer.w0, ml, x[None, :], cfg)
    return cache.z[0], _trace_from_cache(cache)


def talking_mix(c, h) -> np.ndarray:
    """Communicated representations h~_i = sum_j C_ij h_j.

    ``h`` is an array carrying the n expert representations along its
    leading axis, (n, r_e) or batched (n, B, r_e); the result has its
    shape.  Equivalent to (C kron I) applied to the stacked representation.
    """
    c = as_matrix(c, "c")
    h = np.asarray(h, dtype=np.float64)
    if h.ndim < 2:
        raise ValueError(
            f"h must stack the expert representations on axis 0, got shape {h.shape}"
        )
    n = h.shape[0]
    if c.shape != (n, n):
        raise ValueError(f"communication matrix is {c.shape}, expected ({n}, {n})")
    return (c @ h.reshape(n, -1)).reshape(h.shape)


def talklora_forward(
    layer: FrozenLinear, tl: TalkLoRALayer, x, cfg: AdapterConfig
) -> tuple[np.ndarray, ForwardTrace]:
    """Full TalkLoRA layer forward.

    h_i = A_i x feeds the experts directly; the communicated h~ = C-mixed h
    (identity when talking is disabled) feeds only the router.  Output is
    w0 x + (alpha/r) sum_i g_i B_i E_i h_i.
    """
    x = _check_input(layer, x, cfg)
    cache = talklora_batch_forward(layer.w0, tl, x[None, :], cfg)
    return cache.z[0], _trace_from_cache(cache)


def _route(tl: TalkLoRALayer, h: np.ndarray, talking_enabled: bool) -> tuple:
    """TalkLoRA routing of stacked h (n, B, r_e): C-mix, concatenate, softmax.

    Returns the router input [h~_1, ..., h~_n] (B, r) and the gates (B, n).
    """
    h_tilde = talking_mix(tl.c, h) if talking_enabled else h
    router_in = h_tilde.transpose(1, 0, 2).reshape(h.shape[1], -1)
    return router_in, softmax_rows(router_in @ tl.router_wg.T)


def router_gates(tl: TalkLoRALayer, x: np.ndarray, talking_enabled: bool = True) -> np.ndarray:
    """Routing function alone: gates for a batch of inputs (B, d) -> (B, n)."""
    return _route(tl, x @ tl.a.transpose(0, 2, 1), talking_enabled)[1]


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
    order of ``layout``, the list of :func:`stack_layout` over ``slots``;
    ``slot_cfgs[i]`` is the config with slot i's dims.  The stack adopts
    ``flat`` as it is, filled or not: each layer array is a view of it, and
    ``ranges[i]`` maps slot i's field names to their slices.  A shared
    array has one slice and view for all layers of its tag, taken from the
    first, and its handles (``shared.<tag>.B<i>``) appear once.  Forwards
    never mutate parameters; optimizers update ``flat``.
    """

    def __init__(self, method: str, cfg: AdapterConfig, slots: list, slot_cfgs: list,
                 layout: list, flat: np.ndarray):
        self.method = method
        self.cfg = cfg
        self.slots = slots
        self.layout = layout
        self.flat = flat
        self._slot_cfgs = slot_cfgs
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
        self.adapters = [_LAYER_TYPES[method](**fields) for fields in arrays]

    def slot_cfg(self, i: int) -> AdapterConfig:
        return self._slot_cfgs[i]

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

    Every slot's dims are checked before anything is allocated.  ``flat``
    is then allocated once, zero, and adopted by the stack; B stays zero,
    and every other array is Kaiming-filled in place, one draw per handle
    from the stream of its role (``A0``, ``E1``, ``C``, ``Wg``) under the
    slot's stream ``slot_rngs[i]``.
    """
    slot_cfgs = [cfg.with_dims(slot.d_in, slot.d_out) for slot in slots]
    layout = list(stack_layout(method, cfg, slots))
    flat = np.zeros(sum(site.size for site in layout if site.first))
    stack = AdapterStack(method, cfg, slots, slot_cfgs, layout, flat)
    for i, rng in enumerate(slot_rngs):
        for role, _, arr in stack.slot_handles(i):
            if not role.startswith("B"):
                kaiming_fill(arr, rng.split(role))
    return stack


def _init_layer(method: str, cfg: AdapterConfig, rng: RngState):
    """A fresh ``method`` layer for a config with dims, drawn from ``rng``:
    the one layer of a one-slot stack, its arrays views of that stack's buffer."""
    slot = LayerSlot(0, "layer", *cfg.require_dims())
    return _init_stack(method, cfg, [slot], [rng]).adapters[0]


def build_stack_from_slots(
    method: str, cfg: AdapterConfig, slots: Sequence[LayerSlot], rng: RngState
) -> AdapterStack:
    """Construct fresh adapters for every slot, slot i drawing from ``init.<slot name>``."""
    if not slots:
        raise ValueError("at least one slot is required")
    slots = list(slots)
    return _init_stack(method, cfg, slots, [rng.split(f"init.{s.name}") for s in slots])


def build_frozen_stack(
    input_dim: int, output_dim: int, depth: int, rng: RngState
) -> list:
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
    slots = []
    for i, fl in enumerate(frozen_layers):
        slots.append(LayerSlot(i, f"{fl.d_in}x{fl.d_out}", fl.d_in, fl.d_out))
    return slots

