"""All tunable parameters of the reproduction, in one place.

Units: time in **seconds**, sizes in **bytes**, bandwidth in **bytes/second**.

Three groups of parameters:

* :class:`TopologyConfig` — the hardware shape (Summit AC922 by default):
  link latencies/bandwidths, GPUs per socket, memory capacities.
* :class:`UcxConfig` — UCX protocol behaviour: eager/rendezvous thresholds,
  GDRCopy availability, pipeline chunk size, per-operation costs.
* :class:`RuntimeConfig` — per-programming-model software overheads
  (Charm++/Converse, AMPI, OpenMPI, Charm4py).  These are the calibrated
  quantities; EXPERIMENTS.md records how the defaults were chosen against
  the paper's reported numbers (e.g. the ~8 μs of AMPI time outside UCX in
  §IV-B1).

The defaults model one Summit node/network; experiments that want a
different machine (more nodes, GDRCopy disabled, different tag-bit split)
derive one with :meth:`MachineConfig.override` — the single path every
surface (builder, CLIs, benchmarks) goes through.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Optional, Union, get_args, get_origin, get_type_hints

from repro.faults.plan import FaultPlan

KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024


@dataclass(frozen=True)
class LinkParams:
    """Alpha-beta parameters of one hardware link."""

    latency: float  # seconds per traversal (alpha)
    bandwidth: float  # bytes/second (1/beta)

    def transfer_time(self, size: int) -> float:
        """Latency + serialisation time for ``size`` bytes."""
        return self.latency + size / self.bandwidth


@dataclass(frozen=True)
class TopologyConfig:
    """Shape and speeds of the simulated machine (default: Summit AC922).

    Summit: 2 Power9 sockets/node, 3 V100s per socket.  GPU<->CPU and
    GPU<->GPU links are NVLink2 (50 GB/s per direction); the sockets are
    joined by the X-Bus (64 GB/s); nodes by EDR InfiniBand (12.5 GB/s).
    """

    nodes: int = 2
    sockets_per_node: int = 2
    gpus_per_socket: int = 3

    nvlink: LinkParams = LinkParams(latency=0.7e-6, bandwidth=42.1 * GB)
    xbus: LinkParams = LinkParams(latency=0.4e-6, bandwidth=58.0 * GB)
    nic: LinkParams = LinkParams(latency=0.8e-6, bandwidth=9.32 * GB)
    # Effective single-stream host memcpy bandwidth (DDR4 on the AC922,
    # as achieved by memcpy-style packing loops, not STREAM triad peak).
    host_mem: LinkParams = LinkParams(latency=0.05e-6, bandwidth=17.0 * GB)
    # On-device copies (DtoD same GPU) run at HBM2 speeds.
    device_mem: LinkParams = LinkParams(latency=0.1e-6, bandwidth=700.0 * GB)

    gpu_memory_capacity: int = 16 * GB  # V100 (16 GB variant)
    gpu_mem_bandwidth: float = 800.0 * GB  # achievable HBM2 stream bandwidth
    host_mem_channels: int = 1  # effective concurrent memcpy streams per node (NUMA-limited)
    nic_rails: int = 2  # Summit nodes have dual-rail EDR InfiniBand

    def __post_init__(self) -> None:
        if not isinstance(self.nodes, int) or self.nodes < 1:
            raise ValueError(f"nodes must be a positive int, got {self.nodes!r}")

    @property
    def gpus_per_node(self) -> int:
        return self.sockets_per_node * self.gpus_per_socket

    @property
    def total_gpus(self) -> int:
        return self.nodes * self.gpus_per_node


@dataclass(frozen=True)
class CudaConfig:
    """CUDA runtime behaviour (what application-level host staging pays)."""

    # Fixed cost of a cudaMemcpy(Async) + cudaStreamSynchronize pair for a
    # small transfer: driver launch + synchronisation.  This is the term
    # that makes host staging expensive for *small* messages.
    memcpy_launch_overhead: float = 6.0e-6
    kernel_launch_overhead: float = 5.0e-6
    stream_sync_overhead: float = 1.5e-6
    # Opening a CUDA IPC handle is very expensive; UCX caches handles.
    ipc_handle_open_cost: float = 80.0e-6
    ipc_cached_open_cost: float = 0.4e-6
    # CUDA-graph launch batching (the multirail striped protocols): capturing
    # the per-chunk copy kernels into one graph pays a single launch of the
    # whole graph, then a small per-chunk node cost, instead of a full
    # ``memcpy_launch_overhead`` per chunk.
    graph_launch_overhead: float = 8.0e-6
    graph_per_chunk_cost: float = 0.6e-6


@dataclass(frozen=True)
class MemoryConfig:
    """Device-allocation strategy (``repro.hardware.memory``).

    The default ``direct`` allocator hands every request straight to the
    GPU's bump allocator, and every free is a real free (invalidating the
    address-keyed caches).  The ``pool`` allocator carves size-class blocks
    out of large slabs (RMM-style): frees return blocks to per-class LIFO
    free lists without touching the caches, so a reused block keeps its
    address — and therefore its NIC registration, IPC handle, and peer
    mappings.  A pool never gives a slab back, so pooled buffers are never
    really freed.
    """

    #: "direct" (seed behaviour) or "pool" (RMM-style slab pooling).
    allocator: str = "direct"
    #: Slab granularity: pool growth allocates this much backing memory at a
    #: time (requests larger than a slab get a dedicated slab of their size).
    pool_slab_bytes: int = 64 * MB
    #: Size-class floor: block sizes are rounded up to the next power of two
    #: at or above this, bounding internal fragmentation and making reuse
    #: deterministic (same class -> same LIFO free list).
    pool_bin_quantum: int = 256
    #: Cap on total slab bytes per GPU (``None``: the GPU's capacity).
    pool_max_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.allocator not in ("direct", "pool"):
            raise ValueError(
                f"allocator must be 'direct' or 'pool', got {self.allocator!r}"
            )
        if self.pool_slab_bytes < 1:
            raise ValueError("pool_slab_bytes must be positive")
        if self.pool_bin_quantum < 1 or (
            self.pool_bin_quantum & (self.pool_bin_quantum - 1)
        ):
            raise ValueError("pool_bin_quantum must be a power of two")
        if self.pool_max_bytes is not None and self.pool_max_bytes < 1:
            raise ValueError("pool_max_bytes must be positive or None")

    @property
    def pooled(self) -> bool:
        return self.allocator == "pool"


@dataclass(frozen=True)
class UcxConfig:
    """UCX protocol selection and per-operation costs."""

    # Host-memory rendezvous threshold (UCX_RNDV_THRESH for host buffers).
    host_rndv_threshold: int = 16 * KB
    # Device-memory eager limit: below this, GDRCopy-based eager is used
    # (when available); at/above it, rendezvous with CUDA IPC (intra-node)
    # or pipelined staging (inter-node).
    device_eager_threshold: int = 4 * KB
    gdrcopy_enabled: bool = True
    # GDRCopy: CPU-driven BAR1 window copies. Low latency, modest bandwidth.
    gdrcopy_latency: float = 0.55e-6
    gdrcopy_bandwidth: float = 6.0 * GB
    # Pipelined host staging for inter-node device rendezvous: chunk size of
    # the bounce buffers (UCX_RNDV_PIPELINE defaults are of this order).
    pipeline_chunk: int = 512 * KB
    pipeline_per_chunk_cost: float = 0.8e-6  # progress + DMA kicks per chunk
    # Summit-era UCX stages inter-node device rendezvous through host memory;
    # setting this True instead takes the direct GPUDirect-RDMA route
    # (ablation: what a GDR-capable fabric would buy).
    gpudirect_rdma: bool = False
    # Without GDRCopy, small device messages fall back to cudaMemcpy-staged
    # eager inside UCT, paying the launch overhead both sides.
    no_gdr_staging_overhead: float = 7.0e-6

    # Per-call software costs of the UCP layer.
    send_overhead: float = 0.25e-6  # ucp_tag_send_nb bookkeeping
    recv_overhead: float = 0.25e-6  # ucp_tag_recv_nb bookkeeping
    tag_match_cost: float = 0.10e-6  # scan/match of one queue entry
    request_alloc_cost: float = 0.05e-6
    progress_overhead: float = 0.15e-6  # one ucp_worker_progress poll
    rndv_rts_cost: float = 0.30e-6  # control message handling (each side)
    # Inter-node host rendezvous registers (pins) the source pages with the
    # NIC before the RDMA get; amortised cost per message.
    host_rndv_reg_overhead: float = 14.0e-6

    # -- connection / registration lifecycle (default off: zero-cost, so
    # -- pre-existing fingerprints are bit-identical) ------------------------
    # First-touch peer mapping of a device buffer: registering one buffer
    # with one peer's transport (IPC mapping + IB registration of the BAR
    # window) costs hundreds of milliseconds in production GPU deployments
    # (dask-cuda's motivation for RMM pooling).  Charged once per
    # (buffer base allocation, worker pair); 0.0 disables the model.
    mapping_cost: float = 0.0
    # Lazy endpoint establishment: the first message through an endpoint
    # pays the connection setup (wireup, transport selection).  0.0 keeps
    # endpoints free, as the seed modelled them.
    ep_setup_cost: float = 0.0
    # Per-worker endpoint cap: beyond it the least-recently-used endpoint is
    # closed (dropping its peer mappings) before a new one opens.  ``None``
    # keeps every endpoint forever.
    max_endpoints: Optional[int] = None
    # Registration-cache capacity pressure: cap on live first-touch peer
    # mappings.  Beyond it the least-recently-touched mapping is evicted
    # (``ucx.mapping_evicted``) and a re-touch re-pays ``mapping_cost`` —
    # the regime rail-striped chunk traffic would otherwise grow without
    # bound.  ``None`` (default) keeps every mapping forever, bit-identical
    # to the uncapped model.
    max_mappings: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mapping_cost < 0.0 or self.ep_setup_cost < 0.0:
            raise ValueError("mapping_cost/ep_setup_cost must be >= 0")
        if self.max_endpoints is not None and self.max_endpoints < 1:
            raise ValueError("max_endpoints must be >= 1 or None")
        if self.max_mappings is not None and self.max_mappings < 1:
            raise ValueError("max_mappings must be >= 1 or None")


@dataclass(frozen=True)
class TagConfig:
    """The 64-bit tag split of the paper's Fig. 3 (MSG|PE|CNT)."""

    msg_bits: int = 4
    pe_bits: int = 32
    cnt_bits: int = 28

    def __post_init__(self) -> None:
        if self.msg_bits + self.pe_bits + self.cnt_bits != 64:
            raise ValueError(
                "tag bit fields must sum to 64, got "
                f"{self.msg_bits}+{self.pe_bits}+{self.cnt_bits}"
            )
        if min(self.msg_bits, self.pe_bits, self.cnt_bits) < 1:
            raise ValueError("all tag bit fields must be >= 1")


@dataclass(frozen=True)
class CollectivesConfig:
    """Device-collective behaviour (``repro.collectives``).

    Each collective call picks the algorithm whose predicted completion
    time — derived from the link model, never from per-algorithm constants —
    is smallest for the message size, rank count and topology at hand; a
    per-call ``algorithm=`` argument forces a choice instead.
    """

    # Pipeline granularity of the ring/chain algorithms (8-byte aligned so
    # chunk boundaries never split a float64 element).
    ring_chunk: int = 512 * KB
    # Allow the two-level decomposition (intra-node phase over NVLink,
    # inter-node phase over the NIC) to compete in selection.
    hierarchical_enabled: bool = True

    def __post_init__(self) -> None:
        if self.ring_chunk < 8 or self.ring_chunk % 8:
            raise ValueError(
                f"ring_chunk must be a positive multiple of 8, got {self.ring_chunk}"
            )


@dataclass(frozen=True)
class MultirailConfig:
    """Multi-path (multi-rail) striped transfers (``repro.ucx.protocols.
    multirail`` + ``repro.hardware.rails``).

    When enabled, rendezvous bulk transfers at or above ``min_bytes`` are
    split into ``chunk_bytes`` chunks striped across the disjoint link
    paths the :class:`~repro.hardware.rails.RailPlanner` enumerates for the
    endpoint pair: intra-node device pairs add a second path over the
    otherwise-idle secondary NVLink bricks through host memory (the
    CPU-staged sideband of the multi-path CUDA-graphs paper), inter-node
    pairs stripe across both EDR NIC rails.  Chunks are assigned to rails
    by a deterministic bandwidth-weighted greedy rule, at most ``window``
    chunks are in flight per rail, and a completion barrier preserves the
    single-transfer matching/flight-record semantics.

    Default **off**: no alternate links are built and every transfer takes
    the seed's single-route path — fingerprints are bit-identical to a
    config without this section (gated by ``tests/test_multirail.py``).
    """

    enabled: bool = False
    #: Paths considered per endpoint pair (>= 2 enables striping; the
    #: planner may find fewer for a given pair).
    max_rails: int = 2
    #: Stripe granularity.  Chunk boundaries never split the transfer:
    #: the last chunk carries the remainder.
    chunk_bytes: int = 512 * KB
    #: Transfers below this stay on the single seed route.
    min_bytes: int = 1 * MB
    #: Per-rail in-flight chunk window (back-pressure on queued chunks).
    window: int = 2

    def __post_init__(self) -> None:
        if self.max_rails < 1:
            raise ValueError("max_rails must be >= 1")
        if self.chunk_bytes < 1:
            raise ValueError("chunk_bytes must be positive")
        if self.min_bytes < 1:
            raise ValueError("min_bytes must be positive")
        if self.window < 1:
            raise ValueError("window must be >= 1")


@dataclass(frozen=True)
class RuntimeConfig:
    """Per-layer software overheads of the programming models.

    Calibration anchors (see EXPERIMENTS.md for the full derivation):

    * Charm++ small-message host latency on Summit is a small number of μs;
      scheduler pick-up + entry dispatch + converse handling land there.
    * The paper measures ~8 μs of one-way AMPI time spent *outside* UCX
      (§IV-B1): matching, message creation, callbacks, heap allocations and
      the delayed receive post.  The ``ampi_*`` costs sum to that.
    * OpenMPI's thin path over UCX adds well under 1 μs per side.
    * Charm4py pays Python/Cython per-call costs of several μs and
      serialisation bandwidth far below memcpy for host payloads.
    """

    # -- Converse / Charm++ core -------------------------------------------
    scheduler_pickup_overhead: float = 0.20e-6  # dequeue + handler lookup
    entry_dispatch_overhead: float = 0.45e-6  # unpack env + invoke entry
    converse_header_bytes: int = 96  # CmiMessage + envelope on the wire
    charm_send_overhead: float = 0.50e-6  # proxy call, env setup, marshalling
    post_entry_overhead: float = 0.30e-6  # running the post entry method
    callback_invoke_overhead: float = 0.30e-6
    reduction_overhead: float = 0.40e-6  # per contribution/combine step

    # -- machine layer (the paper's contribution) ---------------------------
    lrts_send_device_overhead: float = 0.35e-6  # tag gen + metadata fill
    lrts_recv_device_overhead: float = 0.35e-6
    device_metadata_bytes: int = 64  # serialized CkDeviceBuffer in the msg
    heap_alloc_cost: float = 0.15e-6  # per metadata allocation (paper notes)

    # -- AMPI ----------------------------------------------------------------
    ampi_send_overhead: float = 3.0e-6  # msg creation, comm lookup, locality
    ampi_recv_overhead: float = 2.2e-6  # request handling, matching
    # Device-pointer detection (paper §III-C: per-PE software cache of
    # addresses known to be on the GPU).
    gpu_pointer_check_cost: float = 0.45e-6  # cuPointerGetAttribute on miss
    gpu_pointer_cache_hit_cost: float = 0.05e-6
    ampi_match_cost: float = 0.15e-6  # per unexpected/posted queue probe
    ampi_callback_overhead: float = 0.9e-6  # completion callbacks (x2 paths)
    ampi_metadata_allocs: int = 2  # heap allocations noted in §IV-B1
    # Reproduction of the measured artifact in §IV-B2: AMPI-H bandwidth dips
    # at 128 KB ("due to a sudden increase in latency, which is being
    # investigated").  Modelled as a memory-registration cost kicking in at
    # the pin threshold of AMPI's zero-copy host path; disable to ablate.
    model_ampi_128k_dip: bool = True
    ampi_pin_threshold: int = 128 * KB
    ampi_pin_overhead: float = 14.0e-6
    ampi_pin_bandwidth: float = 60.0 * GB

    # -- OpenMPI baseline -----------------------------------------------------
    ompi_send_overhead: float = 0.30e-6
    ompi_recv_overhead: float = 0.30e-6

    # -- Charm4py --------------------------------------------------------------
    # Python-level entry/channel call cost (interpreter + object glue).
    py_call_overhead: float = 3.2e-6
    # Crossing the Cython layer into the Charm++ runtime.
    cython_crossing_overhead: float = 0.5e-6
    # Host payloads are serialised (pickled) at this bandwidth; this is what
    # crushes Charm4py-H for large messages (Fig. 10c / 11c).
    pickle_bandwidth: float = 5.0 * GB
    pickle_overhead: float = 1.0e-6
    # Future/coroutine scheduling on fulfilment.
    future_fulfill_overhead: float = 1.5e-6
    # Per-message python-side driving cost of device channel sends; together
    # with the sequential coroutine receive path this caps Charm4py device
    # bandwidth below Charm++'s (35.5 vs 44.7 GB/s intra-node in §IV-B2).
    charm4py_device_send_overhead: float = 3.5e-6
    # Python-side cost of handling a device *rendezvous* receive (RTS ->
    # post -> completion each cross the Cython layer); per message.
    charm4py_rndv_post_overhead: float = 15.0e-6
    # Inter-node device rendezvous is chunk-pipelined; Charm4py's runtime
    # drives buffer recycling from Python, costing this much per chunk.
    # This is what holds Charm4py at ~6 GB/s inter-node (§IV-B2).
    charm4py_pipeline_chunk_overhead: float = 33.0e-6


@dataclass(frozen=True)
class MachineConfig:
    """Top-level bundle consumed by :class:`repro.core.api.Machine`."""

    topology: TopologyConfig = field(default_factory=TopologyConfig)
    cuda: CudaConfig = field(default_factory=CudaConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    ucx: UcxConfig = field(default_factory=UcxConfig)
    tags: TagConfig = field(default_factory=TagConfig)
    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)
    collectives: CollectivesConfig = field(default_factory=CollectivesConfig)
    multirail: MultirailConfig = field(default_factory=MultirailConfig)
    trace: bool = False
    # Message-lifecycle flight recording (repro.obs.flight); like `trace`,
    # observation-only — simulated results are identical on or off.
    flight: bool = False
    # Resource-telemetry timelines (repro.obs.timeline): bounded time-series
    # sampling of link/queue/pool/endpoint occupancy.  Observation-only,
    # like `trace` and `flight` — fingerprints are identical on or off.
    telemetry: bool = False
    # Deterministic fault injection (repro.faults).  None or an *empty*
    # plan builds no injector: such runs are bit-identical to each other.
    faults: Optional[FaultPlan] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise TypeError(
                f"faults must be a FaultPlan or None, got {type(self.faults).__name__}"
            )

    # -- constructors ---------------------------------------------------------
    @classmethod
    def summit(cls, nodes: int = 2) -> "MachineConfig":
        """The calibrated Summit configuration used by all paper experiments."""
        return cls(topology=TopologyConfig(nodes=nodes))

    # -- the one derivation path ------------------------------------------------
    def override(self, *overrides) -> "MachineConfig":
        """Copy with fields replaced by name.

        Each argument is a ``"section.field=value"`` string (the CLI
        spelling; a top-level field has no section) or a mapping of dotted
        keys to values::

            cfg.override("ucx.max_endpoints=4", "trace=true")
            cfg.override({"memory.allocator": "pool", "ucx.mapping_cost": 1e-3})

        Names are checked against the dataclasses, string values are
        converted by the field's declared type (``none`` for an
        ``Optional``; ``true/false/1/0`` for a ``bool``; inline JSON or a
        JSON file path for ``faults``), and all keys of
        one section are applied in a single ``replace``, so coupled fields
        (the three tag-bit widths) validate together, once, in the
        section's ``__post_init__``.
        """
        changes = {}
        for item in overrides:
            if isinstance(item, str):
                key, eq, text = item.partition("=")
                if not eq:
                    raise ValueError(f"override {item!r} is not of the form key=value")
                changes[key.strip()] = text.strip()
            else:
                changes.update(item)
        return _derive(self, changes)

    # -- shorthands (one-line delegations; everything else spells the key) ----
    def with_faults(self, plan: Optional[FaultPlan]) -> "MachineConfig":
        """An empty plan is kept as-is; the machine treats it like ``None``."""
        return self.override({"faults": plan})

    def with_virtual_payload(self) -> "MachineConfig":
        """No-op: buffers hold no bytes until a program touches them, so
        there is no payload setting left.  Kept for the callers under
        ``benchmarks/perf``."""
        return self

    def with_pool(self, enabled: bool = True) -> "MachineConfig":
        """The pool-on/pool-off ablation pair."""
        return self.override({"memory.allocator": "pool" if enabled else "direct"})

    def with_ucx(self, **overrides) -> "MachineConfig":
        return self.override({f"ucx.{k}": v for k, v in overrides.items()})


def add_override_arg(parser) -> None:
    """Declare ``--override`` — the one config option of every ``repro-*``
    command line; apply with ``cfg.override(*args.override)``."""
    parser.add_argument("--override", action="append", default=[],
                        metavar="SECTION.KEY=VALUE",
                        help="set any config field by name, e.g. "
                             "ucx.max_endpoints=4, multirail.enabled=true, "
                             "faults=plan.json (or inline JSON) or seed=7 "
                             "(repeatable; see repro.config)")


def _derive(cfg, changes: dict, path: str = ""):
    """``replace`` on dataclass ``cfg`` with dotted-key ``changes``: a key
    ``a.b`` recurses into the dataclass-valued field ``a``."""
    names = [f.name for f in fields(cfg)]
    direct, nested = {}, {}
    for key, value in changes.items():
        head, dot, rest = key.partition(".")
        if dot:
            nested.setdefault(head, {})[rest] = value
        else:
            direct[key] = value
    unknown = sorted(set(direct) - set(names))
    if unknown:
        raise ValueError(
            f"unknown {type(cfg).__name__} override(s) {unknown}; "
            f"valid fields: {sorted(names)}"
        )
    if any(isinstance(v, str) for v in direct.values()):
        types = get_type_hints(type(cfg))
        direct = {k: _coerce(v, types[k], path + k) if isinstance(v, str) else v
                  for k, v in direct.items()}
    for head, sub in nested.items():
        section = direct.get(head, getattr(cfg, head, None))
        if not is_dataclass(section):
            valid = [n for n in names if is_dataclass(getattr(cfg, n))]
            raise ValueError(f"unknown config section {path + head!r}; valid: {valid}")
        direct[head] = _derive(section, sub, f"{path}{head}.")
    return replace(cfg, **direct)


def _coerce(text: str, tp, key: str):
    """``text`` as a value of the declared field type ``tp``."""
    if get_origin(tp) is Union:  # Optional[T]
        if text.lower() == "none":
            return None
        (tp,) = (a for a in get_args(tp) if a is not type(None))
    if tp is bool:
        if text.lower() in ("true", "1"):
            return True
        if text.lower() in ("false", "0"):
            return False
        raise ValueError(f"{key} expects true/false/1/0, got {text!r}")
    if tp is FaultPlan:  # inline JSON, or the path of a JSON plan file
        return FaultPlan.load(text)
    if tp in (int, float, str):
        try:
            return tp(text)
        except ValueError:
            raise ValueError(f"{key} expects {tp.__name__}, got {text!r}") from None
    raise ValueError(f"{key} ({tp.__name__}) cannot be set from a string")
