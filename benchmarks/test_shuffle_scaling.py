"""Shuffle ablation smoke: the pooled allocator must earn its keep.

The Dask-style all-to-all shuffle is the workload the pooled allocator /
endpoint-lifecycle model exists for: every rank talks to every other rank
round after round, so with first-touch mapping charges enabled a direct
allocator re-pays the per-(buffer, peer) mappings each round while the
slab pool amortises them to the first.  This tier-1 smoke pins that
relationship at small scale (2 nodes, 12 ranks, 132 directed pairs):

* pool-on strictly beats pool-off, by at least the 2x gate margin,
* with the cost model off, pooling is timing-neutral (bit-identical
  fingerprints — the default-off contract of the whole PR),
* the shuffle is deterministic: two identical runs, identical
  fingerprints,
* all three models move identical bytes over the same plan.

The paper-scale points (4 nodes / 2256 cumulative pairs and the pinned
modeled times) live in the committed baseline (``BENCH_baseline.json``,
``benchmarks/test_baseline_gate.py``).
"""

from __future__ import annotations

import pytest

import repro.api as api
from repro.apps.shuffle import ShufflePlan, chunk_bytes, run_shuffle
from repro.apps.shuffle.driver import DEMO_OVERRIDES
from repro.config import MachineConfig

NODES = 2
ROUNDS = 6
#: the baseline workloads' first-touch charges (see repro.obs.baseline)
MAPPING_COST = 1e-3
EP_SETUP_COST = 2e-5
#: modeled-time margin the pooled run must win by at small scale
GATE_MARGIN = 2.0


def _cfg(pool: bool, mapping: bool = True) -> MachineConfig:
    cfg = MachineConfig.summit(nodes=NODES).with_pool(pool)
    if mapping:
        cfg = cfg.with_ucx(mapping_cost=MAPPING_COST,
                           ep_setup_cost=EP_SETUP_COST)
    return cfg


def _run(model: str, pool: bool, mapping: bool = True):
    cfg = _cfg(pool, mapping)
    builder = api.session(cfg).model(model).flight()
    if model != "charm4py":
        builder = builder.ranks(cfg.topology.total_gpus)
    sess = builder.build()
    result = run_shuffle(model, rounds=ROUNDS, session=sess)
    return result, sess.baseline_fingerprint()


class TestPoolAblation:
    @pytest.mark.parametrize("model", ["ampi", "openmpi", "charm4py"])
    def test_pool_beats_direct_by_gate_margin(self, model):
        pooled, fp_pool = _run(model, pool=True)
        direct, fp_direct = _run(model, pool=False)
        assert pooled.bytes_moved == direct.bytes_moved
        assert pooled.chunks_moved == direct.chunks_moved
        assert pooled.total_time * GATE_MARGIN < direct.total_time, (
            f"{model}: pooled {pooled.total_time * 1e3:.3f}ms not "
            f"{GATE_MARGIN}x faster than direct "
            f"{direct.total_time * 1e3:.3f}ms"
        )
        # the win comes from amortisation, not from moving less traffic:
        # one first-touch mapping per directed pair when pooled, re-paid
        # every round when direct
        pairs = ShufflePlan(n_ranks=NODES * 6).pairs
        assert fp_pool["counters"]["ucx.mapping_new"] == pairs
        assert fp_direct["counters"]["ucx.mapping_new"] > 2 * pairs
        assert fp_pool["counters"]["mem.pool_hit"] > 0

    def test_shuffle_deterministic(self):
        _, fp_a = _run("ampi", pool=True)
        _, fp_b = _run("ampi", pool=True)
        assert fp_a == fp_b

    def test_direct_allocator_is_the_bit_identical_default(self):
        """``allocator="direct"`` IS the default: a config that never
        mentions the memory layer and one that selects it explicitly run
        bit-identically (the default-off contract — pre-existing
        workloads cannot shift)."""
        _, fp_explicit = _run("ampi", pool=False, mapping=False)
        cfg = MachineConfig.summit(nodes=NODES)
        sess = (api.session(cfg).model("ampi").flight()
                .ranks(cfg.topology.total_gpus).build())
        run_shuffle("ampi", rounds=ROUNDS, session=sess)
        assert sess.baseline_fingerprint() == fp_explicit

    def test_pool_never_loses_even_without_cost_model(self):
        """With the first-touch charges off, the pool's only timing effect
        is amortising the pre-existing IPC-handle-open cache (pooled
        blocks share their slab's base address), so it can only help."""
        pooled, fp_pool = _run("ampi", pool=True, mapping=False)
        direct, fp_direct = _run("ampi", pool=False, mapping=False)
        assert pooled.bytes_moved == direct.bytes_moved
        assert pooled.total_time <= direct.total_time
        assert (fp_pool["counters"]["cuda_ipc.open_new"]
                < fp_direct["counters"]["cuda_ipc.open_new"])


class TestPlanGeometry:
    def test_models_agree_on_traffic(self):
        results = [_run(m, pool=True)[0] for m in ("ampi", "openmpi",
                                                   "charm4py")]
        assert len({r.bytes_moved for r in results}) == 1
        assert len({r.chunks_moved for r in results}) == 1
        assert results[0].chunks_moved == (
            ShufflePlan(n_ranks=NODES * 6, rounds=ROUNDS).pairs * ROUNDS
        )

    def test_chunk_sizes_deterministic_and_skewed(self):
        plan = ShufflePlan(n_ranks=12, rounds=ROUNDS)
        sizes = {chunk_bytes(plan, r, s, d)
                 for r in range(plan.rounds)
                 for s in range(plan.n_ranks)
                 for d in range(plan.n_ranks) if s != d}
        # skew: several distinct pool size inputs, all within the band
        assert len(sizes) > 3
        assert all(plan.chunk // 2 <= x <= plan.chunk or x == 512
                   for x in sizes)
        assert chunk_bytes(plan, 1, 2, 3) == chunk_bytes(plan, 1, 2, 3)

    def test_cli_defaults_charge_first_touch(self):
        # the CLI ablation must exercise the cost model out of the box
        assert DEMO_OVERRIDES["ucx.mapping_cost"] > 0.0
        assert DEMO_OVERRIDES["ucx.ep_setup_cost"] > 0.0
