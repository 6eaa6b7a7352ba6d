"""Tier-1 gate: the perf-regression baseline must record, check clean,
and trip on any perturbed value.

Runs a reduced workload subset for speed (one eager point, one rendezvous
point), plus one full-CLI round trip and a check of the committed
``BENCH_baseline.json`` at the repository root.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.baseline import main
from repro.config import MachineConfig
from repro.obs.baseline import (
    DEFAULT_BASELINE_PATH,
    WORKLOADS,
    check_baseline,
    collect_baseline,
    load_baseline,
    save_baseline,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

# one eager + one rendezvous point: fast but covers both protocol paths
FAST_WORKLOADS = ["osu_latency_ampi_intra_8", "osu_latency_ampi_inter_64K"]


def _committed_entry_names():
    path = REPO_ROOT / DEFAULT_BASELINE_PATH
    if not path.exists():
        return []
    return sorted(load_baseline(path)["entries"])


class TestGateLibrary:
    def test_record_then_check_clean(self, tmp_path):
        doc = collect_baseline(workloads=FAST_WORKLOADS)
        path = save_baseline(doc, tmp_path / "base.json")
        report = check_baseline(load_baseline(path))
        assert report.ok, report.format()
        assert report.compared == len(FAST_WORKLOADS)

    def test_perturbed_config_trips_gate(self, tmp_path):
        doc = collect_baseline(workloads=FAST_WORKLOADS)
        slow = MachineConfig.summit(nodes=2).override(
            "runtime.ampi_send_overhead=6e-6")
        report = check_baseline(doc, config=slow)
        assert not report.ok
        # the drift shows up in the modeled quantities, named in the report
        assert any("latency_us" in f or "sim_time_us" in f
                   for f in report.failures), report.format()

    def test_missing_workload_reported(self):
        doc = collect_baseline(workloads=FAST_WORKLOADS[:1])
        doc["entries"]["osu_latency_nope_intra_8"] = {"events": 1}
        report = check_baseline(doc)
        assert not report.ok
        assert any("no longer defined" in f for f in report.failures)

    def test_empty_baseline_fails(self):
        report = check_baseline({"schema": 1, "entries": {}})
        assert not report.ok

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 99, "entries": {}}')
        with pytest.raises(ValueError, match="schema"):
            load_baseline(path)

    def test_apply_override(self):
        # the gate's --override is MachineConfig.override: every
        # dataclass-typed section is addressable (tests/test_config.py owns
        # the value and error cases)
        cfg = MachineConfig.summit(nodes=2)
        assert cfg.override("runtime.ampi_send_overhead=6e-6") \
            .runtime.ampi_send_overhead == 6e-6
        assert cfg.override("memory.allocator=pool").memory.allocator == "pool"
        assert cfg.override("collectives.hierarchical_enabled=false") \
            .collectives.hierarchical_enabled is False
        assert cfg.override("multirail.enabled=true").multirail.enabled is True
        with pytest.raises(ValueError, match=r"unknown UcxConfig override\(s\) "
                                             r"\['indexed_matching'\]; valid fields"):
            cfg.override("ucx.indexed_matching=false")


class TestExactGate:
    def test_one_nanopercent_drift_fails_and_prints_both_values(self):
        """The gate compares with ``==``: a 1e-9 relative nudge of one
        float config field moves the modeled latency far below what a
        ``.6g`` print shows, and ``check`` must still fail, name the
        value's path and print both values in full (``repr``)."""
        name = FAST_WORKLOADS[0]
        doc = collect_baseline(workloads=[name])
        cfg = MachineConfig.summit(nodes=2)
        nudged = cfg.override({"runtime.ampi_send_overhead":
                               cfg.runtime.ampi_send_overhead * (1 + 1e-9)})
        report = check_baseline(doc, config=nudged)
        assert not report.ok
        # host time is reported, never judged
        assert report.wallclock[name] > 0.0
        assert "wall-clock" in report.format()
        where = f"{name}.latency_us: "
        line = next(f for f in report.failures if f.startswith(where))
        base, cur = line[len(where):].split(" -> ")
        assert base == repr(doc["entries"][name]["latency_us"])
        assert float(cur) != float(base)
        assert abs(float(cur) / float(base) - 1) < 1e-8

    def test_type_is_part_of_the_value(self):
        name = FAST_WORKLOADS[0]
        doc = collect_baseline(workloads=[name])
        fp = doc["entries"][name]
        events = fp["events"]
        as_float = {**doc, "entries": {name: {**fp, "events": float(events)}}}
        report = check_baseline(as_float)
        assert report.failures == [f"{name}.events: {float(events)!r} -> {events!r}"]

    def test_record_workloads_keeps_the_other_entries(self, tmp_path):
        """``record --workloads`` re-records the named entries of an
        existing file and leaves every other entry byte-for-byte alone,
        even one a fresh run would change."""
        kept, redone = FAST_WORKLOADS
        out = tmp_path / "base.json"
        assert main(["record", "--out", str(out), "--workloads", kept,
                     "--workloads", redone]) == 0
        fresh = load_baseline(out)
        # both entries stale: only the named one may be re-run
        stale = load_baseline(out)
        for name in (kept, redone):
            stale["entries"][name]["events"] += 1
        save_baseline(stale, out)
        assert main(["record", "--out", str(out), "--workloads", redone]) == 0
        expected = dict(stale, entries={kept: stale["entries"][kept],
                                        redone: fresh["entries"][redone]})
        assert out.read_text() == save_baseline(
            expected, tmp_path / "expected.json").read_text()

    @pytest.mark.parametrize("hashseed", ["0", "1"])
    def test_observed_entry_checks_clean_under_any_hash_seed(self, tmp_path,
                                                             hashseed):
        """The observation block holds no set or dict order: the CLI check
        of an ``observed_*`` entry passes whatever ``PYTHONHASHSEED`` is."""
        name = "observed_openmpi_intra_8B"
        doc = load_baseline(REPO_ROOT / DEFAULT_BASELINE_PATH)
        path = save_baseline(dict(doc, entries={name: doc["entries"][name]}),
                             tmp_path / "one.json")
        env = dict(os.environ, PYTHONHASHSEED=hashseed,
                   PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.bench.baseline", "check",
             "--baseline", str(path)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "1 workload(s), 0 failure(s)" in proc.stdout


class TestGateCli:
    def test_record_check_roundtrip_and_trip(self, tmp_path, capsys):
        out = tmp_path / "base.json"
        record = ["record", "--out", str(out)]
        for name in FAST_WORKLOADS:
            record += ["--workloads", name]
        assert main(record) == 0
        assert out.exists()
        assert main(["check", "--baseline", str(out)]) == 0
        assert main([
            "check", "--baseline", str(out),
            "--override", "runtime.ampi_send_overhead=6e-6",
        ]) == 1
        text = capsys.readouterr().out
        assert "FAIL" in text


class TestCommittedBaseline:
    def test_repo_root_baseline_exists(self):
        path = REPO_ROOT / DEFAULT_BASELINE_PATH
        assert path.exists(), (
            f"{DEFAULT_BASELINE_PATH} missing at the repo root — "
            "regenerate with: python -m repro.bench.baseline record"
        )

    def test_committed_baseline_covers_full_suite(self):
        """Every defined workload — including the six jacobi scaling
        sweeps — must be pinned in the committed baseline."""
        missing = set(WORKLOADS) - set(_committed_entry_names())
        assert not missing, (
            f"workloads missing from the committed baseline: {sorted(missing)} "
            "— regenerate with: python -m repro.bench.baseline record"
        )

    # one test per committed entry: jacobi ladders run a 256-node point
    # each, so the per-test wall-clock ceiling (conftest.py) stays honest
    @pytest.mark.parametrize("name", _committed_entry_names() or ["<absent>"])
    def test_committed_entry_checks_clean(self, name):
        path = REPO_ROOT / DEFAULT_BASELINE_PATH
        assert path.exists(), f"{DEFAULT_BASELINE_PATH} missing at the repo root"
        doc = load_baseline(path)
        sub = dict(doc, entries={name: doc["entries"][name]})
        report = check_baseline(sub)
        assert report.ok, report.format()

    def test_jacobi_sweeps_pin_scaling_shape(self):
        """The committed jacobi entries must hold one fingerprint per
        ladder point with sane scaling shapes: weak scaling keeps the
        iteration time roughly flat while strong scaling shrinks it."""
        doc = load_baseline(REPO_ROOT / DEFAULT_BASELINE_PATH)
        for model in ("charm", "ampi", "charm4py"):
            weak = doc["entries"][f"jacobi_{model}_weak_256"]
            strong = doc["entries"][f"jacobi_{model}_strong_256"]
            assert set(weak) == {"n4", "n64", "n256"}
            assert set(strong) == {"n8", "n64", "n256"}
            for fp in list(weak.values()) + list(strong.values()):
                assert fp["events"] > 0
                assert fp["iter_time_us"] > 0.0
            # strong scaling: 32x the nodes must cut the iteration time
            assert strong["n256"]["iter_time_us"] < strong["n8"]["iter_time_us"] / 4
            # weak scaling: communication grows but stays within 4x of the
            # small-node iteration time (the paper's flat-ish weak curves)
            assert weak["n256"]["iter_time_us"] < weak["n4"]["iter_time_us"] * 4

    def test_collective_workloads_pin_hierarchical_win(self):
        """The two 64-rank 1 MB allreduce points must be pinned, the
        hierarchical variant must actually run the two-level algorithm,
        and its modeled time must beat the flat variant's — the device-
        collective crossover asserted as committed data."""
        doc = load_baseline(REPO_ROOT / DEFAULT_BASELINE_PATH)
        flat = doc["entries"].get("coll_allreduce_ampi_64r_1M_flat")
        hier = doc["entries"].get("coll_allreduce_ampi_64r_1M_hier")
        assert flat is not None and hier is not None, (
            "coll_allreduce_ampi_64r_1M_{flat,hier} missing from the "
            "committed baseline — regenerate with: "
            "python -m repro.bench.baseline record"
        )
        assert hier["counters"].get("coll.allreduce.hierarchical") == 64
        assert flat["counters"].get("coll.allreduce.hierarchical", 0) == 0
        assert flat["counters"].get("coll.allreduce") == 64
        assert hier["sim_time_us"] < flat["sim_time_us"], (
            f"hierarchical {hier['sim_time_us']:.1f}us not faster than "
            f"flat {flat['sim_time_us']:.1f}us"
        )

    def test_shuffle_workloads_pin_pool_win(self):
        """The shuffle ablation points must be pinned pairwise, the pooled
        variant must actually amortise (one first-touch mapping per
        communicator pair, pool hits in the steady state), and its modeled
        time must beat the direct variant's by at least 2x — the pooled-
        allocator headline, asserted as committed data."""
        doc = load_baseline(REPO_ROOT / DEFAULT_BASELINE_PATH)
        for model, nodes in (("ampi", 4), ("charm4py", 4), ("openmpi", 2)):
            pool = doc["entries"].get(f"shuffle_{model}_{nodes}n_pool")
            direct = doc["entries"].get(f"shuffle_{model}_{nodes}n_direct")
            assert pool is not None and direct is not None, (
                f"shuffle_{model}_{nodes}n_{{pool,direct}} missing from the "
                "committed baseline — regenerate with: "
                "python -m repro.bench.baseline record"
            )
            # same traffic on both sides of the ablation
            assert pool["bytes_moved"] == direct["bytes_moved"]
            assert pool["chunks_moved"] == direct["chunks_moved"]
            ranks = nodes * 6
            pairs = ranks * (ranks - 1)
            # pooled: first-touch mappings collapse to one per directed
            # pair; the steady state is all hits and pool reuse
            assert pool["counters"]["ucx.mapping_new"] == pairs
            assert pool["counters"]["ucx.mapping_hit"] > 0
            assert pool["counters"]["mem.pool_hit"] > 0
            assert pool["counters"].get("mem.pool_return", 0) > 0
            # direct: every round re-pays the mappings, no pool activity
            assert direct["counters"]["ucx.mapping_new"] > 2 * pairs
            assert "mem.pool_hit" not in direct["counters"]
            assert pool["sim_time_us"] * 2 < direct["sim_time_us"], (
                f"shuffle_{model}: pooled {pool['sim_time_us']:.1f}us not "
                f"2x faster than direct {direct['sim_time_us']:.1f}us"
            )

    def test_multirail_workloads_pin_striping_win(self):
        """The multirail ablation triple must be pinned: the striped run
        beats single-rail (with real per-rail chunk traffic in its
        counters), and the one-rail-down run falls back to the single-rail
        fingerprint *bit-exactly* — modeled time, event count and all
        non-rail counters — with the fallback visible in its counters."""
        doc = load_baseline(REPO_ROOT / DEFAULT_BASELINE_PATH)
        single = doc["entries"].get("bw_ampi_intra_4M_singlerail")
        striped = doc["entries"].get("bw_ampi_intra_4M_multirail")
        down = doc["entries"].get("bw_ampi_intra_4M_multirail_raildown")
        assert single is not None and striped is not None and down is not None, (
            "bw_ampi_intra_4M_{singlerail,multirail,multirail_raildown} "
            "missing from the committed baseline — regenerate with: "
            "python -m repro.bench.baseline record"
        )
        # striping: faster clock, higher bandwidth, both rails carrying
        assert striped["sim_time_us"] < single["sim_time_us"]
        assert striped["bandwidth_gbs"] > single["bandwidth_gbs"]
        assert striped["bandwidth_gbs"] > 42.1  # the NVLink-only ceiling
        assert striped["counters"]["ucx.rail.striped"] > 0
        assert striped["counters"]["ucx.rail.0.chunks"] > 0
        assert striped["counters"]["ucx.rail.1.chunks"] > 0
        assert "ucx.rail.striped" not in single["counters"]
        # one rail down: graceful, bit-exact fallback to single-rail
        assert down["sim_time_us"] == single["sim_time_us"]
        assert down["events"] == single["events"]
        assert down["bandwidth_gbs"] == single["bandwidth_gbs"]
        assert down["counters"]["ucx.rail.fallback_single"] > 0
        assert down["counters"]["ucx.rail.down_excluded"] > 0
        non_rail = {k: v for k, v in down["counters"].items()
                    if not k.startswith("ucx.rail")}
        assert non_rail == single["counters"]

    def test_lossy_workload_committed_and_faulted(self):
        """The faulty-link OSU point must be pinned in the committed
        baseline, with actual recovery activity in its fingerprint."""
        doc = load_baseline(REPO_ROOT / DEFAULT_BASELINE_PATH)
        fp = doc["entries"].get("osu_latency_ampi_inter_64K_lossy")
        assert fp is not None, (
            "osu_latency_ampi_inter_64K_lossy missing from the committed "
            "baseline — regenerate with: python -m repro.bench.baseline record"
        )
        counters = fp["counters"]
        assert counters.get("fault.retransmit", 0) > 0
        assert counters.get("fault.drop", 0) > 0
        # recovery must deliver every message despite the drops: the clean
        # and lossy runs complete the same number of AMPI receives
        clean = doc["entries"]["osu_latency_ampi_inter_64K"]["counters"]
        assert counters["ampi.recv"] == clean["ampi.recv"]
