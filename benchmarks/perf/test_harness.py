"""Self-test of the benchmark harness.  Run it explicitly, by path::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_harness.py -q

It is not in ``testpaths``: tier-1 stays as it was.
"""

import json
import os
import re
import subprocess
import sys

import pytest

from benchmarks.perf import compare, harness, workloads

ROOT = workloads.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _cli(*args):
    """Run the driver command; returns (printed metric names, result dict)."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/perf/run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return [line.split()[0] for line in lines[:-1]], json.loads(lines[-1])


def _in_fresh_process(code):
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=harness.child_env(), capture_output=True,
                          text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_workloads_in_code():
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert SPEC["run_seconds"] == harness.DEFAULT_WINDOW_S


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_run_prints_the_declared_end_to_end_metrics(name):
    printed, result = _cli("--workload", name, "--seed", "3", "--rounds", "1",
                           "--trace", "0")
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert set(declared) <= set(printed)
    assert all(NAME.fullmatch(n) for n in printed)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(workloads.WORKLOADS[name](3).parts)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_trace_prints_the_declared_per_layer_metrics():
    printed, result = _cli("--workload", "pingpong_small", "--seed", "3",
                           "--seconds", "20", "--trace", "1")
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert printed == list(result["metrics"])
    assert all(NAME.fullmatch(n) for n in printed)
    assert result["correct"] and result["failed"] == 0
    shares = sum(v["value"] for k, v in result["metrics"].items()
                 if k.startswith("self_pct."))
    assert shares == pytest.approx(100.0, abs=0.5)


_EXACT = """
import json
from benchmarks.perf import harness, trace, workloads
w = workloads.WORKLOADS[{name!r}](7)
first = harness.run_round(w)
_rnd, layers, _s = trace.profiled_round(w, first.fingerprints)
_obs, blame = trace.observed_round(w, first.fingerprints)
exact = {{k: v for k, (v, _u) in {{**layers, **blame}}.items()
         if not k.startswith("self_pct.")}}
exact.update(sim_time_us=first.sim_time_us, events=first.events,
             counters=first.counters,
             failures=first.failures + _rnd.failures + _obs.failures)
print(json.dumps(exact, sort_keys=True))
"""


@pytest.mark.parametrize("name", ["pingpong_small", "observed_report"])
def test_exact_metrics_repeat_across_processes(name):
    a = _in_fresh_process(_EXACT.format(name=name))
    b = _in_fresh_process(_EXACT.format(name=name))
    assert a == b
    assert a["failures"] == []
    assert a["calls.sim"] > 0 and a["events"] > 0


def test_message_counts_match_what_the_simulator_sent():
    """The harness computes message counts from the workload parameters; one
    round confirms they are the messages the models actually sent."""
    for name in ("observed_report", "shuffle_churn"):
        workload = workloads.WORKLOADS[name](1)
        part = workload.parts[0]
        outcome = part.run({}, False)
        assert part.messages == outcome.counters["ampi.send"]


def _broken_workload():
    def run(ctx, observe):
        return workloads.Outcome(12.5, 10, {"ucx.send": 4, "ucx.recv": 3})

    return workloads.Workload("broken", (workloads.Part("lossy", run, 4),),
                              setup=lambda: None)


def test_a_non_conserving_part_is_counted_as_failed():
    m = harness.measure(_broken_workload(), rounds=2, children=False)
    assert (m.attempted, m.failed) == (2, 2)
    assert "ucx.send=4 but recv=3" in m.failures[0]


def test_a_part_that_raises_or_drifts_is_counted_as_failed():
    calls = []

    def run(ctx, observe):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("boom")
        return workloads.Outcome(1.0 + (len(calls) == 2), 1, {})

    workload = workloads.Workload("drift", (workloads.Part("p", run, 1),),
                                  setup=lambda: None)
    m = harness.measure(workload, rounds=3, children=False)
    assert (m.attempted, m.failed) == (3, 2)
    assert "fingerprint differs" in m.failures[0]
    assert "boom" in m.failures[1]


def test_compare_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert compare.judge(steady, [x * 1.05 for x in steady], "lower",
                         0.08)["verdict"] == "within_bound"
    assert compare.judge(steady, [x * 1.20 for x in steady], "lower",
                         0.08)["verdict"] == "regressed"
    assert compare.judge(steady, [x * 0.80 for x in steady], "higher",
                         0.08)["verdict"] == "regressed"
    noisy = [1.0, 1.3, 0.8, 1.2, 0.9]
    assert compare.judge(steady, noisy, "lower", 0.08)["verdict"] == "unresolved"


def test_compare_exits_nonzero_on_a_regression(tmp_path):
    def write(path, scale):
        with path.open("w") as fh:
            for i in range(5):
                fh.write(json.dumps({
                    "workload": "pingpong_small", "seed": i,
                    "metrics": {"wall_s": scale * (1 + i / 1000),
                                "msgs_per_s": 5000 / scale + i,
                                "setup_s": 0.3 + i / 1000,
                                "peak_rss_mb": 35.0 + i / 100},
                }) + "\n")
        return path

    a, b = write(tmp_path / "a.jsonl", 1.0), write(tmp_path / "b.jsonl", 1.5)
    assert compare.main([str(a), str(a)]) == 0
    out = tmp_path / "aa.json"
    assert compare.main([str(a), str(b), "--out", str(out)]) == 1
    verdicts = {(r["workload"], r["metric"]): r["verdict"]
                for r in json.loads(out.read_text())["verdicts"]}
    assert verdicts[("pingpong_small", "wall_s")] == "regressed"
    assert verdicts[("pingpong_small", "setup_s")] == "within_bound"


def test_refuses_to_run_without_the_simulator(tmp_path):
    """The driver also runs the command in a directory holding only
    BENCHMARK.json and the benchmark's own files: no result, non-zero exit."""
    bare = tmp_path / "bare"
    (bare / "benchmarks").mkdir(parents=True)
    (bare / "BENCHMARK.json").write_text(json.dumps(SPEC))
    subprocess.run(["cp", "-r", str(ROOT / "benchmarks/perf"),
                    str(bare / "benchmarks/perf")], check=True)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "pingpong_small", "--seed", "1", "--seconds", "20", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout == ""
