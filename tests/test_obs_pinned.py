"""Observation *output* pinned per model: what a traced, flight-recorded,
telemetry-on run reports for the charm, charm4py and openmpi OSU shapes and
for a 2-node AMPI Jacobi3D run — span names, attribute keys *in order*,
creation order and parenting, layer blame, flight records, charged time,
histogram buckets, telemetry series and the exported trace bytes.

``tests/test_obs_golden.py`` compares observation on against off, which
cannot see a span renamed, re-parented or dropped in both.  The pinned
values are the ``observation`` block of the ``observed_<shape>`` entries of
``BENCH_baseline.json``; a change that moves them on purpose re-records
those entries (``python -m repro.bench.baseline record --workloads
observed_<shape>``) and shows up as a JSON diff of them.
"""

from pathlib import Path

import pytest

from repro.obs.baseline import (
    DEFAULT_BASELINE_PATH,
    _compare_value,
    load_baseline,
    run_workload,
)

BASELINE = Path(__file__).resolve().parent.parent / DEFAULT_BASELINE_PATH

# the lossy AMPI shape is pinned by tests/test_faults.py
PINNED_SHAPES = ["ampi_jacobi_2n", "charm4py_inter_64K", "charm_inter_64K",
                 "openmpi_intra_8B"]


def observation_is_pinned(shape):
    """Run ``observed_<shape>`` and compare its observation block with the
    committed one exactly; return that block."""
    name = f"observed_{shape}"
    want = load_baseline(BASELINE)["entries"][name]["observation"]
    out = run_workload(name)["observation"]
    failures = []
    _compare_value(name, want, out, failures)
    assert not failures, "\n".join(failures)
    return out


@pytest.mark.parametrize("shape", PINNED_SHAPES)
def test_observation_output_is_pinned(shape):
    out = observation_is_pinned(shape)
    assert out["span_counts"] and out["first_record"] and out["trace_sha256"]
