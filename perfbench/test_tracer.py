"""Checks that the tracer sees every layer each workload is predicted to use.

    python3 -m pytest -q perfbench/test_tracer.py

A by-name import the tracer failed to patch shows up here as a layer with
zero calls where the workload map in README.md predicts work, or as linalg
calls where it predicts none.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# Per workload: metrics predicted non-zero, and metrics predicted exactly zero.
ACTIVE = {
    "scatter": (
        ["cli.calls", "graphs.calls", "katz.closed_calls", "dpoly.calls"],
        ["linalg.calls", "ordering.agreement_calls", "ordering.cutoff_calls"],
    ),
    "ranking": (
        ["ordering.agreement_calls", "katz.closed_calls", "graphs.calls", "dpoly.calls"],
        ["linalg.calls", "cli.calls"],
    ),
    "pointwise": (
        ["dpoly.calls", "katz.closed_calls", "ordering.cutoff_calls", "ordering.p_tilde_calls", "cli.calls"],
        ["linalg.calls", "ordering.agreement_calls"],
    ),
    "verify": (
        [
            "dpoly.calls",
            "linalg.calls",
            "graphs.calls",
            "graphs.oracle_calls",
            "katz.closed_calls",
            "katz.oracle_calls",
            "ordering.agreement_calls",
            "ordering.cutoff_calls",
        ],
        ["cli.calls"],
    ),
}


def traced_metrics(workload: str, workdir: str) -> dict:
    ops = workloads.build(workload, 1, workdir)
    tracer = Tracer()
    tracer.install()
    try:
        for index, op in enumerate(ops):
            tracer.op_id = index
            op.run()
    finally:
        tracer.uninstall()
    return tracer.layer_metrics()


@pytest.mark.parametrize("workload", sorted(ACTIVE))
def test_predicted_layers_are_traced(workload, tmp_path):
    metrics = traced_metrics(workload, str(tmp_path))
    active, idle = ACTIVE[workload]
    assert {m: metrics[m] for m in active if metrics[m] == 0} == {}
    assert {m: metrics[m] for m in idle if metrics[m] != 0} == {}


def test_by_name_imports_are_patched_and_restored():
    from katzlab import cli, dpoly, graphs, katz, ordering, verify

    original = graphs.resistance
    tracer = Tracer()
    tracer.install()
    try:
        for module in (graphs, cli, ordering, verify):
            assert module.resistance is not original
        assert katz.d_sequence is dpoly.d_sequence
        assert verify.resistance_oracle is graphs.resistance_oracle
    finally:
        tracer.uninstall()
    assert cli.resistance is original and graphs.resistance is original


def test_self_time_excludes_children():
    from katzlab import GraphSpec, ordering

    tracer = Tracer()
    tracer.install()
    try:
        tracer.op_id = 0
        ordering.agreement(GraphSpec.path(12), 0.46)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    total = tracer.end[0] - tracer.start[0]
    self_sum = sum(v for k, v in metrics.items() if k.endswith("_s") and not k.startswith("verify."))
    assert tracer.qualnames[tracer.name[0]] == "ordering.agreement"
    assert self_sum == pytest.approx(total, rel=1e-9)
    assert metrics["ordering.agreement_calls"] == 1
    assert metrics["ordering.pair_comparisons"] == 3 * 66 * 66
    assert metrics["ordering.matrix_builds"] == 1
