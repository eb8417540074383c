"""Tests of the benchmark's own logic: run with `python3 -m pytest bench/tests`."""

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from kgbound import oracle  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    gen = workloads.GENERATORS[name]
    assert gen(5) == gen(5)
    assert gen(5) != gen(6)


def test_workload_names_agree():
    assert run.WORKLOADS == workloads.WORKLOADS
    assert set(worker.TRACED_CYCLES) == set(workloads.CYCLE) == set(workloads.WORKLOADS)


def test_round_robin_cycles_every_stratum():
    import random

    strata = {0: list(range(5)), 1: list(range(10, 13)), 2: [20]}
    order = workloads.round_robin({k: list(v) for k, v in strata.items()}, random.Random(1))
    assert len(order) == 15
    assert set(order) == {x for v in strata.values() for x in v}
    for start in range(0, 15, 3):
        assert [x // 10 for x in order[start:start + 3]] == [0, 1, 2]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_cycle_matches_generator(name):
    reqs = workloads.GENERATORS[name](2)
    cycle = workloads.CYCLE[name]
    assert len(reqs) % cycle == 0
    first = [(r.kind, r.call[1] if r.kind.startswith("solve") else r.call[0]) for r in reqs[:cycle]]
    second = [(r.kind, r.call[1] if r.kind.startswith("solve") else r.call[0])
              for r in reqs[cycle:2 * cycle]]
    assert first == second


def test_batched_levels_per_s_is_median_of_batches():
    session = worker.Session([], None, None, Exception)
    session.elapsed = [1.0, 1.0, 1.0, 3.0, 0.5, 0.5, 9.0]
    session.delivered = [1, 1, 4, 4, 3, 3, 9]
    assert session.levels_per_s() == pytest.approx(25 / 16)
    # batches of two: 2/2, 8/4, 6/1 -> median 2; the trailing partial batch is dropped
    assert session.levels_per_s(2) == pytest.approx(2.0)


def test_batch_times_are_scaled_by_the_reference(monkeypatch):
    # reference 2 ms before and after, one request of 0.1 s in between
    ticks = iter([0.0, 0.002, 10.0, 10.1, 20.0, 20.002])
    monkeypatch.setattr(worker, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    ok = workloads.Verdict(True, 1)
    session = worker.Session([None], lambda req: 1.0, lambda req, result: ok, Exception,
                             reference=lambda: None)
    session.serve_batch(1)
    scale = worker.REFERENCE_S / 0.002
    assert session.scales == pytest.approx([scale])
    assert session.elapsed == pytest.approx([0.1 * scale])


@pytest.mark.parametrize("n, p", [(5, 50), (20, 50), (21, 52), (77, 87), (100, 90), (1000, 99)])
def test_tail_percentile_examples(n, p):
    assert worker.tail_percentile(n) == p


@pytest.mark.parametrize("n", range(20, 2001, 7))
def test_tail_percentile_leaves_ten_samples_beyond(n):
    p = worker.tail_percentile(n)
    beyond = n - math.ceil(p * n / 100)
    assert beyond >= worker.TAIL_SAMPLES
    if p < 99:
        assert n - math.ceil((p + 1) * n / 100) < worker.TAIL_SAMPLES


def test_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert worker.nearest_rank(values, 50) == 50.0
    assert worker.nearest_rank(values, 90) == 90.0
    assert worker.nearest_rank([3.0, math.inf, 1.0], 99) == math.inf


def _span(name, start, end, parent=None):
    return tracing.Span(name, start, end, parent, request=0)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 2.0, 5.0, parent=0),  # overlaps a: union is 1..5
        _span("c", 9.0, 12.0, parent=0),  # clipped to the parent's end
        _span("grandchild", 1.5, 2.5, parent=1),  # counts for a, not root
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 3.0, 1.0])


def test_layer_metrics_from_synthetic_spans():
    spans = [
        _span("oracle.solve_modelA", 0.0, 10.0),
        _span("oracle.eigen_lowest", 1.0, 4.0, parent=0),
        _span("oracle.eigen_lowest", 4.0, 7.0, parent=0),
        _span("oracle.eigen_lowest", 7.0, 9.0, parent=0),
    ]
    spans[1].info = spans[2].info = (6000, False)
    spans[3].info = (6000, True)
    m = tracing.layer_metrics(spans)
    assert m["oracle.eigen_lowest.calls"] == 3
    assert m["oracle.eigen_lowest.node_checks"] == 1
    assert m["oracle.evals_per_level"] == 1.0
    assert m["oracle.eigen_lowest.points"] == 18000
    assert m["oracle.eigen_lowest.bytes_computed"] == 16 * 18000
    assert m["oracle.eigen_lowest_share"] == pytest.approx(0.8)
    assert m["oracle.solve_modelA.self_s"] == pytest.approx(2.0)
    assert set(m) | {"oracle.max_rel_dev", "cli.bytes_out", "trace.levels_per_s",
                     "trace.untraced_levels_per_s", "trace.overhead_pct"} == set(
        tracing.PER_LAYER_UNITS)


def test_recorder_wraps_and_restores():
    original = oracle.eigen_lowest
    request = workloads.gen_scalar_oracle(1)[0]
    recorder = tracing.Recorder()
    with recorder.installed():
        assert oracle.eigen_lowest is not original
        workloads.serve(request)  # outside a request: nothing recorded
        assert recorder.spans == []
        with recorder.request(7):
            workloads.serve(request)
    assert oracle.eigen_lowest is original
    names = [s.name for s in recorder.spans]
    assert names == ["oracle.solve_modelB"] + ["oracle.eigen_lowest"] * 3 + [
        "wavefunctions.build_scalar", "wavefunctions.norm_quadrature"]
    assert [s.parent for s in recorder.spans] == [None, 0, 0, 0, None, 4]
    assert all(s.request == 7 for s in recorder.spans)


def test_oracle_gate_rejects_energy_perturbed_by_2e6():
    req = workloads.gen_mixed_confirm(1)[0]
    assert workloads.check(req, req.expect * (1 + 5e-7)).ok
    assert not workloads.check(req, req.expect * (1 + 2e-6)).ok


def test_scalar_gate_rejects_perturbed_energy_and_bad_norm():
    req = workloads.gen_scalar_oracle(1)[0]
    assert workloads.check(req, (req.expect, 1.0)).ok
    assert not workloads.check(req, (req.expect * (1 + 2e-6), 1.0)).ok
    assert not workloads.check(req, (req.expect, math.nan)).ok
    assert not workloads.check(req, (req.expect, 0.0)).ok


def test_table_gate_rejects_perturbed_row():
    req = next(r for r in workloads.gen_tables(1, cycles=1) if r.kind == "spectrum")
    code, text, err = workloads.serve(req)
    verdict = workloads.check(req, (code, text, err))
    assert verdict.ok and verdict.levels == (workloads.TABLE_MAX + 1) ** 2 * 2
    header, _, rest = text.partition("\nn,l,branch,energy,status,residual\n")
    first, _, tail = rest.partition("\n")
    n, l, branch, energy, status, residual = first.split(",")
    bad = ",".join([n, l, branch, repr(float(energy) * (1 + 2e-6)), status, residual])
    tampered = f"{header}\nn,l,branch,energy,status,residual\n{bad}\n{tail}"
    assert not workloads.check(req, (code, tampered, err)).ok
    assert not workloads.check(req, (code, text.rsplit("\n", 2)[0] + "\n", err)).ok
    assert not workloads.check(req, (2, text, "error: bad")).ok


@pytest.mark.parametrize("x", [-6.6685559215518e-05, 8.4e-05, -0.5, 0.1 + 0.2, 1e-300, 0.0])
def test_cli_numbers_parse_back_exactly(x):
    text = workloads._num(x)
    assert "e" not in text and float(text) == x


def test_cli_usage_error_is_a_failed_request():
    req = workloads.Request("spectrum", ("spectrum", "--model", "mixed", "--beta", "-1e-05"),
                            None)
    verdict = workloads.check(req, workloads.serve(req))
    assert not verdict.ok and "exit 2" in verdict.reason


def test_every_cli_request_kind_passes_its_gate():
    for req in workloads.gen_tables(3, cycles=1):
        verdict = workloads.check(req, workloads.serve(req))
        assert verdict.ok, (req.call, verdict.reason)


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
