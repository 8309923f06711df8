"""Tests of the benchmark itself: the span arithmetic, absent hooks, the
reference oracle, the comparison rules, and a smoke run of each workload at
a tiny size."""

import json
import os
import subprocess
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKOUT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import compare  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
from timing import Phase, tail  # noqa: E402

import mutindep.inference  # noqa: E402
import mutindep.mdi  # noqa: E402
from mutindep import CorrelationModel, infer_from_model  # noqa: E402
from workloads import inference_record, planted_correlation  # noqa: E402

with open(os.path.join(CHECKOUT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def test_self_time_subtracts_the_union_of_children_across_threads():
    S = spans.Span
    tree = [
        S(1, "root", 0.0, 10.0, 0, 1),
        S(2, "child", 1.0, 4.0, 1, 1),
        S(3, "grandchild", 2.0, 3.0, 2, 1),
        # a child recorded on another thread, overlapping its sibling
        S(4, "child", 3.0, 6.0, 1, 2),
        # unrelated root on the second thread, overlapping the first root
        S(5, "other", 2.0, 9.0, 0, 2),
    ]
    own = spans.self_times(tree)
    assert own == {1: 5.0, 2: 2.0, 3: 1.0, 4: 3.0, 5: 7.0}
    summary = spans.summarize(tree, {}, {"root", "child"})
    assert summary["spans"]["child"] == {"calls": 2, "total_s": 6.0, "self_s": 5.0}


def test_busy_over_wall_counts_threads_per_campaign():
    S = spans.Span
    tree = [
        S(1, "simulation.run_campaign", 0.0, 10.0, 0, 1),
        S(2, "simulation.run", 0.0, 6.0, 0, 7),
        S(3, "simulation.run", 0.0, 4.0, 0, 8),
        S(4, "simulation.run", 6.0, 10.0, 0, 7),
    ]
    summary = spans.summarize(tree, {}, {"simulation.run", "simulation.run_campaign"})
    metrics = spans.layer_metrics(summary, units=1, tests=1)
    assert metrics["simulation.busy_over_wall"] == pytest.approx(14.0 / 20.0)


def test_missing_hook_reads_absent():
    hooks = [h for h in spans.HOOKS if h[0] != "kernels.batch"]
    hooks += [("kernels.batch", "mutindep._kernels", ("no_such_kernel",), spans.SPAN),
              ("kernels.batch", "mutindep.no_such_module", ("f",), spans.SPAN)]
    original = mutindep.mdi.chi2_sf
    with spans.Tracer(hooks) as tracer:
        assert mutindep.mdi.chi2_sf is not original
        infer_from_model(CorrelationModel(planted_correlation(4, 2, _rng()), 50))
    assert mutindep.mdi.chi2_sf is original
    metrics = spans.layer_metrics(tracer.summary(), units=1, tests=7)
    assert metrics["kernels.batch.self_ms"] is None
    assert metrics["kernels.batch.ns_per_test"] is None
    assert metrics["mdi.tests.self_ms"] > 0
    assert metrics["distributions.sf.calls_per_test"] == 1.0


def test_tracer_nests_the_inference_path():
    with spans.Tracer() as tracer:
        mutindep.inference.infer_from_model(
            CorrelationModel(planted_correlation(4, 2, _rng()), 50), mode="noncentral")
    by_id = {s.id: s for s in tracer.spans()}
    batch = next(s for s in by_id.values() if s.name == "kernels.batch")
    chain = []
    while batch.parent:
        batch = by_id[batch.parent]
        chain.append(batch.name)
    assert chain == ["mdi.mdi_statistics", "mdi.test_bipartitions",
                     "inference.infer_from_model"]
    counts = tracer.counts()
    assert counts["kernels.batch"] == 7 and counts["objects.TestResult"] == 7
    assert counts["distributions.chi2_sf.inner"] >= 7


def test_import_times_takes_the_outermost_scipy_modules():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy",
        "import time:        50 |        150 |   mutindep._kernels",
        "import time:        10 |         10 |       scipy",
        "import time:        20 |        300 |     scipy.special",
        "import time:         5 |        305 |   mutindep.distributions",
        "import time:         7 |        400 | mutindep",
        "import time:         9 |         40 | scipy.linalg",
    ])
    assert spans.import_times(text) == pytest.approx((0.4, 0.34))
    assert spans.import_times("") == (None, None)


def test_tail_keeps_ten_samples_beyond():
    assert tail(list(range(100))) == (90, 89, 10)
    assert tail(list(range(25))) == (60, 14, 10)
    assert tail([3.0, 1.0, 2.0]) == (100, 3.0, 0)


class _FakeProbe:
    ref_s = 1.0

    def __init__(self):
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return 2.0  # the machine runs at half the reference speed


class _FakeWorkload:
    checks = 5

    def __init__(self, probe_each_unit):
        self.probe_each_unit = probe_each_unit
        self.probes = []

    def probe(self):
        self.probes.append(_FakeProbe())
        return self.probes[-1]

    def round(self, r):
        return [types.SimpleNamespace(run=lambda: None) for _ in range(3)]

    def finish(self, unit, out, keep):
        return 7, ("record" if keep else None)


@pytest.mark.parametrize("probe_each_unit", [True, False])
def test_phase_caps_the_checked_units_and_probes_per_unit_or_round(probe_each_unit):
    workload = _FakeWorkload(probe_each_unit)
    phase = Phase(workload, 0.05, 0, lambda r: True, [])
    rounds = len(phase.rounds)
    assert rounds >= 1 and len(phase.units) == 3 * rounds == phase.attempted
    assert len(phase.records) == min(5, 3 * rounds)
    assert phase.tests == 21 * rounds
    assert workload.probes[0].calls == 1 + (3 * rounds if probe_each_unit else rounds)
    assert all(s == pytest.approx(r / 2) for s, r in zip(phase.units, phase.raw))


def test_oracle_accepts_the_program_and_flags_a_wrong_answer():
    r = planted_correlation(6, 3, _rng())
    outcome = infer_from_model(CorrelationModel(r, 200), correction="bonferroni",
                               mode="noncentral")
    record = inference_record(outcome)
    assert oracle.check_inference(record, r, 200, 0.1, "bonferroni", "noncentral") == []
    wrong = dict(record, stats=[s * 1.001 + 1e-3 for s in record["stats"]])
    assert oracle.check_inference(wrong, r, 200, 0.1, "bonferroni", "noncentral")
    wrong = dict(record, kept=record["kept"][1:])
    assert oracle.check_inference(wrong, r, 200, 0.1, "bonferroni", "noncentral")
    one_block = ((1, 2, 3, 4, 5, 6),)
    singletons = tuple((i,) for i in range(1, 7))
    wrong = dict(record, mu_hat=singletons if record["mu_hat"] == one_block else one_block)
    assert oracle.check_inference(wrong, r, 200, 0.1, "bonferroni", "noncentral")


def test_comparison_refuses_mixed_backends_and_applies_the_win_rule():
    env = {"kernel_backend": "python", "nproc": 2}
    with pytest.raises(ValueError):
        compare.check_comparable([{"env": env}, {"env": dict(env, kernel_backend="c")}])
    with pytest.raises(ValueError):
        compare.check_comparable([{"env": env}, {"env": dict(env, nproc=4)}])
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [b * 0.8 for b in base]
    assert compare.verdict(base, faster, "lower", 0.1) == (10, "gain")
    assert compare.verdict(base, [b * 1.2 for b in base], "lower", 0.1)[1] == "regression"
    mixed = faster[:8] + [b * 1.01 for b in base[8:]]
    assert compare.verdict(base, mixed, "lower", 0.1) == (8, "same")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_at_a_tiny_size(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--size",
         "tiny", "--seconds", "0.5", "--seed", "5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=CHECKOUT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] is not None


def test_refuses_to_run_without_the_package_source(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "cli-cold",
         "--program", str(tmp_path)], capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def _rng():
    import numpy as np

    return np.random.default_rng(7)
