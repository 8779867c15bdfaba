"""Tests of the benchmark itself: the tracer, the output checks, the runner.

    python3 -m pytest perfbench

The workload tests start ``run.py`` from the command line with a one-second
budget, so the whole file takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import SPANS, Tracer, TracerError  # noqa: E402

import hyperfl  # noqa: E402,F401  (imports every layer the tracer wraps)
from hyperfl import datakit, fedsim, network  # noqa: E402


@pytest.fixture
def tracer():
    t = Tracer()
    yield t
    t.uninstall()


# -- tracer ------------------------------------------------------------------------


def test_install_wraps_every_binding_and_uninstall_restores(tracer):
    original = network.sgd_step
    tracer.install()
    assert fedsim.sgd_step is network.sgd_step
    assert network.sgd_step.__wrapped__ is original
    assert hyperfl.partition is datakit.partition
    assert fedsim.Wire.send.__wrapped__ is not None
    tracer.uninstall()
    assert fedsim.sgd_step is original and network.sgd_step is original


def test_renamed_function_fails_loudly(monkeypatch, tracer):
    monkeypatch.delattr(network, "sgd_step")
    with pytest.raises(TracerError, match="network.sgd_step"):
        tracer.install()
    assert "__wrapped__" not in vars(fedsim.sgd_step)  # nothing half-installed


def test_missed_from_import_binding_fails_loudly(tracer):
    tracer.install()
    late = types.ModuleType("hyperfl._late_import")
    late.sgd_step = network.sgd_step.__wrapped__  # bound after install saw the package
    sys.modules[late.__name__] = late
    try:
        with pytest.raises(TracerError, match="hyperfl._late_import.sgd_step"):
            tracer.verify()
    finally:
        del sys.modules[late.__name__]


def test_self_time_excludes_traced_children(tracer):
    tracer.install()
    spec = network.dense_net("fe", [4, 3])
    params = network.init_params(spec, 0)
    x = [[0.1, 0.2, 0.3, 0.4]]
    for _ in range(3):
        network.loss_and_grad_params(params, spec, x, [1])
    outer = tracer.stats["network.loss_and_grad_params"]
    inner = tracer.stats["autodiff.grad"]
    assert outer.calls == 3 and inner.calls == 3
    assert 0 < outer.self_ns == sum(outer.durations_ns) - sum(inner.durations_ns)
    assert tracer.errors == 0


def test_span_errors_are_counted(tracer):
    tracer.install()
    with pytest.raises(Exception):
        fedsim.aggregate([], [])
    assert tracer.errors == 1 and tracer.stats["fedsim.aggregate"].calls == 1


# -- output checks -------------------------------------------------------------------


def _train_once(tmp_path: Path, rounds: int = 2) -> dict:
    cfg = run.quickstart_config(3, tmp_path / "out", rounds)
    path = run.write_json(tmp_path / "cfg.json", cfg)
    env = {"PYTHONPATH": str(ROOT / "src"), **run.PINNED_ENV}
    subprocess.run([sys.executable, "-m", "hyperfl.cli", "train", str(path)], env=env, check=True, capture_output=True)
    return cfg


def _report() -> dict:
    return {"rc": 0, "wire": {"leak_rounds": []}}


def test_check_training_accepts_a_clean_run_and_flags_each_fault(tmp_path):
    cfg = _train_once(tmp_path)
    bench = run.Run(ROOT, tmp_path)
    failed, acc, digest = run.check_training(bench, cfg, _report())
    assert failed == set() and acc > 0.2 and len(digest) == 64 and bench.problems == []

    failed, _, _ = run.check_training(bench, cfg, {"rc": 0, "wire": {"leak_rounds": [1]}})
    assert failed == {1}
    assert run.check_training(bench, cfg, None)[0] == {1, 2}

    metrics = Path(cfg["output_dir"]) / "metrics.csv"
    lines = metrics.read_text().splitlines()
    broken = [ln for ln in lines if not ln.startswith("2,4,")]  # drop one client row of round 2
    metrics.write_text("\n".join(broken) + "\n")
    assert run.check_training(bench, cfg, _report())[0] == {2}

    nan_loss = [",".join(["1", "4", "nan"] + ln.split(",")[3:]) if ln.startswith("1,4,") else ln for ln in lines]
    metrics.write_text("\n".join(nan_loss) + "\n")
    assert run.check_training(bench, cfg, _report())[0] == {1}


def test_work_counts_every_sample_gradient():
    hyper = run.quickstart_config(0, Path("x"), 20)
    assert run.work_per_round(hyper) == [3 * 67 * 10] * 20  # Step 1 + 2 epochs, 67 train samples
    dp = run.wide_dp_config(0, Path("x"), 10)
    assert run.work_per_round(dp) == [60 * 20] * 9 + [60 * 40]  # half the clients, all in the last round


# -- the runner, started from the command line -------------------------------------------


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run_meets_the_span_predictions(workload):
    rc, out = _bench(workload, trace=1)
    result = json.loads(out.strip().splitlines()[-1])
    assert rc == 0 and result["correct"] and result["failed"] == 0, out
    metrics = result["metrics"]
    for span in SPANS:
        calls = metrics[f"{span}.calls"]["value"]
        if span in run.ZERO_CALLS[workload]:
            assert calls == 0, span
        else:
            assert calls > 0, span
    for name in ("trace.coverage", "trace.overhead", "trace.errors", "autodiff.grad.per_step"):
        assert name in metrics
    assert metrics["trace.errors"]["value"] == 0
    assert 0.5 < metrics["trace.coverage"]["value"] <= 1.0
    assert "trace.coverage" in out and "trace.overhead" in out  # the printed report
    # wrappers change no result: traced and untraced processes wrote identical files
    digests = [ln.split()[2:] for ln in out.splitlines() if " sha256 " in ln]
    assert digests and all(len(d) == 1 for d in digests)


def test_zero_call_predictions_cover_the_documented_examples():
    assert "hypernet.hypernet_backward" in run.ZERO_CALLS["train-dpfedavg-wide"]
    assert "fedsim.run_round" in run.ZERO_CALLS["attack-hyperfl"]
    assert set().union(*run.ZERO_CALLS.values()) <= set(SPANS)


def test_untraced_run_reports_every_end_to_end_metric():
    rc, out = _bench("train-dpfedavg-wide", trace=0)
    result = json.loads(out.strip().splitlines()[-1])
    assert rc == 0 and result["correct"], out
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    rc, out = _bench("train-hyperfl", trace=0, cwd=tmp_path)
    assert rc != 0 and out == ""
