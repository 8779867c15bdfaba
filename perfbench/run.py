"""hyperfl benchmark: three workloads, checked outputs, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Inputs (experiment configs and attack
settings) are made from ``--seed``.  Every workload process is a fresh
interpreter started by ``worker.py`` with one BLAS thread and a fixed hash
seed; processes run one after another (closed loop, one client) until
``--seconds`` of measuring have passed.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` alternates untraced and traced processes
and reports the per-layer metrics.  See ``perfbench/README.md`` for every
metric, workload and the predictions they serve.

The last line of standard output is the JSON result; the exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import P90_SPANS, ROOTS, SPANS, percentile_us

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
PROCESS_TIMEOUT_S = 120
MIN_PROCESSES = 3  # per run, so setup_s is always a median of several
MIN_TRACED = 2  # per kind (untraced, traced) in a traced run
DEFAULT_TEST_FRACTION = 1.0 / 6.0  # hyperfl's partition.test_fraction default

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# -- workloads ------------------------------------------------------------------


def quickstart_config(seed: int, out: Path, rounds: int) -> dict:
    """The README quick-start experiment (20 rounds there)."""
    return {
        "algorithm": "hyperfl",
        "seed": seed,
        "output_dir": str(out),
        "workers": 1,
        "snapshot_every": 0,
        "dataset": {"kind": "synthetic", "num_classes": 5, "dim": 32, "per_class": 200},
        "partition": {"clients": 10, "groups": 5, "dominant_classes": 2, "samples_per_client": 80},
        "model": {"extractor": [32, 16], "classifier": [16, 5]},
        "hypernet": {"embedding_dim": 64, "hidden_dim": 100},
        "rounds": {"local_epochs": 2, "batch_size": 10, "total_rounds": rounds},
    }


def wide_dp_config(seed: int, out: Path, rounds: int) -> dict:
    """DP-FedAvg on a ~51k-parameter model, so the server side carries weight.

    Each client trains on 60 samples (one epoch of two batches of 30) and is
    tested on 60 more: with the default 1/6 split a client would hold 12
    test samples, and final_test_acc would move by several percent between
    seeds on test-set size alone.
    """
    return {
        "algorithm": "dp_fedavg",
        "seed": seed,
        "output_dir": str(out),
        "workers": 1,
        "snapshot_every": 0,
        "dataset": {"kind": "synthetic", "num_classes": 10, "dim": 64, "per_class": 400},
        "partition": {
            "clients": 40,
            "groups": 5,
            "dominant_classes": 2,
            "samples_per_client": 120,
            "test_fraction": 0.5,
        },
        "model": {"extractor": [64, 256, 128], "classifier": [128, 10]},
        "rounds": {"local_epochs": 1, "batch_size": 30, "total_rounds": rounds, "sampling_rate": 0.5},
        "dp": {"clip_norm": 5.0, "sigma": 0.002},
    }


# kind "train": every measured process trains `config` for `rounds` rounds;
# afterwards (untraced runs only) a short attack on its final snapshot gives
# the run's attack_psnr_db.  kind "attack": a victim is trained once per run,
# outside every timer, then every measured process attacks its snapshot.
# Round counts and attack sizes keep final_test_acc and attack_psnr_db, which
# depend on the seed's data, within a few percent across seeds: at 5 or 10
# rounds the quick-start accuracy still spreads by 12-18 %, and gradient
# matching on the wide model stops at 100 iterations with a PSNR that
# spreads by 10 %.
WORKLOADS = {
    "train-hyperfl": {
        "kind": "train",
        "config": quickstart_config,
        "rounds": 20,
        "attack": {"iterations": 150, "samples": 4},
    },
    "train-dpfedavg-wide": {
        "kind": "train",
        "config": wide_dp_config,
        "rounds": 10,
        "attack": {"iterations": 250, "samples": 4},
    },
    "attack-hyperfl": {
        "kind": "attack",
        "config": quickstart_config,
        "rounds": 20,
        "attack": {"iterations": 150, "samples": 4},
    },
}

# Spans that must record zero calls on a workload; every other span must
# record at least one.  Shared spans reached on every workload
# (autodiff.grad, network.loss_and_grad_params via the transcript,
# checkpoint.load_params via read_checkpoint) are not listed.
_ATTACK_SPANS = {
    "cli.cmd_attack",
    "fedsim.tensors_to_state",
    "checkpoint.read_checkpoint",
    "attack.hyperfl_transcript",
    "attack.recover_embedding",
    "attack.hyperfl_bilevel_attack",
    "attack.score_reconstruction",
}
ZERO_CALLS = {
    "train-hyperfl": _ATTACK_SPANS | {"fedsim.local_train_fedavg", "fedsim.dp_sanitize"},
    "train-dpfedavg-wide": _ATTACK_SPANS
    | {"fedsim.local_train_hyperfl", "hypernet.hypernet_forward", "hypernet.hypernet_backward"},
    "attack-hyperfl": {
        "cli.cmd_train",
        "fedsim.init_experiment",
        "fedsim.run_round",
        "fedsim.local_train_hyperfl",
        "fedsim.local_train_fedavg",
        "fedsim.dp_sanitize",
        "fedsim.aggregate",
        "fedsim.evaluate_clients",
        "fedsim.Wire.send",
        "fedsim.state_to_tensors",
        "network.sgd_step",
        "checkpoint.dump_params",
        "checkpoint.write_checkpoint",
        "metrics.accuracy",
    },
}


# -- small helpers ----------------------------------------------------------------


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Run:
    """State of one benchmark invocation: its directory, environment and log."""

    def __init__(self, root: Path, workdir: Path) -> None:
        self.root = root
        self.workdir = workdir
        unset = ("HYPERFL_SEED", "PYTHONDONTWRITEBYTECODE")
        self.env = {k: v for k, v in os.environ.items() if k not in unset}
        self.env.update(PINNED_ENV)
        self.env["PYTHONPATH"] = str(root / "src")
        # the warm-up compiles bytecode here; measured processes only load it
        self.env["PYTHONPYCACHEPREFIX"] = str(workdir / "pycache")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def note(self, problem: str) -> None:
        self.problems.append(problem)

    def worker(self, *args: str) -> dict | None:
        """Run one worker process; its JSON report, or None if it failed."""
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), *args],
                cwd=self.root,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=PROCESS_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self.note(f"worker {args[0]} timed out after {PROCESS_TIMEOUT_S} s")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.note(f"worker {args[0]} exited {proc.returncode}: {tail[0]}")
            return None
        return json.loads(lines[-1])


# -- output checks --------------------------------------------------------------------


def expected_sampled(cfg: dict) -> list[int]:
    """Clients that train in rounds 0..T (round 0 trains nobody)."""
    m = cfg["partition"]["clients"]
    rate = cfg["rounds"].get("sampling_rate", 1.0)
    total = cfg["rounds"]["total_rounds"]
    k = m if rate == 1.0 else math.ceil(rate * m)
    return [0] + [k] * (total - 1) + [m]


def train_samples_per_client(cfg: dict) -> int:
    n = cfg["partition"]["samples_per_client"]
    n_test = min(max(int(round(n * cfg["partition"].get("test_fraction", DEFAULT_TEST_FRACTION))), 1), n - 1)
    return n - n_test


def work_per_round(cfg: dict) -> list[int]:
    """Sample-gradient evaluations of rounds 1..T."""
    local_epochs = cfg["rounds"]["local_epochs"]
    passes = 1 + local_epochs if cfg["algorithm"] == "hyperfl" else local_epochs
    return [passes * train_samples_per_client(cfg) * k for k in expected_sampled(cfg)[1:]]


def check_training(run: Run, cfg: dict, report: dict | None) -> tuple[set[int], float, str]:
    """Failed rounds, final mean test accuracy and metrics.csv hash of one run.

    A round fails when the process failed, when its metrics.csv rows are
    missing or miscounted, when a training client's loss is not finite,
    when a hyperfl wire message carried a tensor outside ``hyper/``, or (the
    last round) when the final mean test accuracy is at or below chance.
    """
    total = cfg["rounds"]["total_rounds"]
    rounds = set(range(1, total + 1))
    path = Path(cfg["output_dir"]) / "metrics.csv"
    if report is None or report["rc"] != 0 or not path.exists():
        return rounds, math.nan, ""
    failed = {t for t in report["wire"]["leak_rounds"] if t in rounds}
    if failed:
        run.note(f"private tensors on the wire in rounds {sorted(failed)}")

    m = cfg["partition"]["clients"]
    sampled = expected_sampled(cfg)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    by_round: dict[int, list[list[str]]] = {}
    for row in rows[1:]:
        by_round.setdefault(int(row[0]), []).append(row)
    if set(by_round) != set(range(total + 1)) or len(by_round[0]) != m + 1:
        run.note(f"metrics.csv holds rounds {sorted(by_round)}, expected 0..{total}")
        return rounds, math.nan, sha256(path)
    for t in rounds:
        group = by_round[t]
        ids = sorted(int(r[1]) for r in group if r[1] != "_mean")
        losses = [float(r[2]) for r in group if r[1] != "_mean"]
        finite = sum(math.isfinite(x) for x in losses)
        if len(group) != m + 1 or ids != list(range(m)) or finite != sampled[t] or any(map(math.isinf, losses)):
            run.note(f"round {t}: {len(group)} rows, {finite} finite losses, expected {m + 1} and {sampled[t]}")
            failed.add(t)
    final_acc = float(next(r[3] for r in by_round[total] if r[1] == "_mean"))
    chance = 1.0 / cfg["dataset"]["num_classes"]
    if not final_acc > chance:
        run.note(f"final test accuracy {final_acc} is not above chance {chance}")
        failed.add(total)
    return failed, final_acc, sha256(path)


def check_attack(run: Run, run_dir: Path, samples: int, report: dict | None) -> tuple[int, list[float], str]:
    """Failed samples, per-sample PSNR and attack_summary.csv hash of one attack."""
    summary = run_dir / "attack_summary.csv"
    if report is None or report["rc"] != 0 or not summary.exists():
        return samples, [], ""
    with summary.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    records = json.loads((run_dir / "attack_report.json").read_text(encoding="utf-8"))["samples"]
    psnrs = [float(r["psnr"]) for r in rows]
    failed = max(0, samples - len(rows))
    for rec, p in zip(records, psnrs):
        if not math.isfinite(p) or not all(math.isfinite(loss) for _, loss, _ in rec["trace"]):
            failed += 1
    if failed:
        run.note(f"{failed} of {samples} attacked samples failed")
    return failed, psnrs, sha256(summary)


# -- the workloads -------------------------------------------------------------------


def write_json(path: Path, obj: dict) -> Path:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def measure(run: Run, seconds: float, trace: bool, start_process) -> tuple[list[dict], list[dict]]:
    """Closed loop of fresh processes for ``seconds``; (untraced, traced) reports.

    ``start_process(traced)`` runs one process and returns its checked
    report (or None).  A traced run alternates untraced and traced processes.
    """
    plain: list[dict] = []
    traced: list[dict] = []
    need_plain, need_traced = (MIN_TRACED, MIN_TRACED) if trace else (MIN_PROCESSES, 0)
    begin = time.perf_counter()
    started = 0
    while True:
        use_trace = trace and started % 2 == 1
        rep = start_process(use_trace)
        if rep is not None:
            (traced if use_trace else plain).append(rep)
        started += 1
        enough = len(plain) >= need_plain and len(traced) >= need_traced
        # failing processes end the loop once the time is up, enough or not
        if time.perf_counter() - begin >= seconds and (enough or started >= 4 * MIN_PROCESSES):
            return plain, traced


def run_train(run: Run, spec: dict, seed: int, seconds: float, trace: bool) -> dict:
    out = run.workdir / "train"
    cfg = spec["config"](seed, out, spec["rounds"])
    cfg_path = write_json(run.workdir / "train.json", cfg)
    work = work_per_round(cfg)
    hashes: set[str] = set()
    accs: list[float] = []

    def one(traced: bool) -> dict | None:
        rep = run.worker("train", str(cfg_path), *(["--trace"] if traced else []))
        failed, acc, digest = check_training(run, cfg, rep)
        run.attempted += cfg["rounds"]["total_rounds"]
        run.failed += len(failed)
        hashes.add(digest)
        if rep is None or failed:
            return None
        accs.append(acc)
        rep["rates"] = [w / s for w, s in zip(work, rep["unit_s"], strict=True)]
        return rep

    plain, traced = measure(run, seconds, trace, one)
    result = {"plain": plain, "traced": traced, "final_test_acc": accs, "metrics_csv": hashes}
    if not trace:
        settings = write_json(run.workdir / "attack.json", {**spec["attack"], "seed": seed})
        snapshot = out / "snapshots" / f"round_{cfg['rounds']['total_rounds']:04d}.hfl"
        rep = run.worker("attack", str(snapshot), str(settings))
        failed, psnrs, digest = check_attack(run, out, spec["attack"]["samples"], rep)
        run.attempted += spec["attack"]["samples"]
        run.failed += failed
        result["psnr"] = psnrs
        result["attack_summary"] = {digest}
    return result


def run_attack(run: Run, spec: dict, seed: int, seconds: float, trace: bool) -> dict:
    out = run.workdir / "victim"
    cfg = spec["config"](seed, out, spec["rounds"])
    cfg_path = write_json(run.workdir / "victim.json", cfg)
    victim = run.worker("train", str(cfg_path))
    failed, acc, victim_hash = check_training(run, cfg, victim)
    run.attempted += cfg["rounds"]["total_rounds"]
    run.failed += len(failed)

    settings = write_json(run.workdir / "attack.json", {**spec["attack"], "seed": seed})
    snapshot = out / "snapshots" / f"round_{cfg['rounds']['total_rounds']:04d}.hfl"
    samples = spec["attack"]["samples"]
    work = 2 * spec["attack"]["iterations"]  # per sample: both stages
    hashes: set[str] = set()
    psnr_by_process: list[list[float]] = []

    def one(traced: bool) -> dict | None:
        rep = run.worker("attack", str(snapshot), str(settings), *(["--trace"] if traced else []))
        n_failed, psnrs, digest = check_attack(run, out, samples, rep)
        run.attempted += samples
        run.failed += n_failed
        hashes.add(digest)
        if rep is None or n_failed:
            return None
        psnr_by_process.append(psnrs)
        rep["rates"] = [work / s for s in rep["unit_s"]]
        return rep

    plain, traced = measure(run, seconds, trace, one)
    return {
        "plain": plain,
        "traced": traced,
        "final_test_acc": [acc],
        "psnr": psnr_by_process[0] if psnr_by_process else [],
        "attack_iterations": work * samples,
        "metrics_csv": {victim_hash},
        "attack_summary": hashes,
    }


# -- reporting ----------------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def describe(name: str, values: list[float], unit: str, over: str = "processes") -> None:
    q1, q2, q3 = quartiles(values)
    print(f"  {name:<16} median {q2:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  over {len(values)} {over}")


def pooled_rates(reports: list[dict]) -> list[float]:
    """Work per second of every round or attacked sample of the given processes."""
    return [rate for r in reports for rate in r["rates"]]


def end_to_end(result: dict) -> dict:
    plain = result["plain"]
    setup = [r["setup_s"] for r in plain]
    rates = pooled_rates(plain)
    rss = [r["rss_mb"] for r in plain]
    describe("setup_s", setup, "s")
    describe("work_per_s", rates, "1/s", "units of work")
    describe("peak_rss_mb", rss, "MB")
    describe("cpu/wall", [r["timed_cpu_s"] / r["timed_s"] for r in plain], "")
    psnr = result["psnr"]
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "work_per_s": metric(statistics.median(rates), "1/s"),
        "peak_rss_mb": metric(statistics.median(rss), "MB"),
        "final_test_acc": metric(result["final_test_acc"][0] if result["final_test_acc"] else math.nan, "fraction"),
        "attack_psnr_db": metric(sum(psnr) / len(psnr) if psnr else math.nan, "dB"),
    }


def per_layer(run: Run, workload: str, result: dict) -> dict:
    plain, traced = result["plain"], result["traced"]
    spans = {name: [r["trace"]["spans"][name] for r in traced] for name in SPANS}
    out: dict[str, dict] = {}
    for name, per_proc in spans.items():
        calls = {s["calls"] for s in per_proc}
        if len(calls) != 1:
            run.note(f"span {name} made {sorted(calls)} calls in identical processes")
        n = max(calls)
        expect_zero = name in ZERO_CALLS[workload]
        if (n == 0) != expect_zero:
            run.note(f"span {name} made {n} calls, expected {'none' if expect_zero else 'some'}")
        pooled = [d for s in per_proc for d in s["durations_ns"]]
        out[f"{name}.calls"] = metric(n, "count")
        out[f"{name}.self_s"] = metric(statistics.median(s["self_s"] for s in per_proc), "s")
        out[f"{name}.p50_us"] = metric(percentile_us(pooled, 0.5), "us")
        if name in P90_SPANS:
            out[f"{name}.p90_us"] = metric(percentile_us(pooled, 0.9) if n >= 100 else 0.0, "us")

    wires = {json.dumps({k: r["wire"][k] for k in ("messages", "bytes_down", "bytes_up")}) for r in plain + traced}
    if len(wires) != 1:
        run.note(f"wire traffic differs between identical processes: {sorted(wires)}")
    wire = traced[0]["wire"]
    out["fedsim.wire.messages"] = metric(wire["messages"], "count")
    out["fedsim.wire.bytes_down"] = metric(wire["bytes_down"], "B")
    out["fedsim.wire.bytes_up"] = metric(wire["bytes_up"], "B")

    grad_calls = out["autodiff.grad.calls"]["value"]
    steps = out["network.loss_and_grad_params.calls"]["value"] if workload.startswith("train") else result["attack_iterations"]
    out["autodiff.grad.per_step"] = metric(grad_calls / steps, "calls/step")
    coverage = statistics.median(r["trace"]["coverage"] for r in traced)
    overhead = statistics.median(pooled_rates(traced)) / statistics.median(pooled_rates(plain))
    out["trace.coverage"] = metric(coverage, "fraction")
    out["trace.overhead"] = metric(overhead, "ratio")
    out["trace.errors"] = metric(sum(r["trace"]["errors"] for r in traced), "count")

    root_total = sum(statistics.median(p["total_s"] for p in spans[r]) for r in ROOTS)
    print(f"per-layer self time, median of {len(traced)} traced processes (root {root_total:.4f} s):")
    print(f"  {'span':<34}{'calls':>8}{'self_s':>10}{'share':>8}{'p50_us':>10}{'p90_us':>10}")
    for name in sorted(SPANS, key=lambda n: -out[f"{n}.self_s"]["value"]):
        self_s = out[f"{name}.self_s"]["value"]
        share = self_s / root_total if root_total else 0.0
        p90 = out.get(f"{name}.p90_us", {}).get("value", float("nan"))
        print(
            f"  {name:<34}{out[f'{name}.calls']['value']:>8}{self_s:>10.4f}{share:>8.1%}"
            f"{out[f'{name}.p50_us']['value']:>10.1f}{p90:>10.1f}"
        )
    print(f"  trace.coverage {coverage:.4f}  trace.overhead {overhead:.4f}  trace.errors {out['trace.errors']['value']}")
    return out


# -- entry point ---------------------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "hyperfl" / "__init__.py").is_file():
        print(f"error: no hyperfl sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    workdir = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)  # left behind by a killed run
    workdir.mkdir(parents=True)
    try:
        return bench(Run(root, workdir), args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def bench(run: Run, args: argparse.Namespace) -> int:
    warm = run.worker("warmup")
    if warm is None:
        print("error: hyperfl does not import: " + "; ".join(run.problems), file=sys.stderr)
        return 2
    if not Path(warm["hyperfl"]).resolve().is_relative_to(run.root / "src"):
        print(f"error: imported hyperfl from {warm['hyperfl']}, not from this checkout", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(warm["environment"], sort_keys=True))

    spec = WORKLOADS[args.workload]
    runner = run_train if spec["kind"] == "train" else run_attack
    result = runner(run, spec, args.seed, args.seconds, trace)

    for label in ("metrics_csv", "attack_summary"):
        digests = result.get(label, set())
        if digests:
            print(f"{label.replace('_', '.')} sha256 {' '.join(sorted(d or '<missing>' for d in digests))}")
        if len(digests) > 1:
            run.note(f"{label} differs between processes of one run (traced and untraced)")

    metrics: dict = {}
    if result["plain"] and (result["traced"] or not trace):
        metrics = per_layer(run, args.workload, result) if trace else end_to_end(result)
    else:
        run.note("no process completed")
    for problem in run.problems:
        print(f"check failed: {problem}")
    correct = not run.problems and run.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
