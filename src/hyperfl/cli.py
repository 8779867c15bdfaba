"""Command-line front end: train, attack, partition, report.

This module keeps the I/O: it reads configs and snapshots, runs the library
and writes the artifacts.  What the server observes and how a
reconstruction is scored live in :mod:`hyperfl.attack`.

Every artifact lands under the config's output directory:

    config.resolved.json   defaults materialized, the run's full recipe
    metrics.csv            one row per (round, client) plus `_mean` rows
    timings.csv            wall-clock seconds per round
    final_accuracy.json    client id -> last-round test accuracy
    snapshots/             full-state checkpoints (cadence configurable)
    attack_report.json     per-sample reconstructions and traces
    attack_summary.csv     per-sample PSNR/SSIM table
    report/                summary.json plus plot-ready per-metric series

Exit codes: 0 success, 1 bad configuration, 2 numeric failure mid-run, 3
file or format problems.  A numeric failure or an interrupt (Ctrl-C) mid-run
first writes a best-effort emergency snapshot of the last intact state.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Optional

import numpy as np

from . import attack as atk
from . import checkpoint as ckpt
from . import config as cfgmod
from . import datakit as dk
from . import fedsim as fs
from . import metrics as mx
from .errors import (
    CapabilityError,
    CapacityError,
    ConfigError,
    ConsistencyError,
    DimensionError,
    FormatError,
    NumericError,
    PrivacyError,
)

_CONFIG_ERRORS = (ConfigError, CapacityError, CapabilityError, DimensionError)
_IO_ERRORS = (FormatError, ConsistencyError, PrivacyError, OSError)


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 2
    except _IO_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hyperfl", description="federated hypernetwork simulator")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="run a federated training experiment")
    t.add_argument("config", help="path to an experiment config (JSON)")
    t.set_defaults(func=cmd_train)

    a = sub.add_parser("attack", help="reconstruct inputs from a training snapshot")
    a.add_argument("snapshot", help="path to a state snapshot written by train")
    a.add_argument("config", help="path to attack settings (JSON)")
    a.set_defaults(func=cmd_attack)

    q = sub.add_parser("partition", help="emit the client partition manifest only")
    q.add_argument("config", help="path to an experiment config (JSON)")
    q.set_defaults(func=cmd_partition)

    r = sub.add_parser("report", help="summarize a finished run directory")
    r.add_argument("run_dir", help="output directory of a train run")
    r.set_defaults(func=cmd_report)
    return p


# -- train ------------------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = cfgmod.load_config(args.config)
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    (out / "snapshots").mkdir(exist_ok=True)
    ckpt.write_atomic(out / "config.resolved.json", cfg.to_json().encode("utf-8"))

    ds = cfgmod.build_dataset(cfg)
    shards = cfgmod.build_shards(cfg, ds)
    bundle = cfgmod.build_bundle(cfg)
    rounds = cfg.round_config

    timings: list[tuple[int, float]] = []
    latest: dict = {}
    clock = {"t": time.perf_counter()}

    def write_snapshot(name: str, server, clients) -> None:
        ckpt.write_checkpoint(out / "snapshots" / name, fs.state_to_tensors(server, clients, bundle))

    def on_round(t: int, server, clients) -> None:
        now = time.perf_counter()
        timings.append((t, now - clock["t"]))
        clock["t"] = now
        latest["state"] = (server, clients)
        on_cadence = t > 0 and cfg.snapshot_every > 0 and t % cfg.snapshot_every == 0
        if t == rounds.total_rounds or on_cadence:
            write_snapshot(f"round_{t:04d}.hfl", server, clients)

    try:
        _, _, records = fs.run_experiment(
            cfg.algorithm,
            bundle,
            shards,
            rounds,
            seed=cfg.seed,
            dp=cfg.dp_config,
            on_round=on_round,
        )
    except (NumericError, KeyboardInterrupt):
        if "state" in latest:  # keep what progress there was
            write_snapshot("emergency.hfl", *latest["state"])
        raise

    mx.write_metrics_csv(out / "metrics.csv", records)
    mx.write_timings_csv(out / "timings.csv", timings)
    ckpt.write_json(out / "final_accuracy.json", mx.final_accuracy(records))
    print(out)
    return 0


# -- attack -----------------------------------------------------------------------


def cmd_attack(args) -> int:
    snap_path = Path(args.snapshot)
    if not snap_path.exists():
        raise FormatError(f"snapshot not found: {snap_path}")
    run_dir = _find_run_dir(snap_path)
    cfg = cfgmod.load_config(run_dir / "config.resolved.json", apply_env=False)
    acfg, samples = cfgmod.load_attack_overrides(args.config)

    bundle = cfgmod.build_bundle(cfg)
    ds = cfgmod.build_dataset(cfg)
    shards = cfgmod.build_shards(cfg, ds)
    # load what the transcripts read; every other tensor is checked and skipped
    reads = atk.transcript_reads(fs.state_layout(cfg.algorithm, bundle, len(shards)))
    server, clients = fs.tensors_to_state(ckpt.read_checkpoint(snap_path, reads), shards, bundle)
    if server.algorithm != cfg.algorithm:
        raise CapabilityError(
            f"snapshot was produced by {server.algorithm!r} but the run config says {cfg.algorithm!r}"
        )

    shape = cfg.image_shape or tuple(cfgmod.default_image_shape(ds.dim))
    records = []
    for i in range(samples):
        start = time.perf_counter()
        transcript = atk.snapshot_transcript(
            server, clients, bundle, i, shape, cfg.dp_config, cfg.round_config.eta_g, acfg.seed
        )
        x_hat, trace = atk.attack_transcript(transcript.public(), acfg)
        scores = atk.score_reconstruction(transcript, x_hat)
        records.append(atk.sample_record(i, transcript.view.algorithm, x_hat, scores, trace))
        # progress goes to stderr: stdout and the artifacts stay deterministic
        print(
            f"sample {i + 1}/{samples}: psnr {scores['psnr']:.2f} dB, "
            f"{time.perf_counter() - start:.2f} s",
            file=sys.stderr,
        )

    atk.write_attack_report(run_dir / "attack_report.json", acfg, records)
    atk.write_attack_summary_csv(run_dir / "attack_summary.csv", records)
    print(run_dir)
    return 0


def _find_run_dir(snap_path: Path) -> Path:
    for cand in (snap_path.parent, snap_path.parent.parent):
        if (cand / "config.resolved.json").exists():
            return cand
    raise FormatError(f"no config.resolved.json beside {snap_path}; is this a train output?")


# -- partition ----------------------------------------------------------------------


def cmd_partition(args) -> int:
    cfg = cfgmod.load_config(args.config)
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    ds = cfgmod.build_dataset(cfg)
    indices = dk.partition_indices(ds, cfg.partition_spec_for(ds.num_classes), cfg.clients, cfg.seed)
    dk.write_manifest(out / "partition.json", indices)
    print(out / "partition.json")
    return 0


# -- report -------------------------------------------------------------------------


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    metrics_path = run_dir / "metrics.csv"
    if not metrics_path.exists():
        raise FormatError(f"missing metrics file: {metrics_path}")
    records = mx.read_metrics_csv(metrics_path)
    report_dir = run_dir / "report"
    report_dir.mkdir(exist_ok=True)

    mean_rows = sorted(
        (r for r in records if r.client_id == "_mean"), key=lambda r: r.round
    )
    if not mean_rows:
        raise FormatError(f"{metrics_path} holds no per-round mean rows")
    if len(mean_rows) == len(records):
        raise FormatError(f"{metrics_path} holds no client rows")
    last_mean = mean_rows[-1]

    try:
        convergence = asdict(mx.convergence_stats(records))
    except ConfigError:  # single-round runs have no trend to summarize
        convergence = None

    summary = {
        "rounds": last_mean.round,
        "final_mean_test_acc": last_mean.test_acc,
        "final_mean_train_loss": last_mean.train_loss,
        "per_client_final_acc": mx.final_accuracy(records),
        "convergence": convergence,
        "attack": _attack_digest(run_dir / "attack_summary.csv"),
    }
    ckpt.write_json(report_dir / "summary.json", _jsonable(summary))

    for field in mx.NUMERIC_FIELDS:
        lines = ["round,value"]
        for r in mean_rows:
            v = getattr(r, field)
            lines.append(f"{r.round}," + ("" if math.isnan(v) else repr(float(v))))
        ckpt.write_atomic(report_dir / f"series_{field}.csv", ("\n".join(lines) + "\n").encode("utf-8"))

    print(report_dir)
    return 0


def _attack_digest(path: Path) -> Optional[dict]:
    if not path.exists():
        return None
    rows = atk.read_attack_summary_csv(path)
    if not rows:
        return {"samples": 0, "mean_psnr": None, "mean_ssim": None}
    ssim = [r["ssim"] for r in rows]
    return {
        "samples": len(rows),
        "mean_psnr": float(np.mean([r["psnr"] for r in rows])),
        "mean_ssim": float(np.mean(ssim)) if not any(math.isnan(s) for s in ssim) else None,
    }


def _jsonable(obj):
    """NaN-free copy for strict JSON emission; every value is already a plain Python one."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


if __name__ == "__main__":
    sys.exit(main())
