"""Resource use and artifact hashes of the README quick start, for every algorithm.

Usage: ``python tests/quickstart_hashes.py [WORK_DIR]`` (a temporary directory
when omitted; the package is imported from this checkout's ``src``).

Each ``train`` and ``attack`` runs in its own process with
``OPENBLAS_NUM_THREADS=1``; its exit code, peak resident set, minor page
faults and CPU time (imports included) come from the operating system's
record of that process.  The quick start (seed 7, 20 rounds) trains under
each protocol of ``fedsim.PROTOCOLS``, dp_fedavg at C 5.0 and sigma 0.01.
Each round-20 snapshot is then attacked, 150 iterations on 4 samples; local
shares nothing to attack.  A further process repeats the hyperfl training
with the cyclic garbage collector off and counts what the collector then
finds (expected 0: reference counting alone frees every step).  Last, each
protocol trains again at ``sampling_rate`` 0.5, where half the clients sit
out each round but the last and keep their previous accuracy; these runs
are not attacked.

The first closing table gives the sha256 prefix of each artifact, in the
layout of ROADMAP's Baseline table, and the second those of the half-sampled
runs, so a claim that a change leaves them byte-identical can be read off
one run.  "resolved" is ``config.resolved.json`` without its
machine-specific ``output_dir`` line.  The script informs and never fails:
a process that fails shows its exit code, and a missing file shows ``—``.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ALGORITHMS = ("hyperfl", "fedavg", "dp_fedavg", "pfedhn", "local")
QUICK_START = {
    "seed": 7,
    "snapshot_every": 5,
    "dataset": {"kind": "synthetic", "num_classes": 5, "dim": 32, "per_class": 200},
    "partition": {"clients": 10, "groups": 5, "dominant_classes": 2, "samples_per_client": 80},
    "model": {"extractor": [32, 16], "classifier": [16, 5]},
    "rounds": {"local_epochs": 2, "batch_size": 10, "total_rounds": 20},
}
DP = {"clip_norm": 5.0, "sigma": 0.01}
ATTACK = {"iterations": 150, "samples": 4}

# argparse and json leave cycles of their own, so this run skips the CLI
COLLECTOR_OFF = """
import gc, sys
from hyperfl import config as cfgmod, fedsim as fs
cfg = cfgmod.load_config(sys.argv[1])
shards = cfgmod.build_shards(cfg, cfgmod.build_dataset(cfg))
gc.collect()
gc.disable()
fs.run_experiment(cfg.algorithm, cfg.bundle, shards, cfg.round_config, seed=cfg.seed, dp=cfg.dp_config)
print(f"cyclic garbage after training {gc.collect()} objects (expected 0)")
"""


def run(label: str, args: list[str]) -> float:
    """Run ``python args`` in its own process, print its resource line, return its CPU seconds."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    sys.stdout.flush()  # the child writes to the same stdout
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env)
    _, status, use = os.wait4(pid, 0)
    cpu = use.ru_utime + use.ru_stime
    print(
        f"{label}: exit {os.waitstatus_to_exitcode(status)}, peak RSS {use.ru_maxrss / 1024:.1f} MB, "
        f"minor faults {use.ru_minflt}, CPU {cpu:.2f} s",
        flush=True,
    )
    return cpu


def digest(data: bytes | None) -> str:
    return "—" if data is None else f"`{hashlib.sha256(data).hexdigest()[:16]}`"


def read(path: Path) -> bytes | None:
    return path.read_bytes() if path.exists() else None


def without_output_dir(path: Path) -> bytes | None:
    data = read(path)
    return None if data is None else b"".join(
        line for line in data.splitlines(True) if b'"output_dir"' not in line
    )


def train(work: Path, name: str, algorithm: str, **over) -> tuple[Path, float]:
    """Write the quick-start config of ``algorithm`` as ``name``, train it; its output dir and CPU."""
    out = work / name
    cfg = {"algorithm": algorithm, "output_dir": str(out), **QUICK_START, **over}
    if algorithm == "dp_fedavg":
        cfg["dp"] = DP
    cfg_path = work / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    return out, run(f"{name} train", ["-m", "hyperfl.cli", "train", str(cfg_path)])


def main(work: Path) -> None:
    att_path = work / "attack.json"
    att_path.write_text(json.dumps(ATTACK), encoding="utf-8")
    rows = []
    for algorithm in ALGORITHMS:
        out, cpu = train(work, algorithm, algorithm)
        snapshot = out / "snapshots" / "round_0020.hfl"
        if snapshot.exists():
            # hyperfl's holds the server's hypernetwork and, per client, the
            # embedding, the classifier and the generated extractor
            print(f"{algorithm} round_0020.hfl: {snapshot.stat().st_size} B")
        if algorithm != "local":
            # the snapshot streams back from disk tensor by tensor, loading what the transcripts read
            run(f"{algorithm} attack", ["-m", "hyperfl.cli", "attack", str(snapshot), str(att_path)])
        # a rerun of train deletes the attack files, so local's stay missing
        hashes = [read(out / "metrics.csv"), read(snapshot), without_output_dir(out / "config.resolved.json")]
        hashes += [read(out / "attack_summary.csv"), read(out / "attack_report.json")]
        rows.append(f"| {algorithm} | {cpu:.2f} | " + " | ".join(map(digest, hashes)) + " |")

    run("hyperfl train, cyclic collector off", ["-c", COLLECTOR_OFF, str(work / "hyperfl.json")])

    half, rounds = [], {**QUICK_START["rounds"], "sampling_rate": 0.5}
    for algorithm in ALGORITHMS:
        out, cpu = train(work, f"{algorithm}_half", algorithm, rounds=rounds)
        hashes = [read(out / "metrics.csv"), read(out / "snapshots" / "round_0020.hfl")]
        half.append(f"| {algorithm} | {cpu:.2f} | " + " | ".join(map(digest, hashes)) + " |")

    print()
    print("| algorithm | CPU s | `metrics.csv` | `round_0020.hfl` | resolved | `attack_summary.csv` | `attack_report.json` |")
    print("|---|---|---|---|---|---|---|")
    print("\n".join(rows))
    print()
    print("sampling_rate 0.5:")
    print()
    print("| algorithm | CPU s | `metrics.csv` | `round_0020.hfl` |")
    print("|---|---|---|---|")
    print("\n".join(half))


if __name__ == "__main__":
    if len(sys.argv) > 1:
        Path(sys.argv[1]).mkdir(parents=True, exist_ok=True)
        main(Path(sys.argv[1]))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            main(Path(tmp))
