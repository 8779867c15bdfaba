"""The whole pipeline through the command line, file formats included.

train -> attack -> report, driven exactly the way a shell user would do it,
then a look at what landed on disk.  Runs in a temporary directory that is
removed at the end.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

workdir = tempfile.TemporaryDirectory(prefix="hyperfl_demo_")
tmp = Path(workdir.name)
run_dir = tmp / "run"

config = {
    "algorithm": "fedavg",
    "seed": 11,
    "output_dir": str(run_dir),
    "dataset": {"kind": "pattern", "num_classes": 4, "side": 8, "per_class": 40},
    "partition": {"clients": 4, "groups": 2, "dominant_classes": 2,
                  "samples_per_client": 24},
    "model": {"extractor": [64, 12], "classifier": [12, 4]},
    "rounds": {"local_epochs": 1, "batch_size": 8, "total_rounds": 3},
}
(tmp / "experiment.json").write_text(json.dumps(config, indent=2))

attack_settings = {"iterations": 300, "samples": 2, "seed": 0}
(tmp / "attack.json").write_text(json.dumps(attack_settings))


def run(*argv):
    cmd = [sys.executable, "-m", "hyperfl.cli", *argv]
    print("$ hyperfl " + " ".join(argv))
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(out.stderr)
    print(out.stdout.strip())


run("train", str(tmp / "experiment.json"))
run("attack", str(run_dir / "snapshots" / "round_0003.hfl"), str(tmp / "attack.json"))
run("report", str(run_dir))
run("partition", str(tmp / "experiment.json"))

print("\nartifacts:")
for p in sorted(run_dir.rglob("*")):
    if p.is_file():
        print(f"  {p.relative_to(run_dir)}  ({p.stat().st_size:,} bytes)")

print("\nmetrics.csv, first rows (seconds stays empty; timings.csv has wall time):")
for line in (run_dir / "metrics.csv").read_text().splitlines()[:4]:
    print(" ", line)

print("\nattack_summary.csv (analytic column is the closed-form oracle):")
print(" ", (run_dir / "attack_summary.csv").read_text().strip().replace("\n", "\n  "))

summary = json.loads((run_dir / "report" / "summary.json").read_text())
print("\nreport/summary.json keys:", sorted(summary))
print("final mean accuracy:", summary["final_mean_test_acc"])
print("attack digest:", summary["attack"])

workdir.cleanup()
