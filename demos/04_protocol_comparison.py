"""Four training protocols on one skewed task, watched round by round.

local:   every client trains alone, nothing crosses the wire
fedavg:  clients share the whole model, server averages it
pfedhn:  the server owns a hypernetwork and per-client embeddings
hyperfl: clients share only their hypernetwork weights; the classifier
         and the embedding never leave the device

The interesting comparison is not raw accuracy (the task is easy) but what
each protocol pays for it: what travels, and how fast personal models fit
a client's own skewed data.
"""

import numpy as np

from hyperfl import datakit as dk
from hyperfl import fedsim as fs
from hyperfl import hypernet as hn
from hyperfl import metrics as mx
from hyperfl import network as nn

SEED = 3
ROUNDS = 60

ds = dk.synth_dataset(num_classes=3, dim=32, per_class=300, separation=3.0, seed=SEED)
spec = dk.PartitionSpec(groups=dk.consecutive_groups(3, 3, 1), samples_per_client=60)
parts = dk.partition(ds, spec, 6, SEED)
shards = [dk.train_test_split(p, SEED + c) for c, p in enumerate(parts)]

fe = nn.dense_net("fe", [32, 16])
cls = nn.dense_net("cls", [16, 3])
hyper = hn.HypernetSpec(target=hn.target_from_netspec(fe), embedding_dim=8, hidden_dim=32)
bundle = fs.ModelBundle(fe=fe, cls=cls, hyper=hyper)
cfg = fs.RoundConfig(local_epochs=5, batch_size=10, total_rounds=ROUNDS)


class TrafficWire(fs.Wire):
    """Notes the size of every message it sends; the library's wire keeps nothing."""

    def __init__(self):
        self.sizes = []

    def send(self, *args, **kwargs):
        msg = super().send(*args, **kwargs)
        self.sizes.append(len(msg.payload))
        return msg


results = {}
for algo in ("local", "fedavg", "pfedhn", "hyperfl"):
    wire = TrafficWire()
    _, _, records = fs.run_experiment(algo, bundle, shards, cfg, seed=SEED, wire=wire)
    acc = {r.round: [] for r in records}
    for r in records:
        acc[r.round].append(r.test_acc)
    curve = {t: float(np.mean(v)) for t, v in acc.items()}
    traffic = sum(wire.sizes)
    results[algo] = (curve, traffic, mx.convergence_stats(records))

print(f"{'round':>5} " + " ".join(f"{a:>8}" for a in results))
for t in (0, 1, 5, 10, 20, 40, ROUNDS):
    row = " ".join(f"{results[a][0][t]:8.3f}" for a in results)
    print(f"{t:>5} {row}")

print("\nbytes on the wire over the whole run:")
for algo, (_, traffic, _) in results.items():
    print(f"  {algo:8} {traffic:>10,}")

print("\nfinal accuracy and gradient-norm trend (first quartile -> last):")
for algo, (_, _, s) in results.items():
    g = s.grad_sq_quartiles
    print(f"  {algo:8} acc {s.final_mean_test_acc:.3f}   grad^2 {g[0]:.3f} -> {g[-1]:.3f}")
