"""Reconstructing a training image from what crosses the wire.

Against a protocol that shares full-model gradients, a batch-1 update is
an open book: the first dense layer's gradients contain the input as a
ratio of rows, and an optimizer gets the rest of the way with no secrets
to guess.  Against hypernetwork-sharing the observed quantity is a
gradient with respect to generator weights.  The bilevel search, which
inverts the generator before it reaches the extractor, loses the image
at the same budget; but each head's bias gradient is the gradient of the
tensor it generates, so the same ratio of rows reads the input off the
first layer's head biases exactly.
"""

import numpy as np

from hyperfl import attack as atk
from hyperfl import datakit as dk
from hyperfl import fedsim as fs
from hyperfl import hypernet as hn
from hyperfl import metrics as mx
from hyperfl import network as nn

SEED = 5
SIDE = 8

ds = dk.pattern_dataset(num_classes=4, side=SIDE, per_class=40, seed=SEED)
spec = dk.PartitionSpec(groups=dk.consecutive_groups(4, 2, 2), samples_per_client=24)
parts = dk.partition(ds, spec, 4, SEED)
shards = [dk.train_test_split(p, SEED + c) for c, p in enumerate(parts)]

fe = nn.dense_net("fe", [SIDE * SIDE, 12])
cls = nn.dense_net("cls", [12, 4])
hyper = hn.HypernetSpec(target=hn.target_from_netspec(fe), embedding_dim=8, hidden_dim=16)
bundle = fs.ModelBundle(fe=fe, cls=cls, hyper=hyper)
cfg = fs.RoundConfig(local_epochs=1, batch_size=8, total_rounds=3)


def ascii_image(x, width=SIDE):
    shades = " .:-=+*#%@"
    x = np.clip(np.asarray(x).reshape(-1, width), 0.0, 1.0)
    idx = (x * (len(shades) - 1)).round().astype(int)
    return "\n".join("".join(shades[i] for i in row) for row in idx)


x_true = shards[0][0].x[0].reshape(SIDE, SIDE)
y_true = int(shards[0][0].y[0])
budget = atk.AttackConfig(iterations=1500, seed=0)

# Full-model sharing first.
server, clients = fs.run_experiment("fedavg", bundle, shards, cfg, seed=SEED)[:2]
tr = atk.fedavg_transcript(server.global_model, bundle.full, x_true, y_true)

closed = atk.analytic_input_recovery(tr.view.observed["fe0/W"], tr.view.observed["fe0/b"])
print("closed-form recovery, max pixel error:",
      f"{np.max(np.abs(closed.reshape(SIDE, SIDE) - x_true)):.2e}")

x_fed, _ = atk.ig_attack(tr.public(), budget)
psnr_fed = mx.psnr(x_fed, x_true)

# Now the hypernetwork-sharing transcript for the same image.
server, clients = fs.run_experiment("hyperfl", bundle, shards, cfg, seed=SEED)[:2]
tr_h = atk.hyperfl_transcript(
    clients[0].v, server.varphi_bar, clients[0].phi_c,
    bundle.hyper, bundle.fe, bundle.cls, x_true, y_true,
)
x_hyp, report = atk.hyperfl_bilevel_attack(tr_h.public(), budget)
psnr_hyp = mx.psnr(x_hyp, x_true)
x_head = atk.analytic_hyperfl_recovery(tr_h.public()).reshape(SIDE, SIDE)
psnr_head = mx.psnr(x_head, x_true)

print(f"\n{'original':<18}{'from full grads':<18}{'hypernet, search':<18}hypernet, head biases")
print(f"{'':<18}{f'{psnr_fed:.1f} dB':<18}{f'{psnr_hyp:.1f} dB':<18}{psnr_head:.1f} dB\n")
blocks = [ascii_image(img).splitlines() for img in (x_true, x_fed, x_hyp, x_head)]
for rows in zip(*blocks):
    print("".join(f"{r:<18}" for r in rows))

print("\nembedding-recovery residual:", f"{report['embedding_residual']:.3e}")
print("the bilevel search misses the image, but the hypernetwork gradients hold it:")
print("the head-bias recovery is exact, so HyperFL leaks a batch-1 input like FedAvg.")
print("note: the attack raises CapabilityError on a raw transcript;")
print("it only ever sees transcript.public(), which has no ground truth inside.")
