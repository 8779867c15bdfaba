"""Release gates: ten end-to-end checks, one test per gate.

Each test prints a single `[criterion N] name: PASS/FAIL` line with the
measured numbers (visible under ``pytest -s``).  The gates cover gradient
correctness against finite differences, exact aggregation and partitioning,
the DP mechanism, desk-scale convergence, the inversion attack's positive
and negative controls, the privacy boundary of the wire protocol, and
byte-level determinism of the command line.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from hyperfl import attack as atk
from hyperfl import autodiff as ad
from hyperfl import checkpoint as ckpt
from hyperfl import cli
from hyperfl import datakit as dk
from hyperfl import fedsim as fs
from hyperfl import hypernet as hn
from hyperfl import metrics as mx
from hyperfl import network as nn
from tape_oracles import forward_loss, grad_params_sym, value_and_grads


def gate(number: int, name: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {number:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def fd_grad(f, x, h=1e-5):
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-12)


# -- 1: gradients vs central finite differences ---------------------------------


def test_criterion_01_gradient_correctness():
    start = time.perf_counter()
    worst = 0.0
    for instance in range(20):
        rng = np.random.default_rng(1000 + instance)
        d_in = int(rng.integers(3, 6))
        d_hid = int(rng.integers(3, 7))
        classes = int(rng.integers(2, 4))
        batch = int(rng.integers(2, 4))

        fe = nn.dense_net("fe", [d_in, d_hid], activation="leaky_relu")
        cls = nn.dense_net("cls", [d_hid, classes], activation="leaky_relu")
        full = nn.concat_specs(fe, cls)
        params = nn.init_params(full, rng)
        x = rng.standard_normal((batch, d_in))
        y = rng.integers(0, classes, size=batch)

        # direct parameter gradients of the classification loss
        _, grads = nn.loss_and_grad_params(params, full, x, y)
        for name in params:

            def f_param(arr, name=name):
                trial = dict(params)
                trial[name] = arr
                return forward_loss(trial, full, x, y)

            worst = max(worst, rel_err(grads[name], fd_grad(f_param, params[name])))

        # same loss through the hypernetwork composition, grads wrt v and phi
        hyper = hn.HypernetSpec(
            target=hn.target_from_netspec(fe),
            embedding_dim=int(rng.integers(2, 5)),
            hidden_dim=int(rng.integers(4, 8)),
        )
        phi, v = hn.init_hypernet(hyper, seed=2000 + instance)
        phi_c = {k: p for k, p in params.items() if k.startswith("cls")}

        def composed_loss(v_arr, phi_tree):
            theta = hn.hypernet_forward(v_arr, phi_tree, hyper)
            return forward_loss({**theta, **phi_c}, full, x, y)

        theta = hn.hypernet_forward(v, phi, hyper)
        _, g_theta = nn.loss_and_grad_params(theta, full, x, y, frozen=phi_c)
        d_phi, d_v = hn.hypernet_backward(g_theta, v, phi, hyper)
        worst = max(worst, rel_err(d_v, fd_grad(lambda a: composed_loss(a, phi), v)))
        for name in phi:

            def f_phi(arr, name=name):
                trial = dict(phi)
                trial[name] = arr
                return composed_loss(v, trial)

            worst = max(worst, rel_err(d_phi[name], fd_grad(f_phi, phi[name])))

        # gradient-matching objective differentiated a second time, wrt the input
        g0 = {k: rng.standard_normal(a.shape) for k, a in params.items()}

        def matching(xs):
            leaves = {k: ad.Var(a) for k, a in params.items()}
            g_sym = grad_params_sym(leaves, full, xs["x"], y)
            total = None
            for k in sorted(g_sym):
                term = ad.sum_(ad.square(ad.sub(g_sym[k], ad.constant(g0[k]))))
                total = term if total is None else ad.add(total, term)
            return total

        _, got = value_and_grads(matching, {"x": x})

        def f_match(x_arr):
            _, g = nn.loss_and_grad_params(params, full, x_arr, y)
            return sum(float(np.sum((g[k] - g0[k]) ** 2)) for k in g)

        worst = max(worst, rel_err(got["x"], fd_grad(f_match, x)))

    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 60.0
    assert gate(1, "gradient correctness", ok, f"worst rel err {worst:.2e}, {elapsed:.1f}s")


# -- 2: aggregation exactness ----------------------------------------------------


def test_criterion_02_aggregation_exactness():
    worst = 0.0
    for trial in range(30):
        rng = np.random.default_rng(300 + trial)
        m = int(rng.integers(2, 7))
        shapes = {"a/W": (3, 2), "a/b": (4,), "b/W": (2, 2, 2)}
        uploads = [{k: rng.standard_normal(s) for k, s in shapes.items()} for _ in range(m)]
        sizes = rng.integers(1, 50, size=m).astype(np.float64)
        weights = (sizes / sizes.sum()).tolist()
        got = fs.aggregate(uploads, weights)
        for k in shapes:
            brute = sum(w * u[k] for w, u in zip(weights, uploads))
            worst = max(worst, float(np.max(np.abs(got[k] - brute))))

    u = {"w": np.array([1.0, -0.0, 3.5]), "b": np.array([[2.0, -1.0]])}
    single = fs.aggregate([u], [1.0])
    single_ok = all(single[k].tobytes() == u[k].tobytes() for k in u)

    copies = [{k: a.copy() for k, a in u.items()} for _ in range(4)]
    equal = fs.aggregate(copies, [0.25] * 4)
    equal_ok = all(equal[k].tobytes() == u[k].tobytes() for k in u)

    ok = worst <= 1e-12 and single_ok and equal_ok
    assert gate(
        2,
        "aggregation exactness",
        ok,
        f"brute-force gap {worst:.1e}, single bitwise {single_ok}, equal-weight bitwise {equal_ok}",
    )


# -- 3: partitioner fidelity -----------------------------------------------------


def test_criterion_03_partitioner_fidelity():
    ds = dk.synth_dataset(num_classes=10, dim=4, per_class=1000, separation=2.0, seed=3)
    spec = dk.PartitionSpec(
        groups=dk.consecutive_groups(10, 3, 3), samples_per_client=600, uniform_percent=20.0
    )
    m = 9
    shards = dk.partition_indices(ds, spec, m, seed=11)
    again = dk.partition_indices(ds, spec, m, seed=11)
    other = dk.partition_indices(ds, spec, m, seed=12)

    ok = spec.uniform_count() == 120
    for client, idx in enumerate(shards):
        dominant = set(spec.groups[dk.group_of_client(client, m, 3)])
        labels = ds.y[idx]
        ok &= len(idx) == 600
        ok &= len(set(idx.tolist())) == 600  # no duplicates within a shard
        # layout contract: the first 120 indices are the uniform draws
        ok &= set(labels[120:].tolist()) <= dominant
        ok &= bool(set(labels[:120].tolist()) - dominant)  # uniform part strays outside

    deterministic = all(np.array_equal(a, b) for a, b in zip(shards, again))
    reseeded = not all(np.array_equal(a, b) for a, b in zip(shards, other))
    ok = ok and deterministic and reseeded
    assert gate(
        3,
        "partitioner fidelity",
        ok,
        f"uniform={spec.uniform_count()}, dominant=480, deterministic={deterministic}",
    )


# -- 4: DP mechanism -------------------------------------------------------------


def test_criterion_04_dp_mechanism(tmp_path):
    clip = 2.0
    bounded = True
    for trial in range(100):
        rng = np.random.default_rng(400 + trial)
        u = {"a": rng.standard_normal(7) * 10.0, "b": rng.standard_normal((3, 2)) * 10.0}
        out = fs.dp_sanitize(u, fs.DPConfig(clip_norm=clip, sigma=0.0), rng)
        bounded &= nn.tree_norm(out) <= clip

    sigma = 0.5
    zeros = {"z": np.zeros(100_000)}
    rng = np.random.default_rng(44)
    noisy = fs.dp_sanitize(zeros, fs.DPConfig(clip_norm=clip, sigma=sigma), rng)
    std = float(np.std(noisy["z"]))
    std_ok = abs(std - sigma * clip) / (sigma * clip) < 0.05

    ds = dk.synth_dataset(num_classes=3, dim=8, per_class=60, separation=3.0, seed=4)
    spec = dk.PartitionSpec(groups=dk.consecutive_groups(3, 3, 1), samples_per_client=30)
    parts = dk.partition(ds, spec, 3, seed=4)
    shards = [dk.train_test_split(p, 4 + c) for c, p in enumerate(parts)]
    fe = nn.dense_net("fe", [8, 6])
    cls = nn.dense_net("cls", [6, 3])
    hyper = hn.HypernetSpec(target=hn.target_from_netspec(fe), embedding_dim=4, hidden_dim=8)
    bundle = fs.ModelBundle(fe=fe, cls=cls, hyper=hyper)
    cfg = fs.RoundConfig(local_epochs=1, batch_size=10, total_rounds=4)
    csvs = []
    for algo, dp in (("fedavg", None), ("dp_fedavg", fs.DPConfig())):
        _, _, records = fs.run_experiment(algo, bundle, shards, cfg, seed=4, dp=dp)
        path = tmp_path / f"{algo}.csv"
        mx.write_metrics_csv(path, records)
        csvs.append(path.read_bytes())
    neutral_ok = csvs[0] == csvs[1]

    ok = bounded and std_ok and neutral_ok
    assert gate(
        4,
        "dp mechanism",
        ok,
        f"norms bounded {bounded}, noise std {std:.4f} vs {sigma * clip}, "
        f"neutral run bitwise {neutral_ok}",
    )


# -- 5: desk-scale convergence ----------------------------------------------------


def test_criterion_05_convergence():
    start = time.perf_counter()
    seed = 0
    ds = dk.synth_dataset(num_classes=3, dim=32, per_class=400, separation=3.0, seed=seed)
    spec = dk.PartitionSpec(groups=dk.consecutive_groups(3, 3, 1), samples_per_client=60)
    parts = dk.partition(ds, spec, 8, seed)
    shards = [dk.train_test_split(p, seed + c) for c, p in enumerate(parts)]
    fe = nn.dense_net("fe", [32, 16])
    cls = nn.dense_net("cls", [16, 3])
    hyper = hn.HypernetSpec(target=hn.target_from_netspec(fe), embedding_dim=8, hidden_dim=32)
    bundle = fs.ModelBundle(fe=fe, cls=cls, hyper=hyper)
    cfg = fs.RoundConfig(local_epochs=5, batch_size=10, total_rounds=100)
    assert cfg.eta_g.learning_rate == 0.1  # stock recipe, stated for the record
    assert cfg.eta_h.learning_rate == cfg.eta_v.learning_rate == 0.01

    _, _, records = fs.run_experiment("hyperfl", bundle, shards, cfg, seed=seed)
    s = mx.convergence_stats(records)
    elapsed = time.perf_counter() - start

    acc_ok = s.final_mean_test_acc >= 0.85
    grad_ok = s.grad_last_le_half_first
    drift_ok = s.extractor_drift_last_below_first
    ok = acc_ok and grad_ok and drift_ok and elapsed < 600.0
    assert gate(
        5,
        "convergence",
        ok,
        f"acc {s.final_mean_test_acc:.3f}, grad quartiles "
        f"{s.grad_sq_quartiles[0]:.3f}->{s.grad_sq_quartiles[-1]:.3f}, "
        f"drift falls {drift_ok}, {elapsed:.0f}s",
    )


# -- 6..8: attack bench ------------------------------------------------------------


@pytest.fixture(scope="module")
def attack_bench():
    """Matched transcripts for the three protocols at the same training state."""
    seed = 7
    ds = dk.pattern_dataset(num_classes=4, side=8, per_class=40, seed=seed)
    spec = dk.PartitionSpec(groups=dk.consecutive_groups(4, 2, 2), samples_per_client=24)
    parts = dk.partition(ds, spec, 4, seed)
    shards = [dk.train_test_split(p, seed + c) for c, p in enumerate(parts)]
    fe = nn.dense_net("fe", [64, 12], activation="leaky_relu")
    cls = nn.dense_net("cls", [12, 4], activation="leaky_relu")
    hyper = hn.HypernetSpec(target=hn.target_from_netspec(fe), embedding_dim=8, hidden_dim=16)
    bundle = fs.ModelBundle(fe=fe, cls=cls, hyper=hyper)
    cfg = fs.RoundConfig(local_epochs=1, batch_size=8, total_rounds=3)

    states = {
        algo: fs.run_experiment(algo, bundle, shards, cfg, seed=seed)[:2]
        for algo in ("fedavg", "pfedhn", "hyperfl")
    }
    pairs = [(i % 4, i // 4) for i in range(10)]

    def sample(c, j):
        train = shards[c][0]
        return train.x[j].reshape(8, 8), int(train.y[j])

    return {
        "bundle": bundle,
        "states": states,
        "pairs": pairs,
        "sample": sample,
        "acfg": atk.AttackConfig(iterations=2000, seed=0),
        "fedavg_mean": {},  # filled by criterion 6, read by 7 and 8
    }


def fedavg_control(bench):
    if "psnr" not in bench["fedavg_mean"]:
        server, _ = bench["states"]["fedavg"]
        psnrs, analytic = [], []
        for c, j in bench["pairs"]:
            img, y = bench["sample"](c, j)
            tr = atk.fedavg_transcript(server.global_model, bench["bundle"].full, img, y)
            x = atk.analytic_input_recovery(tr.view.observed["fe0/W"], tr.view.observed["fe0/b"])
            analytic.append(float(np.max(np.abs(x.reshape(8, 8) - img))))
            x_hat, _ = atk.ig_attack(tr.public(), bench["acfg"])
            psnrs.append(mx.psnr(x_hat, img))
        bench["fedavg_mean"]["psnr"] = psnrs
        bench["fedavg_mean"]["analytic"] = analytic
    return bench["fedavg_mean"]


def test_criterion_06_attack_positive_control(attack_bench):
    control = fedavg_control(attack_bench)
    analytic_worst = max(control["analytic"])
    hits = sum(p >= 20.0 for p in control["psnr"])
    ok = analytic_worst <= 1e-10 and hits >= 9
    assert gate(
        6,
        "attack positive control",
        ok,
        f"analytic err {analytic_worst:.1e}, {hits}/10 samples >= 20 dB, "
        f"mean {np.mean(control['psnr']):.1f} dB",
    )


def test_criterion_07_attack_negative_result(attack_bench):
    control = np.mean(fedavg_control(attack_bench)["psnr"])
    server, clients = attack_bench["states"]["hyperfl"]
    bundle = attack_bench["bundle"]
    psnrs = []
    for c, j in attack_bench["pairs"]:
        img, y = attack_bench["sample"](c, j)
        tr = atk.hyperfl_transcript(
            clients[c].v, server.varphi_bar, clients[c].phi_c,
            bundle.hyper, bundle.fe, bundle.cls, img, y,
        )
        x_hat, _ = atk.hyperfl_bilevel_attack(tr.public(), attack_bench["acfg"])
        psnrs.append(mx.psnr(x_hat, img))
    mean = float(np.mean(psnrs))
    ok = mean <= 12.0 and mean <= control - 10.0
    assert gate(
        7,
        "attack negative result",
        ok,
        f"hypernet-sharing mean {mean:.2f} dB vs control {control:.2f} dB",
    )


def test_hyperfl_head_bias_recovery_is_exact(attack_bench):
    # criterion 7 bounds the bilevel search only: a head's bias gradient is the
    # gradient of the tensor it generates, so each batch-1 input is in the transcript
    server, clients = attack_bench["states"]["hyperfl"]
    bundle = attack_bench["bundle"]
    psnrs = []
    for c, j in attack_bench["pairs"]:
        img, y = attack_bench["sample"](c, j)
        tr = atk.hyperfl_transcript(
            clients[c].v, server.varphi_bar, clients[c].phi_c,
            bundle.hyper, bundle.fe, bundle.cls, img, y,
        )
        psnrs.append(mx.psnr(atk.analytic_hyperfl_recovery(tr.public()).reshape(8, 8), img))
    assert psnrs == [mx.PSNR_CAP_DB] * 10


def test_criterion_08_pfedhn_susceptibility(attack_bench):
    control = np.mean(fedavg_control(attack_bench)["psnr"])
    server, _ = attack_bench["states"]["pfedhn"]
    bundle = attack_bench["bundle"]
    psnrs = []
    for c, j in attack_bench["pairs"]:
        img, y = attack_bench["sample"](c, j)
        model = hn.hypernet_forward(server.embeddings[c], server.varphi_bar, bundle.pfedhn_hyper())
        tr = atk.pfedhn_transcript(model, bundle.full, img, y)
        x_hat, _ = atk.ig_attack(tr.public(), attack_bench["acfg"])
        psnrs.append(mx.psnr(x_hat, img))
    mean = float(np.mean(psnrs))
    ok = abs(mean - control) <= 5.0
    assert gate(
        8,
        "pfedhn susceptibility",
        ok,
        f"generated-model mean {mean:.2f} dB vs control {control:.2f} dB",
    )


# -- 9: privacy boundary ------------------------------------------------------------


class RecordingWire(fs.Wire):
    """A wire that keeps every message it sends, so the test can scan the traffic."""

    def __init__(self):
        self.messages = []

    def send(self, *args, **kwargs):
        msg = super().send(*args, **kwargs)
        self.messages.append(msg)
        return msg


def test_criterion_09_privacy_boundary():
    seed = 9
    ds = dk.synth_dataset(num_classes=3, dim=8, per_class=60, separation=3.0, seed=seed)
    spec = dk.PartitionSpec(groups=dk.consecutive_groups(3, 3, 1), samples_per_client=30)
    parts = dk.partition(ds, spec, 3, seed)
    shards = [dk.train_test_split(p, seed + c) for c, p in enumerate(parts)]
    fe = nn.dense_net("fe", [8, 6])
    cls = nn.dense_net("cls", [6, 3])
    hyper = hn.HypernetSpec(target=hn.target_from_netspec(fe), embedding_dim=4, hidden_dim=8)
    bundle = fs.ModelBundle(fe=fe, cls=cls, hyper=hyper)
    server, clients = fs.init_experiment("hyperfl", bundle, shards, seed=seed)

    # sentinel injection: re-randomize every private tensor so its exact byte
    # string is a unique fingerprint, then confirm the detector would fire
    mark_rng = np.random.default_rng(0xFEED)
    for c in clients:
        c.v[...] = mark_rng.standard_normal(c.v.shape) * 0.1
        for k in c.phi_c:
            c.phi_c[k][...] = mark_rng.standard_normal(c.phi_c[k].shape) * 0.1

    def private_bytes():
        out = []
        for c in clients:
            out.append(c.v.tobytes())
            out.extend(a.tobytes() for a in c.phi_c.values())
        return out

    planted = ckpt.dump_params({"x": clients[0].phi_c["cls0/W"]})
    detector_fires = any(planted.find(b) >= 0 for b in private_bytes())

    wire = RecordingWire()
    cfg = fs.RoundConfig(local_epochs=1, batch_size=10, total_rounds=20)
    secrets = private_bytes()
    for _ in range(20):
        server, clients, _ = fs.run_round(
            server, clients, bundle, cfg, fs.DPConfig(), seed=seed, wire=wire
        )
        secrets.extend(private_bytes())

    allowed = set(bundle.hyper.param_shapes())
    names_ok = all(set(m.names) <= allowed for m in wire.messages)
    leaked = sum(
        1 for m in wire.messages for b in secrets if m.payload.find(b) >= 0
    )
    ok = detector_fires and bool(wire.messages) and names_ok and leaked == 0
    assert gate(
        9,
        "privacy boundary",
        ok,
        f"{len(wire.messages)} messages, {len(secrets)} fingerprints, "
        f"{leaked} leaks, detector self-test {detector_fires}",
    )


# -- 10: determinism ------------------------------------------------------------------


def test_criterion_10_determinism(tmp_path, monkeypatch):
    monkeypatch.delenv("HYPERFL_SEED", raising=False)

    def run(name, workers):
        out = tmp_path / name
        cfg = {
            "algorithm": "hyperfl",
            "seed": 10,
            "output_dir": str(out),
            "workers": workers,
            "dataset": {"kind": "synthetic", "num_classes": 3, "dim": 8, "per_class": 60},
            "partition": {
                "clients": 4, "groups": 3, "dominant_classes": 1, "samples_per_client": 24,
            },
            "model": {"extractor": [8, 6], "classifier": [6, 3]},
            "hypernet": {"embedding_dim": 4, "hidden_dim": 8},
            "rounds": {
                "local_epochs": 1, "batch_size": 8, "total_rounds": 5, "sampling_rate": 0.5,
            },
        }
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["train", str(path)]) == 0
        return (out / "metrics.csv").read_bytes()

    serial = run("serial", workers=1)
    rerun = run("rerun", workers=1)
    parallel = run("parallel", workers=3)
    ok = serial == rerun == parallel
    assert gate(
        10,
        "determinism",
        ok,
        f"rerun bitwise {serial == rerun}, across parallelism {serial == parallel}",
    )
