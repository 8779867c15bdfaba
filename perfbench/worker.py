"""One benchmark process: runs one ``hyperfl`` CLI command and reports on it.

    python3 perfbench/worker.py warmup
    python3 perfbench/worker.py train CONFIG [--trace]
    python3 perfbench/worker.py attack SNAPSHOT SETTINGS [--trace]

``run.py`` starts it with the pinned environment (one BLAS thread, fixed
hash seed, ``PYTHONPATH`` at the checkout's ``src``).  The command runs
in-process through ``hyperfl.cli.main``, so the tracer can wrap it.  The
last line of standard output is one JSON object:

- ``setup_s``: from just before ``import hyperfl`` to the end of set-up.
  For ``train`` set-up ends when round 0 is evaluated (the first
  ``on_round`` call); for ``attack`` it ends when the first transcript is
  handed to the attacker.
- ``timed_s``: from the end of set-up until the command returns;
  ``timed_cpu_s`` is the process CPU time over the same phase.
- ``unit_s``: wall seconds of each unit of work: every training round
  (between consecutive ``on_round`` calls) or every attacked sample.
- ``rss_mb``: peak resident set size of this process.
- ``wire``: message and byte counts of every ``Wire.send`` and the rounds
  in which a message carried a tensor outside ``hyper/``.
- ``trace``: the tracer's report, with ``--trace`` only.

``warmup`` imports hyperfl once (so later processes find compiled
bytecode) and reports the environment instead.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer

PRIVATE_SAFE_PREFIX = "hyper/"


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def _watch_wire(fedsim, wire: dict, check_private: bool) -> None:
    """Count what crosses the wire and note rounds that leak private tensors."""
    send = fedsim.Wire.send

    def watched_send(self, sender, receiver, kind, round_t, payload, allowed_names):
        msg = send(self, sender, receiver, kind, round_t, payload, allowed_names)
        wire["messages"] += 1
        wire["bytes_down" if kind == "broadcast" else "bytes_up"] += len(msg.payload)
        if check_private and any(not n.startswith(PRIVATE_SAFE_PREFIX) for n in msg.names):
            wire["leak_rounds"].append(round_t)
        return msg

    fedsim.Wire.send = watched_send


def main(argv: list[str]) -> int:
    trace = "--trace" in argv
    args = [a for a in argv if a != "--trace"]
    mode = args[0]

    t0 = time.perf_counter()
    import hyperfl
    from hyperfl import attack, cli, fedsim

    if mode == "warmup":
        print(json.dumps({"environment": _environment(), "hyperfl": hyperfl.__file__}))
        return 0

    marks: dict[str, float] = {}
    units: list[float] = []  # wall seconds of each round (train) or attacked sample (attack)

    def end_setup() -> None:
        if "setup_end" not in marks:
            marks["setup_end"] = time.perf_counter()
            marks["setup_cpu"] = time.process_time()

    if mode == "train":
        cli_args = ["train", args[1]]
        check_private = json.loads(Path(args[1]).read_text(encoding="utf-8"))["algorithm"] == "hyperfl"
        run_experiment = fedsim.run_experiment

        def timed_run_experiment(*a, on_round=None, **kw):
            def hook(t, server, clients):
                now = time.perf_counter()
                if t == 0:
                    end_setup()
                else:
                    units.append(now - marks["round_end"])
                marks["round_end"] = now
                on_round(t, server, clients)

            return run_experiment(*a, on_round=hook, **kw)

        fedsim.run_experiment = timed_run_experiment
    elif mode == "attack":
        cli_args = ["attack", args[1], args[2]]
        check_private = False  # an attack sends nothing over the wire
        attack_transcript = attack.attack_transcript

        def timed_attack_transcript(view, cfg):
            end_setup()
            start = time.perf_counter()
            result = attack_transcript(view, cfg)
            units.append(time.perf_counter() - start)
            return result

        attack.attack_transcript = timed_attack_transcript
    else:
        raise SystemExit(f"unknown mode {mode!r}")

    wire = {"messages": 0, "bytes_down": 0, "bytes_up": 0, "leak_rounds": []}
    _watch_wire(fedsim, wire, check_private)
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()

    rc = cli.main(cli_args)
    end = time.perf_counter()
    end_cpu = time.process_time()
    if tracer is not None:
        tracer.verify()

    setup_end = marks.get("setup_end", end)
    print(
        json.dumps(
            {
                "rc": rc,
                "setup_s": setup_end - t0,
                "timed_s": end - setup_end,
                "timed_cpu_s": end_cpu - marks.get("setup_cpu", end_cpu),
                "unit_s": units,
                "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "wire": wire,
                "trace": tracer.report() if tracer is not None else None,
            }
        )
    )
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
