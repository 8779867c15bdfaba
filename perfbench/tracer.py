"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each hyperfl layer from outside the
package.  A function can be reached through several bindings: its defining
module, every module that imported it by name (``fedsim`` imports
``loss_and_grad_params``, ``sgd_step``, ``hypernet_forward``,
``hypernet_backward`` and ``accuracy`` that way) and the package namespace.
``install`` replaces every binding inside ``hyperfl`` with one wrapper, and
``verify`` fails loudly if any binding to an unwrapped original is left, so
a missed import or a renamed function cannot report zero calls silently.

Each span records its call count, its self time (duration minus the time of
the traced spans it called) and every call's duration.  There is one thread
and no queue, so no wait time is recorded.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time

# <module>.<function> of every traced span; the first two are the root spans.
SPANS = (
    "cli.cmd_train",
    "cli.cmd_attack",
    "config.load_config",
    "datakit.synth_dataset",
    "datakit.partition",
    "datakit.train_test_split",
    "fedsim.init_experiment",
    "fedsim.run_round",
    "fedsim.local_train_hyperfl",
    "fedsim.local_train_fedavg",
    "fedsim.dp_sanitize",
    "fedsim.aggregate",
    "fedsim.evaluate_clients",
    "fedsim.Wire.send",
    "fedsim.state_to_tensors",
    "fedsim.tensors_to_state",
    "network.loss_and_grad_params",
    "network.sgd_step",
    "hypernet.hypernet_forward",
    "hypernet.hypernet_backward",
    "autodiff.grad",
    "checkpoint.dump_params",
    "checkpoint.load_params",
    "checkpoint.write_checkpoint",
    "checkpoint.read_checkpoint",
    "metrics.accuracy",
    "attack.hyperfl_transcript",
    "attack.recover_embedding",
    "attack.hyperfl_bilevel_attack",
    "attack.score_reconstruction",
)
ROOTS = ("cli.cmd_train", "cli.cmd_attack")

# Spans whose p90 is reported: those with at least 100 calls per process on
# some workload.  Elsewhere a p90 over a handful of calls says nothing.
P90_SPANS = (
    "fedsim.local_train_fedavg",
    "fedsim.dp_sanitize",
    "fedsim.Wire.send",
    "network.loss_and_grad_params",
    "network.sgd_step",
    "hypernet.hypernet_forward",
    "hypernet.hypernet_backward",
    "autodiff.grad",
    "checkpoint.dump_params",
    "checkpoint.load_params",
    "metrics.accuracy",
)

PACKAGE = "hyperfl"


class TracerError(RuntimeError):
    """A traced function is missing, or a binding to it escaped the wrappers."""


class SpanStats:
    __slots__ = ("calls", "self_ns", "durations_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.durations_ns: list[int] = []


def _package_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _resolve(span: str):
    """(owner, attribute, function) for a span name; raises if it is gone."""
    module_name, _, path = span.partition(".")
    try:
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError as err:
        raise TracerError(f"span {span}: {err}") from err
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TracerError(f"span {span}: {PACKAGE}.{module_name} has no {part}")
    fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(fn):
        raise TracerError(f"span {span}: {PACKAGE}.{module_name}.{path} is not a function")
    return owner, attr, fn


class Tracer:
    """Wraps every span in ``SPANS``; one instance per traced process."""

    def __init__(self) -> None:
        self.stats = {name: SpanStats() for name in SPANS}
        self.errors = 0
        self._stack: list[int] = []  # per open span: ns spent in traced children
        self._originals: dict[int, str] = {}  # id(original function) -> span
        self._patched: list[tuple[object, str, object]] = []  # (owner, attr, original)
        self._kept: list = []  # keeps the originals alive so their ids stay unique

    def install(self) -> None:
        """Wrap every binding of every span inside the imported package."""
        if self._patched:
            raise TracerError("tracer is already installed")
        resolved = [(span, *_resolve(span)) for span in SPANS]
        modules = _package_modules()
        for span, owner, attr, fn in resolved:
            wrapper = self._wrap(span, fn)
            self._originals[id(fn)] = span
            self._kept.append(fn)
            if isinstance(owner, type):  # a method: the class holds the one binding
                self._patched.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, name, fn))
                        setattr(mod, name, wrapper)
        self.verify()

    def verify(self) -> None:
        """Raise if any package module still binds an unwrapped original.

        Call it again after the run: a module imported lazily during the run
        could bind an original that ``install`` never saw.
        """
        for mod in _package_modules():
            for name, value in vars(mod).items():
                candidates = [value]
                if isinstance(value, (dict, list, tuple)):
                    candidates.extend(value.values() if isinstance(value, dict) else value)
                elif isinstance(value, type):
                    candidates.extend(vars(value).values())
                for c in candidates:
                    span = self._originals.get(id(c))
                    if span is not None:
                        raise TracerError(
                            f"span {span}: {mod.__name__}.{name} still reaches the unwrapped function"
                        )

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def _wrap(self, span: str, fn):
        stats = self.stats[span]
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors += 1
                raise
            finally:
                dur = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += dur
                stats.calls += 1
                stats.self_ns += dur - children
                stats.durations_ns.append(dur)

        return wrapper

    def report(self) -> dict:
        """Per-span numbers plus coverage, as plain JSON-ready values."""
        spans = {}
        for name, st in self.stats.items():
            spans[name] = {
                "calls": st.calls,
                "self_s": st.self_ns / 1e9,
                "total_s": sum(st.durations_ns) / 1e9,
                "durations_ns": st.durations_ns,
            }
        root_total = sum(spans[r]["total_s"] for r in ROOTS)
        inner_self = sum(s["self_s"] for n, s in spans.items() if n not in ROOTS)
        return {
            "spans": spans,
            "coverage": inner_self / root_total if root_total > 0 else 0.0,
            "errors": self.errors,
        }


def percentile_us(durations_ns: list[int], q: float) -> float:
    """Nearest-rank percentile in microseconds; 0 when there are no calls."""
    if not durations_ns:
        return 0.0
    ordered = sorted(durations_ns)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1] / 1e3
