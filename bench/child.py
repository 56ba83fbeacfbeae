"""One measured process of the benchmark.

Usage: python3 bench/child.py SPEC_JSON

SPEC_JSON is an object with these keys:

- "mode": "setup" times `import tribound` plus one zero-length
  `engine.run` of the workload's scenario and config; "verb" times
  `tribound.cli.main(argv)`.
- "src": directory that holds the `tribound` package.
- "result": file the measurements are written to, as JSON.
- "traced": in verb mode, wrap the layers listed in FUNCTION_SPANS and
  METHOD_SPANS and report per-layer call counts and self times.
- "argv" (verb mode), "scenario", "overrides" and "seed" (setup mode).

In verb mode the CLI writes to this process's stdout untouched, and the
process exits with the CLI's exit code. Both modes report `ref_s`, the time
of the reference kernel: in verb mode the mean of one run just before and
one just after the verb, in setup mode one run just after set-up. Nothing
heavy is imported at module level, so that setup mode times the whole
import of the program.
"""
from __future__ import annotations

import functools
import hashlib
import json
import resource
import sys
import time

# Span name -> "module.attribute" bindings to wrap in the calling module's
# namespace, so a span means "this caller -> this layer".
FUNCTION_SPANS: dict[str, tuple[str, ...]] = {
    "hebbian.hebbian_tick": ("engine.hebbian_tick",),
    "contracts.all_margins": ("engine.all_margins",),
    "cascade.policy_distributions": ("engine.policy_distributions",),
    "cascade.tv_rows": ("engine.tv_rows",),
    "cascade.realized_embeddings": ("engine.realized_embeddings",),
    "cascade.modulation": ("engine.modulation",),
    "cascade.marl_step": ("engine.marl_step",),
    "cascade.make_encoder": ("engine.make_encoder",),
    "meta.compatibility_check": ("engine.compatibility_check",),
    "meta.adaptation_trial": ("engine.adaptation_trial",),
    "engine.verify": ("cli.verify", "engine.verify"),
    "bounds.total_bound": ("cli.total_bound", "engine.total_bound"),
}

# "module.Class.method" spans, wrapped on the class itself.
METHOD_SPANS: tuple[str, ...] = (
    "contracts.Monitor.observe",
    "cascade.EmbeddingEncoder.encode",
    "meta.MetaCascade.step",
    "meta.MetaCascade.__init__",
    "engine.Trace.save",
)

# Spans with their own wiring: the `cli.run` wrapper and the observation
# generator that `engine` gets from `stream_rng(seed, "observations")`.
RUN_SPAN = "engine.run"
OBS_SPAN = "seeding.obs_draw"

SPAN_NAMES = (RUN_SPAN, OBS_SPAN, *FUNCTION_SPANS, *METHOD_SPANS)


class Tracer:
    """Nested spans aggregated per name as they close.

    A span's self time is its duration minus the durations of the spans it
    directly contains. `under_run_self_s` sums the self time of every span
    closed inside a `RUN_SPAN`, that span included; it must equal the total
    time of the `RUN_SPAN` spans.
    """

    def __init__(self) -> None:
        self.stats = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self._children: list[float] = []
        self._run_depth = 0
        self.under_run_self_s = 0.0

    def wrap(self, name: str, fn):
        stats = self.stats[name]
        children = self._children
        is_run = name == RUN_SPAN
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if is_run:
                self._run_depth += 1
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                own = duration - children.pop()
                if children:
                    children[-1] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += own
                if self._run_depth:
                    self.under_run_self_s += own
                if is_run:
                    self._run_depth -= 1

        return span

    def report(self) -> dict[str, dict[str, float]]:
        return {
            name: {"calls": calls, "total_s": total, "self_s": own}
            for name, (calls, total, own) in self.stats.items()
        }


class _TimedGenerator:
    """Delegates to a numpy Generator, timing the draws engine makes."""

    def __init__(self, generator, tracer: Tracer) -> None:
        self._generator = generator
        self.standard_normal = tracer.wrap(OBS_SPAN, generator.standard_normal)
        self.uniform = tracer.wrap(OBS_SPAN, generator.uniform)

    def __getattr__(self, attr):
        return getattr(self._generator, attr)


def _module(name: str):
    return sys.modules[f"tribound.{name}"]


def _install_tracer(tracer: Tracer, on_trace) -> None:
    from tribound import cli, engine

    for span, bindings in FUNCTION_SPANS.items():
        for binding in bindings:
            module, attr = binding.split(".")
            target = _module(module)
            setattr(target, attr, tracer.wrap(span, getattr(target, attr)))
    for span in METHOD_SPANS:
        module, cls_name, attr = span.split(".")
        cls = getattr(_module(module), cls_name)
        setattr(cls, attr, tracer.wrap(span, getattr(cls, attr)))

    stream_rng = engine.stream_rng

    def traced_stream_rng(seed, stream):
        generator = stream_rng(seed, stream)
        if stream == "observations":
            return _TimedGenerator(generator, tracer)
        return generator

    engine.stream_rng = traced_stream_rng

    traced_run = tracer.wrap(RUN_SPAN, cli.run)

    def run_and_record(*args, **kwargs):
        trace = traced_run(*args, **kwargs)
        on_trace(trace)
        return trace

    cli.run = run_and_record


class TraceCounts:
    """Counts read from every Trace the CLI produces; they repeat exactly."""

    def __init__(self) -> None:
        self.ticks = 0
        self.agent_ticks = 0
        self.clamped = 0
        self.marl_cycles = 0
        self.halvings = 0
        self.meta_records = 0
        self.gate_rejects = 0
        self.k_inner = 0
        self.events = 0

    def add(self, trace) -> None:
        self.ticks += trace.ticks
        self.agent_ticks += int(trace.clamped.size)
        self.clamped += int(trace.clamped.sum())
        self.marl_cycles += len(trace.marl_records)
        self.halvings += sum(rec["halvings"] for rec in trace.marl_records)
        self.meta_records += len(trace.meta_records)
        self.gate_rejects += sum(
            not (rec["m1"] and rec["m2"] and rec["m3"]) for rec in trace.meta_records
        )
        self.k_inner += sum(rec["k_inner"] for rec in trace.meta_records)
        self.events += len(trace.events)

    def report(self, observe_calls: int) -> dict[str, tuple[float, str]]:
        """Metric name -> (value, unit)."""

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        return {
            "engine.ticks": (self.ticks, "count"),
            "hebbian.clamp_frac": (ratio(self.clamped, self.agent_ticks), "ratio"),
            "cascade.marl_step.halvings": (self.halvings, "count"),
            "cascade.trust_region.accept_frac": (
                ratio(self.marl_cycles, self.marl_cycles + self.halvings),
                "ratio",
            ),
            "meta.gate.reject_frac": (
                ratio(self.gate_rejects, self.meta_records),
                "ratio",
            ),
            "meta.adaptation_trial.k_inner": (
                ratio(self.k_inner, self.meta_records),
                "iters",
            ),
            "contracts.events_per_observe": (
                ratio(self.events, observe_calls),
                "ratio",
            ),
        }


def _peak_rss_mb() -> float:
    """Peak resident set of this process since exec, in MB.

    ru_maxrss also counts the parent's pages at fork, so VmHWM comes first.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# Iterations of the reference kernel; about 0.2 s on an idle 2-core VM.
REF_ITERATIONS = 3000


def reference_kernel_s() -> float:
    """Time a fixed kernel shaped like the program's work, without the program.

    Each iteration is a small-array update in the style of a fast tick;
    every second one adds observation-sized draws, every tenth a hashed
    per-row generator as in the embedding error. Its time tracks how fast
    the machine runs this kind of code at that moment, so dividing the
    verb's times by it cancels most of the drift of a shared machine.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    weights = rng.standard_normal((10, 64))
    drive_in = rng.standard_normal((10, 64))
    history: list = []
    start = time.perf_counter()
    for i in range(REF_ITERATIONS):
        drive = np.einsum("ij,ij->i", weights, drive_in)[:, None] * drive_in
        step = 1e-3 * (drive - 0.01 * weights)
        norms = np.linalg.norm(step, axis=1)
        scale = np.minimum(
            1.0, np.divide(1e-4, norms, out=np.ones_like(norms), where=norms > 0.0)
        )
        weights = weights + step * scale[:, None]
        weight_norms = np.linalg.norm(weights, axis=1)
        history.append((float(weight_norms.max()), bool((scale < 1.0).any())))
        drive_in = np.divide(
            weights,
            weight_norms[:, None],
            out=np.zeros_like(weights),
            where=weight_norms[:, None] > 0.0,
        )
        if i % 2 == 0:
            draw = rng.standard_normal((2, 30, 64))
            draw /= np.linalg.norm(draw, axis=2, keepdims=True)
        if i % 10 == 0:
            key = hashlib.blake2b(weights[0].tobytes(), digest_size=16).digest()
            sub = np.random.default_rng(int.from_bytes(key, "little"))
            history.append(float(np.linalg.norm(sub.standard_normal(16))))
    return time.perf_counter() - start


def measure_setup(spec: dict) -> dict:
    start = time.perf_counter()
    import tribound  # noqa: F401
    from tribound import engine, model

    config = model.SystemConfig()
    if spec["overrides"]:
        config = model.apply_overrides(config, spec["overrides"])
    engine.run(spec["scenario"], config=config, seed=spec["seed"], duration=0.0)
    setup_s = time.perf_counter() - start
    return {"setup_s": setup_s, "ref_s": reference_kernel_s()}


def measure_verb(spec: dict) -> tuple[int, dict]:
    from tribound import cli

    result: dict = {}
    if spec["traced"]:
        tracer = Tracer()
        counts = TraceCounts()
        _install_tracer(tracer, counts.add)
    else:
        run = cli.run
        totals = {"run_s": 0.0, "ticks": 0}

        def timed_run(*args, **kwargs):
            start = time.perf_counter()
            trace = run(*args, **kwargs)
            totals["run_s"] += time.perf_counter() - start
            totals["ticks"] += trace.ticks
            return trace

        cli.run = timed_run

    ref_before = reference_kernel_s()
    start = time.perf_counter()
    try:
        code = cli.main(spec["argv"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    result["wall_s"] = time.perf_counter() - start
    sys.stdout.flush()
    result["ref_s"] = (ref_before + reference_kernel_s()) / 2

    if spec["traced"]:
        spans = tracer.report()
        result["spans"] = spans
        result["under_run_self_s"] = tracer.under_run_self_s
        result["counts"] = counts.report(spans["contracts.Monitor.observe"]["calls"])
    else:
        result.update(totals)
    result["peak_rss_mb"] = _peak_rss_mb()
    return code, result


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    sys.path.insert(0, spec["src"])
    if spec["mode"] == "setup":
        code, result = 0, measure_setup(spec)
    else:
        code, result = measure_verb(spec)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
