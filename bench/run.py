"""Benchmark of the tribound CLI: end to end, and layer by layer when traced.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one workload verb run by `tribound.cli.main(argv)` in a
fresh child process (bench/child.py). Load is a closed loop with one client:
the next child starts only after the previous one has ended, until
`--seconds` have passed. The workload seed is passed to the verb as
`--seed`.

With `--trace 0` each untraced verb follows one set-up child, with at least
SETUP_SAMPLES set-up samples in all, and the run reports the end-to-end
metrics, in nominal seconds: each time is scaled by REF_NOMINAL_S over the
time of a reference kernel the child runs next to it (see README.md), which
cancels most of a shared machine's drift. With `--trace 1` it alternates
untraced and traced children and reports the per-layer metrics, the
tracing overhead and the error rate.

An operation fails when its exit code differs from the workload's expected
code, or when the sha256 of its stdout plus the files it wrote differs from
the digest most runs of the session share. Traced and untraced runs must
agree. The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; a fuller record, with the environment
and every sample, goes to bench/results/. Without the program's sources
beside the benchmark the run exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
RESULTS_DIR = BENCH_DIR / "results"
WORK_ROOT = BENCH_DIR / ".work"

SETUP_SAMPLES = 7
# Times are reported in nominal seconds: a time measured next to a run of
# the reference kernel (child.reference_kernel_s) is scaled by this over the
# kernel's time, which is about what the kernel takes on an idle 2-core VM.
REF_NOMINAL_S = 0.2
# Stop starting children after this long, so a run ends within 180 s.
DEADLINE_S = 150.0
CHILD_TIMEOUT_S = 170.0


@dataclass(frozen=True)
class Workload:
    """One CLI invocation; `scenario` and the argv's `--set` pairs give the
    scenario and config that set-up time is measured on."""

    argv: tuple[str, ...]
    expected_exit: int
    scenario: str
    writes_out: bool = False

    def overrides(self) -> dict:
        pairs = [self.argv[i + 1] for i, arg in enumerate(self.argv) if arg == "--set"]
        result = {}
        for pair in pairs:
            key, _, raw = pair.partition("=")
            result[key] = json.loads(raw)
        return result


# Why each workload exists, and which layers it should move, is in README.md.
WORKLOADS = {
    "baseline": Workload(
        argv=("simulate", "--scenario", "baseline", "--duration", "100"),
        expected_exit=0,
        scenario="baseline",
        writes_out=True,
    ),
    "growth": Workload(
        argv=("counterexample", "delta_zero", "--duration", "400"),
        expected_exit=2,
        scenario="delta_zero",
    ),
    "swarm": Workload(
        argv=(
            "verify", "--scenario", "baseline", "--seeds", "2", "--duration", "10",
            "--set", "n_agents=300", "--set", "tau2=0.2", "--set", "tau3=2.0",
        ),
        expected_exit=0,
        scenario="baseline",
    ),
}


class HarnessError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def _run_child(spec: dict, timeout: float) -> tuple[int, bytes, dict | None]:
    result_path = Path(spec["result"])
    result_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(spec)],
            stdin=subprocess.DEVNULL,
            capture_output=True,
            timeout=timeout,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return -1, b"", None
    if proc.stderr:
        sys.stderr.buffer.write(proc.stderr)
    measured = json.loads(result_path.read_text()) if result_path.exists() else None
    return proc.returncode, proc.stdout, measured


def _digest(stdout: bytes, out_dir: Path | None) -> tuple[str, int]:
    """sha256 of stdout plus every file under out_dir, and the bytes written."""
    digest = hashlib.sha256(stdout)
    written = 0
    if out_dir is not None and out_dir.exists():
        for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
            digest.update(b"\0" + str(path.relative_to(out_dir)).encode() + b"\0")
            with path.open("rb") as fh:
                while chunk := fh.read(1 << 20):
                    written += len(chunk)
                    digest.update(chunk)
    return digest.hexdigest(), written


class Session:
    """Children of one benchmark run, and what each one produced."""

    def __init__(self, workload: Workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.start = time.perf_counter()
        self.samples: list[dict] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def _spec(self, **fields) -> dict:
        return {"src": str(SRC), "result": str(self.work / "child.json"), **fields}

    def setup(self) -> dict:
        spec = self._spec(
            mode="setup",
            scenario=self.workload.scenario,
            overrides=self.workload.overrides(),
            seed=self.seed,
        )
        code, _, measured = _run_child(spec, CHILD_TIMEOUT_S)
        if code != 0 or measured is None:
            raise HarnessError(f"set-up child exited with status {code}")
        return measured

    def verb(self, traced: bool) -> dict:
        out_dir = self.work / "out" if self.workload.writes_out else None
        argv = [*self.workload.argv, "--seed", str(self.seed)]
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)
            argv += ["--out", str(out_dir.relative_to(ROOT))]
        timeout = max(1.0, CHILD_TIMEOUT_S - self.elapsed())
        code, stdout, measured = _run_child(
            self._spec(mode="verb", argv=argv, traced=traced), timeout
        )
        digest, written = _digest(stdout, out_dir)
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)
        sample = {
            "traced": traced,
            "exit": code,
            "digest": digest,
            "out_mb": written / 1e6,
            "measured": measured,
        }
        self.samples.append(sample)
        return sample

    def loop(self, seconds: float, traced: bool, setup_samples: int) -> list[dict]:
        """Closed loop: one child at a time until `seconds` have passed.

        Untraced, each verb follows one set-up child, topped up to
        `setup_samples` at the end; spreading set-up samples over the run
        steadies their median. Traced, untraced and traced verbs alternate.
        Returns the set-up samples.
        """
        setups: list[dict] = []
        if not traced:
            self.setup()  # warm-up: byte-compiles the sources once
        begin = self.elapsed()
        while True:
            if not traced:
                setups.append(self.setup())
            self.verb(traced=False)
            if traced:
                self.verb(traced=True)
            spent = self.elapsed() - begin
            if spent >= seconds or self.elapsed() >= DEADLINE_S:
                break
        while not traced and len(setups) < setup_samples:
            setups.append(self.setup())
        return setups

    def judge(self) -> int:
        """Mark each sample failed or not; return the number failed."""
        majority, _ = Counter(s["digest"] for s in self.samples).most_common(1)[0]
        for sample in self.samples:
            reasons = []
            if sample["exit"] != self.workload.expected_exit:
                reasons.append(
                    f"exit {sample['exit']}, expected {self.workload.expected_exit}"
                )
            if sample["digest"] != majority:
                reasons.append("output digest differs from the session's majority")
            if sample["measured"] is None:
                reasons.append("no measurements written")
            elif sample["traced"] and not _self_times_sum(sample["measured"]):
                reasons.append("self times under engine.run do not sum to its total")
            sample["failures"] = reasons
        return sum(bool(s["failures"]) for s in self.samples)


def _self_times_sum(measured: dict) -> bool:
    total = measured["spans"]["engine.run"]["total_s"]
    return abs(measured["under_run_self_s"] - total) <= 1e-9 * max(1.0, total)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _passed(samples: list[dict], traced: bool) -> list[dict]:
    return [s for s in samples if s["traced"] == traced and not s["failures"]]


def _nominal(seconds: float, ref_s: float) -> float:
    """A time measured next to a reference kernel run, in nominal seconds."""
    return seconds * REF_NOMINAL_S / ref_s


def _wall_s(samples: list[dict]) -> float:
    return _median([
        _nominal(s["measured"]["wall_s"], s["measured"]["ref_s"]) for s in samples
    ])


def end_to_end_metrics(session: Session, setups: list[dict]) -> dict:
    runs = _passed(session.samples, traced=False)
    return {
        "wall_s": (_wall_s(runs), "s"),
        "sim_tick_us": (
            _median([
                _nominal(
                    1e6 * s["measured"]["run_s"] / s["measured"]["ticks"],
                    s["measured"]["ref_s"],
                )
                for s in runs
                if s["measured"]["ticks"]
            ]),
            "us",
        ),
        "setup_s": (_median([_nominal(m["setup_s"], m["ref_s"]) for m in setups]), "s"),
        "peak_rss_mb": (_median([s["measured"]["peak_rss_mb"] for s in runs]), "MB"),
    }


def raw_times(session: Session, setups: list[dict]) -> dict:
    """Medians in plain seconds, kept in the results file only."""
    runs = _passed(session.samples, traced=False)
    return {
        "wall_s": _median([s["measured"]["wall_s"] for s in runs]),
        "verb_ref_s": _median([s["measured"]["ref_s"] for s in runs]),
        "setup_s": _median([m["setup_s"] for m in setups]),
        "setup_ref_s": _median([m["ref_s"] for m in setups]),
    }


def per_layer_metrics(session: Session, failed: int) -> dict:
    traced = [s["measured"] for s in _passed(session.samples, traced=True)]
    metrics: dict = {}
    if traced:
        for name in traced[0]["spans"]:
            metrics[f"{name}.calls"] = (
                statistics.median_low([m["spans"][name]["calls"] for m in traced]),
                "count",
            )
            metrics[f"{name}.self_s"] = (
                _median([m["spans"][name]["self_s"] for m in traced]),
                "s",
            )
        for name, (_, unit) in traced[0]["counts"].items():
            metrics[name] = (
                statistics.median_low([m["counts"][name][0] for m in traced]),
                unit,
            )
    untraced_wall = _wall_s(_passed(session.samples, traced=False))
    traced_wall = _wall_s(_passed(session.samples, traced=True))
    overhead = traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    metrics["out_mb"] = (_median([s["out_mb"] for s in session.samples]), "MB")
    metrics["error_rate"] = (failed / len(session.samples), "ratio")
    return metrics


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(
        len(path.read_bytes().splitlines()) for path in sorted(SRC.rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "src_lines": src_lines,
    }


def run_workload(
    name: str,
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    setup_samples: int = SETUP_SAMPLES,
) -> dict:
    """Run one benchmark session and return its full record."""
    if not (SRC / "tribound" / "cli.py").is_file():
        raise HarnessError(f"no tribound sources under {SRC}")
    work = WORK_ROOT / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        session = Session(workload, seed, work)
        setups = session.loop(seconds, trace, setup_samples)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = session.judge()
    if trace:
        metrics = per_layer_metrics(session, failed)
    else:
        metrics = end_to_end_metrics(session, setups)
    return {
        "workload": name,
        "argv": [*workload.argv, "--seed", str(seed)],
        "expected_exit": workload.expected_exit,
        "trace": trace,
        "seconds": seconds,
        "environment": environment(seed),
        "setup_samples": setups,
        "raw_times": raw_times(session, setups),
        "samples": session.samples,
        "summary": {
            "correct": failed == 0,
            "attempted": len(session.samples),
            "failed": failed,
            "metrics": {
                key: {"value": value, "unit": unit}
                for key, (value, unit) in metrics.items()
            },
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run_workload(
            args.workload,
            WORKLOADS[args.workload],
            args.seed,
            args.seconds,
            bool(args.trace),
        )
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    RESULTS_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS_DIR / name).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
