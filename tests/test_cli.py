"""Exit codes of the command-line verbs, run in-process through main(argv)."""
import errno
import gc
import json
import os
import signal
import sys
import time
import tracemalloc
import warnings
import weakref
from collections import Counter
from pathlib import Path

import pytest

from tribound import SystemConfig, apply_overrides, bounds, cli, engine, run
from tribound.bounds import REFERENCE_TOTALS
from tribound.cli import CONFIRMED_EXIT, PASS_EXIT, UNEXPECTED_EXIT, main
from tribound.errors import TriboundError


def test_simulate_baseline_passes(tmp_path: Path, capsys):
    code = main(
        ["simulate", "--scenario", "baseline", "--duration", "10", "--out", str(tmp_path)]
    )
    assert code == PASS_EXIT == 0
    assert "verdict: all contracts held" in capsys.readouterr().out
    assert (tmp_path / "trace_baseline" / "step_norms.npy").is_file()


def test_counterexample_delta_zero_confirms(capsys):
    assert main(["counterexample", "delta_zero", "--duration", "20"]) == CONFIRMED_EXIT == 2
    assert "unbounded growth confirmed" in capsys.readouterr().out


@pytest.mark.parametrize("source", ["set", "config"])
def test_a_scenarios_own_overrides_win_over_set_and_config(
    source, tmp_path: Path, monkeypatch, capsys
):
    """delta_zero runs its own 10 agents at delta 0, whatever --set or
    --config gives those keys, and prints what it prints without them."""
    argv = ["counterexample", "delta_zero", "--duration", "20"]
    assert main(argv) == CONFIRMED_EXIT
    alone = capsys.readouterr().out
    if source == "set":
        argv += ["--set", "n_agents=1", "--set", "delta=-0.5"]
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n_agents": 1, "delta": -0.5}))
        argv += ["--config", str(path)]
    configs = []

    def spy(*args, **kwargs):
        trace = engine.run(*args, **kwargs)
        configs.append(trace.config)
        return trace

    monkeypatch.setattr(cli, "run", spy)
    assert main(argv) == CONFIRMED_EXIT
    assert capsys.readouterr().out == alone
    [config] = configs
    assert (config.n_agents, config.delta) == (10, 0.0)


def test_verify_two_seeds_passes(capsys):
    assert main(["verify", "--seeds", "2", "--duration", "10"]) == PASS_EXIT
    assert "replayed 2 seeds" in capsys.readouterr().out


def _cpus(monkeypatch, count: int) -> None:
    """Let verify and the runs see `count` CPUs in their affinity mask; a
    process that sets its mask then sees the mask it set."""
    mask = set(range(count))

    def setaffinity(pid, cpus):
        mask.clear()
        mask.update(cpus)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(mask))
    monkeypatch.setattr(os, "sched_setaffinity", setaffinity)


def test_verify_frees_each_trace_before_the_next_seed_runs(monkeypatch, capsys):
    """With the cycle collector off, each seed's trace is gone, freed by
    reference counts alone, before the next seed's run starts. One CPU, so
    every seed runs in this process."""
    _cpus(monkeypatch, 1)
    traces = []

    def tracked(*args, _run=cli.run, **kwargs):
        assert [ref for ref in traces if ref() is not None] == []
        trace = _run(*args, **kwargs)
        traces.append(weakref.ref(trace))
        return trace

    monkeypatch.setattr(cli, "run", tracked)
    gc.disable()
    try:
        main(["verify", "--seeds", "3", "--duration", "4"])
    finally:
        gc.enable()
    assert len(traces) == 3


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _counted_forks(monkeypatch, fail_at: int | None = None) -> list[str]:
    """Record each os.fork call in this process by the function that made
    it: _fork_share forks a seed process, _fork_drawer a draw process. The
    call numbered fail_at raises EAGAIN instead."""
    forks: list[str] = []

    def fork(_fork=os.fork):
        forks.append(sys._getframe(1).f_code.co_name)
        if len(forks) == fail_at:
            raise BlockingIOError(errno.EAGAIN, "planted")
        return _fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def test_verify_prints_and_writes_the_same_at_any_cpu_count(
    tmp_path: Path, monkeypatch, capsys
):
    """Forked seeds are merged in seed order: 1, 2 and 3 CPUs give the same
    stdout, verify.json and exit code, from 0, 1 and 1 forked seed
    processes. At 2 or 3 CPUs this process runs its seeds on the first CPU
    of the mask and the forked one on the second, so neither forks a draw
    process, and this process's mask is its own again afterwards."""
    log = tmp_path / "log"

    def logged(line: str) -> None:
        # Appended to from every process.
        with log.open("a") as fh:
            fh.write(line + "\n")

    def fork(_fork=os.fork):
        logged(sys._getframe(1).f_code.co_name)
        return _fork()

    def placed(*args, _run=cli.run, **kwargs):
        logged("run@" + ",".join(map(str, sorted(os.sched_getaffinity(0)))))
        return _run(*args, **kwargs)

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(cli, "run", placed)
    split = {"_fork_share": 1, "run@0": 3, "run@1": 2}
    results = []
    for cpus, logs in ((1, {"run@0": 5}), (2, split), (3, split)):
        _cpus(monkeypatch, cpus)
        out_dir = tmp_path / str(cpus)
        log.write_text("")
        code = main(["verify", "--seeds", "5", "--duration", "4", "--out", str(out_dir)])
        results.append((code, capsys.readouterr(), (out_dir / "verify.json").read_text()))
        assert Counter(log.read_text().split()) == logs
        assert os.sched_getaffinity(0) == set(range(cpus))
        _no_child_left()
    assert "replayed 5 seeds" in results[0][1].out
    assert results[1:] == [results[0]] * 2


def test_a_share_whose_fork_fails_runs_in_this_process(
    tmp_path: Path, monkeypatch, capsys
):
    """At 2 CPUs the only fork fails, as it does with no process to spare:
    every seed runs in this process, the output is the one-CPU run's, the
    failed fork's pipe is closed and no forked process is left."""
    argv = ["verify", "--seeds", "5", "--duration", "4", "--out"]
    _cpus(monkeypatch, 1)
    serial = (main([*argv, str(tmp_path / "1")]), capsys.readouterr())
    pipe_fds = []

    def pipe(_pipe=os.pipe):
        fds = _pipe()
        pipe_fds.extend(fds)
        return fds

    monkeypatch.setattr(os, "pipe", pipe)
    forks = _counted_forks(monkeypatch, fail_at=1)
    _cpus(monkeypatch, 2)
    assert (main([*argv, str(tmp_path / "2")]), capsys.readouterr()) == serial
    assert (tmp_path / "2" / "verify.json").read_text() == (
        tmp_path / "1" / "verify.json"
    ).read_text()
    assert (len(forks), len(pipe_fds)) == (1, 2)
    for fd in pipe_fds:
        with pytest.raises(OSError):
            os.fstat(fd)
    _no_child_left()


@pytest.mark.parametrize("refused", ["cli", "seed"])
def test_verify_with_a_pin_the_kernel_refuses_prints_the_same(
    refused, tmp_path: Path, monkeypatch, capsys
):
    """At 2 CPUs a pin raises EINVAL, as when a CPU has left the cpuset,
    and leaves its process on the mask it had. Refused in this process,
    every seed runs here unpinned and each run forks its draw process;
    refused in the seed process, that process runs its seeds on this
    process's one CPU. Either way verify prints, writes and exits as at
    one CPU, no process is left and this process's mask is its own."""
    argv = ["verify", "--seeds", "3", "--duration", "4", "--out"]
    _cpus(monkeypatch, 1)
    serial = (main([*argv, str(tmp_path / "1")]), capsys.readouterr())
    _cpus(monkeypatch, 2)
    parent = os.getpid()

    def setaffinity(pid, cpus, _set=os.sched_setaffinity):
        if (os.getpid() == parent) == (refused == "cli"):
            raise OSError(errno.EINVAL, "planted")
        _set(pid, cpus)

    monkeypatch.setattr(os, "sched_setaffinity", setaffinity)
    forks = _counted_forks(monkeypatch)
    assert (main([*argv, str(tmp_path / "2")]), capsys.readouterr()) == serial
    assert (tmp_path / "2" / "verify.json").read_text() == (
        tmp_path / "1" / "verify.json"
    ).read_text()
    assert forks == (["_fork_drawer"] * 3 if refused == "cli" else ["_fork_share"])
    _no_child_left()
    assert os.sched_getaffinity(0) == {0, 1}


def test_verify_without_an_affinity_mask_runs_in_this_process(monkeypatch, capsys):
    """A platform with no os.sched_getaffinity forks nothing and prints what
    the one-CPU run prints."""
    argv = ["verify", "--seeds", "3", "--duration", "4"]
    _cpus(monkeypatch, 1)
    serial = (main(argv), capsys.readouterr())

    def fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.delattr(os, "sched_getaffinity")
    assert (main(argv), capsys.readouterr()) == serial


@pytest.mark.parametrize(
    "planted",
    [(3,), (1, 2), (2, 3), (0,)],
    ids=["forked", "forked-first", "own-first", "own-at-once"],
)
def test_a_seed_error_surfaces_as_in_a_serial_run(monkeypatch, capsys, planted):
    """At 2 CPUs the odd seeds run in a forked process. The lowest planted
    seed's error is the one printed, with the serial run's exit code, and no
    forked process is left, even one still running when the error surfaced."""

    def failing(*args, seed, _run=cli.run, **kwargs):
        if seed in planted:
            raise TriboundError(f"planted at seed {seed}")
        return _run(*args, seed=seed, **kwargs)

    monkeypatch.setattr(cli, "run", failing)
    argv = ["verify", "--seeds", "5", "--seed", "0", "--duration", "4"]
    results = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        results.append((main(argv), capsys.readouterr()))
        _no_child_left()
    assert results[0] == (UNEXPECTED_EXIT, ("", f"error: planted at seed {planted[0]}\n"))
    assert results[1] == results[0]


def test_a_forked_process_that_crashes_is_an_error_of_its_seed(monkeypatch, capsys):
    """A forked process that ends on an exception other than a TriboundError
    sends no outcome for its seed; the CLI names that seed and exits 1."""
    parent = os.getpid()

    def crashing(*args, seed, _run=cli.run, **kwargs):
        if os.getpid() != parent and seed == 3:
            raise RuntimeError("planted")
        return _run(*args, seed=seed, **kwargs)

    monkeypatch.setattr(cli, "run", crashing)
    _cpus(monkeypatch, 2)
    argv = ["verify", "--seeds", "5", "--seed", "0", "--duration", "4"]
    assert main(argv) == UNEXPECTED_EXIT
    assert capsys.readouterr().err == (
        "error: the process replaying seed 3 ended without its outcome\n"
    )
    _no_child_left()


def test_an_interrupt_ends_every_forked_process(monkeypatch, capsys):
    """An interrupt in this process, while the forked one runs its seed,
    ends and reaps that process before it reaches the caller."""
    parent = os.getpid()

    def interrupted(*args, _run=cli.run, **kwargs):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return _run(*args, **kwargs)

    monkeypatch.setattr(cli, "run", interrupted)
    _cpus(monkeypatch, 2)
    with pytest.raises(KeyboardInterrupt):
        main(["verify", "--seeds", "4", "--duration", "4"])
    _no_child_left()


def test_a_seed_error_kills_the_forked_process_without_waiting(monkeypatch, capsys):
    """When this process's seed 0 raises, the forked process, asleep in seed
    1, is killed, not waited for: main returns well inside the sleep, and
    the reaped process ended on SIGKILL."""
    parent = os.getpid()

    def stalled(*args, seed, _run=cli.run, **kwargs):
        if os.getpid() != parent:
            time.sleep(30)
        elif seed == 0:
            raise TriboundError("planted at seed 0")
        return _run(*args, seed=seed, **kwargs)

    statuses = []

    def waitpid(pid, options, _waitpid=os.waitpid):
        reaped = _waitpid(pid, options)
        statuses.append(reaped[1])
        return reaped

    monkeypatch.setattr(cli, "run", stalled)
    monkeypatch.setattr(os, "waitpid", waitpid)
    _cpus(monkeypatch, 2)
    start = time.monotonic()
    assert main(["verify", "--seeds", "2", "--duration", "4"]) == UNEXPECTED_EXIT
    assert time.monotonic() - start < 10
    assert capsys.readouterr().err == "error: planted at seed 0\n"
    assert [os.WIFSIGNALED(status) and os.WTERMSIG(status) for status in statuses] == [
        signal.SIGKILL
    ]
    _no_child_left()


def test_verify_of_one_seed_forks_only_its_draw_process(monkeypatch, capsys):
    """One seed runs in this process, unpinned: at 2 CPUs its run forks one
    draw process, and verify forks no seed process."""
    forks = _counted_forks(monkeypatch)
    _cpus(monkeypatch, 2)
    assert main(["verify", "--seeds", "1", "--duration", "10"]) == PASS_EXIT
    assert "replayed 1 seeds" in capsys.readouterr().out
    assert forks == ["_fork_drawer"]
    assert os.sched_getaffinity(0) == {0, 1}
    _no_child_left()


# A shape whose per-tick streams (3,000 ticks, 300 agents' clamp flags)
# outweigh the arrays a run works in.
_TRACE_HEAVY = [
    "--duration", "60", "--set", "n_agents=300", "--set", "weight_dim=2",
    "--set", "embed_dim=1", "--set", "n_actions=2",
]


def test_verify_peaks_at_the_memory_of_one_seed(monkeypatch, capsys):
    """Three seeds allocate at their peak within 10% of one seed, though one
    seed's per-tick streams alone are more than 10% of that peak. One CPU,
    so every seed runs here and draws into arrays tracemalloc traces; the
    slots a run shares with a draw process are mapped, which it does not."""
    _cpus(monkeypatch, 1)
    peaks = []
    for seeds in ("1", "3"):
        tracemalloc.start()
        try:
            main(["verify", "--seeds", seeds, *_TRACE_HEAVY])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    config = apply_overrides(
        SystemConfig(), {"n_agents": 300, "weight_dim": 2, "embed_dim": 1, "n_actions": 2}
    )
    trace = run("baseline", config=config, duration=60.0)
    streams = (trace.step_norms, trace.clamped, trace.max_weight_norm, trace.tick_policy_tv)
    assert sum(stream.nbytes for stream in streams) > 0.1 * peaks[0]
    assert peaks[1] <= 1.1 * peaks[0]


def test_malformed_override_fails_without_traceback(capsys):
    assert main(["simulate", "--duration", "1", "--set", "n_agents"]) == UNEXPECTED_EXIT == 1
    err = capsys.readouterr().err
    assert err.startswith("error: override 'n_agents' is not of the form key=value")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--set", "meta_dim=1000000000000000"],
        ["simulate", "--duration", "0", "--set", "weight_dim=1000000000000000"],
    ],
    ids=["bounds_meta_dim", "simulate_weight_dim"],
)
def test_a_size_numpy_cannot_allocate_fails_without_traceback(argv, capsys):
    # Above the 47-bit address space: numpy refuses it before touching memory.
    assert main(argv) == UNEXPECTED_EXIT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Unable to allocate" in err
    assert "Traceback" not in err


def test_a_tick_count_that_overflows_fails_without_traceback(capsys):
    argv = ["simulate", "--set", "tau1=1e-300", "--duration", "1e10"]
    assert main(argv) == UNEXPECTED_EXIT
    err = capsys.readouterr().err
    # the whole of stderr: no traceback
    assert err == "error: duration 10000000000.0 / tau1 1e-300: not a tick count\n"


def test_bounds_passes(capsys):
    assert main(["bounds"]) == PASS_EXIT
    out = capsys.readouterr().out
    assert out.startswith("closed-form quantities at the configured operating point")
    assert "fast-rate stability threshold" in out


def test_bounds_with_huge_gain_ceiling_reports_instead_of_overflowing(capsys):
    # (peak drive * sigma_max) ** 2 would overflow; the threshold rounds to 0.
    assert main(["bounds", "--set", "sigma_max=1e200"]) == PASS_EXIT
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    line = next(
        row for row in captured.out.splitlines()
        if row.startswith("fast-rate stability threshold")
    )
    assert line.split()[-1] == "0"


def test_conditions_passes(capsys):
    assert main(["conditions"]) == PASS_EXIT
    assert capsys.readouterr().out.startswith("start-time admissibility conditions")


# A rule with no drive: every gain but the decay is zero.
_DRIVE_FREE = ["--set", "alpha=0", "--set", "beta=0", "--set", "gamma_h=0"]


def test_conditions_of_a_drive_free_rule_pass_at_an_infinite_threshold(capsys):
    assert main(["conditions", *_DRIVE_FREE]) == PASS_EXIT
    s1 = next(row for row in capsys.readouterr().out.splitlines() if row.startswith("S1 "))
    assert s1.split()[1:4] == ["pass", "0.001", "inf"]


def test_bounds_of_a_drive_free_rule_pass(capsys):
    assert main(["bounds", *_DRIVE_FREE]) == PASS_EXIT
    line = next(
        row for row in capsys.readouterr().out.splitlines()
        if row.startswith("fast-rate stability threshold")
    )
    assert line.split()[-1] == "inf"


def test_sensitivity_passes(capsys):
    assert main(["sensitivity"]) == PASS_EXIT
    assert "exact sweep of the total bound" in capsys.readouterr().out


def test_sensitivity_derives_the_base_bound_once(monkeypatch, capsys):
    """One total_bound for the operating point, shared by the header and the
    sweep, and one for each of the reference table's cells."""
    calls = []
    for module in (cli, bounds):
        def counted(*args, _total_bound=module.total_bound, _name=module.__name__, **kwargs):
            calls.append(_name)
            return _total_bound(*args, **kwargs)

        monkeypatch.setattr(module, "total_bound", counted)
    assert main(["sensitivity"]) == PASS_EXIT
    assert calls.count("tribound.cli") == 1
    assert calls.count("tribound.bounds") == len(REFERENCE_TOTALS)


def test_counterexample_no_clamp_confirms(capsys):
    assert main(["counterexample", "no_clamp", "--duration", "10"]) == CONFIRMED_EXIT
    assert "per-tick cap violated as expected" in capsys.readouterr().out


def test_counterexample_slow_marl_confirms(capsys):
    assert main(["counterexample", "slow_marl", "--duration", "25"]) == CONFIRMED_EXIT
    assert "guarantee degrades as expected" in capsys.readouterr().out


@pytest.mark.parametrize(
    "extra",
    [
        ["--duration", "25", "--set", "enforce_clamp=false"],
        ["--duration", "0"],
        ["--duration", "10"],
    ],
    ids=["contract_failures", "no_tick", "no_cycle"],
)
def test_counterexample_slow_marl_needs_a_clean_cycle(capsys, extra):
    """The degraded ceiling is closed form; the verdict also says the
    contracts hold per cycle, so a run with contract failures or without a
    complete coordination cycle does not confirm it."""
    assert main(["counterexample", "slow_marl", *extra]) == UNEXPECTED_EXIT
    out = capsys.readouterr().out
    assert "verdict: expected degradation NOT reproduced" in out


def test_counterexample_crafted_margin_breach_confirms(capsys):
    argv = ["counterexample", "crafted_margin_breach", "--duration", "20"]
    assert main(argv) == CONFIRMED_EXIT
    assert "margin alarm fired as expected" in capsys.readouterr().out


def test_verify_exits_one_on_a_contract_breach(tmp_path: Path, capsys):
    """Without the clamp, NP-C1 fails while every ceiling still holds; the
    weight norms settle, so this is not the start-up transient."""
    argv = [
        "verify", "--duration", "10", "--seeds", "1",
        "--set", "enforce_clamp=false", "--out", str(tmp_path),
    ]
    assert main(argv) == UNEXPECTED_EXIT
    out = capsys.readouterr().out
    assert "verdict: at least one seed breached a ceiling or contract" in out
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["fail_total"] > 0
    assert out.startswith(
        f"replayed 1 seeds of scenario 'baseline'; {report['fail_total']} contract failures"
    )
    accumulation = report["checks"]["non_accumulation"]
    assert (accumulation["pass"], accumulation["fail"]) == (1, 0)
    # The breach is the contract failures alone: every ceiling holds.
    assert all(check["fail"] == 0 for check in report["checks"].values())


def _assert_clean_error(capsys, start: str) -> None:
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {start}")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["counterexample", "delta_zer0"], "argument name: invalid choice"),
        (["simulate", "--scenario", "nope"], "argument --scenario: invalid choice"),
        (["verify", "--seeds", "x"], "argument --seeds: invalid int value"),
    ],
)
def test_a_malformed_command_line_is_unexpected_not_confirmed(argv, message, capsys):
    """argparse's own exit code, 2, would read as a confirmed violation."""
    assert main(argv) == UNEXPECTED_EXIT
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.err.startswith("usage: tribound")
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--seeds", "0"], "--seeds must be at least 1"),
        # Not JSON: the value reaches the override parser as a raw string.
        (["simulate", "--set", "graph_topology=torus"],
         "graph_topology must be 'ring' or 'complete'"),
        # No negative decay, so no finite weight bound: the stable-regime
        # check fails before a bound or sweep cell is derived.
        (["bounds", "--set", "delta=0"],
         "stationary radius requires a negative decay coefficient"),
        (["sensitivity", "--set", "delta=0"],
         "stationary radius requires a negative decay coefficient"),
    ],
)
def test_an_invalid_argument_value_fails_without_traceback(argv, message, capsys):
    assert main(argv) == UNEXPECTED_EXIT
    _assert_clean_error(capsys, message)


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["simulate", "--duration", "0", "--set", "eta1=1e-6"], UNEXPECTED_EXIT),
        (["verify", "--seeds", "2", "--duration", "0", "--set", "eta1=1e-6"],
         UNEXPECTED_EXIT),
        (["counterexample", "slow_marl", "--duration", "0", "--set", "eta1=1e-6"],
         UNEXPECTED_EXIT),
        # eta2=1.5e-5 keeps the configured rates ordered; the sweep's eta3 x 2
        # cell (2e-5) breaks the order.
        (["sensitivity", "--set", "eta2=1.5e-5"], PASS_EXIT),
        (["conditions", "--set", "eta1=1e-6"], UNEXPECTED_EXIT),
    ],
    ids=["simulate", "verify", "counterexample_slow_marl", "sensitivity", "conditions"],
)
def test_unordered_rates_warn_in_no_verb(argv, exit_code, capsys):
    """Unordered rates are reported only by the rate_order row of
    conditions, never as a warning, even under the "always" filter. Only
    UserWarnings count: os.fork may raise a DeprecationWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == exit_code
    assert [w for w in caught if issubclass(w.category, UserWarning)] == []
    if argv[0] == "conditions":
        row = _line(capsys.readouterr().out, "rate_order ")
        assert row.split()[1:4] == ["fail", "100", "1"]


def test_adjacent_rates_print_their_ratio_apart_from_the_threshold(capsys):
    """eta2 at the float just under eta1 puts eta2/eta1 just under 1, which
    ten significant digits would print as the threshold; the row prints both
    at round-trip precision instead."""
    assert main(["conditions", "--set", "eta2=0.0009999999999999998"]) == PASS_EXIT
    row = _line(capsys.readouterr().out, "rate_order ")
    assert row.split()[1:4] == ["pass", "0.9999999999999998", "1.0"]


def test_a_simulate_validates_its_config_once(monkeypatch, capsys):
    """The CLI builds the default config, then its --set override; a run
    that overrides nothing reuses that config and builds none of its own."""
    built = []

    def counted(self, _check=SystemConfig.__post_init__):
        built.append(self.eta1)
        _check(self)

    monkeypatch.setattr(SystemConfig, "__post_init__", counted)
    main(["simulate", "--duration", "0", "--set", "eta1=1e-6"])
    assert built == [1e-3, 1e-6]


def test_a_sweep_cell_outside_the_valid_range_fails_without_traceback(capsys):
    """Doubling lip_phi=1e308 overflows to inf, which no config holds."""
    assert main(["sensitivity", "--set", "lip_phi=1e308"]) == UNEXPECTED_EXIT
    err = capsys.readouterr().err
    assert err == "error: lip_phi must be a positive finite real\n"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == PASS_EXIT
    assert capsys.readouterr().out.startswith("usage: tribound")


def test_missing_config_file_fails_without_traceback(tmp_path: Path, capsys):
    path = tmp_path / "absent.json"
    assert main(["bounds", "--config", str(path)]) == UNEXPECTED_EXIT
    _assert_clean_error(capsys, f"cannot read config file {str(path)!r}")


def test_directory_as_config_fails_without_traceback(tmp_path: Path, capsys):
    assert main(["bounds", "--config", str(tmp_path)]) == UNEXPECTED_EXIT
    _assert_clean_error(capsys, f"cannot read config file {str(tmp_path)!r}")


def test_non_utf8_config_fails_without_traceback(tmp_path: Path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"graph_topology": "r\xe9ng"}')
    assert main(["bounds", "--config", str(path)]) == UNEXPECTED_EXIT
    _assert_clean_error(capsys, f"config file {str(path)!r} is not UTF-8 text")


def test_bounds_rejects_non_integer_swarm_sizes(capsys):
    for value in ("abc", "10,x"):
        assert main(["bounds", "--n", value]) == UNEXPECTED_EXIT
        _assert_clean_error(
            capsys, f"--n expects comma-separated integers, got {value!r}"
        )


def test_bounds_rejects_an_empty_swarm_size_list(capsys):
    for value in (",", " , "):
        assert main(["bounds", "--n", value]) == UNEXPECTED_EXIT
        _assert_clean_error(capsys, f"--n names no swarm size, got {value!r}")


def test_simulate_without_ticks_has_no_evidence(capsys):
    assert main(["simulate", "--duration", "0"]) == UNEXPECTED_EXIT
    assert "verdict: no evidence" in capsys.readouterr().out


def test_verify_without_ticks_has_no_evidence(capsys):
    assert main(["verify", "--seeds", "1", "--duration", "0"]) == UNEXPECTED_EXIT
    assert "verdict: no evidence" in capsys.readouterr().out


def test_a_tick_count_numpy_cannot_allocate_fails_without_traceback(capsys):
    assert main(["simulate", "--set", "tau1=1e-300"]) == UNEXPECTED_EXIT
    _assert_clean_error(capsys, "1e+302 ticks x 30 agents: ")


@pytest.mark.parametrize("verb", [["bounds"], ["simulate", "--duration", "0"]])
def test_a_period_ratio_beyond_the_float_range_fails_without_traceback(capsys, verb):
    # tau2 / tau1 = 1e310 overflows to inf.
    overrides = ["--set", "tau1=1e-300", "--set", "tau2=1e10", "--set", "tau3=1e11"]
    assert main([*verb, *overrides]) == UNEXPECTED_EXIT
    _assert_clean_error(capsys, "period ratio tau2 / tau1 is beyond the float range")


def test_a_step_above_a_tiny_cap_is_a_contract_failure(capsys):
    """Unclamped steps of about 1.5e-15 break a 1e-15 cap: NP-C1 fails, so
    no_clamp confirms its step violation."""
    overrides = [
        "--set", "delta_np=1e-15", "--set", "eta1=1e-14",
        "--set", "eta2=1e-15", "--set", "eta3=1e-16",
    ]
    argv = ["simulate", "--scenario", "no_clamp", "--duration", "2", *overrides]
    assert main(argv) == CONFIRMED_EXIT
    out = capsys.readouterr().out
    assert _line(out, "contract failures").split()[-1] == "45"
    assert "verdict: expected outcome (step_violation) confirmed" in out


def test_an_embedding_error_cap_near_rounding_holds(capsys):
    """At eps_gnn=1e-15 the rounding of ideal + error is of the cap's
    size; the injected error still stays within it, so GNN-C1 holds."""
    argv = ["simulate", "--duration", "10", "--set", "eps_gnn=1e-15"]
    assert main(argv) == PASS_EXIT
    assert _line(capsys.readouterr().out, "contract failures").split()[-1] == "0"


def test_verify_exits_one_when_a_run_halts(capsys):
    """The trust region cannot fit a cap of 1e-300 and halts the run at
    t=2.8; simulate and verify both report that as unexpected."""
    overrides = ["--set", "delta_pi=1e-300", "--set", "tau2=0.2", "--set", "tau3=2.0"]
    assert main(["simulate", "--duration", "4", *overrides]) == UNEXPECTED_EXIT
    assert "halted early           yes" in capsys.readouterr().out
    assert main(["verify", "--seeds", "1", "--duration", "4", *overrides]) == UNEXPECTED_EXIT
    assert "verdict: at least one seed breached" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, exit_code, replays",
    [
        (["counterexample", "delta_zero", "--duration", "20"], CONFIRMED_EXIT, 1),
        (["simulate", "--scenario", "delta_zero", "--duration", "20"], CONFIRMED_EXIT, 1),
        (
            ["verify", "--scenario", "delta_zero", "--seeds", "2", "--duration", "20"],
            CONFIRMED_EXIT,
            2,
        ),
    ],
    ids=["counterexample", "simulate", "verify"],
)
def test_each_run_verb_replays_each_trace_once(monkeypatch, argv, exit_code, replays):
    """One CPU, so a verify replays every seed in this process."""
    _cpus(monkeypatch, 1)
    calls = []
    for module in (cli, engine):
        def counted(*args, _verify=module.verify, **kwargs):
            calls.append(1)
            return _verify(*args, **kwargs)

        monkeypatch.setattr(module, "verify", counted)
    assert main(argv) == exit_code
    assert len(calls) == replays


def test_delta_zero_reads_the_last_tick_before_an_off_grid_horizon(tmp_path: Path, capsys):
    """At tau1=0.07 the 100 s horizon falls between ticks 1428 and 1429; the
    run ends at tick 1428, and the table reads that tick."""
    argv = ["counterexample", "delta_zero", "--duration", "100", "--set", "tau1=0.07"]
    assert main([*argv, "--out", str(tmp_path)]) == CONFIRMED_EXIT
    assert "Traceback" not in capsys.readouterr().err
    [row] = json.loads((tmp_path / "counterexample_delta_zero.json").read_text())["rows"]
    config = apply_overrides(SystemConfig(), {"tau1": 0.07})
    trace = run("delta_zero", config=config, duration=100.0)
    assert (row["t"], trace.ticks) == (100.0, 1428)
    assert row["measured"] == trace.max_weight_norm[-1]


def test_delta_zero_prints_no_row_for_a_horizon_the_run_never_reached(
    tmp_path: Path, capsys
):
    """A run of 99.9999999995 s ends at tick 4999, one short of the 100 s
    horizon's tick 5000, so the table holds no t=100 row."""
    argv = ["counterexample", "delta_zero", "--duration", "99.9999999995"]
    assert main([*argv, "--out", str(tmp_path)]) == CONFIRMED_EXIT
    out = capsys.readouterr().out
    assert "zero-decay growth" in out
    assert json.loads((tmp_path / "counterexample_delta_zero.json").read_text())["rows"] == []


def _line(out: str, start: str) -> str:
    return next(line for line in out.splitlines() if line.startswith(start))


@pytest.mark.parametrize(
    "argv, exit_code, undefined",
    [
        # the decomposition row's coordination share
        (["bounds"], PASS_EXIT, lambda out: [_line(out, "30 ").split()[5]]),
        # every elasticity
        (
            ["sensitivity"],
            PASS_EXIT,
            lambda out: [
                line.split()[3] for line in out.splitlines()
                if line.split(" ", 1)[0] in {name for name, _ in REFERENCE_TOTALS}
            ],
        ),
        (
            # No coordination cycle at --duration 0, so nothing to confirm.
            ["counterexample", "slow_marl", "--duration", "0"],
            UNEXPECTED_EXIT,
            lambda out: [_line(out, "degradation factor").split()[-1]],
        ),
    ],
    ids=["bounds", "sensitivity", "counterexample_slow_marl"],
)
def test_a_total_bound_of_zero_reports_its_ratios_as_undefined(
    tmp_path: Path, capsys, argv, exit_code, undefined
):
    """Every term of the total bound underflows to 0, so the coordination
    share, the elasticity and the degradation factor divide by 0: each is
    printed as "-"."""
    overrides = ["--set", "lip_pi=1e-300", "--set", "r_max=1e-300", "--set", "delta_np=1e-300"]
    assert main([*argv, *overrides, "--out", str(tmp_path)]) == exit_code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert set(undefined(captured.out)) == {"-"}
    if argv[0] == "sensitivity":
        rows = json.loads((tmp_path / "sensitivity.json").read_text())["rows"]
        assert {row["elasticity"] for row in rows} == {None}


def test_verify_starts_at_the_config_seed(tmp_path: Path, capsys):
    """--set seed=7 replays seed 7, as --seed 7 does; seed 0 differs."""
    outputs = []
    for extra in (["--set", "seed=7"], ["--seed", "7"], []):
        out_dir = tmp_path / str(len(outputs))
        argv = ["verify", "--seeds", "1", "--duration", "4", "--out", str(out_dir), *extra]
        code = main(argv)
        report = (out_dir / "verify.json").read_text()
        outputs.append((code, capsys.readouterr().out, report))
    assert outputs[0] == outputs[1]
    assert outputs[0] != outputs[2]


@pytest.mark.parametrize(
    "argv",
    [["bounds", "--out", "{file}"], ["simulate", "--duration", "0.1", "--out", "{file}/x"]],
    ids=["bounds", "simulate"],
)
def test_an_out_path_that_cannot_be_written_fails_without_traceback(
    tmp_path: Path, capsys, argv
):
    file = tmp_path / "file"
    file.write_text("")
    assert main([arg.format(file=file) for arg in argv]) == UNEXPECTED_EXIT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(file) in err
    assert "Traceback" not in err
