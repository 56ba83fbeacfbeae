"""Command-line interface.

Six verbs: bounds (closed-form report), conditions (start-time checks S1-S5
and rate_order), simulate (run a scenario and monitor it), sensitivity
(parameter sweep against the tabulated reference), counterexample
(regenerate a published failure mode and confirm it), and verify (replay
traces against the ceilings over many seeds, in up to two processes).

Exit status: 0 on a clean pass, 2 when a scenario that exists to
demonstrate a violation confirmed that violation, 1 on any unexpected
failure or on a clean run without a conclusive replay check. All output
is deterministic: identical invocations produce byte-identical text and
artifacts.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import pickle
import sys
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterator, Sequence

from .bounds import (
    REFERENCE_BASE_TOTAL,
    CheckResult,
    VerificationReport,
    elasticity_sweep,
    growth_envelope,
    total_bound,
    validate_conditions,
)
from .contracts import CONTRACT_IDS
from .engine import SCENARIOS, Scenario, confirm_expectation, get_scenario, run, verify
from .errors import TriboundError
from .model import SystemConfig, apply_overrides, config_file_items, initial_weights, row_norms
from .procs import affinity, fork_child, pin_to
from .trace import Trace, ticks_by

PASS_EXIT = 0
UNEXPECTED_EXIT = 1
CONFIRMED_EXIT = 2


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "-"
    if isinstance(value, float):
        if value != value:
            return "-"
        return f"{value:.10g}"
    return str(value)


def _pair(value: Any, bound: Any) -> list[Any]:
    """A measured value and its threshold, both at round-trip (repr)
    precision when they differ but _fmt prints them alike."""
    if isinstance(value, float) and isinstance(bound, float) and value != bound:
        if _fmt(value) == _fmt(bound) != "-":
            return [repr(float(value)), repr(float(bound))]
    return [value, bound]


def _table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip())
    return "\n".join(lines)


def _quantities(rows: Sequence[tuple[str, str | None, Any]]) -> dict[str, Any]:
    """Print a quantity table of (label, JSON key or None, value) rows;
    return the keyed values, the rows' JSON payload."""
    print(_table(["quantity", "value"], [[label, value] for label, _, value in rows]))
    return {key: value for _, key, value in rows if key is not None}


def _ratio(numerator: float, denominator: float) -> float | None:
    """numerator / denominator, or None (printed "-") when the denominator
    is 0, as when a bound underflows."""
    return None if denominator == 0.0 else numerator / denominator


def _status(passed: bool | None, undecided: str) -> str:
    """The status word of a check: pass, fail, or `undecided` for None."""
    return undecided if passed is None else ("pass" if passed else "fail")


def _parse_overrides(pairs: list[str] | None) -> dict[str, Any]:
    overrides: dict[str, Any] = {}
    for pair in pairs or []:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise TriboundError(f"override {pair!r} is not of the form key=value")
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    return overrides


def _build_config(args: argparse.Namespace, scenario: Scenario | None = None) -> SystemConfig:
    """The config --config and then --set give. With a scenario, one line on
    stderr first names each key they give that the scenario's own overrides
    fix to another value, and the value the scenario runs."""
    data = {} if args.config is None else config_file_items(args.config)
    config = apply_overrides(SystemConfig(), data)
    overrides = _parse_overrides(args.set)
    config = apply_overrides(config, overrides)
    fixed = [
        f"{key}={json.dumps(value)}"
        for key, value in (scenario.overrides if scenario else {}).items()
        if (key in data or key in overrides) and getattr(config, key) != value
    ]
    if fixed:
        print(f"note: scenario {scenario.name} runs {', '.join(fixed)} in place of the "
              "values given", file=sys.stderr)
    return config


def _write_json(out_dir: str, name: str, payload: Any) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument(
        "--set",
        metavar="KEY=VALUE",
        action="append",
        help="override one config key (repeatable)",
    )
    parser.add_argument("--out", metavar="DIR", help="write machine-readable artifacts")


def _add_run_options(parser: argparse.ArgumentParser, seed_help: str) -> None:
    parser.add_argument("--seed", type=int, help=seed_help)
    parser.add_argument("--duration", type=float, help="run length in seconds")


def cmd_bounds(args: argparse.Namespace) -> int:
    config = _build_config(args)
    if args.n:
        try:
            n_values = [int(part) for part in args.n.split(",") if part.strip()]
        except ValueError:
            raise TriboundError(
                f"--n expects comma-separated integers, got {args.n!r}"
            ) from None
        if not n_values:
            raise TriboundError(f"--n names no swarm size, got {args.n!r}")
    else:
        n_values = [config.n_agents]
    report = total_bound(config)
    print("closed-form quantities at the configured operating point")
    _quantities(
        [
            ("stationary weight norm", None, report.w0),
            ("weight norm ceiling", None, report.w_max),
            ("fast-rate stability threshold", None, report.eta1_bar),
            ("intrinsic step bound", None, report.delta1_int),
            ("effective step bound", None, report.delta1_eff),
            ("ticks per coordination cycle", None, report.n12),
            ("effective horizon (cycles)", None, report.h_eff),
            ("per-cycle embedding drift ceiling", None, report.phi_max),
            ("cascading sensitivity", None, report.k_cascade),
            ("recommended max fast rate", None, report.eta1_max_rec),
            ("recommended max meta rate", None, report.eta3_max_rec),
        ]
    )
    rows = []
    per_n = []
    for n in n_values:
        rep = total_bound(apply_overrides(config, {"n_agents": n}))
        rows.append([
            n, rep.eps_hebb, rep.eps_coord, rep.eps_meta, rep.eps_total,
            _ratio(100.0 * rep.eps_coord, rep.eps_total), rep.j_star,
            100.0 * rep.relative_subopt,
        ])
        per_n.append({"n_agents": n, **dataclasses.asdict(rep)})
    print()
    print("suboptimality decomposition by swarm size")
    headers = ["n_agents", "fast_term", "coord_term", "meta_term", "total",
               "coord_share_pct", "ideal_return", "rel_subopt_pct"]
    print(_table(headers, rows))
    if args.out:
        _write_json(args.out, "bounds.json", {"base": dataclasses.asdict(report), "per_n": per_n})
    return PASS_EXIT


def cmd_conditions(args: argparse.Namespace) -> int:
    config = _build_config(args)
    report = validate_conditions(config)
    rows = [
        [c.check_id, _status(c.passed, "assumed"), *_pair(c.worst, c.bound), c.note]
        for c in report.checks
    ]
    print("start-time admissibility conditions")
    print(_table(["condition", "status", "measured", "threshold", "note"], rows))
    passed = report.all_passed
    if args.out:
        checks = [dataclasses.asdict(c) for c in report.checks]
        _write_json(args.out, "conditions.json", {"all_passed": passed, "checks": checks})
    return PASS_EXIT if passed else UNEXPECTED_EXIT


def _print_run_summary(trace: Trace) -> None:
    _quantities(
        [
            ("scenario", None, trace.scenario_name),
            ("seed", None, trace.config.seed),
            ("duration (s)", None, trace.duration),
            ("fast ticks", None, trace.ticks),
            ("coordination cycles", None, len(trace.marl_records)),
            ("meta cycles", None, len(trace.meta_records)),
            ("contract failures", None, trace.fail_count),
            ("margin alarms", None, trace.alarm_count),
            ("final max weight norm", None, _max_weight_norm(trace, trace.ticks)),
            ("halted early", None, trace.halt_reason is not None),
        ]
    )
    if trace.halt_reason:
        print(f"halt reason: {trace.halt_reason}")
    rows = []
    for cid in CONTRACT_IDS:
        v = trace.last_verdicts.get(cid)
        if v is None:
            rows.append([cid, "never evaluated", None, None, None, None])
        else:
            status = _status(v.passed, "inconclusive")
            rows.append([cid, status, v.measured, v.threshold, v.margin, v.alarm])
    print()
    print("latest contract verdicts")
    print(_table(["contract", "status", "measured", "threshold", "margin", "alarm"], rows))


def _print_replay(report: VerificationReport) -> None:
    rows = [
        [c.check_id, _status(c.passed, "skipped"), *_pair(c.worst, c.bound), c.note]
        for c in report.checks
    ]
    print()
    print("trace replay against the closed-form ceilings")
    print(_table(["check", "status", "worst", "ceiling", "note"], rows))


def _verdict(
    expected: str, confirmed: bool, conclusive: bool,
    held: str, breached: str, scope: str = "",
) -> int:
    """Print the verdict line; return the exit status. A run expected to
    hold passes only when confirmed clean with one conclusive replay check;
    a violation must be confirmed."""
    if expected != "none":
        outcome = "confirmed" if confirmed else "NOT reproduced"
        line = f"expected outcome ({expected}) {outcome}{scope}"
        status = CONFIRMED_EXIT if confirmed else UNEXPECTED_EXIT
    elif not confirmed:
        line, status = breached, UNEXPECTED_EXIT
    elif not conclusive:
        line, status = "no evidence: every replay check was skipped", UNEXPECTED_EXIT
    else:
        line, status = held, PASS_EXIT
    print(f"\nverdict: {line}")
    return status


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = get_scenario(args.scenario)
    config = _build_config(args, scenario)
    trace = run(scenario, config, args.seed, args.duration, keep_snapshots=bool(args.out))
    report = verify(trace)
    _print_run_summary(trace)
    _print_replay(report)
    if args.out:
        trace.save(Path(args.out) / f"trace_{scenario.name}")
    return _verdict(
        scenario.expected, confirm_expectation(trace, report, config),
        any(check.passed is not None for check in report.checks),
        "all contracts held and the trace fits the ceilings",
        "unexpected contract failure or ceiling breach",
    )


def cmd_sensitivity(args: argparse.Namespace) -> int:
    config = _build_config(args)
    base = total_bound(config)
    base_total = base.eps_total
    print(
        f"total bound at the operating point: {base_total:.10g} "
        f"(reference about {REFERENCE_BASE_TOTAL})"
    )
    print()
    sweep = elasticity_sweep(config, base)
    rows = [
        [row.parameter, row.factor, row.eps_total, row.elasticity, row.reference,
         100.0 * row.deviation]
        for row in sweep
    ]
    payload = [dataclasses.asdict(row) for row in sweep]
    print("exact sweep of the total bound against the tabulated reference")
    headers = ["parameter", "factor", "total", "elasticity", "reference", "deviation_pct"]
    print(_table(headers, rows))
    if args.out:
        _write_json(args.out, "sensitivity.json", {"base_total": base_total, "rows": payload})
    return PASS_EXIT


def _max_weight_norm(trace: Trace, ticks: int) -> float:
    """Largest agent weight norm after the given number of fast ticks."""
    if ticks:
        return float(trace.max_weight_norm[ticks - 1])
    return float(row_norms(initial_weights(trace.config)).max())


def _report_delta_zero(trace: Trace, config: SystemConfig) -> dict[str, Any]:
    """One row per horizon whose tick the run reached, read at that tick."""
    tau1 = trace.config.tau1
    rows = [
        {
            "t": t,
            "envelope": growth_envelope(trace.config, t),
            "measured": _max_weight_norm(trace, ticks_by(t, tau1)),
        }
        for t in (100.0, 1000.0, 10000.0)
        if ticks_by(t, tau1) <= trace.ticks
    ]
    print("zero-decay growth: measured max weight norm vs analytic envelope")
    print(
        _table(
            ["t_seconds", "envelope", "measured"],
            [[row["t"], row["envelope"], row["measured"]] for row in rows],
        )
    )
    return {"rows": rows, "fail_count": trace.fail_count}


def _report_no_clamp(trace: Trace, config: SystemConfig) -> dict[str, Any]:
    cfg = trace.config
    free = total_bound(cfg)
    clamped = total_bound(apply_overrides(cfg, {"enforce_clamp": True}))
    ratio = free.delta1_int / cfg.delta_np
    print("per-cycle embedding drift ceiling with the step clamp disabled")
    return _quantities(
        [
            ("ceiling with clamp", "phi_with_clamp", clamped.phi_max),
            ("ceiling without clamp", "phi_without_clamp", free.phi_max),
            ("intrinsic-to-cap step ratio", "step_ratio", ratio),
            ("reference ratio", None, "about 21"),
            ("scaled total bound", "scaled_total", ratio * clamped.eps_total),
            ("reference scaled total", None, "about 1577"),
            ("per-tick cap failures in run", "fail_count", trace.fail_count),
        ]
    )


def _report_slow_marl(trace: Trace, config: SystemConfig) -> dict[str, Any]:
    slow = total_bound(trace.config)
    base = total_bound(config)
    print("timescale stretch: drift ceiling and total bound degradation")
    return _quantities(
        [
            ("ceiling at baseline periods", "phi_base", base.phi_max),
            ("ceiling at stretched periods", "phi_slow", slow.phi_max),
            ("total bound at baseline periods", "total_base", base.eps_total),
            ("total bound at stretched periods", "total_slow", slow.eps_total),
            ("degradation factor", None, _ratio(slow.eps_total, base.eps_total)),
            ("reference factor", None, "about 10"),
            ("contract failures in run", None, trace.fail_count),
        ]
    )


def _report_margin_breach(trace: Trace, config: SystemConfig) -> dict[str, Any] | None:
    if not trace.meta_records:
        print("no meta boundary reached; lengthen the run")
        return None
    rec = trace.meta_records[0]
    print("gate response to a meta step crafted to reach the box boundary")
    payload = _quantities(
        [
            ("candidate step norm", None, rec["step_norm"]),
            ("smallest margin before", None, rec["min_margin"]),
            ("margins positive (M1)", None, rec["m1"]),
            ("step within budget (M2)", None, rec["m2"]),
            ("step under margin (M3)", None, rec["m3"]),
            ("step forced through", None, rec["applied"]),
            ("smallest margin after", None, min(rec["margins_after"].values())),
            ("margin alarms in run", "alarm_count", trace.alarm_count),
        ]
    )
    payload["meta_record"] = {k: v for k, v in rec.items() if k != "margins_after"}
    return payload


@dataclasses.dataclass(frozen=True)
class _Counterexample:
    """How one counterexample reports its run.

    report prints the scenario's own tables and returns its JSON payload, or
    None when the run holds nothing to confirm; the replay table follows
    them when replayed is set. confirmed and not_reproduced are the two
    verdict lines.
    """

    report: Callable[[Trace, SystemConfig], dict[str, Any] | None]
    confirmed: str
    not_reproduced: str
    replayed: bool = False


_COUNTEREXAMPLES = {
    "delta_zero": _Counterexample(
        _report_delta_zero,
        "unbounded growth confirmed; no stationary regime exists",
        "expected growth NOT reproduced",
        replayed=True,
    ),
    "no_clamp": _Counterexample(
        _report_no_clamp,
        "per-tick cap violated as expected; drift ceiling scales by the step ratio",
        "expected cap violation NOT reproduced",
    ),
    "slow_marl": _Counterexample(
        _report_slow_marl,
        "contracts hold per cycle but the guarantee degrades as expected",
        "expected degradation NOT reproduced",
        replayed=True,
    ),
    "crafted_margin_breach": _Counterexample(
        _report_margin_breach,
        "gate rejected the step and the margin alarm fired as expected",
        "expected detection NOT reproduced",
    ),
}


def cmd_counterexample(args: argparse.Namespace) -> int:
    example = _COUNTEREXAMPLES[args.name]
    scenario = get_scenario(args.name)
    config = _build_config(args, scenario)
    trace = run(scenario, config=config, seed=args.seed, duration=args.duration)
    report = verify(trace)
    payload = example.report(trace, config)
    if example.replayed:
        _print_replay(report)
    if payload is None:
        status, payload = UNEXPECTED_EXIT, {"confirmed": False}
    else:
        confirmed = confirm_expectation(trace, report, config)
        payload["confirmed"] = confirmed
        print("\nverdict: " + (example.confirmed if confirmed else example.not_reproduced))
        status = CONFIRMED_EXIT if confirmed else UNEXPECTED_EXIT
    payload["scenario"] = scenario.name
    if args.out:
        _write_json(args.out, f"counterexample_{args.name}.json", payload)
    return status


# One seed's replay: (report.checks, contract failures, margin alarms, confirmed).
_SeedOutcome = tuple[tuple[CheckResult, ...], int, int, bool]


def _replay_seed(
    scenario: Scenario, config: SystemConfig, seed: int, duration: float | None,
) -> _SeedOutcome:
    """Run and replay one seed. Only its checks and scalars leave this call,
    so the seed's trace, with no snapshots, is freed before the next seed runs."""
    trace = run(scenario, config=config, seed=seed, duration=duration)
    report = verify(trace)
    confirmed = confirm_expectation(trace, report, config)
    return report.checks, trace.fail_count, trace.alarm_count, confirmed


def _send_outcomes(share: Iterator[_SeedOutcome], fd: int) -> None:
    """Pickle each of share's outcomes into the pipe fd as it comes, or the
    message of the TriboundError that ends share."""
    with os.fdopen(fd, "wb") as pipe:
        try:
            for outcome in share:
                pickle.dump(outcome, pipe)
                pipe.flush()
        except TriboundError as exc:
            pickle.dump(str(exc), pipe)


def _received(pipe: BinaryIO) -> Iterator[_SeedOutcome | str]:
    """What a forked process pickled, until it closed its pipe."""
    while True:
        try:
            yield pickle.load(pipe)
        except EOFError:
            return


def _replay_seeds(
    scenario: Scenario, config: SystemConfig, seeds: range, duration: float | None,
) -> list[_SeedOutcome]:
    """Every seed's outcome, in seed order, from at most two processes.

    With two seeds or more and two CPUs or more in this process's affinity
    mask, one forked process runs the seeds at odd offsets and this process
    the even ones; two is the count that was measured
    (BENCH_parallel_seeds.json). Each keeps to one CPU of the mask, this
    process's main thread until it returns or raises, so neither run forks
    a draw process (procs.Drawer) and the verb stays at two busy processes; if
    the pipe or the fork fails (no process to spare), this process runs
    every seed on its one CPU. Otherwise, with one seed, one CPU, no
    affinity mask or a pin of this process that fails (procs.pin_to), this
    process runs every seed unpinned. Outcomes are taken in seed order, and
    this process runs its next seed only when that seed is due, so the
    lowest seed that raises a TriboundError raises it here, as in a serial
    run. The forked process is ended and reaped before this returns or
    raises.
    """
    def replayed(share: range) -> Iterator[_SeedOutcome]:
        return (_replay_seed(scenario, config, seed, duration) for seed in share)

    mask = affinity()
    held = pin_to(mask[:1]) if len(seeds) >= 2 and len(mask) >= 2 else None
    if held is None:
        return list(replayed(seeds))
    try:
        # The forked process keeps to the second CPU, or if that pin fails
        # to this process's one; nothing it prints reaches stdout.
        share = replayed(seeds[1::2])
        child = fork_child(functools.partial(_send_outcomes, share), mask[1:2])
        if child is None:
            return list(replayed(seeds))
        try:
            pipe = os.fdopen(child.ends[0], "rb", closefd=False)
            shares = replayed(seeds[::2]), _received(pipe)
            outcomes = []
            for offset, seed in enumerate(seeds):
                outcome = next(shares[offset % 2], None)
                if outcome is None:
                    raise TriboundError(
                        f"the process replaying seed {seed} ended without its outcome"
                    )
                if isinstance(outcome, str):
                    raise TriboundError(outcome)
                outcomes.append(outcome)
            return outcomes
        finally:
            # Once its share is read the forked process has nothing left to
            # do; if still running, it holds only seeds after one that
            # raised.
            child.end()
    finally:
        pin_to(held)


def cmd_verify(args: argparse.Namespace) -> int:
    scenario = get_scenario(args.scenario)
    config = _build_config(args, scenario)
    if args.seeds < 1:
        raise TriboundError("--seeds must be at least 1")
    base_seed = config.seed if args.seed is None else args.seed
    seeds = range(base_seed, base_seed + args.seeds)
    tallies: dict[str, dict[str, Any]] = {}
    fail_total = 0
    alarm_total = 0
    confirmations = []
    for checks, fails, alarms, confirmed in _replay_seeds(
        scenario, config, seeds, args.duration
    ):
        for check in checks:
            tally = tallies.setdefault(
                check.check_id,
                {"pass": 0, "fail": 0, "skip": 0, "worst": None, "bound": check.bound},
            )
            tally[_status(check.passed, "skip")] += 1
            if check.worst == check.worst:
                tally["worst"] = (
                    check.worst if tally["worst"] is None
                    else max(tally["worst"], check.worst)
                )
        fail_total += fails
        alarm_total += alarms
        confirmations.append(confirmed)
    rows = [
        [cid, t["pass"], t["fail"], t["skip"], *_pair(t["worst"], t["bound"])]
        for cid, t in tallies.items()
    ]
    print(
        f"replayed {args.seeds} seeds of scenario {scenario.name!r}; "
        f"{fail_total} contract failures, {alarm_total} margin alarms"
    )
    print(_table(["check", "pass", "fail", "skip", "worst", "ceiling"], rows))
    if args.out:
        _write_json(args.out, "verify.json", {
            "scenario": scenario.name, "seeds": args.seeds, "fail_total": fail_total,
            "alarm_total": alarm_total, "checks": tallies,
        })
    return _verdict(
        scenario.expected, all(confirmations),
        any(t["pass"] or t["fail"] for t in tallies.values()),
        "every seed fits the ceilings",
        "at least one seed breached a ceiling or contract",
        " on every seed",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tribound",
        description=(
            "deterministic simulator and bound calculator for tri-level "
            "coupled learning dynamics"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="closed-form bound report")
    _add_common(p_bounds)
    p_bounds.add_argument(
        "--n", metavar="LIST", help="comma-separated swarm sizes, e.g. 10,30,100"
    )
    p_bounds.set_defaults(func=cmd_bounds)

    p_cond = sub.add_parser("conditions", help="start-time admissibility checks")
    _add_common(p_cond)
    p_cond.set_defaults(func=cmd_conditions)

    p_sim = sub.add_parser("simulate", help="run one scenario under full monitoring")
    _add_common(p_sim)
    p_sim.add_argument(
        "--scenario", default="baseline", choices=tuple(SCENARIOS), help="scenario name"
    )
    _add_run_options(p_sim, "master seed override")
    p_sim.set_defaults(func=cmd_simulate)

    p_sens = sub.add_parser("sensitivity", help="parameter sweep of the total bound")
    _add_common(p_sens)
    p_sens.set_defaults(func=cmd_sensitivity)

    p_ce = sub.add_parser("counterexample", help="regenerate one published failure mode")
    _add_common(p_ce)
    p_ce.add_argument("name", choices=sorted(_COUNTEREXAMPLES), help="failure mode")
    _add_run_options(p_ce, "master seed override")
    p_ce.set_defaults(func=cmd_counterexample)

    p_ver = sub.add_parser("verify", help="replay traces against the ceilings over many seeds")
    _add_common(p_ver)
    p_ver.add_argument(
        "--scenario", default="baseline", choices=tuple(SCENARIOS), help="scenario name"
    )
    p_ver.add_argument("--seeds", type=int, default=20, help="number of seeds")
    _add_run_options(p_ver, "first seed (default: the config's)")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2, which here means a confirmed violation, on a
        # malformed command line; its message is already on stderr.
        if exc.code == 2:
            return UNEXPECTED_EXIT
        raise
    try:
        return args.func(args)
    except (TriboundError, OSError) as exc:
        # OSError: a file the verb cannot write, such as --out under a file.
        print(f"error: {exc}", file=sys.stderr)
        return UNEXPECTED_EXIT


if __name__ == "__main__":
    sys.exit(main())
