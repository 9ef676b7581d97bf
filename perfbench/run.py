"""Benchmark of the ctmt command line: seeded corpora, checked outputs, metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload {prep,infer,eval,all} --seed N \\
        --seconds S --trace {0,1}

Each workload is generated from the seed and driven through ``ctmt`` the
way a user runs it: one process per stage, the stages one after another
(a closed loop with one client), default options only. The stage
sequence repeats for ``--seconds`` per workload (``run_seconds`` of
``BENCHMARK.json``), interleaved with set-up runs on a one-line corpus;
every output of the first repetition is checked against the generator,
and every later repetition must exit with the same codes and write the
same bytes. For the default seed, the inputs and outputs must also match
the digests in ``digests.json``. Stage times are scaled to a reference
host speed, read by timing ``reference.py`` before and after each stage.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones, which add an in-process run of the stages with and without spans.
``--workload all`` runs every workload and prints both kinds. Each metric
is printed as ``workload name value unit``; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Outcome, StageResult

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
SETUP_SHARE = 0.2  # of the measuring time, spread over it, goes to set-up runs
MIN_SETUPS = 3  # after one discarded warm-up
MIN_ITERATIONS = 3
CLI_STAGES = ["sample", "prepare", "encode", "decode", "evaluate", "roundtrip", "bench"]
# The console-script entry point of ctmt, run under this interpreter. At
# exit it writes the peak RSS of its own address space (VmHWM, in kB) to
# the file named by PERFBENCH_HWM: the ru_maxrss that os.wait4 reports
# also counts the RSS of this process, which a spawned child holds until
# it executes the interpreter.
BOOT = """\
import atexit, os, re, sys
def hwm():
    with open("/proc/self/status") as status, open(os.environ["PERFBENCH_HWM"], "w") as out:
        out.write(re.search(r"VmHWM:\\s*(\\d+)", status.read()).group(1))
atexit.register(hwm)
from ctmt.cli import main
sys.exit(main())
"""
REFERENCE = HERE / "reference.py"  # a stand-in stage that reads the host speed
# reference.py takes about this long on a 2-vCPU VM at 2.1 GHz under
# Python 3.11; stage times are scaled to the host speed where it does
REFERENCE_S = 0.12
PROBES = 2  # runs of reference.py in a speed reading


class Runner:
    """Spawns stage processes against the checkout's sources and accounts for each."""

    def __init__(self, src: Path):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        self.readings: list[float] = []  # every reference.py time taken

    def speed(self) -> list[float]:
        """Wall times of PROBES fresh runs of reference.py."""
        reading = []
        for _ in range(PROBES):
            start = time.perf_counter()
            pid = os.posix_spawn(sys.executable, [sys.executable, str(REFERENCE)], self.env)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reading.append(time.perf_counter() - start)
            if code != 0:
                raise RuntimeError(f"{REFERENCE.name} exited {code}")
        self.readings += reading
        return reading

    def spawn(self, argv: list[str], stdout: Path, env: dict | None = None) -> tuple[int, float, float]:
        """Run to completion: exit code, wall s, user+sys CPU s.

        ``os.wait4`` gives the CPU time of this child alone (and of the
        children it waited for), unlike RUSAGE_CHILDREN, which sums every
        child.
        """
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(stdout) + ".stderr", flags, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env or self.env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        return os.waitstatus_to_exitcode(status), wall, usage.ru_utime + usage.ru_stime

    def stages(self, stages, out: Path) -> list[StageResult]:
        """Run the stages in turn, reading the host speed between them.

        A stage's wall time is scaled by REFERENCE_S over the median
        reference.py time of the readings just before and just after it.
        """
        results = []
        before = self.speed()
        for stage in stages:
            path = out / stage.stdout
            hwm = out / (stage.stdout + ".hwm")
            code, wall, cpu = self.spawn(["-c", BOOT, *stage.argv], path, dict(self.env, PERFBENCH_HWM=str(hwm)))
            # a stage killed by a signal writes none; its exit code fails it
            rss = int(hwm.read_text(encoding="utf-8")) / 1024 if hwm.is_file() else 0.0
            after = self.speed()
            scaled = wall * REFERENCE_S / statistics.median(before + after)
            results.append(StageResult(code, path.read_text(encoding="utf-8"), wall, cpu, rss, scaled))
            before = after
        return results


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def digest(base: Path, names: list[str]) -> dict[str, str]:
    return {
        name: hashlib.sha256((base / name).read_bytes()).hexdigest() if (base / name).is_file() else "missing"
        for name in names
    }


def compare(got: dict[str, str], want: dict[str, str], what: str, outcome: Outcome, lines: int) -> None:
    differ = sorted(name for name in set(got) | set(want) if got.get(name) != want.get(name))
    if differ:
        outcome.fail(lines, f"{what}: {', '.join(differ)} differ")


def setup_check(stages, results) -> Outcome:
    """Exit codes of a set-up run. ``bench`` may exit 3: on one line its
    per-token time is all first-call cost, so its budget gate means nothing."""
    outcome = Outcome(attempted=sum(s.lines for s in stages))
    for stage, result in zip(stages, results):
        if result.exit_code not in ((0, 3) if stage.name == "bench" else (0,)):
            outcome.fail(stage.lines, f"set-up {stage.name} exited {result.exit_code}")
    return outcome


def stage_metrics(iterations: list[list[tuple[str, StageResult]]]) -> dict[str, float]:
    """cli.<stage>.* per-layer figures: medians over repetitions of per-repetition sums."""
    out = {}
    for name in CLI_STAGES:
        runs = [[r for n, r in it if n == name] for it in iterations]
        out[f"cli.{name}.wall_s"] = statistics.median(sum((r.wall_s for r in rs), 0.0) for rs in runs)
        out[f"cli.{name}.cpu_s"] = statistics.median(sum((r.cpu_s for r in rs), 0.0) for rs in runs)
        out[f"cli.{name}.rss_mb"] = statistics.median(max((r.rss_mb for r in rs), default=0.0) for rs in runs)
    bench = [json.loads(r.stdout) for it in iterations for n, r in it if n == "bench" and r.exit_code == 0]
    out["cli.bench.within_budget"] = statistics.fmean(b.get("within_budget") is True for b in bench) if bench else 0.0
    out["cli.bench.reconstruct_tps"] = statistics.median(b["reconstruct_tps"] for b in bench) if bench else 0.0
    return out


def in_process(runner: Runner, wl, inputs, wdir: Path, trace: bool) -> dict:
    """One run of the stages inside a single process, traced or not."""
    kind = "traced" if trace else "plain"
    out = fresh(wdir / kind)
    stages = wl.stages(inputs, out)
    plan = {
        "trace": trace,
        "spans": str(wdir / f"{kind}.spans.jsonl"),
        "stages": [[s.name, s.argv, str(out / s.stdout)] for s in stages],
    }
    plan_path = wdir / f"{kind}.plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    result_path = wdir / f"{kind}.result.json"
    code, *_ = runner.spawn([str(HERE / "tracing.py"), str(plan_path), str(result_path)], wdir / f"{kind}.stdout")
    if code != 0:
        raise RuntimeError(f"in-process {kind} run exited {code}; see {wdir / kind}.stdout.stderr")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["digests"] = digest(out, wl.outputs)
    result["exit_codes"] = [code for _, code, _ in result["stages"]]
    return result


def run_workload(
    runner: Runner, name: str, seed: int, seconds: float, e2e: bool, layers: bool, recorded: dict | None
) -> tuple[dict, Outcome, dict]:
    """Generate, set up, measure and check one workload.

    Returns the metrics, the outcome of every check, and the digests of
    the inputs and outputs, which must equal ``recorded`` unless it is None.
    """
    wl = WORKLOADS[name]
    runner.readings.clear()
    wdir = fresh(WORK / name)
    inputs = wl.generate(seed, wl.lines, fresh(wdir / "inputs"))
    total = Outcome()
    metrics: dict[str, float] = {}

    def account(outcome: Outcome) -> None:
        total.attempted += outcome.attempted
        total.failed += outcome.failed
        total.problems += outcome.problems

    def set_up() -> float:
        """Set-up cost: wall time of the whole stage sequence on a one-line corpus."""
        out = fresh(wdir / "setup")
        stages = wl.stages(one, out)
        results = runner.stages(stages, out)
        account(setup_check(stages, results))
        return sum(r.scaled_s for r in results)

    if e2e:
        one = wl.generate(seed, 1, fresh(wdir / "setup_inputs"))
        set_up()  # warm-up
    setup_walls: list[float] = []
    setup_time = 0.0
    iterations = []
    walls: list[float] = []  # at the reference host speed
    laps: list[float] = []  # a repetition with the set-up runs that follow it
    first = None
    start = time.perf_counter()
    deadline = start + seconds
    # repeat while another lap of typical length fits in the time
    while len(walls) < MIN_ITERATIONS or time.perf_counter() + statistics.median(laps) <= deadline:
        lap = time.perf_counter()
        out = fresh(wdir / "out")
        stages = wl.stages(inputs, out)
        results = runner.stages(stages, out)
        iterations.append([(s.name, r) for s, r in zip(stages, results)])
        walls.append(sum(r.scaled_s for r in results))
        if first is None:
            first = wl.check(inputs, out, stages, results)
            account(first)
            outputs = digest(out, wl.outputs)
            first_codes = [r.exit_code for r in results]
        else:
            repeat = Outcome(attempted=first.attempted)
            for stage, result, code in zip(stages, results, first_codes):
                if result.exit_code != code:
                    repeat.fail(stage.lines, f"{stage.name} exited {result.exit_code} in a repetition, {code} first")
            compare(digest(out, wl.outputs), outputs, "outputs of a repetition", repeat, first.attempted)
            account(repeat)
        # set-up runs follow the repetitions, so that both sample the whole run
        while e2e and (len(setup_walls) < MIN_SETUPS or setup_time < SETUP_SHARE * (time.perf_counter() - start)):
            t = time.perf_counter()
            setup_walls.append(set_up())
            setup_time += time.perf_counter() - t
        laps.append(time.perf_counter() - lap)
    if e2e:
        metrics["setup_s"] = statistics.median(setup_walls)
    metrics["tokens_per_s"] = inputs.tokens / statistics.median(walls)
    metrics["host.reference_s"] = statistics.median(runner.readings)
    metrics["peak_rss_mb"] = statistics.median(max(r.rss_mb for _, r in it) for it in iterations)
    metrics["kept_line_share"] = 1.0 - (first.lost + first.failed) / first.attempted
    metrics["repetitions"] = len(iterations)

    if layers:
        metrics.update(stage_metrics(iterations))
        plain = in_process(runner, wl, inputs, wdir, trace=False)
        traced = in_process(runner, wl, inputs, wdir, trace=True)
        for run in (plain, traced):
            check = Outcome(attempted=first.attempted)
            if run["exit_codes"] != first_codes:
                check.fail(first.attempted, f"in-process exit codes {run['exit_codes']}, expected {first_codes}")
            compare(run["digests"], outputs, "in-process outputs", check, first.attempted)
            account(check)
        metrics.update(traced["layers"])
        metrics["trace.overhead_share"] = traced["wall_s"] / plain["wall_s"] - 1.0

    digests = {f"inputs/{k}": v for k, v in digest(wdir / "inputs", wl.inputs).items()}
    digests.update({f"out/{k}": v for k, v in outputs.items()})
    if recorded is not None:
        check = Outcome()
        compare(digests, recorded, f"digests of seed {DEFAULT_SEED}", check, first.attempted)
        account(check)
    return metrics, total, digests


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--record-digests",
        action="store_true",
        help=f"store the digests of this run in {DIGESTS.name} (default seed only)",
    )
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ctmt" / "cli.py").is_file():
        print(f"perfbench: no ctmt sources under {src}", file=sys.stderr)
        return 2
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error(f"--record-digests needs the default seed {DEFAULT_SEED}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if args.workload == "all":
        names = list(units)
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}

    runner = Runner(src)
    selected = list(WORKLOADS) if args.workload == "all" else [args.workload]
    total = Outcome()
    report: dict[str, dict] = {}
    for name in selected:
        metrics, outcome, digests = run_workload(
            runner,
            name,
            args.seed,
            args.seconds,
            e2e=args.workload == "all" or not args.trace,
            layers=args.workload == "all" or bool(args.trace),
            recorded=recorded.get(name, {}) if args.seed == DEFAULT_SEED and not args.record_digests else None,
        )
        if args.record_digests:
            recorded[name] = digests
        total.attempted += outcome.attempted
        total.failed += outcome.failed
        for problem in outcome.problems:
            print(f"perfbench: {name}: {problem}", file=sys.stderr)
        total.problems += outcome.problems
        prefix = f"{name}." if args.workload == "all" else ""
        for metric in names:
            report[prefix + metric] = {"value": metrics[metric], "unit": units[metric]}
            print(f"{name:6} {metric:32} {metrics[metric]!r} {units[metric]}")
        print(f"{name:6} {'repetitions':32} {metrics['repetitions']}")
    if args.record_digests:
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    correct = not total.problems
    print(json.dumps({"correct": correct, "attempted": total.attempted, "failed": total.failed, "metrics": report}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
