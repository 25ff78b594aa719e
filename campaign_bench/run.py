"""Campaign benchmark: leadopt's CLI end to end, and its layers from outside.

Usage (from the repository root):

    python3 campaign_bench/run.py --workload parallel --seed 2026 --seconds 15 --trace 0

Each run generates its inputs from ``--seed`` (set-up, timed several times),
then runs ``python -m leadopt run ...`` as a child process again and again
for ``--seconds`` seconds. Wall time, CPU and peak RSS of each child come
from ``os.wait4``; the run reports medians. Children alternate between two
``PYTHONHASHSEED`` values. Every child passes a correctness gate: exit
status 0, one result line per lead, the budget accounting recomputed from
the lines, and the same SHA-256 of the result file as every other child.
One invocation measures one workload; interleaving workloads is up to the
caller.

With ``--trace 1`` the run then makes two passes in this process through
``leadopt.cli.main``: one plain and one with every public leadopt function
wrapped in a span (see ``tracer.py``). It prints per-layer metrics
(``layers.py``), the tracing overhead between the two passes, and whether
the workload's expected layer holds the largest share of traced self time.
Both passes must write the same result bytes as the children.

Quality figures (success rate, mean relative improvement, endpoint requests
per lead) repeat exactly for a seed but vary from seed to seed by more than
any end-to-end bound could hold, so they are printed by the traced run.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``failed`` counts error result lines plus missing ones (every lead of a
child that exited non-zero). Metric names and units are those of
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

STEPS = 3
TAU = 0.5
# Set-up is repeated at least SETUP_MIN_REPEATS times, and cheap set-ups
# until SETUP_TARGET_S has passed, so that its median is steady.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 25
SETUP_TARGET_S = 1.0
MIN_CHILDREN = 3
CHILD_TIMEOUT_S = 150
HASH_SEEDS = ("0", "1")


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    jobs: int
    leads: int
    why: str


# Sizes keep one child at a few seconds, so that a run of --seconds holds
# several children even when the host steals a third of the CPU time. At
# the default seed the parallel leads are the first 32 of the acceptance
# suite's criterion-10 pool, lead_pool(2026, 100).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "parallel", "parallel", 2, 32,
            "random asymmetric leads in parallel mode: candidate checks and tool edit"
            " search dominate, and only this workload runs the --jobs thread pool",
        ),
        Workload(
            "retrieve", "retrieve", 1, 40,
            "held-out 1- and 4-edit neighbours against a 1200-record buffer: buffer"
            " load verification, query fingerprints and top-1 scans dominate",
        ),
        Workload(
            "symmetric", "online", 1, 9,
            "leads with 2-4 identical tBu/CF3/CCl3 stars: the canonicalizer's"
            " tie-breaking search does most of the work",
        ),
        Workload(
            "external", "online", 1, 8,
            "one process per request to the benchmark's own tool and evaluator"
            " endpoints: transports dominate, molecule work is small",
        ),
    )
}

BUFFER_RECORDS = 1200
# Properties the external evaluator serves in the external workload; the
# other properties of the cycle use the builtin surrogates.
EXTERNAL_PROPERTIES = ("plogp", "qed")
EXTERNAL_TOOL_ID = "ext-edit"


# ---------------------------------------------------------------------------
# Set-up: inputs and the program calls that prepare them
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    directory: Path
    dataset: Path
    leads: int
    extra_args: list[str] = field(default_factory=list)
    endpoint_log: Path | None = None

    def digest(self) -> str:
        """SHA-256 over every input file, by name."""
        sha = hashlib.sha256()
        for path in sorted(self.directory.iterdir()):
            if path.is_file():
                sha.update(path.name.encode() + b"\0" + path.read_bytes())
        return sha.hexdigest()


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def prepare(workload: Workload, seed: int, directory: Path) -> Inputs:
    """Generate the workload's input files into ``directory``."""
    import workloads as gen

    directory.mkdir(parents=True)
    dataset = directory / "dataset.jsonl"
    inputs = Inputs(directory, dataset, workload.leads)
    if workload.name == "parallel":
        leads = gen.asymmetric_leads(seed, workload.leads)
    elif workload.name == "retrieve":
        buffer, buffer_leads = gen.synthetic_buffer(seed, BUFFER_RECORDS)
        buffer_path = directory / "buffer.jsonl"
        buffer.flush(str(buffer_path))
        leads = gen.held_out_neighbours(seed, buffer_leads, workload.leads)
        inputs.extra_args = ["--buffer", str(buffer_path)]
    elif workload.name == "symmetric":
        leads = gen.star_leads(seed)
    else:
        leads = _external_leads(seed, workload.leads)
        inputs.endpoint_log = directory.parent / "endpoint-requests.log"
        inputs.extra_args = _external_configs(seed, directory, inputs.endpoint_log)
    if len(leads) != workload.leads:
        raise AssertionError(f"{workload.name}: generated {len(leads)} leads")
    _write_lines(dataset, gen.dataset_lines(leads))
    return inputs


def _external_leads(seed: int, count: int):
    """Asymmetric leads the evaluator fixture does not refuse, so no lead fails."""
    import workloads as gen
    from endpoints import evaluator
    from leadopt.molgraph import canonical_form, parse_smiles, write_smiles

    pool = gen.asymmetric_leads(seed, 2 * count)
    kept = [
        mol
        for mol in pool
        if not evaluator.fails(seed, write_smiles(parse_smiles(canonical_form(mol))))
    ]
    return kept[:count]


def _external_configs(seed: int, directory: Path, log: Path) -> list[str]:
    def endpoint(script: str) -> list[str]:
        path = BENCH_DIR / "endpoints" / script
        return [sys.executable, "-I", "-S", str(path), "--seed", str(seed), "--log", str(log)]

    tools = {
        "tools": [
            {
                "tool_id": EXTERNAL_TOOL_ID,
                "kind": "external",
                "description": "string-edit fixture endpoint",
                "endpoint": endpoint("tool.py"),
            }
        ]
    }
    evaluators = {
        "evaluators": {pid: {"endpoint": endpoint("evaluator.py")} for pid in EXTERNAL_PROPERTIES}
    }
    tools_path = directory / "tools.json"
    evaluators_path = directory / "evaluators.json"
    tools_path.write_text(json.dumps(tools, sort_keys=True), encoding="utf-8")
    evaluators_path.write_text(json.dumps(evaluators, sort_keys=True), encoding="utf-8")
    return ["--tools-config", str(tools_path), "--evaluators-config", str(evaluators_path)]


def cli_args(workload: Workload, seed: int, inputs: Inputs, out: Path) -> list[str]:
    return [
        "run",
        "--mode", workload.mode,
        "--jobs", str(workload.jobs),
        "--steps", str(STEPS),
        "--tau", str(TAU),
        "--seed", str(seed),
        "--dataset", str(inputs.dataset),
        "--out", str(out),
        *inputs.extra_args,
    ]


# ---------------------------------------------------------------------------
# Timed children
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChildRun:
    status: int | None  # exit code, None when killed
    wall_s: float
    cpu_s: float
    maxrss_kb: int


def run_child(argv: list[str], env: dict, log_path: Path, timeout: float) -> ChildRun:
    """Spawn ``argv`` in its own process group and reap it with ``os.wait4``.

    CPU and peak RSS are those of the child together with the descendants
    it reaped. A child still running after ``timeout`` seconds is killed
    with its whole process group.
    """
    file_actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(log_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=file_actions, setpgroup=0)
    watchdog = threading.Timer(timeout, _kill_group, (pid,))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:  # interrupted: take the child down with us
        _kill_group(pid)
        os.waitpid(pid, 0)
        raise
    finally:
        watchdog.cancel()
        watchdog.join()
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        _kill_group(pid)  # endpoint processes a failed child left behind
    return ChildRun(
        status=code if code >= 0 else None,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_kb=usage.ru_maxrss,
    )


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


@dataclass
class Gate:
    """Checks of one result file against the dataset it was made from."""

    sha256: str
    records: list[dict]
    error_lines: int
    missing_lines: int
    problems: list[str]

    @property
    def failed_leads(self) -> int:
        return self.error_lines + self.missing_lines


def check_result(path: Path, leads: int, budget: int, status: int | None) -> Gate:
    """Exit status, one line per lead, and budget accounting per record."""
    problems = []
    if status != 0:
        problems.append(f"exit status {status}")
    if not path.exists():
        return Gate("", [], 0, leads, problems + ["no result file"])
    data = path.read_bytes()
    lines = data.decode("utf-8").splitlines()
    records, errors = [], 0
    for lineno, line in enumerate(lines, start=1):
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            problems.append(f"line {lineno}: not JSON")
            continue
        if "error" in row:
            errors += 1
        elif "steps" in row:
            records.append(row)
            problems.extend(f"line {lineno}: {p}" for p in budget_problems(row, budget))
        else:
            problems.append(f"line {lineno}: neither a campaign record nor an error line")
    if len(lines) > leads:
        problems.append(f"{len(lines)} result lines for {leads} leads")
    missing = leads if status != 0 else max(0, leads - len(lines))
    return Gate(hashlib.sha256(data).hexdigest(), records, errors, missing, problems)


def budget_problems(record: dict, budget: int) -> list[str]:
    """Planned attempts per step equal the budget, each planned action has
    at most one retry, and the attempts add up to ``invocation_count``."""
    problems = []
    total = 0
    for step in record["steps"]:
        planned = [(a["tool_id"], a["prompt_index"]) for a in step["attempts"] if not a["retry"]]
        retried = [(a["tool_id"], a["prompt_index"]) for a in step["attempts"] if a["retry"]]
        plan = [(a["tool_id"], a["prompt_index"]) for a in step["plan"]]
        if len(planned) != budget or len(plan) != budget:
            problems.append(f"step {step['step_index']}: {len(planned)} planned attempts, budget {budget}")
        if len(retried) != len(set(retried)) or not set(retried) <= set(planned):
            problems.append(f"step {step['step_index']}: retries {retried} do not match plan {planned}")
        total += len(planned) + len(retried)
    if total != record["invocation_count"]:
        problems.append(f"{total} attempts but invocation_count {record['invocation_count']}")
    return problems


def budget_of(workload: Workload) -> int:
    from leadopt.tools import builtin_toolset

    return len(builtin_toolset()) if workload.mode == "parallel" else 1


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def campaign_quality(records: list[dict], leads: int) -> dict[str, float]:
    """Exact behaviour guards computed from one result file (empty if it has no records)."""
    import leadopt.metrics as mx

    from layers import ratio

    if not records:
        return {}
    report = mx.compile_report([mx.outcome_from_record(r) for r in records])
    attempts = [a for r in records for s in r["steps"] for a in s["attempts"]]
    candidates = [c for a in attempts for c in a["candidates"]]
    retries = [a for a in attempts if a["retry"]]
    return {
        "invocations_per_lead": sum(r["invocation_count"] for r in records) / leads,
        "success_rate": report.sr,
        "rel_improvement_pct": report.ri if report.ri is not None else 0.0,
        "candidates": float(len(candidates)),
        "pass_ratio": ratio(sum(c["passed"] for c in candidates), len(candidates)),
        "retry_ratio": ratio(len(retries), len(attempts) - len(retries)),
        "rescue_ratio": ratio(
            sum(any(c["passed"] for c in a["candidates"]) for a in retries), len(retries)
        ),
    }


def _cpu_ticks() -> list[int] | None:
    """Machine-wide CPU time counters from /proc/stat, or None where absent."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return [int(field) for field in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_pct(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of CPU time the hypervisor gave to other guests in between."""
    if before is None or after is None or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return 100.0 * delta[7] / sum(delta) if sum(delta) else None


def _count_lines(path: Path | None) -> int:
    if path is None or not path.exists():
        return 0
    with open(path, "rb") as handle:
        return sum(1 for _ in handle)


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """Gate results of every result file a run produced."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: set[str] = field(default_factory=set)

    @property
    def correct(self) -> bool:
        return not self.problems

    def gate(self, gate: Gate, leads: int, label: str) -> None:
        self.attempted += leads
        self.failed += gate.failed_leads
        self.digests.add(gate.sha256)
        for problem in gate.problems:
            self.problems.append(f"{label}: {problem}")


def setup_phase(workload: Workload, seed: int, work: Path, min_repeats: int) -> tuple[Inputs, list[float], list[str]]:
    """Generate the inputs repeatedly; every repeat must give the same bytes."""
    times, digests, inputs = [], [], None
    while len(times) < min_repeats or (
        sum(times) < SETUP_TARGET_S and len(times) < SETUP_MAX_REPEATS
    ):
        start = time.perf_counter()
        inputs = prepare(workload, seed, work / f"setup-{len(times)}")
        times.append(time.perf_counter() - start)
        digests.append(inputs.digest())
    return inputs, times, digests


def timed_children(workload, seed, inputs, work, seconds, outcome, budget) -> tuple[list[ChildRun], list[Gate], list[int]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    runs, gates, endpoint_calls = [], [], []
    started = time.perf_counter()
    index = 0
    while index < MIN_CHILDREN or time.perf_counter() - started < seconds:
        out = work / f"result-{index}.jsonl"
        env["PYTHONHASHSEED"] = HASH_SEEDS[index % len(HASH_SEEDS)]
        if inputs.endpoint_log is not None:
            inputs.endpoint_log.write_bytes(b"")
        argv = [sys.executable, "-m", "leadopt", *cli_args(workload, seed, inputs, out)]
        run = run_child(argv, env, work / f"child-{index}.log", CHILD_TIMEOUT_S)
        gate = check_result(out, inputs.leads, budget, run.status)
        outcome.gate(gate, inputs.leads, f"child {index} (PYTHONHASHSEED={env['PYTHONHASHSEED']})")
        runs.append(run)
        gates.append(gate)
        endpoint_calls.append(_count_lines(inputs.endpoint_log))
        out.unlink(missing_ok=True)
        index += 1
    return runs, gates, endpoint_calls


def end_to_end_metrics(runs, gates, setup_times, inputs) -> dict[str, tuple[float, str]]:
    leads = inputs.leads
    quality = campaign_quality(next((g.records for g in gates if g.records), []), leads)
    return {
        "leads_per_s": (statistics.median(leads / r.wall_s for r in runs), "leads/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "cpu_ms_per_lead": (statistics.median(1000.0 * r.cpu_s / leads for r in runs), "ms"),
        "peak_rss_mb": (statistics.median(r.maxrss_kb / 1024.0 for r in runs), "MiB"),
        "invocations_per_lead": (quality.get("invocations_per_lead", 0.0), "calls"),
    }


def in_process_pass(workload, seed, inputs, work, outcome, budget, label, tracer=None):
    """One ``leadopt.cli.main`` call in this process, under ``tracer`` if given.

    Returns the wall time, the campaign quality of its result file and the
    endpoint requests it made.
    """
    import leadopt.cli

    out = work / f"result-{label}.jsonl"
    if inputs.endpoint_log is not None:
        inputs.endpoint_log.write_bytes(b"")
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        status = leadopt.cli.main(cli_args(workload, seed, inputs, out))
        wall = time.perf_counter() - start
        gate = check_result(out, inputs.leads, budget, status)
        quality = campaign_quality(gate.records, inputs.leads)
    outcome.gate(gate, inputs.leads, f"{label} pass")
    return wall, quality, _count_lines(inputs.endpoint_log)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "leadopt" / "cli.py").is_file():
        print(f"error: no leadopt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))

    import workloads  # noqa: F401  (imported here so that set-up timing excludes it)

    # SIGTERM unwinds like an exception, so children are killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    budget = budget_of(workload)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    try:
        return _run(workload, args, budget, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload: Workload, args, budget: int, work: Path) -> int:
    import layers

    outcome = Outcome()
    repeats = 1 if args.trace else SETUP_MIN_REPEATS
    inputs, setup_times, input_digests = setup_phase(workload, args.seed, work, repeats)
    if len(set(input_digests)) != 1:
        outcome.problems.append("set-up repeats generated different inputs")
    ticks = _cpu_ticks()
    runs, gates, endpoint_calls = timed_children(
        workload, args.seed, inputs, work, args.seconds, outcome, budget
    )
    steal = steal_pct(ticks, _cpu_ticks())

    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}, {inputs.leads} leads, {len(runs)} timed children")
    print("child wall s: " + " ".join(f"{r.wall_s:.3f}" for r in runs))
    print(
        f"set-up s: {len(setup_times)} repeats, min {min(setup_times):.4f},"
        f" median {statistics.median(setup_times):.4f}, max {max(setup_times):.4f}"
    )
    if steal is not None:
        # Wall times on a shared virtual machine move with the time stolen by other guests.
        print(f"host steal during timed children: {steal:.1f}% of CPU time")
    if args.trace:
        from tracer import Tracer

        untraced_wall, _, _ = in_process_pass(
            workload, args.seed, inputs, work, outcome, budget, "untraced"
        )
        tracer = Tracer()
        traced_wall, quality, traced_calls = in_process_pass(
            workload, args.seed, inputs, work, outcome, budget, "traced", tracer
        )
        tracer.write(str(WORK_ROOT / f"trace-{workload.name}-{args.seed}.jsonl"))
        metrics = layers.per_layer_metrics(
            tracer.spans(),
            quality,
            leads=inputs.leads,
            tau=TAU,
            endpoint_calls=traced_calls,
            overhead_pct=100.0 * (traced_wall - untraced_wall) / untraced_wall,
        )
        for line in layers.design_lines(workload.name, metrics):
            print(line)
    else:
        metrics = end_to_end_metrics(runs, gates, setup_times, inputs)
        per_child = statistics.median(endpoint_calls)
        print(f"endpoint requests per lead (fixtures' logs): {per_child / inputs.leads:.4f}")

    if len(outcome.digests) != 1:
        outcome.problems.append(f"result SHA-256 differs between runs: {sorted(outcome.digests)}")
    for problem in outcome.problems:
        print(f"gate: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"result_sha256 = {next(iter(sorted(outcome.digests)), '')}")
    print(f"correct = {outcome.correct}, attempted = {outcome.attempted}, failed = {outcome.failed}")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            },
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
