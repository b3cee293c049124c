"""The repository benchmark: cold compiles of the paper's blocks, cached serving.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_blocks --seed 1 --seconds 45 --trace 0

One process, one thread, one closed-loop client.  A run does a fixed
amount of work: ``round(seconds / NOMINAL_PASS_CPU_S)`` passes over the
workload's jobs (at least one), so no deadline cuts a pass short.
Every time is process CPU time around one operation; see
``perfbench/README.md`` for why, and for what each workload exercises.

With ``--trace 0`` the last line of stdout is the end-to-end result.
With ``--trace 1`` the run makes half as many passes, runs each one
untraced and then again with per-layer wrappers installed, and reports
the per-layer metrics instead.  Every operation's output is checked
outside the timed region, and a run whose outputs or schedules differ
between passes reports ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"

#: Nominal CPU seconds of one pass on a 2-core x86 VM; it only turns
#: ``--seconds`` into a whole number of passes.
NOMINAL_PASS_CPU_S = {"paper_blocks": 0.35, "serve_zipf": 1.5}

#: Set-up is measured this many times per run (this process plus fresh
#: interpreter processes spread between the passes) and reported by the
#: same ``slow_tail`` rule as the operations: samples spread over the
#: run are likelier than back-to-back ones to meet the contended speed.
SETUP_SAMPLES = 5

#: Report p90 latency only for runs of at least this many operations.
P90_MIN_OPS = 100


@dataclass
class Outcome:
    """What the output check derived from one operation."""

    instructions: int = 0
    cycles: int = 0
    digest: str = ""
    hits: int = 0
    misses: int = 0
    error: Optional[str] = None


@dataclass
class PassSummary:
    """Per-pass totals that must repeat exactly across passes."""

    jobs: Dict[str, Tuple[int, int, str]] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def totals(self) -> Tuple[int, int]:
        return (
            sum(v[0] for v in self.jobs.values()),
            sum(v[1] for v in self.jobs.values()),
        )

    def key(self) -> Tuple[Any, ...]:
        return (sorted(self.jobs.items()), self.hits, self.misses)


def _schedule_digest(schedules: Dict[str, Any]) -> str:
    return hashlib.sha256(json.dumps(schedules, sort_keys=True).encode()).hexdigest()[:16]


class Workload:
    """Shared machinery: machines, references, output checks."""

    name = ""

    def __init__(self, seed: int, work: Path) -> None:
        from repro import frontend
        from repro.asmgen import program
        from repro.ir.interp import interpret_function
        from repro.isdl.builtin_machines import BUILTIN_MACHINES
        from repro.simulator import executor
        from repro.verify import verify_function

        self.seed = seed
        self.work = work
        self.frontend = frontend
        self.program = program
        self.executor = executor
        self._factories = BUILTIN_MACHINES
        self._machines: Dict[str, Any] = {}
        self._references: Dict[Tuple[Any, ...], Dict[str, int]] = {}
        # Checks call the program through references bound here, so the
        # per-layer wrappers (installed later) see only timed operations.
        self._compile_source = frontend.compile_source
        self._run_program = executor.run_program
        self._interpret = interpret_function
        self._verify_function = verify_function
        self.examples = {
            name: (ROOT / "examples" / f"{name}.minic").read_text()
            for name in ("fir4", "dotprod", "branchy")
        }

    def machine(self, job) -> Any:
        spec = job.machine_spec
        if spec not in self._machines:
            factory = self._factories[job.machine]
            self._machines[spec] = factory(job.registers) if job.registers else factory()
        return self._machines[spec]

    def reference(self, job) -> Dict[str, int]:
        """The IR interpreter's final variables for ``job`` (untimed)."""
        key = (job.source, job.discard, tuple(sorted(job.inputs.items())))
        if key not in self._references:
            function = self._compile_source(job.source)
            for block in function:
                for symbol in job.discard:
                    block.dag.remove_store(symbol)
            self._references[key] = self._interpret(function, job.inputs)
        return self._references[key]

    def compare(self, job, simulated: Dict[str, int], stores: List[str]) -> Optional[str]:
        expected = self.reference(job)
        for symbol in stores:
            if simulated.get(symbol) != expected.get(symbol):
                return (f"{job.key}: {symbol} simulated {simulated.get(symbol)} "
                        f"!= interpreted {expected.get(symbol)}")
        return None

    def check_compiled(self, job, compiled, sim=None) -> Outcome:
        """Simulate a compiled function on the check inputs (unless the
        operation already did: ``sim``), compare its variables with the
        interpreter's, and count its cycles on the fixed cycle inputs."""
        machine = self.machine(job)
        if sim is None:
            sim = self._run_program(compiled.program, machine, job.inputs)
        stores = sorted({s for block in compiled.blocks.values()
                         for s in block.solution.sn.dag.store_symbols()})
        schedules = {
            name: [sorted(word) for word in block.solution.schedule]
            for name, block in sorted(compiled.blocks.items())
        }
        return Outcome(
            instructions=compiled.total_instructions,
            cycles=self._run_program(compiled.program, machine, job.cycle_inputs).cycles,
            digest=_schedule_digest(schedules),
            error=self.compare(job, sim.variables, stores),
        )

    def verify(self, job, compiled) -> Optional[str]:
        """The independent validator over every block of ``compiled``."""
        bad = [v.describe() for report in self._verify_function(compiled)
               for v in report.violations]
        return f"{job.key}: {len(bad)} violation(s): {bad[0]}" if bad else None

    # Subclass interface ------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def pass_jobs(self, index: int) -> List[Any]:
        raise NotImplementedError

    def begin_pass(self, index: int) -> None:
        pass

    def execute(self, job) -> Any:
        raise NotImplementedError

    def outcome(self, job, result) -> Outcome:
        raise NotImplementedError

    def verify_result(self, job, result) -> Optional[str]:
        raise NotImplementedError


class PaperBlocks(Workload):
    """Ex1-Ex5 on arch1_r4 / arch1_r2 / arch2_r4, compiled cold and run."""

    name = "paper_blocks"

    def setup(self) -> None:
        from workloads import paper_jobs
        from repro.opt.passes import dead_code_elimination

        self._dce = dead_code_elimination
        self.jobs = paper_jobs(self.seed)
        for job in self.jobs:
            self.machine(job)
        self.execute(self.jobs[0])  # warm-up: first-call costs stay in set-up

    def pass_jobs(self, index: int) -> List[Any]:
        order = list(self.jobs)
        random.Random(f"paper_blocks:{self.seed}:{index}").shuffle(order)
        return order

    def execute(self, job) -> Any:
        machine = self.machine(job)
        dag = next(iter(self.frontend.compile_source(job.source, name=job.key))).dag
        if job.discard:
            for symbol in job.discard:
                dag.remove_store(symbol)
            dag, _ = self._dce(dag)
        compiled = self.program.compile_dag(dag, machine)
        simulated = self.executor.run_program(compiled.program, machine, job.inputs)
        return compiled, simulated

    def outcome(self, job, result) -> Outcome:
        return self.check_compiled(job, *result)

    def verify_result(self, job, result) -> Optional[str]:
        return self.verify(job, result[0])


class ServeZipf(Workload):
    """In-process ``execute_job`` against a prewarmed block cache."""

    name = "serve_zipf"

    def setup(self) -> None:
        from workloads import serve_universe
        from repro.isdl.writer import machine_to_isdl
        from repro.serve import service

        self.service = service
        self._isdl: Dict[str, str] = {}
        self._machine_to_isdl = machine_to_isdl
        self.universe = serve_universe(self.seed, self.examples)
        self.warm = self.work / "prewarmed"
        for job in self.universe:
            result = self.service.execute_job(self.payload(job), str(self.warm))
            if result["status"] != "ok":
                raise RuntimeError(f"prewarm {job.key}: {result['status']} {result['error']}")
        self.service.execute_job(self.payload(self.universe[0]), str(self.warm))  # warm-up hit
        self.cache = self.work / "cache"
        self._direct: Dict[Tuple[str, str], Tuple[Any, Outcome]] = {}

    def payload(self, job) -> Dict[str, Any]:
        if job.machine_spec not in self._isdl:
            self._isdl[job.machine_spec] = self._machine_to_isdl(self.machine(job))
        return {"job_id": job.key, "source": job.source,
                "machine": self._isdl[job.machine_spec], "config": {}}

    def pass_jobs(self, index: int) -> List[Any]:
        from workloads import serve_pass

        return serve_pass(self.seed, index, self.universe)

    def begin_pass(self, index: int) -> None:
        # Every pass starts from the same prewarmed cache, so each pass
        # sees the same hits, misses and index sizes.  Direct compiles of
        # earlier passes' novel jobs are never asked for again.
        shutil.rmtree(self.cache, ignore_errors=True)
        shutil.copytree(self.warm, self.cache)
        universe = {job.source for job in self.universe}
        self._direct = {k: v for k, v in self._direct.items() if k[0] in universe}

    def execute(self, job) -> Any:
        return self.service.execute_job(self.payload(job), str(self.cache))

    def direct(self, job) -> Tuple[Any, Outcome]:
        """A cold compile of ``job`` without the cache, and its checked
        outcome: every served result must be identical to it (untimed)."""
        key = (job.source, job.machine_spec)
        if key not in self._direct:
            compiled = self.program.compile_function(self._compile_source(job.source), self.machine(job))
            self._direct[key] = (compiled, self.check_compiled(job, compiled))
        return self._direct[key]

    def outcome(self, job, result) -> Outcome:
        if result["status"] != "ok":
            return Outcome(error=f"{job.key}: {result['status']}: {result['error']}")
        compiled, checked = self.direct(job)
        served = Outcome(
            instructions=result["metrics"]["instructions"],
            cycles=checked.cycles,
            digest=_schedule_digest(result["schedules"]),
            hits=result["cache"]["hits"],
            misses=result["cache"]["misses"],
            error=checked.error,
        )
        if served.error is None and (result["assembly"] != compiled.program.listing()
                                     or served.digest != checked.digest):
            served.error = f"{job.key}: served program differs from a direct compile"
        return served

    def verify_result(self, job, result) -> Optional[str]:
        return self.verify(job, self.direct(job)[0])


WORKLOADS = {cls.name: cls for cls in (PaperBlocks, ServeZipf)}


@dataclass
class PassResult:
    attempted: int
    cpu: List[float]
    keys: List[str]
    summary: PassSummary
    errors: List[str]


def run_pass(workload: Workload, index: int, verified: set, recorder=None) -> PassResult:
    """Run pass ``index``: time each operation, then check its output.

    Each failed check fails one operation; ``verified`` holds the jobs
    the validator has already certified in this run.
    """
    workload.begin_pass(index)
    cpu: List[float] = []
    keys: List[str] = []
    summary = PassSummary()
    errors: List[str] = []
    to_verify = []
    jobs = workload.pass_jobs(index)
    for position, job in enumerate(jobs):
        key = job.key
        try:
            if recorder is None:
                start = time.process_time()
                result = workload.execute(job)
                cpu.append(time.process_time() - start)
                keys.append(key)
            else:
                with recorder.operation(f"{index}.{position}:{key}"):
                    start = time.process_time()
                    result = workload.execute(job)
                    cpu.append(time.process_time() - start)
                keys.append(key)
            out = workload.outcome(job, result)
        except Exception as error:  # noqa: BLE001 - counted as a failed op
            out = Outcome(error=f"{key}: {type(error).__name__}: {error}")
        if out.error:
            errors.append(out.error)
            continue
        seen = summary.jobs.setdefault(key, (out.instructions, out.cycles, out.digest))
        if seen != (out.instructions, out.cycles, out.digest):
            errors.append(f"{key}: a repeated job produced a different program")
            continue
        summary.hits += out.hits
        summary.misses += out.misses
        if key not in verified:
            verified.add(key)
            to_verify.append((job, result))
    for job, result in to_verify:
        try:
            problem = workload.verify_result(job, result)
        except Exception as error:  # noqa: BLE001 - counted as a failed op
            problem = f"verify: {type(error).__name__}: {error}"
        if problem:
            errors.append(problem)
    return PassResult(attempted=len(jobs), cpu=cpu, keys=keys, summary=summary, errors=errors)


def slow_tail(times: List[float]) -> float:
    """The median of the slowest tenth of ``times`` (at least one).

    On a shared 2-core VM, other tenants' load slows CPU time by up to
    1.7x, in spells of seconds to minutes.  The contended speed recurs
    in nearly every run, while a median over all samples follows the
    run's mix of contended and uncontended time.
    """
    return statistics.median(sorted(times)[-max(1, len(times) // 10):])


def job_costs(results: List[PassResult]) -> Dict[str, float]:
    """Each job's CPU seconds: the slow tail of its repeats in the run.

    Taking the tail per job rather than per pass keeps every job's slow
    samples, even from contended spells of a few seconds, and prices
    each job on its own, so the cost mix of a pass is the same in every
    run.
    """
    samples: Dict[str, List[float]] = defaultdict(list)
    for result in results:
        for key, seconds in zip(result.keys, result.cpu):
            samples[key].append(seconds)
    return {key: slow_tail(times) for key, times in samples.items()}


def setup_sample(args) -> float:
    """Set-up CPU seconds of a fresh interpreter running this workload."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=str(ROOT), capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {done.stderr.strip()[-500:]}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def measure(args, workload: Workload, setup_cpu: float) -> int:
    passes = max(1, round(args.seconds / NOMINAL_PASS_CPU_S[args.workload]))
    recorder = None
    if args.trace:
        from tracing import Recorder, layer_metrics

        # Each pass runs untraced and then traced: together they cost
        # one untraced run, and each pair runs at the same VM speed.
        passes = max(1, passes // 2)
        recorder = Recorder()
    verified: set = set()
    # Fresh-interpreter set-up samples, taken between passes; they run
    # while this process waits, so they never overlap a timed operation.
    # A traced run reports no set-up time and takes none.
    due = Counter() if args.trace else Counter(
        k * passes // (SETUP_SAMPLES - 2) for k in range(SETUP_SAMPLES - 1))
    setups = [setup_cpu] + [setup_sample(args) for _ in range(due[0])]
    results, traced = [], []
    for index in range(passes):
        results.append(run_pass(workload, index, verified))
        if recorder is not None:
            with recorder.installed():
                traced.append(run_pass(workload, index, verified, recorder))
        setups += [setup_sample(args) for _ in range(due[index + 1])]
    runs = results + traced
    layer = None
    if recorder is not None:
        dump = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        recorder.dump(str(dump))
        print(f"spans written to {dump.relative_to(ROOT)}", file=sys.stderr)
        pairs = [(sum(u.cpu), sum(t.cpu)) for u, t in zip(results, traced)]
        layer = layer_metrics(recorder, sum(len(r.cpu) for r in traced), pairs)

    attempted = sum(r.attempted for r in runs)
    failed = sum(len(r.errors) for r in runs)
    # Determinism: every pass, traced or not, must build the same programs
    # and (serving) see the same cache hits and misses.
    inconsistent = [
        f"pass {i % passes}{' (traced)' if i >= passes else ''}: totals "
        f"{r.summary.totals()} hits/misses {r.summary.hits}/{r.summary.misses} differ from pass 0"
        for i, r in enumerate(runs)
        if not r.errors and r.summary.key() != results[0].summary.key()
    ]
    for error in [e for r in runs for e in r.errors][:20] + inconsistent:
        print(f"FAILED: {error}", file=sys.stderr)

    code_size, cycles = results[0].summary.totals()
    costs = job_costs(results)
    latencies = [costs[key] * 1000.0 for key in results[0].keys]
    if not latencies:  # every operation of the first pass raised
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    metrics = {
        "jobs_per_cpu_s": {"value": 1000.0 * len(latencies) / sum(latencies), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(latencies), "unit": "ms"},
        "latency_p90_ms": {"value": statistics.quantiles(latencies, n=10)[8], "unit": "ms"},
        "setup_s": {"value": slow_tail(setups), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
        "code_size_instr": {"value": code_size, "unit": "instr"},
        "sim_cycles": {"value": cycles, "unit": "cycles"},
    }
    if sum(len(r.cpu) for r in results) < P90_MIN_OPS:
        del metrics["latency_p90_ms"]
    shown = layer if args.trace else metrics
    print(f"# {args.workload} seed={args.seed}: {passes} passes x {results[0].attempted} "
          f"operations; {failed} failed; "
          f"cache hits/misses per pass "
          f"{results[0].summary.hits}/{results[0].summary.misses}")
    for name, entry in sorted(shown.items()):
        print(f"{name:34s} {entry['value']:>14.4f} {entry['unit']}")
    correct = failed == 0 and not inconsistent
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": layer if args.trace else metrics,
    }))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "examples").is_dir():
        print(f"error: {ROOT} is not a checkout of the repository "
              f"(src/repro and examples/ are required)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        workload.setup()
        setup_cpu = time.process_time()  # CPU since interpreter start
        if args.setup_only:
            print(json.dumps({"setup_s": setup_cpu}))
            return 0
        return measure(args, workload, setup_cpu)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run's directory, or a span dump, remains


if __name__ == "__main__":
    sys.exit(main())
