"""Benchmark-owned inputs: job lists, the zipf sampler, novel variants.

Everything a workload feeds the compiler is defined here from the
workload seed, so a change to the program (its bench collectors, its
fuzz generators, its evaluation tables) cannot change what the
benchmark measures.  The only program files read are the three bundled
example sources, whose instruction totals the benchmark pins.

Each workload is a list of *jobs*; a *pass* runs every job of the pass
once, and a run is a whole number of passes (see ``run.py``).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

#: The paper's evaluation blocks Ex1-Ex5 (Section VI), as straight-line
#: minic.  ``discard`` names the unrolled induction variables whose
#: stores are dead after the block and are stripped before compiling.
PAPER_BLOCKS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("Ex1", "y0 = (a + b) * (a - c);\ny1 = y0 + d;\n", ()),
    (
        "Ex2",
        "acc = acc + x0 * h0 + x1 * h1;\ny = acc * g;\ne = y - ref;\n",
        (),
    ),
    (
        "Ex3",
        "for (i = 0; i < 2; i = i + 1) {\n"
        "    acc = acc + (x[i] - m[i]) * (x[i] - m[i]);\n"
        "}\n",
        ("i",),
    ),
    (
        "Ex4",
        "for (i = 0; i < 2; i = i + 1) {\n"
        "    dot = dot + x[i] * h[i];\n"
        "    en = en + x[i] * x[i];\n"
        "}\n"
        "p = dot * en;\n",
        ("i",),
    ),
    (
        "Ex5",
        "re = re + (xr * hr - xi * hi);\n"
        "im = im + (xr * hi + xi * hr);\n"
        "e = re - t;\n",
        (),
    ),
)

#: Table I (Architecture I at 4 and 2 registers per file) and Table II
#: (Architecture II): (label, builtin machine key, registers per file).
PAPER_MACHINES: Tuple[Tuple[str, str, int], ...] = (
    ("arch1_r4", "arch1", 4),
    ("arch1_r2", "arch1", 2),
    ("arch2_r4", "arch2", 4),
)

#: The serve universe in zipf rank order (rank 0 most popular).  It is
#: the program's own serve traffic model (``DEFAULT_UNIVERSE`` in
#: ``repro.serve.bench``) copied here as constants, less ``fir4@mac``
#: (a ~5-s cold compile, which would dominate set-up time) and less its
#: config overrides, so every job compiles under the default config.
#: Its cold fill costs about 1.5 s of CPU.
SERVE_UNIVERSE: Tuple[Tuple[str, str], ...] = (
    ("fir4", "fig6"),
    ("fir4", "arch1"),
    ("dotprod", "fig6"),
    ("dotprod", "arch1"),
    ("dotprod", "dualbus"),
    ("branchy", "cf"),
    ("fir4", "single"),
)

#: Requests per serve pass drawn from the universe (cache hits), and
#: the novel blocks added to every pass (cache misses): each of Ex1-Ex5
#: on ``arch1``, renamed afresh so no earlier fill can answer it.  The
#: miss share this gives, 5 of 35 requests, is a choice, not a measured
#: traffic figure: every pass runs the write path once per paper block,
#: and hits stay six requests in seven.  (The program's own serve bench
#: misses on a third of its cold replay and on none of its warm one.)
#: At 30 draws every universe job is requested in every pass.
SERVE_HITS_PER_PASS = 30
SERVE_NOVEL_MACHINE = "arch1"
ZIPF_EXPONENT = 1.2

_IDENT = re.compile(r"\b([A-Za-z_]\w*)\b")
_KEYWORDS = frozenset({"for", "while", "if", "else"})


@dataclass
class Job:
    """One compile request: minic ``source`` for builtin ``machine``.

    ``inputs`` are the seeded initial values the output check simulates
    with.  ``cycle_inputs`` are fixed for every seed: ``sim_cycles`` is
    measured on them, so a program whose path depends on its data
    (``branchy``'s loop) reports the same cycles in every run.  ``key``
    names the job in the per-job totals; the renamed novel variants of
    one block share a key, since they compile to the same program.
    """

    key: str
    source: str
    machine: str
    registers: int = 0
    discard: Tuple[str, ...] = ()
    inputs: Dict[str, int] = field(default_factory=dict)
    cycle_inputs: Dict[str, int] = field(default_factory=dict)

    @property
    def machine_spec(self) -> str:
        return f"{self.machine}:{self.registers}" if self.registers else self.machine


def seeded_inputs(rng: random.Random, source: str) -> Dict[str, int]:
    """Initial values for every scalar and array element ``source``
    names; array elements are drawn for indices 0..7, which covers
    every subscript the benchmark's sources use."""
    values: Dict[str, int] = {}
    for name in sorted(set(_IDENT.findall(source)) - _KEYWORDS):
        values[name] = rng.randint(-64, 64)
        for index in range(8):
            values[f"{name}[{index}]"] = rng.randint(-64, 64)
    return values


def make_job(key: str, source: str, machine: str, rng: random.Random, **extra) -> Job:
    """A job with seeded check inputs and the fixed cycle inputs.

    The cycle inputs draw from one constant seed over the sorted
    variable names, and renaming keeps that order, so a renamed block
    gets the same values as the original.
    """
    return Job(key=key, source=source, machine=machine,
               inputs=seeded_inputs(rng, source),
               cycle_inputs=seeded_inputs(random.Random("sim_cycles"), source),
               **extra)


def rename_variables(source: str, prefix: str) -> str:
    """``source`` with every identifier prefixed by ``prefix``.

    A common prefix keeps the relative order of names, so the renamed
    block lowers to the same DAG shape under a new fingerprint.
    """
    return _IDENT.sub(
        lambda m: m.group(1) if m.group(1) in _KEYWORDS else prefix + m.group(1),
        source,
    )


def paper_jobs(seed: int) -> List[Job]:
    """The 15 paper compiles: Ex1-Ex5 on each Table I/II machine."""
    rng = random.Random(f"paper_blocks:{seed}")
    jobs = []
    for label, machine, registers in PAPER_MACHINES:
        for name, source, discard in PAPER_BLOCKS:
            jobs.append(make_job(f"{name}@{label}", source, machine, rng,
                                 registers=registers, discard=discard))
    return jobs


def serve_universe(seed: int, examples: Dict[str, str]) -> List[Job]:
    """The prewarmed universe, in zipf rank order."""
    rng = random.Random(f"serve_universe:{seed}")
    return [
        make_job(f"{program}@{machine}", examples[program], machine, rng)
        for program, machine in SERVE_UNIVERSE
    ]


def zipf_counts(size: int, draws: int, exponent: float, rng: random.Random) -> List[int]:
    """How often each rank is drawn in ``draws`` zipfian draws.

    Systematic sampling: one seeded offset, then evenly spaced points
    through the cumulative popularity ∝ 1/(rank+1)^exponent.  Each
    rank's count is its expected count rounded up or down, so the mix
    varies with the seed only by one draw per rank — a pure random
    draw would let the seed move the measured mix by several percent.
    """
    weights = [1.0 / (rank + 1) ** exponent for rank in range(size)]
    total = sum(weights)
    edges, running = [], 0.0
    for weight in weights:
        running += weight / total
        edges.append(running)
    counts = [0] * size
    offset = rng.random()
    rank = 0
    for k in range(draws):
        point = (offset + k) / draws
        while rank < size - 1 and point >= edges[rank]:
            rank += 1
        counts[rank] += 1
    return counts


def serve_pass(seed: int, index: int, universe: Sequence[Job]) -> List[Job]:
    """Pass ``index`` of the serve workload: zipfian hits over the
    universe plus freshly renamed Ex1-Ex5 misses, in a seeded order.

    The request counts are drawn once per seed, so every pass of a run
    makes the same requests and sees the same cache hits and misses;
    the order and the novel names change with the pass.
    """
    counts = zipf_counts(len(universe), SERVE_HITS_PER_PASS, ZIPF_EXPONENT,
                         random.Random(f"serve_zipf:{seed}"))
    rng = random.Random(f"serve_zipf:{seed}:{index}")
    requests: List[Job] = []
    for job, count in zip(universe, counts):
        requests.extend([job] * count)
    for name, source, _ in PAPER_BLOCKS:
        renamed = rename_variables(source, "n%06x_" % rng.getrandbits(24))
        requests.append(make_job(f"{name}~novel@{SERVE_NOVEL_MACHINE}", renamed,
                                 SERVE_NOVEL_MACHINE, rng))
    rng.shuffle(requests)
    return requests
