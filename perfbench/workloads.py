"""The benchmark's workloads and the loops that drive them.

Three workloads run the pipeline in this process, closed loop, one
module at a time: ``suite-serial`` (the paper modules, ``jobs=1``),
``genprog-compile`` (distinct generated programs, ``jobs=1``) and
``suite-edit-jobs2`` (the paper modules at ``jobs=2``, each resubmission
one literal edit away from the last).  ``served-routed`` drives
``repro-route`` in front of one ``repro-serve`` with ``nproc`` closed-
loop client connections.

Every input derives from the ``seed`` argument through one
``random.Random`` per workload.  Work outside a module's timed window
(building inputs, references and checks) never counts toward latency
or throughput.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import itertools
import os
import pickle
import random
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from repro.bench.workloads import ORDER, WORKLOADS
from repro.frontend.lower import compile_source
from repro.ir.printer import print_module
from repro.promotion.pipeline import PromotionPipeline

from perfbench import oracle, speed
from perfbench.edits import LiteralEditor
from perfbench.procs import peak_rss_mb, reap_children
from perfbench.tracing import LayerTracer

#: Setup is timed this many times per run; the median is reported.
SETUP_SAMPLES = 3
#: Single-process workloads read peak RSS after this many measured
#: blocks (and always run at least that many).  Memory grows with every
#: job (on ``suite-edit-jobs2`` by about 100 kB per job in each pool
#: worker), so a peak read at the end of a timed window would measure
#: how many jobs the host's speed allowed, not the program.
RSS_BLOCKS = 4
RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Job:
    """One module submission: its source and what it must produce."""

    __slots__ = ("key", "source", "reference", "golden")

    def __init__(self, key: str, source: str, reference, golden: Optional[str] = None):
        self.key = key
        self.source = source
        self.reference = reference
        #: The paper module whose golden Tables 1-2 row must match.
        self.golden = golden


class Tally:
    """What one run measured and checked.  Times are in reference
    seconds (see :mod:`perfbench.speed`); ``raw_*`` keep the wall clock."""

    def __init__(self) -> None:
        self.latencies_ms: List[float] = []
        self.raw_latencies_ms: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []
        #: distinct module key -> (static, dynamic) percent remaining.
        self.pct: Dict[str, tuple] = {}
        #: Seconds the measured jobs took: summed latencies for the
        #: single-process loops, window wall time for the served loop.
        self.busy_s = 0.0
        self.raw_busy_s = 0.0
        self.ok = 0
        self.setup_s = 0.0
        self.peak_rss_mb = 0.0
        #: traced? -> [jobs, seconds], for the tracing overhead.
        self.arms = {False: [0, 0.0], True: [0, 0.0]}

    def mismatch(self, message: str) -> None:
        self.failed += 1
        self.mismatches.append(message)

    def record(self, raw_s: float, speed_factor: float, traced: bool = False) -> float:
        """Count one completed job that took ``raw_s`` wall seconds;
        returns its time in reference seconds."""
        seconds = raw_s / speed_factor
        self.ok += 1
        self.latencies_ms.append(seconds * 1e3)
        self.raw_latencies_ms.append(raw_s * 1e3)
        self.busy_s += seconds
        self.raw_busy_s += raw_s
        arm = self.arms[traced]
        arm[0] += 1
        arm[1] += seconds
        return seconds

    def wall_clock(self) -> Dict[str, float]:
        """The timed metrics as the wall clock read them."""
        lat = sorted(self.raw_latencies_ms)
        return {
            "throughput_modules_per_s": self.ok / self.raw_busy_s if self.raw_busy_s else 0.0,
            "latency_p50_ms": statistics.median(lat) if lat else 0.0,
            "latency_p95_ms": percentile(lat, 95),
        }

    def end_to_end(self) -> Dict[str, float]:
        lat = sorted(self.latencies_ms)
        pcts = list(self.pct.values())
        return {
            "throughput_modules_per_s": self.ok / self.busy_s if self.busy_s else 0.0,
            "latency_p50_ms": statistics.median(lat) if lat else 0.0,
            "latency_p95_ms": percentile(lat, 95),
            "dyn_mem_ops_remaining_pct": statistics.mean(p[1] for p in pcts) if pcts else 0.0,
            "static_mem_ops_remaining_pct": statistics.mean(p[0] for p in pcts) if pcts else 0.0,
            "success_pct": 100.0 * (self.attempted - self.failed) / max(self.attempted, 1),
            "peak_rss_mb": self.peak_rss_mb,
            "setup_s": self.setup_s,
        }

    def tracing_overhead_pct(self) -> float:
        (n_off, s_off), (n_on, s_on) = self.arms[False], self.arms[True]
        if not (n_off and n_on and s_off and s_on):
            return 0.0
        return 100.0 * ((n_off / s_off) / (n_on / s_on) - 1.0)


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def timed_setup(step) -> float:
    """Median reference seconds of ``SETUP_SAMPLES`` calls of ``step``."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = speed.sample()
        start = time.perf_counter()
        step()
        elapsed = time.perf_counter() - start
        samples.append(elapsed / speed.factor(before, speed.sample()))
    return statistics.median(samples)


def probe_setup_samples(name: str) -> float:
    """Set-up time of fresh interpreters doing the workload's imports
    and first-pass warm-up (see :func:`probe_setup`)."""
    return timed_setup(
        lambda: subprocess.run(
            [sys.executable, RUN_PY, "--probe-setup", name],
            check=True,
            timeout=120,
            stdout=subprocess.DEVNULL,
        )
    )


def probe_setup(name: str) -> None:
    """The set-up a fresh process pays before its first timed module."""
    if name == "genprog-compile":
        from tests.property.genprog import random_program

        PromotionPipeline().run(compile_source(random_program(0)))
        return
    jobs = 2 if name == "suite-edit-jobs2" else 1
    if jobs > 1:
        from repro.parallel.pool import shutdown_pools, warm_pool

        warm_pool(jobs).prewarm()
    PromotionPipeline(jobs=jobs).run(compile_source(WORKLOADS["compress"].source))
    if jobs > 1:
        shutdown_pools()
        reap_children()


# -- single-process workloads ----------------------------------------------


class InProcess:
    """A closed loop over jobs in this process; subclasses supply them."""

    name = ""
    jobs = 1
    #: Jobs per block; runs end on block boundaries, so each run
    #: measures the same mix of modules.
    block = len(ORDER)

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"perfbench:{self.name}:{seed}")
        self.golden = oracle.load_manifest()["golden_counts"]
        #: Paper module -> the promoted IR last checked under the classic
        #: loop (the unedited modules promote the same way every pass).
        self._checked: Dict[str, str] = {}

    def prepare(self, tally: Tally) -> None:
        """Untimed: references and warm-up."""

    def next_job(self) -> Job:
        raise NotImplementedError

    def close(self) -> None:
        """Stop whatever the workload started."""

    def finish(self, tally: Tally) -> None:
        """Untimed: checks deferred until the processes are stopped."""

    def pipeline(self) -> PromotionPipeline:
        return PromotionPipeline(jobs=self.jobs)

    def run_job(self, job: Job, tally: Tally, tracer: Optional[LayerTracer] = None):
        """Compile and promote one job (timed), then check it (untimed)."""
        tally.attempted += 1
        pipeline = self.pipeline()
        mark = tracer.checkpoint() if tracer is not None else None
        before = speed.sample()
        start = time.perf_counter()
        try:
            if tracer is None:
                module = compile_source(job.source)
                result = pipeline.run(module)
            else:
                module = tracer.call("frontend", compile_source, job.source)
                result = tracer.run_pipeline(pipeline, module)
        except Exception as exc:  # a raising module is a counted failure
            tally.mismatch(f"{job.key}: raised {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        speed_factor = speed.factor(before, speed.sample())
        if tracer is not None:
            tracer.rescale_since(mark, speed_factor)
        problem = self.check(job, module, result)
        if problem is not None:
            tally.mismatch(problem)
            return None
        tally.record(elapsed, speed_factor, traced=tracer is not None)
        tally.pct[job.key] = oracle.remaining_pct(result)
        if tracer is not None:
            count_result(tracer, result, len(job.source))
        return result

    def check(self, job: Job, module, result) -> Optional[str]:
        if not result.output_matches:
            return f"{job.key}: the pipeline reported a behaviour divergence"
        if job.golden is None:
            return oracle.check_promoted(job.key, module, job.reference)
        problem = oracle.check_golden(job.golden, result, self.golden)
        if problem is not None:
            return problem
        ir = print_module(module)
        if self._checked.get(job.golden) == ir:
            return None
        problem = oracle.check_promoted(job.key, module, job.reference)
        if problem is None:
            self._checked[job.golden] = ir
        return problem


class SuiteSerial(InProcess):
    """The eight paper modules through a default pipeline."""

    name = "suite-serial"

    def prepare(self, tally: Tally) -> None:
        self.refs = {name: oracle.reference(WORKLOADS[name].source) for name in ORDER}
        self.cursor = self.rng.randrange(len(ORDER))
        for name in ORDER:  # warm-up pass, checked like any other
            warm = Tally()
            self.run_job(self.job_for(name), warm)
            tally.mismatches.extend(warm.mismatches)

    def job_for(self, name: str) -> Job:
        return Job(name, WORKLOADS[name].source, self.refs[name], golden=name)

    def next_job(self) -> Job:
        name = ORDER[self.cursor % len(ORDER)]
        self.cursor += 1
        return self.job_for(name)


class GenprogCompile(InProcess):
    """A seeded stream of distinct generated programs, stratified by size."""

    name = "genprog-compile"
    #: Source-length octiles of the generator's output (20,000 draws).
    #: Each block takes one program from every octile, so every seed
    #: measures the same size mix; compile time tracks source length
    #: (correlation 0.9).
    SIZE_EDGES = (315, 383, 446, 509, 584, 675, 816)
    MAX_DRAWS = 1000

    def prepare(self, tally: Tally) -> None:
        from tests.property.genprog import random_program

        self.random_program = random_program
        self.seen = set()
        self.strata: List[int] = []
        for _ in range(self.block):  # warm-up programs, never measured
            self.run_job(self.next_job(), Tally())

    def next_job(self) -> Job:
        if not self.strata:
            self.strata = list(range(len(self.SIZE_EDGES) + 1))
            self.rng.shuffle(self.strata)
        stratum = self.strata.pop()
        for _ in range(self.MAX_DRAWS):
            program_seed = self.rng.getrandbits(48)
            source = self.random_program(program_seed)
            digest = hashlib.sha256(source.encode()).hexdigest()
            fits = bisect.bisect(self.SIZE_EDGES, len(source)) == stratum
            if fits and digest not in self.seen:
                break
        self.seen.add(digest)
        reference = oracle.reference(source)
        if reference is None:
            raise RuntimeError(f"generated program {program_seed} fails under the classic loop")
        return Job(f"genprog-{program_seed}", source, reference)


class SuiteEditJobs2(InProcess):
    """Edit-compile loop over the paper modules on the warm ``jobs=2`` pool."""

    name = "suite-edit-jobs2"
    jobs = 2
    #: Proposed edits tried per resubmission before giving up.
    MAX_TRIES = 32

    def prepare(self, tally: Tally) -> None:
        from repro.parallel.pool import warm_pool

        warm_pool(self.jobs).prewarm()
        self.editors = {}
        self.step_budget = {}
        for name in ORDER:
            ref = oracle.reference(WORKLOADS[name].source)
            self.step_budget[name] = 3 * ref.steps
            self.editors[name] = LiteralEditor(WORKLOADS[name].source, self.rng)
            # First pass: the unedited modules fill the dispatch cache.
            warm = Tally()
            self.run_job(Job(name, WORKLOADS[name].source, ref, golden=name), warm)
            tally.mismatches.extend(warm.mismatches)
        self.cursor = self.rng.randrange(len(ORDER))
        self.submissions = 0
        self.deferred: List[tuple] = []

    def next_job(self) -> Job:
        name = ORDER[self.cursor % len(ORDER)]
        self.cursor += 1
        editor = self.editors[name]
        for _ in range(self.MAX_TRIES):
            _, source = editor.propose()
            reference = oracle.reference(source, max_steps=self.step_budget[name])
            if reference is not None:
                editor.accept(source)
                self.submissions += 1
                return Job(f"{name}#{self.submissions}", source, reference)
        raise RuntimeError(f"no valid literal edit found for {name}")

    def check(self, job: Job, module, result) -> Optional[str]:
        if job.golden is not None or not result.output_matches:
            return super().check(job, module, result)
        # Every edit is a new program, so its classic-loop check waits
        # for :meth:`finish`, which runs them on all CPUs.
        self.deferred.append((job.key, pickle.dumps(module), job.reference))
        return None

    def close(self) -> None:
        from repro.parallel.pool import shutdown_pools

        shutdown_pools()
        reap_children()

    def finish(self, tally: Tally) -> None:
        for problem in oracle.check_in_workers(self.deferred, nproc()):
            tally.mismatch(problem)
            tally.ok -= 1


IN_PROCESS = {cls.name: cls for cls in (SuiteSerial, GenprogCompile, SuiteEditJobs2)}


def count_result(tracer: LayerTracer, result, source_bytes: int) -> None:
    """Fold a traced run's own counters into the tracer's counts."""
    counts = tracer.counts
    counts["frontend.bytes"] += source_bytes
    counts["frontend.modules"] += 1
    if result.cache_stats is not None:
        counts["analysis.cache.hits"] += result.cache_stats.total_hits
        counts["analysis.cache.lookups"] += (
            result.cache_stats.total_hits + result.cache_stats.total_misses
        )
    totals = result.totals()
    counts["promotion.webs_seen"] += totals.webs_seen
    counts["promotion.webs_promoted"] += totals.webs_promoted
    diags = result.diagnostics
    counts["robustness.rollbacks"] += len(diags.rolled_back_functions)
    counts["parallel.serial_fallbacks"] += int(diags.fallback_reason is not None)
    transport = result.transport_stats
    if transport is not None:
        counts["parallel.batches"] += transport.batches
        counts["parallel.functions_shipped"] += transport.functions_shipped
        counts["parallel.functions_reused"] += transport.functions_reused
        counts["parallel.transport_bytes"] += transport.bytes_out + transport.bytes_in


def run_in_process(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """(tally, tracer) for one run of a single-process workload.

    With ``trace`` the run alternates untraced and traced blocks, so the
    tracing overhead is measured on the same mix of modules."""
    tally = Tally()
    tally.setup_s = probe_setup_samples(name)
    workload = IN_PROCESS[name](seed)
    tracer = LayerTracer() if trace else None
    try:
        workload.prepare(tally)
        # Untraced and traced blocks alternate in ABBA order, so a slow
        # drift over the run does not show up as tracing overhead.
        arms = [None, tracer, tracer, None] if trace else [None]
        pair = 2 if trace else 1
        blocks = 0
        while not (
            tally.raw_busy_s >= seconds and blocks % pair == 0 and blocks >= RSS_BLOCKS
        ):
            arm = arms[blocks % len(arms)]
            for _ in range(workload.block):
                job = workload.next_job()
                if arm is None:
                    workload.run_job(job, tally)
                else:
                    with arm.installed():
                        workload.run_job(job, tally, arm)
            blocks += 1
            if blocks == RSS_BLOCKS:
                tally.peak_rss_mb = peak_rss_mb()
            if tally.mismatches:
                break
        if not tally.peak_rss_mb:
            tally.peak_rss_mb = peak_rss_mb()
    finally:
        workload.close()
    workload.finish(tally)
    return tally, tracer


# -- the served workload ----------------------------------------------------


class ServedJob:
    __slots__ = ("index", "base", "source", "nonce", "repeat_of")

    def __init__(self, index, base, source, nonce, repeat_of=None):
        self.index = index
        self.base = base
        self.source = source
        self.nonce = nonce
        self.repeat_of: Optional["ServedJob"] = repeat_of


class Record:
    __slots__ = ("job", "direct", "doc", "start", "end", "factor", "error")

    def __init__(self, job, direct):
        self.job = job
        self.direct = direct
        self.doc = None
        self.start = self.end = 0.0
        #: Host factor of the request's round, from the reference service.
        self.factor = 1.0
        self.error = None

    @property
    def latency_ms(self) -> float:
        """Client-side latency in reference milliseconds."""
        return (self.end - self.start) * 1e3 / self.factor

    @property
    def engine_ms(self) -> float:
        return self.doc["duration_ms"] / self.factor


class ServedRouted:
    """Closed-loop clients -> ``repro-route`` -> one ``repro-serve``.

    The window is a sequence of rounds of ``ROUND`` jobs: two shuffled
    cycles over the modules plus a repeat in every fourth slot, so each
    round has the same mix.  Between rounds the same clients time
    ``REF_REQUESTS`` requests to the reference service
    (:mod:`perfbench.refservice`); a round's times are divided by the
    mean of the reference rounds around it over ``REF_ROUND_S``.
    """

    name = "served-routed"
    #: Slots of a round that resubmit an earlier exact source.
    REPEAT_SLOTS = (3, 7, 11, 15, 19)
    ROUND = 21
    #: Repeats pick among this many recent fresh jobs (all still in the
    #: engine's 64-entry result cache).
    REPEAT_WINDOW = 24
    REF_REQUESTS = 16
    #: Seconds a reference round takes at factor 1.0.
    REF_ROUND_S = 0.7
    #: Peak RSS is read after this many rounds (see ``RSS_BLOCKS``): the
    #: daemon's memory grows with the jobs it has served.
    RSS_ROUNDS = 3
    #: In the traced run, every DIRECT_EVERY-th job bypasses the router.
    DIRECT_EVERY = 3
    TIMEOUT_S = 60.0

    def __init__(self, seed: int, clients: int) -> None:
        self.rng = random.Random(f"perfbench:{self.name}:{seed}")
        self.clients = clients
        self.golden = oracle.load_manifest()["golden_counts"]
        self.daemon = None
        self.router = None
        self.fresh: List[ServedJob] = []
        self.serial = itertools.count()
        self.issued = 0
        self.in_flight = 0
        self.cycle: List[str] = []
        #: Classic-loop references of the unedited modules, and the
        #: reference service's port; both set by :func:`run_served`.
        self.refs: Dict[str, oracle.Behaviour] = {}
        self.ref_port = 0

    # -- processes --

    def boot(self) -> float:
        """Start the daemon and the router; seconds until ``/readyz``."""
        from repro.service.client import ServiceClient
        from repro.service.cluster import ServiceProcess

        start = time.perf_counter()
        self.daemon = ServiceProcess([sys.executable, "-m", "repro.service"], name="daemon")
        self.daemon.boot()
        self.router = ServiceProcess(
            [sys.executable, "-m", "repro.service.router", "--backend", self.daemon.address],
            name="router",
        )
        self.router.boot()

        async def ready() -> None:
            client = ServiceClient(self.router.host, self.router.port, timeout_s=5.0)
            while (await client.get("/readyz")).status != 200:
                await asyncio.sleep(0.01)

        asyncio.run(asyncio.wait_for(ready(), 30.0))
        return time.perf_counter() - start

    def stop(self) -> None:
        for proc in (self.router, self.daemon):
            if proc is None or proc.proc is None:
                continue
            try:
                proc.sigterm_and_wait(timeout_s=30.0)
            except (subprocess.TimeoutExpired, ProcessLookupError):
                proc.kill()
                proc.proc.wait(timeout=10.0)
        self.router = self.daemon = None

    # -- inputs --

    def fresh_job(self) -> ServedJob:
        if not self.cycle:
            self.cycle = list(ORDER)
            self.rng.shuffle(self.cycle)
        base = self.cycle.pop()
        nonce = f"perfbench_nonce_{self.rng.getrandbits(48):012x}"
        source = WORKLOADS[base].source + f"\nint {nonce} = 1;\n"
        job = ServedJob(next(self.serial), base, source, nonce)
        self.fresh.append(job)
        return job

    def next_job(self) -> ServedJob:
        slot = self.issued % self.ROUND
        self.issued += 1
        if slot in self.REPEAT_SLOTS:
            # Only jobs issued at least one round of clients ago, so the
            # original has finished and sits in the result cache.
            end = max(1, len(self.fresh) - self.clients)
            original = self.rng.choice(self.fresh[max(0, end - self.REPEAT_WINDOW) : end])
            return ServedJob(
                next(self.serial), original.base, original.source, original.nonce, original
            )
        return self.fresh_job()

    # -- traffic --

    async def submit(self, job: ServedJob, direct: bool) -> Record:
        from repro.service.client import ServiceClient

        target = self.daemon if direct else self.router
        record = Record(job, direct)
        client = ServiceClient(target.host, target.port, timeout_s=self.TIMEOUT_S)
        record.start = time.perf_counter()
        try:
            response = await client.submit({"source": job.source})
        except Exception as exc:  # refused, reset or timed out: a failure
            record.error = f"{type(exc).__name__}: {exc}"
        else:
            if response.status == 200:
                record.doc = response.json()
            else:
                record.error = f"HTTP {response.status}"
        record.end = time.perf_counter()
        return record

    async def served_round(self, trace: bool) -> List[Record]:
        records: List[Record] = []

        async def client_loop() -> None:
            while len(records) + self.in_flight < self.ROUND:
                job = self.next_job()
                direct = trace and job.index % self.DIRECT_EVERY == 0
                self.in_flight += 1
                try:
                    records.append(await self.submit(job, direct))
                finally:
                    self.in_flight -= 1

        await asyncio.gather(*(client_loop() for _ in range(self.clients)))
        return records

    async def reference_round(self) -> float:
        """Seconds for the clients to get ``REF_REQUESTS`` answers from
        the reference service."""
        from perfbench.refservice import request

        left = self.REF_REQUESTS
        start = time.perf_counter()

        async def client_loop() -> None:
            nonlocal left
            while left > 0:
                left -= 1
                await request(self.ref_port)

        await asyncio.gather(*(client_loop() for _ in range(self.clients)))
        return time.perf_counter() - start

    async def window(self, seconds: float, trace: bool, ref_pid: int) -> tuple:
        """Whole rounds until ``seconds`` of served traffic and at least
        ``RSS_ROUNDS``; (records, wall seconds, reference seconds, peak
        RSS after ``RSS_ROUNDS`` rounds, leaving out the reference
        service ``ref_pid``)."""
        records: List[Record] = []
        wall = reference = 0.0
        rss = 0.0
        rounds = 0
        self.in_flight = 0
        before = await self.reference_round()
        while wall < seconds or rounds < self.RSS_ROUNDS:
            start = time.perf_counter()
            batch = await self.served_round(trace)
            elapsed = time.perf_counter() - start
            after = await self.reference_round()
            factor = (before + after) / 2 / self.REF_ROUND_S
            for record in batch:
                record.factor = factor
            records.extend(batch)
            wall += elapsed
            reference += elapsed / factor
            before = after
            rounds += 1
            if rounds == self.RSS_ROUNDS:
                rss = peak_rss_mb(exclude=[ref_pid])
        return records, wall, reference, rss

    async def shed_total(self) -> int:
        from repro.service.client import ServiceClient

        response = await ServiceClient(self.daemon.host, self.daemon.port).get("/metrics")
        return int(response.json()["admission"]["shed_total"])

    # -- checks --

    def expected_behaviour(self, job: ServedJob):
        base = self.refs[job.base]
        globals_ = dict(base.globals)
        globals_[job.nonce] = 1
        return oracle.Behaviour(base.output, base.return_value, globals_, base.steps)

    def check_records(self, records: List[Record], tally: Tally, tracer) -> List[Record]:
        """The records that fail their checks.  Outputs are held to the
        classic-loop reference, IR to an in-process serial run of the
        first fresh job per module (later fresh jobs differ from it only
        in the nonce's name), and a repeat to its original's IR."""
        exact: Dict[str, tuple] = {}
        served_ir: Dict[int, str] = {}
        failing = []
        for record in sorted(records, key=lambda r: r.job.index):
            job, doc = record.job, record.doc
            if doc is None:
                continue
            base = self.refs[job.base]
            if (
                doc["output"] != base.served_lines()
                or doc["return_value"] != base.return_value & 0xFF
                or not doc["output_matches"]
                or doc["degraded"]
            ):
                record.error = f"job {job.index} ({job.base}): served behaviour differs"
                failing.append(record)
                continue
            original = job.repeat_of or job
            if original.index in served_ir:
                expected = served_ir[original.index]
            else:
                if job.base not in exact:
                    exact[job.base] = (job.nonce, self.in_process_ir(job, tally, tracer))
                nonce, ir = exact[job.base]
                expected = None if ir is None else ir.replace(nonce, original.nonce)
            if doc["ir"] != expected:
                record.error = f"job {job.index} ({job.base}): served IR differs from a serial run"
                failing.append(record)
                continue
            served_ir.setdefault(original.index, doc["ir"])
        return failing

    def in_process_ir(self, job: ServedJob, tally: Tally, tracer) -> Optional[str]:
        """A checked in-process serial run of ``job``; its printed IR.
        With a tracer, the run is made untraced and then traced, which
        gives the per-layer numbers and the tracing overhead."""
        arms = [None, tracer] if tracer is not None else [None]
        ir = None
        for arm in arms:
            mark = arm.checkpoint() if arm is not None else None
            before = speed.sample()
            start = time.perf_counter()
            if arm is None:
                module = compile_source(job.source)
                result = PromotionPipeline().run(module)
            else:
                with arm.installed():
                    module = arm.call("frontend", compile_source, job.source)
                    result = arm.run_pipeline(PromotionPipeline(), module)
            elapsed = time.perf_counter() - start
            speed_factor = speed.factor(before, speed.sample())
            if arm is not None:
                arm.rescale_since(mark, speed_factor)
                count_result(arm, result, len(job.source))
            slot = tally.arms[arm is not None]
            slot[0] += 1
            slot[1] += elapsed / speed_factor
            problem = oracle.check_golden(job.base, result, self.golden)
            problem = problem or oracle.check_promoted(
                job.base, module, self.expected_behaviour(job)
            )
            if problem is not None or not result.output_matches:
                tally.mismatches.append(problem or f"{job.base}: in-process run diverged")
                return None
            tally.pct[job.base] = oracle.remaining_pct(result)
            ir = print_module(module)
        return ir


def run_served(seed: int, seconds: float, trace: bool) -> tuple:
    """(tally, tracer, service layer metrics) for one served run."""
    tally = Tally()
    workload = ServedRouted(seed, nproc())
    tracer = LayerTracer() if trace else None
    reference_service = subprocess.Popen(
        [sys.executable, os.path.join(os.path.dirname(RUN_PY), "refservice.py")],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        workload.ref_port = int(reference_service.stdout.readline())
        workload.refs = {name: oracle.reference(WORKLOADS[name].source) for name in ORDER}
        setups = []
        for attempt in range(SETUP_SAMPLES):
            if attempt:
                workload.stop()
            before = speed.sample()
            raw = workload.boot()
            setups.append(raw / speed.factor(before, speed.sample()))
        tally.setup_s = statistics.median(setups)

        async def drive() -> tuple:
            # Warm-up: every module once (fresh nonces), not measured.
            warm = [await workload.submit(workload.fresh_job(), False) for _ in ORDER]
            shed_before = await workload.shed_total()
            window = await workload.window(seconds, trace, reference_service.pid)
            shed = await workload.shed_total() - shed_before
            return (warm, shed) + window

        warm, shed, records, wall, reference, tally.peak_rss_mb = asyncio.run(drive())
    finally:
        workload.stop()
        reference_service.terminate()
        reference_service.wait(timeout=30)
        reference_service.stdout.close()
        reap_children()
    failing = workload.check_records(warm + records, tally, tracer)
    for record in warm:
        if record.doc is None or record in failing:
            tally.mismatches.append(f"warm-up job {record.job.base}: {record.error}")
    tally.attempted = len(records)
    for record in records:
        if record in failing:
            tally.mismatch(record.error)
        elif record.doc is None:
            tally.failed += 1  # refused, reset or timed out
        else:
            tally.ok += 1
            tally.latencies_ms.append(record.latency_ms)
            tally.raw_latencies_ms.append((record.end - record.start) * 1e3)
    # Concurrent clients: throughput is over the window, not summed latency.
    tally.busy_s = reference
    tally.raw_busy_s = wall
    return tally, tracer, service_metrics(records, shed)


def service_metrics(records: List[Record], shed: int) -> Dict[str, float]:
    done = [r for r in records if r.doc is not None]
    routed = [r for r in done if not r.direct]
    direct = [r for r in done if r.direct]

    def overhead_p50(rows: List[Record]) -> float:
        if not rows:
            return 0.0
        return statistics.median(r.latency_ms - r.engine_ms for r in rows)

    fresh = [r.doc["cache_stats"] for r in done if not r.doc["cached"] and r.doc["cache_stats"]]
    hits = sum(stats["total_hits"] for stats in fresh)
    lookups = hits + sum(stats["total_misses"] for stats in fresh)
    return {
        "service.engine_ms_p50": (
            statistics.median(r.engine_ms for r in routed) if routed else 0.0
        ),
        "service.overhead_ms_p50": overhead_p50(routed),
        "service.router_hop_ms_p50": (
            overhead_p50(routed) - overhead_p50(direct) if direct else 0.0
        ),
        "service.result_cache.hit_rate": (
            sum(1 for r in done if r.doc["cached"]) / len(done) if done else 0.0
        ),
        "service.admission.shed": float(shed),
        "analysis.cache.hit_rate": hits / lookups if lookups else 0.0,
        "analysis.cache.hits": hits / len(fresh) if fresh else 0.0,
        "analysis.cache.lookups": lookups / len(fresh) if fresh else 0.0,
    }


# -- per-layer metrics --------------------------------------------------------


def layer_metrics(tracer: LayerTracer, tally: Tally, service: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """Every per-layer metric; busy times and counts are per traced
    pipeline run.  Layers a workload never enters read 0."""
    runs = max(tracer.calls["pipeline.other"], 1)
    busy = tracer.busy
    counts = tracer.counts

    def per_run_ms(layer: str) -> float:
        return busy[layer] * 1e3 / runs

    interp_s = busy["profile.phase2"] + busy["profile.phase5"]
    lookups = counts["analysis.cache.lookups"]
    moved = counts["parallel.functions_shipped"] + counts["parallel.functions_reused"]
    frontend_s = busy["frontend"]
    modules = max(counts["frontend.modules"], 1)
    metrics = {
        "frontend.busy_ms": frontend_s * 1e3 / modules,
        "frontend.kb_per_s": counts["frontend.bytes"] / 1024.0 / frontend_s if frontend_s else 0.0,
        "ssa.construct.busy_ms": per_run_ms("ssa.construct"),
        "analysis.normalize.busy_ms": per_run_ms("analysis.normalize"),
        "analysis.cache.hit_rate": counts["analysis.cache.hits"] / lookups if lookups else 0.0,
        "analysis.cache.hits": counts["analysis.cache.hits"] / runs,
        "analysis.cache.lookups": lookups / runs,
        "profile.phase2.busy_ms": per_run_ms("profile.phase2"),
        "profile.phase5.busy_ms": per_run_ms("profile.phase5"),
        "profile.runs": (tracer.calls["profile.phase2"] + tracer.calls["profile.phase5"]) / runs,
        "profile.steps": counts["profile.steps"] / runs,
        "profile.steps_per_s": counts["profile.steps"] / interp_s if interp_s else 0.0,
        "memory.memssa.busy_ms": per_run_ms("memory.memssa"),
        "promotion.promote.busy_ms": per_run_ms("promotion.promote"),
        "promotion.webs_seen": counts["promotion.webs_seen"] / runs,
        "promotion.webs_promoted": counts["promotion.webs_promoted"] / runs,
        "passes.cleanup.busy_ms": per_run_ms("passes.cleanup"),
        "ir.verify.busy_ms": per_run_ms("ir.verify"),
        "robustness.snapshot.busy_ms": per_run_ms("robustness.snapshot"),
        "robustness.rollbacks": counts["robustness.rollbacks"] / runs,
        "robustness.bisect.calls": counts["robustness.bisect"] / runs,
        "pipeline.other_ms": per_run_ms("pipeline.other"),
        "pipeline.run_ms": tracer.root_wall["pipeline.other"] * 1e3 / runs,
        "parallel.dispatch.busy_ms": per_run_ms("parallel.dispatch"),
        "parallel.batches": counts["parallel.batches"] / runs,
        "parallel.functions_shipped": counts["parallel.functions_shipped"] / runs,
        "parallel.reuse_ratio": counts["parallel.functions_reused"] / moved if moved else 0.0,
        "parallel.transport_bytes": counts["parallel.transport_bytes"] / runs,
        "parallel.serial_fallbacks": counts["parallel.serial_fallbacks"] / runs,
        "service.engine_ms_p50": 0.0,
        "service.overhead_ms_p50": 0.0,
        "service.router_hop_ms_p50": 0.0,
        "service.result_cache.hit_rate": 0.0,
        "service.admission.shed": 0.0,
        "bench.tracing_overhead_pct": tally.tracing_overhead_pct(),
    }
    if service is not None:
        metrics.update(service)
    return metrics

