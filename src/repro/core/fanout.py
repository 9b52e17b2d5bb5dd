"""Warm-state fan-out: amortized execution of multi-seed samples.

The paper's methodology multiplies every experiment by N perturbation
seeds, so campaign throughput -- runs per second across a seed fan-out --
is the cost that matters, not single-run latency.  Job tuples that
carry the configuration *and* the checkpoint pay full setup N times
(pickle, IPC, unpickle, rebuild, restore); for short measurement windows
that redundant setup dominates.

This module makes the per-seed marginal cost approach the measurement
window alone:

- **ship shared state once per cell, not per job**: a
  :class:`SharedRunContext` (configuration, workload spec, run template,
  checkpoint) is pickled once per seed order, in the parent; every
  batch carries that blob (a memcpy) under the blob's hash, and a worker
  opens it only when the hash is not in its small resident cache; jobs
  shrink to bare seeds and are chunked into batches to amortize
  submission overhead;
- **restore once, clone per seed**: a context is opened a single time
  into a pristine machine (the checkpoint materialized, or the workload
  booted cold) that stays resident; each seed's machine -- and each pass
  of a live-sampled seed -- is a
  :meth:`~repro.system.machine.Machine.clone` of it, which copies the
  memory system's int-valued tables at C speed instead of rebuilding
  them from the checkpoint format;
- **one pool per campaign, cells pipelined**: :func:`run_cells` serves
  all cells from a single worker pool.  A cell is a generator that
  *orders* work -- its warm-up (:class:`WarmOrder`), then its seeds
  (:class:`SeedOrder`) -- and a finished warm-up *recruits* that cell's
  seed batches, so the next cell warms while this one measures.
  :func:`execute_shared` is the one-order case;
- **one sampler, one dispatch**: :class:`CellSampler` is the generator
  body of every cell -- ``run_space``'s, each campaign cell's and each
  cell a service worker holds leases of alike:
  resolve keys, serve what the store holds, order the warm-up and the
  pending seeds, persist each result -- and :func:`_simulate_resident`
  is the one place a run's modes pick its measurement routine.

Correctness gate: a cloned machine is bit-identical in behaviour to one
built by the cold path (same restore code for everything but the memory
tables, which are copied by value; same measurement protocol via
:func:`repro.system.simulation.measure_machine`), so fan-out samples are
digest-equal to sequential cold-start samples; the golden-determinism
suite and :mod:`tests.test_fanout` lock this.

Fault tolerance (see :func:`run_cells`): per-run ``SIGALRM`` wall-clock
timeouts inside workers, retry-on-worker-crash with a per-seed budget,
and immediate ``on_result`` delivery so interrupts lose only in-flight
work.  The ``repro.core.fanout`` logger reports pool (re)builds, crash
retries and exhausted budgets; per-task walls at DEBUG.
"""

from __future__ import annotations

import hashlib
import logging
import pickle
import signal
import time
from collections import Counter, deque
from collections.abc import Generator, Iterable
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

from repro.config import RunConfig, SystemConfig
from repro.core.request import (
    FIDELITY_FULL,
    RunRequest,
    WorkloadSpec,
    effective_config,
    format_failure,
    modes_of,
)
from repro.core.runner import RunFailure
from repro.system.machine import Machine
from repro.system.simulation import SimulationResult, measure_machine

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SharedRunContext:
    """Everything identical across the seeds of one sample.

    This is what a worker unpickles at most once per cell instead of
    once per job: batches carry its pickled blob and the blob's hash,
    the per-seed jobs only their seeds.

    A context is the fan-out twin of a :class:`repro.core.request.RunRequest`
    template: identity minus the per-seed ``run.seed``, plus the
    *materialized* checkpoint (requests carry only the ref).  Use
    :meth:`from_request` to build one from a template request.
    """

    config: SystemConfig
    spec: WorkloadSpec
    run: RunConfig
    checkpoint: object | None = None  # repro.system.checkpoint.Checkpoint
    #: how any per-seed warm-up leg executes ("timed" | "functional");
    #: see repro.core.ffwd
    warmup_mode: str = "timed"
    #: execution tier ("simple" | "ooo"); see repro.core.request
    fidelity: str = FIDELITY_FULL
    #: how the measured region is observed ("fixed" | "live"); see
    #: repro.core.livesample
    sampling_mode: str = "fixed"

    @classmethod
    def from_request(cls, request: RunRequest, checkpoint=None) -> "SharedRunContext":
        """The shared context of a sample templated by ``request``.

        ``checkpoint`` is the materialized checkpoint named by
        ``request.checkpoint_ref`` (the request itself carries only the
        ref; workers need the state).
        """
        return cls(
            config=request.config,
            spec=request.workload,
            run=request.run,
            checkpoint=checkpoint,
            **modes_of(request),
        )

    @property
    def effective(self) -> SystemConfig:
        """The configuration runs actually simulate (fidelity applied)."""
        return effective_config(self.config, self.fidelity)


class _Resident:
    """Worker-resident warm state for one shared context.

    The context is opened once, on first use, into a pristine machine --
    its checkpoint materialized, or its workload booted cold -- that is
    never run; every seed (and every live-sampling pass) starts from a
    :meth:`~repro.system.machine.Machine.clone` of it.  A pool worker
    keeps one per shipment key; in-process, a cell's
    :class:`CellSampler` owns one for as long as the sampler lives.

    Live-sampled cells also keep their survey here (``survey_memo``):
    the scout pass does not depend on the perturbation seed, so the
    first seed to need it runs it for all of them.
    """

    __slots__ = ("context", "_pristine", "survey_memo")

    def __init__(self, context: SharedRunContext) -> None:
        self.context = context
        self._pristine: Machine | None = None
        self.survey_memo: dict = {}

    def fresh_machine(self) -> Machine:
        """An independent pristine machine for one seed or pass."""
        if self._pristine is None:
            ctx = self.context
            if ctx.checkpoint is not None:
                self._pristine = ctx.checkpoint.materialize(ctx.effective)
            else:
                self._pristine = Machine(ctx.effective, ctx.spec.make())
        return self._pristine.clone()


#: per-worker cache: shipment key -> resident warm state, oldest first.
#: Cells reach a worker roughly in campaign order, so older keys belong
#: to finished cells; evicting costs at worst one more unpickle, never a
#: failure, because every batch carries its context blob.
_RESIDENT: dict[str, _Resident] = {}
_RESIDENT_WINDOW = 4

#: tasks kept in the pool per worker: one running, one queued behind it,
#: so a core never waits on the parent between tasks
_TASKS_PER_WORKER = 2

_SUSPECT, _ALONE = 1, 2  # _Task.ward of a crash retry


def _shipment(context: SharedRunContext) -> tuple[str, bytes]:
    """A context as its batches carry it: ``(key, pickled blob)``.  The key
    only has to name the blob it travels with, so it is the blob's hash."""
    blob = pickle.dumps(context, pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(blob).hexdigest(), blob


def _resident(key: str, blob: bytes) -> _Resident:
    """This worker's resident state for ``key``, unpickled on first sight."""
    resident = _RESIDENT.get(key)
    if resident is None:
        resident = _RESIDENT[key] = _Resident(pickle.loads(blob))
        while len(_RESIDENT) > _RESIDENT_WINDOW:
            del _RESIDENT[next(iter(_RESIDENT))]
    return resident


def _simulate_resident(resident: _Resident, run: RunConfig) -> SimulationResult:
    """One measured run from a resident template: the one run dispatch.

    The only place that picks a measurement routine from a run's modes;
    every seed of a sample -- pooled, in-process or leased by a service
    worker -- and every :func:`repro.core.request.execute_request` call
    ends here.
    """
    ctx = resident.context
    if ctx.sampling_mode == "live":
        from repro.core.livesample import measure_live

        # ``fresh_machine`` returns an independent machine per call --
        # exactly the factory contract live sampling needs for its
        # survey/pilot/allocation passes.
        return measure_live(
            resident.fresh_machine,
            ctx.effective,
            run,
            warmup_mode=ctx.warmup_mode,
            survey_memo=resident.survey_memo,
        )
    return measure_machine(
        resident.fresh_machine(),
        ctx.effective,
        run,
        warmup_mode=ctx.warmup_mode,
    )


class _RunTimeout(Exception):
    """Raised inside a worker when a run's wall-clock budget expires."""


def _run_guarded(
    resident: _Resident, run: RunConfig, timeout_s: float | None
) -> tuple[str, object]:
    """Execute one run with wall-clock timeout and error capture.

    Returns ``("ok", result)``, ``("timeout", message)``, or
    ``("error", message)``; workers run jobs on their main thread, so
    ``SIGALRM`` (where available) bounds a wedged simulation.
    """
    use_alarm = bool(timeout_s) and hasattr(signal, "SIGALRM")
    if use_alarm:

        def _expire(_signum, _frame):
            raise _RunTimeout()

        previous = signal.signal(signal.SIGALRM, _expire)
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return ("ok", _simulate_resident(resident, run))
    except _RunTimeout:
        return ("timeout", f"no result within {timeout_s:g}s wall clock")
    except Exception as exc:  # noqa: BLE001 -- attribute, don't kill the batch
        return ("error", format_failure(exc))
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


@dataclass(frozen=True)
class WarmOrder:
    """A cell asks for the shared warm checkpoint of its stated
    ``request`` (:meth:`~repro.core.request.RunRequest.warm_checkpoint`).

    Answered with the :class:`~repro.system.checkpoint.Checkpoint`; with
    the rendered error (a ``str``) when the warm-up raised; or with
    ``None`` when the worker building it died past the crash budget.
    The builder sees no store: persisting the answer is the cell's job,
    in the parent, which stays the store's only writer.
    """

    request: RunRequest


@dataclass(frozen=True)
class SeedOrder:
    """A cell asks for ``seeds`` to be run from ``resident``'s context.

    Answered with ``(results, failures)``; the two partitions cover
    every seed.  ``on_result(seed, result)`` fires in the parent as each
    run completes (persist there -- that is what makes interrupts
    resumable).  In-process, the seeds run on ``resident`` itself, so a
    caller that keeps one across its orders (a :class:`CellSampler`)
    opens its context once.  A pool ships only the context.
    """

    resident: _Resident
    seeds: list[int]
    on_result: Callable[[int, SimulationResult], None] | None = None

    def record(self, outcome: tuple, seed: int, status: str, payload) -> None:
        """File one finished run into ``outcome``'s (results, failures)."""
        if status == "ok":
            outcome[0][seed] = payload
            if self.on_result is not None:
                self.on_result(seed, payload)
        else:
            outcome[1].append(RunFailure(seed=seed, error=payload, kind=status))


def _run_warm(order: WarmOrder):
    """Task body of a :class:`WarmOrder` (worker or in-process)."""
    try:
        return order.request.warm_checkpoint()
    except Exception as exc:  # noqa: BLE001 -- fail the cell, not the campaign
        return format_failure(exc)


def _run_jobs(resident: _Resident, seeds, timeout_s: float | None):
    """One ``(seed, status, payload)`` triple per seed, as each run ends."""
    for seed in seeds:
        run = replace(resident.context.run, seed=seed)
        yield (seed, *_run_guarded(resident, run, timeout_s))


def _run_batch(key: str, blob: bytes, seeds: tuple, timeout_s: float | None) -> list:
    """Worker body: run one batch of seeds against a resident context
    (``blob`` is opened only when ``key`` is not resident here)."""
    return list(_run_jobs(_resident(key, blob), seeds, timeout_s))


def _timed(fn: Callable, *args) -> tuple[object, float]:
    """Worker entry: one task's value and the wall it took in the worker."""
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def _batches(seeds: list[int], n_jobs: int, batch_size: int | None) -> list[list[int]]:
    """Chunk seeds into submission batches.

    Default: about three batches per worker -- large enough to amortize
    future/IPC overhead, small enough that an unlucky batch does not
    serialize the tail of the sample.
    """
    if batch_size is None:
        batch_size = max(1, -(-len(seeds) // (n_jobs * 3)))
    return [seeds[i : i + batch_size] for i in range(0, len(seeds), batch_size)]


def run_cells(
    cells: Iterable[Generator],
    *,
    n_jobs: int = 1,
    timeout_s: float | None = None,
    retries: int = 1,
    batch_size: int | None = None,
) -> list:
    """Drive cell generators to completion; their return values, in order.

    A cell yields :class:`WarmOrder` / :class:`SeedOrder` objects, is
    sent each answer, and returns its outcome.  With ``n_jobs <= 1``
    every cell runs to completion in turn, in this process.  Otherwise
    one worker pool serves them all: orders become pool tasks, and the
    next cell starts whenever the pool runs short of queued work, so
    cell k+1 warms while cell k measures and only a few cells (and their
    checkpoints) are alive at once.

    Fault tolerance: per-run wall-clock timeouts are armed inside
    workers (``SIGALRM``); a run that raises or times out fails its seed
    alone.  A hard worker death breaks the pool: it is rebuilt, every
    task then in flight is charged one crash, and those still within
    ``retries`` run again one seed per task, beside each other only; a
    death among those sends them on *alone*, so the death that exhausts
    a budget is the guilty seed's own; queued tasks are untouched.
    Interrupts abandon in-flight work; what finished is with its cell.
    """
    if n_jobs <= 1:
        return [_run_inline(cell, timeout_s) for cell in cells]
    return _Pipeline(n_jobs, timeout_s, retries, batch_size).run(cells)


def _run_inline(cell: Generator, timeout_s: float | None):
    """Fulfil one cell's orders in this process, as it gives them.

    Seed orders run on the resident they carry, so the orders of one
    sampler -- an adaptive cell's batches, or a service worker's leased
    seeds -- open the context, and survey a live cell, once.
    """
    reply = None
    try:
        while True:
            order = cell.send(reply)
            start = time.perf_counter()
            if isinstance(order, WarmOrder):
                reply = _run_warm(order)
            else:
                reply = ({}, [])
                for triple in _run_jobs(order.resident, order.seeds, timeout_s):
                    order.record(reply, *triple)
            log.debug("in-process %s took %.3fs", type(order).__name__, time.perf_counter() - start)
    except StopIteration as stop:
        return stop.value


@dataclass(eq=False)
class _Cell:
    """Driver-side state of one started cell."""

    index: int
    gen: Generator
    order: object = None  # the order being fulfilled
    outcome: tuple | None = None  # a seed order's (results, failures) so far
    open: int = 0  # tasks of that order not yet resolved
    shipment: tuple = ()  # that order's (key, blob)


@dataclass(eq=False)
class _Task:
    cell: _Cell
    fn: Callable
    args: tuple
    seeds: tuple[int, ...] = ()  # empty: a warm-up
    ward: int = 0  # crash suspects: _SUSPECT runs beside suspects only, _ALONE beside nothing

    def __str__(self) -> str:
        what = f"seeds {list(self.seeds)}" if self.seeds else "warm-up"
        return f"cell {self.cell.index} {what}"


class _Pipeline:
    """One worker pool multiplexing the orders of many cells."""

    def __init__(self, n_jobs: int, timeout_s, retries: int, batch_size) -> None:
        self.n_jobs, self.timeout_s = n_jobs, timeout_s
        self.retries, self.batch_size = retries, batch_size
        self.pool: ProcessPoolExecutor | None = None
        self.ready: deque[_Task] = deque()
        self.inflight: dict[Future, _Task] = {}
        self.crashes: Counter = Counter()  # (cell index, seed | None) -> deaths
        self.out: dict[int, object] = {}

    def run(self, cells: Iterable[Generator]) -> list:
        cells = enumerate(cells)
        try:
            while self._fill(cells):
                self._harvest()
        except BaseException:
            # KeyboardInterrupt and friends: abandon in-flight work fast.
            self._shutdown(wait=False)
            raise
        self._shutdown(wait=True)
        return [self.out[index] for index in sorted(self.out)]

    def _fill(self, cells) -> bool:
        """Top the pool up, starting the next cell whenever the ready queue runs dry."""
        while len(self.inflight) < _TASKS_PER_WORKER * self.n_jobs:
            if not self.ready:
                started = next(cells, None)
                if started is None:
                    break
                self._advance(_Cell(*started), None)
                continue
            wards = {t.ward for t in self.inflight.values()} | {self.ready[0].ward}
            if self.inflight and (len(wards) > 1 or _ALONE in wards):
                break  # crash suspects share the pool only with their own kind
            task = self.ready.popleft()
            if self.pool is None:
                self.pool = ProcessPoolExecutor(max_workers=self.n_jobs)
                log.info("worker pool up: %d processes", self.n_jobs)
            try:
                self.inflight[self.pool.submit(_timed, task.fn, *task.args)] = task
            except BrokenProcessPool:
                # A worker died while the parent was busy with a cell: the
                # futures in flight bring the news to _harvest, which charges
                # them; with none in flight nobody is to blame, so rebuild.
                self.ready.appendleft(task)
                if self.inflight:
                    break
                self._shutdown(wait=False)
        return bool(self.inflight)

    def _shutdown(self, wait: bool) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=wait, cancel_futures=True)
            self.pool = None

    def _advance(self, cell: _Cell, reply) -> None:
        """Send ``reply`` to the cell and queue the tasks of its next order."""
        while True:
            try:
                order = cell.order = cell.gen.send(reply)
            except StopIteration as stop:
                # The cell -- its checkpoint and blob with it -- is dropped here.
                self.out[cell.index] = stop.value
                return
            if isinstance(order, WarmOrder):
                self.ready.append(_Task(cell, _run_warm, (order,)))
                return
            reply = cell.outcome = ({}, [])
            batches = _batches(order.seeds, self.n_jobs, self.batch_size)
            if batches:
                cell.shipment = _shipment(order.resident.context)
                cell.open = len(batches)
                self.ready.extend(self._batch_task(cell, batch) for batch in batches)
                return

    def _batch_task(self, cell: _Cell, seeds, ward: int = 0) -> _Task:
        seeds = tuple(seeds)
        return _Task(cell, _run_batch, (*cell.shipment, seeds, self.timeout_s), seeds, ward)

    def _harvest(self) -> None:
        done, _ = wait(self.inflight, return_when=FIRST_COMPLETED)
        if any(isinstance(f.exception(), BrokenProcessPool) for f in done):
            # A dead worker fails every future the pool still holds.
            done, _ = wait(self.inflight)
        dead = []
        for future in done:
            task = self.inflight.pop(future)
            if isinstance(future.exception(), BrokenProcessPool):
                dead.append(task)
                continue
            value, wall_s = future.result()
            log.debug("%s took %.3fs in its worker", task, wall_s)
            if not task.seeds:
                self._advance(task.cell, value)
                continue
            for triple in value:
                task.cell.order.record(task.cell.outcome, *triple)
            self._resolve(task.cell, 1)
        if dead:
            self._recover(dead)

    def _resolve(self, cell: _Cell, tasks: int) -> None:
        cell.open -= tasks
        if cell.open == 0:
            self._advance(cell, cell.outcome)

    def _recover(self, dead: list[_Task]) -> None:
        """A worker died hard.  Which task killed it is unknowable when
        several were in flight, so each is charged and retried one seed per
        task: first beside the other suspects only, and after a death there
        (never final) alone, which makes the next death attributable."""
        self._shutdown(wait=False)
        log.warning("worker died, retrying apart what was in flight: %s", "; ".join(map(str, dead)))
        retry = []
        for task in dead:
            cell, units = task.cell, task.seeds or (None,)  # a warm-up is one unit
            ward = _ALONE if task.ward else _SUSPECT
            survivors = []
            for unit in units:
                self.crashes[cell.index, unit] += 1
                deaths = self.crashes[cell.index, unit]
                if deaths <= self.retries or task.ward == _SUSPECT:
                    survivors.append(unit)
                elif unit is not None:
                    cell.order.record(cell.outcome, unit, "crash", f"worker crashed {deaths} times")
            if len(survivors) < len(units):
                log.error("%s: crash retry budget (%d) exhausted", task, self.retries)
            if task.seeds:
                retry.extend(self._batch_task(cell, [seed], ward) for seed in survivors)
                self._resolve(cell, 1 - len(survivors))
            elif survivors:
                retry.append(replace(task, ward=ward))
            else:
                self._advance(cell, None)
        self.ready.extendleft(reversed(retry))


def execute_shared(
    context: SharedRunContext,
    seeds: list[int],
    *,
    n_jobs: int = 1,
    timeout_s: float | None = None,
    retries: int = 1,
    batch_size: int | None = None,
    on_result: Callable[[int, SimulationResult], None] | None = None,
) -> tuple[dict[int, SimulationResult], list[RunFailure]]:
    """Execute ``seeds`` against one shared context with fault tolerance.

    The one-cell case of :func:`run_cells` (whose fault-tolerance
    contract applies): a single :class:`SeedOrder`, answered with
    ``(results, failures)``.
    """

    def cell():
        return (yield SeedOrder(_Resident(context), list(seeds), on_result))

    (outcome,) = run_cells(
        [cell()], n_jobs=n_jobs, timeout_s=timeout_s, retries=retries, batch_size=batch_size
    )
    return outcome


class CellSampler:
    """One cell's sample: perturbed runs of one configuration from the
    same initial conditions (paper sections 3.2.2 and 3.3), a batch of
    seeds at a time.

    This is the only sample executor: ``run_space`` drives one, a
    :class:`~repro.campaign.campaign.Campaign` one per grid cell, and a
    service :class:`~repro.service.worker.Worker` one per cell it holds
    leases of, all through :func:`run_cells`.  ``stated`` is the sample's protocol as
    asked for; what each seed runs and is keyed by is
    ``stated.seed_template(warm_start)``.  With a ``store``, stored runs
    are served instead of executed and each new result is persisted the
    moment it arrives (``journal`` is recorded beside it), so an
    interrupted sample resumes where it stopped; every store access of a
    sample happens here, in the parent.  ``checkpoint`` starts every run
    from explicit captured state instead.
    """

    def __init__(
        self, stated: RunRequest, store=None, *, warm_start: bool = False, checkpoint=None,
        **journal,
    ) -> None:
        if checkpoint is not None:
            if warm_start:
                raise ValueError("warm_start and an explicit checkpoint are exclusive")
            if store is not None:  # a digest is worth computing only for keys
                stated = replace(stated, checkpoint_ref=checkpoint.digest())
        self.stated = stated
        self.template = stated.seed_template(warm_start)
        self.store = store
        self.warm_start = warm_start
        self.checkpoint = checkpoint
        self.journal = {"workload": stated.workload.name, **journal}
        self.results: dict[int, SimulationResult] = {}
        self.failures: list[RunFailure] = []
        self.cached_hits = 0
        self.executed = 0
        # One resident per cell, built when a batch first executes: every
        # in-process batch clones the one machine it opens.
        self._resident: _Resident | None = None
        self._warm_failure: tuple[str, str] | None = None  # (error, kind)

    def collect(self, seeds: list[int]):
        """Sample ``seeds``: serve what the store holds, order the rest.

        A generator of fan-out orders (a whole cell for :func:`run_cells`,
        or one batch of a growing one); returns ``(results, failures)``
        of the seeds that had to execute.  The warm-up is ordered only by
        the first batch with something pending, and only when the store
        lacks the checkpoint -- a fully cached sample costs no simulation.
        """
        pending = list(seeds)
        keys: dict[int, str] = {}
        if self.store is not None:
            keys = {seed: self.template.with_seed(seed).run_key for seed in seeds}
            found = self.store.get_many([keys[seed] for seed in seeds])
            pending = []
            for seed in seeds:
                cached = found.get(keys[seed])
                if cached is None:
                    pending.append(seed)
                else:
                    self.results[seed] = cached
            self.cached_hits += len(seeds) - len(pending)
        if not pending:
            return {}, []
        if self._resident is None and self._warm_failure is None:
            checkpoint = (yield from self._warm()) if self.warm_start else self.checkpoint
            if self._warm_failure is None:
                self._resident = _Resident(SharedRunContext.from_request(self.template, checkpoint))
        if self._resident is None:
            done, fails = {}, [RunFailure(seed, *self._warm_failure) for seed in pending]
        else:
            done, fails = yield SeedOrder(
                self._resident, pending, on_result=partial(self._persist, keys)
            )
        self.executed += len(done)
        self.failures.extend(fails)
        return done, fails

    def _warm(self):
        """The sample's shared warm checkpoint: the store's, else ordered
        from the stated request and then stored."""
        stated, store = self.stated, self.store
        warm_key = stated.warm_checkpoint_key()
        checkpoint = store.get_checkpoint(warm_key) if store is not None else None
        if checkpoint is None:
            checkpoint = yield WarmOrder(stated)
            if checkpoint is None:
                self._warm_failure = ("warm-up worker crashed past the retry budget", "crash")
            elif isinstance(checkpoint, str):
                self._warm_failure = (checkpoint, "error")
            elif store is not None:
                store.put_checkpoint(warm_key, checkpoint)
        return checkpoint

    def _persist(self, keys: dict[int, str], seed: int, result: SimulationResult) -> None:
        self.results[seed] = result
        if self.store is not None:
            self.store.put(keys[seed], result, **self.journal)
