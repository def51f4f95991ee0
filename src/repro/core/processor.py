"""The cycle-level clustered out-of-order processor model.

This is the simulator behind section 5 of the paper: an 8-way machine made
of four identical 2-way clusters (2 ALUs + 1 load/store unit + 1 FP unit
each, up to 56 in-flight instructions per cluster), with

* an idealised front end delivering 8 instructions/cycle to rename
  (:mod:`repro.frontend.fetch`), realistic 2Bc-gskew direction prediction
  and a *minimum misprediction penalty* per configuration (17 cycles for
  the conventional machine, 16 with write specialization alone, 16/18 for
  WSRS renaming implementations 1/2);
* cluster allocation **before** renaming (round-robin, RM or RC -
  :mod:`repro.allocation.policies`), with the allocation decision made
  once per instruction and kept across stall cycles;
* register renaming with optional write specialization
  (:mod:`repro.rename.renamer`), separate integer/FP physical files;
* per-cluster wake-up/select with oldest-first selection
  (:mod:`repro.core.issue_queue`), free intra-cluster fast-forwarding and
  a one-cycle inter-cluster forwarding delay (configurable - the
  fast-forwarding policies of section 4.3.1);
* Table 2 latencies, in-order address computation with conflict-checked
  load bypassing (:mod:`repro.core.lsq`), and the Table 3 memory
  hierarchy (:mod:`repro.memory.hierarchy`);
* in-order commit (8 wide) releasing previous physical mappings.

Wrong-path instructions are not simulated: a mispredicted branch stops
instruction delivery until ``resolution_cycle + minimum_penalty``, which is
the paper's own level of abstraction for the front end.

The main loop has three gears, chosen by the ``gear`` argument (the one
selector).  The reference stepper (``gear="reference"``,
:meth:`Processor.step`) advances one cycle at a time.  The *event-horizon*
gear (``gear="horizon"``) detects cycles where the machine provably does
nothing - commit idle, no scheduler entry awake, rename stalled on a
branch-penalty window, a full ROB/cluster, or an exhausted trace - and
jumps ``cycle`` straight to the next event (earliest scheduler wake-up,
the ROB head's completion, the rename-unblock cycle, a multiply/divide
unit release), bulk-charging the per-cycle stall counters for the skipped
range.  The default gear (``gear="specialized"``,
:mod:`repro.core.specialize`) compiles a run loop specialized to the
frozen configuration - constants baked in, per-cycle dispatch flattened,
the event-horizon jump inlined.  Its entry guards keep sanitized,
observed, ``rename_impl=1`` and paranoid processors on the horizon gear,
and it falls back mid-run when a guard condition (a deadlock-breaking
move) leaves the specialized envelope; :attr:`Processor.gear` reports
the gear that actually engaged.  Every statistic is bit-identical across
all three gears; see ``docs/architecture.md`` ("Performance") for the
argument.

Typical use::

    from repro.config import wsrs_rc
    from repro.core.processor import Processor
    from repro.trace.profiles import spec_trace

    proc = Processor(wsrs_rc(512), spec_trace("gzip", 200_000))
    stats = proc.run(warmup=50_000, measure=100_000)
    print(stats.ipc, stats.unbalancing_degree)
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional

from repro.allocation.policies import make_allocator
from repro.config import MachineConfig
from repro.core.issue_queue import ClusterScheduler
from repro.core.lsq import MemoryOrderQueue
from repro.core.specialize import (
    DEFAULT_GEAR,
    GEARS,
    build_specialized_runner,
)
from repro.core.stats import SimulationStats
from repro.core.uop import UNKNOWN_CYCLE, InFlightUop
from repro.errors import ConfigError, ReproError
from repro.frontend.fetch import FrontEnd
from repro.frontend.predictors import BranchPredictor, make_predictor
from repro.memory.hierarchy import MemoryHierarchy
from repro.trace.model import FP_CLASSES, OpClass, TraceInstruction

#: Abort if the machine makes no forward progress for this many pipeline
#: events (steps or event-horizon jumps; a reference-stepper event is one
#: cycle, so the threshold is unchanged for the per-cycle core).
_PROGRESS_LIMIT = 100_000

#: Horizon sentinel: any candidate event at or beyond this cycle is "never"
#: (matches the :data:`UNKNOWN_CYCLE` result-cycle sentinel of unissued
#: micro-ops so unissued ROB heads drop out of the min naturally).
_NO_EVENT = UNKNOWN_CYCLE


class DeadlockedPipeline(ReproError):
    """The simulated machine stopped making forward progress."""


class Processor:
    """One simulated machine instance bound to one trace."""

    def __init__(
        self,
        config: MachineConfig,
        trace: Iterable[TraceInstruction],
        predictor: Optional[BranchPredictor] = None,
        check_invariants: bool = True,
        sanitize: Optional[bool] = None,
        observe: bool = False,
        tracer=None,
        gear: str = DEFAULT_GEAR,
    ) -> None:
        config.validate()
        if gear not in GEARS:
            raise ConfigError(
                f"unknown gear {gear!r}; expected one of {GEARS}")
        self.config = config
        self.check_invariants = check_invariants
        # Implementation-1 renaming stages/recycles registers every cycle
        # even when nothing renames, so its free-list state is not
        # invariant across a dead-cycle window: the event horizon only
        # engages for the cycle-invariant implementation 2.
        self._jumps = gear != "reference" and config.rename_impl != 1
        #: Event-horizon instrumentation (diagnostics only - deliberately
        #: not part of :class:`SimulationStats`, whose counters stay
        #: bit-identical between the two cores).
        self.horizon_jumps = 0
        self.horizon_cycles_skipped = 0

        self.frontend = FrontEnd(
            trace, predictor or make_predictor("2bcgskew"))
        from repro.rename.renamer import Renamer

        self.renamer = Renamer(config)
        self.allocator = make_allocator(
            config.allocation_policy, config.num_clusters, config.seed)
        if config.uses_read_specialization and not self.allocator.wsrs_legal:
            raise ConfigError(
                f"policy {config.allocation_policy!r} ignores the WSRS "
                f"read constraints; use an RS-aware policy (RM, RC, ...)")

        self.memory = MemoryHierarchy(config.memory)
        self.memorder = MemoryOrderQueue()
        cluster = config.cluster
        self.schedulers = [
            ClusterScheduler(i, cluster.issue_width, cluster.num_alus,
                             cluster.num_lsus, cluster.num_fpus,
                             memorder=self.memorder)
            for i in range(config.num_clusters)
        ]
        self.stats = SimulationStats(config.num_clusters)

        num_regs = self.renamer.total_global_registers
        self._reg_result: List[int] = [0] * num_regs
        self._reg_cluster: List[int] = [-1] * num_regs
        self._reg_waiters: Dict[int, List[InFlightUop]] = {}

        self._rob: Deque[InFlightUop] = deque()
        self.cycle = 0
        self._seq = 0
        # Deadlock-move accounting: front-end slots still owed by moves
        # that exceeded an earlier cycle's budget, and the renamer's
        # cumulative move count at the last measurement reset (so the
        # measured slice reports only its own moves).
        self._move_debt = 0
        self._measured_moves_base = 0
        self._rename_blocked_until = 0
        self._waiting_branch: Optional[InFlightUop] = None
        self._pending_decision = None
        self._muldiv_busy_until = [0] * config.num_clusters
        self._latencies = dict(config.latencies)
        # forward_delay, precomputed into a num_clusters x num_clusters
        # table (row = producer cluster): the wake-up and bypass hot
        # loops index it instead of re-deriving the policy per operand.
        self._forward_table: List[List[int]] = [
            [config.forward_delay(producer, consumer)
             for consumer in range(config.num_clusters)]
            for producer in range(config.num_clusters)
        ]
        # Whether the multiply/divide unit is a trackable hazard at all
        # (private pipelined units never reject an IMULDIV, so the
        # schedulers run with an unlimited quota).
        self._muldiv_vetoed = (not config.pipelined_muldiv
                               or config.shared_muldiv)
        self._wsrs_mapping = None
        if config.uses_read_specialization:
            from repro.extensions.general_wsrs import make_mapping

            self._wsrs_mapping = make_mapping(config.num_clusters)
        self._int_phys = config.int_physical_registers
        self._int_subset = config.int_subset_size
        self._fp_subset = config.fp_subset_size

        self.stats.record_run_metadata(config.allocation_policy,
                                       self.allocator.seed)

        from repro.verify.sanitizer import (
            PipelineSanitizer,
            sanitize_from_env,
        )

        self.sanitizer: Optional[PipelineSanitizer] = None
        if sanitize_from_env(sanitize):
            from repro.verify.rules import verify_config

            verify_config(config)
            self.sanitizer = PipelineSanitizer(config, self.renamer)

        # Observability (repro.obs): CPI-stack cycle accounting, the
        # counter/histogram registry and the optional structured event
        # trace.  A pure reader - attached last so it sees the fully
        # built machine; None costs one attribute test per hook site.
        self.obs = None
        if observe or tracer is not None:
            from repro.obs.observer import Observer

            self.obs = Observer(self, tracer=tracer)

        # Third gear: the config-specialized stepper (repro.core.
        # specialize).  Built last so its entry guards see the fully
        # assembled machine; blocked processors (sanitized, observed,
        # rename_impl=1, paranoid WSRS checking) silently keep the
        # generic gears - the ``gear`` attribute reports what actually
        # engaged.  ``despecializations`` counts mid-run guard trips.
        # The stepper is a plain function called with ``self``, so the
        # processor holds no closure over itself (no reference cycle
        # keeping a finished machine alive until a full collection).
        self._specialized_run = None
        self.despecializations = 0
        if gear == "specialized":
            self._specialized_run = build_specialized_runner(self)
        self.gear = ("specialized" if self._specialized_run is not None
                     else self._generic_gear())

    def _generic_gear(self) -> str:
        """The gear the generic loop runs: horizon unless jumps are off."""
        return "horizon" if self._jumps else "reference"

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self, measure: int, warmup: int = 0) -> SimulationStats:
        """Simulate ``warmup`` then ``measure`` committed instructions.

        Warm-up trains the caches and the branch predictor without
        counting; statistics cover only the measured slice, as in the
        paper's methodology.  The run ends early (without error) if the
        trace is exhausted.
        """
        if warmup:
            self._run_until(self.stats.committed + warmup)
            self.stats.reset_measurement()
            self._measured_moves_base = self.renamer.deadlock_moves
            if self.obs is not None:
                self.obs.on_measurement_reset()
        self._run_until(self.stats.committed + measure)
        return self.stats

    def _run_until(self, committed_target: int) -> None:
        # Forward progress is measured in pipeline *events* (steps or
        # jumps), not raw cycles: one event-horizon jump can legally
        # advance the clock by hundreds of cycles (an L2 miss under a
        # full ROB), which a raw-cycle watchdog would misread as a hang.
        # On the reference stepper every event is one cycle, so the
        # threshold is exactly the historical cycle-based one.
        runner = self._specialized_run
        if runner is not None:
            if runner(self, committed_target):
                return
            # A specialization guard tripped (deadlock-breaking move):
            # the specialized stepper finished the trip cycle with
            # reference semantics and wrote all state back, so the
            # generic gears resume mid-run without divergence.  The
            # despecialization is permanent for this processor.
            self._specialized_run = None
            self.despecializations += 1
            self.gear = self._generic_gear()
        idle_events = 0
        last_committed = self.stats.committed
        fast = self._jumps
        while self.stats.committed < committed_target:
            if self.frontend.exhausted and not self._rob:
                break
            if not (fast and self._try_jump()):
                self.step()
            if self.stats.committed != last_committed:
                last_committed = self.stats.committed
                idle_events = 0
            else:
                idle_events += 1
                if idle_events > _PROGRESS_LIMIT:
                    raise DeadlockedPipeline(
                        f"no instruction committed for {idle_events} "
                        f"pipeline events at cycle {self.cycle}")

    def step(self) -> None:
        """Advance the machine by one cycle."""
        cycle = self.cycle
        self._commit(cycle)
        self._issue(cycle)
        self.renamer.begin_cycle()
        self._rename_and_dispatch(cycle)
        self.renamer.end_cycle()
        if self.sanitizer is not None:
            self.sanitizer.on_cycle_end(cycle)
        if self.obs is not None:
            self.obs.on_cycle_end(cycle)
        self.stats.cycles += 1
        self.cycle = cycle + 1

    # ------------------------------------------------------------------
    # event-horizon fast path
    # ------------------------------------------------------------------

    def _try_jump(self) -> bool:
        """Skip ahead to the next event when this cycle provably idles.

        A cycle is *dead* when every stage is a no-op apart from charging
        one stall counter: nothing commits (ROB empty or head incomplete),
        no scheduler entry wakes or can issue (entries already awake are
        tolerated when they are provably vetoed for the whole window),
        and rename is stalled for a reason that cannot clear before an
        event - a branch-penalty window, a full ROB, a full cluster (with
        the allocation decision already drawn), or an exhausted trace.  The machine state is then
        frozen until the *event horizon*: the earliest of the schedulers'
        next wake-ups, the ROB head's completion, the rename-unblock
        cycle and the multiply/divide unit releases.  Jumping there in
        one step and bulk-charging ``skipped`` cycles of the same stall
        counter reproduces the reference stepper's statistics bit for
        bit.

        Returns True when a jump happened (the caller skips ``step()``).
        Cycles whose rename outcome depends on mutable machinery - an
        allocation decision still to be drawn (an RNG consumer), a
        ``can_rename`` consultation (which may inject deadlock moves), or
        outstanding move debt - are never skipped.
        """
        cycle = self.cycle
        rob = self._rob
        if rob and rob[0].result_cycle <= cycle:
            return False  # commit work this cycle
        if self._move_debt:
            return False  # debt settling mutates counters cycle by cycle
        wake = _NO_EVENT
        for scheduler in self.schedulers:
            when = scheduler.next_wake_cycle()
            if when is not None:
                if when <= cycle:
                    return False  # wake-up work this cycle
                if when < wake:
                    wake = when
        config = self.config
        stats = self.stats

        # Mirror _rename_and_dispatch's stall priority exactly, including
        # its fetch behaviour: the branch/ROB stalls return before peek(),
        # so the detector must not fetch in those states either.
        if self._waiting_branch is not None \
                or cycle < self._rename_blocked_until:
            stall = "branch"
        elif len(rob) >= config.rob_size:
            stall = "rob"
        else:
            fetched = self.frontend.peek()  # the fetch rename would do
            if fetched is None:
                if not rob:
                    # End-of-trace drain complete: this is termination,
                    # not a dead window - step once so the run loop sees
                    # the exhausted front end and stops.
                    return False
                stall = "exhausted"
            elif self._pending_decision is None:
                return False  # allocation decision (RNG) due this cycle
            elif (self.schedulers[self._pending_decision[0]].inflight
                  >= config.cluster.max_inflight):
                stall = "cluster"
            else:
                return False  # rename can proceed (or consults can_rename)

        # Ready (already-woken) entries only force a live cycle when one
        # of them can actually issue.  Memory operations blocked by the
        # in-order address-computation rule are *parked* (never in the
        # ready list), and since nothing issues during a dead window,
        # ``issued_memory_ops`` is frozen and no release can fire for
        # every skipped cycle - so parked memory ops are ignorable here.
        # A multiply/divide left in the ready list by an issue-width
        # cutoff (or parked on a busy unit) only becomes issuable at the
        # unit's release cycle, which is already an event-horizon
        # candidate.  Nothing in the skipped range would mutate state:
        # the reference stepper's select over a dead window picks
        # nothing and parks nothing new.
        mem_next = self.memorder.issued_memory_ops
        muldiv_vetoed = self._muldiv_vetoed
        busy_until = self._muldiv_busy_until
        for scheduler in self.schedulers:
            lsus = scheduler.num_lsus
            fpus = scheduler.num_fpus
            alus = scheduler.num_alus
            if alus and scheduler._parked_muldiv and \
                    busy_until[self._muldiv_unit(scheduler.cluster_id)] \
                    <= cycle:
                return False  # unit free: a parked IMULDIV un-parks
            for _seq, uop in scheduler._ready:
                if uop.mem_index >= 0:
                    if lsus and uop.mem_index == mem_next:
                        return False  # head of memory order: issuable
                elif uop.inst.op in FP_CLASSES:
                    if fpus:
                        return False  # an FP unit will take it
                elif alus:
                    if muldiv_vetoed and uop.inst.op is OpClass.IMULDIV:
                        if busy_until[self._muldiv_unit(uop.cluster)] \
                                <= cycle:
                            return False  # unit free: issuable
                        # Busy unit: held until release (in horizon).
                    else:
                        return False  # plain ALU op: issuable

        horizon = wake
        if rob and rob[0].result_cycle < horizon:
            horizon = rob[0].result_cycle
        if cycle < self._rename_blocked_until < horizon:
            horizon = self._rename_blocked_until
        for busy in self._muldiv_busy_until:
            if cycle < busy < horizon:
                horizon = busy
        if horizon >= _NO_EVENT:
            # Nothing in flight will ever wake, complete or unblock: the
            # reference stepper would spin _PROGRESS_LIMIT dead cycles
            # and then raise; the fast path can prove it immediately.
            raise DeadlockedPipeline(
                f"event horizon found no future event at cycle {cycle} "
                f"(rename stalled on {stall}, nothing in flight can "
                f"wake or commit)")

        skipped = horizon - cycle
        if skipped > _PROGRESS_LIMIT:
            # The reference stepper would burn its whole progress budget
            # inside this window and give up; mirror its guard rather
            # than leaping a wedged machine.
            raise DeadlockedPipeline(
                f"no commit possible for {skipped} cycles at cycle "
                f"{cycle} (rename stalled on {stall} until the event "
                f"horizon at {horizon})")
        width = config.front_width
        if stall == "branch":
            stats.stall_branch_penalty += width * skipped
        elif stall == "rob":
            stats.stall_rob_full += width * skipped
        elif stall == "cluster":
            stats.stall_cluster_full += width * skipped
        if self.sanitizer is not None:
            self.sanitizer.on_cycle_skip(cycle, horizon)
        if self.obs is not None:
            self.obs.on_cycle_skip(cycle, horizon, stall)
        stats.cycles += skipped
        self.cycle = horizon
        self.horizon_jumps += 1
        self.horizon_cycles_skipped += skipped
        return True

    # ------------------------------------------------------------------
    # commit
    # ------------------------------------------------------------------

    def _commit(self, cycle: int) -> None:
        rob = self._rob
        renamer = self.renamer
        stats = self.stats
        sanitizer = self.sanitizer
        obs = self.obs
        budget = self.config.commit_width
        while budget and rob:
            uop = rob[0]
            if uop.result_cycle > cycle:
                break
            rob.popleft()
            if sanitizer is not None:
                sanitizer.on_commit(uop, cycle)
            if obs is not None:
                obs.on_commit(uop, cycle)
            if uop.pdest is not None:
                renamer.retire_write(uop.pdest)
            if uop.pold is not None:
                renamer.commit_free(uop.pold)
            if uop.inst.is_store:
                self.memorder.commit_store(uop.seq)
            self.schedulers[uop.cluster].inflight -= 1
            stats.committed += 1
            budget -= 1

    # ------------------------------------------------------------------
    # issue / execute
    # ------------------------------------------------------------------

    def _muldiv_unit(self, cluster: int) -> int:
        """Index of the multiply/divide unit serving ``cluster``.

        Section 4.1: as an alternative to replicating dividers on every
        cluster, "a divider can be shared among two adjacent clusters"
        with static arbitration; ``shared_muldiv`` models that sharing.
        """
        if self.config.shared_muldiv:
            return cluster // 2
        return cluster

    def _issue(self, cycle: int) -> None:
        # Memory-order hazards are handled entirely by parking (the
        # schedulers only ever hold the memory-order head in their ready
        # lists); the multiply/divide hazard reaches select as a quota.
        # An IMULDIV issued on cluster i raises the unit's busy_until
        # before cluster i+1 selects, so a shared pair arbitrates
        # in-cycle through the quota alone - no per-cycle claim set.
        tracked = self._muldiv_vetoed
        busy_until = self._muldiv_busy_until
        start = self._start_execution
        for scheduler in self.schedulers:
            if scheduler.is_empty():
                continue
            if tracked:
                unit = self._muldiv_unit(scheduler.cluster_id)
                quota = 1 if busy_until[unit] <= cycle else 0
            else:
                quota = None
            for uop in scheduler.select(cycle, quota):
                start(uop, cycle)

    def _start_execution(self, uop: InFlightUop, cycle: int) -> None:
        inst = uop.inst
        stats = self.stats
        latency = self._latencies[inst.op]

        if inst.is_load:
            forwarded_from = self.memorder.issue_load(inst.addr,
                                                      uop.mem_index)
            if forwarded_from is not None:
                latency = self.config.memory.l1.hit_latency
                stats.store_forwards += 1
            else:
                result = self.memory.access(inst.addr, cycle)
                latency = result.latency
                if not result.l1_hit:
                    stats.l1_misses += 1
                    if not result.l2_hit:
                        stats.l2_misses += 1
            stats.loads += 1
        elif inst.is_store:
            self.memorder.issue_store(uop.seq, inst.addr, uop.mem_index)
            result = self.memory.access(inst.addr, cycle, is_store=True)
            if not result.l1_hit:
                stats.l1_misses += 1
                if not result.l2_hit:
                    stats.l2_misses += 1
            stats.stores += 1

        uop.issue_cycle = cycle
        result_cycle = cycle + latency
        uop.result_cycle = result_cycle
        if self.sanitizer is not None:
            self.sanitizer.on_issue(uop, cycle)
        if self.obs is not None:
            self.obs.on_issue(uop, cycle)
        if inst.op == OpClass.IMULDIV:
            if not self.config.pipelined_muldiv:
                # non-pipelined: the unit is busy for the whole operation
                self._muldiv_busy_until[self._muldiv_unit(uop.cluster)] = \
                    result_cycle
            elif self.config.shared_muldiv:
                # pipelined but shared: the pair's unit accepts one
                # operation per cycle
                self._muldiv_busy_until[self._muldiv_unit(uop.cluster)] = \
                    cycle + 1
        stats.issued += 1
        stats.cluster_issued[uop.cluster] += 1

        pdest = uop.pdest
        if pdest is not None:
            self._reg_result[pdest] = result_cycle
            waiters = self._reg_waiters.pop(pdest, None)
            if waiters:
                producer_cluster = uop.cluster
                delay_row = self._forward_table[producer_cluster]
                for waiter in waiters:
                    if waiter.cluster == producer_cluster:
                        stats.bypass_edges_intra += 1
                    else:
                        stats.bypass_edges_inter += 1
                    usable = result_cycle + delay_row[waiter.cluster]
                    if usable > waiter.earliest_issue:
                        waiter.earliest_issue = usable
                    waiter.waiting_operands -= 1
                    if not waiter.waiting_operands:
                        self.schedulers[waiter.cluster].enqueue(
                            waiter, waiter.earliest_issue)

        if uop.mispredicted:
            self._rename_blocked_until = (result_cycle
                                          + self.config.mispredict_penalty)
            if self._waiting_branch is uop:
                self._waiting_branch = None

    # ------------------------------------------------------------------
    # rename / dispatch
    # ------------------------------------------------------------------

    def _rename_and_dispatch(self, cycle: int) -> None:
        stats = self.stats
        config = self.config
        renamer = self.renamer
        rob = self._rob
        schedulers = self.schedulers
        subset_of = renamer.subset_of_logical
        cap = config.cluster.max_inflight
        budget = config.front_width

        # Deadlock-breaking moves that overflowed an earlier cycle's
        # budget still owe front-end slots; settle the debt first.
        if self._move_debt:
            paid = min(budget, self._move_debt)
            self._move_debt -= paid
            budget -= paid
            stats.stall_deadlock_moves += paid
            if not budget:
                return

        while budget:
            if self._waiting_branch is not None \
                    or cycle < self._rename_blocked_until:
                stats.stall_branch_penalty += budget
                return
            if len(rob) >= config.rob_size:
                stats.stall_rob_full += budget
                return
            fetched = self.frontend.peek()
            if fetched is None:
                return
            inst = fetched.inst

            # The allocation decision is made once and survives stall
            # retries (a re-draw would quietly rebalance the workload).
            if self._pending_decision is None:
                occupancy = [s.inflight for s in schedulers]
                self._pending_decision = self.allocator.allocate(
                    inst, subset_of, occupancy)
            cluster, swapped = self._pending_decision

            if schedulers[cluster].inflight >= cap:
                stats.stall_cluster_full += budget
                return
            moves_before = renamer.deadlock_moves
            if not renamer.can_rename(inst.dest, cluster):
                stats.stall_no_register += budget
                return
            # Deadlock-breaking moves consume front-end slots.  Charge as
            # many as this cycle can absorb (leaving one slot for the
            # instruction that triggered them); the excess carries into
            # the next cycle's budget as debt.
            moves = renamer.deadlock_moves - moves_before
            if moves:
                charged = min(budget - 1, moves)
                budget -= charged
                self._move_debt += moves - charged
                stats.stall_deadlock_moves += charged

            self.frontend.pop()
            self._pending_decision = None
            psrc1, psrc2, pdest, pold = renamer.rename(inst, cluster)
            stats.deadlock_moves = (renamer.deadlock_moves
                                    - self._measured_moves_base)

            seq = self._seq
            self._seq = seq + 1
            mem_index = (self.memorder.register()
                         if inst.is_memory else -1)
            uop = InFlightUop(
                seq, inst, cluster, swapped, psrc1, psrc2, pdest, pold,
                dispatch_cycle=cycle, mispredicted=fetched.mispredicted,
                mem_index=mem_index)

            if pdest is not None:
                self._reg_result[pdest] = UNKNOWN_CYCLE
                self._reg_cluster[pdest] = cluster

            if self.sanitizer is not None:
                self.sanitizer.on_dispatch(uop, cycle)
            if self.obs is not None:
                self.obs.on_dispatch(uop, cycle)
            self._compute_wakeup(uop, cycle)
            if self.check_invariants and config.uses_read_specialization:
                self._check_read_legality(uop)

            rob.append(uop)
            schedulers[cluster].inflight += 1
            stats.dispatched += 1
            stats.record_allocation(cluster, swapped)
            if inst.is_branch:
                stats.branches += 1
                if fetched.mispredicted:
                    stats.mispredictions += 1
                    self._waiting_branch = uop
            budget -= 1
            if fetched.mispredicted:
                return  # nothing younger is delivered until resolution

    def _compute_wakeup(self, uop: InFlightUop, cycle: int) -> None:
        """Fill in the earliest issue cycle or register operand waiters."""
        reg_result = self._reg_result
        reg_cluster = self._reg_cluster
        forward_table = self._forward_table
        consumer = uop.cluster
        earliest = cycle + 1
        waiting = 0
        for psrc in (uop.psrc1, uop.psrc2):
            if psrc is None:
                continue
            result_cycle = reg_result[psrc]
            if result_cycle == UNKNOWN_CYCLE:
                waiting += 1
                self._reg_waiters.setdefault(psrc, []).append(uop)
            else:
                usable = (result_cycle
                          + forward_table[reg_cluster[psrc]][consumer])
                if usable > earliest:
                    earliest = usable
        uop.earliest_issue = earliest
        uop.waiting_operands = waiting
        if not waiting:
            self.schedulers[uop.cluster].enqueue(uop, earliest)

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def _subset_of_physical(self, preg: int) -> int:
        if preg < self._int_phys:
            return preg // self._int_subset
        return (preg - self._int_phys) // self._fp_subset

    def _check_read_legality(self, uop: InFlightUop) -> None:
        """Assert the WSRS read/write constraints.

        For the 4-cluster machine this is Figure 3's rule (the first
        operand port of cluster ``C(f, s)`` only reads subsets with the
        same top/bottom bit ``f``, the second port only subsets with the
        same left/right bit ``s``); other cluster counts check against the
        generalised mapping of :mod:`repro.extensions.general_wsrs`.
        """
        first = uop.first_port_operand
        second = uop.second_port_operand
        cluster = uop.cluster
        first_subset = (self._subset_of_physical(first)
                        if first is not None else None)
        second_subset = (self._subset_of_physical(second)
                         if second is not None else None)
        if not self._wsrs_mapping.legal(cluster, first_subset,
                                        second_subset):
            raise ReproError(
                f"WSRS violation: uop #{uop.seq} reads subsets "
                f"({first_subset}, {second_subset}) on cluster {cluster}")
        if uop.pdest is not None \
                and self._subset_of_physical(uop.pdest) != cluster:
            raise ReproError(
                f"write-specialization violation: uop #{uop.seq} result "
                f"in subset {self._subset_of_physical(uop.pdest)} from "
                f"cluster {cluster}")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def rob_occupancy(self) -> int:
        return len(self._rob)

    @property
    def rob_head(self) -> Optional[InFlightUop]:
        """The oldest in-flight micro-op (None when the window is empty)."""
        return self._rob[0] if self._rob else None

    def cluster_occupancies(self) -> List[int]:
        return [scheduler.inflight for scheduler in self.schedulers]


def simulate(
    config: MachineConfig,
    trace: Iterable[TraceInstruction],
    measure: int,
    warmup: int = 0,
    predictor: Optional[BranchPredictor] = None,
    check_invariants: bool = True,
    sanitize: Optional[bool] = None,
    observe: bool = False,
    tracer=None,
    gear: str = DEFAULT_GEAR,
) -> SimulationStats:
    """One-call convenience wrapper around :class:`Processor`."""
    processor = Processor(config, trace, predictor=predictor,
                          check_invariants=check_invariants,
                          sanitize=sanitize,
                          observe=observe, tracer=tracer, gear=gear)
    return processor.run(measure=measure, warmup=warmup)
