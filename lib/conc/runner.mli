(** Replay-based execution of multi-threaded programs.

    A {e schedule} is a sequence of decisions; replaying a schedule from a
    fresh setup is deterministic, which is what makes stateless model
    checking (see {!Explore}) possible. A run optionally carries a
    {!Fault.plan}: faults are interpreted against the run's deterministic
    step counters, so the pair (schedule, plan) reproduces a faulty
    execution byte-for-byte. *)

type decision = { thread : int; branch : int }
(** Step thread [thread]; when its next node is a [Choose], take alternative
    [branch] (otherwise [branch] must be [0]). *)

type schedule = decision list

(** What a setup yields: one program per thread, plus an optional observer
    invoked after every decision (used by the rely/guarantee checker to
    snapshot object state). *)
type program = {
  threads : Cal.Value.t Prog.t array;
  observe : (decision -> unit) option;
  on_label : (string -> unit) option;
      (** called with the label of every executed step (used by the metrics
          layer to charge location-dependent costs) *)
}

(** A durable program: the boot-epoch program, the {!Pcell.domain} holding
    its persistent cells, and a recovery-program factory — [recover ~epoch]
    is called when the [epoch]-th system crash fires (epochs count from 1)
    and yields the program of the post-crash era: typically each durable
    object's recovery procedure followed by a post-crash workload segment.
    Recovery programs run under the same context, so the history carries a
    {!Cal.Action.Crash} marker between the eras. *)
type durable = {
  boot : program;
  domain : Pcell.domain;
  recover : epoch:int -> program;
}

type outcome = {
  history : Cal.History.t;      (** the observable history of the run *)
  trace : Cal.Ca_trace.t;       (** the auxiliary trace [𝒯] of the run *)
  results : Cal.Value.t option array;
      (** per-thread return values ({e current-epoch} threads) *)
  complete : bool;              (** all (current-epoch) threads returned *)
  steps : int;                  (** decisions consumed *)
  schedule : schedule;          (** the schedule actually followed *)
  faults : Fault.plan;          (** the fault plan in force (empty if none) *)
  injected : Fault.plan;
      (** the plan faults that actually fired: a [Crash] whose thread was
          cut off before returning, a [Fail_step] whose matching step was
          forced, a [Stall] whose window opened, a [Crash_system] whose
          point the run reached *)
  fallible_steps : string list;
      (** labels of the {!Prog.Fallible} steps executed, in order — the
          forcible fault points of this run (used by
          {!Explore.exhaustive_with_faults_collect} to enumerate CAS failures) *)
  epochs : int;
      (** eras the run went through: [1 +] the number of system crashes
          that fired *)
}

(** The frontier after replaying a schedule: the decisions enabled next.
    Empty iff every thread has returned, crashed, or is blocked/stalled. *)
type frontier = decision list

(** {1 Resumable execution}

    A live execution over explicit mutable state. The incremental DFS of
    {!Par_explore} (behind every exhaustive entry point of {!Explore})
    descends the schedule tree one {!step} at a time — O(1) steps per tree
    edge instead of a whole-prefix replay per node. It re-establishes a
    branch point after backtracking by {!rollback} when the execution is
    {!undoable}, and otherwise by a single prefix replay from a fresh
    setup: a heap that plain closures mutate cannot be checkpointed
    generically, but one kept in {!Cell}s is undone from the context's
    trail. *)

type exec

val start : ?plan:Fault.plan -> setup:(Ctx.t -> program) -> unit -> exec
(** Build a fresh program (fresh context, fresh shared structures) with no
    decision applied yet. Raises [Invalid_argument] when the plan fails
    {!Fault.validate}, or when it contains a [Crash_system] (a system
    crash needs durable state to survive it — use {!start_durable}). *)

val start_durable :
  ?plan:Fault.plan -> setup:(Ctx.t -> durable) -> unit -> exec
(** Like {!start} for a {!durable} program. When the plan's next
    [Crash_system] point is reached (checked after every applied decision,
    and once at start for [at_step = 0]), the runner atomically: records a
    {!Cal.Action.Crash} marker in the history, wipes the domain's volatile
    cell contents ({!Pcell.crash}), discards every in-flight thread
    program, and installs [recover ~epoch] as the new thread array. The
    crash transition consumes no decision, so replays stay byte-for-byte
    deterministic: the pair (schedule, plan) still identifies the
    execution. Crash-during-recovery is expressed by a plan with several
    [Crash_system] points. *)

(** The two kinds of program a run can start from: the [setup] of a
    plain {!program}, or of a {!durable} one (whose plans may contain
    {!Fault.Crash_system}). Every entry point that serves both kinds
    ({!Sampler.run}, {!Explore.races_of}, {!Shrink}) takes one. *)
type target =
  | Program of (Ctx.t -> program)
  | Durable of (Ctx.t -> durable)

val start_target : ?plan:Fault.plan -> target -> exec
(** {!start} or {!start_durable}, by the target's kind. *)

val step : exec -> decision -> string
(** Apply one decision and return the label of the step taken. Raises
    [Invalid_argument] when the decision is not enabled (wrong thread
    state, branch out of range, or a thread the plan has crashed or
    stalled). *)

val frontier : exec -> frontier
(** The decisions enabled now. *)

val outcome : exec -> outcome
(** Snapshot the execution as an {!outcome} (cheap; the execution remains
    usable). *)

val steps_done : exec -> int
(** Decisions applied so far. *)

val head_label : exec -> int -> string option
(** The label of the thread's next step ([None] once it returned). *)

val ctx : exec -> Ctx.t
(** The execution's run context. *)

(** {2 Rollback} *)

val undoable : exec -> bool
(** Whether {!mark}/{!rollback} work on this execution. Decided once, at
    start, by the opt-in rule: the setup called {!Ctx.declare_undoable} and
    no structure it built called {!Ctx.forbid_undo}; the program has no
    [observe] and no [on_label] hook (they act outside the trail); and the
    target is not {!durable} (a system crash swaps the program and wipes
    persistent cells). [Workloads.Scenarios] declares its plain programs;
    the plain-ref structures (counter, register, the MS, dual and
    elimination queues, the abstract exchanger, every [Faulty] object and
    the durable structures), a structure built with a [Backoff] policy and
    an elimination array with a seeded slot choice forbid it. *)

type mark
(** A branch point of an undoable execution: the context's {!Ctx.mark},
    the thread states, the step counts and the whole fault state (per
    thread step counts, the global step, stall windows, fired faults,
    fallible labels and [Fail_step] counters). *)

val mark : exec -> mark
(** Save the current branch point. Raises [Invalid_argument] unless
    {!undoable}. *)

val rollback : exec -> mark -> unit
(** Restore the execution to a mark taken earlier on the current path: the
    execution continues exactly as it would have from there, byte for
    byte. The mark stays valid for further rollbacks. Raises
    [Invalid_argument] unless {!undoable}. *)

val last_step_accesses : exec -> (string list * string list) option
(** [(reads, writes)] recorded by the most recently applied decision
    (sorted, deduplicated), or [None] if the step ran uninstrumented code —
    see {!Ctx.step_accesses}. Valid until the next {!step}. The DPOR engine
    turns this into the step's dependency footprint. *)

val replay_target :
  ?plan:Fault.plan -> target -> schedule -> outcome * frontier
(** [replay_target t s] builds a fresh program of [t] and applies the
    decisions of [s] in order — the one strict replay, a thin wrapper over
    {!start_target}/{!step} preserving byte-for-byte replay determinism.
    Witnesses found by crash exploration replay with the same
    (schedule, plan) pair. Raises [Invalid_argument] when a decision is
    not enabled (wrong thread state, branch out of range, or a thread the
    plan has crashed or stalled) or when the plan fails {!Fault.validate}. *)

val replay :
  ?plan:Fault.plan -> setup:(Ctx.t -> program) -> schedule -> outcome * frontier
(** [replay ~setup] is [replay_target (Program setup)], kept only because
    the repository benchmark ([perfbench/bench.ml]) calls it. *)

val pp_decision : Format.formatter -> decision -> unit

val outcome_equal : outcome -> outcome -> bool
(** Byte-for-byte equality of everything an outcome records: history,
    auxiliary trace, per-thread results, completion, step/era counts,
    schedule, fault plan, fired faults and fallible-step labels. The
    replay-determinism contract of this module is exactly
    [outcome_equal (fst (replay ~plan ~setup o.schedule)) o] for any
    outcome [o] produced under [plan] — the regression tests and the
    {!Shrink} revalidation lean on it. *)
