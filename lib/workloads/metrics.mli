(** Simulated-time performance measurement.

    The simulator's base unit of time is one atomic step (one scheduler
    decision) under a uniformly random scheduler. On top of that, a
    contention cost model charges every CAS on a contended location extra
    time proportional to that location's recent access rate — the cache-
    line serialisation that a unit-cost interleaving simulator would
    otherwise miss entirely (a failed simulated CAS is free for everyone,
    a failed hardware CAS still bounces the line). With it, the benchmarks
    reproduce the {e shape} of the elimination-stack motivation (HSY 2004):
    the central stack's single hot line throttles throughput as threads are
    added, while elimination spreads accesses over [k] exchanger slots and
    completes two operations per rendezvous. *)

type result = {
  threads : int;
  steps : int;            (** scheduler decisions executed *)
  sim_time : float;       (** simulated time with contention costs *)
  ops_completed : int;    (** responses observed *)
  ops_succeeded : int;    (** operations whose result reports success *)
  ops_timed_out : int;    (** operations returning a [Value.timeout] result *)
  ops_cancelled : int;    (** operations returning a [Value.cancelled] result *)
  retries : int;          (** backoff pauses taken (failed attempts retried) *)
  ops_crashed : int;      (** threads crashed by the run's fault plan *)
  sys_crashes : int;      (** whole-system crashes fired ({!Conc.Fault.Crash_system}) *)
  recovery_steps : int;   (** post-crash recovery steps executed ("recover…" labels) *)
  throughput : float;     (** completed operations per 1000 simulated time units *)
}

type stack_impl =
  | Treiber_retry          (** Treiber stack, operations retried until done *)
  | Treiber_backoff        (** Treiber stack retrying under {!Structures.Backoff} *)
  | Elimination of int     (** elimination stack with [k] exchanger slots *)

val stack_throughput :
  impl:stack_impl -> threads:int -> fuel:int -> seed:int64 -> result
(** Each thread alternates [push]/[pop] as fast as the scheduler lets it,
    for [fuel] total decisions. *)

val stack_fault_sweep :
  impl:stack_impl -> threads:int -> crashes:int -> fuel:int -> seed:int64 -> result
(** {!stack_throughput} under an injected fault plan: [crashes] distinct
    threads crash at seeded points early in the run ({!Conc.Fault.Crash});
    the result reports the throughput the surviving threads still deliver
    and [ops_crashed] confirms how many crashes actually fired. Raises
    [Invalid_argument] if [crashes > threads]. *)

val durable_stack_crash_sweep :
  threads:int ->
  crashes:int ->
  recovery_cost:int ->
  fuel:int ->
  seed:int64 ->
  result
(** The B13 crash-recovery sweep: {!stack_throughput}'s workload on a
    {!Structures.Durable_treiber_stack} under [crashes] evenly spaced
    whole-system crashes ({!Conc.Fault.Crash_system}). After each crash,
    thread 0 runs the stack's recovery procedure with [recovery_cost] scan
    steps before rejoining the workload. [sys_crashes] reports the crashes
    that actually fired and [recovery_steps] the recovery work executed;
    throughput decays with both knobs — flush steps and recovery downtime
    are the price of durability. Raises [Invalid_argument] if
    [crashes < 0]. *)

val exchanger_success_rate :
  threads:int -> rounds:int -> fuel:int -> seed:int64 -> result
(** Each thread performs [rounds] exchanges; [ops_succeeded] counts the
    exchanges that found a partner. Success rates rise with the thread
    count — the concurrency-{e aware} behaviour. *)

val exchanger_timed_rate :
  ?plan:Conc.Fault.plan ->
  threads:int ->
  deadline:int ->
  fuel:int ->
  seed:int64 ->
  unit ->
  result
(** Each thread loops {!Structures.Exchanger.exchange_timed_body} forever,
    arming a fresh deadline [deadline] ticks ahead on its perceived clock
    each round, so every round ends in a swap ([ops_succeeded]) or a
    timeout ([ops_timed_out]) — never a stuck thread. Swap rates rise with
    the thread count and with [deadline]; a {!Conc.Fault.Delay} in [plan]
    makes the delayed thread's deadlines fire early, depressing its swap
    rate. Raises [Invalid_argument] if [deadline < 1]. *)

val sync_queue_handoffs :
  producers:int -> consumers:int -> rounds:int -> fuel:int -> seed:int64 -> result
(** Producers [put], consumers [take]; [ops_succeeded] counts
    rendezvous. *)

val pp_result : Format.formatter -> result -> unit

(** {1 Exploration engine cost}

    Cost counters of one exhaustive exploration, for the B12 engine
    comparison: the same state space explored by the seed's
    whole-prefix-replay engine ([`Replay]) and the incremental engine
    ([`Incremental]). [steps_executed] is the total number of program
    steps the engine actually executed — the replay engine's per-node
    whole-prefix replays versus the incremental engine's one step per tree
    edge plus its backtracking replays. *)

type explore_cost = {
  engine : string;
      (** "replay" | "incremental" | "parallel-N" | "dpor" *)
  explored_runs : int;    (** terminal outcomes delivered *)
  nodes : int;            (** schedule-tree nodes visited *)
  steps_executed : int;   (** program steps executed in total *)
  replayed_steps : int;   (** of which re-executed prefix steps *)
  sleep_pruned : int;     (** DPOR sleep-set skips *)
  races_found : int;      (** dependent step pairs the HB analysis flagged *)
  backtrack_points : int; (** source-DPOR backtrack insertions *)
  bound_hits : int;       (** edges cut by [preemption_bound] *)
  explore_bounded : bool;
      (** the bound actually cut an edge — the run set is an
          underapproximation *)
  domains_used : int;     (** worker domains the exploration ran on *)
  domains_requested : int;
      (** worker domains asked for; differs from [domains_used] when the
          hardware capped the request
          ({!Conc.Par_explore.effective_domains}) *)
  tasks_stolen : int;     (** donated subtree chunks claimed by workers *)
  explore_truncated : bool;
}

val explore_cost :
  engine:
    [ `Replay
    | `Incremental
    | `Parallel of int
    | `Dpor ] ->
  setup:(Conc.Ctx.t -> Conc.Runner.program) ->
  fuel:int ->
  ?max_runs:int ->
  ?preemption_bound:int ->
  unit ->
  explore_cost
(** Explore [setup] exhaustively with the chosen engine (outcomes are
    discarded) and report the cost counters. [`Parallel d] is the
    incremental engine
    spread over [d] worker domains ({!Conc.Par_explore}) — same runs and
    nodes, [replayed_steps] grows by the task-prefix replays. [`Dpor]
    runs {!Conc.Explore.exhaustive} with [~strategy:Dpor]
    ([preemption_bound] is ignored there — the strategy defines the run
    set). *)

val pp_explore_cost : Format.formatter -> explore_cost -> unit

(** {1 Sampled-checking cost}

    One data point of the B15 sampling benchmark: run one sampled check
    ({!Verify.Obligations.check_sampled} / [check_sampled_durable]) on one
    scenario with one (sampler kind, seed, budget) triple and report
    whether it detected a violation, how many runs that took, and how
    small the shrunk witness came out. B15 aggregates these points into
    detection rate and mean witness size per (kind, budget) cell. *)

type sampling_cost = {
  sc_scenario : string;
  sc_sampler : string;       (** {!Conc.Sampler.kind_to_string} *)
  sc_seed : int64;
  sc_budget : int;           (** run budget given to the check *)
  sc_runs : int;             (** runs actually executed (early exit) *)
  sc_detected : bool;
  sc_witness_len : int;      (** minimal witness schedule length; [0] if none *)
  sc_shrink_candidates : int;
  sc_shrink_steps_removed : int;
}

val sampling_cost :
  kind:Conc.Sampler.kind ->
  seed:int64 ->
  budget:int ->
  ?fault_bound:int ->
  Scenarios.t ->
  sampling_cost
(** Sampled check of one scenario. With [fault_bound] (default absent),
    the fault-sampling variant is used instead of the schedule-only one. *)

val sampling_cost_durable :
  kind:Conc.Sampler.kind ->
  seed:int64 ->
  budget:int ->
  Scenarios.durable ->
  sampling_cost
(** The durable analogue, sampling system crashes to the scenario's
    [d_max_crash_depth]. *)

val pp_sampling_cost : Format.formatter -> sampling_cost -> unit
