(** The modular verification method, end-to-end (§4–5).

    For an object [o] with view [𝔉_o] and specification [Spec_o], every
    execution must satisfy two obligations:

    + {b Spec}: the object's view of the logged auxiliary trace,
      [T_o = 𝔉_o(𝒯)], is accepted by [Spec_o] — the trace witnesses a legal
      behaviour;
    + {b Agreement}: the observable history agrees with the witness,
      [Hᶜ ⊑CAL T_o] for some completion [Hᶜ] — the trace actually explains
      what clients saw.

    Running both over the {e complete} set of interleavings of a bounded
    client program is the model-checking rendition of the paper's proof.
    For cross-validation, {!check_black_box} decides CAL directly on the
    history with {!Cal.Cal_checker}, ignoring the instrumentation — the
    two must agree on accept/reject.

    {b Parallel checking.} The exhaustive checks take [?domains]
    (default: the [CAL_EXPLORE_DOMAINS] environment variable, else [1]) to
    spread the exploration over OCaml 5 worker domains
    ({!Conc.Par_explore}): reports — runs, complete runs, problems,
    verdicts — are identical to the sequential check's. The knob is
    silently ignored when [max_runs] is set (a shared run budget admits a
    scheduling-dependent run subset, which would break report
    determinism), and the liveness and durable crash-sweep checks are
    deliberately sequential (DESIGN §2.11).

    {b Exploration strategies.} {!check_object} and {!check_black_box}
    take [?strategy] (default: the [CAL_EXPLORE_STRATEGY] environment
    variable parsed with {!Conc.Explore.strategy_of_string}, else
    {!Conc.Explore.Dfs}): [Dpor] runs the verdict-preserving source-DPOR
    reduction, [Preemption_bounded]/[Delay_bounded] run the bounded DFS
    — sound for bug-finding only. [?preemption_bound:b] is the [Dfs]
    path's spelling of [Preemption_bounded {bound = b}] (the same sweep,
    and the only bound the fault, durable and liveness checks take); off
    the [Dfs] path it is ignored, so the strategy alone defines the run
    set. Both go to the one sweep, {!Conc.Explore.exhaustive_collect}.
    Whichever spelling is used, the report's [exploration] says
    [bounded = true] exactly when the bound cut an edge, so
    [bounded = false] means the check was exhaustive.

    {b Faults.} The durable, liveness and sampled checks take
    [?fault_bound]; absent or [0] means fault-free, so each question has
    one entry point whatever the adversity. {!check_object_with_faults}
    is the exhaustive object check's fault sweep.

    {b Verdict cache.} The black-box checks ({!check_black_box} and
    {!check_durable}) take [?cache]
    (default: the [CAL_VERDICT_CACHE] environment variable): checker
    verdicts are memoized on the {e canonical} history
    ({!Cal.History.canonicalize}), shared across worker domains behind a
    sharded mutex table ({!Cal.Verdict_cache}), so schedules that
    interleave the same operations with the same concurrency structure pay
    for one checker run. Hits surface as
    {!Conc.Explore.stats.cache_hits} in the report's [exploration].
    Trace-based checks are never cached: their verdict also depends on the
    auxiliary trace, which the canonical key does not cover. *)

type problem = {
  schedule : Conc.Runner.schedule;
  plan : Conc.Fault.plan;
      (** the fault plan active in the failing run ([[]] for fault-free
          checks); replaying [schedule] under [plan] reproduces it *)
  message : string;
}

(** Reproduction metadata of a sampled check: re-running the same check
    with this sampler kind, seed and budget replays the identical run
    sequence, so a printed report alone suffices to reproduce a sampled
    failure (satellite of DESIGN §2.12). *)
type sampling = {
  s_kind : Conc.Sampler.kind;
  s_seed : int64;
  s_budget : int;  (** run budget the check was given *)
}

type report = {
  runs : int;            (** outcomes checked *)
  complete_runs : int;   (** outcomes in which every thread returned *)
  problems : problem list;  (** capped at 10 *)
  truncated : bool;
  exploration : Conc.Explore.stats option;
      (** engine cost counters of the underlying exploration — nodes
          visited, steps replayed on backtracking, DPOR counters — when the
          check ran on the exhaustive engine; for sampled checks the
          [sampled_runs]/[violations_found]/[shrink_*] counters are live
          instead ([None] for liveness reports, whose stats live in
          {!Conc.Explore.liveness_stats}) *)
  sampling : sampling option;
      (** [Some _] exactly for {!check_sampled} and
          {!check_sampled_durable} *)
}

val reconcile : Cal.History.t -> Cal.Ca_trace.t -> (Cal.History.t, string) result
(** [reconcile h t] completes the (possibly incomplete) history [h] using
    the trace [t]: a pending operation that appears in [t] receives the
    return value the trace committed to; a pending operation absent from
    [t] is dropped; a completed operation missing from [t], or a trace
    operation missing from [h], is an error. *)

val check_outcome :
  spec:Cal.Spec.t -> view:Cal.View.t -> Conc.Runner.outcome -> (unit, string) result
(** Both obligations for a single execution. *)

val check_object :
  ?domains:int ->
  ?strategy:Conc.Explore.strategy ->
  setup:(Conc.Ctx.t -> Conc.Runner.program) ->
  spec:Cal.Spec.t ->
  view:Cal.View.t ->
  fuel:int ->
  ?max_runs:int ->
  ?preemption_bound:int ->
  unit ->
  report
(** Exhaustively explore [setup] and check both obligations on every
    outcome. *)

val check_object_with_faults :
  ?delay_factors:int list ->
  ?domains:int ->
  setup:(Conc.Ctx.t -> Conc.Runner.program) ->
  spec:Cal.Spec.t ->
  view:Cal.View.t ->
  fuel:int ->
  ?max_runs:int ->
  ?preemption_bound:int ->
  ?max_plans:int ->
  fault_bound:int ->
  unit ->
  report
(** Both obligations over {!Conc.Explore.exhaustive_with_faults}: every
    interleaving of every fault plan of size [<= fault_bound] (crashes and
    forced CAS failures learned from a fault-free pass), including the
    fault-free plan itself. A crashed operation stays pending forever;
    the reconciliation obligation then demands that it either took effect
    (the trace committed to it) or vanished (it is dropped) — the
    crash-tolerant completion construction. Failing runs report the fault
    plan alongside the schedule, so they replay byte-for-byte via
    [Conc.Runner.replay ~plan schedule]. [truncated] is set when
    [max_plans] cut enumeration short. [delay_factors] additionally
    proposes clock-skew {!Conc.Fault.Delay} candidates (see
    {!Conc.Explore.exhaustive_with_faults}). *)

val check_liveness :
  ?delay_factors:int list ->
  setup:(Conc.Ctx.t -> Conc.Runner.program) ->
  fuel:int ->
  window:int ->
  ?max_runs:int ->
  ?preemption_bound:int ->
  ?max_plans:int ->
  ?fault_bound:int ->
  unit ->
  report
(** The liveness obligation, via {!Conc.Explore.liveness_with_faults}:
    every maximal run is classified by the bounded-fairness watchdog, and
    each {e livelocked} run — incomplete at [fuel], decisions still
    enabled, no thread left enabled-but-unscheduled for [window]
    consecutive decisions — becomes a problem (with its witness schedule
    and plan). Starved runs are excused as scheduler unfairness; deadlocks
    are the legitimate blocking behaviour of timed/blocking structures.
    [complete_runs] counts the runs in which every thread returned.

    [fault_bound] (default [0], fault-free) extends the sweep over every
    fault plan of at most that many faults — crashes, forced CAS
    failures, and clock delays when [delay_factors] is given — so no plan
    may drive the object into a fair non-terminating spin. [max_plans]
    caps the plan enumeration (recorded as truncation). *)

val check_black_box :
  ?domains:int ->
  ?strategy:Conc.Explore.strategy ->
  ?cache:bool ->
  setup:(Conc.Ctx.t -> Conc.Runner.program) ->
  spec:Cal.Spec.t ->
  fuel:int ->
  ?max_runs:int ->
  ?preemption_bound:int ->
  unit ->
  report
(** Decide CAL on each outcome's history alone (Definition 6 via
    {!Cal.Cal_checker}), without using the auxiliary trace. [cache]
    memoizes verdicts on the canonical history (module preamble). *)

val check_durable :
  ?checker:[ `Cal | `Lin ] ->
  ?cache:bool ->
  ?delay_factors:int list ->
  setup:(Conc.Ctx.t -> Conc.Runner.durable) ->
  spec:Cal.Spec.t ->
  fuel:int ->
  ?max_runs:int ->
  ?preemption_bound:int ->
  ?max_plans:int ->
  ?max_crash_depth:int ->
  ?fault_bound:int ->
  unit ->
  report
(** The durable obligation: explore every interleaving of the durable
    program under every {!Conc.Fault.Crash_system} plan enumerated by
    {!Conc.Explore.exhaustive_with_crashes} (crash point swept over every
    step boundary, nested to [max_crash_depth], default [1]) and decide
    durable CA-linearizability — with [~checker:`Lin], durable
    linearizability — black-box on each outcome's history.

    Black-box deliberately: the durable structures' explicit flush
    discipline means a {e peer's} flush can decide whether an operation
    pending at the crash persisted, so reconciling a self-reported trace
    would mis-attribute persistence (DESIGN §2.10). The history's crash
    markers partition it into eras; the checker requires each era to be
    explainable in sequence, with crash-pending operations either
    persisted (ordered before the next era) or lost (dropped). A failing
    run reports the (schedule, plan) witness, replayable byte-for-byte
    via {!Conc.Runner.replay_durable}.

    [fault_bound] (default [0]) crosses per-thread faults in: every plan
    of at most [fault_bound] thread crashes / forced CAS failures / clock
    delays ([delay_factors]) is explored on its own and combined with the
    system-crash sweep, so e.g. a thread dying mid-operation {e and} the
    whole system crashing later is covered. Thread crashes feed the
    checker's crash-tolerant mode ([?crashed]); system crashes drive the
    durable era rules. *)

(** {1 Sampled checking}

    Beyond fuel ~16–18 the exhaustive sweeps stop being practical; the
    two sampled checks, {!check_sampled} and {!check_sampled_durable},
    trade completeness for reach: run the program [budget] times under a
    randomized {!Conc.Sampler} scheduler (jointly sampling schedule ×
    fault plan × crash plan when given a [fault_bound], and always for
    durable programs) and check every outcome with the
    same obligations as the exhaustive checks. The loop exits early at
    the first violation; the witness is then minimized with
    {!Conc.Shrink} (unless [~shrink:false]) and rendered as a
    human-readable failure report — sampler kind, seed, budget, run
    index, the dejafu-style per-thread schedule string, the fault plan,
    the era-annotated history and the checker verdict — so the printed
    problem is a complete reproduction recipe. The raw minimal
    (schedule, plan) pair stays in {!problem} for programmatic replay,
    and the report's [sampling]/[exploration] fields carry the
    reproduction metadata and the sampling cost counters
    ([sampled_runs], [violations_found], [shrink_candidates],
    [shrink_steps_removed]).

    A sampled [ok] report is {e not} a proof: it only says no violation
    surfaced within the budget. *)

val check_sampled :
  ?kind:Conc.Sampler.kind ->
  ?seed:int64 ->
  ?shrink:bool ->
  ?delay_factors:int list ->
  ?fault_bound:int ->
  setup:(Conc.Ctx.t -> Conc.Runner.program) ->
  spec:Cal.Spec.t ->
  view:Cal.View.t ->
  fuel:int ->
  budget:int ->
  unit ->
  report
(** Both obligations ({!check_outcome}) over [budget] sampled runs.
    Defaults: [kind = Pct {d = 3}], [seed = 1L], [shrink = true].

    Without [fault_bound] every run is fault-free and the seed's RNG
    stream feeds the scheduler alone. With [fault_bound], a fault plan
    is drawn per run from a {!Conc.Sampler.plan_space} learned by a few
    probe walks first: up to [fault_bound] thread crashes / forced CAS
    failures / stalls / clock delays ([delay_factors]) per plan. The
    empty plan is in the support, so fault-free behaviour is covered
    too. [delay_factors] without [fault_bound] raises
    [Invalid_argument]. *)

val check_sampled_durable :
  ?checker:[ `Cal | `Lin ] ->
  ?kind:Conc.Sampler.kind ->
  ?seed:int64 ->
  ?shrink:bool ->
  ?delay_factors:int list ->
  ?fault_bound:int ->
  ?max_crash_depth:int ->
  setup:(Conc.Ctx.t -> Conc.Runner.durable) ->
  spec:Cal.Spec.t ->
  fuel:int ->
  budget:int ->
  unit ->
  report
(** The durable obligation ({!check_durable}'s black-box checker) over
    sampled runs whose plans additionally draw up to [max_crash_depth]
    (default [1]) {!Conc.Fault.Crash_system} points; [fault_bound]
    defaults to [0] (system crashes only). Witnesses replay via
    {!Conc.Runner.replay_durable}. *)

val ok : report -> bool
val pp_report : Format.formatter -> report -> unit
