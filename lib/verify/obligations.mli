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

    {b One entry point.} Every check is {!check} applied to a {!config}
    that names the {e program} (a plain or a durable
    {!Conc.Runner.target}), the {e obligation}, the {e search} (every
    interleaving a strategy explores, or runs of a randomized
    {!Conc.Sampler}) and the {e fault space}. Combinations no check
    serves raise [Invalid_argument]. The report carries the {e resolved}
    config, which {!pp_report} prints, so a report says which knobs
    produced it.

    {b Defaults and the environment.} {!check} resolves the config in one
    step, the only place this module reads {!Cal.Tuning}:
    - {b strategy}: an [Explicit] strategy is used as given; a [Default]
      one (plain [Dfs], or a scenario's [Preemption_bounded] bound) is
      replaced by the [CAL_EXPLORE_STRATEGY] environment variable when
      that parses ({!Conc.Explore.strategy_of_string}) to anything but
      [Dfs]. The fault, crash and liveness sweeps run the DFS (optionally
      preemption-bounded) and never read the variable. [Dpor] is the
      source-DPOR reduction (not yet history-complete, see
      {!Conc.Explore.strategy}); [Preemption_bounded]/[Delay_bounded]
      are the bounded DFS — sound for bug-finding only.
      The report's [exploration] says [bounded = true] exactly when a
      bound cut an edge, so [bounded = false] means the check was
      exhaustive.
    - {b domains}: absent means [CAL_EXPLORE_DOMAINS], else [1]. Worker
      domains spread the exploration ({!Conc.Par_explore}); reports —
      runs, complete runs, problems, verdicts — are identical to the
      sequential check's. Under [max_runs] the check runs on one domain
      (a shared run budget admits a scheduling-dependent run subset), and
      the liveness and crash sweeps are sequential by design (DESIGN
      §2.11), so they take no [domains].

    Every delivered run is checked, none memoized: a memo keyed on the
    canonical history ({!Cal.History.canonical_key}) would cost more per
    run than the {!Cal.Cal_checker} call it skips. *)

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
  s_budget : int;  (** run budget of the check *)
}

(** {1 The config} *)

type obligation =
  | Trace of { spec : Cal.Spec.t; view : Cal.View.t }
      (** both obligations above on every outcome ({!check_outcome}) *)
  | History of {
      spec : Cal.Spec.t;
      checker : [ `Cal | `Lin ];  (** [`Lin]: durable programs only *)
    }
      (** Definition 6: decide CAL — for a durable program durable CAL or
          durable linearizability — on the history alone, ignoring the
          instrumentation (the cross-check of [Trace]). On a durable
          program the crash markers partition the history into eras, each
          explainable in sequence, with crash-pending operations either
          persisted or lost, and threads crashed by the plan feed the
          checker's crash-tolerant mode (DESIGN §2.10). *)
  | Liveness of { window : int }
      (** the bounded-fairness watchdog ({!Conc.Explore.liveness}): each
          {e livelocked} run — incomplete at [fuel], decisions still
          enabled, no thread left enabled-but-unscheduled for [window]
          consecutive decisions — is a problem. Starved runs are excused
          as scheduler unfairness; deadlocks are the legitimate behaviour
          of timed/blocking structures. *)

(** Whether the environment may replace the strategy (module preamble). *)
type strategy =
  | Default of Conc.Explore.strategy
  | Explicit of Conc.Explore.strategy

type search =
  | Exhaustive of {
      strategy : strategy;
      domains : int option;
      max_runs : int option;
          (** cap on explored runs (per plan in a fault sweep), recorded as
              truncation *)
    }
  | Sampled of { sampling : sampling; shrink : bool }
      (** see {!section-sampled} *)

type faults = {
  fault_bound : int option;
      (** [Some b]: sweep (or, sampled, draw) fault plans of at most [b]
          thread crashes / forced CAS failures / clock delays, the empty
          plan included. The liveness and crash sweeps read [None] as
          [Some 0]; a sampled plain check with [None] draws no plan, so
          the seed's RNG stream feeds the scheduler alone *)
  delay_factors : int list option;
      (** also propose clock-skew {!Conc.Fault.Delay} faults with these
          factors (each [>= 2]) *)
  max_plans : int option;
      (** cap on the exhaustive plan enumeration (smallest plans first),
          recorded as truncation *)
  max_crash_depth : int option;
      (** nesting of {!Conc.Fault.Crash_system} points (crash during
          recovery) for durable programs, default [1] *)
}

type config = {
  target : Conc.Runner.target;
  obligation : obligation;
  search : search;
  fuel : int;  (** decisions per run *)
  faults : faults;
}

val exhaustive : search
(** [Exhaustive { strategy = Default Dfs; domains = None; max_runs = None }]. *)

val no_faults : faults
(** Every field [None]. *)

(** {1 Checking} *)

type report = {
  runs : int;            (** outcomes checked *)
  complete_runs : int;   (** outcomes in which every thread returned *)
  problems : problem list;  (** capped at 10 *)
  truncated : bool;
  exploration : Conc.Explore.stats option;
      (** cost counters of the exploration (nodes, replayed steps, DPOR
          and parallel counters), or of the sampling ([sampled_runs],
          [violations_found], [shrink_*]); [None] for liveness reports *)
  config : config;
      (** resolved: the strategy [Explicit], [domains] set, defaulted
          fault fields filled in *)
}

val check : config -> report
(** Check the obligation on every run the search delivers, under every
    plan of the fault space. Served:
    - exhaustively: a plain program's [Trace] obligation (with a
      [fault_bound], over {!Conc.Explore.exhaustive_with_faults_collect}: a
      crashed operation stays pending forever, so reconciliation demands
      that it either took effect or vanished), its fault-free [`Cal]
      [History] obligation, its [Liveness] obligation, and a durable
      program's [History] obligation over every
      {!Conc.Fault.Crash_system} plan of
      {!Conc.Explore.exhaustive_with_crashes};
    - sampled: a plain program's [Trace] obligation, and a durable
      program's [History] obligation (its plans always draw system
      crashes).

    Anything else raises [Invalid_argument], as do [delay_factors]
    without [fault_bound], [max_plans] outside an exhaustive fault, crash
    or liveness sweep, [max_crash_depth] on a plain program, [domains] on
    the liveness or crash sweep, and [Dpor]/[Delay_bounded] on a fault,
    crash or liveness sweep. Failing runs report their (schedule, plan)
    pair, which replays byte-for-byte via {!Conc.Runner.replay_target}. *)

(** {2:sampled Sampled checking}

    Beyond fuel ~16–18 the exhaustive sweeps stop being practical; a
    [Sampled] search trades completeness for reach: [s_budget] runs under
    the [s_kind] sampler seeded with [s_seed] (jointly sampling schedule ×
    fault plan × crash plan from a {!Conc.Sampler.plan_space} learned by a
    few probe walks, given a [fault_bound] and always for durable
    programs), each checked with the same obligations as the exhaustive
    checks. The loop exits at the first violation; its witness is
    minimized with {!Conc.Shrink} (unless [shrink = false]) and rendered
    as a failure report — sampler kind, seed, budget, run index, the
    dejafu-style per-thread schedule string, the racing step pairs, the
    fault plan, the era-annotated history and the checker verdict — that
    is a complete reproduction recipe. The raw minimal (schedule, plan)
    pair stays in {!problem}, and the report's [exploration] carries the
    sampling cost counters ([sampled_runs], [violations_found],
    [shrink_candidates], [shrink_steps_removed]).

    A sampled [ok] report is {e not} a proof: it only says no violation
    surfaced within the budget. *)

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
(** The exhaustive [Trace] check as a function of its old arguments, kept
    only because the repository benchmark ([perfbench/bench.ml]) calls it.
    [?strategy] is [Explicit]; [?preemption_bound:b] means
    [Preemption_bounded {bound = b}] on the [Dfs] strategy, and is
    ignored on any other. *)

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
(** The exhaustive [`Cal] [History] check, kept for the same reason and
    with the same argument mapping as {!check_object}. [?cache] is
    accepted and ignored: no exhaustive check keeps a verdict cache, and
    the argument stays only because [perfbench/bench.ml] passes it. *)

val reconcile : Cal.History.t -> Cal.Ca_trace.t -> (Cal.History.t, string) result
(** [reconcile h t] completes the (possibly incomplete) history [h] using
    the trace [t]: a pending operation that appears in [t] receives the
    return value the trace committed to; a pending operation absent from
    [t] is dropped; a completed operation missing from [t], or a trace
    operation missing from [h], is an error. *)

val check_outcome :
  spec:Cal.Spec.t -> view:Cal.View.t -> Conc.Runner.outcome -> (unit, string) result
(** Both obligations for a single execution. The result, message
    included, is that of {!Cal.Spec.explain_rejection}, then {!reconcile},
    then {!Cal.Agreement.check} on the completion; the history is scanned
    once and the completion is never rebuilt as a history. *)

val ok : report -> bool

val pp_report : Format.formatter -> report -> unit
(** The verdict line, followed by the problems, if any. The verdict line
    names the resolved config in brackets: program kind, obligation,
    search (strategy and domains, or sampler, seed and budget),
    fuel and fault space. *)
