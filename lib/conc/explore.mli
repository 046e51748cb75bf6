(** Systematic exploration of interleavings.

    Exhaustive exploration enumerates {e every} schedule of a bounded
    program (stateless model checking by replay): the paper's claims are
    checked over the complete set of interleavings of each client program.
    Random runs, for programs too large to exhaust and for benchmarking,
    are {!Sampler.run}'s ([~kind:Random_walk] is the uniform one).

    Each question has one entry point: {!exhaustive} (strategy-
    parameterised), {!check_all} (first failure), the fault and crash
    sweeps, the liveness watchdog, and {!races_of} for a witness.
    Every exhaustive entry point runs one engine, the incremental DFS of
    {!Par_explore}: it keeps one live execution
    ({!Runner.start}/{!Runner.step}) and descends the schedule tree one
    step per edge. It re-establishes a branch point after backtracking by
    {!Runner.rollback} for an undoable program (one that declared
    {!Ctx.declare_undoable} and that nothing opted out, see
    {!Runner.undoable}) — O(nodes) program steps in total — and by a
    single prefix replay otherwise — O(runs × depth). Both are against
    O(nodes × depth) for a whole-prefix replay at every node (the seed
    engine, kept as {!exhaustive_via_replay} for cross-checks and
    benchmarks). Reductions of the tree are explicit {!strategy} values:
    source-DPOR (meant to preserve every history, with two known gaps,
    see {!strategy}) and the preemption/delay-bounded searches, which are
    the same DFS with a schedule bound.

    {b Parallel exploration.} Every exhaustive entry point takes
    [?domains] (default [1]): with [domains >= 2] the schedule tree is
    explored by that many OCaml 5 worker domains with dynamic work
    stealing — the tree starts as one task and busy workers donate the
    remaining branches of their shallowest open DFS node whenever a
    worker is idle, recursively, so load balances itself whatever the
    tree's shape ({!Par_explore}, DESIGN §2.11). Every task owns a
    contiguous interval of the canonical DFS leaf order and results are
    merged in rank order, so verdicts, witnesses and run counts match
    the sequential engine exactly (only [replayed_steps] grows, by the
    task-prefix replays) — except under [max_runs], where the shared run
    budget admits a scheduling-dependent run subset. Callbacks run
    concurrently from several domains; use the [_collect] variants (one
    accumulator per task, merged in rank order) unless the callback is
    thread-safe. *)

type stats = Engine.stats = {
  runs : int;           (** terminal outcomes delivered to the callback *)
  truncated : bool;     (** stopped early by [max_runs] (or [max_plans]) *)
  max_steps : int;      (** longest schedule seen *)
  nodes : int;          (** schedule-tree nodes visited *)
  replayed_steps : int;
      (** program steps re-executed to re-establish branch points after
          backtracking, including the parallel front's task-prefix replays.
          An undoable program backtracks by rollback, which replays
          nothing: only its task prefixes count. (For
          {!exhaustive_via_replay}: every step it executed, since it
          replays the whole prefix at every node.) *)
  sleep_pruned : int;
      (** sibling decisions skipped by the DPOR engine's sleep sets *)
  races_found : int;
      (** direct races detected by the DPOR engine's vector-clock analysis
          ([0] for the full DFS) *)
  backtrack_points : int;
      (** threads added to backtrack sets by source-set race reversal *)
  bound_hits : int;
      (** schedule-tree edges cut by a preemption/delay bound (each
          counted once) *)
  bounded : bool;
      (** a schedule bound actually cut at least one edge: the run set is
          an honest underapproximation (sound for bug-finding only).
          [false] means the sweep was exhaustive, whichever strategy or
          [preemption_bound] produced it *)
  tasks_stolen : int;
      (** donated subtree chunks claimed from the parallel pool ([0] for
          the sequential engine) *)
  domains_used : int;   (** worker domains the search ran on *)
  domains_requested : int;
      (** worker domains the caller asked for; [domains_used <
          domains_requested] means {!Par_explore.effective_domains}
          capped the request at the hardware's core count *)
  sampled_runs : int;
      (** randomly sampled executions ({!Sampler}) delivered; always [0]
          straight out of the exhaustive engine — patched in by
          {!Verify.Obligations.check}'s sampled search *)
  violations_found : int;
      (** sampled runs on which the checked obligation failed (with
          early-exit sampling this is [0] or [1]) *)
  shrink_candidates : int;
      (** candidate (schedule, plan) replays the delta-debugging shrinker
          ({!Shrink}) tried while minimizing a sampled counterexample *)
  shrink_steps_removed : int;
      (** schedule decisions the shrinker removed from the original
          failing run to reach the minimal witness *)
}

val empty_stats : stats

val merge_stats : stats -> stats -> stats
(** Counters sum, [truncated] ors, [max_steps]/[domains_used]/
    [domains_requested] max. *)

(** {1 Exhaustive sweeps}

    One sweep, {!exhaustive} (with {!exhaustive_collect}), answers every
    exhaustive question; what it explores is an explicit {e strategy}
    argument (default [Dfs], the full incremental DFS):

    - {!Dpor}: source-DPOR over the vector-clock happens-before relation
      ({!Deps}/{!Dpor}) — explores one interleaving per Mazurkiewicz trace
      of the over-approximated dependence, and is meant to give every
      pruned schedule a delivered equivalent with a byte-identical
      history. It does {e not} yet: against the full DFS's set of
      canonical histories it misses some (at fuel 8 on 20 of the 25
      [Workloads.Scenarios.all] scenarios, and at their own fuel on
      [elim-stack-push-pop-k1], its [-abstract] twin and
      [dual-queue-two-consumers]), for two reasons. A run cut at the fuel
      bound never sees a race with a step past the cut, so no backtrack
      point is added for it. A guard that keeps a thread blocked records
      no footprint, so the step that blocks a waiter never races with it.
      The ROADMAP's first item ("DPOR drops histories") has the
      measurements and the fix; until it lands, treat a [Dpor] verdict as
      bug-finding evidence, not a proof.
    - {!Preemption_bounded}/{!Delay_bounded}: the incremental DFS with a
      schedule-cost bound ({!Engine.cost_model}): it delivers exactly the
      full DFS's runs of cost at most [bound], in the same (DFS) order,
      with the same work stealing. Honest {e underapproximations}, sound
      for bug-finding; stats report [bounded = true] exactly when the
      bound cut an edge, so [bounded = false] means the sweep was
      exhaustive.

    DPOR composes with the parallel front by root-splitting: the root
    frontier is fully expanded (a superset of any backtrack set) and each
    root decision becomes one rank-ordered task, applied identically at
    [domains = 1] — so reports are byte-identical across domain counts by
    construction.

    [?preemption_bound:b] is shorthand for
    [~strategy:(Preemption_bounded {bound = b})], the same sweep; it
    combines only with [Dfs] (any other [?strategy] raises
    [Invalid_argument]). The single-plan durable, first-failure and
    liveness sweeps take only this shorthand. *)

type strategy =
  | Dfs  (** the full incremental DFS: every schedule, no reduction *)
  | Dpor
      (** source-DPOR: one run per trace of the dependence relation; not
          yet history-complete (see above) *)
  | Preemption_bounded of { bound : int }
      (** at most [bound] preemptive context switches per run *)
  | Delay_bounded of { bound : int }
      (** at most [bound] deviations from the default continuation *)

val strategy_of_string : string -> strategy option
(** Parse ["dfs"], ["dpor"], ["preemption:N"] / ["preempt:N"], ["delay:N"]
    (case-insensitive); [None] on anything else. The inverse of
    {!strategy_to_string}. *)

val strategy_to_string : strategy -> string

val exhaustive :
  ?plan:Fault.plan ->
  ?strategy:strategy ->
  ?domains:int ->
  setup:(Ctx.t -> Runner.program) ->
  fuel:int ->
  ?max_runs:int ->
  ?preemption_bound:int ->
  f:(Runner.outcome -> unit) ->
  unit ->
  stats
(** [exhaustive ~setup ~fuel ~f ()] calls [f] on the outcome of every
    maximal schedule the [strategy] (default [Dfs]) explores: one in which
    every thread returned, or which reached [fuel] decisions (the outcome
    then has pending operations). [max_runs] (default unlimited) aborts a
    blow-up; the result notes truncation. It is a shared run budget:
    combine it with [domains = 1] when the exact run {e set} must be
    deterministic.

    [preemption_bound] (default unlimited) restricts the search to
    schedules with at most that many {e preemptions} — context switches
    away from a thread that could still run (CHESS-style iterative context
    bounding, Musuvathi & Qadeer). Most concurrency bugs manifest within
    very few preemptions, so a small bound gives a dramatically smaller yet
    highly effective search; it is an underapproximation, and the stats
    say so: [bounded = true] with the cut edges in [bound_hits] whenever
    the bound cut the tree. It is shorthand for
    [~strategy:(Preemption_bounded {bound})]; passing both raises
    [Invalid_argument].

    [plan] (default none) runs every schedule under that {!Fault.plan}:
    crashed threads contribute no further decisions, so the faulty search
    space is a (usually much smaller) sibling of the fault-free one.

    [domains] (default [1]) spreads the search over that many worker
    domains (module preamble); [f] then runs concurrently and must be
    thread-safe — or use {!exhaustive_collect}. *)

val exhaustive_collect :
  ?plan:Fault.plan ->
  ?strategy:strategy ->
  ?domains:int ->
  setup:(Ctx.t -> Runner.program) ->
  fuel:int ->
  ?max_runs:int ->
  ?preemption_bound:int ->
  init:(unit -> 'acc) ->
  f:('acc -> Runner.outcome -> unit) ->
  unit ->
  stats * 'acc array
(** {!exhaustive} with per-task accumulators: [init] runs once per
    work-stealing task (once in total when [domains = 1] under a DFS
    strategy; once per root decision under [Dpor]) and [f] only ever
    touches its own task's accumulator, so no callback synchronisation is
    needed. The accumulators come back in canonical rank order — folding
    them left visits the delivered outcomes in exactly the sequential
    delivery order, at any domain count. *)

val exhaustive_strategy_collect :
  ?plan:Fault.plan ->
  strategy:strategy ->
  ?domains:int ->
  setup:(Ctx.t -> Runner.program) ->
  fuel:int ->
  ?max_runs:int ->
  init:(unit -> 'acc) ->
  f:('acc -> Runner.outcome -> unit) ->
  unit ->
  stats * 'acc array
(** {!exhaustive_collect} with a required [strategy]: an alias kept only
    because the repository benchmark ([perfbench/bench.ml]) calls it. *)

val exhaustive_via_replay :
  ?plan:Fault.plan ->
  setup:(Ctx.t -> Runner.program) ->
  fuel:int ->
  ?max_runs:int ->
  ?preemption_bound:int ->
  f:(Runner.outcome -> unit) ->
  unit ->
  stats
(** The seed's stateless engine: a whole-prefix {!Runner.replay} at every
    DFS node. Delivers exactly the same outcomes in exactly the same order
    as sequential {!exhaustive}; kept as the reference
    implementation for cross-checking and for the B12 before/after cost
    comparison ([replayed_steps] counts every program step it executes). *)

val check_all :
  ?plan:Fault.plan ->
  ?domains:int ->
  setup:(Ctx.t -> Runner.program) ->
  fuel:int ->
  ?max_runs:int ->
  ?preemption_bound:int ->
  p:(Runner.outcome -> bool) ->
  unit ->
  (stats, Runner.outcome * stats) result
(** [check_all ~setup ~fuel ~p ()] explores exhaustively and returns
    [Error (o, _)] for the first outcome violating [p], short-circuiting
    the search. [truncated] in the returned stats means the [max_runs]
    budget capped the search, never that a counterexample stopped it — an
    [Error] with [truncated = false] is a definitive refutation, an [Ok]
    with [truncated = true] is inconclusive.

    With [domains >= 2] the witness is still deterministic: workers share
    a monotonically lowering best-failure task bound, so the surviving
    counterexample is the first failure in canonical schedule order —
    the same outcome the sequential search returns (the stats of an
    [Error] differ: abandoned tasks stop counting early). *)

val races_of :
  ?plan:Fault.plan ->
  target:Runner.target ->
  Runner.schedule ->
  Cal.Witness.race list
(** Replay a (witness) schedule of [target] through the vector-clock
    analysis and return its direct racing step pairs, in execution order —
    the "why this interleaving matters" annotation of a minimized
    counterexample. *)

(** {1 Fault exploration} *)

val exhaustive_with_faults_collect :
  ?delay_factors:int list ->
  ?domains:int ->
  setup:(Ctx.t -> Runner.program) ->
  fuel:int ->
  ?max_runs:int ->
  ?preemption_bound:int ->
  ?max_plans:int ->
  fault_bound:int ->
  init:(unit -> 'acc) ->
  f:('acc -> Runner.outcome -> unit) ->
  unit ->
  int * stats * 'acc array
(** The fault analog of CHESS-style context bounding: systematically
    enumerate fault plans of at most [fault_bound] faults and explore every
    schedule under each.

    The fault-free exhaustive pass that delivers the empty plan's outcomes
    {e also} learns the program's fault points (single pass — the
    fault-free state space is executed once): every (thread, step)
    position some schedule reaches becomes a candidate {!Fault.Crash}, and
    every executed {!Prog.Fallible} label occurrence a candidate
    {!Fault.Fail_step}. Then every plan combining at most [fault_bound] of
    these points is explored exhaustively; [f] receives each outcome,
    which carries its plan in [outcome.faults] and the faults that
    actually fired in [outcome.injected], together with the accumulator
    of its exploration unit: one [init ()] per subtree task of the
    fault-free pass followed by one per fault plan, returned in canonical
    order (see {!exhaustive_collect}). Returns the number of plans
    explored (the empty plan included), the stats merged over every plan
    and the accumulators.

    Plans are enumerated lazily, smallest first; [max_plans] caps the
    enumeration before the exponential subset space is ever materialised
    (the stats record the cap as truncation, and the capped plan set is
    exactly the first [max_plans] of the full enumeration). [max_runs]
    bounds each per-plan exploration separately. Because a fault point
    found on {e any} interleaving of the fault-free pass is proposed, the
    enumeration is complete for bounded clients: [fault_bound:1] visits
    every single-crash and every single-CAS-failure execution.

    [delay_factors] (default none) additionally proposes a
    {!Fault.Delay}[ { thread; factor }] candidate for every thread that
    took a step in the fault-free pass and every listed factor (each must
    be [>= 2]), so the plan enumeration also covers skewed-clock
    executions in which a thread's deadlines fire early.

    [domains] (default [1]) parallelizes both the fault-free tree sweep
    and the plan fan-out (each plan explored whole by one worker). The
    per-task candidate learners bump-merge into the sequential learner
    exactly, so the proposed plan set is identical. When [max_runs] is
    set, the fault-free pass stays sequential: a racy shared budget could
    truncate a different run subset and learn different candidates. Each
    accumulator is touched by one worker at a time, so [f] needs no
    locking when it only updates its accumulator. *)

val exhaustive_durable :
  plan:Fault.plan ->
  ?domains:int ->
  setup:(Ctx.t -> Runner.durable) ->
  fuel:int ->
  ?max_runs:int ->
  ?preemption_bound:int ->
  f:(Runner.outcome -> unit) ->
  unit ->
  stats
(** {!exhaustive} for a durable program under one fixed (possibly
    crashing) plan — the engine behind {!exhaustive_with_crashes}, exposed
    for targeted tests. [domains] parallelizes the single plan's schedule
    tree; [f] must then be thread-safe. *)

val exhaustive_with_crashes :
  ?delay_factors:int list ->
  setup:(Ctx.t -> Runner.durable) ->
  fuel:int ->
  ?max_runs:int ->
  ?preemption_bound:int ->
  ?max_plans:int ->
  ?max_crash_depth:int ->
  ?fault_bound:int ->
  f:(Runner.outcome -> unit) ->
  unit ->
  int * stats
(** The crash analog of {!exhaustive_with_faults_collect} for durable programs:
    enumerate {!Fault.Crash_system} plans and explore every schedule of
    the durable program under each.

    The crash-free pass runs first and reports the deepest run it saw;
    every global step [0..max] then becomes a candidate crash point —
    point [0] (the system dies before any decision) and point [max]
    (recovery runs against the completed workload) included. When
    [max_crash_depth] (default [1]) allows, each crash plan's own deepest
    run bounds a nested sweep of strictly later second crash points —
    crash-during-recovery executions. Enumeration is lazy and
    smallest-first (earlier points before later, depth 1 before depth 2),
    so a [max_plans] budget keeps a prefix of the cheapest plans and is
    recorded as truncation.

    [fault_bound] (default [0]) additionally crosses per-thread fault
    plans — learned from the crash-free pass exactly as in
    {!exhaustive_with_faults_collect}, including [delay_factors]
    candidates — with the crash-point sweep, so a thread crash or forced
    CAS failure can be combined with a system crash.

    Returns (plans explored, merged stats), the first two results of
    {!exhaustive_with_faults_collect}. Deliberately sequential (no [domains]): each plan's crash-point horizon depends on
    the runs its parent plan delivered, so the plan enumeration is a
    data-dependent sequential sweep (DESIGN §2.11). Outcomes delivered to
    [f] carry their plan in [outcome.faults], the crashes that actually
    fired in [outcome.injected], and the era count in [outcome.epochs];
    the witness for any violation is the replayable pair
    ([outcome.schedule], [outcome.faults]) via {!Runner.replay_target}. *)

(** {1 Liveness watchdog}

    The safety checkers silently accept a run in which nobody ever makes
    progress — an incomplete history with no response actions is trivially
    linearizable. The watchdog closes that gap with {e bounded-fairness}
    detection: a run is only held against the object when the schedule was
    fair to every thread, i.e. no enabled thread went unscheduled for
    [window] consecutive decisions. *)

(** Classification of one (schedule, plan) pair:

    - [Completed]: every thread returned — progress was made.
    - [Deadlocked]: the run is incomplete and no decision is enabled at the
      end; blocking structures legitimately deadlock when no peer exists
      (e.g. a lone [Prog.timed] waiter).
    - [Starved ts]: the run is incomplete, but some thread in [ts] was
      continuously enabled for at least [window] decisions without being
      scheduled — the schedule is unfair, so non-termination is excused.
      Starvation is {e sticky}: a thread whose idle stretch once reached
      [window] stays in [ts] even if it is scheduled afterwards (the
      schedule was unfair at some point, which excuses the whole run; see
      DESIGN §2.8).
    - [Livelocked]: the run is incomplete, decisions remain enabled, and no
      thread starved: every thread kept running and yet nobody finished.
      This is the verdict the watchdog flags — cancel-and-retry loops that
      spin forever under a fair schedule. *)
type run_verdict =
  | Completed
  | Deadlocked
  | Starved of int list
  | Livelocked

val pp_verdict : Format.formatter -> run_verdict -> unit

val watchdog :
  ?plan:Fault.plan ->
  setup:(Ctx.t -> Runner.program) ->
  window:int ->
  Runner.schedule ->
  run_verdict
(** [watchdog ~setup ~window sched] executes [sched] once (a single
    incremental pass — the frontier before each decision feeds the idle
    counters) and classifies it. The idle stretch of a thread is the
    number of consecutive decisions during which it was enabled but not
    chosen; it resets whenever the thread is scheduled or becomes
    disabled. Raises [Invalid_argument] if [window < 1]. *)

type liveness_stats = {
  live_runs : int;          (** terminal outcomes classified *)
  live_completed : int;
  live_deadlocked : int;
  live_starved : int;
  live_livelocked : int;
  livelocks : (Runner.schedule * Fault.plan) list;
      (** witnesses of livelocked runs, at most 10 *)
  live_truncated : bool;    (** stopped early by [max_runs] *)
}

val liveness :
  ?delay_factors:int list ->
  ?max_plans:int ->
  ?fault_bound:int ->
  setup:(Ctx.t -> Runner.program) ->
  fuel:int ->
  window:int ->
  ?max_runs:int ->
  ?preemption_bound:int ->
  unit ->
  int * liveness_stats
(** Exhaustively explore (like {!exhaustive}) and classify every maximal
    run with the watchdog, threading the idle counters down each path as
    the DFS's per-path state (one pass, no per-prefix replays), under
    every plan of the fault sweep: the plan enumeration of
    {!exhaustive_with_faults_collect} for plans of at most [fault_bound] (default
    [0]: the fault-free plan only) faults, including [delay_factors]
    candidates, capped by [max_plans] (recorded as truncation). The
    fault-free classification pass doubles as the candidate learner, so
    the fault-free state space is executed once. Returns (plans explored,
    merged stats).

    Runs on one domain (no [domains]): the witness cap is order-dependent
    state kept simple by a single accumulator (DESIGN §2.11). Crashed and
    stalled threads are never enabled, so a run they cut short classifies
    as deadlocked or starved — never as a livelock of the object. An
    object passes the liveness obligation when [live_livelocked = 0]: on
    every fair schedule it either finishes or genuinely blocks. *)

val failure_depth :
  setup:(Ctx.t -> Runner.program) ->
  fuel:int ->
  ?max_bound:int ->
  ?max_runs:int ->
  p:(Runner.outcome -> bool) ->
  unit ->
  [ `Fails_at of int * Runner.outcome | `Holds of stats ]
(** [failure_depth ~setup ~fuel ~p ()] searches for a violation with
    iteratively increasing preemption bounds (0, 1, …, [max_bound], default
    8). [`Fails_at (d, o)] means the property first fails with [d]
    preemptions — the counterexample [o] has a minimal number of context
    switches, which makes it far easier to read than an arbitrary failing
    schedule. [`Holds] means no violation was found within the bound (the
    stats are those of the largest bound explored). *)
