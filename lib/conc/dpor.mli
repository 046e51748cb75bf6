(** Source-DPOR and schedule-bounded iterative-deepening search engines.

    {!source} explores one interleaving per Mazurkiewicz trace of the
    over-approximated dependence relation ({!Deps}): it is {e complete} —
    every pruned schedule is equivalent to a delivered one with
    byte-identical history, trace and results, so verdicts are preserved
    exactly. {!bounded} is full enumeration within a preemption or delay
    budget, deepened level by level — an honest underapproximation, sound
    for bug-finding; its stats report [bounded = true] only when the bound
    actually cut an edge at the final level.

    Both engines accept a schedule [prefix] and are composed with
    {!Par_explore} by root-splitting ({!Explore.exhaustive_strategy}): the
    caller fully expands the root frontier (a superset of any backtrack
    set, so reversals never need to reach into the frozen prefix) and runs
    one engine instance per root decision as a rank-ordered task. *)

type cost_model = Preemption | Delay

val classify :
  thread:int ->
  n_decisions:int ->
  label:string ->
  recorded:(string list * string list) option ->
  Deps.eff
(** The effect of a just-applied decision: pure when the thread's head
    offered more than one decision (a [Choose] resolves structurally, no
    user code runs), else {!Deps.effect_of}. Shared with
    {!Explore.races_of}. *)

val source :
  restart:(unit -> Runner.exec) ->
  fuel:int ->
  ?max_runs:int ->
  ?prefix:Runner.decision list ->
  ?gate:(unit -> bool) ->
  ?abort:(unit -> bool) ->
  f:(Runner.outcome -> unit) ->
  unit ->
  Engine.stats
(** Source-DPOR from the state reached by [prefix] (default the initial
    state). [gate] is a shared run budget consulted before each delivery
    (refusal truncates); [abort] is consulted before each node (refusal
    abandons the search with partial stats). Stats report [races_found],
    [backtrack_points] and [sleep_pruned]; [bounded] is [false] — the
    reduction is verdict-complete. *)

val bounded :
  cost:cost_model ->
  bound:int ->
  restart:(unit -> Runner.exec) ->
  fuel:int ->
  ?max_runs:int ->
  ?prefix:Runner.decision list ->
  ?gate:(unit -> bool) ->
  ?abort:(unit -> bool) ->
  f:(Runner.outcome -> unit) ->
  unit ->
  Engine.stats
(** Iterative-deepening bounded search: level [c] (for [c = 0..bound])
    delivers exactly the runs whose schedule cost is [c] — a partition, so
    no run is delivered twice and delivery order is (cost, DFS)
    lexicographic. Preemption cost charges 1 when the previously scheduled
    thread could continue but another runs; delay cost charges 1 when the
    chosen thread deviates from the default continuation (last thread if
    enabled, else the first enabled). Branch choices are data
    nondeterminism: cost 0. *)
