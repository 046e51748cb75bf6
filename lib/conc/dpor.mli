(** Source-DPOR: the partial-order reduction of the schedule tree.

    {!source} explores one interleaving per Mazurkiewicz trace of the
    over-approximated dependence relation ({!Deps}). It is meant to be
    complete — every pruned schedule equivalent to a delivered one with
    byte-identical history, trace and results — but is not yet: runs cut
    at the fuel bound and guards that keep a thread blocked (they record
    no footprint) both hide races, so some histories of the full DFS are
    never delivered ({!Explore.strategy} gives the measurements).

    The engine accepts a schedule [prefix] and is composed with
    {!Par_explore} by root-splitting ({!Explore.exhaustive} with
    [~strategy:Dpor]): the caller fully expands the root frontier (a
    superset of any backtrack set, so reversals never need to reach into
    the frozen prefix) and runs one engine instance per root decision as
    a rank-ordered task. The
    preemption/delay-bounded searches are not here: they are the
    {!Par_explore} DFS with a bound. *)

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
    [backtrack_points] and [sleep_pruned]; [bounded] is [false], although
    the two gaps above can still drop histories. *)
