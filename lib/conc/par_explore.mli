(** The schedule-tree DFS: incremental exhaustive exploration, sequential
    or work-stealing over OCaml 5 domains.

    Splitting is dynamic: the whole schedule tree starts as one task, and
    while workers explore it they donate the remaining branches of their
    shallowest open DFS node to a shared pool whenever some worker is
    idle — signalled by one lock-free counter, so the descend/backtrack
    hot path pays a single atomic load per node and no locks. Donated
    chunks are claimed, resumed, and split further, recursively, so load
    balances itself whatever the tree's shape (see DESIGN §2.11).

    Determinism is preserved by construction: every task owns a
    contiguous interval of the canonical (sequential DFS) leaf order and
    carries its start {e rank} — the branch-index path from the root —
    so sorting per-task results by rank reproduces the sequential
    delivery order byte-for-byte, whatever the domain count or steal
    timing. First-failure searches share a monotonically lowering best
    start rank and abandon only tasks strictly after a failed interval,
    so the surviving lowest-rank witness is the sequential one.

    Most callers want {!Explore}; this module is the engine room of every
    exhaustive sweep, sequential ([domains = 1]) and parallel alike.

    A requested domain count is capped at
    [Domain.recommended_domain_count] ({!effective_domains}): domains
    beyond the hardware's cores buy no parallelism and pay stop-the-world
    minor-GC synchronisation for every collection. The cap never changes
    a report — verdicts, witnesses and run counts are domain-count
    invariant by construction — only wall-clock; the decision is
    surfaced as [domains_used] vs [domains_requested] in the returned
    stats. Setting [CAL_EXPLORE_OVERSUBSCRIBE=1] lifts the cap, which the
    equivalence test suite uses to genuinely exercise multi-domain
    stealing and verdict-cache sharing on any hardware. *)

val effective_domains : int -> int
(** [effective_domains requested] — the worker-domain count actually
    spawned for a request: [min requested (Domain.recommended_domain_count
    ())], or [requested] verbatim under [CAL_EXPLORE_OVERSUBSCRIBE=1];
    always at least [1]. *)

val explore :
  domains:int ->
  ?max_runs:int ->
  ?preemption_bound:int ->
  restart:(unit -> Runner.exec) ->
  fuel:int ->
  init_path:'path ->
  step_path:('path -> Runner.decision list -> Runner.decision -> 'path) ->
  init:(unit -> 'acc) ->
  f:('acc -> Runner.outcome -> Runner.decision list -> 'path -> unit) ->
  ?stop_on:('acc -> Runner.outcome -> bool) ->
  unit ->
  Engine.stats * 'acc array
(** Explore the whole schedule tree of [restart] across [domains] worker
    domains — the one exhaustive DFS of the library; at [domains = 1] it
    runs one worker on the calling domain and spawns nothing. Each task
    gets its own accumulator ([init] runs once per task); the
    accumulators are returned in canonical rank order, so folding them
    left reproduces the sequential delivery order. [f] receives every
    maximal outcome together with the frontier it ended on and its path
    state; it runs concurrently from several domains but only ever on its
    own task's accumulator.

    [init_path]/[step_path] thread per-path state down the tree:
    [step_path p frontier d] is the state after taking [d] from a node
    whose state is [p] and whose enabled decisions are [frontier]. Pass
    [()] and a constant function when no path state is needed.

    [stop_on] turns the sweep into a deterministic first-failure search:
    when it returns [true] the task stops and tasks ranked after it are
    abandoned; the first accumulator (in rank order) for which it fired
    holds the same witness the sequential engine reports. [max_runs] is a
    shared atomic budget; the delivery that spends it stops the search
    and reports it as truncated. Which runs are admitted under it is
    scheduling-dependent when [domains >= 2] (callers that need run-set
    determinism pass no budget or one domain). [fuel] counts schedule
    depth; [preemption_bound] skips edges whose preemption count would
    exceed it. *)

val map_tasks :
  domains:int -> f:(int -> 'a -> 'b) -> 'a array -> 'b array * int
(** Run [f] over an explicit task array claimed via one atomic counter
    (used for the fault-plan fan-out): results land at their task's
    index, so merging in index order is deterministic. Returns the
    results and the steal count — items that landed off their static
    round-robin worker. *)
