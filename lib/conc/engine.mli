(** Exploration statistics shared by every engine — the schedule-tree
    DFS of {!Par_explore}, source-DPOR ({!Dpor}), the {!Sampler} —
    together with the schedule cost models of the bounded searches and the
    exceptions the engines use to cut a search. Most callers want
    {!Explore}. *)

(** How a bounded search prices a schedule, one decision at a time.
    [Preemption] charges 1 when the previously scheduled thread could
    continue but another runs (CHESS-style context bounding). [Delay]
    charges 1 when the chosen thread is not the default continuation —
    the last thread if it is still enabled, else the first enabled
    thread. Branch choices of a zero-cost thread are data
    nondeterminism: cost 0. *)
type cost_model = Preemption | Delay

type stats = {
  runs : int;           (** terminal outcomes delivered to the callback *)
  truncated : bool;     (** stopped early by [max_runs]/[gate] (or plans cap) *)
  max_steps : int;      (** longest schedule seen *)
  nodes : int;          (** schedule-tree nodes visited *)
  replayed_steps : int;
      (** program steps re-executed to re-establish branch points after
          backtracking, including task-prefix replays of the parallel
          front. An undoable program ({!Runner.undoable}) backtracks by
          rollback and replays nothing but those task prefixes. *)
  sleep_pruned : int;
      (** sibling decisions skipped by the DPOR engine's sleep sets *)
  races_found : int;
      (** direct races detected by the vector-clock analysis of the DPOR
          engine ({!Dpor}); [0] for the full DFS *)
  backtrack_points : int;
      (** threads added to node backtrack sets by race reversal (source
          sets); [0] for the engines that expand every enabled decision *)
  bound_hits : int;
      (** schedule-tree edges cut by a preemption/delay bound; each edge
          is counted once, by the one task that owns its node *)
  bounded : bool;
      (** the run {e set} is an underapproximation because a schedule bound
          actually cut at least one edge ([bound_hits > 0]); a bounded
          search whose bound never bit reports [false] — the exploration
          was complete *)
  cache_hits : int;
      (** verdict-cache hits, patched in by the caller that owns the cache
          ({!Verify.Obligations}); always [0] straight out of the engine *)
  tasks_stolen : int;
      (** parallel front: donated subtree chunks claimed from the shared
          pool (every task except the initial root) *)
  domains_used : int;   (** worker domains (1 for the sequential front) *)
  domains_requested : int;
      (** worker domains the caller asked for, before the
          [Domain.recommended_domain_count] cap of
          {!Par_explore.effective_domains}; [domains_used <
          domains_requested] means the request was capped by the
          hardware *)
  sampled_runs : int;
      (** randomly sampled executions delivered ({!Sampler}); always [0]
          straight out of the exhaustive engine *)
  violations_found : int;
      (** sampled runs failing the checked obligation; patched in by the
          sampled checks of {!Verify.Obligations} *)
  shrink_candidates : int;
      (** candidate replays tried by the {!Shrink} delta-debugger *)
  shrink_steps_removed : int;
      (** schedule decisions removed to reach the minimal witness *)
}

val empty_stats : stats
val merge_stats : stats -> stats -> stats

exception Stop
(** Raised internally to cut the search (budget, counterexample). *)

exception Abandoned
(** Raised when [abort] asks the current task to stop; the engine returns
    its partial stats. *)
