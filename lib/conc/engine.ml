(* Exploration statistics shared by every engine (the DFS of
   {!Par_explore}, {!Dpor}, the {!Sampler}), the schedule cost models of
   the bounded searches, and the control exceptions the engines use to cut
   a search. *)

type cost_model = Preemption | Delay

type stats = {
  runs : int;
  truncated : bool;
  max_steps : int;
  nodes : int;
  replayed_steps : int;
  sleep_pruned : int;
  races_found : int;
  backtrack_points : int;
  bound_hits : int;
  bounded : bool;
  tasks_stolen : int;
  domains_used : int;
  domains_requested : int;
  sampled_runs : int;
  violations_found : int;
  shrink_candidates : int;
  shrink_steps_removed : int;
}

let empty_stats =
  {
    runs = 0;
    truncated = false;
    max_steps = 0;
    nodes = 0;
    replayed_steps = 0;
    sleep_pruned = 0;
    races_found = 0;
    backtrack_points = 0;
    bound_hits = 0;
    bounded = false;
    tasks_stolen = 0;
    domains_used = 1;
    domains_requested = 1;
    sampled_runs = 0;
    violations_found = 0;
    shrink_candidates = 0;
    shrink_steps_removed = 0;
  }

let merge_stats a b =
  {
    runs = a.runs + b.runs;
    truncated = a.truncated || b.truncated;
    max_steps = max a.max_steps b.max_steps;
    nodes = a.nodes + b.nodes;
    replayed_steps = a.replayed_steps + b.replayed_steps;
    sleep_pruned = a.sleep_pruned + b.sleep_pruned;
    races_found = a.races_found + b.races_found;
    backtrack_points = a.backtrack_points + b.backtrack_points;
    bound_hits = a.bound_hits + b.bound_hits;
    bounded = a.bounded || b.bounded;
    tasks_stolen = a.tasks_stolen + b.tasks_stolen;
    domains_used = max a.domains_used b.domains_used;
    domains_requested = max a.domains_requested b.domains_requested;
    sampled_runs = a.sampled_runs + b.sampled_runs;
    violations_found = a.violations_found + b.violations_found;
    shrink_candidates = a.shrink_candidates + b.shrink_candidates;
    shrink_steps_removed = a.shrink_steps_removed + b.shrink_steps_removed;
  }

exception Stop
exception Abandoned
