(* Source-DPOR (Abdulla, Aronis, Jonsson, Sagonas, POPL'14) over the
   incremental execution API.

   The engine explores one interleaving per Mazurkiewicz trace of the
   (over-approximated) dependence relation from {!Deps}: instead of
   expanding every enabled decision at a node, it runs one thread and adds
   further threads to the node's backtrack set only when a later step is
   found to race with the step taken here — race reversal via source sets,
   with sleep sets suppressing redundant siblings. Dependence is always
   over-approximated (opaque steps conflict with everything non-pure,
   logging steps serialize the observable history, clock-sensitive steps
   serialize against every step), so the reduced run set preserves
   verdicts: every pruned schedule is Mazurkiewicz-equivalent to a
   delivered one, with byte-identical history, trace and results.

   The engine can be rooted at a schedule [prefix]: the root-split
   composition ({!Explore.exhaustive_strategy}) fully expands the root
   frontier and hands each root decision to one rank-ordered task, so the
   parallel merge is deterministic and race reversals never need to reach
   into a frozen prefix node (the root is already fully expanded — a
   superset of any backtrack set). Schedule-bounded search is not here:
   it is the DFS of {!Par_explore} with a bound. *)

(* ---------------------------------------------------------- source-DPOR -- *)

type dnode = {
  dn_enabled : int list; (* distinct enabled threads, ascending *)
  dn_backtrack : (int, unit) Hashtbl.t;
  dn_done : (int, unit) Hashtbl.t;
  dn_frozen : bool; (* prefix node: owned by another root-split task *)
  mutable dn_taken : Deps.step option; (* step taken from here, current path *)
}

let threads_of_frontier frontier =
  List.sort_uniq compare
    (List.map (fun (d : Runner.decision) -> d.thread) frontier)

let decisions_of frontier t =
  List.filter (fun (d : Runner.decision) -> d.thread = t) frontier

(* The effect of applying [d] when the thread's head offered [n_decisions]
   alternatives: more than one decision means a [Choose] head, which runs
   no user code (the runner picks the branch structurally) — pure. *)
let classify ~thread ~n_decisions ~label ~recorded =
  if n_decisions > 1 then Deps.pure_eff ~thread
  else Deps.effect_of ~thread ~label ~recorded

let source ~restart ~fuel ?max_runs ?(prefix = []) ?gate ?abort ~f () =
  let exec = ref (restart ()) in
  let runs = ref 0 and truncated = ref false and max_steps = ref 0 in
  let nodes = ref 0 and replayed = ref 0 in
  let slept = ref 0 and races = ref 0 and backtracks = ref 0 in
  let spine : dnode option array = Array.make (fuel + 1) None in
  let deliver () =
    (match gate with
    | Some admit when not (admit ()) ->
        truncated := true;
        raise Engine.Stop
    | _ -> ());
    let o = Runner.outcome !exec in
    f o;
    incr runs;
    if o.Runner.steps > !max_steps then max_steps := o.Runner.steps;
    match max_runs with
    | Some m when !runs >= m ->
        truncated := true;
        raise Engine.Stop
    | _ -> ()
  in
  let ensure_at depth prefix_rev =
    if Runner.steps_done !exec <> depth then begin
      let e = restart () in
      List.iter (fun d -> ignore (Runner.step e d)) (List.rev prefix_rev);
      replayed := !replayed + depth;
      exec := e
    end
  in
  let add_backtrack nd t =
    if not (Hashtbl.mem nd.dn_backtrack t) then begin
      Hashtbl.replace nd.dn_backtrack t ();
      incr backtracks
    end
  in
  (* A race between [earlier] (taken from spine node j) and the step [st]
     just taken at depth [i]: compute v = notdep(earlier)·proc(st), find the
     initial threads of v, and make sure node j will explore one of them —
     an already-scheduled initial means the reversal is covered; otherwise
     prefer an enabled initial (source sets), falling back to every enabled
     thread when no initial is enabled there. *)
  let handle_race ~i st (earlier : Deps.step) =
    incr races;
    let j = earlier.Deps.st_index in
    match spine.(j) with
    | Some nd when not nd.dn_frozen ->
        let v =
          let rec gather k acc =
            if k >= i then List.rev acc
            else
              gather (k + 1)
                (match spine.(k) with
                | Some n -> (
                    match n.dn_taken with
                    | Some s when not (Deps.happens_before ~earlier s) ->
                        s :: acc
                    | _ -> acc)
                | None -> acc)
          in
          gather (j + 1) [] @ [ st ]
        in
        let firsts =
          List.fold_left
            (fun acc (s : Deps.step) ->
              if List.exists (fun (x : Deps.step) -> x.st_thread = s.st_thread) acc
              then acc
              else s :: acc)
            [] v
          |> List.rev
        in
        let initials =
          List.filter_map
            (fun (s : Deps.step) ->
              if
                List.for_all
                  (fun (m : Deps.step) ->
                    m.st_index >= s.st_index
                    || not (Deps.happens_before ~earlier:m s))
                  v
              then Some s.st_thread
              else None)
            firsts
        in
        if List.exists (Hashtbl.mem nd.dn_backtrack) initials then ()
        else begin
          match List.filter (fun t -> List.mem t nd.dn_enabled) initials with
          | t :: ts -> add_backtrack nd (List.fold_left min t ts)
          | [] -> List.iter (add_backtrack nd) nd.dn_enabled
        end
    | _ -> ()
  in
  let rec explore ~depth ~prefix_rev ~tracker ~sleep ~frontier =
    (match abort with
    | Some stop when stop () -> raise Engine.Abandoned
    | _ -> ());
    incr nodes;
    if frontier = [] || depth >= fuel then deliver ()
    else begin
      let enabled = threads_of_frontier frontier in
      let nd =
        {
          dn_enabled = enabled;
          dn_backtrack = Hashtbl.create 4;
          dn_done = Hashtbl.create 4;
          dn_frozen = false;
          dn_taken = None;
        }
      in
      spine.(depth) <- Some nd;
      let sleep_threads sl = List.map fst sl in
      (match
         List.find_opt (fun t -> not (List.mem t (sleep_threads sleep))) enabled
       with
      | Some t0 -> Hashtbl.replace nd.dn_backtrack t0 ()
      | None -> incr slept (* sleep-blocked node: nothing to explore *));
      let sleep_here = ref sleep in
      let rec loop () =
        match
          List.find_opt
            (fun t ->
              Hashtbl.mem nd.dn_backtrack t && not (Hashtbl.mem nd.dn_done t))
            enabled
        with
        | None -> ()
        | Some t ->
            if List.mem t (sleep_threads !sleep_here) then begin
              (* the reversal this thread would explore is covered by the
                 subtree that put it to sleep *)
              Hashtbl.replace nd.dn_done t ();
              incr slept;
              loop ()
            end
            else begin
              let decs = decisions_of frontier t in
              let n_decisions = List.length decs in
              let eff_taken = ref None in
              List.iter
                (fun (d : Runner.decision) ->
                  ensure_at depth prefix_rev;
                  let label = Runner.step !exec d in
                  let recorded = Runner.last_step_accesses !exec in
                  let eff = classify ~thread:t ~n_decisions ~label ~recorded in
                  eff_taken := Some eff;
                  let tracker', st, race_list = Deps.observe tracker eff in
                  nd.dn_taken <- Some st;
                  List.iter (handle_race ~i:depth st) race_list;
                  let child_frontier = Runner.frontier !exec in
                  (* a step may disable another thread (guard flips, clock
                     tick past a deadline): the reversal cannot be found by
                     race analysis, so conservatively schedule the disabled
                     thread here too *)
                  let child_threads = threads_of_frontier child_frontier in
                  List.iter
                    (fun q ->
                      if
                        q <> t
                        && (not (List.mem q child_threads))
                        && Runner.head_label !exec q <> None
                      then add_backtrack nd q)
                    enabled;
                  let sleep' =
                    List.filter
                      (fun (_, e) -> not (Deps.conflicts e eff))
                      !sleep_here
                  in
                  explore ~depth:(depth + 1) ~prefix_rev:(d :: prefix_rev)
                    ~tracker:tracker' ~sleep:sleep' ~frontier:child_frontier)
                decs;
              Hashtbl.replace nd.dn_done t ();
              (match !eff_taken with
              | Some e -> sleep_here := (t, e) :: !sleep_here
              | None -> ());
              loop ()
            end
      in
      loop ();
      spine.(depth) <- None
    end
  in
  (* Replay the prefix, feeding the tracker so clocks and race counting are
     exactly as if the sequential engine had walked it; prefix nodes are
     frozen — their alternatives belong to sibling root-split tasks. *)
  let tracker = ref (Deps.tracker ()) in
  let depth = ref 0 in
  List.iter
    (fun (d : Runner.decision) ->
      let frontier = Runner.frontier !exec in
      let nd =
        {
          dn_enabled = threads_of_frontier frontier;
          dn_backtrack = Hashtbl.create 1;
          dn_done = Hashtbl.create 1;
          dn_frozen = true;
          dn_taken = None;
        }
      in
      spine.(!depth) <- Some nd;
      let n_decisions = List.length (decisions_of frontier d.thread) in
      let label = Runner.step !exec d in
      let recorded = Runner.last_step_accesses !exec in
      let eff = classify ~thread:d.thread ~n_decisions ~label ~recorded in
      let tracker', st, race_list = Deps.observe !tracker eff in
      nd.dn_taken <- Some st;
      List.iter (handle_race ~i:!depth st) race_list;
      tracker := tracker';
      incr depth;
      replayed := !replayed + 1)
    prefix;
  (try
     explore ~depth:!depth
       ~prefix_rev:(List.rev prefix)
       ~tracker:!tracker ~sleep:[]
       ~frontier:(Runner.frontier !exec)
   with Engine.Stop | Engine.Abandoned -> ());
  {
    Engine.empty_stats with
    runs = !runs;
    truncated = !truncated;
    max_steps = !max_steps;
    nodes = !nodes;
    replayed_steps = !replayed;
    sleep_pruned = !slept;
    races_found = !races;
    backtrack_points = !backtracks;
  }
