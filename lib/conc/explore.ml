type stats = Engine.stats = {
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

let empty_stats = Engine.empty_stats
let merge_stats = Engine.merge_stats

exception Stop = Engine.Stop

(* --------------------------------------------------- exhaustive sweeps --
   Every exhaustive entry point below runs the one schedule-tree DFS of
   {!Par_explore}: [domains = 1] (the default) runs its single worker on
   the calling domain, [>= 2] explores with that many worker domains
   splitting the schedule tree dynamically as workers go idle. Callbacks
   of the parallel paths run concurrently from several domains and must be
   thread-safe; the [_collect] variants side-step that by giving every
   task its own accumulator, merged in canonical rank order after the
   join. *)

(* [?preemption_bound:b] is the DFS bounded by [b] preemptions. *)
let preemption = Option.map (fun b -> (Engine.Preemption, b))

(* The DFS without per-path state. *)
let sweep ~domains ?max_runs ?bound ~restart ~fuel ~init ~f ?stop_on () =
  Par_explore.explore ~domains ?max_runs ?bound ~restart ~fuel
    ~init_path:()
    ~step_path:(fun () _ _ -> ())
    ~init
    ~f:(fun acc o _ () -> f acc o)
    ?stop_on ()

(* --------------------------------------------------------- strategies -- *)

type strategy =
  | Dfs
  | Dpor
  | Preemption_bounded of { bound : int }
  | Delay_bounded of { bound : int }

let strategy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "" | "dfs" -> Some Dfs
  | "dpor" -> Some Dpor
  | s -> (
      match String.index_opt s ':' with
      | None -> None
      | Some i -> (
          let kind = String.sub s 0 i
          and n = String.sub s (i + 1) (String.length s - i - 1) in
          match (kind, int_of_string_opt n) with
          | ("preemption" | "preempt"), Some b when b >= 0 ->
              Some (Preemption_bounded { bound = b })
          | "delay", Some b when b >= 0 -> Some (Delay_bounded { bound = b })
          | _ -> None))

let strategy_to_string = function
  | Dfs -> "dfs"
  | Dpor -> "dpor"
  | Preemption_bounded { bound } -> Fmt.str "preemption:%d" bound
  | Delay_bounded { bound } -> Fmt.str "delay:%d" bound

(* The bounded strategies are the DFS with a schedule bound, so they share
   its dynamic work stealing and rank-ordered merge. DPOR composes with the
   parallel front by root-splitting: fully expand the root frontier and
   hand each root decision to one engine instance as a rank-ordered task.
   That is sound because full expansion is a superset of any backtrack set
   the analysis could compute at the root, so race reversals never need to
   reach into a task's frozen prefix; the split is applied identically at
   [domains = 1], so reports are byte-identical across domain counts by
   construction (per-task run sets don't depend on which worker claims the
   task). The cost is bounded reduction loss at the root only: at most a
   factor of the root frontier width. *)
let exhaustive_collect ?(plan = []) ?(strategy = Dfs) ?(domains = 1) ~setup
    ~fuel ?max_runs ?preemption_bound ~init ~f () =
  let strategy =
    match (preemption_bound, strategy) with
    | None, strategy -> strategy
    | Some bound, Dfs -> Preemption_bounded { bound }
    | Some _, _ ->
        invalid_arg
          "Explore: ?preemption_bound is the Dfs strategy's shorthand; pass \
           ~strategy:(Preemption_bounded _) instead"
  in
  let restart () = Runner.start ~plan ~setup () in
  let dfs ?bound () =
    sweep ~domains ?max_runs ?bound ~restart ~fuel ~init ~f ()
  in
  match strategy with
  | Dfs -> dfs ()
  | Preemption_bounded { bound } -> dfs ~bound:(Engine.Preemption, bound) ()
  | Delay_bounded { bound } -> dfs ~bound:(Engine.Delay, bound) ()
  | Dpor ->
      let roots = Runner.frontier (restart ()) in
      if roots = [] || fuel = 0 then begin
        let acc = init () in
        let o = Runner.outcome (restart ()) in
        f acc o;
        ( { empty_stats with runs = 1; nodes = 1; max_steps = o.Runner.steps },
          [| acc |] )
      end
      else begin
        let gate =
          match max_runs with
          | None -> None
          | Some m ->
              let remaining = Atomic.make m in
              Some (fun () -> Atomic.fetch_and_add remaining (-1) > 0)
        in
        let tasks = Array.of_list roots in
        let eff_domains =
          if domains <= 1 then 1
          else
            max 1
              (min (Par_explore.effective_domains domains) (Array.length tasks))
        in
        let run_task _rank d =
          let acc = init () in
          let stats =
            Dpor.source ~restart ~fuel ~prefix:[ d ] ?gate
              ~f:(fun o -> f acc o)
              ()
          in
          (stats, acc)
        in
        let results, stolen =
          Par_explore.map_tasks ~domains:eff_domains ~f:run_task tasks
        in
        let stats =
          Array.fold_left
            (fun s (st, _) -> merge_stats s st)
            empty_stats results
        in
        let stats =
          {
            stats with
            tasks_stolen = stolen;
            domains_used = eff_domains;
            domains_requested = domains;
          }
        in
        (stats, Array.map snd results)
      end

let exhaustive ?plan ?strategy ?domains ~setup ~fuel ?max_runs
    ?preemption_bound ~f () =
  fst
    (exhaustive_collect ?plan ?strategy ?domains ~setup ~fuel ?max_runs
       ?preemption_bound
       ~init:(fun () -> ())
       ~f:(fun () o -> f o)
       ())

(* Kept only because the benchmark (perfbench/bench.ml) calls it. *)
let exhaustive_strategy_collect ?plan ~strategy ?domains ~setup ~fuel
    ?max_runs ~init ~f () =
  exhaustive_collect ?plan ~strategy ?domains ~setup ~fuel ?max_runs ~init ~f
    ()

(* Exhaustive exploration of one durable program under one (possibly
   crashing) plan. *)
let exhaustive_durable ~plan ?(domains = 1) ~setup ~fuel ?max_runs
    ?preemption_bound ~f () =
  fst
    (sweep ~domains ?max_runs ?bound:(preemption preemption_bound)
       ~restart:(fun () -> Runner.start_durable ~plan ~setup ())
       ~fuel
       ~init:(fun () -> ())
       ~f:(fun () o -> f o)
       ())

(* The seed's stateless engine — a whole-prefix replay at every DFS node —
   kept as the reference implementation for cross-checks and the B12
   before/after comparison. [replayed_steps] counts every program step it
   executes. *)
let exhaustive_via_replay ?(plan = []) ~setup ~fuel ?max_runs ?preemption_bound
    ~f () =
  let runs = ref 0 and truncated = ref false and max_steps = ref 0 in
  let nodes = ref 0 and replayed = ref 0 in
  let deliver outcome =
    f outcome;
    incr runs;
    if outcome.Runner.steps > !max_steps then max_steps := outcome.Runner.steps;
    match max_runs with
    | Some m when !runs >= m ->
        truncated := true;
        raise Stop
    | _ -> ()
  in
  let within_budget used =
    match preemption_bound with None -> true | Some b -> used <= b
  in
  let rec explore prefix ~last ~preemptions =
    incr nodes;
    replayed := !replayed + List.length prefix;
    let outcome, frontier = Runner.replay_target ~plan (Program setup) prefix in
    if frontier = [] || outcome.Runner.steps >= fuel then deliver outcome
    else begin
      let last_enabled =
        List.exists (fun (d : Runner.decision) -> Some d.thread = last) frontier
      in
      List.iter
        (fun (d : Runner.decision) ->
          let cost =
            if last_enabled && Some d.thread <> last then preemptions + 1
            else preemptions
          in
          if within_budget cost then
            explore (prefix @ [ d ]) ~last:(Some d.thread) ~preemptions:cost)
        frontier
    end
  in
  (try explore [] ~last:None ~preemptions:0 with Stop -> ());
  {
    empty_stats with
    runs = !runs;
    truncated = !truncated;
    max_steps = !max_steps;
    nodes = !nodes;
    replayed_steps = !replayed;
  }

(* A first-failure search: with several workers, the lowest-ranked task
   whose accumulator caught a failure holds the sequential witness. *)
let check_all ?(plan = []) ?(domains = 1) ~setup ~fuel ?max_runs
    ?preemption_bound ~p () =
  let stats, accs =
    sweep ~domains ?max_runs ?bound:(preemption preemption_bound)
      ~restart:(fun () -> Runner.start ~plan ~setup ())
      ~fuel
      ~init:(fun () -> ref None)
      ~f:(fun acc o -> if !acc = None && not (p o) then acc := Some o)
      ~stop_on:(fun acc _ -> !acc <> None)
      ()
  in
  (* [truncated] means the budget capped the search, nothing else: a
     counterexample stop is reported by the [Error] constructor alone, so
     callers can tell an exhausted-but-failing search from a capped one. *)
  match Array.to_list accs |> List.find_map (fun acc -> !acc) with
  | None -> Ok stats
  | Some o -> Error (o, stats)

(* Iterative context bounding doubles as counterexample minimisation: the
   first bound at which a violation appears is the bug's preemption depth,
   and the witness schedule has that few context switches. *)
let failure_depth ~setup ~fuel ?(max_bound = 8) ?max_runs ~p () =
  let rec go bound last_stats =
    if bound > max_bound then `Holds last_stats
    else
      match check_all ~setup ~fuel ?max_runs ~preemption_bound:bound ~p () with
      | Error (outcome, _) -> `Fails_at (bound, outcome)
      | Ok stats -> go (bound + 1) stats
  in
  go 0 empty_stats

(* Replay a (witness) schedule through the vector-clock analysis and report
   its direct racing step pairs — the "why this interleaving matters" data
   of a minimized counterexample. *)
let races_of ?plan ~target schedule =
  let exec = Runner.start_target ?plan target in
  let tracker = ref (Deps.tracker ()) in
  let races = ref [] in
  List.iter
    (fun (d : Runner.decision) ->
      let frontier = Runner.frontier exec in
      let n_decisions =
        List.length
          (List.filter (fun (x : Runner.decision) -> x.thread = d.thread) frontier)
      in
      let label = Runner.step exec d in
      let recorded = Runner.last_step_accesses exec in
      let eff = Dpor.classify ~thread:d.thread ~n_decisions ~label ~recorded in
      let tracker', st, rs = Deps.observe !tracker eff in
      tracker := tracker';
      List.iter
        (fun (earlier : Deps.step) ->
          races :=
            {
              Cal.Witness.r_loc = Deps.race_loc earlier st;
              r_thread_a = earlier.Deps.st_thread;
              r_step_a = earlier.Deps.st_index;
              r_thread_b = st.Deps.st_thread;
              r_step_b = st.Deps.st_index;
            }
            :: !races)
        rs)
    schedule;
  List.rev !races

(* ------------------------------------------------- fault exploration -- *)

(* Candidate fault points of a bounded program, learned from the fault-free
   exhaustive pass: every (thread, step) pair some schedule reaches is a
   crash (and stall) point, and every fallible label occurrence some
   schedule executes is a forcible CAS failure. The union over all
   schedules is what makes the enumeration complete for the bounded
   client — a fault point reachable on any interleaving is proposed. The
   learner consumes delivered outcomes, so the fault-free pass that feeds
   it is the same pass that delivers the empty plan's outcomes — the
   fault-free state space is executed exactly once. *)
type learner = {
  learn : Runner.outcome -> unit;
  candidates : unit -> Fault.t list;
  thread_tbl : (int, int) Hashtbl.t;
  label_tbl : (string, int) Hashtbl.t;
}

let bump tbl key v =
  match Hashtbl.find_opt tbl key with
  | Some old when old >= v -> ()
  | _ -> Hashtbl.replace tbl key v

let candidate_learner ?(delay_factors = []) () =
  let thread_max : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let label_max : (string, int) Hashtbl.t = Hashtbl.create 8 in
  (* One outcome's occurrence counts: a counter per thread, indexed by
     the thread's position in the program, and one per fallible label in
     a short association list. *)
  let learn (o : Runner.outcome) =
    let threads =
      List.fold_left (fun m (d : Runner.decision) -> max m (d.thread + 1)) 0 o.Runner.schedule
    in
    let per_thread = Array.make threads 0 in
    List.iter
      (fun (d : Runner.decision) ->
        let n = per_thread.(d.thread) + 1 in
        per_thread.(d.thread) <- n;
        bump thread_max d.thread n)
      o.Runner.schedule;
    let per_label = ref [] in
    List.iter
      (fun l ->
        let count =
          match List.assoc_opt l !per_label with
          | Some count -> count
          | None ->
              let count = ref 0 in
              per_label := (l, count) :: !per_label;
              count
        in
        incr count;
        bump label_max l !count)
      o.Runner.fallible_steps
  in
  let candidates () =
    let crashes =
      Hashtbl.fold (fun thread steps acc -> (thread, steps) :: acc) thread_max []
      |> List.sort compare
      |> List.concat_map (fun (thread, steps) ->
             List.init steps (fun at_step -> Fault.Crash { thread; at_step }))
    in
    let fails =
      Hashtbl.fold (fun label count acc -> (label, count) :: acc) label_max []
      |> List.sort compare
      |> List.concat_map (fun (label, count) ->
             List.init count (fun i -> Fault.Fail_step { label; nth = i + 1 }))
    in
    let delays =
      Hashtbl.fold (fun thread _ acc -> thread :: acc) thread_max []
      |> List.sort Int.compare
      |> List.concat_map (fun thread ->
             List.map (fun factor -> Fault.Delay { thread; factor }) delay_factors)
    in
    crashes @ fails @ delays
  in
  { learn; candidates; thread_tbl = thread_max; label_tbl = label_max }

(* Fold one learner's observations into another. The tables hold per-key
   maxima over all delivered runs, so a bump-merge of per-task learners is
   order-independent and equals the single sequential learner exactly. *)
let absorb_learner dst src =
  Hashtbl.iter (fun k v -> bump dst.thread_tbl k v) src.thread_tbl;
  Hashtbl.iter (fun k v -> bump dst.label_tbl k v) src.label_tbl

(* Size-k subsets of [xs] in positional (lexicographic) order, lazily. *)
let rec combinations k xs () =
  if k = 0 then Seq.Cons ([], Seq.empty)
  else
    match xs with
    | [] -> Seq.Nil
    | x :: rest ->
        Seq.append
          (Seq.map (fun s -> x :: s) (combinations (k - 1) rest))
          (combinations k rest)
          ()

(* Plans of size 1..bound, smallest size first, skipping plans that crash
   the same thread twice (Fault.validate would reject them). Lazy: a
   [max_plans] cap stops the enumeration before the exponential subset
   space is ever materialised. *)
let plans_up_to ~bound candidates =
  Seq.concat_map
    (fun k -> combinations k candidates)
    (Seq.init (max bound 0) (fun i -> i + 1))
  |> Seq.filter (fun p -> Result.is_ok (Fault.validate p))

(* Take at most [n] plans, recording whether the enumeration had more. *)
let cap_plans max_plans seq =
  match max_plans with
  | None -> (seq, fun () -> false)
  | Some n ->
      let capped = ref false in
      let rec go n s () =
        if n <= 0 then begin
          (match s () with Seq.Nil -> () | Seq.Cons _ -> capped := true);
          Seq.Nil
        end
        else
          match s () with
          | Seq.Nil -> Seq.Nil
          | Seq.Cons (x, rest) -> Seq.Cons (x, go (n - 1) rest)
      in
      (go n seq, fun () -> !capped)

(* The plan enumeration every fault sweep shares. [free learn] runs the
   sweep's fault-free pass and feeds each delivered outcome to a learner
   taken from [learn ()] — one per exploration task, so parallel tasks
   never share one; their tables bump-merge into the sequential learner
   exactly. The pass learns only when [fault_bound > 0] ([learn ()] is
   [ignore] otherwise). Returns the pass's result, the plans of
   1..[fault_bound] faults over the learned candidates — lazily, smallest
   first, at most [max_plans - 1] of them, since the fault-free plan counts
   against [max_plans] — and whether that cap cut the enumeration. *)
let fault_plans ?delay_factors ?max_plans ~fault_bound free =
  if fault_bound < 0 then invalid_arg "Explore: fault_bound must be >= 0";
  let learners = ref [] and lock = Mutex.create () in
  let learn () =
    if fault_bound = 0 then ignore
    else begin
      let l = candidate_learner ?delay_factors () in
      Mutex.protect lock (fun () -> learners := l :: !learners);
      l.learn
    end
  in
  let result = free learn in
  let merged = candidate_learner ?delay_factors () in
  List.iter (absorb_learner merged) !learners;
  let plans, was_capped =
    cap_plans
      (Option.map (fun m -> max 0 (m - 1)) max_plans)
      (plans_up_to ~bound:fault_bound (merged.candidates ()))
  in
  (result, plans, was_capped)

(* The fault sweep with a per-exploration-unit accumulator: one accumulator
   for every subtree task of the (possibly parallel) fault-free pass,
   followed by one per fault plan, all returned in canonical order. The
   fault-free pass doubles as the candidate learner — per-task learners
   are bump-merged, which reproduces the sequential learner exactly — and
   the plan fan-out is spread over the domains with the same deterministic
   work-stealing pool as the tree split. When [max_runs] is set the
   fault-free pass stays sequential: a parallel race on the shared run
   budget could truncate a different run subset and learn different fault
   candidates. *)
let exhaustive_with_faults_collect ?delay_factors ?(domains = 1) ~setup ~fuel
    ?max_runs ?preemption_bound ?max_plans ~fault_bound ~init ~f () =
  let free_domains = if max_runs = None then domains else 1 in
  let (free_stats, free_accs), plan_seq, was_capped =
    fault_plans ?delay_factors ?max_plans ~fault_bound (fun learn ->
        exhaustive_collect ~domains:free_domains ~setup ~fuel ?max_runs
          ?preemption_bound
          ~init:(fun () -> (init (), learn ()))
          ~f:(fun (acc, learn) o ->
            learn o;
            f acc o)
          ())
  in
  let plans = Array.of_list (List.of_seq plan_seq) in
  let run_plan _idx plan =
    let stats, accs =
      exhaustive_collect ~plan ~domains:1 ~setup ~fuel ?max_runs
        ?preemption_bound ~init ~f ()
    in
    (stats, accs.(0))
  in
  let plan_results, stolen =
    if domains <= 1 then
      (Array.mapi run_plan plans, 0)
    else Par_explore.map_tasks ~domains ~f:run_plan plans
  in
  let merged =
    Array.fold_left
      (fun acc (s, _) -> merge_stats acc s)
      free_stats plan_results
  in
  (* Record what actually ran, not what was asked for: the plan fan-out
     spawns at most [effective_domains domains] workers (and no more than
     there are plans), which a hardware cap may silently shrink — the
     used/requested pair makes that decision visible in every report. *)
  let fan_domains =
    if domains <= 1 || Array.length plans = 0 then 1
    else max 1 (min (Par_explore.effective_domains domains) (Array.length plans))
  in
  let merged =
    {
      merged with
      truncated = merged.truncated || was_capped ();
      tasks_stolen = merged.tasks_stolen + stolen;
      domains_used = max merged.domains_used fan_domains;
      domains_requested = max merged.domains_requested (max 1 domains);
    }
  in
  let accs =
    Array.append
      (Array.map fst free_accs)
      (Array.map snd plan_results)
  in
  (1 + Array.length plans, merged, accs)

(* ------------------------------------------------- crash exploration -- *)

(* Crash points of a durable program are enumerated against the observed
   run lengths: the crash-free pass (or, for nested crashes, the parent
   crash plan's pass) reports the deepest run it saw, and every global step
   0..max is a candidate [Crash_system] point — including the point right
   after the last decision, where recovery runs against the final state,
   and point 0, where the system dies before any decision. The enumeration
   is lazy and smallest-first: earlier crash points run before later ones,
   depth-1 plans before their depth-2 (crash-during-recovery) children, so
   a [max_plans] budget keeps a prefix of the cheapest plans. Per-thread
   fault plans (learned exactly as in [exhaustive_with_faults_collect]) are crossed
   with the crash points when [fault_bound > 0].

   Deliberately sequential (no [domains] knob): each plan's crash-point
   horizon depends on the runs its parent plan delivered, so the plan
   enumeration itself is a data-dependent sequential sweep — see DESIGN
   §2.11 for why this never parallelizes. *)
let exhaustive_with_crashes ?delay_factors ~setup ~fuel ?max_runs
    ?preemption_bound ?max_plans ?(max_crash_depth = 1) ?(fault_bound = 0) ~f
    () =
  if max_crash_depth < 0 then
    invalid_arg "Explore: max_crash_depth must be >= 0";
  let budget = ref (match max_plans with Some m -> m | None -> max_int) in
  let capped = ref false in
  let exception Budget in
  let acc = ref empty_stats in
  let nplans = ref 0 in
  (* Run one plan exhaustively; returns the deepest run it delivered (the
     crash-point horizon for this plan's children). *)
  let run_plan ?(learn = fun _ -> ()) plan =
    if !budget <= 0 then begin
      capped := true;
      raise Budget
    end;
    decr budget;
    incr nplans;
    let smax = ref 0 in
    let s =
      exhaustive_durable ~plan ~setup ~fuel ?max_runs ?preemption_bound
        ~f:(fun o ->
          if o.Runner.steps > !smax then smax := o.Runner.steps;
          learn o;
          f o)
        ()
    in
    acc := merge_stats !acc s;
    !smax
  in
  let rec crash_sweep prefix ~last_at ~horizon ~depth =
    if depth <= max_crash_depth then
      for s = last_at + 1 to horizon do
        let plan = prefix @ [ Fault.Crash_system { at_step = s } ] in
        let horizon' = run_plan plan in
        crash_sweep plan ~last_at:s ~horizon:horizon' ~depth:(depth + 1)
      done
  in
  (try
     let (), plans, _ =
       fault_plans ?delay_factors ~fault_bound (fun learn ->
           let horizon = run_plan ~learn:(learn ()) [] in
           crash_sweep [] ~last_at:(-1) ~horizon ~depth:1)
     in
     Seq.iter
       (fun fp ->
         let horizon = run_plan fp in
         crash_sweep fp ~last_at:(-1) ~horizon ~depth:1)
       plans
   with Budget -> ());
  (!nplans, { !acc with truncated = !acc.truncated || !capped })

(* ------------------------------------------------- liveness watchdog -- *)

type run_verdict =
  | Completed
  | Deadlocked
  | Starved of int list
  | Livelocked

let pp_verdict ppf = function
  | Completed -> Fmt.pf ppf "completed"
  | Deadlocked -> Fmt.pf ppf "deadlocked"
  | Starved ts ->
      Fmt.pf ppf "starved(%a)" (Fmt.list ~sep:Fmt.comma Fmt.int) ts
  | Livelocked -> Fmt.pf ppf "livelocked"

let enabled_threads frontier =
  List.map (fun (d : Runner.decision) -> d.thread) frontier
  |> List.sort_uniq Int.compare

(* Advance the per-thread idle counters across one decision: a thread that
   was enabled but not chosen grows its stretch; the chosen thread and
   disabled threads reset. Returns the counters keyed by thread. A thread
   whose stretch ever reached [window] stays in the starving set even if
   it is scheduled later: the schedule was unfair at some point, which
   permanently excuses the run (see DESIGN §2.8). *)
let bump_idle ~window idle enabled chosen starving =
  let idle' =
    List.filter_map
      (fun t ->
        if t = chosen then None
        else Some (t, 1 + Option.value ~default:0 (List.assoc_opt t idle)))
      enabled
  in
  let newly =
    List.filter_map (fun (t, n) -> if n >= window then Some t else None) idle'
  in
  (idle', List.sort_uniq Int.compare (newly @ starving))

(* Single pass over the live execution: the frontier before each decision
   feeds the idle counters, no per-decision prefix replays. *)
let watchdog ?(plan = []) ~setup ~window sched =
  if window < 1 then invalid_arg "Explore.watchdog: window must be >= 1";
  let e = Runner.start ~plan ~setup () in
  let rec go idle starving = function
    | [] ->
        let outcome = Runner.outcome e in
        if outcome.Runner.complete then Completed
        else if Runner.frontier e = [] then Deadlocked
        else if starving <> [] then Starved starving
        else Livelocked
    | (d : Runner.decision) :: rest ->
        let idle, starving =
          bump_idle ~window idle
            (enabled_threads (Runner.frontier e))
            d.thread starving
        in
        ignore (Runner.step e d);
        go idle starving rest
  in
  go [] [] sched

type liveness_stats = {
  live_runs : int;
  live_completed : int;
  live_deadlocked : int;
  live_starved : int;
  live_livelocked : int;
  livelocks : (Runner.schedule * Fault.plan) list;
  live_truncated : bool;
}

(* The DFS with the watchdog's idle counters as the per-path state: every
   maximal run is classified in the single pass that explores it.
   [on_outcome] additionally observes every delivered outcome (the fault
   sweep hooks the candidate learner in here).

   Run on one domain: the counters ride in the DFS frames, so a donated
   subtree would carry its exact counter state, but the witness cap (first
   10 livelocks in canonical order) is order-dependent state kept simple
   by a single accumulator (DESIGN §2.11). *)
let liveness_core ?(plan = []) ~setup ~fuel ~window ?max_runs ?preemption_bound
    ?(on_outcome = fun _ -> ()) () =
  if window < 1 then invalid_arg "Explore.liveness: window must be >= 1";
  let completed = ref 0 and deadlocked = ref 0 in
  let starved = ref 0 and livelocked = ref 0 in
  let witnesses = ref [] in
  let leaf () (o : Runner.outcome) frontier (_, starving) =
    on_outcome o;
    if o.Runner.complete then incr completed
    else if frontier = [] then incr deadlocked
    else if starving <> [] then incr starved
    else begin
      incr livelocked;
      if List.length !witnesses < 10 then
        witnesses := (o.Runner.schedule, plan) :: !witnesses
    end
  in
  let step_path (idle, starving) frontier (d : Runner.decision) =
    bump_idle ~window idle (enabled_threads frontier) d.thread starving
  in
  let stats, _ =
    Par_explore.explore ~domains:1 ?max_runs
      ?bound:(preemption preemption_bound)
      ~restart:(fun () -> Runner.start ~plan ~setup ())
      ~fuel ~init_path:([], []) ~step_path
      ~init:(fun () -> ())
      ~f:leaf ()
  in
  {
    live_runs = stats.runs;
    live_completed = !completed;
    live_deadlocked = !deadlocked;
    live_starved = !starved;
    live_livelocked = !livelocked;
    livelocks = List.rev !witnesses;
    live_truncated = stats.truncated;
  }

let merge_liveness a b =
  {
    live_runs = a.live_runs + b.live_runs;
    live_completed = a.live_completed + b.live_completed;
    live_deadlocked = a.live_deadlocked + b.live_deadlocked;
    live_starved = a.live_starved + b.live_starved;
    live_livelocked = a.live_livelocked + b.live_livelocked;
    livelocks =
      (let room = 10 - List.length a.livelocks in
       a.livelocks @ List.filteri (fun i _ -> i < room) b.livelocks);
    live_truncated = a.live_truncated || b.live_truncated;
  }

(* The watchdog over the fault sweep: classify every run of every plan of
   at most [fault_bound] faults (the plan enumeration of
   [exhaustive_with_faults_collect]; just the fault-free plan at [0]). The
   fault-free classification pass doubles as the candidate learner, so the
   fault-free state space is executed once. Crashed and stalled threads are
   never enabled, so their non-termination classifies as deadlock, not
   livelock. *)
let liveness ?delay_factors ?max_plans ?(fault_bound = 0) ~setup ~fuel ~window
    ?max_runs ?preemption_bound () =
  let free, plan_seq, was_capped =
    fault_plans ?delay_factors ?max_plans ~fault_bound (fun learn ->
        liveness_core ~setup ~fuel ~window ?max_runs ?preemption_bound
          ~on_outcome:(learn ()) ())
  in
  let nplans = ref 1 in
  let merged =
    Seq.fold_left
      (fun acc plan ->
        incr nplans;
        merge_liveness acc
          (liveness_core ~plan ~setup ~fuel ~window ?max_runs ?preemption_bound
             ()))
      free plan_seq
  in
  (!nplans, { merged with live_truncated = merged.live_truncated || was_capped () })
