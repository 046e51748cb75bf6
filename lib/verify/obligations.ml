open Cal

type problem = {
  schedule : Conc.Runner.schedule;
  plan : Conc.Fault.plan;  (* [] unless the run was fault-injected *)
  message : string;
}

(* Reproduction metadata of a sampled check: the kind/seed/budget triple
   replays the identical run sequence. *)
type sampling = {
  s_kind : Conc.Sampler.kind;
  s_seed : int64;
  s_budget : int;
}

type obligation =
  | Trace of { spec : Spec.t; view : View.t }
  | History of { spec : Spec.t; checker : [ `Cal | `Lin ]; cache : bool option }
  | Liveness of { window : int }

type strategy =
  | Default of Conc.Explore.strategy
  | Explicit of Conc.Explore.strategy

type search =
  | Exhaustive of { strategy : strategy; domains : int option; max_runs : int option }
  | Sampled of { sampling : sampling; shrink : bool }

type faults = {
  fault_bound : int option;
  delay_factors : int list option;
  max_plans : int option;
  max_crash_depth : int option;
}

type config = {
  target : Conc.Runner.target;
  obligation : obligation;
  search : search;
  fuel : int;
  faults : faults;
}

let exhaustive =
  Exhaustive { strategy = Default Conc.Explore.Dfs; domains = None; max_runs = None }

let no_faults =
  { fault_bound = None; delay_factors = None; max_plans = None; max_crash_depth = None }

type report = {
  runs : int;
  complete_runs : int;
  problems : problem list;
  truncated : bool;
  exploration : Conc.Explore.stats option;
  config : config;  (* resolved *)
}

(* ------------------------------------------------- outcome collection -- *)

(* One accumulator per exploration unit (subtree task / fault plan): the
   parallel engine gives every unit its own, so recording needs no
   synchronisation, and merging the units in canonical task order
   reproduces the sequential report exactly. *)
type acc = {
  mutable a_runs : int;
  mutable a_complete : int;
  mutable a_problems : problem list;  (* newest first, capped at 10 *)
}

let new_acc () = { a_runs = 0; a_complete = 0; a_problems = [] }

let record check acc (outcome : Conc.Runner.outcome) =
  acc.a_runs <- acc.a_runs + 1;
  if outcome.Conc.Runner.complete then acc.a_complete <- acc.a_complete + 1;
  match check outcome with
  | Ok () -> ()
  | Error message ->
      if List.length acc.a_problems < 10 then
        acc.a_problems <-
          { schedule = outcome.schedule; plan = outcome.faults; message }
          :: acc.a_problems

let cap10 l = List.filteri (fun i _ -> i < 10) l

(* Units are capped at 10 problems each and the concatenation re-capped:
   the first 10 problems in canonical delivery order, i.e. the sequential
   report's problem list. A verdict cache's hits go into the stats. *)
let report_of ?vc ~config (stats : Conc.Explore.stats) accs =
  let cache_hits = Option.fold vc ~none:0 ~some:Verdict_cache.hits in
  {
    runs = Array.fold_left (fun n a -> n + a.a_runs) 0 accs;
    complete_runs = Array.fold_left (fun n a -> n + a.a_complete) 0 accs;
    problems =
      cap10 (List.concat_map (fun a -> List.rev a.a_problems) (Array.to_list accs));
    truncated = stats.truncated;
    exploration = Some { stats with cache_hits };
    config;
  }

(* Remove one occurrence of [op] from [ops]; None when absent. *)
let remove_one op ops =
  let rec go acc = function
    | [] -> None
    | o :: rest ->
        if Op.equal o op then Some (List.rev_append acc rest) else go (o :: acc) rest
  in
  go [] ops

(* The core of [reconcile], on one scan of [h]: its entries and the returns
   of the completion, aligned with them. A completed operation keeps its
   own return, a pending one adopts the return the trace committed to, and
   [None] marks a pending operation absent from the trace, which the
   completion drops. *)
let reconcile_entries h trace =
  match History.scan h with
  | Error reason -> Error ("ill-formed history: " ^ reason)
  | Ok entries ->
      let trace_ops = ref (Ca_trace.ops trace) in
      let errors = ref [] in
      (* account every completed operation *)
      Array.iter
        (fun (e : History.entry) ->
          match History.op_of_entry e with
          | None -> ()
          | Some op -> (
              match remove_one op !trace_ops with
              | Some rest -> trace_ops := rest
              | None ->
                  errors :=
                    Fmt.str "completed operation %a missing from the trace" Op.pp op
                    :: !errors))
        entries;
      (* pending operations: adopt the trace's commitment or drop *)
      let rets =
        Array.map
          (fun (e : History.entry) ->
            match e.ret with
            | Some _ as ret -> ret
            | None -> (
                let matches (o : Op.t) =
                  Ids.Tid.equal o.tid e.tid && Ids.Oid.equal o.oid e.oid
                  && Ids.Fid.equal o.fid e.fid && Value.equal o.arg e.arg
                in
                match List.find_opt matches !trace_ops with
                | Some o ->
                    trace_ops := Option.get (remove_one o !trace_ops);
                    Some o.ret
                | None -> None))
          entries
      in
      List.iter
        (fun (o : Op.t) ->
          errors :=
            Fmt.str "trace operation %a does not occur in the history" Op.pp o
            :: !errors)
        !trace_ops;
      if !errors <> [] then Error (String.concat "; " (List.rev !errors))
      else Ok (entries, rets)

(* The completion as a history: the dropped invocations removed, the
   adopted responses appended in invocation order. *)
let reconcile h trace =
  Result.map
    (fun (entries, rets) ->
      let dropped = ref [] and appended = ref [] in
      Array.iteri
        (fun i (e : History.entry) ->
          match (e.ret, rets.(i)) with
          | Some _, _ -> ()
          | None, None -> dropped := e.inv_index :: !dropped
          | None, Some ret ->
              appended := Action.res ~tid:e.tid ~oid:e.oid ~fid:e.fid ret :: !appended)
        entries;
      let kept =
        History.to_list h |> List.filteri (fun idx _ -> not (List.mem idx !dropped))
      in
      History.of_list (kept @ List.rev !appended))
    (reconcile_entries h trace)

(* The completion's entries, without rebuilding the history. Kept entries
   keep their positions and adopted responses take positions [n], [n+1], …
   after every action of [h], which preserves {!History.precedes}, all
   {!Agreement.decide_entries} reads. [None] when an operation of an era
   before the last adopts a response: [reconcile] appends that response
   after a crash marker, which closes every open call ({!History.scan}),
   so the rebuilt completion is ill-formed. *)
let completion_entries h (entries : History.entry array) rets =
  if History.all_returned entries then Some entries
  else begin
    let exception Stale in
    let last_era = History.crash_count h in
    let next = ref (History.length h) in
    let kept = ref [] in
    try
      Array.iteri
        (fun i (e : History.entry) ->
          match (e.ret, rets.(i)) with
          | _, None -> ()
          | Some _, Some _ -> kept := e :: !kept
          | None, Some _ when e.era < last_era -> raise Stale
          | None, Some ret ->
              kept := { e with ret = Some ret; res_index = Some !next } :: !kept;
              incr next)
        entries;
      Some (Array.of_list (List.rev !kept))
    with Stale -> None
  end

(* One scan per outcome: reconciliation and agreement share the entries.
   The result and messages are those of composing the public [reconcile]
   and [Agreement.check], which answers "history is not complete" on an
   ill-formed completion. *)
let check_outcome ~spec ~view (outcome : Conc.Runner.outcome) =
  let viewed = view outcome.trace in
  match Spec.explain_rejection spec viewed with
  | Some msg -> Error ("spec obligation: " ^ msg)
  | None -> (
      match reconcile_entries outcome.history viewed with
      | Error msg -> Error ("reconciliation: " ^ msg)
      | Ok (entries, rets) -> (
          match completion_entries outcome.history entries rets with
          | None -> Error "agreement obligation: history is not complete"
          | Some completion -> (
              match Agreement.decide_entries completion viewed with
              | Error msg -> Error ("agreement obligation: " ^ msg)
              | Ok _ -> Ok ())))

(* ------------------------------------------------ history obligations -- *)

(* History checks decide the verdict on the history alone. Durable
   programs are checked this way deliberately: the structures' explicit
   flush discipline means a {e peer's} flush can decide whether a pending
   write persisted, so reconciling a self-reported trace against the
   history would mis-attribute persistence (see DESIGN §2.10). The checker
   composes the crash-tolerant mode (threads crashed by the plan) with the
   durable era rules driven by the history's crash markers. *)
let crashed_tids (outcome : Conc.Runner.outcome) =
  List.filter_map
    (function
      | Conc.Fault.Crash { thread; _ } -> Some thread
      | _ -> None)
    outcome.injected
  |> List.sort_uniq Int.compare

let history_check ~checker ~spec (outcome : Conc.Runner.outcome) =
  let crashed =
    match crashed_tids outcome with
    | [] -> None
    | tids -> Some (List.map Ids.Tid.of_int tids)
  in
  match checker with
  | `Cal -> (
      match Cal_checker.check ?crashed ~spec outcome.history with
      | Cal_checker.Accepted _ -> Ok ()
      | Cal_checker.Rejected { reason; _ } -> Error reason)
  | `Lin -> (
      match Lin_checker.check ?crashed ~spec outcome.history with
      | Lin_checker.Linearizable _ -> Ok ()
      | Lin_checker.Not_linearizable { reason; _ } -> Error reason)

(* The verdict is a function of the canonical history
   ({!Cal.History.canonicalize}), of which threads the plan crashed (the
   checker's crash-tolerant mode) and of which checker runs, so all three
   go into the cache key: schedules that interleave the same operations
   with the same concurrency structure share one checker run. *)
let history_key ~checker (outcome : Conc.Runner.outcome) =
  String.concat "|"
    ((match checker with `Cal -> "cal" | `Lin -> "lin")
    :: List.map string_of_int (crashed_tids outcome))
  ^ "\n"
  ^ History.canonical_key outcome.history

(* ------------------------------------------------ liveness obligation -- *)

(* On every fair schedule the object either finishes or genuinely blocks.
   A livelocked run — incomplete at fuel, decisions still enabled, no
   thread starved — is a problem; starved runs are excused (the schedule
   was unfair) and deadlocks are the blocking structures' legitimate
   behaviour. *)
let liveness_report ~config ~window (stats : Conc.Explore.liveness_stats) =
  let message =
    Fmt.str
      "liveness obligation: livelock — incomplete at fuel %d with enabled \
       decisions and no thread starved (window %d)"
      config.fuel window
  in
  {
    runs = stats.live_runs;
    complete_runs = stats.live_completed;
    problems =
      List.map (fun (schedule, plan) -> { schedule; plan; message }) stats.livelocks;
    truncated = stats.live_truncated;
    exploration = None;
    config;
  }

(* ------------------------------------------------- sampled obligations -- *)

(* Sampled checking (DESIGN §2.12): run the program [budget] times under a
   randomized Sampler scheduler, check every outcome with the same
   obligations as the exhaustive sweeps, exit at the first violation,
   minimize its (schedule, plan) witness with Shrink, and render a
   failure report that is a complete reproduction recipe on its own:
   sampler kind + seed + budget replay the run sequence, and the printed
   minimal schedule/plan replay the violation directly. *)

let witness_race_cap = 8

let render_sampled_problem ~config ~sampling ~run_index ~plan ~schedule
    ~(outcome : Conc.Runner.outcome) ~message ~(shrink : Conc.Shrink.stats option) =
  let { target; fuel; _ } = config in
  let segs =
    Conc.Shrink.segments target ~plan schedule
    |> List.map (fun (thread, preemptive, steps) ->
           { Cal.Witness.thread; preemptive; steps })
  in
  let shrink_line =
    match shrink with
    | None -> "shrink: off (reporting the raw sampled witness)"
    | Some s ->
        Fmt.str
          "shrink: removed %d schedule decisions and %d plan elements (%d \
           candidate replays, %d rounds); the witness is 1-minimal"
          s.steps_removed s.plan_removed s.candidates s.rounds
  in
  (* The racing step pairs of the (minimized) witness: one replay through
     the vector-clock analysis, capped so a pathological schedule cannot
     flood the report (a long witness can race at every other step; the
     first few pairs carry the explanation). *)
  let races = Conc.Explore.races_of ~plan ~target schedule in
  let shown = List.filteri (fun i _ -> i < witness_race_cap) races in
  let hidden = List.length races - List.length shown in
  let races_line =
    Fmt.str "%a%s" Cal.Witness.pp_races shown
      (if hidden > 0 then Fmt.str " (+%d more)" hidden else "")
  in
  Fmt.str
    "@[<v>sampled violation at run %d/%d (sampler %s, seed %Ld, fuel %d)@,\
     verdict: %s@,\
     threads: %s (%d decisions)@,\
     %s@,\
     %s@,\
     history:@,  @[<v>%a@]@,\
     reproduce: rerun the sampled check with this sampler/seed/budget, or \
     replay the schedule/fault lines below@]"
    run_index sampling.s_budget
    (Conc.Sampler.kind_to_string sampling.s_kind)
    sampling.s_seed fuel message
    (Cal.Witness.schedule_string segs)
    (List.length schedule) races_line shrink_line Cal.Witness.pp_era_history
    outcome.history

(* The fault plan of each run is drawn from the check's one RNG stream, out
   of a space learned by four probe walks; a fault-free check draws
   nothing, so its stream is the sampler's alone. *)
let sampled_report ~config ~sampling ~shrink check =
  let { target; fuel; faults = f; _ } = config in
  let rng = Conc.Rng.create ~seed:sampling.s_seed in
  let next_plan =
    match f.fault_bound with
    | None -> fun () -> []
    | Some fault_bound ->
        let space = Conc.Sampler.probe ~target ~fuel ~runs:4 ~rng () in
        let crash_depth = Option.value f.max_crash_depth ~default:0 in
        fun () ->
          Conc.Sampler.sample_plan ~fault_bound ?delay_factors:f.delay_factors
            ~crash_depth space ~rng
  in
  let acc = new_acc () and max_steps = ref 0 and shrunk = ref None in
  (* early exit at the first violation: sampling is a detection mode, one
     (minimized) counterexample is the deliverable *)
  while acc.a_problems = [] && acc.a_runs < sampling.s_budget do
    let plan = next_plan () in
    let outcome =
      Conc.Sampler.run ~plan ~kind:sampling.s_kind ~target ~fuel ~rng ()
    in
    acc.a_runs <- acc.a_runs + 1;
    if outcome.complete then acc.a_complete <- acc.a_complete + 1;
    max_steps := max !max_steps outcome.steps;
    match check outcome with
    | Ok () -> ()
    | Error message ->
        let fails o = Result.is_error (check o) in
        let m =
          if not shrink then None
          else
            Result.to_option
              (Conc.Shrink.minimize ~target ~fails ~schedule:outcome.schedule
                 ~plan:outcome.faults ())
        in
        shrunk := Option.map (fun (m : Conc.Shrink.minimized) -> m.m_stats) m;
        let schedule, plan, final =
          match m with
          | Some m -> (m.m_schedule, m.m_plan, m.m_outcome)
          | None -> (outcome.schedule, outcome.faults, outcome)
        in
        (* the verdict of the minimal witness, not the original run's *)
        let message = match check final with Error m -> m | Ok () -> message in
        let message =
          render_sampled_problem ~config ~sampling ~run_index:acc.a_runs ~plan
            ~schedule ~outcome:final ~message ~shrink:!shrunk
        in
        acc.a_problems <- [ { schedule; plan; message } ]
  done;
  let shrink_candidates, shrink_steps_removed =
    Option.fold !shrunk ~none:(0, 0) ~some:(fun (s : Conc.Shrink.stats) ->
        (s.candidates, s.steps_removed))
  in
  {
    runs = acc.a_runs;
    complete_runs = acc.a_complete;
    problems = acc.a_problems;
    truncated = false;
    exploration =
      Some
        {
          Conc.Explore.empty_stats with
          runs = acc.a_runs;
          max_steps = !max_steps;
          sampled_runs = acc.a_runs;
          violations_found = List.length acc.a_problems;
          shrink_candidates;
          shrink_steps_removed;
        };
    config;
  }

(* --------------------------------------------------------- the check --- *)

let pp_config ppf c =
  let opt name = Option.fold ~none:"" ~some:(Fmt.str ", %s %d" name) in
  let strategy = function
    | Explicit s -> Conc.Explore.strategy_to_string s
    | Default s -> Conc.Explore.strategy_to_string s ^ " (default)"
  in
  Fmt.pf ppf "%s %s, %s, fuel %d%s%s%s%s"
    (match c.target with Program _ -> "program" | Durable _ -> "durable")
    (match c.obligation with
    | Trace _ -> "trace"
    | History { checker; cache; _ } ->
        (match checker with `Cal -> "history cal" | `Lin -> "history lin")
        ^ Option.fold cache ~none:"" ~some:(fun on ->
              if on then ", cache on" else ", cache off")
    | Liveness { window } -> Fmt.str "liveness window %d" window)
    (match c.search with
    | Exhaustive { strategy = s; domains; max_runs } ->
        Fmt.str "exhaustive %s%s%s" (strategy s)
          (Option.fold domains ~none:"" ~some:(fun d ->
               Fmt.str ", %d domain%s" d (if d = 1 then "" else "s")))
          (opt "max-runs" max_runs)
    | Sampled { sampling = s; shrink } ->
        Fmt.str "sampled %s, seed %Ld, budget %d%s"
          (Conc.Sampler.kind_to_string s.s_kind)
          s.s_seed s.s_budget
          (if shrink then "" else ", no shrink"))
    c.fuel
    (opt "faults <=" c.faults.fault_bound)
    (Option.fold c.faults.delay_factors ~none:"" ~some:(fun l ->
         ", delays x" ^ String.concat ",x" (List.map string_of_int l)))
    (opt "max-plans" c.faults.max_plans)
    (opt "crash depth" c.faults.max_crash_depth)

let invalid fmt = Fmt.kstr (fun m -> invalid_arg ("Obligations.check: " ^ m)) fmt

(* The resolve_* helpers are the only readers of Tuning in this module,
   and the CAL_EXPLORE_DOMAINS / CAL_EXPLORE_STRATEGY / CAL_VERDICT_CACHE
   defaults are applied nowhere lower, so library callers of Conc.Explore
   are never surprised by them.

   An explicit strategy is used as given; a default one is replaced by
   CAL_EXPLORE_STRATEGY when that parses to anything but the plain DFS (on
   which a default preemption bound stays); unknown values keep the
   default. *)
let resolve_strategy = function
  | Explicit s -> s
  | Default d -> (
      match
        Option.bind (Tuning.explore_strategy ()) Conc.Explore.strategy_of_string
      with
      | Some s when s <> Conc.Explore.Dfs -> s
      | _ -> d)

(* Parallel checking is only used on untruncated sweeps: under a shared
   [max_runs] budget the admitted run subset is scheduling-dependent, and
   report determinism (runs, problems) is part of this module's contract. *)
let resolve_domains ~domains ~max_runs =
  if max_runs <> None then 1
  else match domains with Some d -> max 1 d | None -> Tuning.explore_domains ()

(* The verdict cache of a history check (absent: CAL_VERDICT_CACHE), with
   CAL_VERDICT_CACHE_CAP's capacity. *)
let resolve_cache cache =
  if Option.value cache ~default:(Tuning.verdict_cache_default ()) then
    Some (Verdict_cache.create ?capacity:(Tuning.verdict_cache_capacity ()) ())
  else None

(* The history check behind the verdict cache [vc] (its hits go into the
   report), and the obligation with its cache setting resolved. *)
let cached_history ~spec ~checker vc =
  let check o =
    match vc with
    | None -> history_check ~checker ~spec o
    | Some vc ->
        Verdict_cache.find_or_compute vc ~key:(history_key ~checker o) (fun () ->
            history_check ~checker ~spec o)
  in
  (check, History { spec; checker; cache = Some (vc <> None) })

(* The fault, crash and liveness sweeps run the DFS, optionally
   preemption-bounded, whatever the environment says. *)
let dfs_only (Explicit s | Default s) =
  match s with
  | Conc.Explore.Dfs | Preemption_bounded _ -> s
  | s ->
      invalid "fault, crash and liveness sweeps run on the DFS, not %s"
        (Conc.Explore.strategy_to_string s)

let preemption_bound = function
  | Conc.Explore.Preemption_bounded { bound } -> Some bound
  | _ -> None

let check c =
  let f = c.faults and fuel = c.fuel in
  let durable = match c.target with Durable _ -> true | Program _ -> false in
  let liveness = match c.obligation with Liveness _ -> true | _ -> false in
  let sampled = match c.search with Sampled _ -> true | Exhaustive _ -> false in
  if f.delay_factors <> None && f.fault_bound = None then
    invalid "delay_factors needs fault_bound";
  if f.max_crash_depth <> None && not durable then
    invalid "max_crash_depth needs a durable program";
  if f.max_plans <> None && (sampled || not (durable || liveness || f.fault_bound <> None))
  then invalid "max_plans needs an exhaustive fault, crash or liveness sweep";
  (* the durable and liveness sweeps always sweep (at least) the empty
     plan, and durable programs crash *)
  let faults =
    if not (durable || liveness) then f
    else
      {
        f with
        fault_bound = Some (Option.value f.fault_bound ~default:0);
        max_crash_depth =
          (if durable then Some (Option.value f.max_crash_depth ~default:1)
           else None);
      }
  in
  let resolved ?(obligation = c.obligation) strategy ~domains ~max_runs =
    let search =
      Exhaustive { strategy = Explicit strategy; domains = Some domains; max_runs }
    in
    { c with obligation; search; faults }
  in
  (* fault-free, on any strategy *)
  let fault_free ~setup strategy ~domains ~max_runs ?obligation ?vc check =
    let strategy = resolve_strategy strategy
    and domains = resolve_domains ~domains ~max_runs in
    let stats, accs =
      Conc.Explore.exhaustive_collect ~strategy ~domains ~setup ~fuel ?max_runs
        ~init:new_acc ~f:(record check) ()
    in
    report_of ?vc ~config:(resolved ?obligation strategy ~domains ~max_runs)
      stats accs
  in
  match (c.search, c.target, c.obligation) with
  | Exhaustive e, Program setup, Trace { spec; view } when f.fault_bound = None ->
      fault_free ~setup e.strategy ~domains:e.domains ~max_runs:e.max_runs
        (check_outcome ~spec ~view)
  | Exhaustive e, Program setup, History { spec; checker = `Cal; cache }
    when f.fault_bound = None ->
      let vc = resolve_cache cache in
      let check, obligation = cached_history ~spec ~checker:`Cal vc in
      fault_free ~setup e.strategy ~domains:e.domains ~max_runs:e.max_runs
        ~obligation ?vc check
  | Exhaustive { strategy; domains; max_runs }, Program setup, Trace { spec; view }
    ->
      let strategy = dfs_only strategy
      and domains = resolve_domains ~domains ~max_runs in
      let _plans, stats, accs =
        Conc.Explore.exhaustive_with_faults_collect
          ?delay_factors:f.delay_factors ~domains ~setup ~fuel ?max_runs
          ?preemption_bound:(preemption_bound strategy) ?max_plans:f.max_plans
          ~fault_bound:(Option.get f.fault_bound) ~init:new_acc
          ~f:(record (check_outcome ~spec ~view))
          ()
      in
      report_of ~config:(resolved strategy ~domains ~max_runs) stats accs
  | ( Exhaustive { strategy; domains = None; max_runs },
      Program setup,
      Liveness { window } ) ->
      let strategy = dfs_only strategy in
      let _plans, stats =
        Conc.Explore.liveness ?delay_factors:f.delay_factors
          ?max_plans:f.max_plans ?fault_bound:faults.fault_bound ~setup ~fuel
          ~window ?max_runs ?preemption_bound:(preemption_bound strategy) ()
      in
      liveness_report ~config:(resolved strategy ~domains:1 ~max_runs) ~window
        stats
  | ( Exhaustive { strategy; domains = None; max_runs },
      Durable setup,
      History { spec; checker; cache } ) ->
      let strategy = dfs_only strategy in
      let vc = resolve_cache cache in
      let check, obligation = cached_history ~spec ~checker vc in
      let acc = new_acc () in
      let _plans, stats =
        Conc.Explore.exhaustive_with_crashes ?delay_factors:f.delay_factors
          ~setup ~fuel ?max_runs ?preemption_bound:(preemption_bound strategy)
          ?max_plans:f.max_plans ?max_crash_depth:faults.max_crash_depth
          ?fault_bound:faults.fault_bound ~f:(record check acc) ()
      in
      report_of ?vc
        ~config:(resolved ~obligation strategy ~domains:1 ~max_runs)
        stats [| acc |]
  | Sampled { sampling; shrink }, Program _, Trace { spec; view } ->
      sampled_report ~config:c ~sampling ~shrink (check_outcome ~spec ~view)
  | ( Sampled { sampling; shrink },
      Durable _,
      History { spec; checker; cache = None } ) ->
      sampled_report ~config:{ c with faults } ~sampling ~shrink (fun o ->
          Result.map_error
            (fun m ->
              (match checker with
              | `Cal -> "durable CAL obligation: "
              | `Lin -> "durable linearizability obligation: ")
              ^ m)
            (history_check ~checker ~spec o))
  | _ -> invalid "no check serves [%a]" pp_config c

(* The exhaustive trace and black-box checks as functions of their old
   arguments, kept only because the repository benchmark
   (perfbench/bench.ml) calls them. *)
let legacy ?domains ?strategy ?max_runs ?preemption_bound ~setup ~fuel
    obligation =
  let strategy =
    match (strategy, preemption_bound) with
    | (None | Some Conc.Explore.Dfs), Some bound ->
        let s = Conc.Explore.Preemption_bounded { bound } in
        if strategy = None then Default s else Explicit s
    | None, None -> Default Dfs
    | Some s, _ -> Explicit s
  in
  let search = Exhaustive { strategy; domains; max_runs } in
  check { target = Program setup; obligation; search; fuel; faults = no_faults }

let check_object ?domains ?strategy ~setup ~spec ~view ~fuel ?max_runs
    ?preemption_bound () =
  legacy ?domains ?strategy ?max_runs ?preemption_bound ~setup ~fuel
    (Trace { spec; view })

let check_black_box ?domains ?strategy ?cache ~setup ~spec ~fuel ?max_runs
    ?preemption_bound () =
  legacy ?domains ?strategy ?max_runs ?preemption_bound ~setup ~fuel
    (History { spec; checker = `Cal; cache })

let ok r = r.problems = []

let pp_exploration ppf (s : Conc.Explore.stats) =
  Fmt.pf ppf " [nodes %d, replayed %d steps%s%s%s%s%s%s]" s.nodes
    s.replayed_steps
    (if s.sleep_pruned > 0 then Fmt.str ", pruned %d sleep" s.sleep_pruned
     else "")
    (if s.races_found > 0 || s.backtrack_points > 0 then
       Fmt.str ", %d races / %d backtrack points" s.races_found
         s.backtrack_points
     else "")
    (if s.bounded then Fmt.str ", bounded (%d bound hits)" s.bound_hits
     else "")
    (if s.domains_used > 1 || s.domains_requested > s.domains_used then
       Fmt.str ", %d domains%s (%d stolen)" s.domains_used
         (if s.domains_requested > s.domains_used then
            Fmt.str " of %d requested (hardware cap)" s.domains_requested
          else "")
         s.tasks_stolen
     else "")
    (if s.cache_hits > 0 then Fmt.str ", %d cache hits" s.cache_hits else "")
    (if s.sampled_runs > 0 then
       Fmt.str ", sampled %d (%d violations, shrink %d candidates/%d removed)"
         s.sampled_runs s.violations_found s.shrink_candidates
         s.shrink_steps_removed
     else "")

let pp_report ppf r =
  if ok r then begin
    Fmt.pf ppf "OK: %d runs (%d complete)%s [%a]" r.runs r.complete_runs
      (if r.truncated then " [truncated]" else "")
      pp_config r.config;
    Option.iter (pp_exploration ppf) r.exploration
  end
  else
    Fmt.pf ppf "@[<v>%d PROBLEMS over %d runs [%a]:@,%a@]"
      (List.length r.problems) r.runs pp_config r.config
      (Fmt.list ~sep:Fmt.cut (fun ppf (p : problem) ->
           Fmt.pf ppf "- %s@,  schedule: %a" p.message
             (Fmt.list ~sep:(Fmt.any " ") Conc.Runner.pp_decision)
             p.schedule;
           if p.plan <> [] then
             Fmt.pf ppf "@,  faults: %a" Conc.Fault.pp_plan p.plan))
      r.problems
