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

type report = {
  runs : int;
  complete_runs : int;
  problems : problem list;
  truncated : bool;
  exploration : Conc.Explore.stats option;
      (* engine cost counters of the underlying exploration, when the
         check ran on the exhaustive engine *)
  sampling : sampling option;  (* Some _ exactly for check_sampled* *)
}

(* ---------------------------------------------------- parallel knobs --- *)

(* The CAL_EXPLORE_DOMAINS and CAL_EXPLORE_STRATEGY defaults (read by
   Tuning) are applied here — the Obligations layer — and nowhere lower,
   so library callers of Conc.Explore are never surprised by them.

   Parallel checking is only used on untruncated sweeps: under a shared
   [max_runs] budget the admitted run subset is scheduling-dependent, and
   report determinism (runs, problems) is part of this module's contract. *)
let resolve_domains ~max_runs domains =
  if max_runs <> None then 1
  else match domains with Some d -> max 1 d | None -> Tuning.explore_domains ()

(* Default exploration strategy ("dfs", "dpor", "preemption:N", "delay:N"
   — see {!Conc.Explore.strategy_of_string}); unknown values fall back to
   the plain DFS. *)
let resolve_strategy = function
  | Some s -> s
  | None ->
      Option.bind (Tuning.explore_strategy ()) Conc.Explore.strategy_of_string
      |> Option.value ~default:Conc.Explore.Dfs

let new_cache cache =
  let on =
    match cache with Some c -> c | None -> Tuning.verdict_cache_default ()
  in
  if on then
    Some (Verdict_cache.create ?capacity:(Tuning.verdict_cache_capacity ()) ())
  else None

(* Patch the cache counters into the report's exploration stats. *)
let patch_cache vc r =
  match (vc, r.exploration) with
  | Some c, Some (s : Conc.Explore.stats) ->
      { r with exploration = Some { s with cache_hits = Verdict_cache.hits c } }
  | _ -> r

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
   report's problem list. *)
let report_of ?exploration ~truncated accs =
  {
    runs = Array.fold_left (fun n a -> n + a.a_runs) 0 accs;
    complete_runs = Array.fold_left (fun n a -> n + a.a_complete) 0 accs;
    problems =
      cap10 (List.concat_map (fun a -> List.rev a.a_problems) (Array.to_list accs));
    truncated;
    exploration;
    sampling = None;
  }

(* Remove one occurrence of [op] from [ops]; None when absent. *)
let remove_one op ops =
  let rec go acc = function
    | [] -> None
    | o :: rest ->
        if Op.equal o op then Some (List.rev_append acc rest) else go (o :: acc) rest
  in
  go [] ops

let reconcile h trace =
  match History.validate h with
  | Error reason -> Error ("ill-formed history: " ^ reason)
  | Ok () ->
      let entries = History.entries h in
      let trace_ops = ref (Ca_trace.ops trace) in
      let errors = ref [] in
      (* account every completed operation *)
      List.iter
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
      let dropped = ref [] in
      let appended = ref [] in
      List.iter
        (fun (e : History.entry) ->
          if e.ret = None then begin
            let matches (o : Op.t) =
              Ids.Tid.equal o.tid e.tid && Ids.Oid.equal o.oid e.oid
              && Ids.Fid.equal o.fid e.fid && Value.equal o.arg e.arg
            in
            match List.find_opt matches !trace_ops with
            | Some o ->
                trace_ops := Option.get (remove_one o !trace_ops);
                appended :=
                  Action.res ~tid:e.tid ~oid:e.oid ~fid:e.fid o.ret :: !appended
            | None -> dropped := e.inv_index :: !dropped
          end)
        entries;
      List.iter
        (fun (o : Op.t) ->
          errors :=
            Fmt.str "trace operation %a does not occur in the history" Op.pp o
            :: !errors)
        !trace_ops;
      if !errors <> [] then Error (String.concat "; " (List.rev !errors))
      else begin
        let kept =
          History.to_list h
          |> List.filteri (fun idx _ -> not (List.mem idx !dropped))
        in
        Ok (History.of_list (kept @ List.rev !appended))
      end

let check_outcome ~spec ~view (outcome : Conc.Runner.outcome) =
  let viewed = view outcome.trace in
  match Spec.explain_rejection spec viewed with
  | Some msg -> Error ("spec obligation: " ^ msg)
  | None -> (
      match reconcile outcome.history viewed with
      | Error msg -> Error ("reconciliation: " ^ msg)
      | Ok completion -> (
          match Agreement.check completion viewed with
          | Error msg -> Error ("agreement obligation: " ^ msg)
          | Ok _ -> Ok ()))

let collect ?domains ?strategy ~setup ~fuel ?max_runs ?preemption_bound
    ~check () =
  let domains = resolve_domains ~max_runs domains in
  let strategy = resolve_strategy strategy in
  (* [preemption_bound] is the [Dfs] path's spelling of
     [Preemption_bounded]; under any other strategy it is ignored rather
     than composed, so the strategy alone defines the run set *)
  let preemption_bound =
    if strategy = Conc.Explore.Dfs then preemption_bound else None
  in
  let stats, accs =
    Conc.Explore.exhaustive_collect ~strategy ~domains ~setup ~fuel ?max_runs
      ?preemption_bound ~init:new_acc ~f:(record check) ()
  in
  report_of ~exploration:stats ~truncated:stats.truncated accs

let check_object ?domains ?strategy ~setup ~spec ~view ~fuel ?max_runs
    ?preemption_bound () =
  collect ?domains ?strategy ~setup ~fuel ?max_runs ?preemption_bound
    ~check:(check_outcome ~spec ~view) ()

let check_object_with_faults ?delay_factors ?domains ~setup ~spec ~view ~fuel
    ?max_runs ?preemption_bound ?max_plans ~fault_bound () =
  let domains = resolve_domains ~max_runs domains in
  let _plans, stats, accs =
    Conc.Explore.exhaustive_with_faults_collect ?delay_factors ~domains ~setup
      ~fuel ?max_runs ?preemption_bound ?max_plans ~fault_bound ~init:new_acc
      ~f:(record (check_outcome ~spec ~view))
      ()
  in
  report_of ~exploration:stats ~truncated:stats.truncated accs

(* The liveness obligation (watchdog): on every fair schedule the object
   either finishes or genuinely blocks. A livelocked run — incomplete at
   fuel, decisions still enabled, no thread starved — is a problem; starved
   runs are excused (the schedule was unfair) and deadlocks are the
   blocking structures' legitimate behaviour. *)
let liveness_report ~fuel ~window (stats : Conc.Explore.liveness_stats) =
  let problems =
    List.map
      (fun (schedule, plan) ->
        {
          schedule;
          plan;
          message =
            Fmt.str
              "liveness obligation: livelock — incomplete at fuel %d with \
               enabled decisions and no thread starved (window %d)"
              fuel window;
        })
      stats.Conc.Explore.livelocks
  in
  {
    runs = stats.Conc.Explore.live_runs;
    complete_runs = stats.Conc.Explore.live_completed;
    problems;
    truncated = stats.Conc.Explore.live_truncated;
    exploration = None;
    sampling = None;
  }

let check_liveness ?delay_factors ~setup ~fuel ~window ?max_runs
    ?preemption_bound ?max_plans ?(fault_bound = 0) () =
  let _plans, stats =
    Conc.Explore.liveness_with_faults ?delay_factors ~setup ~fuel ~window
      ?max_runs ?preemption_bound ?max_plans ~fault_bound ()
  in
  liveness_report ~fuel ~window stats

(* Black-box checks decide the verdict on the history alone, so the verdict
   is a function of the canonical history ({!Cal.History.canonicalize}) —
   schedules that interleave the same operations with the same concurrency
   structure share one checker run through the verdict cache. Trace-based
   checks ({!check_object}) are never cached: their verdict also depends on
   the auxiliary trace, which the canonical key does not cover. *)
let check_black_box ?domains ?strategy ?cache ~setup ~spec ~fuel ?max_runs
    ?preemption_bound () =
  let vc = new_cache cache in
  let base (outcome : Conc.Runner.outcome) () =
    match Cal_checker.check ~spec outcome.history with
    | Cal_checker.Accepted _ -> Ok ()
    | Cal_checker.Rejected { reason; _ } -> Error reason
  in
  let check outcome =
    match vc with
    | None -> base outcome ()
    | Some c ->
        Verdict_cache.find_or_compute c
          ~key:(History.canonical_key outcome.Conc.Runner.history)
          (base outcome)
  in
  patch_cache vc
    (collect ?domains ?strategy ~setup ~fuel ?max_runs ?preemption_bound
       ~check ())

(* ------------------------------------------------ durable obligations -- *)

(* Durable checking is black-box on the history: the structures' explicit
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

let durable_check ~checker ~spec (outcome : Conc.Runner.outcome) =
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

(* Durable verdicts additionally depend on which threads the plan crashed
   (the checker's crash-tolerant mode) and on which checker runs, so both
   go into the cache key next to the canonical history. *)
let durable_key ~checker (outcome : Conc.Runner.outcome) =
  String.concat "|"
    ((match checker with `Cal -> "cal" | `Lin -> "lin")
    :: List.map string_of_int (crashed_tids outcome))
  ^ "\n"
  ^ History.canonical_key outcome.history

let check_durable ?(checker = `Cal) ?cache ?delay_factors ~setup ~spec ~fuel
    ?max_runs ?preemption_bound ?max_plans ?max_crash_depth ?fault_bound () =
  let vc = new_cache cache in
  let check outcome =
    match vc with
    | None -> durable_check ~checker ~spec outcome
    | Some c ->
        Verdict_cache.find_or_compute c ~key:(durable_key ~checker outcome)
          (fun () -> durable_check ~checker ~spec outcome)
  in
  let acc = new_acc () in
  let _plans, stats =
    Conc.Explore.exhaustive_with_crashes ?delay_factors ~setup ~fuel ?max_runs
      ?preemption_bound ?max_plans ?max_crash_depth ?fault_bound
      ~f:(record check acc) ()
  in
  patch_cache vc
    (report_of ~exploration:stats ~truncated:stats.truncated [| acc |])

(* ------------------------------------------------- sampled obligations -- *)

(* Sampled checking (DESIGN §2.12): run the program [budget] times under a
   randomized Sampler scheduler, check every outcome with the same
   obligations as the exhaustive sweeps, exit at the first violation,
   minimize its (schedule, plan) witness with Shrink, and render a
   failure report that is a complete reproduction recipe on its own:
   sampler kind + seed + budget replay the run sequence, and the printed
   minimal schedule/plan replay the violation directly. *)

let default_kind = Conc.Sampler.Pct { d = 3 }

let sampled_stats ~runs ~max_steps ~violations ~shrink_candidates
    ~shrink_steps_removed =
  Conc.Explore.
    {
      Conc.Explore.empty_stats with
      runs;
      max_steps;
      sampled_runs = runs;
      violations_found = violations;
      shrink_candidates;
      shrink_steps_removed;
    }

let render_sampled_problem ~kind ~seed ~budget ~fuel ~run_index ~target ~plan
    ~schedule ~(outcome : Conc.Runner.outcome) ~message
    ~(shrink : Conc.Shrink.stats option) =
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
     flood the report. *)
  let races = Conc.Explore.races_of ~plan ~target schedule in
  let cap = Tuning.witness_race_cap () in
  let shown = List.filteri (fun i _ -> i < cap) races in
  let hidden = List.length races - List.length shown in
  let races_line =
    if races <> [] && shown = [] then
      Fmt.str "races: %d pairs (raise CAL_WITNESS_RACE_CAP to list them)"
        (List.length races)
    else
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
    run_index budget
    (Conc.Sampler.kind_to_string kind)
    seed fuel message
    (Cal.Witness.schedule_string segs)
    (List.length schedule) races_line shrink_line Cal.Witness.pp_era_history
    outcome.history

(* [plans rng] draws the fault plan of each run from the check's one RNG
   stream; a fault-free check draws nothing, so its stream is the
   sampler's alone. *)
let sampled_report ~kind ~seed ~budget ~fuel ~shrink ~target ~check ~plans
    () =
  let rng = Conc.Rng.create ~seed in
  let next_plan = plans rng in
  let sample_one () =
    let plan = next_plan () in
    Conc.Sampler.run ~plan ~kind ~target ~fuel ~rng ()
  in
  let acc = new_acc () in
  let violations = ref 0 in
  let sh_cand = ref 0 and sh_removed = ref 0 in
  let max_steps = ref 0 in
  let stop = ref false in
  let run_index = ref 0 in
  while (not !stop) && !run_index < budget do
    incr run_index;
    let outcome = sample_one () in
    acc.a_runs <- acc.a_runs + 1;
    if outcome.Conc.Runner.complete then acc.a_complete <- acc.a_complete + 1;
    max_steps := max !max_steps outcome.Conc.Runner.steps;
    match check outcome with
    | Ok () -> ()
    | Error message ->
        (* early exit: sampling is a detection mode, one (minimized)
           counterexample is the deliverable *)
        incr violations;
        stop := true;
        let fails o = Result.is_error (check o) in
        let schedule, plan, final, sstats =
          if shrink then
            match
              Conc.Shrink.minimize ~target ~fails
                ~schedule:outcome.Conc.Runner.schedule
                ~plan:outcome.Conc.Runner.faults ()
            with
            | Ok m ->
                sh_cand := m.Conc.Shrink.m_stats.candidates;
                sh_removed := m.Conc.Shrink.m_stats.steps_removed;
                (m.m_schedule, m.m_plan, m.m_outcome, Some m.m_stats)
            | Error _ ->
                (outcome.Conc.Runner.schedule, outcome.Conc.Runner.faults,
                 outcome, None)
          else
            (outcome.Conc.Runner.schedule, outcome.Conc.Runner.faults,
             outcome, None)
        in
        (* the verdict of the minimal witness, not the original run's *)
        let message =
          match check final with Error m -> m | Ok () -> message
        in
        acc.a_problems <-
          {
            schedule;
            plan;
            message =
              render_sampled_problem ~kind ~seed ~budget ~fuel
                ~run_index:!run_index ~target ~plan ~schedule ~outcome:final
                ~message ~shrink:sstats;
          }
          :: acc.a_problems
  done;
  {
    runs = acc.a_runs;
    complete_runs = acc.a_complete;
    problems = List.rev acc.a_problems;
    truncated = false;
    exploration =
      Some
        (sampled_stats ~runs:acc.a_runs ~max_steps:!max_steps
           ~violations:!violations ~shrink_candidates:!sh_cand
           ~shrink_steps_removed:!sh_removed);
    sampling = Some { s_kind = kind; s_seed = seed; s_budget = budget };
  }

(* Fault plans drawn per run from a space learned by four probe walks on
   the same RNG stream. *)
let probed_plans ~target ~fuel ?delay_factors ~crash_depth ~fault_bound rng =
  let space = Conc.Sampler.probe ~target ~fuel ~runs:4 ~rng () in
  fun () ->
    Conc.Sampler.sample_plan ~fault_bound ?delay_factors ~crash_depth space
      ~rng

let check_sampled ?(kind = default_kind) ?(seed = 1L) ?(shrink = true)
    ?delay_factors ?fault_bound ~setup ~spec ~view ~fuel ~budget () =
  let target = Conc.Runner.Program setup in
  let plans =
    match (fault_bound, delay_factors) with
    | None, None -> fun _ () -> []
    | None, Some _ ->
        invalid_arg "Obligations.check_sampled: delay_factors needs fault_bound"
    | Some fault_bound, _ ->
        probed_plans ~target ~fuel ?delay_factors ~crash_depth:0 ~fault_bound
  in
  sampled_report ~kind ~seed ~budget ~fuel ~shrink ~target
    ~check:(check_outcome ~spec ~view) ~plans ()

let check_sampled_durable ?(checker = `Cal) ?(kind = default_kind)
    ?(seed = 1L) ?(shrink = true) ?delay_factors ?(fault_bound = 0)
    ?(max_crash_depth = 1) ~setup ~spec ~fuel ~budget () =
  let target = Conc.Runner.Durable setup in
  let check o =
    Result.map_error
      (fun m ->
        (match checker with
        | `Cal -> "durable CAL obligation: "
        | `Lin -> "durable linearizability obligation: ")
        ^ m)
      (durable_check ~checker ~spec o)
  in
  sampled_report ~kind ~seed ~budget ~fuel ~shrink ~target ~check
    ~plans:
      (probed_plans ~target ~fuel ?delay_factors ~crash_depth:max_crash_depth
         ~fault_bound)
    ()

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

let pp_sampling ppf s =
  Fmt.pf ppf " [sampler %s, seed %Ld, budget %d]"
    (Conc.Sampler.kind_to_string s.s_kind)
    s.s_seed s.s_budget

let pp_report ppf r =
  if ok r then begin
    Fmt.pf ppf "OK: %d runs (%d complete)%s" r.runs r.complete_runs
      (if r.truncated then " [truncated]" else "");
    Option.iter (pp_sampling ppf) r.sampling;
    Option.iter (pp_exploration ppf) r.exploration
  end
  else
    Fmt.pf ppf "@[<v>%d PROBLEMS over %d runs:@,%a@]" (List.length r.problems) r.runs
      (Fmt.list ~sep:Fmt.cut (fun ppf (p : problem) ->
           Fmt.pf ppf "- %s@,  schedule: %a" p.message
             (Fmt.list ~sep:(Fmt.any " ") Conc.Runner.pp_decision)
             p.schedule;
           if p.plan <> [] then
             Fmt.pf ppf "@,  faults: %a" Conc.Fault.pp_plan p.plan))
      r.problems
