open Cal
open Conc
open Structures
open Prog.Infix

type result = {
  threads : int;
  steps : int;
  sim_time : float;
  ops_completed : int;
  ops_succeeded : int;
  ops_timed_out : int;
  ops_cancelled : int;
  retries : int;
  ops_crashed : int;
  sys_crashes : int;
  recovery_steps : int;
  throughput : float;
}

type stack_impl = Treiber_retry | Treiber_backoff | Elimination of int

(* Contention cost model. A unit-cost interleaving simulator misses the
   dominant scalability effect on real hardware: every CAS on a contended
   cache line — successful or not — serialises on that line and costs more
   the hotter the line is. CAS steps are labelled "…@location"; we keep an
   exponentially decaying access rate per location and charge

     cost(CAS at L) = 1 + beta * min(rate_L, cap)      (other steps cost 1)

   so a CAS on a line hammered by many threads is proportionally more
   expensive, while CASes spread over k locations (the elimination array)
   stay cheap. beta, tau and cap are fixed here and recorded in
   EXPERIMENTS.md; the qualitative shape is insensitive to their exact
   values. *)
module Cost_model = struct
  type t = {
    mutable time : float;
    rates : (string, float * float) Hashtbl.t; (* location -> rate, last time *)
  }

  let beta = 0.8
  let tau = 64.
  let cap = 24.

  let create () = { time = 0.; rates = Hashtbl.create 8 }

  let location label =
    match String.index_opt label '@' with
    | Some i -> Some (String.sub label (i + 1) (String.length label - i - 1))
    | None -> None

  let charge t label =
    match location label with
    | None -> t.time <- t.time +. 1.
    | Some l ->
        let rate, last =
          match Hashtbl.find_opt t.rates l with
          | Some (r, last) -> (r, last)
          | None -> (0., t.time)
        in
        let decayed = rate *. exp (-.(t.time -. last) /. tau) in
        let rate' = decayed +. 1. in
        Hashtbl.replace t.rates l (rate', t.time);
        t.time <- t.time +. 1. +. (beta *. Float.min decayed cap)

  let time t = t.time
end

(* A thread body looping forever; operation completions are counted through
   shared cells rather than the history (cheaper and fuel-friendly). *)
let forever body =
  let rec loop () = body () >>= fun () -> loop () in
  (* the loop never returns; give it an unreachable result type *)
  loop () >>= fun () -> Prog.return Value.unit

type counters = {
  completed : int ref;
  succeeded : int ref;
  timed_out : int ref;
  cancelled : int ref;
}

let count cs result =
  Prog.atomic ~label:"count" (fun () ->
      incr cs.completed;
      (match result with
      | `Success -> incr cs.succeeded
      | `Timeout -> incr cs.timed_out
      | `Cancelled -> incr cs.cancelled
      | `Failure -> ());
      ())

(* Operation results follow the library-wide value conventions: [ok]/[fail]
   pairs, the [timeout]/[cancelled] tags of timed operations, or a bare
   boolean. *)
let classify v =
  if Value.is_timeout v then `Timeout
  else if Value.is_cancelled v then `Cancelled
  else
    match v with
    | Value.Bool b | Value.Pair (Value.Bool b, _) ->
        if b then `Success else `Failure
    | _ -> `Failure

(* Recovery programs label their steps "recover@…" / "recover-scan@…"; a
   prefix check catches both without enumerating locations. *)
let is_recovery_label label =
  String.length label >= 7 && String.sub label 0 7 = "recover"

type meter = {
  counters : counters;
  retries : int ref;
  recovery_steps : int ref;
  model : Cost_model.t;
  charge : string -> unit;
}

let meter () =
  let counters =
    { completed = ref 0; succeeded = ref 0; timed_out = ref 0; cancelled = ref 0 }
  in
  let retries = ref 0 in
  let recovery_steps = ref 0 in
  let model = Cost_model.create () in
  (* "backoff" steps are exactly the failed-attempt pauses, so their count
     is the retry count of the run. *)
  let charge label =
    if Fault.matches_label ~pattern:"backoff" label then incr retries;
    if is_recovery_label label then incr recovery_steps;
    Cost_model.charge model label
  in
  { counters; retries; recovery_steps; model; charge }

let result_of ~threads m (outcome : Runner.outcome) =
  let counters = m.counters in
  let count_faults p =
    List.length (List.filter p outcome.Runner.injected)
  in
  let ops_crashed = count_faults (function Fault.Crash _ -> true | _ -> false) in
  let sys_crashes =
    count_faults (function Fault.Crash_system _ -> true | _ -> false)
  in
  let sim_time = Cost_model.time m.model in
  {
    threads;
    steps = outcome.Runner.steps;
    sim_time;
    ops_completed = !(counters.completed);
    ops_succeeded = !(counters.succeeded);
    ops_timed_out = !(counters.timed_out);
    ops_cancelled = !(counters.cancelled);
    retries = !(m.retries);
    ops_crashed;
    sys_crashes;
    recovery_steps = !(m.recovery_steps);
    throughput =
      (if sim_time = 0. then 0.
       else 1000. *. float_of_int !(counters.completed) /. sim_time);
  }

let measure ?(plan = []) ~threads ~fuel ~seed ~setup () =
  let m = meter () in
  let outcome =
    Sampler.run ~plan ~kind:Sampler.Random_walk
      ~target:
        (Runner.Program
           (fun ctx ->
             let program = setup ctx ~counters:m.counters in
             { program with Runner.on_label = Some m.charge }))
      ~fuel
      ~rng:(Rng.create ~seed)
      ()
  in
  result_of ~threads m outcome

(* {!measure} for durable programs: the cost/retry/recovery hook is
   installed on the boot program and re-installed on every recovery
   program, so post-crash work is charged like any other. *)
let measure_durable ?(plan = []) ~threads ~fuel ~seed ~setup () =
  let m = meter () in
  let with_charge (p : Runner.program) =
    { p with Runner.on_label = Some m.charge }
  in
  let outcome =
    Sampler.run ~plan ~kind:Sampler.Random_walk
      ~target:
        (Runner.Durable
           (fun ctx ->
             let d = setup ctx ~counters:m.counters in
             {
               d with
               Runner.boot = with_charge d.Runner.boot;
               recover = (fun ~epoch -> with_charge (d.Runner.recover ~epoch));
             }))
      ~fuel
      ~rng:(Rng.create ~seed)
      ()
  in
  result_of ~threads m outcome

let stack_setup ~impl ~threads ~seed ctx ~counters =
  let push, pop =
    match impl with
    | Treiber_retry ->
        let s = Treiber_stack.create ~instrument:false ~log_history:false ctx in
        (Treiber_stack.push_retry s, Treiber_stack.pop_retry s)
    | Treiber_backoff ->
        let s = Treiber_stack.create ~instrument:false ~log_history:false ctx in
        let pol = Backoff.policy ~seed:(Int64.add seed 11L) () in
        (Treiber_stack.push_retry ~backoff:pol s, Treiber_stack.pop_retry ~backoff:pol s)
    | Elimination k ->
        let rng = Rng.create ~seed:(Int64.add seed 7L) in
        let es =
          Elimination_stack.create ~instrument:false ~log_history:false ~k
            ~factory:(Elim_array.concrete_waiting ~wait:8)
            ~slot_strategy:(Elim_array.Seeded rng) ctx
        in
        (Elimination_stack.push es, Elimination_stack.pop es)
  in
  {
    Runner.threads =
      Array.init threads (fun i ->
          let tid = Ids.Tid.of_int i in
          forever (fun () ->
              let* _ = push ~tid (Value.int i) in
              let* () = count counters `Success in
              let* _ = pop ~tid in
              count counters `Success));
    observe = None;
    on_label = None;
  }

let stack_throughput ~impl ~threads ~fuel ~seed =
  measure ~threads ~fuel ~seed ~setup:(stack_setup ~impl ~threads ~seed) ()

(* A fault sweep crashes [crashes] distinct threads at seeded points early
   in the run, then measures what the survivors still deliver. *)
let crash_plan ~threads ~crashes ~seed =
  if crashes > threads then
    invalid_arg "Metrics.crash_plan: more crashes than threads";
  let rng = Rng.create ~seed:(Int64.add seed 23L) in
  List.init crashes (fun i ->
      Fault.crash ~thread:i ~at_step:(1 + Rng.int rng 500))

let stack_fault_sweep ~impl ~threads ~crashes ~fuel ~seed =
  let plan = crash_plan ~threads ~crashes ~seed in
  measure ~plan ~threads ~fuel ~seed ~setup:(stack_setup ~impl ~threads ~seed) ()

(* The B13 crash-recovery sweep: a durable Treiber stack under [crashes]
   evenly spaced whole-system crashes. After each crash thread 0 runs the
   stack's recovery procedure ([recovery_cost] scan steps) solo — the other
   threads block on the recovery flag until it finishes, since recovery's
   re-assertion of durable state must not race with new-era removals — and
   then every thread resumes the workload. The spacing floor keeps the plan
   strictly increasing even at tiny fuel. *)
let durable_stack_crash_sweep ~threads ~crashes ~recovery_cost ~fuel ~seed =
  if crashes < 0 then
    invalid_arg "Metrics.durable_stack_crash_sweep: negative crash count";
  let spacing = max 1 (fuel / (crashes + 1)) in
  let plan =
    List.init crashes (fun i -> Fault.crash_system ~at_step:((i + 1) * spacing))
  in
  let setup ctx ~counters =
    let domain = Pcell.domain () in
    let stack =
      Durable_treiber_stack.create ~log_history:false ~domain ctx
    in
    let worker i =
      let tid = Ids.Tid.of_int i in
      forever (fun () ->
          let* _ = Durable_treiber_stack.push stack ~tid (Value.int i) in
          let* () = count counters `Success in
          let* _ = Durable_treiber_stack.pop stack ~tid in
          count counters `Success)
    in
    let program threads' =
      { Runner.threads = threads'; observe = None; on_label = None }
    in
    {
      Runner.boot = program (Array.init threads worker);
      domain;
      recover =
        (fun ~epoch:_ ->
          let ready = ref false in
          program
            (Array.init threads (fun i ->
                 if i = 0 then
                   Durable_treiber_stack.recover ~cost:recovery_cost stack
                   >>= fun () ->
                   Prog.atomic ~label:"recovery-done" (fun () -> ready := true)
                   >>= fun () -> worker i
                 else
                   Prog.guard ~label:"await-recovery" (fun () ->
                       if !ready then Some (worker i) else None))));
    }
  in
  measure_durable ~plan ~threads ~fuel ~seed ~setup ()

let exchanger_success_rate ~threads ~rounds ~fuel ~seed =
  let setup ctx ~counters =
    let ex = Exchanger.create ~instrument:false ~log_history:false ~wait:8 ctx in
    {
      Runner.threads =
        Array.init threads (fun i ->
            let tid = Ids.Tid.of_int i in
            let rec go k =
              if k = 0 then Prog.return Value.unit
              else
                let* r = Exchanger.exchange_body ex ~tid (Value.int i) in
                let ok, _ = Value.to_pair r in
                let* () =
                  count counters (if Value.to_bool ok then `Success else `Failure)
                in
                go (k - 1)
            in
            go rounds);
      observe = None;
      on_label = None;
    }
  in
  measure ~threads ~fuel ~seed ~setup ()

(* Each round arms a fresh absolute deadline on the thread's perceived
   clock, so a round either swaps or times out — no thread is ever stuck. *)
let exchanger_timed_rate ?(plan = []) ~threads ~deadline ~fuel ~seed () =
  if deadline < 1 then invalid_arg "Metrics.exchanger_timed_rate: deadline < 1";
  let setup ctx ~counters =
    let ex = Exchanger.create ~instrument:false ~log_history:false ~wait:8 ctx in
    {
      Runner.threads =
        Array.init threads (fun i ->
            let tid = Ids.Tid.of_int i in
            forever (fun () ->
                let* d =
                  Prog.atomic ~label:"arm-deadline" (fun () ->
                      Ctx.local_now ctx ~tid + deadline)
                in
                let* r = Exchanger.exchange_timed_body ex ~tid ~deadline:d (Value.int i) in
                count counters (classify r)));
      observe = None;
      on_label = None;
    }
  in
  measure ~plan ~threads ~fuel ~seed ~setup ()

let sync_queue_handoffs ~producers ~consumers ~rounds ~fuel ~seed =
  let threads = producers + consumers in
  let setup ctx ~counters =
    let q = Sync_queue.create ~instrument:false ~log_history:false ~wait:8 ctx in
    {
      Runner.threads =
        Array.init threads (fun i ->
            let tid = Ids.Tid.of_int i in
            let rec go k =
              if k = 0 then Prog.return Value.unit
              else
                let* r =
                  if i < producers then Sync_queue.put q ~tid (Value.int i)
                  else Sync_queue.take q ~tid
                in
                let success =
                  match r with
                  | Value.Bool b -> b
                  | Value.Pair (Value.Bool b, _) -> b
                  | _ -> false
                in
                let* () = count counters (if success then `Success else `Failure) in
                go (k - 1)
            in
            go rounds);
      observe = None;
      on_label = None;
    }
  in
  measure ~threads ~fuel ~seed ~setup ()

(* ------------------------------------------ exploration engine cost --- *)

type explore_cost = {
  engine : string;
  explored_runs : int;
  nodes : int;
  steps_executed : int;
  replayed_steps : int;
  sleep_pruned : int;
  races_found : int;
  backtrack_points : int;
  bound_hits : int;
  explore_bounded : bool;
  domains_used : int;
  domains_requested : int;
  tasks_stolen : int;
  explore_truncated : bool;
}

let explore_cost ~engine ~setup ~fuel ?max_runs ?preemption_bound () =
  let name, stats =
    match engine with
    | `Replay ->
        ( "replay",
          Explore.exhaustive_via_replay ~setup ~fuel ?max_runs
            ?preemption_bound ~f:ignore () )
    | `Incremental ->
        ( "incremental",
          Explore.exhaustive ~setup ~fuel ?max_runs ?preemption_bound
            ~f:ignore () )
    | `Parallel d ->
        ( Printf.sprintf "parallel-%d" d,
          Explore.exhaustive ~domains:d ~setup ~fuel ?max_runs
            ?preemption_bound ~f:ignore () )
    | `Dpor ->
        ( "dpor",
          Explore.exhaustive ~strategy:Explore.Dpor ~setup ~fuel ?max_runs
            ~f:ignore () )
  in
  let steps_executed =
    match engine with
    | `Replay ->
        (* the replay engine executes exactly the steps it replays *)
        stats.Explore.replayed_steps
    | `Incremental | `Parallel _ | `Dpor ->
        (* one fresh step per tree edge, plus the backtracking replays *)
        max 0 (stats.Explore.nodes - 1) + stats.Explore.replayed_steps
  in
  {
    engine = name;
    explored_runs = stats.Explore.runs;
    nodes = stats.Explore.nodes;
    steps_executed;
    replayed_steps = stats.Explore.replayed_steps;
    sleep_pruned = stats.Explore.sleep_pruned;
    races_found = stats.Explore.races_found;
    backtrack_points = stats.Explore.backtrack_points;
    bound_hits = stats.Explore.bound_hits;
    explore_bounded = stats.Explore.bounded;
    domains_used = stats.Explore.domains_used;
    domains_requested = stats.Explore.domains_requested;
    tasks_stolen = stats.Explore.tasks_stolen;
    explore_truncated = stats.Explore.truncated;
  }

let pp_explore_cost ppf c =
  Fmt.pf ppf
    "%-18s runs=%-6d nodes=%-7d steps=%-8d replayed=%-8d sleep=%d%s%s%s%s"
    c.engine c.explored_runs c.nodes c.steps_executed c.replayed_steps
    c.sleep_pruned
    (if c.races_found > 0 || c.backtrack_points > 0 then
       Fmt.str " races=%d backtracks=%d" c.races_found c.backtrack_points
     else "")
    (if c.explore_bounded then Fmt.str " bound-hits=%d" c.bound_hits else "")
    (if c.domains_used > 1 || c.domains_requested > c.domains_used then
       Fmt.str " domains=%d%s stolen=%d" c.domains_used
         (if c.domains_requested > c.domains_used then
            Fmt.str "/%d-requested" c.domains_requested
          else "")
         c.tasks_stolen
     else "")
    (if c.explore_truncated then " [truncated]" else "")

(* ------------------------------------------- sampled-checking cost --- *)

type sampling_cost = {
  sc_scenario : string;
  sc_sampler : string;
  sc_seed : int64;
  sc_budget : int;
  sc_runs : int;
  sc_detected : bool;
  sc_witness_len : int;
  sc_shrink_candidates : int;
  sc_shrink_steps_removed : int;
}

let sampling_cost_of_report ~scenario ~kind ~seed ~budget
    (r : Verify.Obligations.report) =
  let witness_len =
    match r.Verify.Obligations.problems with
    | p :: _ -> List.length p.Verify.Obligations.schedule
    | [] -> 0
  in
  let candidates, removed =
    match r.Verify.Obligations.exploration with
    | Some s ->
        (s.Conc.Explore.shrink_candidates, s.Conc.Explore.shrink_steps_removed)
    | None -> (0, 0)
  in
  {
    sc_scenario = scenario;
    sc_sampler = Conc.Sampler.kind_to_string kind;
    sc_seed = seed;
    sc_budget = budget;
    sc_runs = r.Verify.Obligations.runs;
    sc_detected = not (Verify.Obligations.ok r);
    sc_witness_len = witness_len;
    sc_shrink_candidates = candidates;
    sc_shrink_steps_removed = removed;
  }

let sampling_cost ~kind ~seed ~budget ?fault_bound (s : Scenarios.t) =
  let report =
    Verify.Obligations.check_sampled ~kind ~seed ?fault_bound
      ~setup:s.Scenarios.setup ~spec:s.Scenarios.spec ~view:s.Scenarios.view
      ~fuel:s.Scenarios.fuel ~budget ()
  in
  sampling_cost_of_report ~scenario:s.Scenarios.name ~kind ~seed ~budget report

let sampling_cost_durable ~kind ~seed ~budget (d : Scenarios.durable) =
  let report =
    Verify.Obligations.check_sampled_durable ~kind ~seed
      ~max_crash_depth:d.Scenarios.d_max_crash_depth
      ~setup:d.Scenarios.d_setup ~spec:d.Scenarios.d_spec
      ~fuel:d.Scenarios.d_fuel ~budget ()
  in
  sampling_cost_of_report ~scenario:d.Scenarios.d_name ~kind ~seed ~budget
    report

let pp_sampling_cost ppf c =
  Fmt.pf ppf
    "%-28s %-12s seed=%-4Ld budget=%-5d runs=%-5d detected=%b witness=%d \
     shrink-candidates=%d removed=%d"
    c.sc_scenario c.sc_sampler c.sc_seed c.sc_budget c.sc_runs c.sc_detected
    c.sc_witness_len c.sc_shrink_candidates c.sc_shrink_steps_removed

let pp_result ppf r =
  Fmt.pf ppf
    "threads=%d steps=%d ops=%d ok=%d timeout=%d cancel=%d retries=%d crashed=%d \
     throughput=%.2f/1k-steps"
    r.threads r.steps r.ops_completed r.ops_succeeded r.ops_timed_out
    r.ops_cancelled r.retries r.ops_crashed r.throughput;
  if r.sys_crashes > 0 || r.recovery_steps > 0 then
    Fmt.pf ppf " sys-crashes=%d recovery-steps=%d" r.sys_crashes
      r.recovery_steps
