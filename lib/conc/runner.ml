type decision = { thread : int; branch : int }
type schedule = decision list

type program = {
  threads : Cal.Value.t Prog.t array;
  observe : (decision -> unit) option;
  on_label : (string -> unit) option;
}

type durable = {
  boot : program;
  domain : Pcell.domain;
  recover : epoch:int -> program;
}

type outcome = {
  history : Cal.History.t;
  trace : Cal.Ca_trace.t;
  results : Cal.Value.t option array;
  complete : bool;
  steps : int;
  schedule : schedule;
  faults : Fault.plan;
  injected : Fault.plan;
  fallible_steps : string list;
  epochs : int;
}

type frontier = decision list

let pp_decision ppf d =
  if d.branch = 0 then Fmt.pf ppf "t%d" d.thread
  else Fmt.pf ppf "t%d#%d" d.thread d.branch

(* Mutable interpretation state of a fault plan over one run. Every counter
   below is a deterministic function of (plan, schedule prefix), so a
   replayed faulty run fires exactly the same faults at the same points. *)
type fault_state = {
  plan : Fault.plan;
  mutable thread_steps : int array; (* decisions applied per thread *)
  mutable global_step : int;      (* decisions applied in total *)
  mutable crash_at : int array;   (* per-thread crash point, max_int if none *)
  mutable stall_until : int array; (* global step before which the thread sleeps *)
  mutable sys_pending : int list; (* remaining Crash_system points, ascending *)
  fail_seen : (string, int) Hashtbl.t;  (* pattern -> matching fallible steps *)
  mutable fired_rev : Fault.t list;     (* Fail_step and Stall firings, newest first *)
  mutable fallible_rev : string list;   (* labels of executed fallible steps *)
}

let fault_state ~threads plan =
  (* Depth is unbounded here: the runner executes any validated shape; the
     default depth-1 policy belongs to plan {e enumeration} (Explore). *)
  (match Fault.validate ~max_crash_depth:max_int plan with
  | Ok () -> ()
  | Error reason -> invalid_arg ("Runner: invalid fault plan: " ^ reason));
  let crash_at = Array.make threads max_int in
  let stall_until = Array.make threads 0 in
  let fs =
    {
      plan;
      thread_steps = Array.make threads 0;
      global_step = 0;
      crash_at;
      stall_until;
      sys_pending = Fault.system_crash_points plan;
      fail_seen = Hashtbl.create 4;
      fired_rev = [];
      fallible_rev = [];
    }
  in
  List.iter
    (function
      | Fault.Crash { thread; at_step } ->
          if thread < threads then crash_at.(thread) <- at_step
      | Fault.Stall { thread; at_step = 0; for_steps } as f ->
          (* the stall window opens before the thread's first step *)
          if thread < threads then begin
            stall_until.(thread) <- for_steps;
            fs.fired_rev <- f :: fs.fired_rev
          end
      | Fault.Stall _ | Fault.Fail_step _ | Fault.Delay _
      | Fault.Crash_system _ ->
          ())
    plan;
  fs

(* Delay entries are interpreted by the context's clock, not by the step
   counters: install the per-thread skew before the first decision. *)
let apply_delays ctx plan =
  List.iter
    (function
      | Fault.Delay { thread; factor } -> Ctx.set_skew ctx ~thread ~factor
      | _ -> ())
    plan

let crashed fs i = fs.thread_steps.(i) >= fs.crash_at.(i)
let stalled fs i = fs.global_step < fs.stall_until.(i)

(* Decide whether the fallible step [label] about to execute is forced down
   its failure branch: it is when it is the [nth] matching fallible step of
   some Fail_step of the plan. Counters advance for every matching fallible
   step, forced or not — and for {e every} matching pattern: two plan
   entries whose patterns both match this label must both see it, so the
   counters are advanced for all matching patterns first (once per
   pattern), and only then is the forcing decision taken. A short-circuit
   here would make the second pattern's counter skip the step and fire its
   fault one occurrence late. *)
let forced_failure fs label =
  fs.fallible_rev <- label :: fs.fallible_rev;
  let bumped = Hashtbl.create 4 in
  List.iter
    (function
      | Fault.Fail_step { label = pattern; _ }
        when Fault.matches_label ~pattern label && not (Hashtbl.mem bumped pattern) ->
          Hashtbl.replace bumped pattern ();
          Hashtbl.replace fs.fail_seen pattern
            (1 + Option.value ~default:0 (Hashtbl.find_opt fs.fail_seen pattern))
      | _ -> ())
    fs.plan;
  List.fold_left
    (fun forced f ->
      match f with
      | Fault.Fail_step { label = pattern; nth }
        when Fault.matches_label ~pattern label
             && Option.value ~default:0 (Hashtbl.find_opt fs.fail_seen pattern) = nth ->
          fs.fired_rev <- f :: fs.fired_rev;
          true
      | _ -> forced)
    false fs.plan

(* Apply one decision to the mutable thread-state array; returns the label
   of the step taken. *)
let apply fs states d =
  if d.thread < 0 || d.thread >= Array.length states then
    invalid_arg (Fmt.str "Runner: no thread %d" d.thread);
  if crashed fs d.thread then
    invalid_arg (Fmt.str "Runner: thread %d has crashed" d.thread);
  if stalled fs d.thread then
    invalid_arg (Fmt.str "Runner: thread %d is stalled" d.thread);
  let label =
    match states.(d.thread) with
    | Prog.Return _ ->
        invalid_arg (Fmt.str "Runner: thread %d already returned" d.thread)
    | Prog.Atomic (label, f) ->
        if d.branch <> 0 then
          invalid_arg (Fmt.str "Runner: thread %d is not at a choice" d.thread);
        states.(d.thread) <- f ();
        label
    | Prog.Fallible (label, f, on_fault) ->
        if d.branch <> 0 then
          invalid_arg (Fmt.str "Runner: thread %d is not at a choice" d.thread);
        states.(d.thread) <- (if forced_failure fs label then on_fault () else f ());
        label
    | Prog.Choose (label, ms) ->
        if d.branch < 0 || d.branch >= List.length ms then
          invalid_arg (Fmt.str "Runner: thread %d: branch %d out of range" d.thread d.branch);
        states.(d.thread) <- List.nth ms d.branch;
        label
    | Prog.Guard (label, g) -> (
        if d.branch <> 0 then
          invalid_arg (Fmt.str "Runner: thread %d is not at a choice" d.thread);
        match g () with
        | Some cont ->
            states.(d.thread) <- cont;
            label
        | None -> invalid_arg (Fmt.str "Runner: thread %d is blocked" d.thread))
  in
  fs.thread_steps.(d.thread) <- fs.thread_steps.(d.thread) + 1;
  fs.global_step <- fs.global_step + 1;
  (* a Stall whose trigger point this step reached opens its window now *)
  List.iter
    (function
      | Fault.Stall { thread; at_step; for_steps } as f
        when thread = d.thread && at_step = fs.thread_steps.(d.thread) ->
          fs.stall_until.(thread) <- fs.global_step + for_steps;
          fs.fired_rev <- f :: fs.fired_rev
      | _ -> ())
    fs.plan;
  label

(* Built backwards in one pass (thread asc, branch asc) — this runs at
   every node of every exploration, so the per-thread intermediate lists
   of the obvious [mapi]+[concat] formulation are worth avoiding. *)
let enabled fs states =
  let acc = ref [] in
  for i = Array.length states - 1 downto 0 do
    if not (crashed fs i || stalled fs i) then
      match states.(i) with
      | Prog.Return _ -> ()
      | Prog.Atomic _ | Prog.Fallible _ ->
          acc := { thread = i; branch = 0 } :: !acc
      | Prog.Choose (_, ms) ->
          for b = List.length ms - 1 downto 0 do
            acc := { thread = i; branch = b } :: !acc
          done
      | Prog.Guard (_, g) -> (
          match g () with
          | None -> ()
          | Some _ -> acc := { thread = i; branch = 0 } :: !acc)
  done;
  !acc

(* -------------------------------------------- resumable execution API -- *)

(* A live execution: the mutable state a schedule prefix has built so far.
   {!Par_explore} descends one decision at a time along the DFS spine instead of
   replaying the whole prefix at every node; re-establishing a branch point
   after backtracking costs one prefix replay (the shared heap the program's
   closures mutate cannot be checkpointed generically, so it is rebuilt by
   re-execution — once per backtrack, not once per node). *)
type exec = {
  e_ctx : Ctx.t;
  mutable e_program : program;
  mutable e_states : Cal.Value.t Prog.t array;
  e_fs : fault_state;
  e_durable : (Pcell.domain * (epoch:int -> program)) option;
  mutable e_epoch : int; (* system crashes survived so far *)
  mutable e_applied_rev : decision list;
  mutable e_steps : int;
}

let grow arr n default =
  let old = Array.length arr in
  if n <= old then arr
  else begin
    let a = Array.make n default in
    Array.blit arr 0 a 0 old;
    a
  end

(* Recovery may launch more threads than the crashed epoch had: grow (never
   shrink) the per-thread fault counters, re-deriving per-thread fault
   trigger points from the plan for the new indices. Counters of surviving
   indices are kept — thread step counts are cumulative across epochs. *)
let extend_fs fs n =
  let old = Array.length fs.thread_steps in
  if n > old then begin
    fs.thread_steps <- grow fs.thread_steps n 0;
    fs.crash_at <- grow fs.crash_at n max_int;
    fs.stall_until <- grow fs.stall_until n 0;
    List.iter
      (function
        | Fault.Crash { thread; at_step } when thread >= old && thread < n ->
            fs.crash_at.(thread) <- at_step
        | Fault.Stall { thread; at_step = 0; for_steps } as f
          when thread >= old && thread < n ->
            fs.stall_until.(thread) <- fs.global_step + for_steps;
            fs.fired_rev <- f :: fs.fired_rev
        | _ -> ())
      fs.plan
  end

(* Fire any Crash_system whose point this run has reached: wipe the domain's
   volatile cells, drop every in-flight thread program, log the crash marker
   and install the recovery program for the next epoch. Recursive because a
   recovery epoch can itself be crashed (crash-during-recovery plans). *)
let rec maybe_crash e =
  match e.e_fs.sys_pending with
  | at :: rest when e.e_fs.global_step >= at -> (
      match e.e_durable with
      | None ->
          (* [start] rejects Crash_system plans on non-durable programs *)
          assert false
      | Some (domain, recover) ->
          e.e_fs.sys_pending <- rest;
          e.e_fs.fired_rev <-
            Fault.Crash_system { at_step = at } :: e.e_fs.fired_rev;
          Ctx.record_crash e.e_ctx;
          Pcell.crash domain;
          e.e_epoch <- e.e_epoch + 1;
          let program = recover ~epoch:e.e_epoch in
          let n = Array.length program.threads in
          extend_fs e.e_fs n;
          e.e_program <- program;
          e.e_states <- Array.copy program.threads;
          maybe_crash e)
  | _ -> ()

let make_exec ~plan ~ctx ~program ~e_durable () =
  let states = Array.copy program.threads in
  let fs = fault_state ~threads:(Array.length states) plan in
  apply_delays ctx plan;
  let e =
    {
      e_ctx = ctx;
      e_program = program;
      e_states = states;
      e_fs = fs;
      e_durable;
      e_epoch = 0;
      e_applied_rev = [];
      e_steps = 0;
    }
  in
  maybe_crash e;
  e

let start ?(plan = []) ~setup () =
  if Fault.system_crash_points plan <> [] then
    invalid_arg
      "Runner.start: Crash_system plans need durable state; use start_durable";
  let ctx = Ctx.create () in
  make_exec ~plan ~ctx ~program:(setup ctx) ~e_durable:None ()

let start_durable ?(plan = []) ~setup () =
  let ctx = Ctx.create () in
  let d = setup ctx in
  Pcell.attach d.domain ctx;
  make_exec ~plan ~ctx ~program:d.boot
    ~e_durable:(Some (d.domain, d.recover))
    ()

type target =
  | Program of (Ctx.t -> program)
  | Durable of (Ctx.t -> durable)

let start_target ?plan = function
  | Program setup -> start ?plan ~setup ()
  | Durable setup -> start_durable ?plan ~setup ()

let step e d =
  (* Track shared-location accesses only while the decision itself applies:
     guard evaluations in [frontier] and the post-step hooks stay outside
     the window, so [last_step_accesses] describes exactly this step. *)
  Ctx.begin_step e.e_ctx;
  let label =
    match apply e.e_fs e.e_states d with
    | label ->
        Ctx.end_step e.e_ctx;
        label
    | exception exn ->
        Ctx.end_step e.e_ctx;
        raise exn
  in
  Ctx.tick e.e_ctx;
  e.e_applied_rev <- d :: e.e_applied_rev;
  e.e_steps <- e.e_steps + 1;
  (match e.e_program.on_label with None -> () | Some f -> f label);
  (match e.e_program.observe with None -> () | Some f -> f d);
  (* hooks run first: a crash firing at this step must not swallow the
     step's own observations (the monitor consumes them against the
     pre-crash acceptor before the marker resets it) *)
  maybe_crash e;
  label

let frontier e = enabled e.e_fs e.e_states
let steps_done e = e.e_steps
let ctx e = e.e_ctx
let last_step_accesses e = Ctx.step_accesses e.e_ctx

let head_label e thread =
  if thread < 0 || thread >= Array.length e.e_states then None
  else
    match e.e_states.(thread) with
    | Prog.Return _ -> None
    | Prog.Atomic (l, _) | Prog.Fallible (l, _, _) | Prog.Choose (l, _)
    | Prog.Guard (l, _) ->
        Some l

let snapshot e =
  let fs = e.e_fs and states = e.e_states in
  let results =
    Array.map (function Prog.Return v -> Some v | _ -> None) states
  in
  (* Crashes fire exactly when they cut a thread off: the thread reached its
     crash point without having returned. Fail_step and Stall firings were
     recorded as they happened. *)
  let fired = List.rev fs.fired_rev in
  let injected =
    List.filter
      (function
        | Fault.Crash { thread; at_step } ->
            thread < Array.length states
            && (match states.(thread) with Prog.Return _ -> false | _ -> true)
            && fs.thread_steps.(thread) >= at_step
        | Fault.Delay { thread; _ } ->
            (* a delay took effect iff the skewed thread ran at all *)
            thread < Array.length states && fs.thread_steps.(thread) > 0
        | f -> List.exists (Fault.equal f) fired)
      fs.plan
  in
  {
    history = Ctx.history e.e_ctx;
    trace = Ctx.trace e.e_ctx;
    results;
    complete = Array.for_all (fun st -> match st with Prog.Return _ -> true | _ -> false) states;
    steps = e.e_steps;
    schedule = List.rev e.e_applied_rev;
    faults = fs.plan;
    injected;
    fallible_steps = List.rev fs.fallible_rev;
    epochs = e.e_epoch + 1;
  }

let outcome = snapshot

let replay_target ?plan target sched =
  let e = start_target ?plan target in
  List.iter (fun d -> ignore (step e d)) sched;
  (snapshot e, frontier e)

(* Kept only because the benchmark (perfbench/bench.ml) calls it. *)
let replay ?plan ~setup sched = replay_target ?plan (Program setup) sched

let outcome_equal a b =
  let value_opt_equal x y =
    match (x, y) with
    | None, None -> true
    | Some v, Some w -> Cal.Value.equal v w
    | _ -> false
  in
  Cal.History.equal a.history b.history
  && Cal.Ca_trace.equal a.trace b.trace
  && Array.length a.results = Array.length b.results
  && Array.for_all2 value_opt_equal a.results b.results
  && a.complete = b.complete && a.steps = b.steps
  && a.schedule = b.schedule
  && List.equal Fault.equal a.faults b.faults
  && List.equal Fault.equal a.injected b.injected
  && List.equal String.equal a.fallible_steps b.fallible_steps
  && a.epochs = b.epochs
