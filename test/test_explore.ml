(* Tests for the incremental exploration engine: equivalence with the
   replay engine (runs, schedules, stats), the lazy fault-plan enumeration and its cap, the single fault-free
   candidate-learning pass, the overlapping fail-pattern counter fix,
   check_all's truncation semantics, and watchdog starvation stickiness. *)

open Cal
open Conc
open Conc.Prog.Infix
open Test_support
module S = Workloads.Scenarios

let t name f = Alcotest.test_case name `Quick f

let d thread = { Runner.thread; branch = 0 }

(* Both engines on the same state space, collecting delivered schedules. *)
let explore_schedules engine ?plan ?preemption_bound ~setup ~fuel () =
  let scheds = ref [] in
  let f (o : Runner.outcome) = scheds := o.Runner.schedule :: !scheds in
  let stats =
    match engine with
    | `Incremental ->
        Explore.exhaustive ?plan ~setup ~fuel ?preemption_bound ~f ()
    | `Replay ->
        Explore.exhaustive_via_replay ?plan ~setup ~fuel ?preemption_bound ~f ()
  in
  (stats, List.rev !scheds)

(* the lost-update client: two read-increment-write threads *)
let counter_setup _ctx =
  let cell = ref 0 in
  let th =
    let* v = Prog.read cell in
    let* () = Prog.write cell (v + 1) in
    Prog.return (Value.int v)
  in
  { Runner.threads = [| th; th |]; observe = None; on_label = None }

let test_engines_agree () =
  List.iter
    (fun ((s : S.t), fuel) ->
      let st_i, sch_i =
        explore_schedules `Incremental ?preemption_bound:s.bound ~setup:s.setup
          ~fuel ()
      in
      let st_r, sch_r =
        explore_schedules `Replay ?preemption_bound:s.bound ~setup:s.setup
          ~fuel ()
      in
      Alcotest.(check int) (s.name ^ ": runs") st_r.Explore.runs st_i.Explore.runs;
      Alcotest.(check int)
        (s.name ^ ": max_steps")
        st_r.Explore.max_steps st_i.Explore.max_steps;
      Alcotest.(check int) (s.name ^ ": nodes") st_r.Explore.nodes st_i.Explore.nodes;
      check_bool (s.name ^ ": identical schedules in order") true (sch_i = sch_r))
    [
      (S.exchanger_pair (), 12);
      (S.elim_stack_push_pop ~k:1 (), 12);
      (S.dual_queue_enq_deq (), 10);
      (S.exchanger_trio (), 8);
    ]

(* Engine cross-check over every deliberately broken object: the faulty
   implementations take unusual step shapes (non-atomic updates, missing
   CAS, selfish returns, unflushed persistent writes), so they are good
   stress inputs for incremental-vs-replay equivalence. *)
let test_engines_agree_on_faulty_objects () =
  let durable_setup ctx =
    let domain = Pcell.domain () in
    let s = Structures.Faulty.Durable_stack_missing_flush.create ~domain ctx in
    {
      Runner.threads =
        [|
          (let* _ = Structures.Faulty.Durable_stack_missing_flush.push s ~tid:(tid 0) (vi 1) in
           Structures.Faulty.Durable_stack_missing_flush.pop s ~tid:(tid 0));
          Structures.Faulty.Durable_stack_missing_flush.pop s ~tid:(tid 1);
        |];
      observe = None;
      on_label = None;
    }
  in
  let cases =
    [
      ("faulty-counter", (S.faulty_counter ()).S.setup, 14);
      ("faulty-stack", (S.faulty_stack ()).S.setup, 16);
      ("faulty-exchanger", (S.faulty_exchanger ()).S.setup, 14);
      ("durable-missing-flush (crash-free)", durable_setup, 18);
    ]
  in
  List.iter
    (fun (name, setup, fuel) ->
      let st_i, sch_i = explore_schedules `Incremental ~setup ~fuel () in
      let st_r, sch_r = explore_schedules `Replay ~setup ~fuel () in
      Alcotest.(check int) (name ^ ": runs") st_r.Explore.runs st_i.Explore.runs;
      Alcotest.(check int) (name ^ ": nodes") st_r.Explore.nodes st_i.Explore.nodes;
      Alcotest.(check int)
        (name ^ ": max_steps")
        st_r.Explore.max_steps st_i.Explore.max_steps;
      check_bool (name ^ ": identical schedules in order") true (sch_i = sch_r))
    cases

let test_engines_agree_under_faults () =
  let plan = [ Fault.crash ~thread:1 ~at_step:1 ] in
  let st_i, sch_i = explore_schedules `Incremental ~plan ~setup:counter_setup ~fuel:10 () in
  let st_r, sch_r = explore_schedules `Replay ~plan ~setup:counter_setup ~fuel:10 () in
  Alcotest.(check int) "runs under crash plan" st_r.Explore.runs st_i.Explore.runs;
  check_bool "schedules under crash plan" true (sch_i = sch_r);
  (* and with a max_runs budget: same truncation point *)
  let st_i, sch_i =
    explore_schedules `Incremental ~setup:counter_setup ~fuel:10 () in
  let st_r, sch_r = explore_schedules `Replay ~setup:counter_setup ~fuel:10 () in
  Alcotest.(check int) "fault-free runs" st_r.Explore.runs st_i.Explore.runs;
  check_bool "fault-free schedules" true (sch_i = sch_r)

(* Overlapping Fail_step patterns: "f" (location-prefix match) and "f@x"
   (exact match) both match every "f@x" step, so every occurrence must bump
   both counters — the seed's List.exists short-circuit skipped the second
   pattern whenever the first matched, shifting its counter. *)
let test_forced_failure_overlapping_patterns () =
  let record = ref [] in
  let setup _ctx =
    record := [];
    let step n =
      Prog.fallible ~label:"f@x"
        ~on_fault:(fun () ->
          Prog.atomic (fun () -> record := (n, `Forced) :: !record))
        (fun () -> Prog.atomic (fun () -> record := (n, `Ok) :: !record))
      >>= fun () -> Prog.return ()
    in
    let th = step 1 >>= fun () -> step 2 >>= fun () -> step 3 >>= fun () ->
      Prog.return Value.unit
    in
    { Runner.threads = [| th |]; observe = None; on_label = None }
  in
  let plan =
    [ Fault.fail_step ~label:"f" ~nth:1; Fault.fail_step ~label:"f@x" ~nth:2 ]
  in
  let rec drive sched =
    let o, frontier = Runner.replay ~plan ~setup sched in
    match frontier with [] -> o | dd :: _ -> drive (sched @ [ dd ])
  in
  let o = drive [] in
  Alcotest.(check int) "both faults fired" 2 (List.length o.Runner.injected);
  check_bool "occurrences 1 and 2 forced, 3 clean" true
    (List.rev !record = [ (1, `Forced); (2, `Forced); (3, `Ok) ])

(* The fault-free state space must be executed exactly once: the pass that
   delivers the empty plan's outcomes is the pass that learns the fault
   candidates (the seed ran it twice). Counted via setup invocations. *)
let test_single_fault_free_pass () =
  let starts = ref 0 in
  let setup ctx =
    incr starts;
    counter_setup ctx
  in
  starts := 0;
  let plain = Explore.exhaustive ~setup ~fuel:10 ~f:ignore () in
  let s0 = !starts in
  check_bool "some executions" true (s0 > 0 && plain.Explore.runs > 0);
  starts := 0;
  let plans, fs, _ =
    Explore.exhaustive_with_faults_collect ~setup ~fuel:10 ~max_plans:1
      ~fault_bound:1 ~init:ignore ~f:(fun () _ -> ()) ()
  in
  Alcotest.(check int) "only the empty plan fits the cap" 1 plans;
  check_bool "cap recorded as truncation" true fs.Explore.truncated;
  Alcotest.(check int) "fault-free space executed once, not twice" s0 !starts;
  Alcotest.(check int) "its runs are the fault-free runs" plain.Explore.runs
    fs.Explore.runs

(* Plans are enumerated lazily, smallest size first; the cap takes a prefix
   of that order and is reported as truncation. *)
let test_lazy_plan_enumeration () =
  let setup _ctx =
    let mk _ = Prog.yield >>= fun () -> Prog.return Value.unit in
    { Runner.threads = Array.init 2 mk; observe = None; on_label = None }
  in
  let plan_order = ref [] in
  let f () (o : Runner.outcome) =
    if not (List.mem o.Runner.faults !plan_order) then
      plan_order := o.Runner.faults :: !plan_order
  in
  (* two 1-step threads: candidates crash(0,1) and crash(1,1); plans are
     [] ; the two singletons ; the pair *)
  let plans, fs, _ =
    Explore.exhaustive_with_faults_collect ~setup ~fuel:10 ~fault_bound:2
      ~init:ignore ~f ()
  in
  Alcotest.(check int) "full enumeration" 4 plans;
  check_bool "not truncated" false fs.Explore.truncated;
  let sizes = List.rev_map List.length !plan_order in
  Alcotest.(check (list int)) "smallest plans first" [ 0; 1; 1; 2 ] sizes;
  plan_order := [];
  let plans, fs, _ =
    Explore.exhaustive_with_faults_collect ~setup ~fuel:10 ~max_plans:3
      ~fault_bound:2 ~init:ignore ~f ()
  in
  Alcotest.(check int) "capped" 3 plans;
  check_bool "cap is truncation" true fs.Explore.truncated;
  Alcotest.(check (list int)) "cap takes the enumeration's prefix" [ 0; 1; 1 ]
    (List.rev_map List.length !plan_order)

(* A huge candidate set must not be materialised when the cap is small. *)
let test_lazy_plan_cap_scales () =
  let setup _ctx =
    let mk _ =
      let rec go k =
        if k = 0 then Prog.return Value.unit else Prog.yield >>= fun () -> go (k - 1)
      in
      go 6
    in
    { Runner.threads = Array.init 3 mk; observe = None; on_label = None }
  in
  (* 18 crash candidates; subsets up to size 12 ≈ 2^18 — the lazy
     enumeration must stop after 10 plans without building them *)
  let plans, fs, _ =
    Explore.exhaustive_with_faults_collect ~setup ~fuel:4 ~max_runs:50
      ~max_plans:10 ~fault_bound:12 ~init:ignore ~f:(fun () _ -> ()) ()
  in
  Alcotest.(check int) "capped at 10" 10 plans;
  check_bool "truncated" true fs.Explore.truncated

let p_no_lost_update (o : Runner.outcome) =
  not (o.Runner.results = [| Some (Value.int 0); Some (Value.int 0) |])

(* A counterexample stop is not a truncation: Error with truncated=false is
   a definitive refutation; Ok with truncated=true is inconclusive. *)
let test_check_all_truncation_semantics () =
  (match Explore.check_all ~setup:counter_setup ~fuel:10 ~p:p_no_lost_update () with
  | Error (o, stats) ->
      check_bool "violation found" false (p_no_lost_update o);
      check_bool "counterexample is not truncation" false stats.Explore.truncated
  | Ok _ -> Alcotest.fail "lost update should be found");
  (match
     Explore.check_all ~setup:counter_setup ~fuel:10 ~max_runs:1
       ~p:p_no_lost_update ()
   with
  | Ok stats ->
      check_bool "budget cap is truncation" true stats.Explore.truncated
  | Error _ ->
      (* the first explored run must be sequential and pass *)
      Alcotest.fail "first run should satisfy p");
  match
    Explore.check_all ~setup:counter_setup ~fuel:10 ~max_runs:1000
      ~p:p_no_lost_update ()
  with
  | Error (_, stats) ->
      check_bool "found before the cap: not truncated" false
        stats.Explore.truncated
  | Ok _ -> Alcotest.fail "lost update should be found within 1000 runs"

(* Starvation is sticky: once a thread's idle stretch reaches the window,
   the run stays excused even if the thread is scheduled afterwards. *)
let test_watchdog_starvation_sticky () =
  let setup _ctx =
    let rec spin k =
      if k = 0 then Prog.return Value.unit else Prog.yield >>= fun () -> spin (k - 1)
    in
    { Runner.threads = [| spin 20; spin 3 |]; observe = None; on_label = None }
  in
  let window = 4 in
  (* t1 idles for [window] decisions, then IS scheduled, then the run ends
     incomplete: the verdict must still be Starved, not Livelocked *)
  let sched = [ d 0; d 0; d 0; d 0; d 1; d 0 ] in
  match Explore.watchdog ~setup ~window sched with
  | Explore.Starved ts ->
      Alcotest.(check (list int)) "thread 1 stays starved" [ 1 ] ts
  | v -> Alcotest.failf "expected Starved, got %a" Explore.pp_verdict v

let test_obligations_surface_exploration_stats () =
  let s = S.exchanger_pair () in
  let r = Verify.Obligations.check (trace_config s) in
  match r.Verify.Obligations.exploration with
  | Some st ->
      check_bool "nodes counted" true (st.Explore.nodes > 0);
      Alcotest.(check int) "stats runs match report runs"
        r.Verify.Obligations.runs st.Explore.runs
  | None -> Alcotest.fail "collect should surface exploration stats"

let test_metrics_explore_cost () =
  let s = S.exchanger_pair () in
  let open Workloads.Metrics in
  let r = explore_cost ~engine:`Replay ~setup:s.setup ~fuel:12 () in
  let i = explore_cost ~engine:`Incremental ~setup:s.setup ~fuel:12 () in
  Alcotest.(check int) "identical run counts" r.explored_runs i.explored_runs;
  Alcotest.(check int) "identical node counts" r.nodes i.nodes;
  check_bool "incremental executes fewer steps" true
    (i.steps_executed < r.steps_executed)

let () =
  Alcotest.run "explore"
    [
      ( "incremental engine",
        [
          t "engines agree on runs, stats, schedules" test_engines_agree;
          t "engines agree under fault plans and budgets"
            test_engines_agree_under_faults;
          t "engines agree on every faulty object"
            test_engines_agree_on_faulty_objects;
          t "metrics explore_cost: same space, fewer steps"
            test_metrics_explore_cost;
          t "obligations surface exploration stats"
            test_obligations_surface_exploration_stats;
        ] );
      ( "fault plans",
        [
          t "overlapping fail patterns count every match"
            test_forced_failure_overlapping_patterns;
          t "fault-free space executed once" test_single_fault_free_pass;
          t "lazy enumeration, smallest first, capped prefix"
            test_lazy_plan_enumeration;
          t "large candidate sets stay lazy under a cap"
            test_lazy_plan_cap_scales;
        ] );
      ( "verdicts",
        [
          t "check_all: counterexample is not truncation"
            test_check_all_truncation_semantics;
          t "watchdog: starvation is sticky" test_watchdog_starvation_sticky;
        ] );
    ]
