(* Tests for the sampled-checking subsystem: the randomized Sampler
   schedulers on the resumable exec API, replay round-trips of random and
   sampled runs, ddmin witness shrinking (still-failing, locally minimal,
   deterministically replayable), and the sampled Obligations.check
   detection sweep over every deliberately faulty scenario. *)

open Conc
open Test_support
module S = Workloads.Scenarios
module O = Verify.Obligations

let t name f = Alcotest.test_case name `Quick f
let kinds = [ Sampler.Random_walk; Sampler.Pct { d = 3 }; Sampler.Preemption_bounded { bound = 2 } ]

(* ------------------------------------------------- replay round-trips -- *)

let replay target ~plan schedule = fst (Runner.replay_target ~plan target schedule)

(* The regression behind Runner.outcome_equal: replaying the schedule of a
   uniform random run ([Random_walk]) reproduces the outcome
   byte-for-byte, on a plain program and on a durable target under a
   system crash. *)
let random_round_trip ~what target ~fuel ~plan =
  for seed = 1 to 10 do
    let o =
      Sampler.run ~plan ~kind:Sampler.Random_walk ~target ~fuel
        ~rng:(Rng.create ~seed:(Int64.of_int seed))
        ()
    in
    check_bool
      (Printf.sprintf "%sseed %d replays byte-identically" what seed)
      true
      (Runner.outcome_equal o (replay target ~plan o.Runner.schedule))
  done

let test_run_random_round_trip () =
  let s = S.exchanger_trio () in
  random_round_trip ~what:"" (Runner.Program s.S.setup) ~fuel:s.S.fuel ~plan:[]

let test_run_random_durable_round_trip () =
  let d = S.stack_crash_recovery () in
  random_round_trip ~what:"durable " (Runner.Durable d.S.d_setup)
    ~fuel:d.S.d_fuel
    ~plan:[ Fault.crash_system ~at_step:4 ]

(* Every sampler kind is a deterministic function of its seed on either
   target, and its outcomes replay byte-for-byte like any other run. *)
let test_sampler_deterministic_and_replayable () =
  let s = S.elim_stack_push_pop ~k:1 () and d = S.stack_crash_recovery () in
  let cases =
    [
      ("elim-stack", Runner.Program s.S.setup, s.S.fuel, []);
      ( "durable stack",
        Runner.Durable d.S.d_setup,
        d.S.d_fuel,
        [ Fault.crash_system ~at_step:4 ] );
    ]
  in
  List.iter
    (fun (name, target, fuel, plan) ->
      List.iter
        (fun kind ->
          let sample () =
            Sampler.run ~plan ~kind ~target ~fuel ~rng:(Rng.create ~seed:7L) ()
          in
          let a = sample () and b = sample () in
          let label = name ^ " " ^ Sampler.kind_to_string kind in
          check_bool (label ^ ": same seed, same outcome") true
            (Runner.outcome_equal a b);
          check_bool (label ^ ": replays byte-identically") true
            (Runner.outcome_equal a (replay target ~plan a.Runner.schedule)))
        kinds)
    cases

(* A preemption-bounded sampler never exceeds its preemption budget:
   Shrink.segments classifies every switch as voluntary or preemptive. *)
let test_preemption_bound_respected () =
  let s = S.exchanger_trio () in
  let target = Runner.Program s.S.setup in
  List.iter
    (fun bound ->
      let rng = Rng.create ~seed:3L in
      for _ = 1 to 20 do
        let o =
          Sampler.run
            ~kind:(Sampler.Preemption_bounded { bound })
            ~target ~fuel:s.S.fuel ~rng ()
        in
        let preemptions =
          Shrink.segments target ~plan:[] o.Runner.schedule
          |> List.filter (fun (_, p, _) -> p)
          |> List.length
        in
        check_bool
          (Printf.sprintf "bound %d: %d preemptions" bound preemptions)
          true (preemptions <= bound)
      done)
    [ 0; 1; 2 ]

(* sample_plan only emits valid plans, across many draws. *)
let test_sample_plan_valid () =
  let s = S.elim_stack_push_pop ~k:1 () in
  let rng = Rng.create ~seed:5L in
  let space =
    Sampler.probe ~target:(Runner.Program s.S.setup) ~fuel:s.S.fuel ~runs:4
      ~rng ()
  in
  for _ = 1 to 200 do
    let plan =
      Sampler.sample_plan ~fault_bound:2 ~delay_factors:[ 2 ] ~crash_depth:2
        space ~rng
    in
    check_bool "sampled plan validates" true
      (Result.is_ok (Fault.validate ~max_crash_depth:2 plan))
  done

(* ------------------------------------------------------------ shrinking -- *)

(* Sample until a violating run of the scenario is found (fixed seed). *)
let failing_sample (s : S.t) ~kind ~seed ~tries =
  let rng = Rng.create ~seed in
  let fails o = Result.is_error (O.check_outcome ~spec:s.S.spec ~view:s.S.view o) in
  let rec go n =
    if n = 0 then None
    else
      let o =
        Sampler.run ~kind ~target:(Runner.Program s.S.setup) ~fuel:s.S.fuel
          ~rng ()
      in
      if fails o then Some o else go (n - 1)
  in
  (go tries, fails)

let test_shrink_properties () =
  let s = S.faulty_counter () in
  let sample, fails =
    failing_sample s ~kind:(Sampler.Pct { d = 3 }) ~seed:1L ~tries:500
  in
  let outcome =
    match sample with
    | Some o -> o
    | None -> Alcotest.fail "no violating sample found on faulty_counter"
  in
  let target = Runner.Program s.S.setup in
  let m =
    match
      Shrink.minimize ~target ~fails ~schedule:outcome.Runner.schedule ()
    with
    | Ok m -> m
    | Error e -> Alcotest.fail ("minimize failed: " ^ e)
  in
  (* (a) the shrunk witness still fails the same checker *)
  check_bool "shrunk witness still fails" true (fails m.Shrink.m_outcome);
  check_bool "shrunk is no longer than the original" true
    (List.length m.Shrink.m_schedule <= List.length outcome.Runner.schedule);
  (* (b) local minimality: removing any single decision loses the failure *)
  let sched = m.Shrink.m_schedule in
  List.iteri
    (fun i _ ->
      let cand = List.filteri (fun j _ -> j <> i) sched in
      check_bool
        (Printf.sprintf "dropping decision %d loses the failure" i)
        false
        (fails (Shrink.tolerant_replay target ~plan:m.Shrink.m_plan cand)))
    sched;
  (* (c) the witness replays deterministically, twice *)
  let r1 = replay target ~plan:m.Shrink.m_plan sched in
  let r2 = replay target ~plan:m.Shrink.m_plan sched in
  check_bool "replay #1 = minimized outcome" true
    (Runner.outcome_equal r1 m.Shrink.m_outcome);
  check_bool "replay #2 = replay #1" true (Runner.outcome_equal r1 r2)

let test_shrink_rejects_passing_input () =
  let s = S.exchanger_pair () in
  let o =
    Sampler.run ~kind:Sampler.Random_walk ~target:(Runner.Program s.S.setup)
      ~fuel:s.S.fuel ~rng:(Rng.create ~seed:1L) ()
  in
  match
    Shrink.minimize
      ~target:(Runner.Program s.S.setup)
      ~fails:(fun _ -> false)
      ~schedule:o.Runner.schedule ()
  with
  | Ok _ -> Alcotest.fail "minimize accepted a non-failing input"
  | Error _ -> ()

(* ------------------------------------------------------ sampled checks -- *)

(* A scenario's [Trace] obligation, and a durable scenario's [History]
   obligation, over [budget] sampled runs. *)
let sampled_trace ?kind ?seed ?shrink ?fault_bound ?delay_factors (s : S.t)
    budget =
  with_faults ?fault_bound ?delay_factors
    { (trace_config s) with search = sampled ?kind ?seed ?shrink budget }

let sampled_durable ?seed (d : S.durable) budget =
  { (S.durable_config d) with search = sampled ?seed budget }

(* Every deliberately faulty object is caught by the sampled mode within a
   fixed-seed budget — the detection-power contract of ISSUE B15. *)
let detect_faulty (s : S.t) =
  t (s.S.name ^ " detected") (fun () ->
      let r = O.check (sampled_trace ~seed:1L s 2000) in
      check_bool (s.S.name ^ " violation found") false (O.ok r);
      check_bool "early exit spent less than the budget or all of it" true
        (r.O.runs <= 2000))

let detect_faulty_durable (d : S.durable) =
  t (d.S.d_name ^ " detected") (fun () ->
      let r = O.check (sampled_durable ~seed:1L d 3000) in
      check_bool (d.S.d_name ^ " violation found") false (O.ok r))

(* Positive scenarios stay clean under sampling, including joint
   fault-plan sampling: the sampled plans are drawn from the same space the
   exhaustive fault sweep enumerates, so the obligations must accept. *)
let test_sampled_positive_clean () =
  let s = S.exchanger_pair () in
  List.iter
    (fun kind ->
      let r = O.check (sampled_trace ~kind ~seed:2L s 150) in
      check_bool (Sampler.kind_to_string kind ^ " clean") true (O.ok r);
      check_bool "ran the whole budget" true (r.O.runs = 150))
    kinds

let test_sampled_with_faults_positive_clean () =
  let s = S.treiber_push_pop () in
  let r =
    O.check
      (sampled_trace ~seed:2L ~fault_bound:1 ~delay_factors:[ 2 ] s 200)
  in
  check_bool "treiber clean under sampled faults" true (O.ok r)

let test_sampled_durable_positive_clean () =
  let d = S.stack_crash_recovery () in
  let r = O.check (sampled_durable ~seed:2L d 200) in
  check_bool "durable stack clean under sampled crashes" true (O.ok r)

(* ------------------------------------------------------- failure report -- *)

(* The report and the rendered problem embed the full reproduction recipe:
   sampler kind, seed, budget, the schedule string and the verdict. *)
let test_report_embeds_reproduction_recipe () =
  let s = S.faulty_counter () in
  let kind = Sampler.Pct { d = 3 } in
  let r = O.check (sampled_trace ~kind ~seed:1L s 2000) in
  (match r.O.config.search with
  | Exhaustive _ -> Alcotest.fail "sampled report carries no sampling metadata"
  | Sampled { sampling = m; _ } ->
      check_bool "kind recorded" true (m.O.s_kind = kind);
      check_bool "seed recorded" true (Int64.equal m.O.s_seed 1L);
      check_bool "budget recorded" true (m.O.s_budget = 2000));
  (match r.O.exploration with
  | None -> Alcotest.fail "sampled report carries no exploration stats"
  | Some e ->
      check_bool "sampled_runs = runs" true (e.Explore.sampled_runs = r.O.runs);
      check_bool "one violation counted" true (e.Explore.violations_found = 1);
      check_bool "shrinking was attempted" true (e.Explore.shrink_candidates > 0));
  match r.O.problems with
  | [ p ] ->
      let has needle =
        let nl = String.length needle and hl = String.length p.O.message in
        let rec go i =
          i + nl <= hl && (String.sub p.O.message i nl = needle || go (i + 1))
        in
        go 0
      in
      check_bool "message names the sampler" true (has "pct:3");
      check_bool "message embeds the seed" true (has "seed 1");
      check_bool "message embeds the verdict" true (has "verdict:");
      check_bool "message renders the history" true (has "-- era 1 --");
      check_bool "message gives the recipe" true (has "reproduce:");
      (* the problem's raw pair replays the violation directly *)
      let o = replay ~plan:p.O.plan (Program s.S.setup) p.O.schedule in
      check_bool "printed witness fails on replay" true
        (Result.is_error (O.check_outcome ~spec:s.S.spec ~view:s.S.view o))
  | ps -> Alcotest.fail (Printf.sprintf "expected 1 problem, got %d" (List.length ps))

(* Same kind/seed/budget: the sampled check is reproducible end-to-end. *)
let test_sampled_check_reproducible () =
  let s = S.faulty_stack () in
  let run () = O.check (sampled_trace ~seed:4L s 1000) in
  let a = run () and b = run () in
  check_bool "same runs" true (a.O.runs = b.O.runs);
  check_bool "same problems" true
    (List.map (fun (p : O.problem) -> (p.O.schedule, p.O.plan, p.O.message))
       a.O.problems
    = List.map (fun (p : O.problem) -> (p.O.schedule, p.O.plan, p.O.message))
        b.O.problems)

(* ---------------------------------------- monitor x sampled witnesses -- *)

(* Replay a sampled witness under a freshly monitored setup and return the
   monitor's verdict for that run. *)
let replay_flag (s : S.t) (p : O.problem) =
  let wrapped, status =
    Verify.Monitor.wrap ~spec:s.S.spec ~view:s.S.view ~setup:s.S.setup
  in
  let (_ : Runner.outcome) = replay ~plan:p.O.plan (Program wrapped) p.O.schedule in
  status ()

(* Integration of the online monitor with the sampled detectors: for every
   deliberately faulty object, take the raw (unshrunk) sampled witness and
   replay it under a Monitor.wrap'd setup. The monitor watches the trace
   obligation only, so two behaviours are correct:
   - the witness's trace leaves the specification: the monitor must flag
     it, and at the same decision step on a second replay;
   - the witness's trace is specification-legal and only the agreement
     obligation fails (the selfish exchanger: it logs a legal failure
     element while its history claims success): the monitor must stay
     [`Ok] while the black-box check still rejects the replayed outcome —
     the two obligations genuinely divide the work. *)
let monitor_flags_witness (s : S.t) =
  t (s.S.name ^ " flagged on witness replay") (fun () ->
      let r = O.check (sampled_trace ~seed:1L ~shrink:false s 2000) in
      let p =
        match r.O.problems with
        | p :: _ -> p
        | [] -> Alcotest.fail (s.S.name ^ ": no sampled witness found")
      in
      let trace_rejected =
        let o = replay ~plan:p.O.plan (Program s.S.setup) p.O.schedule in
        Option.is_some
          (Cal.Spec.explain_rejection s.S.spec (s.S.view o.Runner.trace))
      in
      match (trace_rejected, replay_flag s p, replay_flag s p) with
      | true, `Violated (step, _), `Violated (step', _) ->
          check_bool
            (Printf.sprintf "same step on both replays (%d, %d)" step step')
            true (step = step')
      | true, _, _ ->
          Alcotest.fail (s.S.name ^ ": monitor missed the sampled witness")
      | false, `Ok, `Ok ->
          (* agreement-only bug: invisible to a trace monitor by design *)
          let o = replay ~plan:p.O.plan (Program s.S.setup) p.O.schedule in
          check_bool "black-box check still rejects the replay" true
            (Result.is_error
               (O.check_outcome ~spec:s.S.spec ~view:s.S.view o))
      | false, _, _ ->
          Alcotest.fail
            (s.S.name ^ ": monitor flagged a specification-legal trace"))

(* The same round trip through the joint schedule x fault-plan sampler on
   the lost-update counter: the witness may carry a non-trivial fault
   plan, and replaying the (schedule, plan) pair under the monitored setup
   flags the bug while the plan's faults fire. *)
let test_monitor_flags_fault_witness () =
  let s = S.faulty_counter () in
  let r =
    O.check
      (sampled_trace ~seed:1L ~shrink:false ~fault_bound:1 ~delay_factors:[ 2 ]
         s 2000)
  in
  let p =
    match r.O.problems with
    | p :: _ -> p
    | [] -> Alcotest.fail "no fault-plan witness found"
  in
  match (replay_flag s p, replay_flag s p) with
  | `Violated (step, _), `Violated (step', _) ->
      check_bool "same step on both replays" true (step = step')
  | `Ok, _ | _, `Ok -> Alcotest.fail "monitor missed the fault-plan witness"

(* Violation latching across Crash_system eras: wrap_durable installs the
   monitor on the boot program and on every recovery program, and a
   violation recorded in one era must survive later era restarts. The
   durable structures are checked black-box (they log no aux trace), so
   the probe here is a self-instrumented durable counter that logs its
   elements the way the volatile structures do — and whose first recovery
   epoch logs [incr => 41], illegal for the freshly restarted acceptor;
   the second recovery epoch behaves. Two-crash plans are swept until a
   run has the shape we need: violated strictly before the second crash,
   and the run entered the third era — the final status still being
   [`Violated] is the latch. *)
let test_monitor_latches_across_crash_eras () =
  let ( let* ) = Prog.bind in
  let oid = Cal.Ids.Oid.v "FC" in
  let t0 = Cal.Ids.Tid.of_int 0 in
  let spec = Cal.Spec_counter.spec ~oid () in
  let setup ctx =
    let pad n = Prog.seq (List.init n (fun _ -> Prog.atomic (fun () -> ()))) in
    let incr ret =
      Harness.call ctx ~tid:t0 ~oid ~fid:Cal.Spec_counter.fid_incr
        ~arg:Cal.Value.unit
        (let* () = pad 2 in
         Prog.atomic (fun () ->
             Ctx.log_element ctx
               (Cal.Ca_trace.singleton (Cal.Spec_counter.incr_op ~oid t0 ret));
             Cal.Value.int ret))
    in
    let thread body =
      { Runner.threads = [| body |]; observe = None; on_label = None }
    in
    {
      Runner.boot = thread (incr 0);
      domain = Pcell.domain ();
      recover =
        (fun ~epoch ->
          if epoch = 1 then
            thread
              (let* v = incr 41 in
               let* () = pad 4 in
               Prog.return v)
          else thread (incr 0));
    }
  in
  let wrapped, status =
    Verify.Monitor.wrap_durable ~spec ~view:Cal.View.identity ~setup
  in
  let found = ref None in
  for a = 1 to 8 do
    for db = 1 to 8 do
      if !found = None then begin
        let b = a + db in
        let plan =
          [ Fault.crash_system ~at_step:a; Fault.crash_system ~at_step:b ]
        in
        let o =
          Sampler.run ~plan ~kind:Sampler.Random_walk
            ~target:(Runner.Durable wrapped) ~fuel:40
            ~rng:(Rng.create ~seed:1L) ()
        in
        match status () with
        | `Violated (step, _)
          when step < b && Cal.History.eras o.Runner.history = 3 ->
            found := Some (plan, o, step)
        | _ -> ()
      end
    done
  done;
  match !found with
  | None ->
      Alcotest.fail
        "no crash-point pair violated before the second crash and reached \
         era 3"
  | Some (plan, o, step) ->
      (* the era-3 acceptor restart did not clear the era-2 violation, and
         the latched step replays deterministically *)
      let o' = replay ~plan (Durable wrapped) o.Runner.schedule in
      check_bool "replay reproduces the run" true (Runner.outcome_equal o o');
      (match status () with
      | `Violated (step', _) ->
          check_bool "latched step stable on replay" true (step = step')
      | `Ok -> Alcotest.fail "replay lost the latched violation")

(* -------------------------------------------------------------- witness -- *)

let test_schedule_string () =
  let open Cal.Witness in
  check_bool "empty" true (schedule_string [] = "<empty>");
  let s =
    schedule_string
      [
        { thread = 0; preemptive = false; steps = 4 };
        { thread = 1; preemptive = false; steps = 2 };
        { thread = 2; preemptive = true; steps = 3 };
      ]
  in
  Alcotest.(check string) "dejafu style" "S0---S1-P2--" s

let () =
  Alcotest.run "sampling"
    [
      ( "round-trips",
        [
          t "run_random replays" test_run_random_round_trip;
          t "run_random_durable replays" test_run_random_durable_round_trip;
          t "samplers deterministic + replayable"
            test_sampler_deterministic_and_replayable;
          t "preemption bound respected" test_preemption_bound_respected;
          t "sampled plans validate" test_sample_plan_valid;
        ] );
      ( "shrinking",
        [
          t "still fails, 1-minimal, deterministic" test_shrink_properties;
          t "rejects passing input" test_shrink_rejects_passing_input;
        ] );
      ( "detection",
        List.map detect_faulty (S.faulty ())
        @ List.map detect_faulty_durable (S.durable_faulty ()) );
      ( "positives",
        [
          t "fault-free scenarios stay clean" test_sampled_positive_clean;
          t "fault sampling stays clean" test_sampled_with_faults_positive_clean;
          t "durable crash sampling stays clean"
            test_sampled_durable_positive_clean;
        ] );
      ( "reports",
        [
          t "reproduction recipe embedded" test_report_embeds_reproduction_recipe;
          t "sampled check reproducible" test_sampled_check_reproducible;
          t "schedule string" test_schedule_string;
        ] );
      ( "monitor",
        List.map monitor_flags_witness (S.faulty ())
        @ [
            t "fault-plan witness flagged" test_monitor_flags_fault_witness;
            t "violation latches across crash eras"
              test_monitor_latches_across_crash_eras;
          ] );
    ]
