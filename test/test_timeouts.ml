(* Tests for the deterministic logical-time layer: the context clock and
   per-thread skew, Delay faults, timed/cancellable operations on the
   blocking structures (exchanger, synchronous queue, dual queue,
   elimination array), replay determinism under Delay plans, and the
   liveness watchdog with its Completed/Deadlocked/Starved/Livelocked
   classification. *)

open Cal
open Conc
open Conc.Prog.Infix
open Structures
open Test_support
module S = Workloads.Scenarios

let t name f = Alcotest.test_case name `Quick f
let no_observe threads = { Runner.threads; observe = None; on_label = None }
let d thread = { Runner.thread; branch = 0 }

(* drive a single-threaded program to completion and return the outcome *)
let run_solo ?plan ~setup () =
  let rec drive sched =
    let o, frontier = Runner.replay ?plan ~setup sched in
    match frontier with [] -> o | dd :: _ -> drive (sched @ [ dd ])
  in
  drive []

(* ------------------------------------------------------ clock and skew -- *)

let test_clock_ticks () =
  let ctx_ref = ref None in
  let setup ctx =
    ctx_ref := Some ctx;
    no_observe [| Prog.seq [ Prog.yield; Prog.yield; Prog.yield ] >>= fun () ->
                  Prog.return Value.unit |]
  in
  let o = run_solo ~setup () in
  let ctx = Option.get !ctx_ref in
  check_bool "one tick per decision" true (Ctx.now ctx = o.Runner.steps);
  check_bool "clock advanced" true (Ctx.now ctx > 0)

let test_skew () =
  let ctx = Ctx.create () in
  check_bool "starts at zero" true (Ctx.now ctx = 0);
  Ctx.tick ctx;
  Ctx.tick ctx;
  check_bool "ticked twice" true (Ctx.now ctx = 2);
  check_bool "default factor" true (Ctx.skew_factor ctx ~thread:5 = 1);
  Ctx.set_skew ctx ~thread:1 ~factor:3;
  check_bool "skewed local time" true (Ctx.local_now ctx ~tid:(tid 1) = 6);
  check_bool "unskewed local time" true (Ctx.local_now ctx ~tid:(tid 0) = 2);
  Ctx.set_skew ctx ~thread:1 ~factor:5;
  check_bool "skew replaced" true (Ctx.skew_factor ctx ~thread:1 = 5);
  let raises f = try f (); false with Invalid_argument _ -> true in
  check_bool "factor 0 rejected" true
    (raises (fun () -> Ctx.set_skew ctx ~thread:0 ~factor:0));
  check_bool "negative thread rejected" true
    (raises (fun () -> Ctx.set_skew ctx ~thread:(-1) ~factor:2))

let test_delay_validation () =
  let ok p = check_bool "valid" true (Result.is_ok (Fault.validate p)) in
  let bad p = check_bool "invalid" true (Result.is_error (Fault.validate p)) in
  ok [ Fault.delay ~thread:0 ~factor:2 ];
  ok [ Fault.delay ~thread:0 ~factor:2; Fault.delay ~thread:1 ~factor:4 ];
  ok [ Fault.delay ~thread:0 ~factor:2; Fault.crash ~thread:1 ~at_step:1 ];
  bad [ Fault.delay ~thread:0 ~factor:1 ];
  bad [ Fault.delay ~thread:0 ~factor:0 ];
  bad [ Fault.delay ~thread:(-1) ~factor:2 ];
  bad [ Fault.delay ~thread:0 ~factor:2; Fault.delay ~thread:0 ~factor:3 ]

(* --------------------------------------------------- create validation -- *)

let test_exchanger_create_validation () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "negative wait rejected" true
    (raises (fun () -> Exchanger.create ~wait:(-1) (Ctx.create ())));
  check_bool "wait and backoff together rejected" true
    (raises (fun () ->
         Exchanger.create ~wait:1 ~backoff:(Backoff.policy ()) (Ctx.create ())));
  check_bool "zero wait accepted" true
    (try ignore (Exchanger.create ~wait:0 (Ctx.create ())); true
     with Invalid_argument _ -> false);
  check_bool "backoff alone accepted" true
    (try ignore (Exchanger.create ~backoff:(Backoff.policy ()) (Ctx.create ())); true
     with Invalid_argument _ -> false)

(* ------------------------------------------------------ Prog.timed/poll -- *)

let test_prog_timed_guard () =
  let ctx_ref = ref None in
  let setup ctx =
    ctx_ref := Some ctx;
    no_observe
      [|
        Prog.timed
          ~expired:(fun () -> Ctx.now ctx >= 2)
          ~on_timeout:(fun () -> Prog.return (Value.int 99))
          (fun () -> None);
        Prog.seq [ Prog.yield; Prog.yield; Prog.yield ] >>= fun () ->
        Prog.return Value.unit;
      |]
  in
  (* at clock 0 the guard is neither ready nor expired: t0 is blocked *)
  let _, frontier0 = Runner.replay ~setup [] in
  check_bool "waiter blocked before expiry" true
    (List.for_all (fun (dd : Runner.decision) -> dd.thread = 1) frontier0);
  (* two peer decisions push the clock to 2; the guard then times out *)
  let rec drive sched =
    let o, frontier = Runner.replay ~setup sched in
    match frontier with
    | [] -> o
    | ds ->
        let next =
          match List.find_opt (fun (dd : Runner.decision) -> dd.thread = 1) ds with
          | Some dd -> dd
          | None -> List.hd ds
        in
        drive (sched @ [ next ])
  in
  let o = drive [] in
  check_bool "timed guard fired" true
    (o.Runner.results.(0) = Some (Value.int 99))

(* ---------------------------------------------------- timed exchanger -- *)

let solo_timed_setup ~deadline ctx =
  let ex = Exchanger.create ~wait:1 ctx in
  no_observe [| Exchanger.exchange_timed ex ~tid:(tid 0) ~deadline (Value.int 5) |]

let test_solo_timed_exchanger_times_out () =
  let saw = ref 0 in
  let stats =
    Explore.exhaustive ~setup:(solo_timed_setup ~deadline:3) ~fuel:40
      ~f:(fun o ->
        incr saw;
        check_bool "complete" true o.Runner.complete;
        match o.Runner.results.(0) with
        | Some v -> check_bool "timed out" true (Value.is_timeout v)
        | None -> check_bool "has result" true false)
      ()
  in
  check_bool "at least one run" true (!saw >= 1 && stats.Explore.runs = !saw);
  (* the Timeout CA-element satisfies the obligations *)
  let r =
    Verify.Obligations.check
      (object_config ~setup:(solo_timed_setup ~deadline:3)
         ~spec:(Spec_exchanger.spec ()) ~view:View.identity 40)
  in
  check_bool "obligations ok" true (Verify.Obligations.ok r)

let test_delay_shortens_solo_timeout () =
  let steps ~plan =
    let got = ref None in
    let _ =
      Explore.exhaustive ~plan ~setup:(solo_timed_setup ~deadline:8) ~fuel:80
        ~f:(fun o ->
          check_bool "still times out" true
            (match o.Runner.results.(0) with
            | Some v -> Value.is_timeout v
            | None -> false);
          got := Some o.Runner.steps)
        ()
    in
    Option.get !got
  in
  let plain = steps ~plan:[] in
  let delayed = steps ~plan:[ Fault.delay ~thread:0 ~factor:4 ] in
  check_bool "delay makes the deadline fire early" true (delayed < plain)

let test_timed_pair_behaviours () =
  let s = S.exchanger_timed_pair () in
  let saw_swap = ref false and saw_timeout = ref false in
  let _ =
    Explore.exhaustive ~setup:s.S.setup ~fuel:s.S.fuel
      ~f:(fun o ->
        check_bool "complete" true o.Runner.complete;
        match (o.Runner.results.(0), o.Runner.results.(1)) with
        | Some a, Some b ->
            if Value.is_timeout a && Value.is_timeout b then saw_timeout := true
            else if (not (Value.is_timeout a)) && not (Value.is_timeout b) then
              saw_swap := true
            else
              (* a swap pairs both threads; a timeout is its own element —
                 one side can never swap while the other times out *)
              check_bool "mixed swap/timeout outcome" true false
        | _ -> check_bool "results present" true false)
      ()
  in
  check_bool "some schedule swaps" true !saw_swap;
  check_bool "some schedule times out" true !saw_timeout;
  check_bool "obligations hold on every schedule" true (scenario_ok s)

let test_replay_determinism_with_delay () =
  let s = S.exchanger_timed_pair () in
  let plan = [ Fault.delay ~thread:1 ~factor:2 ] in
  let witness = ref None in
  let _ =
    Explore.exhaustive ~plan ~setup:s.S.setup ~fuel:s.S.fuel
      ~f:(fun o -> if !witness = None then witness := Some o)
      ()
  in
  let o = Option.get !witness in
  let o1, _ = Runner.replay ~plan ~setup:s.S.setup o.Runner.schedule in
  let o2, _ = Runner.replay ~plan ~setup:s.S.setup o.Runner.schedule in
  check_bool "same history as the exploration" true
    (History.equal o.Runner.history o1.Runner.history);
  check_bool "replay is reproducible" true
    (History.equal o1.Runner.history o2.Runner.history);
  check_bool "same results" true (o1.Runner.results = o2.Runner.results);
  check_bool "same trace" true (Ca_trace.equal o1.Runner.trace o2.Runner.trace)

let test_timed_with_crash_plan () =
  let s = S.exchanger_timed_pair () in
  let plan = [ Fault.crash ~thread:1 ~at_step:1 ] in
  let spec = s.S.spec and view = s.S.view in
  let survivor_timed_out = ref false in
  let _ =
    Explore.exhaustive ~plan ~setup:s.S.setup ~fuel:s.S.fuel
      ~f:(fun o ->
        check_bool "obligations hold under the crash" true
          (Result.is_ok (Verify.Obligations.check_outcome ~spec ~view o));
        match o.Runner.results.(0) with
        | Some v when Value.is_timeout v -> survivor_timed_out := true
        | _ -> ())
      ()
  in
  check_bool "survivor times out in some run" true !survivor_timed_out

let test_timed_fault_sweep () =
  (* crashes, forced CAS failures (including cancel-cas), and clock delays:
     the obligations hold over the whole single-fault sweep *)
  let s = S.exchanger_timed_pair () in
  let r =
    Verify.Obligations.check
      (with_faults ~delay_factors:[ 2 ] ~max_plans:80 ~fault_bound:1
         (trace_config s))
  in
  check_bool "fault sweep ok" true (Verify.Obligations.ok r);
  check_bool "sweep explored runs" true (r.Verify.Obligations.runs > 0)

(* ------------------------------------------------ timed sync queue ----- *)

let test_sync_queue_take_timed_solo () =
  let setup ctx =
    let q = Sync_queue.create ~wait:1 ctx in
    no_observe [| Sync_queue.take_timed q ~tid:(tid 0) ~deadline:3 |]
  in
  let o = run_solo ~setup () in
  check_bool "solo take times out" true
    (match o.Runner.results.(0) with
    | Some v -> Value.is_timeout v
    | None -> false);
  let probe = Sync_queue.create (Ctx.create ()) in
  let r =
    Verify.Obligations.check
      (object_config ~setup ~spec:(Sync_queue.spec probe) ~view:(Sync_queue.view probe) 40)
  in
  check_bool "obligations ok" true (Verify.Obligations.ok r)

let test_sync_queue_timed_pair () =
  let setup ctx =
    let q = Sync_queue.create ~wait:1 ctx in
    no_observe
      [|
        Sync_queue.put_timed q ~tid:(tid 0) ~deadline:5 (Value.int 7);
        Sync_queue.take_timed q ~tid:(tid 1) ~deadline:5;
      |]
  in
  let saw_rendezvous = ref false and saw_timeout = ref false in
  let _ =
    Explore.exhaustive ~setup ~fuel:60
      ~f:(fun o ->
        check_bool "complete" true o.Runner.complete;
        match (o.Runner.results.(0), o.Runner.results.(1)) with
        | Some a, Some b ->
            if Value.is_timeout a || Value.is_timeout b then saw_timeout := true
            else saw_rendezvous := true
        | _ -> check_bool "results present" true false)
      ()
  in
  check_bool "some schedule hands off" true !saw_rendezvous;
  check_bool "some schedule times out" true !saw_timeout;
  let probe = Sync_queue.create (Ctx.create ()) in
  let r =
    Verify.Obligations.check
      (object_config ~setup ~spec:(Sync_queue.spec probe) ~view:(Sync_queue.view probe) 60)
  in
  check_bool "obligations ok" true (Verify.Obligations.ok r)

(* ------------------------------------------------- timed dual queue ---- *)

let test_dual_queue_deq_timed_solo () =
  let setup ctx =
    let q = Dual_queue.create ctx in
    no_observe [| Dual_queue.deq_timed q ~tid:(tid 0) ~deadline:3 |]
  in
  let o = run_solo ~setup () in
  check_bool "lone consumer cancels" true
    (match o.Runner.results.(0) with
    | Some v -> Value.is_cancelled v
    | None -> false);
  let probe = Dual_queue.create (Ctx.create ()) in
  let r =
    Verify.Obligations.check
      (object_config ~setup ~spec:(Dual_queue.spec probe) ~view:(Dual_queue.view probe) 40)
  in
  check_bool "obligations ok" true (Verify.Obligations.ok r)

let test_dual_queue_deq_timed_raced () =
  let setup ctx =
    let q = Dual_queue.create ctx in
    no_observe
      [|
        Dual_queue.enq q ~tid:(tid 0) (Value.int 7);
        Dual_queue.deq_timed q ~tid:(tid 1) ~deadline:4;
      |]
  in
  let saw_value = ref false and saw_cancel = ref false in
  let probe = Dual_queue.create (Ctx.create ()) in
  let spec = Dual_queue.spec probe and view = Dual_queue.view probe in
  let _ =
    Explore.exhaustive ~setup ~fuel:50
      ~f:(fun o ->
        check_bool "obligations hold" true
          (Result.is_ok (Verify.Obligations.check_outcome ~spec ~view o));
        match o.Runner.results.(1) with
        | Some v when Value.is_cancelled v -> saw_cancel := true
        | Some _ -> saw_value := true
        | None -> ())
      ()
  in
  check_bool "some schedule delivers the value" true !saw_value;
  check_bool "some schedule cancels" true !saw_cancel

(* --------------------------------------------- timed elimination array -- *)

let test_elim_array_timed () =
  let setup ctx =
    let ar = Elim_array.create ~k:1 ~slot_strategy:Elim_array.All_slots ctx in
    no_observe
      [|
        Elim_array.exchange_timed ar ~tid:(tid 0) ~deadline:4 (Value.int 3);
        Elim_array.exchange_timed ar ~tid:(tid 1) ~deadline:4 (Value.int 4);
      |]
  in
  let saw_swap = ref false and saw_timeout = ref false in
  let _ =
    Explore.exhaustive ~setup ~fuel:60
      ~f:(fun o ->
        check_bool "complete" true o.Runner.complete;
        match o.Runner.results.(0) with
        | Some v when Value.is_timeout v -> saw_timeout := true
        | Some _ -> saw_swap := true
        | None -> ())
      ()
  in
  check_bool "array swap" true !saw_swap;
  check_bool "array timeout" true !saw_timeout

let test_elim_array_abstract_timed_rejected () =
  let setup ctx =
    let ar =
      Elim_array.create ~factory:Elim_array.abstract ~k:1
        ~slot_strategy:Elim_array.All_slots ctx
    in
    no_observe
      [| Elim_array.exchange_timed ar ~tid:(tid 0) ~deadline:4 (Value.int 3) |]
  in
  check_bool "abstract slot rejects timed exchange" true
    (try
       ignore (run_solo ~setup ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------- liveness watchdog --- *)

(* two timed exchangers with a far-away deadline and a 1-tick pairing
   window: unless a schedule lines the offers up, both threads
   install/poll/cancel/clean forever — the canonical cancel-and-retry
   livelock *)
let livelock_setup ctx =
  let ex = Exchanger.create ~wait:1 ctx in
  no_observe
    [|
      Exchanger.exchange_timed ex ~tid:(tid 0) ~deadline:100 (Value.int 3);
      Exchanger.exchange_timed ex ~tid:(tid 1) ~deadline:100 (Value.int 4);
    |]

let test_watchdog_flags_livelock () =
  let _, stats = Explore.liveness ~setup:livelock_setup ~fuel:16 ~window:8 () in
  check_bool "livelocks found" true (stats.Explore.live_livelocked > 0);
  check_bool "witnesses recorded" true (stats.Explore.livelocks <> []);
  let sched, plan = List.hd stats.Explore.livelocks in
  check_bool "watchdog agrees on the witness" true
    (Explore.watchdog ~plan ~setup:livelock_setup ~window:8 sched
    = Explore.Livelocked)

let test_watchdog_starvation_excused () =
  let spin n =
    let rec go k =
      if k = 0 then Prog.return Value.unit else Prog.yield >>= fun () -> go (k - 1)
    in
    go n
  in
  let setup _ctx = no_observe [| spin 20; spin 20 |] in
  (* scheduling only t0 leaves t1 enabled and idle for the whole run *)
  let sched = List.init 10 (fun _ -> d 0) in
  check_bool "unfair schedule classified as starvation" true
    (match Explore.watchdog ~setup ~window:4 sched with
    | Explore.Starved ts -> List.mem 1 ts
    | _ -> false);
  let _, stats = Explore.liveness ~setup ~fuel:10 ~window:4 () in
  check_bool "liveness sees starved runs" true (stats.Explore.live_starved > 0)

let test_watchdog_deadlock () =
  (* a lone untimed dual-queue consumer blocks on its reservation: the
     clock freezes with it, which is a deadlock, not a livelock *)
  let setup ctx =
    let q = Dual_queue.create ctx in
    no_observe [| Dual_queue.deq q ~tid:(tid 0) |]
  in
  let rec drive sched =
    let _, frontier = Runner.replay ~setup sched in
    match frontier with [] -> sched | dd :: _ -> drive (sched @ [ dd ])
  in
  let sched = drive [] in
  check_bool "blocked waiter is a deadlock" true
    (Explore.watchdog ~setup ~window:4 sched = Explore.Deadlocked);
  let _, stats = Explore.liveness ~setup ~fuel:20 ~window:4 () in
  check_bool "liveness: all runs deadlock" true
    (stats.Explore.live_deadlocked = stats.Explore.live_runs
    && stats.Explore.live_livelocked = 0)

let test_watchdog_window_validation () =
  check_bool "window 0 rejected" true
    (try
       ignore (Explore.watchdog ~setup:livelock_setup ~window:0 []);
       false
     with Invalid_argument _ -> true)

let test_liveness_obligation_timed_pair () =
  (* with a reachable deadline every run finishes: the timed exchanger
     passes the liveness obligation outright *)
  let s = S.exchanger_timed_pair () in
  let r =
    Verify.Obligations.check
      { (trace_config s) with obligation = Liveness { window = 8 } }
  in
  check_bool "liveness obligation ok" true (Verify.Obligations.ok r);
  check_bool "runs counted" true (r.Verify.Obligations.runs > 0);
  check_bool "every run completes" true
    (r.Verify.Obligations.complete_runs = r.Verify.Obligations.runs)

(* a push/pop pair on an elimination stack that degrades to the plain
   stack after two failed elimination attempts *)
let degraded_elim_setup ctx =
  let es =
    Elimination_stack.create ~degrade_after:2 ~k:1
      ~slot_strategy:Elim_array.All_slots ctx
  in
  no_observe
    [|
      Elimination_stack.push es ~tid:(tid 0) (Value.int 5);
      Elimination_stack.pop es ~tid:(tid 1);
    |]

let test_liveness_degraded_elim_stack () =
  (* graceful degradation bounds the elimination detour: no fair schedule
     spins the push/pop pair forever *)
  let _, stats =
    Explore.liveness ~setup:degraded_elim_setup ~fuel:26 ~window:8
      ~preemption_bound:2 ()
  in
  check_bool "no livelock under degradation" true
    (stats.Explore.live_livelocked = 0);
  check_bool "some runs complete" true (stats.Explore.live_completed > 0)

let test_liveness_fault_sweep_timed_pair () =
  let s = S.exchanger_timed_pair () in
  let plans, stats =
    Explore.liveness ~delay_factors:[ 2 ] ~setup:s.S.setup
      ~fuel:s.S.fuel ~window:8 ~max_plans:40 ~fault_bound:1 ()
  in
  check_bool "several plans" true (plans > 1);
  check_bool "no livelock across the sweep" true
    (stats.Explore.live_livelocked = 0);
  check_bool "starvation never flagged" true (stats.Explore.live_starved = 0)

(* The DFS classifies each run from idle counters carried down the tree as
   per-path state. Cross-check it against an independent classifier: the
   single-run watchdog, replayed on every schedule the whole-prefix-replay
   oracle delivers at the same fuel, window and bound. *)
let test_liveness_matches_watchdog () =
  let timed = S.exchanger_timed_pair () in
  List.iter
    (fun (name, setup, fuel, window, preemption_bound) ->
      let _, live = Explore.liveness ~setup ~fuel ~window ?preemption_bound () in
      let completed = ref 0 and deadlocked = ref 0 in
      let starved = ref 0 and livelocked = ref 0 in
      let oracle =
        Explore.exhaustive_via_replay ~setup ~fuel ?preemption_bound
          ~f:(fun o ->
            incr
              (match Explore.watchdog ~setup ~window o.Runner.schedule with
              | Explore.Completed -> completed
              | Explore.Deadlocked -> deadlocked
              | Explore.Starved _ -> starved
              | Explore.Livelocked -> livelocked))
          ()
      in
      let check what expected got =
        Alcotest.(check int) (name ^ ": " ^ what) expected got
      in
      check "runs" oracle.Explore.runs live.Explore.live_runs;
      check "completed" !completed live.Explore.live_completed;
      check "deadlocked" !deadlocked live.Explore.live_deadlocked;
      check "starved" !starved live.Explore.live_starved;
      check "livelocked" !livelocked live.Explore.live_livelocked)
    [
      ("livelock", livelock_setup, 16, 8, None);
      ("timed pair", timed.S.setup, timed.S.fuel, 8, timed.S.bound);
      ("degraded elimination stack", degraded_elim_setup, 26, 8, Some 2);
    ]

let () =
  Alcotest.run "timeouts"
    [
      ( "clock",
        [
          t "clock ticks with decisions" test_clock_ticks;
          t "skew and local_now" test_skew;
          t "delay plan validation" test_delay_validation;
        ] );
      ( "primitives",
        [
          t "exchanger create validation" test_exchanger_create_validation;
          t "Prog.timed guard" test_prog_timed_guard;
        ] );
      ( "timed exchanger",
        [
          t "solo times out" test_solo_timed_exchanger_times_out;
          t "delay shortens the wait" test_delay_shortens_solo_timeout;
          t "pair: swap and timeout schedules" test_timed_pair_behaviours;
          t "replay determinism under delay" test_replay_determinism_with_delay;
          t "timed + crash plan" test_timed_with_crash_plan;
          t "single-fault sweep" test_timed_fault_sweep;
        ] );
      ( "timed queues",
        [
          t "sync queue: solo take times out" test_sync_queue_take_timed_solo;
          t "sync queue: timed pair" test_sync_queue_timed_pair;
          t "dual queue: lone consumer cancels" test_dual_queue_deq_timed_solo;
          t "dual queue: raced cancel" test_dual_queue_deq_timed_raced;
        ] );
      ( "timed elimination array",
        [
          t "concrete slots" test_elim_array_timed;
          t "abstract slots rejected" test_elim_array_abstract_timed_rejected;
        ] );
      ( "liveness watchdog",
        [
          t "flags cancel-and-retry livelock" test_watchdog_flags_livelock;
          t "starvation is excused" test_watchdog_starvation_excused;
          t "blocking is a deadlock" test_watchdog_deadlock;
          t "window validation" test_watchdog_window_validation;
          t "liveness obligation: timed pair" test_liveness_obligation_timed_pair;
          t "liveness: degraded elimination stack" test_liveness_degraded_elim_stack;
          t "liveness over the fault sweep" test_liveness_fault_sweep_timed_pair;
          t "liveness matches the single-run watchdog"
            test_liveness_matches_watchdog;
        ] );
    ]
