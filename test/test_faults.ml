(* Tests for the fault-injection subsystem: fault plans as data, crashed /
   stalled threads, forced CAS failures, systematic single-fault
   exploration (the fault analog of context bounding), crash-tolerant CAL
   checking, and the deterministic backoff policy. *)

open Cal
open Conc
open Structures
open Test_support

let t name f = Alcotest.test_case name `Quick f

(* -------------------------------------------------------------- plans -- *)

let test_validate () =
  let ok p = check_bool "valid" true (Result.is_ok (Fault.validate p)) in
  let bad p = check_bool "invalid" true (Result.is_error (Fault.validate p)) in
  ok [];
  ok [ Fault.crash ~thread:0 ~at_step:0 ];
  ok [ Fault.crash ~thread:0 ~at_step:3; Fault.crash ~thread:1 ~at_step:0 ];
  ok [ Fault.fail_step ~label:"cas" ~nth:1; Fault.stall ~thread:2 ~at_step:0 ~for_steps:1 ];
  bad [ Fault.crash ~thread:(-1) ~at_step:0 ];
  bad [ Fault.crash ~thread:0 ~at_step:(-1) ];
  bad [ Fault.fail_step ~label:"cas" ~nth:0 ];
  bad [ Fault.stall ~thread:0 ~at_step:0 ~for_steps:0 ];
  bad [ Fault.crash ~thread:0 ~at_step:1; Fault.crash ~thread:0 ~at_step:2 ]

let test_validate_crash_system () =
  let ok ?d p = Result.is_ok (Fault.validate ?max_crash_depth:d p) in
  check_bool "single point" true (ok [ Fault.crash_system ~at_step:0 ]);
  check_bool "negative point" false (ok [ Fault.crash_system ~at_step:(-1) ]);
  check_bool "two points exceed the default depth 1" false
    (ok [ Fault.crash_system ~at_step:0; Fault.crash_system ~at_step:3 ]);
  check_bool "two points fit depth 2" true
    (ok ~d:2 [ Fault.crash_system ~at_step:0; Fault.crash_system ~at_step:3 ]);
  check_bool "points must be strictly increasing (equal)" false
    (ok ~d:2 [ Fault.crash_system ~at_step:3; Fault.crash_system ~at_step:3 ]);
  check_bool "points must be strictly increasing (decreasing)" false
    (ok ~d:2 [ Fault.crash_system ~at_step:3; Fault.crash_system ~at_step:1 ]);
  check_bool "composes with thread faults" true
    (ok [ Fault.crash ~thread:0 ~at_step:1; Fault.crash_system ~at_step:2 ])

(* Delay-vs-Crash composition order: the Delay's clock skew is installed at
   run start — before any crash can fire — and per-thread state survives
   the crash transition, so the skewed thread perceives [factor * now] in
   every era. The probe reads its local clock once per decision. *)
let test_delay_applies_before_crash () =
  let open Prog.Infix in
  let seen = ref [] in
  let reader ctx n =
    let rec go k =
      if k = 0 then Prog.return Value.unit
      else
        Prog.atomic ~label:"probe" (fun () ->
            seen := Ctx.local_now ctx ~tid:(tid 0) :: !seen)
        >>= fun () -> go (k - 1)
    in
    go n
  in
  let setup ctx =
    {
      Runner.boot =
        { Runner.threads = [| reader ctx 2 |]; observe = None; on_label = None };
      domain = Pcell.domain ();
      recover =
        (fun ~epoch:_ ->
          { Runner.threads = [| reader ctx 2 |]; observe = None; on_label = None });
    }
  in
  let plan =
    [ Fault.delay ~thread:0 ~factor:3; Fault.crash_system ~at_step:2 ]
  in
  let o =
    Sampler.run ~plan ~kind:Sampler.Random_walk ~target:(Runner.Durable setup)
      ~fuel:10 ~rng:(Rng.create ~seed:1L) ()
  in
  Alcotest.(check int) "crash fired" 2 o.Runner.epochs;
  Alcotest.(check (list int))
    "3x skew in both eras" [ 0; 3; 6; 9 ]
    (List.rev !seen)

let test_matches_label () =
  check_bool "exact" true (Fault.matches_label ~pattern:"push-cas" "push-cas");
  check_bool "location suffix" true
    (Fault.matches_label ~pattern:"push-cas" "push-cas@S.top");
  check_bool "full label" true
    (Fault.matches_label ~pattern:"push-cas@S.top" "push-cas@S.top");
  check_bool "prefix alone is not a match" false
    (Fault.matches_label ~pattern:"push" "push-cas@S.top");
  check_bool "other label" false (Fault.matches_label ~pattern:"push-cas" "pop-cas")

(* ----------------------------------------------------- setup fixtures -- *)

(* The two-thread exchanger client of Fig. 1: exchange(3) ‖ exchange(4). *)
let pair_setup ctx =
  let ex = Exchanger.create ctx in
  {
    Runner.threads =
      [|
        Exchanger.exchange ex ~tid:(tid 0) (vi 3);
        Exchanger.exchange ex ~tid:(tid 1) (vi 4);
      |];
    observe = None;
    on_label = None;
  }

let ex_spec = Spec_exchanger.spec ()

let crashed_tids (o : Runner.outcome) =
  List.map Ids.Tid.of_int (Fault.crashed_threads o.injected)

(* ------------------------------------------------------------ crashes -- *)

(* Crash thread 0 before its first step: in every interleaving the peer
   finds no offer and returns (false, 4); the history with the crashed
   pending operation dropped is CAL. *)
let test_crash_before_init () =
  let plan = [ Fault.crash ~thread:0 ~at_step:0 ] in
  let runs = ref 0 in
  let stats =
    Explore.exhaustive ~plan ~setup:pair_setup ~fuel:60
      ~f:(fun o ->
        incr runs;
        check_bool "thread 0 crashed" true
          (List.exists (function Fault.Crash { thread = 0; _ } -> true | _ -> false)
             o.injected);
        Alcotest.(check (option value))
          "peer exchanges with nobody" (Some (fail_int 4)) o.results.(1);
        check_bool "no result from the crashed thread" true (o.results.(0) = None);
        check_bool "run not complete" false o.complete;
        check_bool "CAL with the crashed op droppable" true
          (Cal_checker.is_cal ~crashed:(crashed_tids o) ~spec:ex_spec o.history))
      ()
  in
  check_bool "explored" true (stats.runs > 0 && stats.runs = !runs)

(* Crash thread 0 right after its INIT CAS (step 1 is the harness's
   invocation log, step 2 the CAS): on schedules where the offer was
   installed, the live peer can still complete the rendezvous — the
   crashed operation took effect. The crash-tolerant checker must accept
   by completing (not dropping) the crashed pending operation. *)
let test_crash_after_init_can_still_pair () =
  let plan = [ Fault.crash ~thread:0 ~at_step:2 ] in
  let witnessed = ref false in
  ignore
    (Explore.exhaustive ~plan ~setup:pair_setup ~fuel:60
       ~f:(fun o ->
         check_bool "CAL under single crash" true
           (Cal_checker.is_cal ~crashed:(crashed_tids o) ~spec:ex_spec o.history);
         if o.results.(1) = Some (ok_int 3) then witnessed := true)
       ());
  check_bool "some schedule pairs with the crashed thread's offer" true !witnessed

(* A live thread's pending operation must NOT be droppable in crashed
   mode: an incomplete fault-free run of the pair (fuel cut) is CAL in the
   default mode but the crashed-mode check with an empty crash list must
   complete every pending operation or reject. *)
let test_crashed_mode_restricts_drops () =
  let h =
    History.of_list
      [
        inv 0 (vi 3);
        (* thread 0 returned a success although nobody else even invoked:
           only droppable-pending can explain it away *)
        res 0 (ok_int 9);
        inv 1 (vi 4);
      ]
  in
  check_bool "default mode drops the pending peer... but the success is
    unexplainable either way" false
    (Cal_checker.is_cal ~spec:ex_spec h);
  let h_fail =
    History.of_list [ inv 0 (vi 3); res 0 (fail_int 3); inv 1 (vi 4) ]
  in
  check_bool "default mode: pending op droppable, accepted" true
    (Cal_checker.is_cal ~spec:ex_spec h_fail);
  check_bool "crashed=[] : pending op of a live thread must complete" true
    (* completing exchange(4) with (false,4) explains it: still accepted *)
    (Cal_checker.is_cal ~crashed:[] ~spec:ex_spec h_fail);
  (* a swap element requires both partners; with one partner pending and
     not crashed, the checker must find its completion — here impossible,
     because the trace would need a swap and the completed op returned a
     failure. Use a history whose only explanation drops the pending op: *)
  let h_needs_drop =
    History.of_list [ inv 0 (vi 3); inv 1 (vi 4); res 0 (ok_int 4) ]
  in
  check_bool "default mode accepts by completing the partner" true
    (Cal_checker.is_cal ~spec:ex_spec h_needs_drop);
  check_bool "crashed mode also accepts (completion, not drop)" true
    (Cal_checker.is_cal ~crashed:[] ~spec:ex_spec h_needs_drop)

(* Lin_checker's crashed mode mirrors Cal_checker's. *)
let test_lin_crashed_mode () =
  let spec = Spec_stack.spec ~oid:s_oid ~allow_spurious_failure:false () in
  let push = Ids.Fid.v "push" and pop = Ids.Fid.v "pop" in
  (* pop(=1) completed, push(1) pending: explainable only if the pending
     push is completed (it must have taken effect), never by dropping. *)
  let h =
    History.of_list
      [
        Action.inv ~tid:(tid 0) ~oid:s_oid ~fid:push (vi 1);
        Action.inv ~tid:(tid 1) ~oid:s_oid ~fid:pop Value.unit;
        Action.res ~tid:(tid 1) ~oid:s_oid ~fid:pop (ok_int 1);
      ]
  in
  check_bool "lin default" true (Lin_checker.is_linearizable ~spec h);
  check_bool "lin crashed=[t0] (completed, not dropped)" true
    (Lin_checker.is_linearizable ~crashed:[ tid 0 ] ~spec h);
  check_bool "lin crashed=[]" true (Lin_checker.is_linearizable ~crashed:[] ~spec h)

(* Regression: in crashed mode a pending operation of a NON-crashed thread
   must be completed, never silently dropped. The library's own operations
   are all total — every one now admits a failure, timeout or cancelled
   singleton, so their pending invocations always complete — which is
   exactly how a buggy "drop anything pending" completion would go
   unnoticed. Pin the semantics with a minimal one-shot token object whose
   only operation, take() => ok(()), succeeds exactly once and has no
   failure answer: once the token is gone, a pending take can neither
   complete nor (in crashed mode, for a live thread) be dropped. *)
let token_oid = Ids.Oid.v "TOK"
let fid_take = Ids.Fid.v "take"

let token_spec =
  Spec.make ~name:"token" ~owns:(Ids.Oid.equal token_oid) ~max_element_size:1
    ~init:true
    ~step:(fun have el ->
      match Ca_trace.element_ops el with
      | [ (o : Op.t) ]
        when Ids.Fid.equal o.fid fid_take
             && Value.equal o.ret (Value.ok Value.unit) ->
          if have then Some false else None
      | _ -> None)
    ~key:string_of_bool
    ~candidates:(fun _ ~universe:_ _ -> [ Value.ok Value.unit ])
    ()

let test_crashed_mode_rejects_dropping_live_pending () =
  let inv t = Action.inv ~tid:(tid t) ~oid:token_oid ~fid:fid_take Value.unit in
  let res t = Action.res ~tid:(tid t) ~oid:token_oid ~fid:fid_take (Value.ok Value.unit) in
  (* t2 consumed the token; t1's take, invoked afterwards, is pending *)
  let h = History.of_list [ inv 2; res 2; inv 1 ] in
  check_bool "cal default: drops the pending take" true
    (Cal_checker.is_cal ~spec:token_spec h);
  check_bool "lin default: drops the pending take" true
    (Lin_checker.is_linearizable ~spec:token_spec h);
  check_bool "cal crashed=[]: live pending take must complete — rejected" false
    (Cal_checker.is_cal ~crashed:[] ~spec:token_spec h);
  check_bool "lin crashed=[]: live pending take must complete — rejected" false
    (Lin_checker.is_linearizable ~crashed:[] ~spec:token_spec h);
  check_bool "cal crashed=[t1]: crashed pending take may vanish" true
    (Cal_checker.is_cal ~crashed:[ tid 1 ] ~spec:token_spec h);
  check_bool "lin crashed=[t1]: crashed pending take may vanish" true
    (Lin_checker.is_linearizable ~crashed:[ tid 1 ] ~spec:token_spec h)

(* ------------------------------------------------- forced CAS failure -- *)

(* Force the first INIT CAS down its failure branch: the forced thread
   behaves as if the slot was occupied, finds g empty, and fails. *)
let test_fail_step_forces_branch () =
  let plan = [ Fault.fail_step ~label:"init-cas" ~nth:1 ] in
  let fired = ref 0 in
  ignore
    (Explore.exhaustive ~plan ~setup:pair_setup ~fuel:60
       ~f:(fun o ->
         check_bool "forced failure fired" true
           (List.exists
              (function Fault.Fail_step _ -> true | _ -> false)
              o.injected);
         incr fired;
         check_bool "complete" true o.complete;
         check_bool "still CAL under the forced failure" true
           (Cal_checker.is_cal ~spec:ex_spec o.history))
       ());
  check_bool "ran" true (!fired > 0)

(* ------------------------------------------------------------- stalls -- *)

let test_stall_freezes_thread () =
  let plan = [ Fault.stall ~thread:0 ~at_step:0 ~for_steps:2 ] in
  let _, frontier = Runner.replay ~plan ~setup:pair_setup [] in
  check_bool "stalled thread not enabled" true
    (List.for_all (fun (d : Runner.decision) -> d.thread <> 0) frontier);
  check_bool "peer still enabled" true
    (List.exists (fun (d : Runner.decision) -> d.thread = 1) frontier);
  (* after the peer advances global time past the window, thread 0 thaws *)
  let o, frontier' =
    Runner.replay ~plan ~setup:pair_setup
      [ { thread = 1; branch = 0 }; { thread = 1; branch = 0 } ]
  in
  check_bool "stall fired" true
    (List.exists (function Fault.Stall _ -> true | _ -> false) o.injected);
  check_bool "thread 0 thawed" true
    (List.exists (fun (d : Runner.decision) -> d.thread = 0) frontier')

(* ------------------------------- systematic single-fault exploration -- *)

(* The headline obligation: under EVERY single crash and EVERY single
   forced CAS failure, in every interleaving, the exchanger pair remains
   CAL (with the crashed thread's operation droppable), and the plan that
   produced each outcome replays byte-for-byte. *)
let test_exhaustive_with_faults_exchanger () =
  let total = ref 0 in
  let faulty_runs = ref 0 in
  let sampled = ref [] in
  let plans, stats =
    Explore.exhaustive_with_faults ~setup:pair_setup ~fuel:60 ~fault_bound:1
      ~f:(fun o ->
        incr total;
        if o.faults <> [] then begin
          incr faulty_runs;
          if List.length !sampled < 25 then sampled := o :: !sampled
        end;
        check_bool "CAL under every single fault" true
          (Cal_checker.is_cal ~crashed:(crashed_tids o) ~spec:ex_spec o.history))
      ()
  in
  check_bool "terminates with multiple plans" true (plans > 1);
  check_bool "not truncated" false stats.Explore.truncated;
  check_bool "delivered runs counted" true (stats.Explore.runs = !total);
  check_bool "fault-free plan included" true (!total > !faulty_runs);
  check_bool "faulty plans actually ran" true (!faulty_runs > 0);
  (* replay determinism: same (schedule, plan) -> identical outcome *)
  List.iter
    (fun (o : Runner.outcome) ->
      let o', _ = Runner.replay ~plan:o.faults ~setup:pair_setup o.schedule in
      Alcotest.(check string)
        "history replays byte-for-byte"
        (Fmt.str "%a" History.pp o.history)
        (Fmt.str "%a" History.pp o'.history);
      Alcotest.(check string)
        "trace replays byte-for-byte"
        (Fmt.str "%a" Ca_trace.pp o.trace)
        (Fmt.str "%a" Ca_trace.pp o'.trace);
      check_bool "injected faults replay" true (o.injected = o'.injected);
      check_bool "results replay" true (o.results = o'.results))
    !sampled

(* The same sweep must still CATCH a genuinely faulty object: the selfish
   exchanger claims success without a partner. *)
let test_faulty_object_still_caught () =
  let s = Workloads.Scenarios.faulty_exchanger () in
  let report =
    Verify.Obligations.check (with_faults ~fault_bound:1 (trace_config s))
  in
  check_bool "faulty exchanger rejected under fault exploration" false
    (Verify.Obligations.ok report);
  (* and the reported problems replay: re-run one failing (schedule, plan) *)
  match report.problems with
  | [] -> Alcotest.fail "expected at least one problem"
  | p :: _ ->
      let o, _ = Runner.replay_target ~plan:p.plan (Program s.setup) p.schedule in
      check_bool "reported problem reproduces" true
        (Result.is_error
           (Verify.Obligations.check_outcome ~spec:s.spec ~view:s.view o))

(* The real exchanger passes the full obligation sweep under faults. *)
let test_real_exchanger_ok_with_faults () =
  let s = Workloads.Scenarios.exchanger_pair () in
  let report =
    Verify.Obligations.check (with_faults ~fault_bound:1 (trace_config s))
  in
  check_bool "exchanger survives every single fault" true
    (Verify.Obligations.ok report)

(* ------------------------------------------------------------ backoff -- *)

let test_backoff_policy_validation () =
  check_bool "bad init" true
    (try
       ignore (Backoff.policy ~init:0 ());
       false
     with Invalid_argument _ -> true);
  check_bool "bad max" true
    (try
       ignore (Backoff.policy ~init:4 ~max:2 ());
       false
     with Invalid_argument _ -> true)

(* Backoff-equipped structures stay deterministic: the same seed gives the
   same run, a different seed is allowed to differ. *)
let test_backoff_determinism () =
  let run seed =
    let r =
      Workloads.Metrics.stack_fault_sweep ~impl:Workloads.Metrics.Treiber_backoff
        ~threads:4 ~crashes:1 ~fuel:3_000 ~seed
    in
    (r.ops_completed, r.retries, r.ops_crashed, r.steps)
  in
  check_bool "same seed, same run" true (run 5L = run 5L);
  let a = run 5L and b = run 6L in
  let _, _, crashed, _ = a in
  check_bool "the crash fired" true (crashed = 1);
  check_bool "seeds independent (steps differ or equal, no crash)" true
    (a = a && b = b)

(* Exhaustive exploration of a backoff-equipped structure is still
   replay-deterministic: the policy lives inside setup. *)
let test_backoff_replay_determinism () =
  let setup ctx =
    let s = Treiber_stack.create ctx in
    let pol = Backoff.policy ~init:1 ~max:2 ~seed:9L () in
    {
      Runner.threads =
        [|
          Treiber_stack.push_retry ~backoff:pol s ~tid:(tid 0) (vi 1);
          Treiber_stack.push_retry ~backoff:pol s ~tid:(tid 1) (vi 2);
        |];
      observe = None;
      on_label = None;
    }
  in
  let runs = ref 0 in
  let stats =
    Explore.exhaustive ~setup ~fuel:40
      ~f:(fun o ->
        incr runs;
        check_bool "complete" true o.complete;
        let o', _ = Runner.replay ~setup o.schedule in
        check_bool "replays identically" true
          (History.equal o.history o'.history && o.results = o'.results))
      ()
  in
  check_bool "explored" true (stats.runs = !runs && !runs > 0)

(* ------------------------------------------- elimination-stack knobs -- *)

(* With degrade_after:1 every failed rendezvous sends the operation back
   to the central stack only; the object still verifies end-to-end. *)
let test_degraded_elim_stack_verifies () =
  let setup ctx =
    let es =
      Elimination_stack.create ~k:1 ~slot_strategy:Elim_array.All_slots
        ~degrade_after:1 ctx
    in
    {
      Runner.threads =
        [|
          Elimination_stack.push es ~tid:(tid 0) (vi 1);
          Elimination_stack.pop es ~tid:(tid 1);
        |];
      observe = None;
      on_label = None;
    }
  in
  let s = Workloads.Scenarios.elim_stack_push_pop ~k:1 () in
  let report =
    Verify.Obligations.check
      (object_config ~setup ~spec:s.spec ~view:s.view s.fuel)
  in
  check_bool "degraded elimination stack verifies" true
    (Verify.Obligations.ok report);
  check_bool "bad degrade_after rejected" true
    (try
       ignore
         (Elimination_stack.create ~k:1 ~slot_strategy:Elim_array.All_slots
            ~degrade_after:0 (Ctx.create ()));
       false
     with Invalid_argument _ -> true)

(* The elimination stack (k=1) remains CAL under single crashes and single
   forced CAS failures. The full sweep is exact but slow, so routine runs
   bound it: preemption bound 1 per plan and a plan cap — still every
   fault point, many interleavings per fault (an underapproximation, as
   with CHESS context bounding). *)
let test_elim_stack_single_fault_sweep () =
  let s = Workloads.Scenarios.elim_stack_push_pop ~k:1 () in
  let checked = ref 0 in
  let plans, _ =
    Explore.exhaustive_with_faults ~setup:s.setup ~fuel:s.fuel ~fault_bound:1
      ~preemption_bound:1 ~max_plans:12
      ~f:(fun o ->
        incr checked;
        match Verify.Obligations.check_outcome ~spec:s.spec ~view:s.view o with
        | Ok () -> ()
        | Error m -> Alcotest.failf "outcome under %a: %s" Fault.pp_plan o.faults m)
      ()
  in
  check_bool "plans explored" true (plans > 1 && !checked > 0)

(* Satellite check: the online monitor riding exhaustive_with_faults against
   the post-hoc black-box checker, run by run, on the lost-update counter.
   The monitor is white-box — its realised trace is one concrete witness —
   so monitor acceptance must imply checker acceptance on every run, and on
   crash-free runs the two verdicts must coincide exactly. Under a thread
   crash they may legitimately diverge in one direction: the monitor already
   saw the crashed thread's logged element, while the black-box checker may
   drop that pending operation. *)
let test_monitor_agrees_with_checker_under_faults () =
  let s = Workloads.Scenarios.faulty_counter () in
  let wrapped, status = Verify.Monitor.wrap ~spec:s.spec ~view:s.view ~setup:s.setup in
  let runs = ref 0 and violations = ref 0 in
  let (_ : int * Explore.stats) =
    Explore.exhaustive_with_faults ~setup:wrapped ~fuel:s.fuel ~fault_bound:1
      ~max_plans:10
      ~f:(fun o ->
        incr runs;
        let crashed =
          match crashed_tids o with [] -> None | tids -> Some tids
        in
        let checker_ok = Cal_checker.is_cal ?crashed ~spec:s.spec o.Runner.history in
        let monitor_ok = status () = `Ok in
        if monitor_ok && not checker_ok then
          Alcotest.failf
            "run %d under %a: monitor accepted a run the checker rejects" !runs
            Fault.pp_plan o.Runner.faults;
        if crashed = None && monitor_ok <> checker_ok then
          Alcotest.failf "run %d under %a: monitor says %b, checker says %b"
            !runs Fault.pp_plan o.Runner.faults monitor_ok checker_ok;
        if not monitor_ok then incr violations)
      ()
  in
  check_bool "explored" true (!runs > 0);
  check_bool "the bug was flagged by both" true (!violations > 0)

let () =
  Alcotest.run "faults"
    [
      ( "plans",
        [
          t "validate" test_validate;
          t "validate crash-system plans" test_validate_crash_system;
          t "delay applies before crash" test_delay_applies_before_crash;
          t "matches_label" test_matches_label;
        ] );
      ( "crashes",
        [
          t "crash before init" test_crash_before_init;
          t "crash after init can pair" test_crash_after_init_can_still_pair;
          t "crashed mode restricts drops" test_crashed_mode_restricts_drops;
          t "lin crashed mode" test_lin_crashed_mode;
          t "crashed mode rejects dropping live pending"
            test_crashed_mode_rejects_dropping_live_pending;
        ] );
      ( "forced failures",
        [
          t "fail_step forces branch" test_fail_step_forces_branch;
        ] );
      ( "stalls", [ t "stall freezes thread" test_stall_freezes_thread ] );
      ( "systematic",
        [
          t "exchanger under all single faults" test_exhaustive_with_faults_exchanger;
          t "faulty object still caught" test_faulty_object_still_caught;
          t "real exchanger ok" test_real_exchanger_ok_with_faults;
          t "elim stack single-fault sweep" test_elim_stack_single_fault_sweep;
          t "monitor agrees with post-hoc checker"
            test_monitor_agrees_with_checker_under_faults;
        ] );
      ( "backoff",
        [
          t "policy validation" test_backoff_policy_validation;
          t "determinism" test_backoff_determinism;
          t "replay determinism" test_backoff_replay_determinism;
          t "degraded elim stack" test_degraded_elim_stack_verifies;
        ] );
    ]
