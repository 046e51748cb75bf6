(* Tests for durable CA-linearizability: persistent cells, the runner's
   crash transition and its byte-for-byte replay, crash markers in
   histories and the history format, the durable modes of both checkers
   ("persisted or lost" for crash-pending operations, no CA-element across
   a crash), the crash-point exploration, the end-to-end durable
   obligations on the durable stack / queue and the missing-flush bug, and
   the crash-aware monitor. *)

open Cal
open Conc
open Structures
open Test_support
module S = Workloads.Scenarios

let t name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------- pcell -- *)

let test_pcell_semantics () =
  let dom = Pcell.domain () in
  let c = Pcell.create dom 0 in
  Alcotest.(check int) "initial volatile" 0 (Pcell.read c);
  Alcotest.(check int) "initial durable" 0 (Pcell.persisted c);
  Pcell.write c 5;
  Alcotest.(check int) "write is volatile" 5 (Pcell.read c);
  Alcotest.(check int) "durable unchanged" 0 (Pcell.persisted c);
  check_bool "dirty after write" true (Pcell.dirty c);
  Alcotest.(check int) "one pending persist" 1 (Pcell.pending dom);
  Pcell.flush c;
  Alcotest.(check int) "flush persists" 5 (Pcell.persisted c);
  check_bool "clean after flush" false (Pcell.dirty c);
  Pcell.write c 7;
  Pcell.crash dom;
  Alcotest.(check int) "crash reverts to durable" 5 (Pcell.read c);
  check_bool "clean after crash" false (Pcell.dirty c);
  Alcotest.(check int) "crash counted" 1 (Pcell.crashes dom)

(* ------------------------------------------------- history with eras -- *)

let ds = oid "DS"
let stack_spec = Spec_stack.spec ~oid:ds ~allow_spurious_failure:true ()
let push_inv t v = Action.inv ~tid:(tid t) ~oid:ds ~fid:Spec_stack.fid_push (vi v)

let push_res t =
  Action.res ~tid:(tid t) ~oid:ds ~fid:Spec_stack.fid_push (Value.bool true)

let pop_inv t = Action.inv ~tid:(tid t) ~oid:ds ~fid:Spec_stack.fid_pop Value.unit
let pop_res t v = Action.res ~tid:(tid t) ~oid:ds ~fid:Spec_stack.fid_pop (ok_int v)

let pop_res_empty t =
  Action.res ~tid:(tid t) ~oid:ds ~fid:Spec_stack.fid_pop (Value.fail (vi 0))

let test_history_crash_markers () =
  let h =
    History.of_list
      [
        push_inv 0 1;
        push_res 0;
        pop_inv 1;
        Action.crash ~epoch:1;
        pop_inv 0;
        pop_res 0 1;
      ]
  in
  check_bool "valid" true (Result.is_ok (History.validate h));
  Alcotest.(check int) "crash_count" 1 (History.crash_count h);
  Alcotest.(check int) "eras" 2 (History.eras h);
  let entries = History.entries h in
  Alcotest.(check (list int))
    "eras per op" [ 0; 0; 1 ]
    (List.map (fun (e : History.entry) -> e.History.era) entries);
  (* the era-0 pending pop precedes the era-1 pop even though it never
     responded: a crash is a global synchronisation point *)
  let e_pending = List.nth entries 1 in
  let e_late = List.nth entries 2 in
  check_bool "cross-era precedes" true (History.precedes e_pending e_late);
  check_bool "no reverse precedes" false (History.precedes e_late e_pending)

let test_history_crash_validation () =
  let bad epoch = History.of_list [ push_inv 0 1; Action.crash ~epoch ] in
  check_bool "epoch must count up" true (Result.is_error (History.validate (bad 2)));
  check_bool "epoch 1 fine" true (Result.is_ok (History.validate (bad 1)));
  (* a response for an invocation cut off by the crash is dangling *)
  let orphan =
    History.of_list [ push_inv 0 1; Action.crash ~epoch:1; push_res 0 ]
  in
  check_bool "response across crash rejected" true
    (Result.is_error (History.validate orphan))

let test_history_format_round_trip () =
  let h =
    History.of_list
      [
        push_inv 0 1;
        push_res 0;
        Action.crash ~epoch:1;
        pop_inv 0;
        pop_res 0 1;
        Action.crash ~epoch:2;
        pop_inv 1;
      ]
  in
  match History_format.parse_history (History_format.print_history h) with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok h' -> Alcotest.check history "round trip" h h'

(* ---------------------------------------------------- durable checkers -- *)

let cal_ok h = Cal_checker.is_cal ~spec:stack_spec h
let lin_ok h = Lin_checker.is_linearizable ~spec:stack_spec h

let test_checker_state_persists_across_crash () =
  (* a completed push survives the crash: the post-crash pop may return it *)
  let h =
    History.of_list
      [ push_inv 0 1; push_res 0; Action.crash ~epoch:1; pop_inv 0; pop_res 0 1 ]
  in
  check_bool "cal accepts" true (cal_ok h);
  check_bool "lin accepts" true (lin_ok h)

let test_checker_rejects_resurrection () =
  (* both pops completed, only one push: the missing-flush bug's history *)
  let h =
    History.of_list
      [
        push_inv 0 1;
        push_res 0;
        pop_inv 0;
        pop_res 0 1;
        Action.crash ~epoch:1;
        pop_inv 0;
        pop_res 0 1;
      ]
  in
  check_bool "cal rejects resurrected element" false (cal_ok h);
  check_bool "lin rejects resurrected element" false (lin_ok h)

let test_crash_pending_persisted_or_lost () =
  (* a push pending at the crash either persisted... *)
  let persisted =
    History.of_list [ push_inv 0 1; Action.crash ~epoch:1; pop_inv 0; pop_res 0 1 ]
  in
  check_bool "persisted branch accepted" true (cal_ok persisted);
  (* ...or was lost *)
  let lost =
    History.of_list
      [ push_inv 0 1; Action.crash ~epoch:1; pop_inv 0; pop_res_empty 0 ]
  in
  check_bool "lost branch accepted" true (cal_ok lost);
  (* but a COMPLETED pop is never undone: its element must stay explained *)
  let completed_undone =
    History.of_list
      [
        push_inv 0 1;
        push_res 0;
        pop_inv 0;
        pop_res 0 1;
        Action.crash ~epoch:1;
        pop_inv 1;
        pop_res 1 1;
      ]
  in
  check_bool "completed ops are not droppable" false (cal_ok completed_undone)

let test_no_element_straddles_crash () =
  (* an exchange pending at the crash cannot pair with a post-crash
     exchange: CA-elements live inside one era *)
  let ex_spec = Spec_exchanger.spec () in
  let straddle =
    History.of_list
      [ inv 0 (vi 3); Action.crash ~epoch:1; inv 1 (vi 4); res 1 (ok_int 3) ]
  in
  check_bool "cross-era pairing rejected" false (Cal_checker.is_cal ~spec:ex_spec straddle);
  (* the same pair inside one era is the normal swap *)
  let same_era =
    History.of_list
      [ inv 0 (vi 3); inv 1 (vi 4); res 0 (ok_int 4); res 1 (ok_int 3);
        Action.crash ~epoch:1 ]
  in
  check_bool "same-era pairing accepted" true (Cal_checker.is_cal ~spec:ex_spec same_era)

(* ------------------------------------------- runner crash transition -- *)

let stack_scen = S.stack_crash_recovery ()

let test_durable_replay_determinism () =
  let plan = [ Fault.crash_system ~at_step:4 ] in
  let o1 =
    Sampler.run ~plan ~kind:Sampler.Random_walk
      ~target:(Runner.Durable stack_scen.S.d_setup) ~fuel:stack_scen.S.d_fuel
      ~rng:(Rng.create ~seed:5L) ()
  in
  Alcotest.(check int) "crash fired" 2 o1.Runner.epochs;
  Alcotest.(check int) "crash marker logged" 1 (History.crash_count o1.Runner.history);
  check_bool "crash in injected" true
    (List.exists
       (function Fault.Crash_system _ -> true | _ -> false)
       o1.Runner.injected);
  let o2, _ =
    Runner.replay_target ~plan (Durable stack_scen.S.d_setup) o1.Runner.schedule
  in
  Alcotest.check history "replay reproduces the history" o1.Runner.history
    o2.Runner.history;
  Alcotest.(check int) "replay reproduces steps" o1.Runner.steps o2.Runner.steps;
  Alcotest.(check int) "replay reproduces epochs" o1.Runner.epochs o2.Runner.epochs

let test_crash_point_zero () =
  (* a crash before any decision wipes nothing and boots straight into
     recovery: era 1 is the whole run *)
  let plan = [ Fault.crash_system ~at_step:0 ] in
  let o =
    Sampler.run ~plan ~kind:Sampler.Random_walk
      ~target:(Runner.Durable stack_scen.S.d_setup) ~fuel:stack_scen.S.d_fuel
      ~rng:(Rng.create ~seed:1L) ()
  in
  Alcotest.(check int) "two epochs" 2 o.Runner.epochs;
  let entries = History.entries o.Runner.history in
  check_bool "every op in era 1" true
    (List.for_all (fun (e : History.entry) -> e.History.era = 1) entries)

let test_exploration_epochs () =
  let crash_free = ref 0 and crashed = ref 0 in
  let (_ : int * Explore.stats) =
    Explore.exhaustive_with_crashes ~setup:stack_scen.S.d_setup
      ~fuel:stack_scen.S.d_fuel ~max_runs:200 ~preemption_bound:1 ~max_plans:6
      ~f:(fun o ->
        if o.Runner.epochs = 1 then incr crash_free
        else begin
          incr crashed;
          Alcotest.(check int)
            "epochs match history crash markers"
            (History.crash_count o.Runner.history + 1)
            o.Runner.epochs
        end)
      ()
  in
  check_bool "saw crash-free outcomes" true (!crash_free > 0);
  check_bool "saw crashed outcomes" true (!crashed > 0)

(* --------------------------------------------- durable obligations ---- *)

(* The scenario's durable config, preemption-bounded by 2. *)
let bounded_durable s =
  {
    (S.durable_config s) with
    search = Exhaustive { strategy = bounded 2; domains = None; max_runs = None };
  }

let test_durable_stack_accepted () =
  check_bool "durable Treiber stack is durably CA-linearizable" true
    (Verify.Obligations.ok
       (Verify.Obligations.check (bounded_durable (S.stack_crash_recovery ()))))

let test_durable_queue_accepted () =
  check_bool "durable MS queue is durably CA-linearizable" true
    (Verify.Obligations.ok
       (Verify.Obligations.check (bounded_durable (S.queue_crash_recovery ()))))

let test_durable_lin_mode () =
  let s = S.stack_crash_recovery () in
  let r =
    Verify.Obligations.check
      {
        (bounded_durable s) with
        obligation = History { spec = s.S.d_spec; checker = `Lin };
      }
  in
  check_bool "durable linearizability agrees" true (Verify.Obligations.ok r)

let test_missing_flush_rejected_with_witness () =
  let s = S.faulty_durable_stack () in
  let r = Verify.Obligations.check (S.durable_config s) in
  check_bool "missing flush rejected" false (Verify.Obligations.ok r);
  match r.Verify.Obligations.problems with
  | [] -> Alcotest.fail "rejection without a witness"
  | p :: _ ->
      (* the (schedule, plan) pair is a replayable witness: re-running it
         reproduces a history both checkers reject *)
      let o, _ =
        Runner.replay_target ~plan:p.Verify.Obligations.plan
          (Durable s.S.d_setup) p.Verify.Obligations.schedule
      in
      check_bool "witness history is rejected" false
        (Cal_checker.is_cal ~spec:s.S.d_spec o.Runner.history);
      check_bool "witness plan crashes the system" true
        (List.exists
           (function Fault.Crash_system _ -> true | _ -> false)
           p.Verify.Obligations.plan)

let test_exchanger_crash_abort () =
  (* the volatile exchanger under system crashes: every exchange pending at
     the crash is aborted atomically (both sides die with the era), so the
     black-box durable check accepts every crash point *)
  let setup ctx =
    let domain = Pcell.domain () in
    let ex = Exchanger.create ctx in
    {
      Runner.boot =
        {
          Runner.threads =
            [|
              Exchanger.exchange ex ~tid:(tid 0) (vi 3);
              Exchanger.exchange ex ~tid:(tid 1) (vi 4);
            |];
          observe = None;
          on_label = None;
        };
      domain;
      recover =
        (fun ~epoch:_ -> { Runner.threads = [||]; observe = None; on_label = None });
    }
  in
  let r =
    Verify.Obligations.check
      {
        target = Durable setup;
        obligation =
          History { spec = Spec_exchanger.spec (); checker = `Cal };
        search = Verify.Obligations.exhaustive;
        fuel = 60;
        faults = { Verify.Obligations.no_faults with max_crash_depth = Some 1 };
      }
  in
  check_bool "pending exchanges abort cleanly at every crash point" true
    (Verify.Obligations.ok r)

(* -------------------------------------------------- crash-aware monitor -- *)

let c_oid = oid "C"
let counter_spec = Spec_counter.spec ~oid:c_oid ()
let incr_elem n = Ca_trace.element c_oid [ Spec_counter.incr_op ~oid:c_oid (tid 0) n ]
let dec = { Runner.thread = 0; branch = 0 }

let test_monitor_resets_at_crash () =
  (* control: without a crash, a second incr returning 0 violates the
     (stateful) counter specification *)
  let ctx = Ctx.create () in
  let m = Verify.Monitor.create ~spec:counter_spec ~view:View.identity ~ctx in
  Ctx.log_element ctx (incr_elem 0);
  Verify.Monitor.observer m dec;
  Ctx.log_element ctx (incr_elem 0);
  Verify.Monitor.observer m dec;
  check_bool "no crash: repeat rejected" true (Verify.Monitor.status m <> `Ok);
  (* with a crash in between, the acceptor restarts for the new era *)
  let ctx = Ctx.create () in
  let m = Verify.Monitor.create ~spec:counter_spec ~view:View.identity ~ctx in
  Ctx.log_element ctx (incr_elem 0);
  Verify.Monitor.observer m dec;
  Ctx.record_crash ctx;
  Ctx.log_element ctx (incr_elem 0);
  Verify.Monitor.observer m dec;
  check_bool "crash restarts the acceptor" true (Verify.Monitor.status m = `Ok)

let test_monitor_violation_latches () =
  let ctx = Ctx.create () in
  let m = Verify.Monitor.create ~spec:counter_spec ~view:View.identity ~ctx in
  Ctx.log_element ctx (incr_elem 7);
  (* wrong: first incr must return 0 *)
  Verify.Monitor.observer m dec;
  check_bool "violated" true (Verify.Monitor.status m <> `Ok);
  Ctx.record_crash ctx;
  Ctx.log_element ctx (incr_elem 0);
  Verify.Monitor.observer m dec;
  check_bool "crash does not clear a violation" true
    (Verify.Monitor.status m <> `Ok)

let () =
  Alcotest.run "durable"
    [
      ("pcell", [ t "write-back semantics" test_pcell_semantics ]);
      ( "history",
        [
          t "crash markers partition into eras" test_history_crash_markers;
          t "crash-marker validation" test_history_crash_validation;
          t "format round trip with crashes" test_history_format_round_trip;
        ] );
      ( "checkers",
        [
          t "persisted state carries across crashes"
            test_checker_state_persists_across_crash;
          t "resurrection rejected" test_checker_rejects_resurrection;
          t "crash-pending ops: persisted or lost"
            test_crash_pending_persisted_or_lost;
          t "no CA-element straddles a crash" test_no_element_straddles_crash;
        ] );
      ( "runner",
        [
          t "durable replay determinism" test_durable_replay_determinism;
          t "crash at step 0" test_crash_point_zero;
          t "exploration outcomes carry epochs" test_exploration_epochs;
        ] );
      ( "obligations",
        [
          t "durable stack accepted" test_durable_stack_accepted;
          t "durable queue accepted" test_durable_queue_accepted;
          t "durable lin mode" test_durable_lin_mode;
          t "missing flush rejected, witness replays"
            test_missing_flush_rejected_with_witness;
          t "exchanger: pending exchanges abort at a crash"
            test_exchanger_crash_abort;
        ] );
      ( "monitor",
        [
          t "acceptor resets at crash markers" test_monitor_resets_at_crash;
          t "violations latch across crashes" test_monitor_violation_latches;
        ] );
    ]
