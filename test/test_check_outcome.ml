(* Obligations.check_outcome scans each history once and hands the
   reconciled entries straight to Agreement's matcher. Its reference is
   the composition of the public functions it replaced, the one the
   repository benchmark's traced pass runs: Spec.explain_rejection, then
   Obligations.reconcile (which rebuilds the completion as a history),
   then Agreement.check (which scans that completion again). Both must
   give the same result with the same message on every scenario outcome,
   every fault-sweep outcome of the faulty scenarios, and generated
   histories paired with damaged traces. *)

open Cal
open Conc
open Test_support
module O = Verify.Obligations

let t name f = Alcotest.test_case name `Quick f

let composed ~spec ~view (o : Runner.outcome) =
  let viewed = view o.trace in
  match Spec.explain_rejection spec viewed with
  | Some msg -> Error ("spec obligation: " ^ msg)
  | None -> (
      match O.reconcile o.history viewed with
      | Error msg -> Error ("reconciliation: " ^ msg)
      | Ok completion -> (
          match Agreement.check completion viewed with
          | Error msg -> Error ("agreement obligation: " ^ msg)
          | Ok _ -> Ok ()))

(* What the corpus reached: histories with a pending operation, pending
   operations the completion dropped or completed from the trace (before
   a crash marker, too), and rejected outcomes. *)
type tally = {
  mutable outcomes : int;
  mutable accepted : int;
  mutable pending : int;
  mutable dropped : int;
  mutable adopted : int;
  mutable adopted_before_crash : int;
  mutable rejected : int;
}

let new_tally () =
  {
    outcomes = 0;
    accepted = 0;
    pending = 0;
    dropped = 0;
    adopted = 0;
    adopted_before_crash = 0;
    rejected = 0;
  }

let invocations h =
  List.length (List.filter (function Action.Inv _ -> true | _ -> false) (History.to_list h))

let classify c ~view (o : Runner.outcome) =
  match History.scan o.history with
  | Error _ -> ()
  | Ok es -> (
      let pending = List.filter (fun (e : History.entry) -> e.ret = None) (Array.to_list es) in
      if pending <> [] then c.pending <- c.pending + 1;
      match O.reconcile o.history (view o.trace) with
      | Error _ -> ()
      | Ok completion ->
          let dropped = invocations o.history - invocations completion in
          let adopted = List.length pending - dropped in
          if dropped > 0 then c.dropped <- c.dropped + 1;
          if adopted > 0 then c.adopted <- c.adopted + 1;
          let crashes = History.crash_count o.history in
          if
            adopted > 0
            && List.exists (fun (e : History.entry) -> e.era < crashes) pending
            && not (History.is_complete completion)
          then c.adopted_before_crash <- c.adopted_before_crash + 1)

let differential c ~spec ~view (o : Runner.outcome) =
  let expected = composed ~spec ~view o in
  let got = O.check_outcome ~spec ~view o in
  if expected <> got then
    Alcotest.failf "check_outcome differs from the composition on@.%a@.trace %a@.expected %s@.got %s"
      History.pp o.history Ca_trace.pp o.trace
      (match expected with Ok () -> "Ok" | Error m -> m)
      (match got with Ok () -> "Ok" | Error m -> m);
  c.outcomes <- c.outcomes + 1;
  (match got with Ok () -> c.accepted <- c.accepted + 1 | Error _ -> c.rejected <- c.rejected + 1);
  classify c ~view o

let test_scenarios () =
  let c = new_tally () in
  List.iter
    (fun (sc : Workloads.Scenarios.t) ->
      ignore
        (Explore.exhaustive_collect ~domains:1 ~setup:sc.setup ~fuel:sc.fuel
           ?preemption_bound:sc.bound ~init:ignore
           ~f:(fun () o -> differential c ~spec:sc.spec ~view:sc.view o)
           ()))
    (Workloads.Scenarios.all ());
  check_bool "outcomes" true (c.outcomes > 100_000);
  check_bool "pending" true (c.pending > 0);
  check_bool "dropped" true (c.dropped > 0);
  check_bool "adopted" true (c.adopted > 0);
  check_bool "rejected" true (c.rejected > 0)

let test_fault_sweeps () =
  let c = new_tally () in
  List.iter
    (fun (sc : Workloads.Scenarios.t) ->
      ignore
        (Explore.exhaustive_with_faults_collect ~domains:1 ~setup:sc.setup ~fuel:sc.fuel
           ?preemption_bound:sc.bound ~fault_bound:1 ~init:ignore
           ~f:(fun () o -> differential c ~spec:sc.spec ~view:sc.view o)
           ()))
    (Workloads.Scenarios.faulty ());
  check_bool "pending" true (c.pending > 0);
  check_bool "dropped" true (c.dropped > 0);
  check_bool "adopted" true (c.adopted > 0);
  check_bool "rejected" true (c.rejected > 0)

(* A generated history, possibly mutated, cut short or split by a crash
   marker, paired with its trace, possibly with elements dropped,
   duplicated or moved. *)
let outcome history trace : Runner.outcome =
  {
    history;
    trace;
    results = [||];
    complete = false;
    steps = 0;
    schedule = [];
    faults = [];
    injected = [];
    fallible_steps = [];
    epochs = 1 + History.crash_count history;
  }

let damage_trace g tr =
  let n = List.length tr in
  if n = 0 then tr
  else
    let i = Workloads.Gen.int g n and j = Workloads.Gen.int g n in
    match Workloads.Gen.int g 4 with
    | 0 -> tr
    | 1 -> List.filteri (fun k _ -> k <> i) tr
    | 2 -> List.concat (List.mapi (fun k e -> if k = i then [ e; e ] else [ e ]) tr)
    | _ ->
        let a = Array.of_list tr in
        let e = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- e;
        Array.to_list a

let cut_history g h =
  let actions = History.to_list h in
  let n = List.length actions in
  let cut = n - Workloads.Gen.int g (1 + (n / 2)) in
  let kept = List.filteri (fun i _ -> i < cut) actions in
  match Workloads.Gen.int g 3 with
  | 0 ->
      let at = Workloads.Gen.int g (cut + 1) in
      History.of_list
        (List.concat (List.mapi (fun i a -> if i = at then [ Action.crash ~epoch:1; a ] else [ a ]) kept)
        @ if at = cut then [ Action.crash ~epoch:1 ] else [])
  | _ -> History.of_list kept

let test_generated () =
  let c = new_tally () in
  let q = oid "Q" and k = oid "C" in
  let kinds =
    [
      (Spec_exchanger.spec ~oid:e_oid (), Workloads.Gen.exchanger_trace ~oid:e_oid ~threads:3);
      (Spec_stack.spec ~oid:s_oid ~allow_spurious_failure:true (), Workloads.Gen.stack_trace ~oid:s_oid ~threads:3);
      (Spec_counter.spec ~oid:k (), Workloads.Gen.counter_trace ~oid:k ~threads:3);
      (Spec_sync_queue.spec ~oid:q (), Workloads.Gen.sync_queue_trace ~oid:q ~threads:3);
    ]
  in
  for seed = 0 to 299 do
    List.iter
      (fun (spec, trace_of) ->
        let g = Workloads.Gen.create ~seed:(Int64.of_int seed) in
        let tr = trace_of g ~elements:5 in
        let h = Workloads.Gen.history_of_trace g tr in
        let m = Workloads.Gen.mutate_history g h in
        List.iter
          (fun h ->
            List.iter
              (fun tr -> differential c ~spec ~view:View.identity (outcome h tr))
              [ tr; damage_trace g tr; damage_trace g (damage_trace g tr) ])
          [ h; m; cut_history g h; cut_history g h; cut_history g m ])
      kinds
  done;
  check_bool "accepted" true (c.accepted > 0);
  check_bool "pending" true (c.pending > 0);
  check_bool "dropped" true (c.dropped > 0);
  check_bool "adopted" true (c.adopted > 0);
  check_bool "adopted before a crash marker" true (c.adopted_before_crash > 0);
  check_bool "rejected" true (c.rejected > 0)

let () =
  Alcotest.run "check outcome"
    [
      ( "one scan",
        [
          t "matches the composition on every scenario" test_scenarios;
          t "matches the composition on fault sweeps" test_fault_sweeps;
          t "matches the composition on generated histories" test_generated;
        ] );
    ]
