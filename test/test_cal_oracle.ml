(* Differential test of the history checkers against a reference.

   Test_support.Cal_oracle is the checker the single search replaced:
   one fresh memoised search per drop set of the pending operations,
   fewest drops first. Both searches are complete, so the verdicts must
   agree on every history. Each accepted completion is re-validated by
   Agreement against its own trace. Where no pending operation may be
   dropped both searches make the same moves in the same order, so there
   the witness, the completion and the explored state count must be
   identical. Lin_checker is compared with the reference run on the same
   spec restricted to singleton elements. *)

open Cal
open Test_support
module Oracle = Cal_oracle
module E = Conc.Explore
module S = Workloads.Scenarios

let t name f = Alcotest.test_case name `Quick f

(* The checkers' drop rule: a pending operation is droppable when it was
   pending at a system crash, or when [crashed] is absent or names its
   thread. *)
let has_droppable ?crashed h =
  let last_era = History.eras h - 1 in
  List.exists
    (fun (e : History.entry) ->
      e.ret = None
      && (e.era < last_era
         ||
         match crashed with
         | None -> true
         | Some tids -> List.exists (Ids.Tid.equal e.tid) tids))
    (History.entries h)

(* What a corpus exercised, so that no case passes vacuously. *)
type tally = {
  mutable accepted : int;
  mutable rejected : int;
  mutable pending : int;  (** histories with a pending operation *)
  mutable dropped : int;  (** accepted completions that drop an operation *)
  mutable crashed : int;  (** checked with a non-empty [~crashed] *)
  mutable multi_era : int;
  mutable multi_op : int;  (** accepted witnesses with a multi-op element *)
}

let tally () =
  {
    accepted = 0;
    rejected = 0;
    pending = 0;
    dropped = 0;
    crashed = 0;
    multi_era = 0;
    multi_op = 0;
  }

let guard f = match f () with v -> Some v | exception Invalid_argument _ -> None
let show_trace tr = Fmt.str "%a" Ca_trace.pp tr

let agrees what completion tr =
  match Agreement.check completion tr with
  | Ok _ -> ()
  | Error reason ->
      Alcotest.failf "%s: the accepted completion disagrees with its trace: %s"
        what reason

let compare_one (c : tally) ?crashed ~spec h =
  let what = Fmt.str "%s on %a" spec.Spec.name History.pp h in
  let nothing_droppable = not (has_droppable ?crashed h) in
  if not (History.is_complete h) then c.pending <- c.pending + 1;
  if History.eras h > 1 then c.multi_era <- c.multi_era + 1;
  if crashed <> None && crashed <> Some [] then c.crashed <- c.crashed + 1;
  (match
     ( guard (fun () -> Cal_checker.check ?crashed ~spec h),
       guard (fun () -> Oracle.check ?crashed ~spec h) )
   with
  | None, None -> ()
  | Some (Cal_checker.Accepted a), Some (Oracle.Accepted o) ->
      c.accepted <- c.accepted + 1;
      if List.exists (fun e -> Ca_trace.element_size e > 1) a.trace then
        c.multi_op <- c.multi_op + 1;
      if List.length (History.entries a.completion) < List.length (History.entries h)
      then c.dropped <- c.dropped + 1;
      agrees what a.completion a.trace;
      if nothing_droppable then begin
        Alcotest.(check string) (what ^ ": witness") (show_trace o.trace)
          (show_trace a.trace);
        Alcotest.check history (what ^ ": completion") o.completion a.completion;
        Alcotest.(check int) (what ^ ": states explored") o.stats.states_explored
          a.stats.states_explored
      end
  | Some (Cal_checker.Rejected _), Some (Oracle.Rejected _) ->
      c.rejected <- c.rejected + 1
  | _ -> Alcotest.failf "%s: Cal_checker and the oracle disagree" what);
  match
    ( guard (fun () -> Lin_checker.check ?crashed ~spec h),
      guard (fun () ->
          Oracle.check ?crashed ~spec:{ spec with Spec.max_element_size = 1 } h) )
  with
  | None, None | Some (Lin_checker.Not_linearizable _), Some (Oracle.Rejected _) -> ()
  | Some (Lin_checker.Linearizable l), Some (Oracle.Accepted o) ->
      let tr = List.map Ca_trace.singleton l.linearization in
      agrees what l.completion tr;
      if nothing_droppable then
        Alcotest.(check string) (what ^ ": linearization") (show_trace o.trace)
          (show_trace tr)
  | _ -> Alcotest.failf "%s: Lin_checker and the singleton oracle disagree" what

let crashed_of (o : Conc.Runner.outcome) =
  match
    List.filter_map
      (function Conc.Fault.Crash { thread; _ } -> Some (tid thread) | _ -> None)
      o.injected
  with
  | [] -> None
  | tids -> Some tids

let expect_some what n = check_bool (what ^ " exercised") true (n > 0)

(* Workloads.Gen histories, each with a mutated copy and a prefix cut in
   the middle, which leaves operations pending. *)
let test_generated () =
  let c = tally () in
  let q_oid = oid "Q" and c_oid = oid "C" in
  let kinds =
    [
      (Spec_exchanger.spec (), Workloads.Gen.exchanger_trace ~oid:e_oid ~threads:3);
      (Spec_stack.spec ~oid:s_oid (), Workloads.Gen.stack_trace ~oid:s_oid ~threads:3);
      (Spec_counter.spec ~oid:c_oid (), Workloads.Gen.counter_trace ~oid:c_oid ~threads:3);
      ( Spec_sync_queue.spec ~oid:q_oid (),
        Workloads.Gen.sync_queue_trace ~oid:q_oid ~threads:3 );
    ]
  in
  for seed = 0 to 59 do
    List.iter
      (fun (spec, trace_of) ->
        let g = Workloads.Gen.create ~seed:(Int64.of_int seed) in
        let h = Workloads.Gen.history_of_trace g (trace_of g ~elements:4) in
        compare_one c ~spec h;
        compare_one c ~spec (Workloads.Gen.mutate_history g h);
        let actions = History.to_list h in
        let cut = Workloads.Gen.int g (List.length actions) in
        compare_one c ~spec (History.of_list (List.filteri (fun i _ -> i < cut) actions)))
      kinds
  done;
  expect_some "accepted" c.accepted;
  expect_some "multi-op witness" c.multi_op;
  expect_some "rejected" c.rejected;
  expect_some "pending" c.pending

(* Every scenario explored at half its fuel: runs cut by fuel end with
   operations pending. *)
let test_fuel_cut () =
  let c = tally () in
  List.iter
    (fun (s : S.t) ->
      ignore
        (E.exhaustive ~setup:s.setup ~fuel:(s.fuel / 2) ~max_runs:150
           ?preemption_bound:s.bound
           ~f:(fun o -> compare_one c ~spec:s.spec o.history)
           ()))
    (S.all ());
  expect_some "pending" c.pending;
  expect_some "rejected" c.rejected

(* Fault sweeps, checked in crash-tolerant mode as the obligations do. *)
let test_fault_sweeps () =
  let c = tally () in
  List.iter
    (fun (s : S.t) ->
      ignore
        (E.exhaustive_with_faults_collect ~setup:s.setup ~fuel:s.fuel
           ~max_runs:60 ~max_plans:25 ?preemption_bound:s.bound ~fault_bound:1
           ~init:ignore
           ~f:(fun () o ->
             compare_one c ?crashed:(crashed_of o) ~spec:s.spec o.history)
           ()))
    (S.all ());
  expect_some "crashed" c.crashed;
  expect_some "pending" c.pending

(* Multi-era histories of the durable crash sweeps (durable mode), with
   thread faults crossed in so that [~crashed] composes with eras. *)
let test_crash_sweeps () =
  let c = tally () in
  List.iter
    (fun (d : S.durable) ->
      ignore
        (E.exhaustive_with_crashes ~setup:d.d_setup ~fuel:d.d_fuel ~max_runs:60
           ~max_plans:40 ~max_crash_depth:d.d_max_crash_depth ~fault_bound:1
           ~f:(fun o -> compare_one c ?crashed:(crashed_of o) ~spec:d.d_spec o.history)
           ()))
    (S.durable_all ());
  expect_some "multi-era" c.multi_era;
  expect_some "dropped" c.dropped;
  expect_some "rejected" c.rejected

let () =
  Alcotest.run "cal oracle"
    [
      ( "differential",
        [
          t "generated histories" test_generated;
          t "fuel-cut histories" test_fuel_cut;
          t "fault sweeps with crashed" test_fault_sweeps;
          t "crash-sweep eras" test_crash_sweeps;
        ] );
    ]
