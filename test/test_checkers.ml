(* Tests for the CAL checker (Definition 6), the classic linearizability
   checker, and set-linearizability. *)

open Cal
open Test_support

let t name f = Alcotest.test_case name `Quick f
let ex_spec = Spec_exchanger.spec ()
module P = Workloads.Paper_examples

let test_fig3_verdicts () =
  check_bool "H1 is CAL" true (is_cal ex_spec P.h1);
  check_bool "H2 is CAL" true (is_cal ex_spec P.h2);
  check_bool "H3 is not CAL" false (is_cal ex_spec P.h3);
  check_bool "H3' is not CAL" false (is_cal ex_spec P.h3');
  check_bool "H1 not linearizable" false (is_lin ex_spec P.h1);
  check_bool "H2 not linearizable" false (is_lin ex_spec P.h2)

let test_all_fail_history_is_both () =
  let h =
    History.of_list
      [ inv 1 (vi 3); inv 2 (vi 4); res 1 (fail_int 3); res 2 (fail_int 4) ]
  in
  check_bool "CAL" true (is_cal ex_spec h);
  check_bool "linearizable" true (is_lin ex_spec h)

let test_cal_witness () =
  match Cal_checker.check ~spec:ex_spec P.h1 with
  | Cal_checker.Accepted { trace; completion; _ } ->
      check_bool "trace accepted by spec" true (Spec.accepts ex_spec trace);
      check_bool "completion agrees" true (Agreement.agrees completion trace);
      Alcotest.(check int) "two elements" 2 (List.length trace)
  | Cal_checker.Rejected { reason; _ } -> Alcotest.fail reason

let test_pending_completed_by_checker () =
  (* t2's response is missing: the checker may complete it as the swap
     partner of t1 *)
  let h = History.of_list [ inv 1 (vi 3); inv 2 (vi 4); res 1 (ok_int 4) ] in
  (match Cal_checker.check ~spec:ex_spec h with
  | Cal_checker.Accepted { completion; _ } ->
      check_bool "completion complete" true (History.is_complete completion);
      Alcotest.(check int) "completion has both ops" 4 (History.length completion)
  | Cal_checker.Rejected { reason; _ } -> Alcotest.fail reason);
  check_bool "is_cal" true (Cal_checker.is_cal ~spec:ex_spec h)

let test_pending_dropped_by_checker () =
  (* a lone pending invocation can simply be dropped *)
  let h = History.of_list [ inv 1 (vi 3) ] in
  match Cal_checker.check ~spec:ex_spec h with
  | Cal_checker.Accepted { completion; trace; _ } ->
      check_bool "either dropped or completed" true
        (History.length completion = 0 || History.length completion = 2);
      check_bool "trace matches" true (Spec.accepts ex_spec trace)
  | Cal_checker.Rejected { reason; _ } -> Alcotest.fail reason

let test_rejects_value_mismatch () =
  (* both claim to have received values nobody offered *)
  let h =
    History.of_list [ inv 1 (vi 3); inv 2 (vi 4); res 1 (ok_int 5); res 2 (ok_int 3) ]
  in
  check_bool "rejected" false (is_cal ex_spec h)

let test_rejects_self_swap () =
  (* a thread cannot swap with itself across two sequential calls *)
  let h =
    History.of_list [ inv 1 (vi 3); res 1 (ok_int 3) ]
  in
  check_bool "self swap rejected" false (is_cal ex_spec h)

let test_stack_checkers_coincide () =
  let spec = Spec_stack.spec ~oid:s_oid () in
  let good =
    History.of_ops
      [
        Spec_stack.push_op ~oid:s_oid (tid 1) (vi 1) ~ok:true;
        Spec_stack.push_op ~oid:s_oid (tid 2) (vi 2) ~ok:true;
        Spec_stack.pop_op ~oid:s_oid (tid 1) (Some (vi 2));
        Spec_stack.pop_op ~oid:s_oid (tid 2) (Some (vi 1));
      ]
  in
  check_bool "good: CAL" true (is_cal spec good);
  check_bool "good: lin" true (is_lin spec good);
  let bad =
    History.of_ops
      [
        Spec_stack.push_op ~oid:s_oid (tid 1) (vi 1) ~ok:true;
        Spec_stack.pop_op ~oid:s_oid (tid 2) (Some (vi 9));
      ]
  in
  check_bool "bad: CAL" false (is_cal spec bad);
  check_bool "bad: lin" false (is_lin spec bad)

let test_concurrent_stack_reordering () =
  (* overlapping push/pop: the checker must find the right linearisation *)
  let spec = Spec_stack.spec ~oid:s_oid () in
  let p = Spec_stack.fid_push and q = Spec_stack.fid_pop in
  let h =
    History.of_list
      [
        Action.inv ~tid:(tid 1) ~oid:s_oid ~fid:p (vi 1);
        Action.inv ~tid:(tid 2) ~oid:s_oid ~fid:q Value.unit;
        Action.res ~tid:(tid 1) ~oid:s_oid ~fid:p (Value.bool true);
        Action.res ~tid:(tid 2) ~oid:s_oid ~fid:q (ok_int 1);
      ]
  in
  check_bool "pop of concurrent push" true (is_cal spec h);
  check_bool "also linearizable" true (is_lin spec h)

let test_lin_witness_is_sequential () =
  let spec = Spec_stack.spec ~oid:s_oid () in
  let h =
    History.of_ops
      [
        Spec_stack.push_op ~oid:s_oid (tid 1) (vi 1) ~ok:true;
        Spec_stack.pop_op ~oid:s_oid (tid 2) (Some (vi 1));
      ]
  in
  match Lin_checker.check ~spec h with
  | Lin_checker.Linearizable { linearization; completion; _ } ->
      Alcotest.(check int) "two ops" 2 (List.length linearization);
      check_bool "completion is the history" true (History.equal completion h)
  | Lin_checker.Not_linearizable { reason; _ } -> Alcotest.fail reason

let test_lin_pending () =
  let spec = Spec_stack.spec ~oid:s_oid () in
  (* pending pop may be completed with the pushed value *)
  let h =
    History.of_list
      [
        Action.inv ~tid:(tid 1) ~oid:s_oid ~fid:Spec_stack.fid_push (vi 1);
        Action.res ~tid:(tid 1) ~oid:s_oid ~fid:Spec_stack.fid_push (Value.bool true);
        Action.inv ~tid:(tid 2) ~oid:s_oid ~fid:Spec_stack.fid_pop Value.unit;
      ]
  in
  check_bool "pending pop linearizable" true (is_lin spec h)

let test_set_lin () =
  let spec =
    Set_lin.spec_of_classes ~name:"pairs-only" ~oid:e_oid ~max_class_size:2
      ~legal_class:(fun ops -> List.length ops = 2)
      ~candidates:(fun ~universe:_ _ -> [])
  in
  let h =
    History.of_list [ inv 1 (vi 3); inv 2 (vi 4); res 1 (ok_int 4); res 2 (ok_int 3) ]
  in
  check_bool "pair class accepted" true (Set_lin.is_set_linearizable ~spec h);
  let h_seq =
    History.of_list [ inv 1 (vi 3); res 1 (ok_int 4); inv 2 (vi 4); res 2 (ok_int 3) ]
  in
  check_bool "sequential ops cannot form a class" false
    (Set_lin.is_set_linearizable ~spec h_seq)

let test_set_lin_multi_object_rejected () =
  let spec = Spec_exchanger.spec () in
  let h =
    History.of_list [ inv 1 (vi 3); res 1 (fail_int 3); inv ~oid:s_oid 2 (vi 1) ]
  in
  try
    ignore (Set_lin.check ~spec h);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_ill_formed_raises () =
  let bad = History.of_list [ res 1 (ok_int 3) ] in
  (try
     ignore (Cal_checker.check ~spec:ex_spec bad);
     Alcotest.fail "cal: expected Invalid_argument"
   with Invalid_argument _ -> ());
  try
    ignore (Lin_checker.check ~spec:ex_spec bad);
    Alcotest.fail "lin: expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_stats_populated () =
  let stats spec h =
    match Cal_checker.check ~spec h with
    | Cal_checker.Accepted { stats; _ } -> stats
    | Cal_checker.Rejected { reason; _ } -> Alcotest.fail reason
  in
  let complete = stats ex_spec P.h1 in
  check_bool "explored states" true (complete.states_explored > 0);
  Alcotest.(check int) "no drop move on a complete history" 0
    complete.drop_sets_tried;
  (* The push pending at the crash must have been lost: the pop after it
     found the stack empty, so only a drop move explains the history. *)
  let lost =
    History.of_list
      [
        Action.inv ~tid:(tid 1) ~oid:s_oid ~fid:Spec_stack.fid_push (vi 1);
        Action.crash ~epoch:1;
        Action.inv ~tid:(tid 2) ~oid:s_oid ~fid:Spec_stack.fid_pop Value.unit;
        Action.res ~tid:(tid 2) ~oid:s_oid ~fid:Spec_stack.fid_pop (fail_int 0);
      ]
  in
  check_bool "tried a drop move" true
    ((stats (Spec_stack.spec ~oid:s_oid ()) lost).drop_sets_tried >= 1)

(* property: generated histories of legal traces are always CAL *)
let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100000)

let prop_generated_cal seed =
  let g = Workloads.Gen.create ~seed:(Int64.of_int (seed + 13)) in
  let tr = Workloads.Gen.exchanger_trace g ~oid:e_oid ~threads:3 ~elements:4 in
  let h = Workloads.Gen.history_of_trace g tr in
  Cal_checker.is_cal ~spec:ex_spec h

let prop_counter_cal_iff_lin seed =
  let g = Workloads.Gen.create ~seed:(Int64.of_int (seed + 31)) in
  let c_oid = oid "C" in
  let spec = Spec_counter.spec ~oid:c_oid () in
  let tr = Workloads.Gen.counter_trace g ~oid:c_oid ~threads:3 ~elements:5 in
  let h = Workloads.Gen.history_of_trace g tr in
  Cal_checker.is_cal ~spec h = Lin_checker.is_linearizable ~spec h

(* [final] is the specification state after the witness: what
   Session.check_exhaustive commits instead of stepping the trace again. *)
let test_final_acceptor () =
  let spec = Spec_stack.spec ~oid:s_oid () in
  let stepped trace =
    List.fold_left (fun acc el -> Option.get (Spec.step acc el)) spec.Spec.start trace
  in
  let accepted = ref 0 in
  for seed = 0 to 99 do
    let g = Workloads.Gen.create ~seed:(Int64.of_int seed) in
    let h =
      Workloads.Gen.history_of_trace g
        (Workloads.Gen.stack_trace g ~oid:s_oid ~threads:3 ~elements:5)
    in
    let actions = History.to_list h in
    let cut = Workloads.Gen.int g (List.length actions + 1) in
    let h = History.of_list (List.filteri (fun i _ -> i < cut) actions) in
    (match Cal_checker.check ~spec h with
    | Cal_checker.Accepted { trace; final; _ } ->
        incr accepted;
        Alcotest.(check string) "CAL final" (Spec.key (stepped trace)) (Spec.key final)
    | Cal_checker.Rejected _ -> ());
    match Lin_checker.check ~spec h with
    | Lin_checker.Linearizable { linearization; final; _ } ->
        let trace = List.map (fun (o : Op.t) -> Ca_trace.element o.oid [ o ]) linearization in
        Alcotest.(check string) "lin final" (Spec.key (stepped trace)) (Spec.key final)
    | Lin_checker.Not_linearizable _ -> ()
  done;
  check_bool "accepted histories checked" true (!accepted > 50)

(* The search's own counts, summed over every history of the
   faulty-elim-stack-1p4c scenario at its own fuel and bound. The search
   order decides every one of them, so a speed-up that changes which
   states the search visits fails here rather than only in a benchmark. *)
let test_search_counts_pinned () =
  let s = Workloads.Scenarios.faulty_elim_stack ~pushers:1 ~poppers:4 () in
  let runs = ref 0 and accepted = ref 0 in
  let states = ref 0 and memo = ref 0 and drops = ref 0 in
  let add (st : Cal_checker.stats) =
    states := !states + st.states_explored;
    memo := !memo + st.memo_hits;
    drops := !drops + st.drop_sets_tried
  in
  ignore
    (Conc.Explore.exhaustive_collect ~domains:1 ~setup:s.setup ~fuel:s.fuel
       ?preemption_bound:s.bound ~init:ignore
       ~f:(fun () (o : Conc.Runner.outcome) ->
         incr runs;
         match Cal_checker.check ~spec:s.spec o.history with
         | Cal_checker.Accepted { stats; _ } ->
             incr accepted;
             add stats
         | Cal_checker.Rejected { stats; _ } -> add stats)
       ());
  Alcotest.(check (list int))
    "fuel, bound"
    [ 14; 2 ]
    [ s.fuel; Option.get s.bound ];
  Alcotest.(check int) "runs" 17_072 !runs;
  Alcotest.(check int) "accepted" 10_868 !accepted;
  Alcotest.(check int) "states_explored" 68_832 !states;
  Alcotest.(check int) "memo_hits" 9_432 !memo;
  Alcotest.(check int) "drop_sets_tried" 9_528 !drops

(* Bench B14's preamble histories: seeded exchanger histories of 2, 4 and
   6 elements over 4 threads. Each is explained without backtracking, one
   state per element, so a change of the k = 2 element enumeration order
   that makes the search backtrack fails here. *)
let test_exchanger_search_pinned () =
  List.iter
    (fun (elements, expect) ->
      let g = Workloads.Gen.create ~seed:11L in
      let h =
        Workloads.Gen.history_of_trace g
          (Workloads.Gen.exchanger_trace g ~oid:e_oid ~threads:4 ~elements)
      in
      let stats =
        match Cal_checker.check ~spec:ex_spec h with
        | Cal_checker.Accepted { stats; _ } -> stats
        | Cal_checker.Rejected { stats; _ } -> stats
      in
      Alcotest.(check int)
        (Fmt.str "%d elements: states_explored" elements)
        expect stats.states_explored)
    [ (2, 2); (4, 4); (6, 6) ]

let () =
  Alcotest.run "checkers"
    [
      ( "fig3",
        [
          t "verdicts" test_fig3_verdicts;
          t "all-fail history" test_all_fail_history_is_both;
          t "witness" test_cal_witness;
        ] );
      ( "completions",
        [
          t "pending completed" test_pending_completed_by_checker;
          t "pending dropped" test_pending_dropped_by_checker;
          t "lin pending" test_lin_pending;
        ] );
      ( "rejections",
        [
          t "value mismatch" test_rejects_value_mismatch;
          t "self swap" test_rejects_self_swap;
          t "ill-formed raises" test_ill_formed_raises;
        ] );
      ( "stack",
        [
          t "checkers coincide" test_stack_checkers_coincide;
          t "concurrent reordering" test_concurrent_stack_reordering;
          t "lin witness sequential" test_lin_witness_is_sequential;
        ] );
      ( "set-linearizability",
        [
          t "pair classes" test_set_lin;
          t "multi-object rejected" test_set_lin_multi_object_rejected;
        ] );
      ( "stats",
        [
          t "populated" test_stats_populated;
          t "final acceptor is the witness's" test_final_acceptor;
          t "search counts pinned on faulty-elim-stack-1p4c" test_search_counts_pinned;
          t "search counts pinned on B14's exchanger histories"
            test_exchanger_search_pinned;
        ] );
      ( "properties",
        [
          qtest ~count:100 "generated histories are CAL" arb_seed prop_generated_cal;
          qtest ~count:100 "CAL = lin for singleton specs" arb_seed
            prop_counter_cal_iff_lin;
        ] );
    ]
