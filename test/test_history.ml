(* Unit tests for Cal.History: well-formedness, classification, projections,
   entries, the real-time order and completions (Definitions 2-3). *)

open Cal
open Test_support

let t name f = Alcotest.test_case name `Quick f

(* t1 and t2 swap concurrently *)
let swap_history =
  History.of_list [ inv 1 (vi 3); inv 2 (vi 4); res 1 (ok_int 4); res 2 (ok_int 3) ]

let test_well_formed () =
  check_bool "empty" true (History.is_well_formed History.empty);
  check_bool "swap" true (History.is_well_formed swap_history);
  check_bool "pending inv" true
    (History.is_well_formed (History.of_list [ inv 1 (vi 3) ]));
  (* double invocation by the same thread *)
  check_bool "double inv" false
    (History.is_well_formed (History.of_list [ inv 1 (vi 3); inv 1 (vi 4) ]));
  (* response with no invocation *)
  check_bool "orphan res" false
    (History.is_well_formed (History.of_list [ res 1 (ok_int 3) ]));
  (* response on the wrong object *)
  check_bool "wrong object" false
    (History.is_well_formed
       (History.of_list [ inv 1 (vi 3); res ~oid:s_oid 1 (ok_int 3) ]))

let test_validate_reasons () =
  (match History.validate (History.of_list [ res 1 (ok_int 3) ]) with
  | Error msg -> check_bool "mentions pending" true (String.length msg > 0)
  | Ok () -> Alcotest.fail "expected error");
  Alcotest.(check (result unit string)) "ok" (Ok ()) (History.validate swap_history)

let test_sequential () =
  check_bool "empty" true (History.is_sequential History.empty);
  let seq = History.of_list [ inv 1 (vi 3); res 1 (ok_int 4); inv 2 (vi 4) ] in
  check_bool "seq with trailing inv" true (History.is_sequential seq);
  check_bool "concurrent not seq" false (History.is_sequential swap_history);
  check_bool "complete seq" true
    (History.is_sequential (History.of_list [ inv 1 (vi 3); res 1 (ok_int 4) ]))

let test_complete () =
  check_bool "swap complete" true (History.is_complete swap_history);
  check_bool "pending not complete" false
    (History.is_complete (History.of_list [ inv 1 (vi 3) ]));
  check_bool "ill-formed not complete" false
    (History.is_complete (History.of_list [ res 1 (ok_int 3) ]))

let test_of_ops () =
  let h =
    History.of_ops [ op 1 ~arg:(vi 3) ~ret:(ok_int 4); op 2 ~arg:(vi 4) ~ret:(ok_int 3) ]
  in
  check_bool "sequential" true (History.is_sequential h);
  check_bool "complete" true (History.is_complete h);
  Alcotest.(check int) "length" 4 (History.length h)

let test_entries () =
  let es = History.entries swap_history in
  Alcotest.(check int) "two ops" 2 (List.length es);
  let e1 = List.nth es 0 and e2 = List.nth es 1 in
  Alcotest.(check int) "inv idx" 0 e1.History.inv_index;
  Alcotest.(check (option int)) "res idx" (Some 2) e1.History.res_index;
  Alcotest.check value "ret of t1" (ok_int 4) (Option.get e1.History.ret);
  check_bool "concurrent" true (History.concurrent e1 e2);
  check_bool "no precedence" false (History.precedes e1 e2)

let test_precedes () =
  let h =
    History.of_list [ inv 1 (vi 3); res 1 (fail_int 3); inv 2 (vi 4); res 2 (fail_int 4) ]
  in
  match History.entries h with
  | [ a; b ] ->
      check_bool "a before b" true (History.precedes a b);
      check_bool "b not before a" false (History.precedes b a);
      check_bool "not concurrent" false (History.concurrent a b)
  | _ -> Alcotest.fail "expected two entries"

let test_pending () =
  let h = History.of_list [ inv 1 (vi 3); inv 2 (vi 4); res 1 (ok_int 4) ] in
  let p = History.pending h in
  Alcotest.(check int) "one pending" 1 (List.length p);
  Alcotest.(check int) "t2 pending" 2 (Ids.Tid.to_int (List.hd p).History.tid)

let test_projections () =
  let h =
    History.of_list
      [ inv 1 (vi 3); inv ~oid:s_oid ~fid:(fid "push") 2 (vi 9); res 1 (ok_int 4) ]
  in
  Alcotest.(check int) "proj t1" 2 (History.length (History.proj_thread h (tid 1)));
  Alcotest.(check int) "proj t2" 1 (History.length (History.proj_thread h (tid 2)));
  Alcotest.(check int) "proj E" 2 (History.length (History.proj_object h e_oid));
  Alcotest.(check int) "proj S" 1 (History.length (History.proj_object h s_oid));
  Alcotest.(check int) "threads" 2 (List.length (History.threads h));
  Alcotest.(check int) "objects" 2 (List.length (History.objects h))

let test_proj_thread_sequential () =
  (* H|t must be sequential for any well-formed H *)
  check_bool "H|t1 sequential" true
    (History.is_sequential (History.proj_thread swap_history (tid 1)))

let test_completions_drop_or_complete () =
  let h = History.of_list [ inv 1 (vi 3) ] in
  let cs =
    History.completions ~responses:(fun _ -> [ fail_int 3 ]) h |> List.of_seq
  in
  Alcotest.(check int) "two completions" 2 (List.length cs);
  check_bool "all complete" true (List.for_all History.is_complete cs);
  let lengths = List.map History.length cs |> List.sort compare in
  Alcotest.(check (list int)) "drop and complete" [ 0; 2 ] lengths

let test_completions_multiple_candidates () =
  let h = History.of_list [ inv 1 (vi 3) ] in
  let cs =
    History.completions ~responses:(fun _ -> [ fail_int 3; ok_int 9 ]) h |> List.of_seq
  in
  (* drop, complete-with-fail, complete-with-ok *)
  Alcotest.(check int) "three completions" 3 (List.length cs)

let test_completions_max () =
  let h = History.of_list [ inv 1 (vi 1); inv 2 (vi 2); inv 3 (vi 3) ] in
  let cs =
    History.completions ~responses:(fun _ -> [ fail_int 0; ok_int 1; ok_int 2 ]) ~max:5 h
    |> List.of_seq
  in
  Alcotest.(check int) "capped" 5 (List.length cs)

let test_completions_complete_history () =
  let cs =
    History.completions ~responses:(fun _ -> []) swap_history |> List.of_seq
  in
  Alcotest.(check int) "identity" 1 (List.length cs);
  Alcotest.check history "unchanged" swap_history (List.hd cs)

let test_append_nth () =
  let h = History.append History.empty (inv 1 (vi 3)) in
  Alcotest.(check int) "len" 1 (History.length h);
  check_bool "nth" true (Action.equal (History.nth h 0) (inv 1 (vi 3)))

(* ------------------------------------------- scan differential ----- *)

(* History.scan against the quadratic scan it replaced: the same entries
   in the same order, or the same error string. A tally counts the Ok
   results and records the error kinds seen, so a test can show it
   reached each. *)
type scan_tally = { mutable ok : int; mutable errors : string list }

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let error_kind reason =
  List.find_opt
    (fun k -> contains reason k)
    [ "out of order"; "invokes while pending"; "no pending invocation"; "does not match" ]
  |> Option.value ~default:reason

let compare_scan c h =
  let expected = Scan_oracle.scan (Array.of_list (History.to_list h)) in
  let got = Result.map Array.to_list (History.scan h) in
  if expected <> got then
    Alcotest.failf "scan differs from the reference on@.%a" History.pp h;
  match got with
  | Ok _ -> c.ok <- c.ok + 1
  | Error reason ->
      let k = error_kind reason in
      if not (List.mem k c.errors) then c.errors <- k :: c.errors

(* Thread ids are arbitrary non-negative ints ([calc serve] frames carry
   whatever the client sends): every history below is also compared with
   its threads renamed to ids at both ends of the range. *)
let hostile_tids = [| 0; 1_000_000_000; max_int; max_int - 1; 1; max_int - 2 |]

let rename_tids h =
  let tid t = Ids.Tid.of_int hostile_tids.(Ids.Tid.to_int t mod Array.length hostile_tids) in
  History.of_list
    (List.map
       (function
         | Action.Inv { tid = t; oid; fid; arg } -> Action.inv ~tid:(tid t) ~oid ~fid arg
         | Action.Res { tid = t; oid; fid; ret } -> Action.res ~tid:(tid t) ~oid ~fid ret
         | Action.Crash _ as a -> a)
       (History.to_list h))

let compare_scans c h =
  compare_scan c h;
  compare_scan c (rename_tids h)

(* Damage that mutate_history's well-formedness-preserving corruptions do
   not reach: drop, duplicate or move one action, or insert a crash marker
   whose epoch may be out of order. *)
let damage g h =
  let actions = Array.of_list (History.to_list h) in
  let n = Array.length actions in
  if n = 0 then h
  else
    let i = Workloads.Gen.int g n and j = Workloads.Gen.int g n in
    let l = Array.to_list actions in
    History.of_list
      (match Workloads.Gen.int g 4 with
      | 0 -> List.filteri (fun k _ -> k <> i) l
      | 1 -> List.concat (List.mapi (fun k a -> if k = i then [ a; a ] else [ a ]) l)
      | 2 ->
          let a = actions.(i) in
          actions.(i) <- actions.(j);
          actions.(j) <- a;
          Array.to_list actions
      | _ ->
          let crash = Action.crash ~epoch:(1 + Workloads.Gen.int g 2) in
          List.concat (List.mapi (fun k a -> if k = i then [ crash; a ] else [ a ]) l))

let test_scan_generated () =
  let c = { ok = 0; errors = [] } in
  let q_oid = oid "Q" and c_oid = oid "C" in
  let kinds =
    [
      Workloads.Gen.exchanger_trace ~oid:e_oid ~threads:3;
      Workloads.Gen.stack_trace ~oid:s_oid ~threads:3;
      Workloads.Gen.counter_trace ~oid:c_oid ~threads:3;
      Workloads.Gen.sync_queue_trace ~oid:q_oid ~threads:3;
    ]
  in
  for seed = 0 to 199 do
    List.iter
      (fun trace_of ->
        let g = Workloads.Gen.create ~seed:(Int64.of_int seed) in
        let h = Workloads.Gen.history_of_trace g (trace_of g ~elements:5) in
        let m = Workloads.Gen.mutate_history g h in
        let actions = History.to_list h in
        let cut = Workloads.Gen.int g (List.length actions + 1) in
        List.iter (compare_scans c)
          [
            h;
            m;
            History.of_list (List.filteri (fun i _ -> i < cut) actions);
            damage g h;
            damage g m;
            damage g (damage g h);
          ])
      kinds
  done;
  check_bool "well-formed histories scanned" true (c.ok > 0);
  List.iter
    (fun k -> check_bool ("error reached: " ^ k) true (List.mem k c.errors))
    [ "out of order"; "invokes while pending"; "no pending invocation"; "does not match" ]

(* Multi-era histories of the durable crash sweeps, intact and damaged. *)
let test_scan_crash_histories () =
  let c = { ok = 0; errors = [] } in
  let g = Workloads.Gen.create ~seed:7L in
  let multi_era = ref 0 in
  List.iter
    (fun (d : Workloads.Scenarios.durable) ->
      ignore
        (Conc.Explore.exhaustive_with_crashes ~setup:d.d_setup ~fuel:d.d_fuel
           ~max_runs:40 ~max_plans:20 ~max_crash_depth:d.d_max_crash_depth
           ~f:(fun o ->
             if History.crash_count o.history > 0 then incr multi_era;
             compare_scans c o.history;
             compare_scans c (damage g o.history))
           ()))
    (Workloads.Scenarios.durable_all ());
  check_bool "crash markers scanned" true (!multi_era > 0);
  check_bool "well-formed histories scanned" true (c.ok > 0)

(* Hand-written histories at [max_int]: the same id invokes in two eras, a
   stale response after a crash, neighbouring ids, and a double invocation. *)
let test_scan_hostile_tids () =
  let c = { ok = 0; errors = [] } in
  let big = max_int in
  List.iter (compare_scan c)
    [
      History.of_list [ inv big (vi 1); Action.crash ~epoch:1; inv big (vi 2); res big (ok_int 3) ];
      History.of_list [ inv big (vi 1); inv 0 (vi 2); Action.crash ~epoch:1; res big (ok_int 2) ];
      History.of_list [ inv big (vi 1); inv (big - 1) (vi 2); res (big - 1) (ok_int 1); res big (ok_int 2) ];
      History.of_list [ inv big (vi 1); inv big (vi 2) ];
    ];
  check_bool "well-formed histories scanned" true (c.ok > 0);
  List.iter
    (fun k -> check_bool ("error reached: " ^ k) true (List.mem k c.errors))
    [ "invokes while pending"; "no pending invocation" ]

let () =
  Alcotest.run "history"
    [
      ( "classification",
        [
          t "well-formed" test_well_formed;
          t "validate reasons" test_validate_reasons;
          t "sequential" test_sequential;
          t "complete" test_complete;
          t "of_ops" test_of_ops;
        ] );
      ( "entries & order",
        [
          t "entries" test_entries;
          t "precedes" test_precedes;
          t "pending" test_pending;
          t "projections" test_projections;
          t "thread projection sequential" test_proj_thread_sequential;
          t "append/nth" test_append_nth;
        ] );
      ( "scan",
        [
          t "matches the reference on generated histories" test_scan_generated;
          t "matches the reference on crash histories" test_scan_crash_histories;
          t "matches the reference on hostile thread ids" test_scan_hostile_tids;
        ] );
      ( "completions",
        [
          t "drop or complete" test_completions_drop_or_complete;
          t "multiple candidates" test_completions_multiple_candidates;
          t "max cap" test_completions_max;
          t "complete history" test_completions_complete_history;
        ] );
    ]
