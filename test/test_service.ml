(* Tests for the streaming monitor core: verdict correctness on the fast
   and exhaustive paths, fault containment (malformed frames never kill
   the core nor perturb sibling sessions), the degradation ladder under
   overload, bounded windows with overflow trimming, idle eviction and
   conservative readmission, crash-marker era resets, snapshot/restore
   with latched violations, and byte-for-byte determinism. *)

open Cal
open Test_support
module Config = Service.Config
module Proto = Service.Proto
module Session = Service.Session
module Core = Service.Core

let t name f = Alcotest.test_case name `Quick f

(* Objects named E* are exchangers (concurrency-aware pairs), U* are
   unknown, everything else is a fetch-and-add counter. *)
let spec_for oid =
  let name = Ids.Oid.to_string oid in
  if String.length name > 0 && name.[0] = 'U' then None
  else if String.length name > 0 && name.[0] = 'E' then
    Some (Spec_exchanger.spec ~oid ())
  else Some (Spec_counter.spec ~oid ())

let small_config =
  {
    Config.default with
    max_sessions = 8;
    max_pending = 4;
    window_max = 12;
    memory_budget = 48;
    hi_watermark = 0.5;
    lo_watermark = 0.25;
    cooldown = 2;
    sample_period = 3;
    idle_timeout = 4;
  }

let mk ?cache ?(config = small_config) () =
  match Core.create ?cache ~config ~spec_for () with
  | Ok t -> t
  | Error m -> Alcotest.fail ("config rejected: " ^ m)

let run core inputs =
  List.fold_left
    (fun (core, evs) input ->
      let core, e = Core.feed core input in
      (core, evs @ e))
    (core, []) inputs

let lines ls = List.map (fun l -> Proto.Line l) ls
let transcript evs = String.concat "\n" (List.map Proto.print_event evs)

(* counter frames *)
let cinv ?(t = 1) o = Fmt.str "t%d inv %s.incr ()" t o
let cres ?(t = 1) o n = Fmt.str "t%d res %s.incr %d" t o n

(* a correct sequential burst of [n] increments on counter [o] *)
let counter_burst ?(t = 1) ?(from = 0) o n =
  List.concat (List.init n (fun i -> [ cinv ~t o; cres ~t o (from + i) ]))

let count_events p evs = List.length (List.filter p evs)

let committed_for o =
  function Proto.Committed { oid; _ } -> Ids.Oid.to_string oid = o | _ -> false

let violation_for o =
  function Proto.Violation { oid; _ } -> Ids.Oid.to_string oid = o | _ -> false

let is_error = function Proto.Rejected_frame _ -> true | _ -> false

(* ------------------------------------------------ verdict correctness -- *)

let test_sequential_commits () =
  let core, evs = run (mk ()) (lines (counter_burst "C" 3)) in
  Alcotest.(check int) "three commits" 3
    (count_events (committed_for "C") evs);
  Alcotest.(check int) "no errors" 0 (count_events is_error evs);
  Alcotest.(check int) "load drained" 0 (Core.load core);
  match Core.session core (Ids.Oid.v "C") with
  | Some s -> Alcotest.(check int) "ops counted" 3 (Session.ops s)
  | None -> Alcotest.fail "session missing"

let test_sequential_violation_latches () =
  let core, evs =
    run (mk ())
      (lines
         (counter_burst "C" 2
         @ [ cinv "C"; cres "C" 7 ]  (* previous value is 2, not 7 *)
         @ counter_burst ~from:3 "C" 2))
  in
  Alcotest.(check int) "one violation" 1
    (count_events (violation_for "C") evs);
  Alcotest.(check int) "no commits after the latch" 2
    (count_events (committed_for "C") evs);
  match Core.session core (Ids.Oid.v "C") with
  | None -> Alcotest.fail "session missing"
  | Some s -> (
      match Session.latched s with
      | Some (op, _) -> Alcotest.(check int) "latched at op 3" 3 op
      | None -> Alcotest.fail "violation did not latch");
      Alcotest.(check int) "later frames still counted" 5 (Session.ops s)

(* A concurrent exchange pair is CAL only as a two-op element: the
   sequential fast path cannot apply, so this exercises the exhaustive
   checker resumed from committed state. *)
let exchange_pair o a b =
  [
    Fmt.str "t1 inv %s.exchange %d" o a;
    Fmt.str "t2 inv %s.exchange %d" o b;
    Fmt.str "t1 res %s.exchange (true, %d)" o b;
    Fmt.str "t2 res %s.exchange (true, %d)" o a;
  ]

let test_concurrent_window_accepted () =
  let _, evs =
    run (mk ()) (lines (exchange_pair "E" 3 4 @ exchange_pair "E" 5 6))
  in
  Alcotest.(check int) "both windows commit" 2
    (count_events (committed_for "E") evs);
  Alcotest.(check int) "no violations" 0
    (count_events (violation_for "E") evs)

(* The exhaustive path commits the final acceptor of the window's
   witness: after two overlapping increments the counter's committed
   state is 2, so a sequential burst continuing from 2 commits. *)
let test_concurrent_window_commits_state () =
  let overlapping = [ cinv ~t:1 "C"; cinv ~t:2 "C"; cres ~t:1 "C" 1; cres ~t:2 "C" 0 ] in
  let core, evs = run (mk ()) (lines (overlapping @ counter_burst ~from:2 "C" 2)) in
  Alcotest.(check int) "no violations" 0 (count_events (violation_for "C") evs);
  Alcotest.(check int) "every window commits" 3 (count_events (committed_for "C") evs);
  match Core.session core (Ids.Oid.v "C") with
  | Some s -> Alcotest.(check string) "committed state" "4" (Session.committed_key s)
  | None -> Alcotest.fail "session missing"

let test_concurrent_window_rejected () =
  (* Both sides claim success against different partners' values than
     offered: no element explains it. *)
  let bad =
    [
      "t1 inv E.exchange 3";
      "t2 inv E.exchange 4";
      "t1 res E.exchange (true, 9)";
      "t2 res E.exchange (true, 3)";
    ]
  in
  let _, evs = run (mk ()) (lines bad) in
  Alcotest.(check int) "violation flagged" 1
    (count_events (violation_for "E") evs)

(* Thread ids at the top of the int range get the verdicts small ids get:
   a concurrent exchange pair commits, a bad one is a violation, and a
   concurrent counter window commits. *)
let test_hostile_thread_ids () =
  let a = max_int and b = max_int - 1 and c = 1_000_000_000 in
  let frames =
    [
      Fmt.str "t%d inv E.exchange 3" a;
      Fmt.str "t%d inv E.exchange 4" b;
      Fmt.str "t%d res E.exchange (true, 4)" a;
      Fmt.str "t%d res E.exchange (true, 3)" b;
      Fmt.str "t%d inv C.incr ()" a;
      Fmt.str "t%d inv C.incr ()" c;
      Fmt.str "t%d res C.incr 1" a;
      Fmt.str "t%d res C.incr 0" c;
      Fmt.str "t%d inv E2.exchange 3" a;
      Fmt.str "t%d inv E2.exchange 4" b;
      Fmt.str "t%d res E2.exchange (true, 9)" a;
      Fmt.str "t%d res E2.exchange (true, 3)" b;
    ]
  in
  let _, evs = run (mk ()) (lines frames) in
  Alcotest.(check int) "no rejected frames" 0 (count_events is_error evs);
  Alcotest.(check int) "exchange pair commits" 1 (count_events (committed_for "E") evs);
  Alcotest.(check int) "counter window commits" 1 (count_events (committed_for "C") evs);
  Alcotest.(check int) "bad pair flagged" 1 (count_events (violation_for "E2") evs);
  Alcotest.(check int) "no other violation" 1 (count_events (function Proto.Violation _ -> true | _ -> false) evs)

(* --------------------------------------------------- fault containment -- *)

let hostile_frames =
  [
    "not a frame at all";
    "t1 foo C.incr ()";
    "x9 inv C.incr ()";
    "t1 inv Cincr ()";
    "t1 inv C.incr (1, 2";
    "t1 inv U.op ()";  (* unknown object *)
    "crash 0";  (* bad epoch *)
    String.make (History_format.max_line_length + 1) 'x';
    "t1 inv C2.incr " ^ String.concat "" (List.init 200 (fun _ -> "["));
    "t3 res C.incr 0";  (* response with no pending invocation *)
  ]

let test_malformed_frames_are_contained () =
  let core, evs = run (mk ()) (lines hostile_frames) in
  Alcotest.(check int) "every hostile frame answered with an error"
    (List.length hostile_frames)
    (count_events is_error evs);
  (* The core is still fully functional afterwards. *)
  let _, evs' = run core (lines (counter_burst "C" 2)) in
  Alcotest.(check int) "still verifying" 2
    (count_events (committed_for "C") evs')

let test_malformed_frames_do_not_perturb_siblings () =
  (* The same healthy stream for C, with and without hostile frames and
     other objects' traffic interleaved, must produce byte-identical
     C-events. *)
  let healthy = counter_burst "C" 4 in
  let interleave xs ys =
    let rec go acc = function
      | [], rest | rest, [] -> List.rev_append acc rest
      | x :: xs, y :: ys -> go (y :: x :: acc) (xs, ys)
    in
    go [] (xs, ys)
  in
  let noisy = interleave healthy (hostile_frames @ counter_burst "D" 3) in
  let _, ref_evs = run (mk ()) (lines healthy) in
  let _, noisy_evs = run (mk ()) (lines noisy) in
  let for_c evs =
    transcript
      (List.filter
         (fun e -> committed_for "C" e || violation_for "C" e)
         evs)
  in
  Alcotest.(check string) "C events byte-identical" (for_c ref_evs)
    (for_c noisy_evs)

let arb_hostile_line =
  let open QCheck.Gen in
  let fragment =
    oneof
      [
        string_size ~gen:(char_range '\000' '\255') (int_bound 20);
        oneofl
          [
            "t1 inv C.incr ()"; "t1 res C.incr 0"; "crash 1"; "crash x";
            "t1 inv E.exchange "; "(("; "))"; "[[["; "\"";
            "t1 inv U.op ()"; " # comment"; "t99 res C.get 7";
          ];
      ]
  in
  QCheck.make
    ~print:(Printf.sprintf "%S")
    (map (String.concat " ") (list_size (int_bound 4) fragment))

let prop_feed_is_total ls =
  let core = mk () in
  match run core (lines ls) with
  | core', _ -> Core.load core' >= 0
  | exception _ -> false

(* ------------------------------------------- degradation under overload -- *)

(* Never-quiescent streams: an open [get] pins each window, so load only
   grows until the ladder sheds it. *)
let pinned_stream o n =
  Fmt.str "t9 inv %s.get ()" o
  :: List.concat
       (List.init n (fun i -> [ cinv ~t:1 o; cres ~t:1 o i ]))

let test_overload_degrades_and_stays_in_budget () =
  let config = small_config in
  let core = mk ~config () in
  let streams = List.concat (List.init 6 (fun i -> pinned_stream (Fmt.str "C%d" i) 5)) in
  let final, evs =
    List.fold_left
      (fun (core, evs) input ->
        let core, e = Core.feed core input in
        check_bool "load within budget after every frame" true
          (Core.load core <= config.Config.memory_budget);
        (core, evs @ e))
      (core, []) (lines streams)
  in
  let levels =
    List.filter_map
      (function Proto.Level_change { level; _ } -> Some level | _ -> None)
      evs
  in
  check_bool "degraded at least to sampled" true
    (List.mem Proto.Sampled levels || List.mem Proto.Count_only levels);
  check_bool "reported count-only under sustained overload" true
    (List.mem Proto.Count_only levels);
  Alcotest.(check string) "final level reported" "count-only"
    (Proto.level_to_string (Core.level final));
  check_bool "count-only shed the retained windows" true (Core.load final = 0)

let test_ladder_recovers_after_cooldown () =
  let core, _ =
    run (mk ())
      (lines (List.concat (List.init 6 (fun i -> pinned_stream (Fmt.str "C%d" i) 5))))
  in
  Alcotest.(check string) "overloaded" "count-only"
    (Proto.level_to_string (Core.level core));
  let core, evs = run core (List.init 6 (fun _ -> Proto.Tick)) in
  Alcotest.(check string) "recovered to full" "full"
    (Proto.level_to_string (Core.level core));
  Alcotest.(check int) "one level change per rung" 2
    (count_events
       (function Proto.Level_change _ -> true | _ -> false)
       evs)

let test_sampled_defers_concurrent_windows () =
  (* Force Sampled with a tiny high watermark, then feed concurrent
     exchange pairs: commits arrive only at every sample_period-th
     quiescent point, sequential counters still commit instantly. *)
  let config =
    { small_config with
      lo_watermark = 0.05; hi_watermark = 0.10; memory_budget = 100 }
  in
  let core = mk ~config () in
  let core, _ = run core (lines (pinned_stream "P" 5)) in
  Alcotest.(check string) "sampled" "sampled"
    (Proto.level_to_string (Core.level core));
  let core, evs = run core (lines (exchange_pair "E" 1 2)) in
  Alcotest.(check int) "first concurrent window deferred" 0
    (count_events (committed_for "E") evs);
  let core, evs = run core (lines (exchange_pair "E" 3 4 @ exchange_pair "E" 5 6)) in
  Alcotest.(check int) "batch committed at the sampled quiescent point" 1
    (count_events (committed_for "E") evs);
  let _, evs = run core (lines (counter_burst "C" 2)) in
  Alcotest.(check int) "sequential fast path unaffected by sampling" 2
    (count_events (committed_for "C") evs)

(* --------------------------------------------- bounded windows, overflow -- *)

let test_overflow_desyncs_after_final_verdict () =
  let config = { small_config with window_max = 8; memory_budget = 64 } in
  let core = mk ~config () in
  let core, evs = run core (lines (pinned_stream "C" 6)) in
  Alcotest.(check int) "overflow desynced the session" 1
    (count_events
       (function Proto.Session_desynced { oid; _ } ->
           Ids.Oid.to_string oid = "C"
         | _ -> false)
       evs);
  Alcotest.(check int) "healthy overflow is not a violation" 0
    (count_events (violation_for "C") evs);
  (match Core.session core (Ids.Oid.v "C") with
  | Some s ->
      check_bool "desynced" true (Session.is_desynced s);
      Alcotest.(check int) "window dropped" 0 (Session.window_len s)
  | None -> Alcotest.fail "session missing");
  (* An era reset resynchronises: verdicts resume. *)
  let _, evs = run core (lines (("crash 1" :: counter_burst "C" 2))) in
  Alcotest.(check int) "verifying again after the era reset" 2
    (count_events (committed_for "C") evs)

let test_overflow_still_catches_violations () =
  let config = { small_config with window_max = 8; memory_budget = 64 } in
  (* Pinned window with a wrong increment inside: the one final verdict
     at overflow must latch it. *)
  let bad =
    Fmt.str "t9 inv C.get ()"
    :: (counter_burst ~t:1 "C" 2
       @ [ cinv ~t:1 "C"; cres ~t:1 "C" 9 ]
       @ counter_burst ~t:1 ~from:3 "C" 2)
  in
  let core, evs = run (mk ~config ()) (lines bad) in
  Alcotest.(check int) "violation latched at overflow" 1
    (count_events (violation_for "C") evs);
  match Core.session core (Ids.Oid.v "C") with
  | Some s -> check_bool "latched" true (Session.latched s <> None)
  | None -> Alcotest.fail "session missing"

let test_pending_cap_rejects_stuck_streams () =
  let core = mk () in
  let invs =
    List.init (small_config.Config.max_pending + 1) (fun i ->
        Fmt.str "t%d inv C.incr ()" (i + 1))
  in
  let _, evs = run core (lines invs) in
  Alcotest.(check int) "inv past the pending cap rejected" 1
    (count_events is_error evs)

(* ------------------------------------------------- eviction, admission -- *)

let test_idle_eviction_and_conservative_readmission () =
  let core, _ = run (mk ()) (lines (counter_burst "C" 1)) in
  let core, evs =
    run core (List.init (small_config.Config.idle_timeout + 1) (fun _ -> Proto.Tick))
  in
  Alcotest.(check int) "idle session reaped" 1
    (count_events
       (function Proto.Session_evicted { reason = Proto.Idle; _ } -> true
         | _ -> false)
       evs);
  (* Readmission distrusts the gap: the object kept running while we
     were not looking, so the session only counts until the next era. *)
  let core, evs = run core (lines (counter_burst ~from:1 "C" 2)) in
  Alcotest.(check int) "readmitted conservatively" 1
    (count_events
       (function Proto.Session_desynced { oid; _ } ->
           Ids.Oid.to_string oid = "C"
         | _ -> false)
       evs);
  Alcotest.(check int) "no verdicts while desynced" 0
    (count_events (committed_for "C") evs);
  let _, evs = run core (lines ("crash 1" :: counter_burst "C" 2)) in
  Alcotest.(check int) "fresh era restores verdicts" 2
    (count_events (committed_for "C") evs)

let test_admission_cap_and_pressure_shedding () =
  let config = { small_config with max_sessions = 2 } in
  let core, _ = run (mk ~config ()) (lines (counter_burst "A" 1 @ counter_burst "B" 1)) in
  (* Both live sessions are healthy: the third object is refused. *)
  let core, evs = run core (lines [ cinv "C" ]) in
  Alcotest.(check int) "table full rejected" 1 (count_events is_error evs);
  (* Idle-evict both, readmit them under distrust (desynced), and the
     third object then displaces one. *)
  let core, _ =
    run core (List.init (config.Config.idle_timeout + 1) (fun _ -> Proto.Tick))
  in
  let core, _ =
    run core (lines [ cinv "A"; cres "A" 1; cinv "B"; cres "B" 1 ])
  in
  let _, evs = run core (lines [ cinv "C" ]) in
  Alcotest.(check int) "desynced session shed under admission pressure" 1
    (count_events
       (function
         | Proto.Session_evicted { reason = Proto.Admission_pressure; _ } ->
             true
         | _ -> false)
       evs);
  Alcotest.(check int) "new object admitted" 0 (count_events is_error evs)

(* --------------------------------------------------- snapshot / restore -- *)

let test_snapshot_restore_preserves_latched_violations () =
  let core, _ =
    run (mk ())
      (lines
         (counter_burst "C" 2
         @ [ cinv "C"; cres "C" 9 ]
         @ counter_burst "D" 3))
  in
  let snap = Core.snapshot core in
  match Core.restore ~config:small_config ~spec_for snap with
  | Error m -> Alcotest.fail ("restore failed: " ^ m)
  | Ok restored -> (
      Alcotest.(check int) "sessions restored" 2 (Core.session_count restored);
      (match Core.session restored (Ids.Oid.v "C") with
      | Some s -> (
          match Session.latched s with
          | Some (op, reason) ->
              Alcotest.(check int) "latched op preserved" 3 op;
              check_bool "latched reason preserved" true
                (String.length reason > 0)
          | None -> Alcotest.fail "latched violation lost across restore")
      | None -> Alcotest.fail "latched session lost");
      (match Core.session restored (Ids.Oid.v "D") with
      | Some s ->
          (* v2 snapshots are exact: the healthy session resumes its
             committed acceptor instead of desyncing. *)
          check_bool "healthy session restored accepting" false
            (Session.is_desynced s);
          Alcotest.(check int) "op count preserved" 3 (Session.ops s)
      | None -> Alcotest.fail "healthy session lost");
      (* The restored daemon keeps verifying without waiting for a new
         era, and still refuses to un-latch across one. *)
      let _, evs = run restored (lines (counter_burst ~from:3 "D" 1)) in
      Alcotest.(check int) "healthy session verifies immediately" 1
        (count_events (committed_for "D") evs);
      let _, evs = run restored (lines (counter_burst ~from:0 "D" 1)) in
      Alcotest.(check int) "resumed committed state still enforced" 1
        (count_events (violation_for "D") evs);
      let _, evs = run restored (lines ("crash 1" :: counter_burst "C" 1 @ counter_burst "D" 1)) in
      Alcotest.(check int) "latch survives the next era" 0
        (count_events (committed_for "C") evs);
      Alcotest.(check int) "healthy session verifies in the next era" 1
        (count_events (committed_for "D") evs))

let test_snapshot_is_stable_and_restore_is_strict () =
  let core, _ = run (mk ()) (lines (counter_burst "C" 2)) in
  Alcotest.(check string) "snapshot bytes are deterministic"
    (Core.snapshot core) (Core.snapshot core);
  (match Core.restore ~config:small_config ~spec_for "garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted as a snapshot");
  match
    Core.restore ~config:small_config ~spec_for
      "calserve-snapshot v1\nsession C ops=x era=0 ok\nend"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed session line accepted"

(* ------------------------------------------------------- determinism -- *)

let test_feed_is_byte_deterministic () =
  let inputs =
    lines
      (counter_burst "C" 2 @ hostile_frames @ exchange_pair "E" 3 4
      @ pinned_stream "P" 3 @ [ "crash 1" ] @ counter_burst "C" 1)
    @ [ Proto.Tick; Proto.Tick ]
  in
  let _, a = run (mk ()) inputs in
  let _, b = run (mk ()) inputs in
  Alcotest.(check string) "identical transcripts" (transcript a) (transcript b);
  (* And with a shared verdict cache: memoisation is verdict-transparent,
     so the transcript must not change. *)
  let cache = Verdict_cache.create ~capacity:4 () in
  let _, c = run (mk ~cache ()) inputs in
  let _, d = run (mk ~cache ()) inputs in
  Alcotest.(check string) "cache does not perturb verdicts" (transcript a)
    (transcript c);
  Alcotest.(check string) "warm cache does not perturb verdicts" (transcript a)
    (transcript d)


(* ------------------------------------------------- v2 exact snapshots -- *)

let test_v2_roundtrip_is_exact () =
  (* Mixed mid-flight state: committed counters, a pinned open window,
     a pending invocation, hostile damage already absorbed. The restored
     core must be bisimilar: identical snapshot bytes now, identical
     transcript and snapshot after any continuation. *)
  let prefix =
    counter_burst "C" 3 @ pinned_stream "P" 2 @ hostile_frames
    @ exchange_pair "E" 3 4 @ [ cinv ~t:2 "C" ]
  in
  let continuation =
    lines
      ([ cres ~t:2 "C" 3 ] @ counter_burst ~from:4 "C" 2
      @ exchange_pair "E" 5 6)
    @ [ Proto.Tick; Proto.Tick ]
  in
  let core, _ = run (mk ()) (lines prefix) in
  let snap = Core.snapshot core in
  match Core.restore ~config:small_config ~spec_for snap with
  | Error m -> Alcotest.fail ("v2 restore failed: " ^ m)
  | Ok restored ->
      Alcotest.(check string) "restored snapshot byte-identical" snap
        (Core.snapshot restored);
      let a, evs_a = run core continuation in
      let b, evs_b = run restored continuation in
      Alcotest.(check string) "continuation transcripts identical"
        (transcript evs_a) (transcript evs_b);
      Alcotest.(check string) "final snapshots identical" (Core.snapshot a)
        (Core.snapshot b)

let test_restore_preserves_degradation_ladder () =
  let overload =
    lines
      (List.concat (List.init 6 (fun i -> pinned_stream (Fmt.str "C%d" i) 5)))
  in
  let core, _ = run (mk ()) overload in
  Alcotest.(check string) "count-only before snapshot" "count-only"
    (Proto.level_to_string (Core.level core));
  let snap = Core.snapshot core in
  match Core.restore ~config:small_config ~spec_for snap with
  | Error m -> Alcotest.fail ("restore failed: " ^ m)
  | Ok restored ->
      Alcotest.(check string) "count-only survives restore" "count-only"
        (Proto.level_to_string (Core.level restored));
      (* The hysteresis cooldown survives too: both cores climb back to
         full on exactly the same tick schedule. *)
      let ticks = List.init 6 (fun _ -> Proto.Tick) in
      let a, evs_a = run core ticks in
      let b, evs_b = run restored ticks in
      Alcotest.(check string) "upgrade schedule identical" (transcript evs_a)
        (transcript evs_b);
      Alcotest.(check string) "recovered to full" "full"
        (Proto.level_to_string (Core.level a));
      Alcotest.(check string) "restored core recovered to full" "full"
        (Proto.level_to_string (Core.level b))

let test_restore_preserves_sampled_level () =
  let config =
    { small_config with
      lo_watermark = 0.05; hi_watermark = 0.10; memory_budget = 100 }
  in
  let core, _ = run (mk ~config ()) (lines (pinned_stream "P" 5)) in
  Alcotest.(check string) "sampled before snapshot" "sampled"
    (Proto.level_to_string (Core.level core));
  match Core.restore ~config ~spec_for (Core.snapshot core) with
  | Error m -> Alcotest.fail ("restore failed: " ^ m)
  | Ok restored ->
      Alcotest.(check string) "sampled survives restore" "sampled"
        (Proto.level_to_string (Core.level restored));
      (* The sampling cadence continues from the snapshotted qpoint
         counters, not from zero. *)
      let conc =
        lines
          (exchange_pair "E" 1 2 @ exchange_pair "E" 3 4
          @ exchange_pair "E" 5 6)
      in
      let _, evs_a = run core conc in
      let _, evs_b = run restored conc in
      Alcotest.(check string) "sampling cadence identical" (transcript evs_a)
        (transcript evs_b)

let test_v1_snapshot_still_restores_conservatively () =
  let v1 =
    "calserve-snapshot v1\nclock 3\nlevel full\nunknown-history false\n\
     session C ops=4 era=1 latched op=3 reason=bad increment\n\
     session D ops=2 era=0 ok\nend"
  in
  match Core.restore ~config:small_config ~spec_for v1 with
  | Error m -> Alcotest.fail ("v1 snapshot refused: " ^ m)
  | Ok restored ->
      (match Core.session restored (Ids.Oid.v "C") with
      | Some s ->
          check_bool "v1 latch preserved" true (Session.latched s <> None)
      | None -> Alcotest.fail "latched session lost");
      (match Core.session restored (Ids.Oid.v "D") with
      | Some s ->
          check_bool "v1 healthy session restored desynced" true
            (Session.is_desynced s)
      | None -> Alcotest.fail "healthy session lost")

(* A spec with no [~resume] parser: its committed key cannot be turned
   back into an acceptor, so an exact restore must degrade that one
   session to desynced (honestly) instead of failing the whole boot. *)
let noresume_spec oid =
  Spec.make
    ~name:(Fmt.str "opaque(%a)" Ids.Oid.pp oid)
    ~owns:(Ids.Oid.equal oid) ~max_element_size:1 ~init:0
    ~step:(fun count e ->
      match Ca_trace.element_ops e with
      | [ o ] ->
          if Value.equal o.Op.ret (Value.int count) then Some (count + 1)
          else None
      | _ -> None)
    ~key:string_of_int
    ~candidates:(fun count ~universe:_ _ -> [ Value.int count ])
    ()

let test_restore_without_resume_parser_falls_back () =
  let spec_for oid = Some (noresume_spec oid) in
  let mkc () =
    match Core.create ~config:small_config ~spec_for () with
    | Ok t -> t
    | Error m -> Alcotest.fail ("config rejected: " ^ m)
  in
  let core, _ = run (mkc ()) (lines (counter_burst "C" 2)) in
  match Core.restore ~config:small_config ~spec_for (Core.snapshot core) with
  | Error m -> Alcotest.fail ("fallback restore failed: " ^ m)
  | Ok restored -> (
      match Core.session restored (Ids.Oid.v "C") with
      | Some s ->
          check_bool "non-resumable session restored desynced" true
            (Session.is_desynced s);
          Alcotest.(check int) "ops still preserved" 2 (Session.ops s)
      | None -> Alcotest.fail "session lost")

(* Hostile snapshots: splice random bytes into a real v2 snapshot.
   Restore must return [Ok] or [Error], never raise. *)
let snapshot_base =
  lazy
    (let core, _ =
       run (mk ())
         (lines (counter_burst "C" 2 @ pinned_stream "P" 1 @ hostile_frames))
     in
     Core.snapshot core)

let arb_mutated_snapshot =
  let gen =
    QCheck.Gen.(
      map3
        (fun pos len repl ->
          let base = Lazy.force snapshot_base in
          let n = String.length base in
          let pos = pos mod n in
          let len = min len (n - pos) in
          String.sub base 0 pos ^ repl
          ^ String.sub base (pos + len) (n - pos - len))
        (int_bound 10_000) (int_bound 60)
        (string_size ~gen:(char_range '\000' '\255') (int_bound 30)))
  in
  QCheck.make ~print:(Printf.sprintf "%S") gen

let prop_restore_is_total s =
  match Core.restore ~config:small_config ~spec_for s with
  | Ok _ | Error _ -> true
  | exception _ -> false

(* Transcripts are asserted byte for byte, so [Proto.print_event] must
   print exactly what the Format printer it replaced printed: that
   printer is kept here as [format_event]. *)
let format_event = function
  | Proto.Committed { oid; ops } ->
      Fmt.str "committed oid=%a ops=%d" Ids.Oid.pp oid ops
  | Violation { oid; op; reason } ->
      Fmt.str "violation oid=%a op=%d reason=%s" Ids.Oid.pp oid op
        (Proto.one_line reason)
  | Rejected_frame { frame; reason } ->
      Fmt.str "error frame=%d reason=%s" frame (Proto.one_line reason)
  | Crash_seen { epoch } -> Fmt.str "crash epoch=%d" epoch
  | Level_change { level; load } ->
      Fmt.str "level level=%s load=%d" (Proto.level_to_string level) load
  | Session_evicted { oid; reason } ->
      Fmt.str "evicted oid=%a reason=%s" Ids.Oid.pp oid
        (match reason with Idle -> "idle" | Admission_pressure -> "admission")
  | Session_desynced { oid; reason } ->
      Fmt.str "desynced oid=%a reason=%s" Ids.Oid.pp oid (Proto.one_line reason)

(* Every constructor, with negative, zero and extreme ints, reasons
   holding newlines, carriage returns, '%' and '@' (Format's own escape
   characters), and reasons longer than Format's margin. *)
let event_gen =
  let open QCheck.Gen in
  let int = oneof [ int; int_range (-50) 50; oneofl [ min_int; max_int; 0; -1 ] ] in
  let text =
    oneof
      [
        string_size ~gen:char (int_bound 12);
        string_size ~gen:(oneofl [ '\n'; '\r'; ' '; '%'; '@'; 'a'; '\255' ]) (int_bound 8);
        string_size ~gen:(oneofl [ 'x'; ' '; '\n' ]) (int_range 70 200);
      ]
  in
  let oid = map (fun s -> Ids.Oid.v ("o" ^ s)) (string_size ~gen:printable (int_bound 6)) in
  oneof
    [
      map2 (fun oid ops -> Proto.Committed { oid; ops }) oid int;
      map3 (fun oid op reason -> Proto.Violation { oid; op; reason }) oid int text;
      map2 (fun frame reason -> Proto.Rejected_frame { frame; reason }) int text;
      map (fun epoch -> Proto.Crash_seen { epoch }) int;
      map2
        (fun level load -> Proto.Level_change { level; load })
        (oneofl Proto.[ Full; Sampled; Count_only ])
        int;
      map2
        (fun oid reason -> Proto.Session_evicted { oid; reason })
        oid
        (oneofl Proto.[ Idle; Admission_pressure ]);
      map2 (fun oid reason -> Proto.Session_desynced { oid; reason }) oid text;
    ]

let arb_event = QCheck.make ~print:format_event event_gen

let test_print_event_is_format () =
  let o = Ids.Oid.v "C0" in
  List.iter
    (fun (expected, e) ->
      Alcotest.(check string) "format printer" expected (format_event e);
      Alcotest.(check string) "print_event" expected (Proto.print_event e))
    [
      ("committed oid=C0 ops=7", Proto.Committed { oid = o; ops = 7 });
      ( "violation oid=C0 op=-3 reason=a b  c",
        Violation { oid = o; op = -3; reason = "a\nb\r\nc" } );
      ( Printf.sprintf "error frame=%d reason=" max_int,
        Rejected_frame { frame = max_int; reason = "" } );
      ("crash epoch=0", Crash_seen { epoch = 0 });
      ( Printf.sprintf "level level=count-only load=%d" min_int,
        Level_change { level = Count_only; load = min_int } );
      ("level level=full load=12", Level_change { level = Full; load = 12 });
      ("level level=sampled load=1", Level_change { level = Sampled; load = 1 });
      ("evicted oid=C0 reason=idle", Session_evicted { oid = o; reason = Idle });
      ( "evicted oid=C0 reason=admission",
        Session_evicted { oid = o; reason = Admission_pressure } );
      ( "desynced oid=C0 reason=100% @. done",
        Session_desynced { oid = o; reason = "100% @.\ndone" } );
    ]

let () =
  Alcotest.run "service"
    [
      ( "verdicts",
        [
          t "sequential fast path commits" test_sequential_commits;
          t "violation latches" test_sequential_violation_latches;
          t "concurrent window accepted" test_concurrent_window_accepted;
          t "concurrent window rejected" test_concurrent_window_rejected;
          t "concurrent window commits its final state"
            test_concurrent_window_commits_state;
          t "hostile thread ids" test_hostile_thread_ids;
        ] );
      ( "containment",
        [
          t "malformed frames contained" test_malformed_frames_are_contained;
          t "siblings unperturbed" test_malformed_frames_do_not_perturb_siblings;
          qtest ~count:300 "feed is total on fuzzed frame lists"
            QCheck.(list_of_size Gen.(int_bound 10) arb_hostile_line)
            prop_feed_is_total;
        ] );
      ( "degradation",
        [
          t "overload degrades within budget"
            test_overload_degrades_and_stays_in_budget;
          t "ladder recovers after cooldown" test_ladder_recovers_after_cooldown;
          t "sampled defers concurrent windows"
            test_sampled_defers_concurrent_windows;
        ] );
      ( "bounded windows",
        [
          t "overflow desyncs after a final verdict"
            test_overflow_desyncs_after_final_verdict;
          t "overflow still catches violations"
            test_overflow_still_catches_violations;
          t "pending cap rejects stuck streams"
            test_pending_cap_rejects_stuck_streams;
        ] );
      ( "eviction",
        [
          t "idle eviction, conservative readmission"
            test_idle_eviction_and_conservative_readmission;
          t "admission cap with pressure shedding"
            test_admission_cap_and_pressure_shedding;
        ] );
      ( "snapshot",
        [
          t "latched violations survive restore"
            test_snapshot_restore_preserves_latched_violations;
          t "snapshot stable, restore strict"
            test_snapshot_is_stable_and_restore_is_strict;
          t "v2 roundtrip is exact" test_v2_roundtrip_is_exact;
          t "ladder survives restore" test_restore_preserves_degradation_ladder;
          t "sampled level survives restore" test_restore_preserves_sampled_level;
          t "v1 still restores conservatively"
            test_v1_snapshot_still_restores_conservatively;
          t "no-resume spec falls back desynced"
            test_restore_without_resume_parser_falls_back;
          qtest ~count:300 "restore is total on mutated snapshots"
            arb_mutated_snapshot prop_restore_is_total;
        ] );
      ( "determinism",
        [
          t "byte-deterministic transcripts" test_feed_is_byte_deterministic;
          t "print_event is the Format printer" test_print_event_is_format;
          qtest ~count:1000 "print_event prints the bytes of Format" arb_event
            (fun e -> String.equal (Proto.print_event e) (format_event e));
        ] );
    ]
