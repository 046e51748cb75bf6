(* Tests for the source-DPOR engine and the bounded strategies:
   vector-clock dependency on hand-built races, race reporting on witness
   schedules, verdict agreement with the unpruned engine on every standard
   scenario, bug-finding under the bounds, bounded sweeps against the
   unbounded replay oracle, honest [bounded]/[bound_hits] reporting, and
   strategy parsing. *)

open Cal
open Conc
open Conc.Prog.Infix
open Test_support
module S = Workloads.Scenarios
module O = Verify.Obligations

let t name f = Alcotest.test_case name `Quick f

(* ----------------------------------------------------- Deps unit tests -- *)

let eff ~thread ?(reads = []) ?(writes = []) () =
  Deps.effect_of ~thread ~label:"step"
    ~recorded:(Some (List.sort compare reads, List.sort compare writes))

let test_conflicts () =
  let w_x = eff ~thread:0 ~writes:[ "x" ] () in
  let r_x = eff ~thread:1 ~reads:[ "x" ] () in
  let w_y = eff ~thread:1 ~writes:[ "y" ] () in
  let yield = Deps.effect_of ~thread:1 ~label:"yield" ~recorded:None in
  let opaque = Deps.effect_of ~thread:1 ~label:"mystery" ~recorded:None in
  let labelled = Deps.effect_of ~thread:1 ~label:"cas@x" ~recorded:None in
  check_bool "write/read same location conflicts" true (Deps.conflicts w_x r_x);
  check_bool "write/write distinct locations commute" false
    (Deps.conflicts w_x w_y);
  check_bool "read/read same location commutes" false
    (Deps.conflicts r_x (eff ~thread:0 ~reads:[ "x" ] ()));
  check_bool "yield is pure" false (Deps.conflicts w_x yield);
  check_bool "unknown label is opaque" true (Deps.conflicts w_x opaque);
  check_bool "opaque vs pure commutes" false (Deps.conflicts yield opaque);
  (* the "…@loc" heuristic keys on the "@loc" suffix: two labelled steps on
     the same suffix conflict, different suffixes commute *)
  check_bool "label fallback reads+writes its @loc" true
    (Deps.conflicts labelled
       (Deps.effect_of ~thread:0 ~label:"read@x" ~recorded:None));
  check_bool "label fallback is per-location" false
    (Deps.conflicts labelled
       (Deps.effect_of ~thread:0 ~label:"read@y" ~recorded:None));
  check_bool "labelled step commutes with disjoint recorded write" false
    (Deps.conflicts labelled w_y);
  check_bool "dependent includes program order" true
    (Deps.dependent w_x (eff ~thread:0 ~writes:[ "z" ] ()))

(* The pinned 3-thread race: A writes x, B writes y, C reads x then y. The
   vector clocks must report exactly (A, C-read-x) and (B, C-read-y) —
   A and B touch different locations and must not race. *)
let test_vector_clock_three_thread_race () =
  let tk = Deps.tracker () in
  let tk, s_a, r_a = Deps.observe tk (eff ~thread:0 ~writes:[ "x" ] ()) in
  let tk, s_b, r_b = Deps.observe tk (eff ~thread:1 ~writes:[ "y" ] ()) in
  let tk, s_cx, r_cx = Deps.observe tk (eff ~thread:2 ~reads:[ "x" ] ()) in
  let _tk, s_cy, r_cy = Deps.observe tk (eff ~thread:2 ~reads:[ "y" ] ()) in
  Alcotest.(check int) "A races with nothing" 0 (List.length r_a);
  Alcotest.(check int) "B races with nothing (disjoint loc)" 0
    (List.length r_b);
  (match r_cx with
  | [ earlier ] ->
      Alcotest.(check int) "C's x-read races with A" s_a.Deps.st_index
        earlier.Deps.st_index
  | l -> Alcotest.failf "C's x-read: %d races (want 1)" (List.length l));
  (match r_cy with
  | [ earlier ] ->
      Alcotest.(check int) "C's y-read races with B" s_b.Deps.st_index
        earlier.Deps.st_index
  | l -> Alcotest.failf "C's y-read: %d races (want 1)" (List.length l));
  (* the race edge orders the pair for the rest of the path *)
  check_bool "A happens-before C's x-read after the race" true
    (Deps.happens_before ~earlier:s_a s_cx);
  check_bool "A and B stay unordered" false
    (Deps.happens_before ~earlier:s_a s_b);
  check_bool "program order: C's reads are ordered" true
    (Deps.happens_before ~earlier:s_cx s_cy)

(* ------------------------------------------- race-annotated witnesses -- *)

let race_setup ctx =
  let x = Cell.make ctx ~loc:"x" 0 in
  let y = Cell.make ctx ~loc:"y" 0 in
  let a =
    let* () = Cell.write x 1 in
    Prog.return (Value.int 0)
  in
  let b =
    let* () = Cell.write y 1 in
    Prog.return (Value.int 0)
  in
  let c =
    let* vx = Cell.read x in
    let* vy = Cell.read y in
    Prog.return (Value.int (vx + vy))
  in
  { Runner.threads = [| a; b; c |]; observe = None; on_label = None }

(* races_of replays a schedule through the same analysis: on the sequential
   schedule of the 3-thread client it must name the (A,C) and (B,C) pairs
   with their locations, and no (A,B) pair. *)
let test_races_of_schedule () =
  let first = ref None in
  let (_ : Explore.stats) =
    Explore.exhaustive ~setup:race_setup ~fuel:12 ~max_runs:1
      ~f:(fun (o : Runner.outcome) ->
        if !first = None then first := Some o.Runner.schedule)
      ()
  in
  let schedule =
    match !first with
    | Some s -> s
    | None -> Alcotest.fail "no run delivered"
  in
  let races = Explore.races_of ~target:(Runner.Program race_setup) schedule in
  let pair (r : Witness.race) =
    ((min r.r_thread_a r.r_thread_b, max r.r_thread_a r.r_thread_b), r.r_loc)
  in
  let pairs = List.map pair races in
  check_bool "x race between threads 0 and 2" true
    (List.mem ((0, 2), "x") pairs);
  check_bool "y race between threads 1 and 2" true
    (List.mem ((1, 2), "y") pairs);
  check_bool "no race between the disjoint writers" true
    (List.for_all (fun ((a, b), _) -> not (a = 0 && b = 1)) pairs);
  (* the renderer smoke: every pair prints as tA#i ~ tB#j @ loc *)
  let rendered = Fmt.str "%a" Witness.pp_races races in
  check_bool "pp_races names a location" true
    (String.length rendered > 0
    && races <> []
    && String.contains rendered '@')

let test_pp_races_empty () =
  Alcotest.(check string)
    "empty race list" "races: none detected"
    (Fmt.str "%a" Witness.pp_races [])

(* ------------------------------------------------- strategy selection -- *)

let test_strategy_parsing () =
  let cases =
    [
      ("dfs", Some Explore.Dfs);
      ("dpor", Some Explore.Dpor);
      ("DPOR", Some Explore.Dpor);
      ("preemption:2", Some (Explore.Preemption_bounded { bound = 2 }));
      ("preempt:0", Some (Explore.Preemption_bounded { bound = 0 }));
      ("delay:3", Some (Explore.Delay_bounded { bound = 3 }));
      ("delay:-1", None);
      ("delay:", None);
      ("bogus", None);
    ]
  in
  List.iter
    (fun (s, expect) ->
      check_bool (Fmt.str "parse %S" s) true
        (Explore.strategy_of_string s = expect))
    cases;
  List.iter
    (fun st ->
      check_bool
        (Fmt.str "roundtrip %s" (Explore.strategy_to_string st))
        true
        (Explore.strategy_of_string (Explore.strategy_to_string st) = Some st))
    [
      Explore.Dfs;
      Explore.Dpor;
      Explore.Preemption_bounded { bound = 2 };
      Explore.Delay_bounded { bound = 1 };
    ]

(* ------------------------------------ agreement with the full engine --- *)

(* Scenario fuels trimmed where the unbounded DPOR space would make the
   cross-check slow; the injected bugs all surface well within these. *)
let agreement_cases () =
  [
    (S.exchanger_pair (), 12);
    (S.treiber_push_pop (), 10);
    (S.counter_incrs ~n:1, 12);
    (S.register_write_read (), 10);
    (S.faulty_counter (), 10);
    (S.faulty_stack (), 10);
    (S.faulty_exchanger (), 10);
    (S.faulty_elim_queue (), 10);
  ]

(* DPOR is a complete reduction: the full-obligation verdict must agree
   with the unpruned DFS on every scenario, and a rejection's witness
   schedule must replay to a failing outcome. *)
let test_dpor_agrees_with_dfs () =
  List.iter
    (fun ((s : S.t), fuel) ->
      let dfs =
        O.check_object ~strategy:Explore.Dfs ~setup:s.setup ~spec:s.spec
          ~view:s.view ~fuel ()
      in
      let dpor =
        O.check_object ~strategy:Explore.Dpor ~setup:s.setup ~spec:s.spec
          ~view:s.view ~fuel ()
      in
      check_bool
        (Fmt.str "%s: dpor verdict = dfs verdict" s.name)
        (O.ok dfs) (O.ok dpor);
      check_bool
        (Fmt.str "%s: dpor explores no more runs than dfs" s.name)
        true (dpor.O.runs <= dfs.O.runs);
      (match dpor.O.exploration with
      | Some e when not (O.ok dpor) ->
          check_bool
            (Fmt.str "%s: rejecting dpor run saw races" s.name)
            true
            (e.Explore.races_found > 0 || e.Explore.backtrack_points >= 0)
      | _ -> ());
      match (O.ok dpor, dpor.O.problems) with
      | false, (p : O.problem) :: _ ->
          (* the witness replays to a genuinely failing outcome *)
          let o, _ = Runner.replay ~setup:s.setup p.O.schedule in
          check_bool
            (Fmt.str "%s: dpor witness replays to a violation" s.name)
            true
            (Result.is_error (O.check_outcome ~spec:s.spec ~view:s.view o))
      | _ -> ())
    (agreement_cases ())

(* The bounded strategies are underapproximations: they may never reject an
   accepting space, and at delay bound <= 2 they find every injected bug
   (the B18 claim, pinned here at test fuel). *)
let test_bounded_strategies_verdicts () =
  List.iter
    (fun ((s : S.t), fuel) ->
      let dfs_ok =
        O.ok
          (O.check_object ~strategy:Explore.Dfs ~setup:s.setup ~spec:s.spec
             ~view:s.view ~fuel ())
      in
      List.iter
        (fun strategy ->
          let r =
            O.check_object ~strategy ~setup:s.setup ~spec:s.spec ~view:s.view
              ~fuel ()
          in
          if dfs_ok then
            check_bool
              (Fmt.str "%s: %s accepts an accepting space" s.name
                 (Explore.strategy_to_string strategy))
              true (O.ok r)
          else
            check_bool
              (Fmt.str "%s: %s finds the violation" s.name
                 (Explore.strategy_to_string strategy))
              false (O.ok r))
        [
          Explore.Preemption_bounded { bound = 2 };
          Explore.Delay_bounded { bound = 2 };
        ])
    (agreement_cases ())

(* ------------------------------------------------- bounded sweeps ---- *)

(* the lost-update client: two read-increment-write threads over a tracked
   cell — the canonical DPOR smoke (it must NOT be pruned away) *)
let lost_update_setup ctx =
  let c = Cell.make ctx ~loc:"c" 0 in
  let th =
    let* v = Cell.read c in
    let* () = Cell.write c (v + 1) in
    Prog.return (Value.int v)
  in
  { Runner.threads = [| th; th |]; observe = None; on_label = None }

let test_dpor_keeps_lost_update () =
  let lost = ref false in
  let stats =
    Explore.exhaustive ~strategy:Explore.Dpor ~setup:lost_update_setup ~fuel:8
      ~f:(fun (o : Runner.outcome) ->
        match (o.Runner.results.(0), o.Runner.results.(1)) with
        | Some a, Some b ->
            if Value.equal a (Value.int 0) && Value.equal b (Value.int 0) then
              lost := true
        | _ -> ())
      ()
  in
  check_bool "both threads can read 0 (lost update survives reduction)" true
    !lost;
  check_bool "the run set is reduced but nonempty" true (stats.Explore.runs >= 2);
  check_bool "races were found" true (stats.Explore.races_found > 0);
  check_bool "dpor stats are not bounded" false stats.Explore.bounded

(* The cost of a whole schedule, recomputed here by replaying it step by
   step: a preemption is a switch away from a thread that could still run;
   a delay is any choice other than the default thread — the last thread
   while it is enabled, else the first enabled thread. *)
let schedule_cost ~delay ~setup schedule =
  let e = Runner.start ~setup () in
  let cost, _ =
    List.fold_left
      (fun (cost, last) (d : Runner.decision) ->
        let frontier = Runner.frontier e in
        let enabled t =
          List.exists (fun (x : Runner.decision) -> x.thread = t) frontier
        in
        let default =
          match last with
          | Some t when enabled t -> Some t
          | _ when delay -> Some (List.hd frontier).Runner.thread
          | _ -> None
        in
        ignore (Runner.step e d);
        let step = match default with Some t when t <> d.thread -> 1 | _ -> 0 in
        (cost + step, Some d.thread))
      (0, None) schedule
  in
  cost

let schedules_of sweep =
  let acc = ref [] in
  let stats =
    sweep (fun (o : Runner.outcome) -> acc := o.Runner.schedule :: !acc)
  in
  (stats, List.rev !acc)

(* A bounded sweep delivers exactly the unbounded oracle's schedules whose
   cost is within the bound, in the oracle's order; an uncut bound is the
   whole DFS and says so ([bounded = false], no hits), and delay bound 0 is
   the single default run. *)
let test_bounded_matches_oracle () =
  let cases =
    [
      ("lost-update", lost_update_setup, 8);
      (let s = S.exchanger_pair () in (s.name, s.setup, 10));
      (let s = S.treiber_push_pop () in (s.name, s.setup, 10));
      (let s = S.sync_queue_pair () in (s.name, s.setup, 10));
      (let s = S.faulty_stack () in (s.name, s.setup, 10));
    ]
  in
  List.iter
    (fun (name, setup, fuel) ->
      let _, oracle =
        schedules_of (fun f -> Explore.exhaustive_via_replay ~setup ~fuel ~f ())
      in
      List.iter
        (fun (delay, strategy_of) ->
          let costs =
            List.map (fun s -> (s, schedule_cost ~delay ~setup s)) oracle
          in
          let max_cost = List.fold_left (fun m (_, c) -> max m c) 0 costs in
          List.iter
            (fun bound ->
              let strategy = strategy_of bound in
              let label =
                Fmt.str "%s %s" name (Explore.strategy_to_string strategy)
              in
              let stats, got =
                schedules_of (fun f ->
                    Explore.exhaustive ~strategy ~setup ~fuel ~f ())
              in
              (* [?preemption_bound:b] is shorthand for the same sweep *)
              (if not delay then
                 let short, short_got =
                   schedules_of (fun f ->
                       Explore.exhaustive ~preemption_bound:bound ~setup ~fuel
                         ~f ())
                 in
                 check_bool (label ^ ": ?preemption_bound, same schedules")
                   true (short_got = got);
                 Alcotest.(check int)
                   (label ^ ": ?preemption_bound, same runs")
                   stats.Explore.runs short.Explore.runs;
                 Alcotest.(check int)
                   (label ^ ": ?preemption_bound, same bound hits")
                   stats.Explore.bound_hits short.Explore.bound_hits);
              let want =
                List.filter_map
                  (fun (s, c) -> if c <= bound then Some s else None)
                  costs
              in
              check_bool (label ^ ": the oracle's schedules within the bound")
                true (got = want);
              check_bool (label ^ ": bounded iff some schedule was cut")
                (List.length want < List.length oracle)
                stats.Explore.bounded;
              check_bool (label ^ ": hits iff bounded") stats.Explore.bounded
                (stats.Explore.bound_hits > 0))
            [ 0; 1; 2; max_cost ])
        [
          (false, fun bound -> Explore.Preemption_bounded { bound });
          (true, fun bound -> Explore.Delay_bounded { bound });
        ])
    cases;
  let fuel = 8 in
  let dfs = Explore.exhaustive ~setup:lost_update_setup ~fuel ~f:ignore () in
  List.iter
    (fun strategy ->
      let st =
        Explore.exhaustive ~strategy ~setup:lost_update_setup ~fuel ~f:ignore
          ()
      in
      let name = Explore.strategy_to_string strategy in
      Alcotest.(check int)
        (name ^ ": an uncut bound delivers the DFS run set")
        dfs.Explore.runs st.Explore.runs;
      check_bool (name ^ ": an uncut bound is not 'bounded'") false
        st.Explore.bounded;
      Alcotest.(check int) (name ^ ": no bound hits") 0 st.Explore.bound_hits)
    [
      Explore.Preemption_bounded { bound = 64 };
      Explore.Delay_bounded { bound = 64 };
    ];
  let cut =
    Explore.exhaustive
      ~strategy:(Explore.Delay_bounded { bound = 0 })
      ~setup:lost_update_setup ~fuel ~f:ignore ()
  in
  check_bool "a cutting bound reports bounded=true" true cut.Explore.bounded;
  check_bool "a cutting bound counts its hits" true (cut.Explore.bound_hits > 0);
  Alcotest.(check int) "delay bound 0 is the single default run" 1
    cut.Explore.runs;
  check_bool "?preemption_bound with a non-Dfs strategy is rejected" true
    (match
       Explore.exhaustive ~strategy:Explore.Dpor ~preemption_bound:1
         ~setup:lost_update_setup ~fuel ~f:ignore ()
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* [?preemption_bound] is the same bounded sweep as [Preemption_bounded],
   and reports its cuts the same way through every entry point: the trio
   at its own fuel is cut by bound 4, and a bound of at least the fuel
   (here at a fuel small enough to enumerate) never bites. *)
let test_preemption_bound_is_honest () =
  let s = S.exchanger_trio () in
  let via_check_object ?(fuel = s.fuel) preemption_bound =
    match
      (O.check_object ~domains:1 ~setup:s.setup ~spec:s.spec ~view:s.view
         ~fuel ~preemption_bound ())
        .O.exploration
    with
    | Some e -> e
    | None -> Alcotest.fail "check_object reported no exploration stats"
  in
  let via_exhaustive ?(fuel = s.fuel) preemption_bound =
    Explore.exhaustive ~setup:s.setup ~fuel ~preemption_bound ~f:ignore ()
  in
  let small = 8 in
  List.iter
    (fun (entry, (e : Explore.stats)) ->
      check_bool (entry ^ ": bound 4 cuts the trio") true e.Explore.bounded;
      Alcotest.(check int)
        (entry ^ ": bound 4 hits")
        118_410 e.Explore.bound_hits)
    [
      ("check_object", via_check_object 4); ("exhaustive", via_exhaustive 4);
    ];
  List.iter
    (fun (entry, (e : Explore.stats)) ->
      check_bool (entry ^ ": bound = fuel is exhaustive") false
        e.Explore.bounded;
      Alcotest.(check int) (entry ^ ": bound = fuel has no hits") 0
        e.Explore.bound_hits)
    [
      ("check_object", via_check_object ~fuel:small small);
      ("exhaustive", via_exhaustive ~fuel:small small);
    ]

(* CAL_EXPLORE_STRATEGY drives the obligation checks; invalid values fall
   back to the DFS. *)
let test_env_strategy () =
  let s = S.exchanger_pair () in
  let ambient =
    Option.value ~default:"" (Sys.getenv_opt "CAL_EXPLORE_STRATEGY")
  in
  let with_env v f =
    Unix.putenv "CAL_EXPLORE_STRATEGY" v;
    Fun.protect ~finally:(fun () -> Unix.putenv "CAL_EXPLORE_STRATEGY" ambient) f
  in
  let dfs_runs =
    with_env "dfs" (fun () ->
        (O.check_black_box ~setup:s.setup ~spec:s.spec ~fuel:10 ()).O.runs)
  in
  with_env "dpor" (fun () ->
      let r = O.check_black_box ~setup:s.setup ~spec:s.spec ~fuel:10 () in
      check_bool "env dpor accepts" true (O.ok r);
      check_bool "env dpor reduces the run count" true (r.O.runs < dfs_runs));
  with_env "no-such-strategy" (fun () ->
      let r = O.check_black_box ~setup:s.setup ~spec:s.spec ~fuel:10 () in
      Alcotest.(check int) "invalid env falls back to dfs" dfs_runs r.O.runs)

let () =
  Alcotest.run "dpor"
    [
      ( "deps",
        [
          t "effect conflicts" test_conflicts;
          t "vector clocks pin the 3-thread race"
            test_vector_clock_three_thread_race;
        ] );
      ( "witness",
        [
          t "races_of annotates a schedule" test_races_of_schedule;
          t "pp_races renders the empty list" test_pp_races_empty;
        ] );
      ( "strategy",
        [
          t "parsing and roundtrip" test_strategy_parsing;
          t "CAL_EXPLORE_STRATEGY selects the engine" test_env_strategy;
        ] );
      ( "agreement",
        [
          t "dpor agrees with dfs on every scenario" test_dpor_agrees_with_dfs;
          t "bounded strategies: sound accepts, bugs within bound 2"
            test_bounded_strategies_verdicts;
          t "dpor keeps the lost update" test_dpor_keeps_lost_update;
        ] );
      ( "bounded",
        [
          t "sweeps equal the oracle's cheap runs" test_bounded_matches_oracle;
          t "preemption_bound reports its cuts"
            test_preemption_bound_is_honest;
        ] );
    ]
