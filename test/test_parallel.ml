(* Tests for multicore parallel exploration and the shared verdict cache:
   every report — verdicts, witnesses, run counts — must be byte-identical
   whatever the worker-domain count, the cache must change cost counters
   only, and the first-failure witness of check_all must be the sequential
   one even when workers race to it. *)

open Cal
open Conc
open Test_support
module S = Workloads.Scenarios
module O = Verify.Obligations

(* The engine caps worker domains at [Domain.recommended_domain_count] —
   oversubscribing one hardware thread only adds GC synchronization. These
   tests are about cross-domain determinism, so they opt out: with the
   override, [~domains:4] really spawns four workers even on a one-core CI
   box, and the splitting/stealing/cache-sharing paths genuinely run. *)
let () = Unix.putenv "CAL_EXPLORE_OVERSUBSCRIBE" "1"

let t name f = Alcotest.test_case name `Quick f
let domain_counts = [ 1; 2; 4 ]

(* Everything in a report that must be domain-count-invariant. Exploration
   cost counters (nodes, steals, cache hits) are excluded: two workers can
   benignly race to compute the same cache miss. *)
let fingerprint (r : O.report) =
  ( r.runs,
    r.complete_runs,
    r.truncated,
    List.map (fun (p : O.problem) -> (p.schedule, p.plan, p.message)) r.problems
  )

let check_invariant name reports =
  match reports with
  | [] -> ()
  | (d0, r0) :: rest ->
      List.iter
        (fun (d, r) ->
          check_bool
            (Fmt.str "%s: report at domains=%d matches domains=%d" name d d0)
            true
            (fingerprint r = fingerprint r0))
        rest

(* Both obligations and the black-box check, on every deliberately faulty
   scenario: rejection-heavy searches with nontrivial witness lists are
   where a merge bug would show. *)
let test_faulty_scenarios_domain_invariant () =
  List.iter
    (fun (s : S.t) ->
      let object_reports =
        List.map
          (fun domains ->
            ( domains,
              O.check (trace_config ~strategy:(own_strategy s) ~domains s) ))
          domain_counts
      in
      check_invariant (s.name ^ " (trace)") object_reports;
      let black_box_reports =
        List.map
          (fun domains ->
            ( domains,
              O.check (black_box_config ~strategy:(own_strategy s) ~domains s)
            ))
          domain_counts
      in
      check_invariant (s.name ^ " (black box)") black_box_reports;
      List.iter
        (fun (d, r) ->
          check_bool (Fmt.str "%s rejected at domains=%d" s.name d) false
            (O.ok r))
        black_box_reports)
    [
      S.faulty_counter ();
      S.faulty_stack ();
      S.faulty_exchanger ();
      S.faulty_elim_stack ();
      S.faulty_elim_queue ();
    ]

(* Accepting scenarios: same invariance, and the reports must accept. *)
let test_positive_scenarios_domain_invariant () =
  List.iter
    (fun ((s : S.t), fuel) ->
      let reports =
        List.map
          (fun domains ->
            ( domains,
              O.check
                {
                  (black_box_config ~strategy:(own_strategy s) ~domains s) with
                  fuel;
                } ))
          domain_counts
      in
      check_invariant s.name reports;
      List.iter
        (fun (d, r) ->
          check_bool (Fmt.str "%s accepted at domains=%d" s.name d) true
            (O.ok r))
        reports)
    [ (S.exchanger_pair (), 12); (S.elim_stack_push_pop ~k:1 (), 10) ]

(* The verdict cache may only change cost counters, never the report; it
   must actually hit on a workload with canonical collisions; and with
   several domains the one table is shared — hits still accrue. *)
let test_cache_transparent_and_effective () =
  let s = S.elim_stack_push_pop ~k:1 () in
  let run ~domains ~cache =
    O.check
      {
        (black_box_config ~strategy:(own_strategy s) ~domains ~cache s) with
        fuel = 10;
      }
  in
  let off = run ~domains:1 ~cache:false in
  let hits (r : O.report) =
    match r.exploration with
    | Some e -> e.Explore.cache_hits
    | None -> 0
  in
  Alcotest.(check int) "cache off: 0 hits" 0 (hits off);
  List.iter
    (fun domains ->
      let on = run ~domains ~cache:true in
      check_bool
        (Fmt.str "cached report matches uncached at domains=%d" domains)
        true
        (fingerprint on = fingerprint off);
      check_bool (Fmt.str "cache hits at domains=%d" domains) true
        (hits on > 0))
    domain_counts

(* check_all short-circuits on the first failing outcome; with workers
   racing, the witness must still be the sequential engine's (the
   lowest-bound failure wins the merge). *)
let test_check_all_witness_deterministic () =
  let s = S.faulty_stack () in
  let spec = s.spec in
  let p (o : Runner.outcome) = Cal_checker.is_cal ~spec o.history in
  let witness domains =
    match
      Explore.check_all ~domains ~setup:s.setup ~fuel:s.fuel
        ?preemption_bound:s.bound ~p ()
    with
    | Ok _ -> Alcotest.failf "faulty stack accepted at domains=%d" domains
    | Error (o, _) -> (o.Runner.schedule, o.Runner.history)
  in
  let sched1, hist1 = witness 1 in
  List.iter
    (fun domains ->
      let sched, hist = witness domains in
      check_bool
        (Fmt.str "witness schedule at domains=%d is the sequential one" domains)
        true (sched = sched1);
      Alcotest.check history
        (Fmt.str "witness history at domains=%d" domains)
        hist1 hist)
    [ 2; 4 ]

(* Crash-free durable exploration parallelizes (a single plan's schedule
   tree); the delivered run set must be the sequential one. Callback order
   is nondeterministic across workers, so compare as sorted sets. *)
let test_durable_single_plan_domain_invariant () =
  let d = S.stack_crash_recovery () in
  let runs domains =
    let schedules = ref [] in
    let mu = Mutex.create () in
    let stats =
      Explore.exhaustive_durable ~plan:[] ~domains ~setup:d.d_setup
        ~fuel:d.d_fuel
        ~f:(fun (o : Runner.outcome) ->
          Mutex.lock mu;
          schedules := o.Runner.schedule :: !schedules;
          Mutex.unlock mu)
        ()
    in
    (stats.Explore.runs, List.sort compare !schedules)
  in
  let runs1, schedules1 = runs 1 in
  check_bool "sequential durable exploration is nonempty" true (runs1 > 0);
  List.iter
    (fun domains ->
      let r, s = runs domains in
      Alcotest.(check int)
        (Fmt.str "durable runs at domains=%d" domains)
        runs1 r;
      check_bool
        (Fmt.str "durable schedule set at domains=%d" domains)
        true (s = schedules1))
    [ 2; 4 ]

(* The engine must actually distribute work: with several (oversubscribed)
   workers on an imbalanced tree, donated chunks get claimed — and the
   report stays byte-identical to the 1-domain sweep. *)
let test_stealing_happens () =
  let s = S.faulty_elim_stack ~pushers:1 ~poppers:2 () in
  let run domains =
    O.check
      { (black_box_config ~strategy:(own_strategy s) ~domains s) with fuel = 8 }
  in
  let seq = run 1 in
  List.iter
    (fun domains ->
      let par = run domains in
      check_bool
        (Fmt.str "stolen report matches sequential at domains=%d" domains)
        true
        (fingerprint par = fingerprint seq);
      match par.exploration with
      | None -> Alcotest.fail "exhaustive check lost its exploration stats"
      | Some e ->
          check_bool
            (Fmt.str "tasks_stolen > 0 at domains=%d" domains)
            true
            (e.Explore.tasks_stolen > 0))
    [ 2; 4 ]

(* The shared verdict cache grows a per-domain front table when unbounded;
   a rejection-heavy multi-domain sweep must still produce the sequential
   report, with the front-table hits accounted for. *)
let test_cache_per_domain_deterministic () =
  let s = S.faulty_exchanger () in
  let run ~domains ~cache =
    O.check (black_box_config ~strategy:(own_strategy s) ~domains ~cache s)
  in
  let off = run ~domains:1 ~cache:false in
  List.iter
    (fun domains ->
      let on = run ~domains ~cache:true in
      check_bool
        (Fmt.str "cached faulty report matches uncached at domains=%d" domains)
        true
        (fingerprint on = fingerprint off);
      match on.exploration with
      | None -> Alcotest.fail "exhaustive check lost its exploration stats"
      | Some e ->
          check_bool
            (Fmt.str "cache hits accrue at domains=%d" domains)
            true
            (e.Explore.cache_hits > 0))
    domain_counts

(* A first-failure search that aborts its tasks must still report the
   failing task's real partial counters — the old engine returned
   [{ empty_stats with runs = 1 }] for it, under-reporting nodes and
   max_steps whenever every other task was abandoned. *)
let test_first_failure_partial_stats () =
  let s = S.faulty_counter () in
  let p (o : Runner.outcome) = Cal_checker.is_cal ~spec:s.spec o.history in
  match
    Explore.check_all ~domains:4 ~setup:s.setup ~fuel:s.fuel
      ?preemption_bound:s.bound ~p ()
  with
  | Ok _ -> Alcotest.fail "faulty counter accepted"
  | Error (o, st) ->
      let depth = List.length o.Runner.schedule in
      check_bool "witness has steps" true (depth > 0);
      check_bool "failing task kept its node count" true
        (st.Explore.nodes > depth);
      check_bool "failing task kept its max_steps" true
        (st.Explore.max_steps >= o.Runner.steps)

(* With the oversubscription override, requested domains really spawn;
   without it, the hardware cap is applied and the report says so. *)
let test_domains_used () =
  let s = S.exchanger_trio () in
  let run () =
    O.check
      {
        (black_box_config ~strategy:(own_strategy s) ~domains:4 s) with
        fuel = 8;
      }
  in
  (match (run ()).exploration with
  | None -> Alcotest.fail "exhaustive check lost its exploration stats"
  | Some e ->
      Alcotest.(check int) "domains_used" 4 e.Explore.domains_used;
      Alcotest.(check int) "domains_requested" 4 e.Explore.domains_requested);
  Unix.putenv "CAL_EXPLORE_OVERSUBSCRIBE" "";
  let capped = min 4 (Domain.recommended_domain_count ()) in
  (match (run ()).exploration with
  | None -> Alcotest.fail "exhaustive check lost its exploration stats"
  | Some e ->
      Alcotest.(check int) "capped domains_used" capped e.Explore.domains_used;
      Alcotest.(check int)
        "capped domains_requested" 4 e.Explore.domains_requested);
  Unix.putenv "CAL_EXPLORE_OVERSUBSCRIBE" "1"

(* The capping policy itself: identity at <= 1 worker, capped at the
   hardware parallelism unless the override is set. *)
let test_effective_domains () =
  Alcotest.(check int) "1 stays 1" 1 (Par_explore.effective_domains 1);
  Alcotest.(check int) "0 normalizes to 1" 1 (Par_explore.effective_domains 0);
  Alcotest.(check int) "override lifts the cap" 64
    (Par_explore.effective_domains 64);
  Unix.putenv "CAL_EXPLORE_OVERSUBSCRIBE" "";
  let cap = Domain.recommended_domain_count () in
  Alcotest.(check int) "capped at recommended_domain_count" (min 64 cap)
    (Par_explore.effective_domains 64);
  Unix.putenv "CAL_EXPLORE_OVERSUBSCRIBE" "1"

(* DPOR composes with the parallel front by root-splitting: one rank-ordered
   task per root decision, applied identically at domains=1, so the whole
   report — verdicts, witnesses, run counts — must be byte-identical across
   domain counts for faulty and accepting scenarios alike. *)
let test_dpor_domain_invariant () =
  List.iter
    (fun ((s : S.t), fuel) ->
      let reports =
        List.map
          (fun domains ->
            ( domains,
              O.check
                {
                  (black_box_config ~strategy:(Explicit Dpor) ~domains s) with
                  fuel;
                } ))
          domain_counts
      in
      check_invariant (s.name ^ " (dpor)") reports;
      List.iter
        (fun (d, r) ->
          check_bool
            (Fmt.str "%s: dpor verdict at domains=%d" s.name d)
            s.expect_ok (O.ok r))
        reports)
    [
      (S.exchanger_pair (), 12);
      (S.treiber_push_pop (), 10);
      (S.faulty_counter (), 10);
      (S.faulty_exchanger (), 10);
    ]

(* The bounded strategies run the work-stealing DFS with a schedule bound;
   their (honestly bounded) run sets must be domain-count-invariant, and so
   must the cut count: each cut edge is counted by the one task owning its
   node, whichever worker runs it. *)
let test_bounded_domain_invariant () =
  let s = S.faulty_stack () in
  List.iter
    (fun strategy ->
      let reports =
        List.map
          (fun domains ->
            ( domains,
              O.check
                {
                  (black_box_config ~strategy:(Explicit strategy) ~domains s) with
                  fuel = 12;
                } ))
          domain_counts
      in
      check_invariant
        (Fmt.str "%s (%s)" s.name (Explore.strategy_to_string strategy))
        reports;
      let cuts (r : O.report) =
        Option.map
          (fun (e : Explore.stats) -> (e.bounded, e.bound_hits))
          r.exploration
      in
      List.iter
        (fun (d, r) ->
          check_bool
            (Fmt.str "%s: %s rejects at domains=%d" s.name
               (Explore.strategy_to_string strategy) d)
            false (O.ok r);
          check_bool
            (Fmt.str "%s: %s cuts the same edges at domains=%d" s.name
               (Explore.strategy_to_string strategy) d)
            true
            (cuts r = cuts (snd (List.hd reports))))
        reports)
    [
      Explore.Preemption_bounded { bound = 2 };
      Explore.Delay_bounded { bound = 2 };
    ]

(* A report names the config it ran with, defaults resolved: the
   strategy (the environment's when the config's is a default, the
   config's own when explicit), the domain count and the cache setting. *)
let test_report_names_resolved_config () =
  let s = S.exchanger_pair () in
  let vars = [ "CAL_EXPLORE_STRATEGY"; "CAL_EXPLORE_DOMAINS"; "CAL_VERDICT_CACHE" ] in
  let ambient = List.map (fun v -> Option.value ~default:"" (Sys.getenv_opt v)) vars in
  let with_env values f =
    List.iter2 Unix.putenv vars values;
    Fun.protect ~finally:(fun () -> List.iter2 Unix.putenv vars ambient) f
  in
  let printed ?strategy () =
    Fmt.str "%a" O.pp_report
      (O.check { (black_box_config ?strategy s) with fuel = 6 })
  in
  let has line needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length line && (String.sub line i n = needle || go (i + 1))
    in
    check_bool (Fmt.str "%S names %S" line needle) true (go 0)
  in
  with_env [ ""; "3"; "1" ] (fun () ->
      let line = printed () in
      List.iter (has line) [ "exhaustive dfs,"; "3 domains"; "cache on" ]);
  with_env [ "dpor"; ""; "" ] (fun () ->
      let line = printed () in
      List.iter (has line) [ "exhaustive dpor,"; "1 domain,"; "cache off" ];
      let line =
        printed ~strategy:(Explicit (Preemption_bounded { bound = 2 })) ()
      in
      has line "exhaustive preemption:2,")

(* The accumulator rewrite of the drop-subset enumerator must preserve the
   naive enumeration order exactly: it decides which completion witness
   the checker reports first. *)
let test_subsets_up_to_reference () =
  let rec reference k = function
    | [] -> [ [] ]
    | x :: rest ->
        let without = reference k rest in
        if k = 0 then without
        else List.map (fun s -> x :: s) (reference (k - 1) rest) @ without
  in
  let reference k xs = List.filter (( <> ) []) (reference k xs) in
  List.iter
    (fun (k, n) ->
      let xs = List.init n (fun i -> i) in
      check_bool
        (Fmt.str "subsets_up_to %d on %d elements matches the naive order" k n)
        true
        (Cal_checker.subsets_up_to k xs = reference k xs))
    [ (0, 3); (1, 4); (2, 5); (3, 3); (5, 5); (2, 0); (7, 3) ]

(* The search enumerates a group's elements over its member mask: the
   same subsets in the same order as [subsets_up_to] and the naive
   reference over the mask's bits read from the highest down. *)
let test_submasks_reference () =
  let rec reference k = function
    | [] -> [ [] ]
    | x :: rest ->
        let without = reference k rest in
        if k = 0 then without
        else List.map (fun s -> x :: s) (reference (k - 1) rest) @ without
  in
  let bits m = List.filter (fun i -> m land (1 lsl i) <> 0) (List.init 8 (fun i -> 7 - i)) in
  let mask = List.fold_left (fun m i -> m lor (1 lsl i)) 0 in
  for k = 1 to 4 do
    let differs f =
      List.filter
        (fun m -> Cal_checker.submasks_up_to k m <> List.map mask (f (bits m)))
        (List.init 256 Fun.id)
    in
    Alcotest.(check (list int))
      (Fmt.str "k = %d: masks whose order differs from subsets_up_to" k)
      [] (differs (Cal_checker.subsets_up_to k));
    Alcotest.(check (list int))
      (Fmt.str "k = %d: masks whose order differs from the naive one" k)
      []
      (differs (fun xs -> List.filter (( <> ) []) (reference k xs)))
  done

let () =
  Alcotest.run "parallel"
    [
      ( "parallel",
        [
          t "faulty scenarios: reports are domain-count-invariant"
            test_faulty_scenarios_domain_invariant;
          t "positive scenarios: reports are domain-count-invariant"
            test_positive_scenarios_domain_invariant;
          t "verdict cache is transparent and effective"
            test_cache_transparent_and_effective;
          t "check_all witness is deterministic across domains"
            test_check_all_witness_deterministic;
          t "durable single-plan exploration is domain-count-invariant"
            test_durable_single_plan_domain_invariant;
          t "work stealing actually happens on an imbalanced tree"
            test_stealing_happens;
          t "per-domain cache front is deterministic on faulty sweeps"
            test_cache_per_domain_deterministic;
          t "first-failure search keeps the failing task's partial stats"
            test_first_failure_partial_stats;
          t "requested domains spawn under the oversubscription override"
            test_domains_used;
          t "effective_domains capping policy" test_effective_domains;
          t "dpor reports are domain-count-invariant"
            test_dpor_domain_invariant;
          t "bounded-strategy reports are domain-count-invariant"
            test_bounded_domain_invariant;
          t "subsets_up_to matches the naive enumeration order"
            test_subsets_up_to_reference;
          t "submasks_up_to matches the subset enumeration order"
            test_submasks_reference;
          t "pp_report names the resolved config"
            test_report_names_resolved_config;
        ] );
    ]
