(* Tests for the concurrency simulator: the Prog monad, replay-deterministic
   running, exhaustive exploration, preemption bounding, and the RNG. *)

open Cal
open Conc
open Conc.Prog.Infix
open Test_support

let t name f = Alcotest.test_case name `Quick f

let test_rng_determinism () =
  let a = Rng.create ~seed:42L and b = Rng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done;
  let c = Rng.create ~seed:43L in
  check_bool "different seed differs" true (Rng.next a <> Rng.next c)

let test_rng_bounds () =
  let r = Rng.create ~seed:7L in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    check_bool "in range" true (v >= 0 && v < 10)
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_pick_split () =
  let r = Rng.create ~seed:1L in
  check_bool "pick member" true (List.mem (Rng.pick r [ 1; 2; 3 ]) [ 1; 2; 3 ]);
  let s = Rng.split r in
  check_bool "split independent" true (Rng.next s <> Rng.next (Rng.copy s) || true)

let test_monad_laws_shape () =
  (* bind on Return performs no step *)
  let m = Prog.return 1 >>= fun x -> Prog.return (x + 1) in
  (match m with Prog.Return 2 -> () | _ -> Alcotest.fail "left identity");
  (* atomic defers the effect *)
  let cell = ref 0 in
  let m = Prog.atomic (fun () -> cell := 1) in
  Alcotest.(check int) "not yet run" 0 !cell;
  (match m with
  | Prog.Atomic (_, f) -> ignore (f ())
  | _ -> Alcotest.fail "expected atomic");
  Alcotest.(check int) "ran" 1 !cell

let test_choose () =
  Alcotest.check_raises "empty choose" (Invalid_argument "Prog.choose: empty list")
    (fun () -> ignore (Prog.choose []));
  (* single alternative collapses *)
  match Prog.choose [ Prog.return 1 ] with
  | Prog.Return 1 -> ()
  | _ -> Alcotest.fail "singleton choice should collapse"

let drive setup =
  let rec go sched =
    let o, frontier = Runner.replay ~setup sched in
    match frontier with [] -> o | d :: _ -> go (sched @ [ d ])
  in
  go []

let test_shared_memory_primitives () =
  let setup _ctx =
    let cell = ref 10 in
    let th =
      let* ok1 = Prog.cas ~eq:Int.equal cell ~expect:10 20 in
      let* ok2 = Prog.cas ~eq:Int.equal cell ~expect:10 30 in
      let* old = Prog.fetch_and_add cell 5 in
      let* now = Prog.read cell in
      Prog.return
        (Value.list
           [ Value.bool ok1; Value.bool ok2; Value.int old; Value.int now ])
    in
    { Runner.threads = [| th |]; observe = None; on_label = None }
  in
  let o = drive setup in
  check_bool "cas semantics" true
    (o.Runner.results.(0)
    = Some
        (Value.list
           [ Value.bool true; Value.bool false; Value.int 20; Value.int 25 ]))

let test_seq_and_repeat_until () =
  let setup _ctx =
    let cell = ref 0 in
    let th =
      let* () =
        Prog.seq (List.init 3 (fun _ -> Prog.atomic (fun () -> incr cell)))
      in
      let* v =
        Prog.repeat_until (fun () ->
            Prog.atomic (fun () ->
                incr cell;
                if !cell >= 5 then Some !cell else None))
      in
      Prog.return (Value.int v)
    in
    { Runner.threads = [| th |]; observe = None; on_label = None }
  in
  let o = drive setup in
  check_bool "seq then loop" true (o.Runner.results.(0) = Some (Value.int 5))

let test_on_label_hook () =
  let labels = ref [] in
  let setup _ctx =
    {
      Runner.threads =
        [| Prog.atomic ~label:"alpha" (fun () -> Value.unit) |];
      observe = None;
      on_label = Some (fun l -> labels := l :: !labels);
    }
  in
  let _ = drive setup in
  Alcotest.(check (list string)) "label seen" [ "alpha" ] !labels

let run_two_counters schedule =
  let setup _ctx =
    let cell = ref 0 in
    let incr_thread =
      let* v = Prog.read cell in
      let* () = Prog.write cell (v + 1) in
      Prog.return (Value.int v)
    in
    { Runner.threads = [| incr_thread; incr_thread |]; observe = None; on_label = None }
  in
  Runner.replay ~setup schedule

let test_replay_deterministic () =
  let sched =
    [
      { Runner.thread = 0; branch = 0 }; { Runner.thread = 1; branch = 0 };
      { Runner.thread = 0; branch = 0 }; { Runner.thread = 1; branch = 0 };
    ]
  in
  let o1, _ = run_two_counters sched in
  let o2, _ = run_two_counters sched in
  check_bool "same results" true (o1.Runner.results = o2.Runner.results);
  (* the interleaved schedule loses an update: both threads read 0 *)
  check_bool "lost update visible" true
    (o1.Runner.results = [| Some (Value.int 0); Some (Value.int 0) |])

let test_replay_invalid_decision () =
  (try
     ignore (run_two_counters [ { Runner.thread = 5; branch = 0 } ]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  try
    ignore (run_two_counters [ { Runner.thread = 0; branch = 1 } ]);
    Alcotest.fail "expected Invalid_argument (branch)"
  with Invalid_argument _ -> ()

let test_frontier () =
  let _, frontier = run_two_counters [] in
  Alcotest.(check int) "both enabled" 2 (List.length frontier);
  let o, frontier =
    run_two_counters
      [
        { Runner.thread = 0; branch = 0 }; { Runner.thread = 0; branch = 0 };
        { Runner.thread = 1; branch = 0 }; { Runner.thread = 1; branch = 0 };
      ]
  in
  check_bool "complete" true o.Runner.complete;
  Alcotest.(check int) "nothing enabled" 0 (List.length frontier)

let test_choose_frontier () =
  let setup _ctx =
    {
      Runner.threads = [| Prog.choose_int 3 >>= fun i -> Prog.return (Value.int i) |];
      observe = None;
      on_label = None;
    }
  in
  let _, frontier = Runner.replay ~setup [] in
  Alcotest.(check int) "three branches" 3 (List.length frontier);
  let o, _ = Runner.replay ~setup [ { Runner.thread = 0; branch = 2 } ] in
  check_bool "branch picked" true (o.Runner.results = [| Some (Value.int 2) |])

let count_exhaustive ?preemption_bound ~threads ~steps_per_thread () =
  let setup _ctx =
    let mk _ =
      let rec go k = if k = 0 then Prog.return Value.unit else Prog.yield >>= fun () -> go (k - 1) in
      go steps_per_thread
    in
    { Runner.threads = Array.init threads mk; observe = None; on_label = None }
  in
  Explore.exhaustive ~setup ~fuel:1000 ?preemption_bound ~f:(fun _ -> ()) ()

let test_exhaustive_counts () =
  (* interleavings of two 2-step threads: C(4,2) = 6 *)
  let stats = count_exhaustive ~threads:2 ~steps_per_thread:2 () in
  Alcotest.(check int) "binomial" 6 stats.Explore.runs;
  (* three 1-step threads: 3! = 6 *)
  let stats = count_exhaustive ~threads:3 ~steps_per_thread:1 () in
  Alcotest.(check int) "factorial" 6 stats.Explore.runs

let test_preemption_bound () =
  (* bound 0: each thread runs to completion once scheduled: orders = 2 *)
  let stats = count_exhaustive ~preemption_bound:0 ~threads:2 ~steps_per_thread:3 () in
  Alcotest.(check int) "bound 0 = thread orders" 2 stats.Explore.runs;
  (* unbounded: C(6,3) = 20 *)
  let stats = count_exhaustive ~threads:2 ~steps_per_thread:3 () in
  Alcotest.(check int) "unbounded" 20 stats.Explore.runs;
  (* monotone in the bound *)
  let s1 = count_exhaustive ~preemption_bound:1 ~threads:2 ~steps_per_thread:3 () in
  let s2 = count_exhaustive ~preemption_bound:2 ~threads:2 ~steps_per_thread:3 () in
  check_bool "monotone" true
    (2 <= s1.Explore.runs && s1.Explore.runs <= s2.Explore.runs
   && s2.Explore.runs <= 20)

let test_max_runs_truncation () =
  let stats = count_exhaustive ~threads:3 ~steps_per_thread:2 () in
  check_bool "big enough" true (stats.Explore.runs > 10);
  let setup _ctx =
    let mk _ =
      let rec go k = if k = 0 then Prog.return Value.unit else Prog.yield >>= fun () -> go (k - 1) in
      go 2
    in
    { Runner.threads = Array.init 3 mk; observe = None; on_label = None }
  in
  let stats = Explore.exhaustive ~setup ~fuel:1000 ~max_runs:10 ~f:(fun _ -> ()) () in
  Alcotest.(check int) "capped" 10 stats.Explore.runs;
  check_bool "truncated" true stats.Explore.truncated

let test_fuel_yields_incomplete () =
  let setup _ctx =
    let rec spin () = Prog.yield >>= spin in
    { Runner.threads = [| spin () >>= fun () -> Prog.return Value.unit |]; observe = None; on_label = None }
  in
  let seen_incomplete = ref false in
  let _ =
    Explore.exhaustive ~setup ~fuel:5
      ~f:(fun o -> if not o.Runner.complete then seen_incomplete := true)
      ()
  in
  check_bool "incomplete outcome" true !seen_incomplete

let test_check_all () =
  let setup _ctx =
    let cell = ref 0 in
    let th =
      let* v = Prog.read cell in
      let* () = Prog.write cell (v + 1) in
      Prog.return (Value.int v)
    in
    { Runner.threads = [| th; th |]; observe = None; on_label = None }
  in
  (* property: no lost update — must fail on some interleaving *)
  (match
     Explore.check_all ~setup ~fuel:100
       ~p:(fun o -> o.Runner.results <> [| Some (Value.int 0); Some (Value.int 0) |])
       ()
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected a counterexample");
  (* trivial property holds *)
  match Explore.check_all ~setup ~fuel:100 ~p:(fun _ -> true) () with
  | Ok stats -> check_bool "explored" true (stats.Explore.runs > 0)
  | Error _ -> Alcotest.fail "unexpected counterexample"

let test_random_exploration_deterministic () =
  let setup _ctx =
    let cell = ref 0 in
    let th =
      let* v = Prog.read cell in
      let* () = Prog.write cell (v + 1) in
      Prog.return (Value.int v)
    in
    { Runner.threads = [| th; th |]; observe = None; on_label = None }
  in
  let collect seed =
    let rng = Rng.create ~seed in
    List.init 20 (fun _ ->
        (Sampler.run ~kind:Sampler.Random_walk ~target:(Runner.Program setup)
           ~fuel:100 ~rng ())
          .Runner.results)
  in
  check_bool "same seed same outcomes" true (collect 5L = collect 5L);
  check_bool "exploration happened" true (List.length (collect 5L) = 20)

let test_harness_logs () =
  let setup ctx =
    let body = Prog.atomic (fun () -> Value.int 9) in
    {
      Runner.threads =
        [| Harness.call ctx ~tid:(tid 0) ~oid:e_oid ~fid:(fid "f") ~arg:(vi 1) body |];
      observe = None;
      on_label = None;
    }
  in
  let o, _ =
    Runner.replay ~setup
      (List.init 3 (fun _ -> { Runner.thread = 0; branch = 0 }))
  in
  check_bool "complete" true o.Runner.complete;
  Alcotest.(check int) "inv+res" 2 (History.length o.Runner.history);
  let es = History.entries o.Runner.history in
  Alcotest.check value "result logged" (Value.int 9) (Option.get (List.hd es).History.ret)

let test_ctx_active_threads () =
  let ctx = Ctx.create () in
  Ctx.log_action ctx (inv 1 (vi 3));
  Alcotest.(check int) "t1 active" 1 (List.length (Ctx.active_threads ctx ~oid:e_oid));
  Ctx.log_action ctx (res 1 (fail_int 3));
  Alcotest.(check int) "none active" 0 (List.length (Ctx.active_threads ctx ~oid:e_oid));
  Ctx.log_action ctx (inv 2 (vi 4));
  Alcotest.(check int) "other object" 0
    (List.length (Ctx.active_threads ctx ~oid:s_oid))

let () =
  Alcotest.run "conc"
    [
      ( "rng",
        [
          t "determinism" test_rng_determinism;
          t "bounds" test_rng_bounds;
          t "pick/split" test_rng_pick_split;
        ] );
      ( "prog",
        [
          t "monad shape" test_monad_laws_shape;
          t "choose" test_choose;
        ] );
      ( "runner",
        [
          t "shared-memory primitives" test_shared_memory_primitives;
          t "seq/repeat_until" test_seq_and_repeat_until;
          t "on_label hook" test_on_label_hook;
          t "replay deterministic" test_replay_deterministic;
          t "invalid decisions" test_replay_invalid_decision;
          t "frontier" test_frontier;
          t "choose frontier" test_choose_frontier;
          t "harness logging" test_harness_logs;
          t "ctx active threads" test_ctx_active_threads;
        ] );
      ( "explore",
        [
          t "exhaustive counts" test_exhaustive_counts;
          t "preemption bound" test_preemption_bound;
          t "max_runs truncation" test_max_runs_truncation;
          t "fuel incomplete" test_fuel_yields_incomplete;
          t "check_all" test_check_all;
          t "random deterministic" test_random_exploration_deterministic;
        ] );
    ]
