(* Benchmark harness (see DESIGN.md §3, B1-B6).

   Two kinds of output:
   - Bechamel micro-benchmarks: cost of the CAL/linearizability checkers,
     agreement, exploration, and end-to-end verification (B1, B2, B3, B5,
     B6); estimates are printed as a table, one row per benchmark.
   - "Figure" tables (B4 and companions): simulated-time throughput sweeps
     that reproduce the shape of the elimination-stack motivation (HSY'04)
     and the exchanger/synchronous-queue success-rate curves.

   Run: dune exec bench/main.exe            (everything)
        dune exec bench/main.exe -- quick   (fewer samples; figures go to
                                             _build/bench-smoke/)
        dune exec bench/main.exe -- faults  (only B10-B14, full fuel,
                                             regenerates BENCH_*.json)
        dune exec bench/main.exe -- smoke   (only B10-B14, low fuel — CI;
                                             writes _build/bench-smoke/)
        dune exec bench/main.exe -- crash   (only B13, full fuel,
                                             regenerates BENCH_crash.json)
        dune exec bench/main.exe -- parallel (only B14, full fuel,
                                             regenerates BENCH_parallel.json)
        dune exec bench/main.exe -- sampling (only B15, full budgets,
                                             regenerates BENCH_sampling.json)
        dune exec bench/main.exe -- dpor    (only B18, full fuel,
                                             regenerates BENCH_dpor.json)
        dune exec bench/main.exe -- serve   (only B16, full budget,
                                             regenerates BENCH_serve.json)
        dune exec bench/main.exe -- serve-smoke (B16 at a reduced CI
                                             budget, same assertions;
                                             writes _build/bench-smoke/)
        dune exec bench/main.exe -- serve-durable (B17, full budget,
                                             regenerates
                                             BENCH_serve_durable.json)
        dune exec bench/main.exe -- serve-durable-smoke (B17 at a
                                             reduced CI budget, same
                                             assertions; writes
                                             _build/bench-smoke/)
        dune exec bench/main.exe -- fuzz    (fixed-seed sampled pass over
                                             every scenario; fails on any
                                             verdict mismatch) *)

open Bechamel
open Toolkit
open Cal
module S = Workloads.Scenarios
module O = Verify.Obligations

(* A preemption bound as a default strategy, like a scenario's [bound]. *)
let bounded = function
  | None -> O.Default Conc.Explore.Dfs
  | Some bound -> O.Default (Preemption_bounded { bound })

(* The scenario's exhaustive config under [strategy] (default: the plain
   DFS — not the scenario's bound, which [S.config] has) at [fuel]
   (default: its own), deciding the trace obligation, or CAL on the
   history alone when [black_box]. *)
let exhaustive ?(strategy = bounded None) ?domains ?fuel ?(black_box = false)
    ?cache (s : S.t) =
  {
    (S.config s) with
    obligation =
      (if black_box then History { spec = s.spec; checker = `Cal; cache }
       else Trace { spec = s.spec; view = s.view });
    search = Exhaustive { strategy; domains; max_runs = None };
    fuel = Option.value fuel ~default:s.fuel;
  }

(* [budget] runs under the [kind] sampler (default PCT, depth 3). *)
let sampled ?(kind = Conc.Sampler.Pct { d = 3 }) ?(seed = 1L) budget =
  O.Sampled
    { sampling = { s_kind = kind; s_seed = seed; s_budget = budget }; shrink = true }

let mode =
  if Array.exists (fun a -> a = "faults") Sys.argv then `Faults
  else if Array.exists (fun a -> a = "smoke") Sys.argv then `Smoke
  else if Array.exists (fun a -> a = "crash") Sys.argv then `Crash
  else if Array.exists (fun a -> a = "parallel") Sys.argv then `Parallel
  else if Array.exists (fun a -> a = "sampling") Sys.argv then `Sampling
  else if Array.exists (fun a -> a = "dpor") Sys.argv then `Dpor
  else if Array.exists (fun a -> a = "explore") Sys.argv then `Explore
  else if Array.exists (fun a -> a = "serve-smoke") Sys.argv then `Serve_smoke
  else if Array.exists (fun a -> a = "serve-durable-smoke") Sys.argv then
    `Serve_durable_smoke
  else if Array.exists (fun a -> a = "serve-durable") Sys.argv then
    `Serve_durable
  else if Array.exists (fun a -> a = "serve") Sys.argv then `Serve
  else if Array.exists (fun a -> a = "fuzz") Sys.argv then `Fuzz
  else `Full

let quick = Array.exists (fun a -> a = "quick") Sys.argv || mode = `Smoke

(* Where a figure's JSON goes. The full-fuel modes regenerate the
   committed BENCH_*.json in the working directory (the repo root); the
   reduced ones (smoke, quick, serve-smoke, serve-durable-smoke) write
   their low-fuel figures under _build/bench-smoke/ instead, so a CI or
   local smoke run never overwrites the figures EXPERIMENTS.md cites. *)
let bench_path name =
  let reduced =
    quick || mode = `Serve_smoke || mode = `Serve_durable_smoke
  in
  if not reduced then name
  else begin
    let dir = Filename.concat "_build" "bench-smoke" in
    List.iter
      (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
      [ "_build"; dir ];
    Filename.concat dir name
  end

(* ---------------------------------------------------------- fixtures -- *)

let e_oid = Ids.Oid.v "E"
let s_oid = Ids.Oid.v "S"
let ex_spec = Spec_exchanger.spec ()
let stack_spec = Spec_stack.spec ~oid:s_oid ~allow_spurious_failure:true ()

let exchanger_history ~elements seed =
  let g = Workloads.Gen.create ~seed in
  let tr = Workloads.Gen.exchanger_trace g ~oid:e_oid ~threads:4 ~elements in
  Workloads.Gen.history_of_trace g tr

let stack_history ~elements seed =
  let g = Workloads.Gen.create ~seed in
  let tr = Workloads.Gen.stack_trace g ~oid:s_oid ~threads:4 ~elements in
  Workloads.Gen.history_of_trace g tr

(* B1 — CAL checker cost vs history length. *)
let b1 =
  List.map
    (fun elements ->
      let h = exchanger_history ~elements 11L in
      Test.make
        ~name:(Fmt.str "cal-checker/exchanger-%d-elems" elements)
        (Staged.stage (fun () -> ignore (Cal_checker.check ~spec:ex_spec h))))
    [ 2; 4; 6; 8 ]

(* B2 — CAL vs classic linearizability on the same stack histories: for
   singleton-element specs the two decide the same question. *)
let b2 =
  List.concat_map
    (fun elements ->
      let h = stack_history ~elements 13L in
      [
        Test.make
          ~name:(Fmt.str "lin-vs-cal/lin-stack-%d" elements)
          (Staged.stage (fun () -> ignore (Lin_checker.check ~spec:stack_spec h)));
        Test.make
          ~name:(Fmt.str "lin-vs-cal/cal-stack-%d" elements)
          (Staged.stage (fun () -> ignore (Cal_checker.check ~spec:stack_spec h)));
      ])
    [ 4; 8 ]

(* B3 — exploration cost: the full pair and the preemption-bounded trio. *)
let b3 =
  let pair = S.exchanger_pair () in
  let trio = S.exchanger_trio () in
  [
    Test.make ~name:"explore/exchanger-pair-full"
      (Staged.stage (fun () ->
           ignore
             (Conc.Explore.exhaustive ~setup:pair.setup ~fuel:pair.fuel
                ~f:(fun _ -> ())
                ())));
    Test.make ~name:"explore/exchanger-trio-pb2"
      (Staged.stage (fun () ->
           ignore
             (Conc.Explore.exhaustive ~setup:trio.setup ~fuel:trio.fuel
                ~preemption_bound:2
                ~f:(fun _ -> ())
                ())));
    Test.make ~name:"explore/random-100-runs"
      (Staged.stage (fun () ->
           let rng = Conc.Rng.create ~seed:3L in
           for _ = 1 to 100 do
             ignore
               (Conc.Sampler.run ~kind:Conc.Sampler.Random_walk
                  ~target:(Conc.Runner.Program trio.setup) ~fuel:trio.fuel ~rng
                  ())
           done));
  ]

(* B5 — modularity payoff: verifying the elimination stack against the
   concrete vs the abstract exchanger. *)
let b5 =
  let conc = S.elim_stack_push_pop ~k:1 () in
  let abs = S.elim_stack_push_pop ~abstract:true ~k:1 () in
  let verify (s : S.t) () =
    ignore (O.check (exhaustive s))
  in
  [
    Test.make ~name:"modularity/elim-stack-concrete" (Staged.stage (verify conc));
    Test.make ~name:"modularity/elim-stack-abstract" (Staged.stage (verify abs));
  ]

(* B6 — agreement cost vs overlap-class size: one big element of n
   pairwise-concurrent failing ops; identical arguments are the worst case
   for the multiset matcher. *)
let b6 =
  List.map
    (fun n ->
      let ops =
        List.init n (fun i ->
            Spec_exchanger.failure ~oid:e_oid (Ids.Tid.of_int i) (Value.int 1))
      in
      let h =
        History.of_list
          (List.init n (fun i ->
               Action.inv ~tid:(Ids.Tid.of_int i) ~oid:e_oid
                 ~fid:Spec_exchanger.fid_exchange (Value.int 1))
          @ List.init n (fun i ->
                Action.res ~tid:(Ids.Tid.of_int i) ~oid:e_oid
                  ~fid:Spec_exchanger.fid_exchange
                  (Value.fail (Value.int 1))))
      in
      Test.make
        ~name:(Fmt.str "agreement/%d-identical-concurrent-ops" n)
        (Staged.stage (fun () -> ignore (Agreement.agrees h ops))))
    [ 2; 4; 6; 8 ]

(* B7 — interval-linearizability checker cost vs operation count. *)
let b7 =
  let w_oid = Ids.Oid.v "W" in
  let spec = Interval_lin.observer_of_ticks ~oid:w_oid in
  List.map
    (fun ticks ->
      let inv_watch =
        Action.inv ~tid:(Ids.Tid.of_int 9) ~oid:w_oid ~fid:(Ids.Fid.v "watch")
          Value.unit
      in
      let res_watch =
        Action.res ~tid:(Ids.Tid.of_int 9) ~oid:w_oid ~fid:(Ids.Fid.v "watch")
          (Value.int ticks)
      in
      let tick_ops i =
        [
          Action.inv ~tid:(Ids.Tid.of_int i) ~oid:w_oid ~fid:(Ids.Fid.v "tick")
            (Value.int i);
          Action.res ~tid:(Ids.Tid.of_int i) ~oid:w_oid ~fid:(Ids.Fid.v "tick")
            Value.unit;
        ]
      in
      let h =
        History.of_list
          ((inv_watch :: List.concat_map tick_ops (List.init ticks (fun i -> i + 1)))
          @ [ res_watch ])
      in
      Test.make
        ~name:(Fmt.str "interval-lin/watch-over-%d-ticks" ticks)
        (Staged.stage (fun () ->
             ignore (Interval_lin.is_interval_linearizable ~spec h))))
    [ 2; 3; 4 ]

(* B8 — blocking structures: dual queue and elimination queue end-to-end
   verification. *)
let b8 =
  let verify (s : S.t) () =
    ignore (O.check (S.config s))
  in
  [
    Test.make ~name:"blocking/dual-queue-enq-deq"
      (Staged.stage (verify (S.dual_queue_enq_deq ())));
    Test.make ~name:"blocking/dual-queue-two-consumers"
      (Staged.stage (verify (S.dual_queue_two_consumers ())));
    Test.make ~name:"blocking/elim-queue-enq-deq"
      (Staged.stage (verify (S.elim_queue_enq_deq ())));
    Test.make ~name:"blocking/elim-queue-fifo-pb3"
      (Staged.stage (verify (S.elim_queue_fifo ())));
  ]

(* ------------------------------------------------------------ driver -- *)

let run_bechamel tests =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let quota = if quick then 0.2 else 0.6 in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:false () in
  let grouped = Test.make_grouped ~name:"bench" ~fmt:"%s/%s" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with Some [ e ] -> e | _ -> nan
        in
        (name, est) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Fmt.pr "@.%-55s %15s@." "benchmark" "ns/run";
  List.iter
    (fun (name, est) ->
      if Float.is_nan est then Fmt.pr "%-55s %15s@." name "-"
      else Fmt.pr "%-55s %15.0f@." name est)
    rows

(* B4 — the HSY'04-shaped figure: stack throughput under contention. *)
let figure_stack_throughput () =
  let fuel = if quick then 40_000 else 200_000 in
  Fmt.pr
    "@.# B4: simulated stack throughput (completed ops / 1000 scheduler steps)@.";
  Fmt.pr "# the paper's motivation: elimination recovers throughput under contention@.";
  Fmt.pr "%8s %16s %16s %16s@." "threads" "treiber-retry" "elim(k=1)" "elim(k=4)";
  List.iter
    (fun threads ->
      let tp impl =
        (Workloads.Metrics.stack_throughput ~impl ~threads ~fuel ~seed:42L).throughput
      in
      Fmt.pr "%8d %16.2f %16.2f %16.2f@." threads
        (tp Workloads.Metrics.Treiber_retry)
        (tp (Workloads.Metrics.Elimination 1))
        (tp (Workloads.Metrics.Elimination 4)))
    [ 1; 2; 4; 8; 16; 32 ]

let figure_exchanger_success () =
  let fuel = if quick then 40_000 else 150_000 in
  Fmt.pr "@.# B4b: exchanger success rate vs concurrency (the CA behaviour)@.";
  Fmt.pr "%8s %12s %12s %12s@." "threads" "completed" "succeeded" "rate";
  List.iter
    (fun threads ->
      let r =
        Workloads.Metrics.exchanger_success_rate ~threads ~rounds:50 ~fuel ~seed:7L
      in
      Fmt.pr "%8d %12d %12d %11.0f%%@." threads r.ops_completed r.ops_succeeded
        (if r.ops_completed = 0 then 0.
         else 100. *. float_of_int r.ops_succeeded /. float_of_int r.ops_completed))
    [ 1; 2; 4; 8; 16 ]

let figure_sync_queue () =
  let fuel = if quick then 40_000 else 150_000 in
  Fmt.pr "@.# B4c: synchronous queue rendezvous rate (producers vs consumers)@.";
  Fmt.pr "%8s %10s %12s %12s %12s@." "prod" "cons" "completed" "rendezvous" "rate";
  List.iter
    (fun (p, c) ->
      let r =
        Workloads.Metrics.sync_queue_handoffs ~producers:p ~consumers:c ~rounds:40
          ~fuel ~seed:9L
      in
      Fmt.pr "%8d %10d %12d %12d %11.0f%%@." p c r.ops_completed r.ops_succeeded
        (if r.ops_completed = 0 then 0.
         else 100. *. float_of_int r.ops_succeeded /. float_of_int r.ops_completed))
    [ (1, 1); (2, 2); (4, 4); (8, 8); (4, 1); (1, 4) ]

(* B10 — fault sweep: throughput and retry behaviour of the two stacks as
   threads are crashed mid-run. A crashed thread's operation stays pending
   forever; the figure shows what the survivors still deliver. Results
   also land in BENCH_faults.json for machine consumption. *)
let figure_fault_sweep () =
  let fuel = if quick then 40_000 else 150_000 in
  let threads = 8 in
  let crashes = [ 0; 1; 2 ] in
  let impls =
    [
      ("treiber-backoff", Workloads.Metrics.Treiber_backoff);
      ("elim(k=4)", Workloads.Metrics.Elimination 4);
    ]
  in
  Fmt.pr "@.# B10: fault sweep — stack throughput with crashed threads (of %d)@."
    threads;
  Fmt.pr "%-18s %8s %12s %10s %10s %14s@." "impl" "crashes" "ops" "retries"
    "crashed" "throughput";
  let rows =
    List.concat_map
      (fun (name, impl) ->
        List.map
          (fun c ->
            let r =
              Workloads.Metrics.stack_fault_sweep ~impl ~threads ~crashes:c ~fuel
                ~seed:42L
            in
            Fmt.pr "%-18s %8d %12d %10d %10d %14.2f@." name c r.ops_completed
              r.retries r.ops_crashed r.throughput;
            (name, c, r))
          crashes)
      impls
  in
  let path = bench_path "BENCH_faults.json" in
  let oc = open_out path in
  let json_row (name, c, (r : Workloads.Metrics.result)) =
    Printf.sprintf
      "    {\"impl\": %S, \"threads\": %d, \"crashes\": %d, \"fuel\": %d, \
       \"ops_completed\": %d, \"ops_succeeded\": %d, \"retries\": %d, \
       \"ops_crashed\": %d, \"throughput\": %.4f}"
      name threads c fuel r.ops_completed r.ops_succeeded r.retries r.ops_crashed
      r.throughput
  in
  Printf.fprintf oc "{\n  \"bench\": \"fault_sweep\",\n  \"rows\": [\n%s\n  ]\n}\n"
    (String.concat ",\n" (List.map json_row rows));
  close_out oc;
  Fmt.pr "# rows written to %s@." path

(* B11 — timeout/liveness sweep. Two parts: (i) the timed exchanger's
   swap-vs-timeout rate as the per-round deadline grows, with and without a
   clock-skewing Delay fault on thread 0; (ii) the liveness watchdog's
   verdict census over the bounded timed-pair scenario's fault sweep —
   livelocked must be 0. Results land in BENCH_timeouts.json. *)
let figure_timeouts () =
  let fuel = if quick then 30_000 else 100_000 in
  let threads = 4 in
  let plans =
    [ ("none", []); ("delay(t0*4)", [ Conc.Fault.delay ~thread:0 ~factor:4 ]) ]
  in
  Fmt.pr "@.# B11: timed exchanger — swaps vs timeouts by deadline (threads=%d)@."
    threads;
  Fmt.pr "%10s %14s %12s %12s %12s@." "deadline" "plan" "completed" "swapped"
    "timed-out";
  let rows =
    List.concat_map
      (fun deadline ->
        List.map
          (fun (pname, plan) ->
            let r =
              Workloads.Metrics.exchanger_timed_rate ~plan ~threads ~deadline
                ~fuel ~seed:17L ()
            in
            Fmt.pr "%10d %14s %12d %12d %12d@." deadline pname r.ops_completed
              r.ops_succeeded r.ops_timed_out;
            (deadline, pname, r))
          plans)
      [ 2; 4; 8; 16; 32 ]
  in
  let scen = S.exchanger_timed_pair () in
  let window = 8 in
  let plans_explored, live =
    Conc.Explore.liveness ~delay_factors:[ 2 ] ~setup:scen.setup
      ~fuel:scen.fuel ~window
      ~max_plans:(if quick then 40 else 200)
      ~fault_bound:1 ()
  in
  Fmt.pr
    "# liveness watchdog over %s (window %d, %d fault plans): %d runs — %d \
     completed, %d deadlocked, %d starved, %d livelocked@."
    scen.S.name window plans_explored live.Conc.Explore.live_runs
    live.Conc.Explore.live_completed live.Conc.Explore.live_deadlocked
    live.Conc.Explore.live_starved live.Conc.Explore.live_livelocked;
  let path = bench_path "BENCH_timeouts.json" in
  let oc = open_out path in
  let json_row (deadline, pname, (r : Workloads.Metrics.result)) =
    Printf.sprintf
      "    {\"deadline\": %d, \"plan\": %S, \"threads\": %d, \"fuel\": %d, \
       \"ops_completed\": %d, \"ops_succeeded\": %d, \"ops_timed_out\": %d, \
       \"ops_cancelled\": %d, \"throughput\": %.4f}"
      deadline pname threads fuel r.ops_completed r.ops_succeeded r.ops_timed_out
      r.ops_cancelled r.throughput
  in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"timeout_sweep\",\n\
    \  \"rows\": [\n\
     %s\n\
    \  ],\n\
    \  \"liveness\": {\"scenario\": %S, \"window\": %d, \"plans\": %d, \
     \"runs\": %d, \"completed\": %d, \"deadlocked\": %d, \"starved\": %d, \
     \"livelocked\": %d}\n\
     }\n"
    (String.concat ",\n" (List.map json_row rows))
    scen.S.name window plans_explored live.Conc.Explore.live_runs
    live.Conc.Explore.live_completed live.Conc.Explore.live_deadlocked
    live.Conc.Explore.live_starved live.Conc.Explore.live_livelocked;
  close_out oc;
  Fmt.pr "# rows written to %s@." path

(* B12 — exploration engine cost: the same bounded state spaces explored by
   the seed's whole-prefix-replay engine and the incremental engine, across
   a fuel × preemption-bound grid. The headline column is steps-executed:
   the replay engine re-runs the whole prefix at every DFS node
   (O(nodes × depth)); the incremental engine pays one step per tree edge
   and backtracks by rollback, replaying nothing, on these undoable
   scenarios (a program that cannot be undone pays one prefix replay per
   backtrack instead, O(runs × depth)). Identical run counts between the
   two engines are asserted here — the speedup must not change what is
   explored. Results land in BENCH_explore.json ([make bench-explore]
   regenerates only that file). *)
let figure_explore () =
  let scenarios =
    [ S.exchanger_pair (); S.elim_stack_push_pop ~k:1 () ]
  in
  let fuels = if quick then [ 8; 12 ] else [ 8; 12; 16 ] in
  let bounds = [ Some 2; None ] in
  Fmt.pr "@.# B12: exploration engine cost (steps executed, replay vs incremental)@.";
  Fmt.pr "%-26s %5s %6s %-18s %8s %10s %10s %8s@." "scenario" "fuel" "bound"
    "engine" "runs" "nodes" "steps" "ms";
  let rows =
    List.concat_map
      (fun (s : S.t) ->
        List.concat_map
          (fun fuel ->
            List.concat_map
              (fun bound ->
                let cost engine =
                  let t0 = Sys.time () in
                  let c =
                    Workloads.Metrics.explore_cost ~engine ~setup:s.setup ~fuel
                      ?preemption_bound:bound ()
                  in
                  (c, (Sys.time () -. t0) *. 1000.)
                in
                let replay, replay_ms = cost `Replay in
                let incr_, incr_ms = cost `Incremental in
                if replay.explored_runs <> incr_.explored_runs then
                  Fmt.failwith
                    "B12: engine mismatch on %s fuel=%d: replay %d runs vs \
                     incremental %d"
                    s.name fuel replay.explored_runs incr_.explored_runs;
                let bound_str =
                  match bound with None -> "-" | Some b -> string_of_int b
                in
                List.iter
                  (fun ((c : Workloads.Metrics.explore_cost), ms) ->
                    Fmt.pr "%-26s %5d %6s %-18s %8d %10d %10d %8.1f@." s.name
                      fuel bound_str c.engine c.explored_runs c.nodes
                      c.steps_executed ms)
                  [ (replay, replay_ms); (incr_, incr_ms) ];
                Fmt.pr "%-26s %5d %6s %-18s %8s %10s %9.1fx@." s.name fuel
                  bound_str "(steps ratio)" "" ""
                  (float_of_int replay.steps_executed
                  /. float_of_int (max 1 incr_.steps_executed));
                List.map
                  (fun ((c : Workloads.Metrics.explore_cost), ms) ->
                    (s.S.name, fuel, bound, c, ms))
                  [ (replay, replay_ms); (incr_, incr_ms) ])
              bounds)
          fuels)
      scenarios
  in
  let max_fuel = List.fold_left max 0 fuels in
  List.iter
    (fun (s : S.t) ->
      let steps engine =
        List.find_map
          (fun (n, f, b, (c : Workloads.Metrics.explore_cost), _) ->
            if n = s.S.name && f = max_fuel && b = None && c.engine = engine
            then Some c.steps_executed
            else None)
          rows
        |> Option.value ~default:1
      in
      let replay = steps "replay" in
      Fmt.pr
        "# %-26s fuel=%d: %5.1fx fewer steps incremental@." s.name max_fuel
        (float_of_int replay /. float_of_int (max 1 (steps "incremental"))))
    scenarios;
  let path = bench_path "BENCH_explore.json" in
  let oc = open_out path in
  let json_row (name, fuel, bound, (c : Workloads.Metrics.explore_cost), ms) =
    Printf.sprintf
      "    {\"scenario\": %S, \"fuel\": %d, \"preemption_bound\": %s, \
       \"engine\": %S, \"runs\": %d, \"nodes\": %d, \"steps_executed\": %d, \
       \"replayed_steps\": %d, \"wall_ms\": %.3f}"
      name fuel
      (match bound with None -> "null" | Some b -> string_of_int b)
      c.engine c.explored_runs c.nodes c.steps_executed c.replayed_steps ms
  in
  Printf.fprintf oc
    "{\n  \"bench\": \"explore_engines\",\n  \"rows\": [\n%s\n  ]\n}\n"
    (String.concat ",\n" (List.map json_row rows));
  close_out oc;
  Fmt.pr "# rows written to %s@." path

(* B18 — source-DPOR reduction and delay-bounded bug depth. Two claims,
   asserted in-process so the benchmark doubles as a regression gate:
   - reduction: on the tracked-cell scenarios at full fuel, source-DPOR
     delivers at least 5x fewer runs than the unreduced incremental DFS
     while the black-box verdict is unchanged;
   - bug-finding: the delay-bounded DFS, at bound 0, 1, 2 in turn, finds
     every deliberately injected violation within bound <= 2.
   Results land in BENCH_dpor.json. *)
let figure_dpor () =
  let fuel = if quick then 12 else 16 in
  let scenarios = [ S.treiber_push_pop (); S.exchanger_pair () ] in
  Fmt.pr "@.# B18: source-DPOR reduction vs the unreduced DFS (fuel %d)@."
    fuel;
  Fmt.pr "%-26s %-18s %8s %10s %8s %10s %8s@." "scenario" "engine" "runs"
    "nodes" "races" "backtracks" "ms";
  let cost ~(s : S.t) engine =
    let t0 = Sys.time () in
    let c = Workloads.Metrics.explore_cost ~engine ~setup:s.setup ~fuel () in
    (c, (Sys.time () -. t0) *. 1000.)
  in
  let reduction_rows =
    List.concat_map
      (fun (s : S.t) ->
        let full, full_ms = cost ~s `Incremental in
        let dpor, dpor_ms = cost ~s `Dpor in
        List.iter
          (fun ((c : Workloads.Metrics.explore_cost), ms) ->
            Fmt.pr "%-26s %-18s %8d %10d %8d %10d %8.1f@." s.name c.engine
              c.explored_runs c.nodes c.races_found c.backtrack_points ms)
          [ (full, full_ms); (dpor, dpor_ms) ];
        Fmt.pr "%-26s %-18s %7.1fx fewer runs@." s.name "(reduction)"
          (float_of_int full.explored_runs
          /. float_of_int (max 1 dpor.explored_runs));
        if dpor.explored_runs * 5 > full.explored_runs then
          Fmt.failwith
            "B18: source-DPOR on %s explored %d runs vs %d unreduced — less \
             than the required 5x reduction"
            s.name dpor.explored_runs full.explored_runs;
        (* the reduction must not change what is decided *)
        let verdict strategy =
          O.ok (O.check (exhaustive ?strategy ~fuel ~black_box:true s))
        in
        let v_dfs = verdict None
        and v_dpor = verdict (Some (O.Explicit Conc.Explore.Dpor)) in
        if v_dfs <> v_dpor then
          Fmt.failwith "B18: DPOR changed the verdict on %s: dfs=%b dpor=%b"
            s.name v_dfs v_dpor;
        [ (s.name, full, full_ms); (s.name, dpor, dpor_ms) ])
      scenarios
  in
  Fmt.pr "@.# B18b: delay-bounded DFS on the injected bugs@.";
  let bound_rows =
    List.map
      (fun (s : S.t) ->
        let rec find b =
          if b > 2 then
            Fmt.failwith
              "B18: the delay-bounded DFS missed the %s violation within \
               bound 2"
              s.name
          else
            let r =
              O.check
                (exhaustive
                   ~strategy:(Explicit (Conc.Explore.Delay_bounded { bound = b }))
                   s)
            in
            if Verify.Obligations.ok r then find (b + 1)
            else (b, r.Verify.Obligations.runs)
        in
        let b, runs = find 0 in
        Fmt.pr "%-28s violation at delay bound %d (%d runs)@." s.name b runs;
        (s.name, b, runs))
      (S.faulty ())
  in
  let path = bench_path "BENCH_dpor.json" in
  let oc = open_out path in
  let engine_row (name, (c : Workloads.Metrics.explore_cost), ms) =
    Printf.sprintf
      "    {\"scenario\": %S, \"fuel\": %d, \"engine\": %S, \"runs\": %d, \
       \"nodes\": %d, \"replayed_steps\": %d, \"sleep_pruned\": %d, \
       \"races_found\": %d, \"backtrack_points\": %d, \"wall_ms\": %.3f}"
      name fuel c.engine c.explored_runs c.nodes c.replayed_steps
      c.sleep_pruned c.races_found c.backtrack_points ms
  in
  let bound_row (name, b, runs) =
    Printf.sprintf
      "    {\"scenario\": %S, \"delay_bound\": %d, \"runs\": %d}" name b runs
  in
  Printf.fprintf oc
    "{\n  \"bench\": \"dpor\",\n  \"rows\": [\n%s\n  ],\n  \"bound_rows\": \
     [\n%s\n  ]\n}\n"
    (String.concat ",\n" (List.map engine_row reduction_rows))
    (String.concat ",\n" (List.map bound_row bound_rows));
  close_out oc;
  Fmt.pr "# rows written to %s@." path

(* B13 — crash-recovery sweep: durable Treiber stack throughput as whole-
   system crashes and recovery cost grow. Every flush is an extra step on
   the hot top cell and every crash discards in-flight work and pays
   [recovery_cost] scan steps before the workload resumes — the figure
   quantifies the durability tax. Results land in BENCH_crash.json. *)
let figure_crash () =
  let fuel = if quick then 30_000 else 100_000 in
  let threads = 8 in
  Fmt.pr
    "@.# B13: durable stack — throughput under system crashes (threads=%d)@."
    threads;
  Fmt.pr "%8s %14s %12s %12s %14s %14s@." "crashes" "recovery-cost" "ops"
    "sys-crashes" "recovery-steps" "throughput";
  let rows =
    List.concat_map
      (fun crashes ->
        List.map
          (fun recovery_cost ->
            let r =
              Workloads.Metrics.durable_stack_crash_sweep ~threads ~crashes
                ~recovery_cost ~fuel ~seed:42L
            in
            Fmt.pr "%8d %14d %12d %12d %14d %14.2f@." crashes recovery_cost
              r.ops_completed r.sys_crashes r.recovery_steps r.throughput;
            (crashes, recovery_cost, r))
          [ 0; 16; 64 ])
      [ 0; 1; 2; 4 ]
  in
  let path = bench_path "BENCH_crash.json" in
  let oc = open_out path in
  let json_row (crashes, recovery_cost, (r : Workloads.Metrics.result)) =
    Printf.sprintf
      "    {\"crashes\": %d, \"recovery_cost\": %d, \"threads\": %d, \
       \"fuel\": %d, \"ops_completed\": %d, \"ops_succeeded\": %d, \
       \"sys_crashes\": %d, \"recovery_steps\": %d, \"retries\": %d, \
       \"throughput\": %.4f}"
      crashes recovery_cost threads fuel r.ops_completed r.ops_succeeded
      r.sys_crashes r.recovery_steps r.retries r.throughput
  in
  Printf.fprintf oc
    "{\n  \"bench\": \"crash_recovery_sweep\",\n  \"rows\": [\n%s\n  ]\n}\n"
    (String.concat ",\n" (List.map json_row rows));
  close_out oc;
  Fmt.pr "# rows written to %s@." path

(* B14 — parallel exploration with the canonical-history verdict cache:
   black-box verification wall-clock across worker-domain counts, cache on
   and off. Verdict equality with the sequential cache-less baseline is
   asserted on every row — runs, complete runs and problems must match
   byte-for-byte — so the speedup cannot change what is verified. On a
   single hardware core the domain axis shows the coordination overhead
   is small; the headline speedup comes from the verdict cache, which
   collapses the checker work of schedule-permuted-but-canonically-equal
   histories into one computation shared across domains. Wall-clock uses
   Unix.gettimeofday: Sys.time sums CPU time over every domain, which
   would misreport any multi-domain run. Results land in
   BENCH_parallel.json.

   The B14 preamble also micro-asserts that the accumulator-based
   [Cal_checker.subsets_up_to] rewrite preserved the checker's search
   exactly: [states_explored] on fixed seeded exchanger histories must
   equal the values recorded before the rewrite. test_checkers runs the
   same assertion under [dune runtest]. *)
let figure_parallel () =
  (* recorded with the pre-rewrite quadratic subsets_up_to; the rewrite
     must not change the enumeration, hence not the search *)
  List.iter
    (fun (elements, expect) ->
      let h = exchanger_history ~elements 11L in
      let stats =
        match Cal_checker.check ~spec:ex_spec h with
        | Cal_checker.Accepted { stats; _ } -> stats
        | Cal_checker.Rejected { stats; _ } -> stats
      in
      if stats.Cal_checker.states_explored <> expect then
        Fmt.failwith
          "B14: subsets_up_to rewrite changed the checker search: %d elements \
           explored %d states (expected %d)"
          elements stats.Cal_checker.states_explored expect)
    [ (2, 2); (4, 4); (6, 6) ];
  let fuel = if quick then 12 else 16 in
  let domain_counts = if quick then [ 1; 2; 4 ] else [ 1; 2; 4; 8 ] in
  let cores = Domain.recommended_domain_count () in
  (* On a single-core box every multi-domain request would silently cap to
     one worker and the stealing machinery would never run. Oversubscribe
     instead: wall-clock speedups then mean nothing (the rows say so via
     the [oversubscribed] flag, and the speedup asserts below are gated on
     real hardware), but the engine genuinely distributes work, so the
     nonzero-steal and byte-identical-report asserts still bite. *)
  let oversub = cores < 2 in
  let prev_oversub = Sys.getenv_opt "CAL_EXPLORE_OVERSUBSCRIBE" in
  if oversub then Unix.putenv "CAL_EXPLORE_OVERSUBSCRIBE" "1";
  Fmt.pr
    "@.# B14: parallel black-box verification + verdict cache (%d hw cores%s)@."
    cores
    (if oversub then ", oversubscribed" else "");
  Fmt.pr "%-26s %5s %8s %5s %6s %9s %11s %8s %9s %9s@." "scenario" "fuel"
    "domains" "used" "cache" "runs" "cache-hits" "stolen" "ms" "speedup";
  (* One measured cell: run the check, assert its report is byte-identical
     to the sequential uncached baseline (verdict-cache hit counts may
     differ by a benign compute race, nothing else may), print and record
     it. [reps] takes the best of several runs to tame GC/scheduler
     noise. *)
  let cell ~(s : S.t) ~fuel ~bound ~reps ~base ~base_ms ~domains ~cache () =
    let run () =
      (* Level the major heap between cells: the allocation left behind by
         one cell otherwise drifts the GC cost of the next. *)
      Gc.compact ();
      let t0 = Unix.gettimeofday () in
      let r =
        O.check
          (exhaustive ~strategy:(bounded bound) ~domains ~fuel ~black_box:true
             ~cache s)
      in
      (r, (Unix.gettimeofday () -. t0) *. 1000.)
    in
    let r, ms =
      List.init reps (fun _ -> run ())
      |> List.fold_left
           (fun acc c ->
             match acc with
             | Some (_, best) when best <= snd c -> acc
             | _ -> Some c)
           None
      |> Option.get
    in
    let messages (rep : Verify.Obligations.report) =
      List.map (fun (p : Verify.Obligations.problem) -> p.message) rep.problems
    in
    (match base with
    | None -> ()
    | Some (base : Verify.Obligations.report) ->
        if
          r.Verify.Obligations.runs <> base.Verify.Obligations.runs
          || r.complete_runs <> base.complete_runs
          || messages r <> messages base
        then
          Fmt.failwith
            "B14: %s domains=%d cache=%b diverged from the sequential \
             baseline (%d runs vs %d)"
            s.name domains cache r.Verify.Obligations.runs
            base.Verify.Obligations.runs);
    let hits, stolen, used =
      match r.exploration with
      | Some e ->
          (e.Conc.Explore.cache_hits, e.Conc.Explore.tasks_stolen,
           e.Conc.Explore.domains_used)
      | None -> (0, 0, 1)
    in
    if cache && hits = 0 && r.Verify.Obligations.runs > 1 then
      Fmt.failwith "B14: %s domains=%d: cache enabled but 0 hits" s.name domains;
    (* the tentpole regression: whenever several workers actually ran, work
       must have been distributed — a zero here means the engine degraded
       to static one-task execution *)
    if used > 1 && stolen = 0 then
      Fmt.failwith "B14: %s domains=%d (used %d): no tasks were stolen" s.name
        domains used;
    let speedup =
      if base_ms <= 0. then 1.0 else base_ms /. Float.max 0.001 ms
    in
    Fmt.pr "%-26s %5d %8d %5d %6s %9d %11d %8d %9.1f %8.1fx@." s.name fuel
      domains used
      (if cache then "on" else "off")
      r.Verify.Obligations.runs hits stolen ms speedup;
    ((s.S.name, fuel, domains, used, cache, r.Verify.Obligations.runs, hits,
      stolen, ms, speedup),
     r, ms)
  in
  (* Positive scenarios: the domain axis and the cache hit rates on
     verifications that accept. *)
  let scenarios =
    [ S.treiber_push_pop (); S.exchanger_trio (); S.elim_stack_push_pop ~k:1 () ]
  in
  let rows =
    List.concat_map
      (fun (s : S.t) ->
        let row0, base, base_ms =
          cell ~s ~fuel ~bound:s.bound ~reps:1 ~base:None ~base_ms:0. ~domains:1
            ~cache:false ()
        in
        if not (Verify.Obligations.ok base) then
          Fmt.failwith "B14: %s unexpectedly failed verification" s.name;
        let base = Some base in
        row0
        :: List.concat_map
             (fun domains ->
               List.filter_map
                 (fun cache ->
                   if domains = 1 && not cache then None
                   else
                     let row, _, _ =
                       cell ~s ~fuel ~bound:s.bound ~reps:1 ~base ~base_ms
                         ~domains ~cache ()
                     in
                     Some row)
                 [ false; true ])
             domain_counts)
      scenarios
  in
  (* Headline: the checker-bound sweep. The sticky-slot elimination stack
     rejects on most deep schedules, and a rejection must exhaust every
     drop subset of the pending pops — so the CAL checker, not the
     exploration, dominates the sequential baseline, and the shared
     verdict cache (hit rate ~99%: canonical classes are few) carries the
     speedup. Fuel stays 16 in quick mode: this row is the acceptance
     measurement. *)
  let storm = S.faulty_elim_stack ~pushers:1 ~poppers:4 () in
  let sfuel = 16 and sbound = Some 3 in
  let sbase_row, sbase, sbase_ms =
    cell ~s:storm ~fuel:sfuel ~bound:sbound ~reps:3 ~base:None ~base_ms:0.
      ~domains:1 ~cache:false ()
  in
  if sbase.Verify.Obligations.problems = [] then
    Fmt.failwith "B14: %s found no problems (bug not exercised)" storm.name;
  (* Cache-off domain axis first: raw exploration scaling, the tentpole
     measurement. Then the cached cells, where the verdict cache collapses
     the checker work on top of the parallel exploration. *)
  let storm_raw_cells =
    List.filter_map
      (fun domains ->
        if domains = 1 then None
        else
          Some
            ( domains,
              cell ~s:storm ~fuel:sfuel ~bound:sbound ~reps:3
                ~base:(Some sbase) ~base_ms:sbase_ms ~domains ~cache:false ()
            ))
      domain_counts
  in
  let storm_cells =
    List.map
      (fun domains ->
        (domains,
         cell ~s:storm ~fuel:sfuel ~bound:sbound ~reps:3 ~base:(Some sbase)
           ~base_ms:sbase_ms ~domains ~cache:true ()))
      domain_counts
  in
  (* Wall-clock asserts only where wall-clock is meaningful: a timeshared
     (oversubscribed or capped) run measures scheduler noise, not the
     engine. *)
  (if cores >= 4 then
     match List.assoc_opt 4 storm_raw_cells with
     | None -> ()
     | Some (_, _, ms4) ->
         let speedup = sbase_ms /. Float.max 0.001 ms4 in
         if speedup < 3.0 then
           Fmt.failwith
             "B14: %s at 4 domains cache-off is only %.2fx over the \
              sequential engine (>= 3x required)"
             storm.name speedup);
  (if not oversub then
     match List.assoc_opt 4 storm_cells with
     | None -> ()
     | Some (_, _, ms4) ->
         let speedup = sbase_ms /. Float.max 0.001 ms4 in
         if speedup < 2.0 then
           Fmt.failwith
             "B14: %s at 4 domains + cache is only %.2fx over the sequential \
              engine (>= 2x required)"
             storm.name speedup);
  let rows =
    rows
    @ (sbase_row
       :: (List.map (fun (_, (row, _, _)) -> row) storm_raw_cells
           @ List.map (fun (_, (row, _, _)) -> row) storm_cells))
  in
  let path = bench_path "BENCH_parallel.json" in
  let oc = open_out path in
  let json_row
      (name, fuel, domains, used, cache, runs, hits, stolen, ms, speedup) =
    Printf.sprintf
      "    {\"scenario\": %S, \"fuel\": %d, \"domains\": %d, \
       \"domains_used\": %d, \"oversubscribed\": %b, \
       \"degraded_no_cores\": %b, \"cache\": %b, \
       \"runs\": %d, \"cache_hits\": %d, \"tasks_stolen\": %d, \
       \"wall_ms\": %.3f, \"speedup\": %.3f}"
      name fuel domains used
      (oversub && domains > 1)
      (* the machine has fewer cores than the requested domains: the
         wall-clock column measures contention, not the engine *)
      (cores < domains) cache runs hits stolen ms speedup
  in
  Printf.fprintf oc
    "{\n  \"bench\": \"parallel_explore\",\n  \"hw_cores\": %d,\n  \
     \"rows\": [\n%s\n  ]\n}\n"
    cores
    (String.concat ",\n" (List.map json_row rows));
  close_out oc;
  (match prev_oversub with
  | Some v -> Unix.putenv "CAL_EXPLORE_OVERSUBSCRIBE" v
  | None -> if oversub then Unix.putenv "CAL_EXPLORE_OVERSUBSCRIBE" "");
  Fmt.pr "# rows written to %s@." path

(* B15 — sampled checking: detection rate and witness size vs run budget,
   per sampler kind (random walk, PCT, preemption-bounded random), over
   the deliberately faulty scenarios with fixed seeds. Each cell
   aggregates one sampled check per (scenario, seed); the detection rate
   is the fraction of those checks that found a violation within the
   budget, mean-runs the average runs a detection took (early exit), and
   the witness columns the mean ddmin-shrunk schedule length and the mean
   decisions removed. Results land in BENCH_sampling.json. *)
let figure_sampling () =
  let kinds =
    [
      Conc.Sampler.Random_walk;
      Conc.Sampler.Pct { d = 3 };
      Conc.Sampler.Preemption_bounded { bound = 2 };
    ]
  in
  let budgets = if quick then [ 10; 50 ] else [ 10; 50; 250 ] in
  let seeds =
    List.init (if quick then 8 else 20) (fun i -> Int64.of_int (i + 1))
  in
  let scenarios = S.faulty () in
  Fmt.pr "@.# B15: sampled checking — detection rate vs run budget (%d faulty \
          scenarios x %d seeds per cell)@."
    (List.length scenarios) (List.length seeds);
  Fmt.pr "%-14s %8s %10s %12s %14s %14s@." "sampler" "budget" "detected"
    "mean-runs" "mean-witness" "mean-removed";
  let cells =
    List.concat_map
      (fun kind ->
        List.map
          (fun budget ->
            let points =
              List.concat_map
                (fun (s : S.t) ->
                  List.map
                    (fun seed ->
                      Workloads.Metrics.sampling_cost ~scenario:s.name
                        { (S.config s) with search = sampled ~kind ~seed budget })
                    seeds)
                scenarios
            in
            let detected =
              List.filter
                (fun (c : Workloads.Metrics.sampling_cost) -> c.sc_detected)
                points
            in
            let mean f = function
              | [] -> 0.
              | l ->
                  List.fold_left (fun a c -> a +. float_of_int (f c)) 0. l
                  /. float_of_int (List.length l)
            in
            let rate =
              float_of_int (List.length detected)
              /. float_of_int (max 1 (List.length points))
            in
            let mean_runs =
              mean (fun (c : Workloads.Metrics.sampling_cost) -> c.sc_runs)
                detected
            in
            let mean_witness =
              mean
                (fun (c : Workloads.Metrics.sampling_cost) -> c.sc_witness_len)
                detected
            in
            let mean_removed =
              mean
                (fun (c : Workloads.Metrics.sampling_cost) ->
                  c.sc_shrink_steps_removed)
                detected
            in
            Fmt.pr "%-14s %8d %9.0f%% %12.1f %14.1f %14.1f@."
              (Conc.Sampler.kind_to_string kind)
              budget (100. *. rate) mean_runs mean_witness mean_removed;
            ( Conc.Sampler.kind_to_string kind,
              budget,
              List.length points,
              List.length detected,
              rate,
              mean_runs,
              mean_witness,
              mean_removed ))
          budgets)
      kinds
  in
  let path = bench_path "BENCH_sampling.json" in
  let oc = open_out path in
  let json_row (kind, budget, points, detected, rate, mruns, mwitness, mremoved)
      =
    Printf.sprintf
      "    {\"sampler\": %S, \"budget\": %d, \"points\": %d, \"detected\": %d, \
       \"detection_rate\": %.4f, \"mean_runs_to_detect\": %.2f, \
       \"mean_witness_len\": %.2f, \"mean_steps_removed\": %.2f}"
      kind budget points detected rate mruns mwitness mremoved
  in
  Printf.fprintf oc
    "{\n  \"bench\": \"sampling_detection\",\n  \"scenarios\": %d,\n  \
     \"seeds_per_cell\": %d,\n  \"rows\": [\n%s\n  ]\n}\n"
    (List.length scenarios) (List.length seeds)
    (String.concat ",\n" (List.map json_row cells));
  close_out oc;
  Fmt.pr "# rows written to %s@." path

(* B16 — the streaming monitor service (lib/service): sustained ingest
   rate and verdict latency with >= 1000 concurrent object sessions.
   Three cells:
   - "sequential": one fetch-and-add counter per session, one round =
     every session invokes, then every session responds — so all windows
     are live at the round's midpoint and the retained-action load really
     reaches the session count; every response closes a quiescent point
     on the sequential fast path;
   - "concurrent": one exchanger per session fed overlapping swap pairs,
     so every verdict is an exhaustive resume-from-committed check;
   - "overload": the sequential traffic against a memory budget that is
     deliberately ~8x too small, driving the degradation ladder to
     count-only mid-stream.
   Wall-clock timing, hence Unix.gettimeofday (see the B14 note). *)
let figure_serve ~reduced () =
  Fmt.pr "@.# B16: streaming monitor service (%s)@."
    (if reduced then "reduced CI budget" else "full budget");
  let spec_for oid =
    let name = Ids.Oid.to_string oid in
    if String.length name > 0 && name.[0] = 'E' then
      Some (Spec_exchanger.spec ~oid ())
    else Some (Spec_counter.spec ~oid ())
  in
  let mk config =
    match Service.Core.create ~config ~spec_for () with
    | Ok t -> t
    | Error m -> Fmt.failwith "serve bench: config rejected: %s" m
  in
  let percentile sorted p =
    let n = Array.length sorted in
    if n = 0 then 0.
    else
      let rank = int_of_float (ceil (p *. float_of_int n)) - 1 in
      sorted.(max 0 (min (n - 1) rank))
  in
  (* Feed every frame; individually time the ones flagged as verdict
     frames (the responses that close a quiescent point). *)
  let drive core frames =
    let lats = ref [] in
    let t0 = Unix.gettimeofday () in
    let core =
      List.fold_left
        (fun core (frame, timed) ->
          if timed then (
            let t1 = Unix.gettimeofday () in
            let core, _ = Service.Core.feed core (Service.Proto.Line frame) in
            lats := (Unix.gettimeofday () -. t1) *. 1e6 :: !lats;
            core)
          else fst (Service.Core.feed core (Service.Proto.Line frame)))
        core frames
    in
    let elapsed = Unix.gettimeofday () -. t0 in
    let arr = Array.of_list !lats in
    Array.sort compare arr;
    (core, elapsed, arr)
  in
  let row ~cell ~sessions core elapsed lats =
    let m = Service.Core.metrics core in
    let ops = m.Service.Core.ops in
    let ops_per_sec = float_of_int ops /. elapsed in
    let p50 = percentile lats 0.50 and p99 = percentile lats 0.99 in
    let level = Service.Proto.level_to_string (Service.Core.level core) in
    Fmt.pr
      "%-12s %6d sessions %8d ops %10.0f ops/s  p50 %8.1fus  p99 %8.1fus  \
       level=%-10s changes=%d desyncs=%d@."
      cell sessions ops ops_per_sec p50 p99 level
      m.Service.Core.level_changes m.Service.Core.desyncs;
    ( cell,
      sessions,
      ops,
      elapsed,
      ops_per_sec,
      p50,
      p99,
      level,
      m.Service.Core.level_changes,
      m.Service.Core.desyncs )
  in
  let counter_rounds ~sessions ~rounds =
    List.concat
      (List.init rounds (fun r ->
           List.init sessions (fun i ->
               (Printf.sprintf "t1 inv S%d.incr ()" i, false))
           @ List.init sessions (fun i ->
               (Printf.sprintf "t1 res S%d.incr %d" i r, true))))
  in
  let sessions = if reduced then 1000 else 2000 in
  let sequential =
    let rounds = if reduced then 6 else 40 in
    let config =
      {
        Service.Config.default with
        max_sessions = sessions + 8;
        memory_budget = 4 * sessions;
      }
    in
    let core, elapsed, lats =
      drive (mk config) (counter_rounds ~sessions ~rounds)
    in
    row ~cell:"sequential" ~sessions core elapsed lats
  in
  let concurrent =
    let ex_sessions = if reduced then 128 else 256 in
    let rounds = if reduced then 4 else 16 in
    let config =
      {
        Service.Config.default with
        max_sessions = ex_sessions + 8;
        memory_budget = 8 * ex_sessions;
      }
    in
    let frames =
      List.concat
        (List.init rounds (fun _ ->
             List.concat
               (List.init ex_sessions (fun i ->
                    let o = Printf.sprintf "E%d" i in
                    [
                      (Printf.sprintf "t1 inv %s.exchange 1" o, false);
                      (Printf.sprintf "t2 inv %s.exchange 2" o, false);
                      (Printf.sprintf "t1 res %s.exchange (true, 2)" o, false);
                      (Printf.sprintf "t2 res %s.exchange (true, 1)" o, true);
                    ]))))
    in
    let core, elapsed, lats = drive (mk config) frames in
    row ~cell:"concurrent" ~sessions:ex_sessions core elapsed lats
  in
  let overload =
    let config =
      {
        Service.Config.default with
        max_sessions = sessions + 8;
        memory_budget = max Service.Config.default.window_max (sessions / 8);
      }
    in
    let core, elapsed, lats =
      drive (mk config) (counter_rounds ~sessions ~rounds:3)
    in
    row ~cell:"overload" ~sessions core elapsed lats
  in
  let level_of (_, _, _, _, _, _, _, level, _, _) = level in
  if level_of sequential <> "full" then
    Fmt.failwith
      "serve bench: sequential cell degraded to %s (budget should hold)"
      (level_of sequential);
  if level_of overload = "full" then
    Fmt.failwith "serve bench: overload cell never left the full level";
  let rows = [ sequential; concurrent; overload ] in
  let path = bench_path "BENCH_serve.json" in
  let oc = open_out path in
  let json_row
      (cell, sessions, ops, elapsed, ops_per_sec, p50, p99, level, changes,
       desyncs) =
    Printf.sprintf
      "    {\"cell\": %S, \"sessions\": %d, \"ops\": %d, \"elapsed_s\": \
       %.4f, \"ops_per_sec\": %.0f, \"p50_verdict_us\": %.2f, \
       \"p99_verdict_us\": %.2f, \"level\": %S, \"level_changes\": %d, \
       \"desyncs\": %d}"
      cell sessions ops elapsed ops_per_sec p50 p99 level changes desyncs
  in
  Printf.fprintf oc
    "{\n  \"bench\": \"streaming_service\",\n  \"reduced\": %b,\n  \
     \"rows\": [\n%s\n  ]\n}\n"
    reduced
    (String.concat ",\n" (List.map json_row rows));
  close_out oc;
  Fmt.pr "# rows written to %s@." path

(* B17 — durability tax and recovery-time scaling of the write-ahead
   journal (lib/service/journal). Two tables in BENCH_serve_durable.json:
   - "overhead": the B16 sequential cell re-driven with journal-before-
     apply at three durability settings (default group commit,
     flush-per-append, fsync-per-append) against a journal-less
     baseline; best-of-N wall clock per variant, and the default setting
     must stay within 25% of baseline;
   - "recovery": a crashed journal of ~N frames at three snapshot
     cadences (never / every N/10 / every N/100), recovered and replayed
     end to end; the replayed suffix must equal the frames past the last
     snapshot exactly, with nothing dropped, and the wall-clock recovery
     time per cell shows the replay-suffix scaling. *)
let figure_serve_durable ~reduced () =
  Fmt.pr "@.# B17: write-ahead journal tax and recovery scaling (%s)@."
    (if reduced then "reduced CI budget" else "full budget");
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  let scratch =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cal-b17-%d" (Unix.getpid ()))
  in
  rm_rf scratch;
  Unix.mkdir scratch 0o755;
  let spec_for oid = Some (Spec_counter.spec ~oid ()) in
  let sessions = if reduced then 400 else 1000 in
  let rounds = if reduced then 6 else 12 in
  let config =
    {
      Service.Config.default with
      max_sessions = sessions + 8;
      memory_budget = 4 * sessions;
    }
  in
  let mk () =
    match Service.Core.create ~config ~spec_for () with
    | Ok t -> t
    | Error m -> Fmt.failwith "serve-durable bench: config rejected: %s" m
  in
  let frames =
    List.concat
      (List.init rounds (fun r ->
           List.init sessions (fun i -> Printf.sprintf "t1 inv S%d.incr ()" i)
           @ List.init sessions (fun i ->
                 Printf.sprintf "t1 res S%d.incr %d" i r)))
  in
  let n_frames = List.length frames in
  let drive ?writer () =
    let t0 = Unix.gettimeofday () in
    let core =
      List.fold_left
        (fun core frame ->
          (match writer with
          | None -> ()
          | Some w ->
              ignore (Service.Journal.append w (Service.Journal.Line frame)));
          fst (Service.Core.feed core (Service.Proto.Line frame)))
        (mk ()) frames
    in
    Option.iter Service.Journal.flush writer;
    (core, Unix.gettimeofday () -. t0)
  in
  let d0 = Service.Config.default_durability in
  let variants =
    [
      ("baseline", None);
      ("journal-default", Some d0);
      ("journal-sync", Some { d0 with Service.Config.flush_every = 1 });
      ("journal-fsync",
       Some { d0 with Service.Config.flush_every = 1; fsync_every = 1 });
    ]
  in
  let reps = if reduced then 2 else 3 in
  let run_variant (name, dur) =
    let one () =
      match dur with
      | None -> snd (drive ())
      | Some durability -> (
          let dir = Filename.concat scratch name in
          rm_rf dir;
          match Service.Journal.create ~dir ~durability () with
          | Error m -> Fmt.failwith "serve-durable bench: %s" m
          | Ok w ->
              let _, elapsed = drive ~writer:w () in
              Service.Journal.close w;
              elapsed)
    in
    let elapsed = ref (one ()) in
    for _ = 2 to reps do
      elapsed := min !elapsed (one ())
    done;
    (name, !elapsed)
  in
  let overhead_rows =
    let timed = List.map run_variant variants in
    let base = List.assoc "baseline" timed in
    List.map
      (fun (name, elapsed) ->
        let pct = (elapsed /. base -. 1.) *. 100. in
        let fps = float_of_int n_frames /. elapsed in
        Fmt.pr "%-16s %8d frames %10.0f frames/s  %+6.1f%% vs baseline@."
          name n_frames fps
          (if name = "baseline" then 0. else pct);
        (name, elapsed, fps, pct))
      timed
  in
  let _, _, _, default_pct =
    List.find (fun (n, _, _, _) -> n = "journal-default") overhead_rows
  in
  if default_pct > 25. then
    Fmt.failwith
      "serve-durable bench: default journal tax %.1f%% exceeds the 25%% \
       budget"
      default_pct;
  (* recovery grid: feed + journal n frames with snapshots every
     [cadence] frames, close without a final snapshot (the kill -9
     shape), then time recover + restore + full replay. *)
  let rec_frames n =
    let v = Array.make 100 0 in
    let buf = ref [] in
    for i = 0 to n - 1 do
      let s = i mod 100 in
      let frame =
        if i / 100 mod 2 = 0 then Printf.sprintf "t1 inv S%d.incr ()" s
        else begin
          let r = v.(s) in
          v.(s) <- r + 1;
          Printf.sprintf "t1 res S%d.incr %d" s r
        end
      in
      buf := frame :: !buf
    done;
    List.rev !buf
  in
  let rec_n = (if reduced then 2_000 else 20_000) + 137 in
  let recovery_rows =
    List.map
      (fun cadence ->
        let dir =
          Filename.concat scratch (Printf.sprintf "rec-%d" cadence)
        in
        rm_rf dir;
        let w =
          match Service.Journal.create ~dir ~durability:d0 () with
          | Ok w -> w
          | Error m -> Fmt.failwith "serve-durable bench: %s" m
        in
        let core = ref (mk ()) in
        List.iteri
          (fun i frame ->
            ignore (Service.Journal.append w (Service.Journal.Line frame));
            core := fst (Service.Core.feed !core (Service.Proto.Line frame));
            if cadence > 0 && (i + 1) mod cadence = 0 then
              match
                Service.Journal.snapshot w
                  ~core_snapshot:(Service.Core.snapshot !core)
              with
              | Ok _ -> ()
              | Error m -> Fmt.failwith "serve-durable bench: %s" m)
          (rec_frames rec_n);
        Service.Journal.close w;
        let t0 = Unix.gettimeofday () in
        match Service.Journal.recover ~dir with
        | Error m -> Fmt.failwith "serve-durable bench: recover: %s" m
        | Ok r ->
            let restored =
              match r.Service.Journal.core_snapshot with
              | None -> mk ()
              | Some s -> (
                  match Service.Core.restore ~config ~spec_for s with
                  | Ok c -> c
                  | Error m ->
                      Fmt.failwith "serve-durable bench: restore: %s" m)
            in
            let _final =
              List.fold_left
                (fun c record ->
                  fst
                    (Service.Core.feed c
                       (Service.Journal.input_of_record record)))
                restored r.Service.Journal.records
            in
            let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
            let expect = if cadence = 0 then rec_n else rec_n mod cadence in
            if r.Service.Journal.replayed <> expect then
              Fmt.failwith
                "serve-durable bench: cadence %d replayed %d frames, \
                 expected %d"
                cadence r.Service.Journal.replayed expect;
            if r.Service.Journal.dropped_bytes <> 0 then
              Fmt.failwith "serve-durable bench: clean journal dropped bytes";
            Fmt.pr
              "recover  cadence=%-6d snapshot@%-6d replayed %6d frames in \
               %7.1f ms@."
              cadence r.Service.Journal.snapshot_seq
              r.Service.Journal.replayed ms;
            (cadence, r.Service.Journal.snapshot_seq,
             r.Service.Journal.replayed, ms))
      [ 0; rec_n / 10; rec_n / 100 ]
  in
  let path = bench_path "BENCH_serve_durable.json" in
  let oc = open_out path in
  let overhead_json (name, elapsed, fps, pct) =
    Printf.sprintf
      "    {\"variant\": %S, \"frames\": %d, \"elapsed_s\": %.4f, \
       \"frames_per_sec\": %.0f, \"overhead_pct\": %.2f}"
      name n_frames elapsed fps
      (if name = "baseline" then 0. else pct)
  in
  let recovery_json (cadence, snap_seq, replayed, ms) =
    Printf.sprintf
      "    {\"snapshot_cadence\": %d, \"frames\": %d, \"snapshot_seq\": %d, \
       \"replayed\": %d, \"recover_ms\": %.2f}"
      cadence rec_n snap_seq replayed ms
  in
  Printf.fprintf oc
    "{\n  \"bench\": \"serve_durable\",\n  \"reduced\": %b,\n  \
     \"overhead\": [\n%s\n  ],\n  \"recovery\": [\n%s\n  ]\n}\n"
    reduced
    (String.concat ",\n" (List.map overhead_json overhead_rows))
    (String.concat ",\n" (List.map recovery_json recovery_rows));
  close_out oc;
  rm_rf scratch;
  Fmt.pr "# rows written to %s@." path

(* The fuzz pass (make fuzz-smoke): one fixed-seed sampled check per
   scenario — every positive must come out clean, every faulty one must be
   detected, within the per-class budget. Prints the first minimized
   failure report in full, as the smoke test of the witness renderer. *)
let fuzz_pass () =
  let failures = ref 0 in
  let printed_witness = ref false in
  let judge name expect_ok (r : Verify.Obligations.report) =
    let ok = Verify.Obligations.ok r in
    let verdict =
      if ok = expect_ok then "ok"
      else begin
        incr failures;
        "MISMATCH"
      end
    in
    Fmt.pr "%-34s expect_ok=%-5b runs=%-5d %s@." name expect_ok
      r.Verify.Obligations.runs verdict;
    if (not ok) && not !printed_witness then begin
      printed_witness := true;
      match r.Verify.Obligations.problems with
      | p :: _ ->
          Fmt.pr "@.# first minimized failure report (witness renderer smoke):@.";
          Fmt.pr "%s@.@." p.Verify.Obligations.message
      | [] -> ()
    end
  in
  Fmt.pr "== fuzz: fixed-seed sampled pass over every scenario ==@.";
  List.iter
    (fun (s : S.t) ->
      let budget = if s.expect_ok then 200 else 2000 in
      judge s.name s.expect_ok
        (O.check { (S.config s) with search = sampled budget }))
    (S.all ());
  List.iter
    (fun (d : S.durable) ->
      let budget = if d.d_expect_ok then 200 else 3000 in
      judge d.d_name d.d_expect_ok
        (O.check { (S.durable_config d) with search = sampled budget }))
    (S.durable_all ());
  if !failures > 0 then
    Fmt.failwith "fuzz: %d scenario(s) mismatched their expected verdict"
      !failures;
  Fmt.pr "@.fuzz: all scenarios matched their expected verdicts.@."

(* B9 — bug preemption depth (iterative context bounding) for the faulty
   objects: how few context switches expose each bug. *)
let figure_bug_depth () =
  Fmt.pr "@.# B9: preemption depth of the injected bugs (CHESS-style)@.";
  let depth (s : S.t) =
    let p (o : Conc.Runner.outcome) =
      Result.is_ok (Verify.Obligations.check_outcome ~spec:s.spec ~view:s.view o)
    in
    match Conc.Explore.failure_depth ~setup:s.setup ~fuel:s.fuel ~max_bound:4 ~p () with
    | `Fails_at (d, _) -> Fmt.str "%d preemptions" d
    | `Holds _ -> "not found within bound 4"
  in
  List.iter
    (fun (s : S.t) -> Fmt.pr "%-28s %s@." s.name (depth s))
    [ S.faulty_counter (); S.faulty_stack (); S.faulty_exchanger (); S.faulty_elim_queue () ]

let figure_verification_cost () =
  Fmt.pr "@.# B5b: verification run counts (modularity payoff, exact)@.";
  let count (s : S.t) =
    let r = O.check (exhaustive s) in
    (r.O.runs, O.ok r)
  in
  let rc, okc = count (S.elim_stack_push_pop ~k:1 ()) in
  let ra, oka = count (S.elim_stack_push_pop ~abstract:true ~k:1 ()) in
  Fmt.pr "%-42s %10d interleavings, ok=%b@." "elim-stack over concrete exchanger" rc okc;
  Fmt.pr "%-42s %10d interleavings, ok=%b@." "elim-stack over abstract exchanger" ra oka;
  Fmt.pr "%-42s %9.1fx@." "state-space reduction"
    (float_of_int rc /. float_of_int (max 1 ra))

let () =
  match mode with
  | `Crash ->
      Fmt.pr "== CAL benchmark harness (crash-recovery figure) ==@.";
      figure_crash ();
      Fmt.pr "@.done.@."
  | `Parallel ->
      Fmt.pr "== CAL benchmark harness (parallel-exploration figure) ==@.";
      figure_parallel ();
      Fmt.pr "@.done.@."
  | `Sampling ->
      Fmt.pr "== CAL benchmark harness (sampled-checking figure) ==@.";
      figure_sampling ();
      Fmt.pr "@.done.@."
  | `Dpor ->
      Fmt.pr "== CAL benchmark harness (source-DPOR figure) ==@.";
      figure_dpor ();
      Fmt.pr "@.done.@."
  | `Serve ->
      Fmt.pr "== CAL benchmark harness (streaming-service figure) ==@.";
      figure_serve ~reduced:false ();
      Fmt.pr "@.done.@."
  | `Serve_smoke ->
      Fmt.pr "== CAL benchmark harness (streaming-service figure, reduced) ==@.";
      figure_serve ~reduced:true ();
      Fmt.pr "@.done.@."
  | `Serve_durable ->
      Fmt.pr "== CAL benchmark harness (journal-durability figure) ==@.";
      figure_serve_durable ~reduced:false ();
      Fmt.pr "@.done.@."
  | `Serve_durable_smoke ->
      Fmt.pr
        "== CAL benchmark harness (journal-durability figure, reduced) ==@.";
      figure_serve_durable ~reduced:true ();
      Fmt.pr "@.done.@."
  | `Fuzz -> fuzz_pass ()
  | `Explore ->
      Fmt.pr "== CAL benchmark harness (B12 exploration engine cost) ==@.";
      figure_explore ();
      Fmt.pr "@.done.@."
  | `Faults ->
      (* Exactly the figures `make bench-faults` regenerates. *)
      Fmt.pr "== CAL benchmark harness (faults: fault + timeout figures) ==@.";
      figure_fault_sweep ();
      figure_timeouts ();
      figure_explore ();
      figure_crash ();
      Fmt.pr "@.done.@."
  | `Smoke ->
      Fmt.pr "== CAL benchmark harness (smoke: every figure, reduced) ==@.";
      figure_fault_sweep ();
      figure_timeouts ();
      figure_explore ();
      figure_dpor ();
      figure_crash ();
      figure_parallel ();
      figure_sampling ();
      Fmt.pr "@.done.@."
  | `Full ->
      Fmt.pr "== CAL benchmark harness%s ==@." (if quick then " (quick)" else "");
      run_bechamel (b1 @ b2 @ b3 @ b5 @ b6 @ b7 @ b8);
      figure_stack_throughput ();
      figure_exchanger_success ();
      figure_sync_queue ();
      figure_fault_sweep ();
      figure_timeouts ();
      figure_explore ();
      figure_dpor ();
      figure_crash ();
      figure_parallel ();
      figure_sampling ();
      figure_serve ~reduced:quick ();
      figure_serve_durable ~reduced:quick ();
      figure_verification_cost ();
      figure_bug_depth ();
      Fmt.pr "@.done.@."
