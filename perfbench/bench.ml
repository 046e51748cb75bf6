(* The repository benchmark: four workloads over the CAL checker pipeline
   and the monitoring daemon.

     bench.exe --workload W --seed N --seconds S --trace 0|1
               --calc PATH --rundir DIR [--commit ID] [--smoke]

   Workloads (README.md in this directory says why each was chosen):
   - verify-modular: every Scenarios.all () scenario through
     Obligations.check_object at its own fuel and bound;
   - verify-blackbox: the faulty-elim-stack-1p4c storm at fuel 16,
     preemption bound 3, through check_black_box ~cache:false (its traced
     run also times the ~cache:true pipeline on the same storm);
   - serve-socket: `calc serve --spec exchanger` behind a Unix socket,
     resumed from a crashed journal, driven by a closed-loop client.

   With --trace 0 the run times the public entry points and prints the
   end-to-end metrics; with --trace 1 it rebuilds the same pipeline from
   each layer's public functions, times every call from outside, and
   prints the per-layer metrics. The last stdout line is the result
   object; earlier lines starting with '#' are metadata. *)

open Cal
module S = Workloads.Scenarios
module O = Verify.Obligations
module E = Conc.Explore

(* ------------------------------------------------------------ clock --- *)

let now = Monotonic_clock.now
let span t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9
let since t0 = span t0 (now ())

(* ---------------------------------------------------------- samples --- *)

let sorted_of_array a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted array. *)
let pct a p =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median l =
  let a = sorted_of_array (Array.of_list l) in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ------------------------------------------------------- result line --- *)

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (* first failures, newest first *)
  mutable metrics : (string * float * string) list;  (* reversed *)
}

let res = { attempted = 0; failed = 0; notes = []; metrics = [] }

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      res.attempted <- res.attempted + 1;
      if not ok then begin
        res.failed <- res.failed + 1;
        if List.length res.notes < 20 then res.notes <- msg :: res.notes
      end)
    fmt

let metric name value unit = res.metrics <- (name, value, unit) :: res.metrics

let json_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let print_result () =
  List.iter (fun n -> prerr_endline ("bench: FAILED " ^ n)) (List.rev res.notes);
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) res.metrics in
  if not finite then prerr_endline "bench: a metric is not a finite number";
  let fields =
    List.rev_map
      (fun (n, v, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_num v) u)
      res.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (res.failed = 0 && res.attempted > 0 && finite)
    (max 1 res.attempted) res.failed
    (String.concat ", " fields)

(* ------------------------------------------------------------- host --- *)

(* A fixed integer loop; timed at the start and the end of every run so
   the host's own speed drift can be told apart from program changes. *)
let calib_ms () =
  let t0 = now () in
  let x = ref 0x2545F491 in
  for _ = 1 to 20_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17)
  done;
  ignore (Sys.opaque_identity !x);
  since t0 *. 1e3

(* VmHWM (peak resident set) of a process, in MiB. *)
let peak_rss_mb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  In_channel.with_open_text path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.)
        | Some _ -> go ()
      in
      go ())

(* Raw samples behind a reported median, on stderr for diagnosis. *)
let log_samples name l =
  Printf.eprintf "# %s samples: %s\n%!" name
    (String.concat " " (List.map (Printf.sprintf "%.6g") (List.rev l)))

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

(* ------------------------------------------------------ verify cases --- *)

type case = { sc : S.t; fuel : int; bound : int option }

(* The B14 headline: rejection-heavy, so the checker dominates. *)
let storm ~smoke =
  let sc = S.faulty_elim_stack ~pushers:1 ~poppers:4 () in
  if smoke then { sc; fuel = 12; bound = Some 1 } else { sc; fuel = 16; bound = Some 3 }

let own (sc : S.t) = { sc; fuel = sc.fuel; bound = sc.bound }

(* [Cached] is the storm through check_black_box ~cache:true: no workload
   of its own (README.md says why), but the cache gate and the traced run
   of verify-blackbox run it. *)
type verify_kind = Modular | Blackbox | Cached

let cases ~smoke = function
  | Modular ->
      let all = S.all () in
      if smoke then
        List.filter (fun (s : S.t) -> List.mem s.name [ "exchanger-pair"; "faulty-counter" ]) all
        |> List.map own
      else List.map own all
  | Blackbox | Cached -> [ storm ~smoke ]

(* What a report says, for the determinism and cross-check gates. *)
type digest = { ok : bool; runs : int; complete : int; problems : string list }

let digest (r : O.report) =
  {
    ok = O.ok r;
    runs = r.runs;
    complete = r.complete_runs;
    problems = List.map (fun (p : O.problem) -> p.message) r.problems;
  }

let entry kind c =
  let setup = c.sc.setup and spec = c.sc.spec and fuel = c.fuel in
  match kind with
  | Modular ->
      O.check_object ~domains:1 ~setup ~spec ~view:c.sc.view ~fuel ?preemption_bound:c.bound ()
  | Blackbox | Cached ->
      O.check_black_box ~domains:1 ~cache:(kind = Cached) ~setup ~spec ~fuel
        ?preemption_bound:c.bound ()

(* The entry points explore under the library's default strategy, which
   Obligations resolves from CAL_EXPLORE_STRATEGY (kept unset by run.py)
   and otherwise takes as Dfs. [collect] explores the way
   Obligations.collect does under that strategy, so the traced pass and
   the latency sample see the histories the entry point delivers; both
   check the run count against the entry point's report, so a change of
   the default shows as a failed gate and this line is where to follow
   it. *)
let strategy = E.Dfs

let collect c ~init ~f =
  match strategy with
  | E.Dfs ->
      E.exhaustive_collect ~domains:1 ~setup:c.sc.setup ~fuel:c.fuel ?preemption_bound:c.bound
        ~init ~f ()
  | strategy ->
      E.exhaustive_strategy_collect ~strategy ~domains:1 ~setup:c.sc.setup ~fuel:c.fuel ~init ~f ()

(* ---------------------------------------------- composed verify pass --- *)

(* The same check rebuilt from the layers' public functions, for the
   traced run: Explore.exhaustive_collect for the exploration, and per
   delivered history either the obligations of Obligations.check_outcome
   (modular) or Cal_checker.check behind History.canonical_key and
   Verdict_cache (black box), each call timed from outside. *)

type layers = {
  mutable collect_s : float;  (* exhaustive_collect wall *)
  mutable callback_s : float;  (* inside the per-history callback *)
  mutable view_s : float;
  mutable spec_s : float;
  mutable reconcile_s : float;
  mutable agreement_s : float;
  mutable checker_s : float;
  mutable checker_calls : int;
  mutable states : int;
  mutable memo_hits : int;
  mutable drops : int;
  mutable key_s : float;
  mutable cache_s : float;  (* find_or_compute minus the checker it ran *)
  mutable hits : int;
  mutable misses : int;
  mutable stats : E.stats;
}

let new_layers () =
  {
    collect_s = 0.; callback_s = 0.; view_s = 0.; spec_s = 0.; reconcile_s = 0.;
    agreement_s = 0.; checker_s = 0.; checker_calls = 0; states = 0; memo_hits = 0;
    drops = 0; key_s = 0.; cache_s = 0.; hits = 0; misses = 0; stats = E.empty_stats;
  }

let named_s l =
  l.view_s +. l.spec_s +. l.reconcile_s +. l.agreement_s +. l.checker_s +. l.key_s +. l.cache_s

(* Obligations.check_outcome, one obligation at a time (same order, same
   messages). *)
let modular_traced l ~spec ~view (o : Conc.Runner.outcome) =
  let t0 = now () in
  let viewed = view o.trace in
  let t1 = now () in
  l.view_s <- l.view_s +. span t0 t1;
  let rejected = Spec.explain_rejection spec viewed in
  let t2 = now () in
  l.spec_s <- l.spec_s +. span t1 t2;
  match rejected with
  | Some msg -> Error ("spec obligation: " ^ msg)
  | None -> (
      let completion = O.reconcile o.history viewed in
      let t3 = now () in
      l.reconcile_s <- l.reconcile_s +. span t2 t3;
      match completion with
      | Error msg -> Error ("reconciliation: " ^ msg)
      | Ok completion ->
          let agreed = Agreement.check completion viewed in
          l.agreement_s <- l.agreement_s +. since t3;
          (match agreed with
          | Error msg -> Error ("agreement obligation: " ^ msg)
          | Ok _ -> Ok ()))

let checker l ~spec h () =
  let t0 = now () in
  let v = Cal_checker.check ~spec h in
  l.checker_s <- l.checker_s +. since t0;
  l.checker_calls <- l.checker_calls + 1;
  let add (s : Cal_checker.stats) =
    l.states <- l.states + s.states_explored;
    l.memo_hits <- l.memo_hits + s.memo_hits;
    l.drops <- l.drops + s.drop_sets_tried
  in
  match v with
  | Cal_checker.Accepted { stats; _ } -> add stats; Ok ()
  | Cal_checker.Rejected { reason; stats } -> add stats; Error reason

let plain_checker ~spec h () =
  match Cal_checker.check ~spec h with
  | Cal_checker.Accepted _ -> Ok ()
  | Cal_checker.Rejected { reason; _ } -> Error reason

let cached_traced l vc ~spec h =
  let t0 = now () in
  let key = History.canonical_key h in
  let t1 = now () in
  l.key_s <- l.key_s +. span t0 t1;
  let before = l.checker_s in
  let v = Verdict_cache.find_or_compute vc ~key (checker l ~spec h) in
  l.cache_s <- l.cache_s +. since t1 -. (l.checker_s -. before);
  v

type acc = { mutable a_runs : int; mutable a_complete : int; mutable a_problems : int }

(* A seeded reservoir of (setup, schedule) pairs from the traced pass,
   replayed afterwards through Runner.replay for runner.ns_per_step. *)
type reservoir = {
  rng : Random.State.t;
  slots : ((Conc.Ctx.t -> Conc.Runner.program) * Conc.Runner.schedule) option array;
  mutable seen : int;
}

let offer r item =
  let k = Array.length r.slots in
  if r.seen < k then r.slots.(r.seen) <- Some item
  else begin
    let j = Random.State.int r.rng (r.seen + 1) in
    if j < k then r.slots.(j) <- Some item
  end;
  r.seen <- r.seen + 1

(* Runs one traced composed pass; returns a digest per case. *)
let composed_pass kind l reservoir cases =
  List.map
    (fun c ->
      let spec = c.sc.spec and view = c.sc.view in
      let vc = Verdict_cache.create () in
      let verdict =
        match kind with
        | Modular -> modular_traced l ~spec ~view
        | Blackbox -> fun o -> checker l ~spec o.Conc.Runner.history ()
        | Cached -> fun o -> cached_traced l vc ~spec o.Conc.Runner.history
      in
      let f a (o : Conc.Runner.outcome) =
        let t0 = now () in
        a.a_runs <- a.a_runs + 1;
        if o.complete then a.a_complete <- a.a_complete + 1;
        (match verdict o with Ok () -> () | Error _ -> a.a_problems <- a.a_problems + 1);
        offer reservoir (c.sc.setup, o.schedule);
        l.callback_s <- l.callback_s +. since t0
      in
      let t0 = now () in
      let stats, accs =
        collect c ~init:(fun () -> { a_runs = 0; a_complete = 0; a_problems = 0 }) ~f
      in
      l.collect_s <- l.collect_s +. since t0;
      l.stats <- E.merge_stats l.stats stats;
      l.hits <- l.hits + Verdict_cache.hits vc;
      l.misses <- l.misses + Verdict_cache.misses vc;
      let sum g = Array.fold_left (fun n a -> n + g a) 0 accs in
      let problems = sum (fun a -> a.a_problems) in
      {
        ok = problems = 0;
        runs = sum (fun a -> a.a_runs);
        complete = sum (fun a -> a.a_complete);
        (* reports keep at most ten problems; compare counts up to that *)
        problems = List.init (min 10 problems) (fun _ -> "");
      })
    cases

(* Verdict agreement between an entry-point report and a composed pass. *)
let same_verdict (d : digest) (c : digest) =
  d.ok = c.ok && d.runs = c.runs && d.complete = c.complete
  && List.length d.problems = List.length c.problems

(* ------------------------------------------------------- verify runs --- *)

let setup_only kind ~smoke = ignore (Sys.opaque_identity (cases ~smoke kind))

(* Set-up as a user waits for it: start the checker process, build the
   scenarios and their specs, exit. *)
let spawn_setup ~workload ~smoke =
  let argv =
    Array.of_list
      ([ Sys.executable_name; "--setup-only"; "--workload"; workload ]
      @ if smoke then [ "--smoke" ] else [])
  in
  let fd = devnull () in
  let t0 = now () in
  let pid = Unix.create_process argv.(0) argv fd fd fd in
  let _, st = Unix.waitpid [] pid in
  let dt = since t0 in
  Unix.close fd;
  check (st = Unix.WEXITED 0) "set-up process exited abnormally";
  dt

let expect_gate cases digests =
  List.iter2
    (fun c d ->
      check (d.ok = c.sc.S.expect_ok) "%s: verdict %s, expected %s" c.sc.name
        (if d.ok then "OK" else "PROBLEMS")
        (if c.sc.expect_ok then "OK" else "PROBLEMS"))
    cases digests

(* The cached report must equal the uncached one on runs, complete runs
   and problem messages. *)
let cache_gate kind cases digests =
  if kind = Blackbox then
    List.iter2
      (fun c d ->
        let u = digest (entry Cached c) in
        check
          (u.runs = d.runs && u.complete = d.complete && u.problems = d.problems)
          "%s: cached report differs from the uncached one" c.sc.name)
      cases digests

(* Verdict latency is measured on a seeded sample of the pass's delivered
   histories. *)
type probe = { case : case; outcome : Conc.Runner.outcome }

(* Every [stride]-th delivered history, from a seeded offset: a
   systematic sample, whose tail quantiles vary far less from seed to seed
   than those of a uniform random sample of the same size. Returns the
   sample and the number of histories delivered. *)
let sample_histories ~seed ~stride cases =
  let offset = seed mod stride and n = ref 0 and picked = ref [] in
  List.iter
    (fun c ->
      let f () (o : Conc.Runner.outcome) =
        if !n mod stride = offset then picked := { case = c; outcome = o } :: !picked;
        incr n
      in
      ignore (collect c ~init:(fun () -> ()) ~f))
    cases;
  (Array.of_list (List.rev !picked), !n)

(* One verdict on a sampled history, run once untimed so its inputs are
   in cache as they are when the engine has just delivered the history,
   then timed. *)
let time_verdict kind p =
  let spec = p.case.sc.spec in
  let run () =
    match kind with
    | Modular -> ignore (O.check_outcome ~spec ~view:p.case.sc.view p.outcome)
    | Blackbox | Cached -> ignore (plain_checker ~spec p.outcome.history ())
  in
  run ();
  let t0 = now () in
  run ();
  since t0

(* The latency sample, every round's verdict times, and the p50 and p99
   of every round. *)
type latency = {
  probes : probe array;
  mutable rounds : float array list;
  mutable p50s : float list;
  mutable p99s : float list;
}

let latency_sample ~smoke ~seed ~runs cases =
  let size = if smoke then 200 else 20_000 in
  let probes, seen = sample_histories ~seed cases ~stride:(max 1 (runs / size)) in
  check (seen = runs) "the sampled exploration delivered %d histories, the entry point %d" seen
    runs;
  { probes; rounds = []; p50s = []; p99s = [] }

(* Rounds for [budget] seconds, at least four: each round times every
   sampled verdict once. Each round starts from a collected heap, so the
   collector's work falls on the same verdicts in every round and rounds
   differ only by the host. *)
let latency_rounds kind lt ~budget =
  let t0 = now () and n = ref 0 in
  while since t0 < budget || !n < 4 do
    incr n;
    Gc.full_major ();
    let times = Array.map (time_verdict kind) lt.probes in
    lt.rounds <- times :: lt.rounds;
    let s = sorted_of_array times in
    lt.p50s <- pct s 0.50 :: lt.p50s;
    lt.p99s <- pct s 0.99 :: lt.p99s
  done

(* The host's speed comes and goes within seconds, in both directions:
   a latency round (a fraction of a second) runs either at the fast or at
   the slow speed, and the fastest repeat depends on whether a run met a
   lucky second. So every figure spans the run: verdict_s and setup_s are
   medians over its passes and spawns, and p50 and p99 are taken over
   every verdict timed in the run, so they move smoothly with the share
   of slow seconds rather than jump between the two speeds as a median
   round would. A cost that hits only some verdicts -- a major GC slice,
   say -- keeps its share. *)
let verify_untraced kind ~workload ~smoke ~seconds ~seed =
  let cases = cases ~smoke kind in
  let setups = ref [] in
  let timed_pass () =
    (* set-up is timed before every pass, so its median spans the run *)
    for _ = 1 to 8 do
      setups := spawn_setup ~workload ~smoke :: !setups
    done;
    let t0 = now () in
    let ds = List.map (fun c -> digest (entry kind c)) cases in
    (ds, since t0)
  in
  let t_run = now () in
  let first, pass_s = timed_pass () in
  (* peak memory of one check, before the benchmark holds any sample *)
  let rss = peak_rss_mb None in
  expect_gate cases first;
  let runs = List.fold_left (fun n d -> n + d.runs) 0 first in
  let lt = latency_sample ~smoke ~seed ~runs cases in
  latency_rounds kind lt ~budget:(0.15 *. pass_s);
  (* Entry passes until the time is up, each followed by latency rounds
     for a sixth of its time, so both span the run. *)
  let pass_times = ref [ pass_s ] in
  while since t_run < seconds || List.length !pass_times < 3 do
    let ds, pass_s = timed_pass () in
    pass_times := pass_s :: !pass_times;
    check (ds = first) "reports differ between passes";
    latency_rounds kind lt ~budget:(0.15 *. pass_s)
  done;
  (* untimed, after the timed work *)
  cache_gate kind cases first;
  Printf.eprintf "# latency: %d rounds over %d sampled histories\n%!" (List.length lt.p50s)
    (Array.length lt.probes);
  log_samples "round_p50_s" lt.p50s;
  log_samples "round_p99_s" lt.p99s;
  log_samples "pass_s" !pass_times;
  log_samples "setup_s" !setups;
  let verdict_s = median !pass_times in
  metric "verdict_s" verdict_s "s";
  let all = sorted_of_array (Array.concat lt.rounds) in
  metric "verdict_p50_ms" (pct all 0.50 *. 1e3) "ms";
  metric "verdict_p99_ms" (pct all 0.99 *. 1e3) "ms";
  metric "verdicts_per_s" (float_of_int (List.length cases) /. verdict_s) "1/s";
  metric "setup_s" (median !setups) "s";
  metric "peak_rss_mb" rss "MiB"

(* ------------------------------------------------ per-layer metrics --- *)

let layer_metric_names =
  [
    ("explore.self_s", "s"); ("explore.runs", "count"); ("explore.nodes", "count");
    ("explore.replayed_steps", "count"); ("explore.replayed_per_run", "steps/run");
    ("explore.races_found", "count"); ("explore.backtrack_points", "count");
    ("runner.ns_per_step", "ns");
    ("obligations.view_s", "s"); ("obligations.spec_s", "s");
    ("obligations.reconcile_s", "s"); ("obligations.agreement_s", "s");
    ("cal_checker.s", "s"); ("cal_checker.calls", "count");
    ("cal_checker.states_explored", "count"); ("cal_checker.memo_hits", "count");
    ("cal_checker.drop_sets_tried", "count");
    ("history.canonical_key_s", "s"); ("verdict_cache.s", "s");
    ("verdict_cache.hit_ratio", "ratio"); ("verdict_cache.misses", "count");
    ("core.feed_us", "us"); ("core.verdict_feed_us", "us"); ("core.snapshot_s", "s");
    ("core.commits", "count"); ("core.violations", "count"); ("core.evictions", "count");
    ("journal.append_s", "s"); ("journal.flush_s", "s"); ("journal.snapshot_s", "s");
    ("journal.recover_s", "s"); ("journal.replay_s", "s"); ("journal.bytes", "bytes");
    ("proto.print_s", "s"); ("transport.residual_p50_ms", "ms");
    ("serve.checker_time_frac", "ratio");
  ]

(* Every per-layer metric is printed on every workload; a layer the
   workload never calls reads 0. *)
let emit_layers values =
  List.iter
    (fun (name, unit) ->
      metric name (Option.value (List.assoc_opt name values) ~default:0.) unit)
    layer_metric_names

let verify_traced kind ~smoke ~seconds ~seed =
  let cases = cases ~smoke kind in
  let reservoir =
    { rng = Random.State.make [| seed |]; slots = Array.make (if smoke then 50 else 2000) None;
      seen = 0 }
  in
  (* Alternate an entry-point pass with a traced pass until the time is
     up; both must reach the same verdicts. *)
  let untraced = ref [] and traced = ref [] and cached = ref [] in
  let t_run = now () in
  while !traced = [] || since t_run < seconds do
    let t0 = now () in
    let ds = List.map (fun c -> digest (entry kind c)) cases in
    untraced := since t0 :: !untraced;
    if List.length !untraced = 1 then expect_gate cases ds;
    let l = new_layers () in
    let t1 = now () in
    let cs = composed_pass kind l reservoir cases in
    traced := (since t1, l) :: !traced;
    List.iter2
      (fun c (d, x) -> check (same_verdict d x) "%s: traced pass disagrees" c.sc.name)
      cases (List.combine ds cs);
    (* The storm also goes through the cached pipeline, whose layers no
       workload of its own measures (README.md says why). *)
    if kind = Blackbox then begin
      let l = new_layers () in
      let t2 = now () in
      let cs = composed_pass Cached l reservoir cases in
      cached := (since t2, l) :: !cached;
      List.iter2
        (fun c (d, x) -> check (same_verdict d x) "%s: traced cached pass disagrees" c.sc.name)
        cases (List.combine ds cs)
    end
  done;
  let mean_of passes f =
    List.fold_left (fun a (w, l) -> a +. f w l) 0. passes
    /. float_of_int (max 1 (List.length passes))
  in
  let mean = mean_of !traced in
  (* Self-times: exploration is the collect wall minus its callbacks;
     inside the callbacks, the named layers; the rest is harness. *)
  let explore_self _ l = l.collect_s -. l.callback_s in
  let unattributed passes = mean_of passes (fun w l -> (w -. explore_self w l -. named_s l) /. w) in
  let unattributed_frac = unattributed !traced in
  List.iter
    (fun u ->
      check (Float.abs u < 0.10) "layer self-times cover only %.1f%% of the traced wall time"
        (100. *. (1. -. u)))
    [ unattributed_frac; unattributed !cached ];
  (* Runner stepping on its own: replay the sampled schedules. *)
  let steps = ref 0 in
  let t0 = now () in
  Array.iter
    (function
      | None -> ()
      | Some (setup, schedule) ->
          let o, _ = Conc.Runner.replay ~setup schedule in
          steps := !steps + o.Conc.Runner.steps)
    reservoir.slots;
  let replay_ns = since t0 *. 1e9 in
  (* counters repeat exactly from pass to pass *)
  let l = snd (List.hd !traced) in
  let s = l.stats and count n = float_of_int n in
  emit_layers
    ([
      ("explore.self_s", mean explore_self); ("explore.runs", count s.runs);
      ("explore.nodes", count s.nodes); ("explore.replayed_steps", count s.replayed_steps);
      ("explore.replayed_per_run", count s.replayed_steps /. count (max 1 s.runs));
      ("explore.races_found", count s.races_found);
      ("explore.backtrack_points", count s.backtrack_points);
      ("runner.ns_per_step", replay_ns /. count (max 1 !steps));
      ("obligations.view_s", mean (fun _ l -> l.view_s));
      ("obligations.spec_s", mean (fun _ l -> l.spec_s));
      ("obligations.reconcile_s", mean (fun _ l -> l.reconcile_s));
      ("obligations.agreement_s", mean (fun _ l -> l.agreement_s));
      ("cal_checker.s", mean (fun _ l -> l.checker_s));
      ("cal_checker.calls", count l.checker_calls);
      ("cal_checker.states_explored", count l.states);
      ("cal_checker.memo_hits", count l.memo_hits);
      ("cal_checker.drop_sets_tried", count l.drops);
      ("history.canonical_key_s", mean_of !cached (fun _ l -> l.key_s));
      ("verdict_cache.s", mean_of !cached (fun _ l -> l.cache_s));
    ]
  @ (match !cached with
    | (_, l) :: _ ->
        [ ("verdict_cache.hit_ratio", count l.hits /. count (max 1 (l.hits + l.misses)));
          ("verdict_cache.misses", count l.misses) ]
    | [] -> []));
  metric "trace.overhead_frac" ((median (List.map fst !traced) /. median !untraced) -. 1.) "ratio";
  metric "trace.unattributed_frac" unattributed_frac "ratio"

(* ------------------------------------------------------ serve traffic --- *)

(* Exchanger windows, one per closed-loop round trip. Object ids: R* for
   the crashed prefix, E<conn>x<i> for the load pools, V<conn>x<n> for
   invalid windows (each on a fresh id, since a violation latches). *)

type expect = Commit of int | Violation

(* The window classes of the mix. Pairs and program P are concurrent and
   go to Cal_checker; a solo exchange takes the sequential fast path. *)
type cls = Pair | Prog_p | Solo | Invalid

let classes = [ (Pair, "pair"); (Prog_p, "program_p"); (Solo, "solo"); (Invalid, "invalid") ]
let concurrent = function Pair | Prog_p -> true | Solo | Invalid -> false

(* A window as sent. *)
type window = { oid : string; lines : string list; expect : expect; cls : cls }

(* A window before it is given an object id. *)
type shape = {
  frames : string -> string list;
  ops : int;  (* 0 for an invalid window *)
  kind : cls;
}

let ex oid t verb arg = Printf.sprintf "t%d %s %s.exchange %s" t verb oid arg

(* The seeded mix: half pair swaps, 15% the paper's program P, the rest
   solo failed exchanges. The shares are a choice, not a measurement of
   any deployment: two thirds of the windows go to the checker and a third
   take the fast path, so a change to either shows. The traced run reports
   each class's measured share of windows and of in-process time. *)
let valid_shape rng =
  let r = Random.State.int rng 1000 in
  let a = Random.State.int rng 1000 and b = Random.State.int rng 1000
  and c = Random.State.int rng 1000 in
  let ok v = Printf.sprintf "(true, %d)" v and no v = Printf.sprintf "(false, %d)" v in
  let i = string_of_int in
  if r < 500 then
    { frames = (fun o ->
          [ ex o 1 "inv" (i a); ex o 2 "inv" (i b); ex o 1 "res" (ok b); ex o 2 "res" (ok a) ]);
      ops = 2; kind = Pair }
  else if r < 650 then
    (* three overlapping exchanges, two swap, one fails *)
    { frames = (fun o ->
          [ ex o 1 "inv" (i a); ex o 2 "inv" (i b); ex o 3 "inv" (i c);
            ex o 1 "res" (ok b); ex o 2 "res" (ok a); ex o 3 "res" (no c) ]);
      ops = 3; kind = Prog_p }
  else { frames = (fun o -> [ ex o 1 "inv" (i a); ex o 1 "res" (no a) ]); ops = 1; kind = Solo }

(* A lone exchange claiming a partner: no CA-trace explains it. *)
let invalid_shape rng =
  let a = Random.State.int rng 1000 in
  { frames = (fun o -> [ ex o 1 "inv" (string_of_int a); ex o 1 "res" (Printf.sprintf "(true, %d)" (a + 1)) ]);
    ops = 0; kind = Invalid }

(* Each connection replays one seeded script of [script_len] windows over
   its pool, round robin, with one invalid window at a seeded slot. The
   script repeats until the time is up, so every window is measured many
   times under the same daemon state. *)
let script_len = 1000

(* Invalid windows per connection: each leaves a latched session that
   snapshots carry for good; past the cap the slot sends a valid window. *)
let max_invalid = 32

let script ~seed =
  let rng = Random.State.make [| seed |] in
  let bad = Random.State.int rng script_len in
  Array.init script_len (fun i -> if i = bad then invalid_shape rng else valid_shape rng)

(* Daemon knobs. Ticks every 16 frames keep reaping live; a snapshot
   every 256 ticks (4096 frames, about 1,200 windows) stalls well under
   1% of windows, so verdict_p99_ms stays clear of the stalled ones. *)
let tick_every = 16
let snapshot_every = 256
let pool_size = 48  (* per connection: revisits every ~20 ticks, under the 64-tick idle timeout *)
let conns = 2

let serve_flags ~journal =
  [ "serve"; "--spec"; "exchanger"; "--journal"; journal;
    "--tick-every"; string_of_int tick_every;
    "--snapshot-every"; string_of_int snapshot_every ]

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let copy_dir src dst =
  rm_rf dst;
  Unix.mkdir dst 0o755;
  Array.iter
    (fun n ->
      let data = In_channel.with_open_bin (Filename.concat src n) In_channel.input_all in
      Out_channel.with_open_bin (Filename.concat dst n) (fun oc ->
          Out_channel.output_string oc data))
    (Sys.readdir src)

let dir_bytes dir =
  Array.fold_left
    (fun n f -> n + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

(* The crashed journal every set-up recovers from: a prefix of traffic on
   the R* objects, journalled by a daemon SIGKILLed mid-stream. Prepared
   once per run, untimed. *)
let prepare_crashed ~calc ~rundir ~seed ~snapshots =
  let rng = Random.State.make [| seed + 7919 |] in
  (* Kill a fixed 3,072 frames past the newest snapshot, so every seed
     leaves recovery the same amount of journal to replay. *)
  let crash_at = (snapshots * snapshot_every * tick_every) + 3072 in
  let file = Filename.concat rundir "prefix.txt" in
  let frames = ref 0 and n = ref 0 in
  Out_channel.with_open_text file (fun oc ->
      while !frames < crash_at + 64 do
        let oid = Printf.sprintf "R%d" (!n mod 128) in
        incr n;
        List.iter
          (fun l -> incr frames; output_string oc l; output_char oc '\n')
          ((valid_shape rng).frames oid)
      done);
  let dir = Filename.concat rundir "crashed" in
  let argv =
    Array.of_list
      ((calc :: serve_flags ~journal:dir)
      @ [ "--crash-after-frames"; string_of_int crash_at; file ])
  in
  let fd = devnull () in
  let pid = Unix.create_process calc argv fd fd fd in
  let _, st = Unix.waitpid [] pid in
  Unix.close fd;
  check (st = Unix.WSIGNALED Sys.sigkill) "crash preparation: daemon was not killed";
  dir

(* Daemons still running, each with the read end of its stderr pipe;
   main stops them whatever happens. *)
let live = ref []

let forget pid =
  List.iter (fun (p, fd) -> if p = pid then Unix.close fd) !live;
  live := List.filter (fun (p, _) -> p <> pid) !live

let stop_daemon pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let st =
    match Unix.waitpid [] pid with
    | _, st -> st
    | exception Unix.Unix_error _ -> Unix.WEXITED 255
  in
  forget pid;
  st

let try_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

(* The first line the daemon writes to [fd], waiting at most [limit]
   seconds; None if it closes the pipe or stays silent. *)
let first_line fd ~limit =
  let buf = Bytes.create 4096 in
  let t0 = now () in
  let rec go acc =
    match String.index_opt acc '\n' with
    | Some i -> Some (String.sub acc 0 i)
    | None -> (
        match Unix.select [ fd ] [] [] (Float.max 0. (limit -. since t0)) with
        | [], _, _ -> None
        | _ ->
            let n = Unix.read fd buf 0 (Bytes.length buf) in
            if n = 0 then None else go (acc ^ Bytes.sub_string buf 0 n))
  in
  go ""

(* Spawn `calc serve --resume` on a fresh copy of the crashed journal and
   time it until the socket accepts. The daemon reports its recovery on
   stderr just before it opens the journal and binds the socket, so the
   wait blocks on that pipe, leaving the CPU to the recovery it times,
   and polls the socket only for the last few steps. *)
let spawn_daemon ~calc ~rundir ~crashed ~rep =
  let journal = Filename.concat rundir (Printf.sprintf "journal%d" rep) in
  let sock = Filename.concat rundir (Printf.sprintf "d%d.sock" rep) in
  copy_dir crashed journal;
  let argv =
    Array.of_list
      ((calc :: serve_flags ~journal) @ [ "--resume"; "--listen"; sock; "--max-conns"; "8" ])
  in
  let log = Unix.openfile (Filename.concat rundir (Printf.sprintf "daemon%d.log" rep))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let fd = devnull () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid = Unix.create_process calc argv fd log err_w in
  Unix.close err_w;
  live := (pid, err_r) :: !live;
  let rec wait () =
    match try_connect sock with
    | Some probe ->
        let dt = since t0 in
        Unix.close probe;
        Some dt
    | None ->
        if since t0 > 60. then None
        else begin
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ ->
              Unix.sleepf 0.0002;
              wait ()
          | _ ->
              forget pid;
              None
        end
  in
  let dt =
    match first_line err_r ~limit:60. with
    | Some l when String.starts_with ~prefix:"recovered to seq" l -> wait ()
    | Some l ->
        check false "daemon reported %S instead of its recovery" l;
        None
    | None -> None
  in
  Unix.close fd;
  Unix.close log;
  (pid, sock, dt)

(* --------------------------------------------------- closed-loop load --- *)

type conn = {
  fd : Unix.file_descr;
  id : int;
  steps : shape array;
  pool : string array;
  ops : int array;  (* operations committed so far, per pool object *)
  mutable sent_n : int;  (* windows sent *)
  mutable invalid : int;
  mutable inbuf : string;
  mutable cur : window option;
  mutable sent_at : int64;
}

(* The load is measured in blocks of [block] verdicts, about one pass of
   each connection's script: a block's wall time, and p50 and p99 over
   all its round trips, stalled ones included. *)
let block = 2 * script_len

type load = {
  mutable blocks : float list;  (* seconds per block *)
  mutable p50s : float list;  (* per block, seconds *)
  mutable p99s : float list;
  mutable verdicts : int;
  mutable sent : window list;  (* reversed send order, when recording *)
  lat : float array;  (* round trips of the current block *)
}

let write_all fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* Parse "key=value" fields of an event line. *)
let field line key =
  let k = key ^ "=" in
  List.find_map
    (fun w ->
      if String.length w > String.length k && String.sub w 0 (String.length k) = k then
        Some (String.sub w (String.length k) (String.length w - String.length k))
      else None)
    (String.split_on_char ' ' line)

(* The closed loop for [seconds]. With [pause = (every, f)], at the first
   block boundary [every] seconds after the last pause, the client stops
   sending, waits for the windows in flight, runs [f] and resumes; the
   block after the pause starts its clock when sending resumes. *)
let run_load ?pause ~sock ~seed ~seconds ~record () =
  let conns =
    List.init conns (fun c ->
        let fd =
          match try_connect sock with
          | Some fd -> fd
          | None -> failwith "cannot connect to the daemon"
        in
        {
          fd;
          id = c;
          steps = script ~seed:(seed + c);
          pool = Array.init pool_size (fun i -> Printf.sprintf "E%dx%d" c i);
          ops = Array.make pool_size 0;
          sent_n = 0;
          invalid = 0;
          inbuf = "";
          cur = None;
          sent_at = 0L;
        })
  in
  let ld = { blocks = []; p50s = []; p99s = []; verdicts = 0; sent = []; lat = Array.make block 0. } in
  let t_start = now () in
  let t_block = ref t_start and t_pause = ref t_start in
  let stopping = ref false and pausing = ref false and broken = ref false in
  let send c =
    let slot = c.sent_n mod script_len in
    let k = c.sent_n mod pool_size in
    let shape = c.steps.(slot) in
    let shape =
      if shape.ops = 0 && c.invalid >= max_invalid then c.steps.((slot + 1) mod script_len)
      else shape
    in
    let w =
      if shape.ops = 0 then begin
        let oid = Printf.sprintf "V%dx%d" c.id c.invalid in
        c.invalid <- c.invalid + 1;
        { oid; lines = shape.frames oid; expect = Violation; cls = shape.kind }
      end
      else begin
        c.ops.(k) <- c.ops.(k) + shape.ops;
        { oid = c.pool.(k); lines = shape.frames c.pool.(k); expect = Commit c.ops.(k);
          cls = shape.kind }
      end
    in
    c.sent_n <- c.sent_n + 1;
    c.cur <- Some w;
    if record then ld.sent <- w :: ld.sent;
    c.sent_at <- now ();
    write_all c.fd (String.concat "" (List.map (fun l -> l ^ "\n") w.lines))
  in
  let handle c line =
    let oid = field line "oid" in
    let verb = match String.index_opt line ' ' with Some i -> String.sub line 0 i | None -> line in
    match c.cur with
    | Some w when oid = Some w.oid && (verb = "committed" || verb = "violation") ->
        let t = now () in
        ld.lat.(ld.verdicts mod block) <- span c.sent_at t;
        ld.verdicts <- ld.verdicts + 1;
        if ld.verdicts mod block = 0 then begin
          ld.blocks <- span !t_block t :: ld.blocks;
          let s = sorted_of_array ld.lat in
          ld.p50s <- pct s 0.50 :: ld.p50s;
          ld.p99s <- pct s 0.99 :: ld.p99s;
          t_block := t;
          match pause with
          | Some (every, _) when span !t_pause t >= every -> pausing := true
          | _ -> ()
        end;
        (match (verb, w.expect) with
        | "committed", Commit n ->
            check (field line "ops" = Some (string_of_int n)) "%s: %s, expected ops=%d" w.oid line n
        | "violation", Violation -> check true ""
        | _ -> check false "%s: unexpected verdict %S" w.oid line);
        c.cur <- None;
        if not (!stopping || !pausing) then send c
    | _ when verb = "evicted" && (match oid with Some o -> o.[0] = 'R' | None -> false) ->
        () (* the recovered prefix's idle sessions being reaped *)
    | _ -> check false "unexpected daemon line %S" line
  in
  let buf = Bytes.create 65536 in
  let receive waiting =
    match Unix.select (List.map (fun c -> c.fd) waiting) [] [] 0.05 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | rs, _, _ ->
        List.iter
          (fun c ->
            if List.memq c.fd rs then begin
              let n = Unix.read c.fd buf 0 (Bytes.length buf) in
              if n = 0 then begin
                check false "daemon closed the connection";
                broken := true
              end
              else begin
                let parts = String.split_on_char '\n' (c.inbuf ^ Bytes.sub_string buf 0 n) in
                let rec go = function
                  | [ rest ] -> c.inbuf <- rest
                  | l :: more -> handle c l; go more
                  | [] -> c.inbuf <- ""
                in
                go parts
              end
            end
            else if span c.sent_at (now ()) > 10. then begin
              check false "%s: no verdict within 10 s" (Option.get c.cur).oid;
              broken := true
            end)
          waiting
  in
  List.iter send conns;
  let rec loop () =
    if not !broken then begin
      if (not !stopping) && since t_start >= seconds then stopping := true;
      match List.filter (fun c -> c.cur <> None) conns with
      | [] ->
          if !pausing && not !stopping then begin
            Option.iter (fun (_, f) -> f ()) pause;
            pausing := false;
            t_pause := now ();
            t_block := !t_pause;
            List.iter send conns;
            loop ()
          end
      | waiting ->
          receive waiting;
          loop ()
    end
  in
  loop ();
  List.iter (fun c -> Unix.close c.fd) conns;
  ld.sent <- List.rev ld.sent;
  ld

(* ---------------------------------------------------- in-process replay --- *)

let spec_for oid = Some (Spec_exchanger.spec ~oid ())
let config = Service.Config.default

let restore_core (r : Service.Journal.recovery) =
  let base =
    match r.core_snapshot with
    | None -> Service.Core.create ~config ~spec_for ()
    | Some s -> Service.Core.restore ~config ~spec_for s
  in
  match base with
  | Error e -> failwith ("restore: " ^ e)
  | Ok core ->
      List.fold_left
        (fun core record -> fst (Service.Core.feed core (Service.Journal.input_of_record record)))
        core r.records

let recover dir =
  match Service.Journal.recover ~dir with
  | Ok r -> r
  | Error e -> failwith ("recover: " ^ e)

type pipe_times = {
  mutable append : float;
  mutable flush : float;
  mutable feed : float;
  mutable feeds : int;
  mutable vfeed : float;
  mutable vfeeds : int;
  mutable csnap : float;
  mutable jsnap : float;
  mutable print : float;
  mutable window_cost : float list;  (* in-process cost of each window *)
}

(* The daemon's pump (journal, apply, tick cadence, snapshot cadence,
   event rendering) over the recorded windows, starting from the
   recovered state. With [t] every call is timed by chained clock reads
   ([lap] charges the time since the previous mark), and flushes are
   issued here every [flush_every] appends so they are priced apart. *)
let pump_replay ?t ~crashed ~dir windows =
  copy_dir crashed dir;
  let r = recover dir in
  let core = ref (restore_core r) in
  let d0 = Service.Config.default_durability in
  let durability =
    match t with None -> d0 | Some _ -> { d0 with Service.Config.flush_every = max_int }
  in
  let w =
    match Service.Journal.create ~dir ~durability ~next_seq:(r.last_seq + 1) () with
    | Ok w -> w
    | Error e -> failwith e
  in
  let lines = ref (Service.Core.metrics !core).Service.Core.frames in
  let appended = ref 0 in
  let events = ref [] in
  let mark = ref 0L in
  let start () = if t <> None then mark := now () in
  let lap charge =
    match t with
    | None -> ()
    | Some t ->
        let n = now () in
        charge t (span !mark n);
        mark := n
  in
  let append record =
    ignore (Service.Journal.append w record);
    lap (fun t d -> t.append <- t.append +. d);
    incr appended;
    if t <> None && !appended mod d0.Service.Config.flush_every = 0 then begin
      Service.Journal.flush w;
      lap (fun t d -> t.flush <- t.flush +. d)
    end
  in
  let apply ~closing input =
    let c, evs = Service.Core.feed !core input in
    core := c;
    lap (fun t d ->
        t.feed <- t.feed +. d;
        t.feeds <- t.feeds + 1;
        if closing then begin
          t.vfeed <- t.vfeed +. d;
          t.vfeeds <- t.vfeeds + 1
        end);
    List.iter (fun e -> events := Service.Proto.print_event e :: !events) evs;
    lap (fun t d -> t.print <- t.print +. d)
  in
  let tick () =
    append Service.Journal.Tick;
    apply ~closing:false Service.Proto.Tick;
    if (Service.Core.metrics !core).Service.Core.ticks mod snapshot_every = 0 then begin
      start ();
      let text = Service.Core.snapshot !core in
      lap (fun t d -> t.csnap <- t.csnap +. d);
      (match Service.Journal.snapshot w ~core_snapshot:text with
      | Ok _ -> ()
      | Error e -> failwith e);
      lap (fun t d -> t.jsnap <- t.jsnap +. d)
    end
  in
  let t_loop = now () in
  List.iter
    (fun win ->
      let t0 = now () in
      let n = List.length win.lines in
      List.iteri
        (fun i line ->
          start ();
          append (Service.Journal.Line line);
          apply ~closing:(i = n - 1) (Service.Proto.Line line);
          incr lines;
          if !lines mod tick_every = 0 then begin
            start ();
            tick ()
          end)
        win.lines;
      Option.iter (fun t -> t.window_cost <- since t0 :: t.window_cost) t)
    windows;
  let wall = since t_loop in
  Service.Journal.close w;
  (!core, List.rev !events, wall)

let serve_untraced ~calc ~rundir ~seed ~seconds ~smoke =
  let crashed = prepare_crashed ~calc ~rundir ~seed ~snapshots:(if smoke then 0 else 4) in
  let setup_times = ref [] and rep = ref 0 in
  let spawn () =
    incr rep;
    let pid, sock, dt = spawn_daemon ~calc ~rundir ~crashed ~rep:!rep in
    check (dt <> None) "daemon never accepted a connection";
    setup_times := Option.value dt ~default:nan :: !setup_times;
    (pid, sock)
  in
  let stop pid = check (stop_daemon pid = Unix.WEXITED 0) "daemon did not drain cleanly" in
  (* Set-up is timed on fresh daemons: two before the load, the load's own
     daemon, and one every 25th of the run while the load pauses, so the
     median spans the run and outlives the spawns that meet a slow disk. *)
  let respawn () =
    let pid, _ = spawn () in
    stop pid;
    rm_rf (Filename.concat rundir (Printf.sprintf "journal%d" !rep))
  in
  respawn ();
  respawn ();
  let pid, sock = spawn () in
  let ld = run_load ~pause:(seconds /. 25., respawn) ~sock ~seed ~seconds ~record:false () in
  let rss = peak_rss_mb (Some pid) in
  stop pid;
  check (ld.blocks <> []) "fewer than %d verdicts" block;
  (* the median block of each, as the verify workloads take the median
     pass *)
  let verdict_s = median ld.blocks in
  log_samples "block_s" ld.blocks;
  log_samples "block_p50_s" ld.p50s;
  log_samples "block_p99_s" ld.p99s;
  log_samples "setup_s" !setup_times;
  metric "verdict_s" verdict_s "s";
  metric "verdict_p50_ms" (median ld.p50s *. 1e3) "ms";
  metric "verdict_p99_ms" (median ld.p99s *. 1e3) "ms";
  metric "verdicts_per_s" (float_of_int block /. verdict_s) "1/s";
  metric "setup_s" (median !setup_times) "s";
  metric "peak_rss_mb" rss "MiB"

(* The median p50 over consecutive blocks of [block] values, as
   serve_untraced takes verdict_p50_ms. *)
let block_p50 values =
  let a = Array.of_list values in
  match Array.length a / block with
  | 0 -> pct (sorted_of_array a) 0.50
  | n ->
      median
        (List.init n (fun i -> pct (sorted_of_array (Array.sub a (i * block) block)) 0.50))

let serve_traced ~calc ~rundir ~seed ~seconds ~smoke =
  let crashed = prepare_crashed ~calc ~rundir ~seed ~snapshots:(if smoke then 0 else 4) in
  let pid, sock, dt = spawn_daemon ~calc ~rundir ~crashed ~rep:1 in
  check (dt <> None) "daemon never accepted a connection";
  let ld = run_load ~sock ~seed ~seconds ~record:true () in
  check (stop_daemon pid = Unix.WEXITED 0) "daemon did not drain cleanly";
  let socket_p50 = median ld.p50s in
  let windows = ld.sent in
  (* Recovery on its own, several times. *)
  let rec_times = ref [] and replay_times = ref [] in
  for i = 1 to if smoke then 2 else 5 do
    let dir = Filename.concat rundir (Printf.sprintf "recover%d" i) in
    copy_dir crashed dir;
    let t0 = now () in
    let r = recover dir in
    let t1 = now () in
    ignore (Sys.opaque_identity (restore_core r));
    replay_times := since t1 :: !replay_times;
    rec_times := span t0 t1 :: !rec_times
  done;
  (* The same windows through the pump in-process: untimed twice (the
     first pass also warms the heap and the page cache), then timed. *)
  let plain =
    List.fold_left Float.min infinity
      (List.init 2 (fun i ->
           let _, _, wall =
             pump_replay ~crashed ~dir:(Filename.concat rundir (Printf.sprintf "plain%d" i)) windows
           in
           wall))
  in
  let t =
    { append = 0.; flush = 0.; feed = 0.; feeds = 0; vfeed = 0.; vfeeds = 0; csnap = 0.;
      jsnap = 0.; print = 0.; window_cost = [] }
  in
  let jdir = Filename.concat rundir "timed" in
  let core, events, wall = pump_replay ~t ~crashed ~dir:jdir windows in
  (* The replay must reach the socket run's verdicts. *)
  let count kind =
    List.length
      (List.filter
         (fun e ->
           String.length e > String.length kind
           && String.sub e 0 (String.length kind) = kind
           && match field e "oid" with Some o -> o.[0] <> 'R' | None -> false)
         events)
  in
  let valid = List.length (List.filter (fun w -> w.expect <> Violation) windows) in
  check (count "committed " = valid) "replay committed %d windows, the socket run %d"
    (count "committed ") valid;
  check (count "violation " = List.length windows - valid) "replay violations differ";
  (* Checker cost of the concurrent windows, re-checked from outside. *)
  let l = new_layers () in
  List.iter
    (fun (w : window) ->
      if concurrent w.cls then
        match History_format.parse_history (String.concat "\n" w.lines) with
        | Ok h -> ignore (checker l ~spec:(Spec_exchanger.spec ~oid:(Ids.Oid.v w.oid) ()) h ())
        | Error e -> check false "window does not parse: %s" e)
    windows;
  (* The mix as it ran: each class's share of the windows and of their
     in-process cost. *)
  let costs = List.rev t.window_cost in
  let total_s = List.fold_left ( +. ) 0. costs and total_n = float_of_int (List.length windows) in
  let tally keep =
    List.fold_left2
      (fun (n, s) (w : window) c -> if keep w.cls then (n +. 1., s +. c) else (n, s))
      (0., 0.) windows costs
  in
  Printf.printf "# mix {%s}\n%!"
    (String.concat ", "
       (List.map
          (fun (k, name) ->
            let n, s = tally (( = ) k) in
            Printf.sprintf "%S: {\"windows\": %.4f, \"time\": %.4f}" name (n /. total_n)
              (s /. total_s))
          classes));
  let _, checker_t = tally concurrent in
  let m = Service.Core.metrics core in
  let named = t.append +. t.flush +. t.feed +. t.print +. t.csnap +. t.jsnap in
  let unattributed = (wall -. named) /. wall in
  check (Float.abs unattributed < 0.10)
    "layer self-times cover only %.1f%% of the traced replay" (100. *. (1. -. unattributed));
  emit_layers
    [
      ("cal_checker.s", l.checker_s); ("cal_checker.calls", float_of_int l.checker_calls);
      ("cal_checker.states_explored", float_of_int l.states);
      ("cal_checker.memo_hits", float_of_int l.memo_hits);
      ("cal_checker.drop_sets_tried", float_of_int l.drops);
      ("core.feed_us", t.feed /. float_of_int (max 1 t.feeds) *. 1e6);
      ("core.verdict_feed_us", t.vfeed /. float_of_int (max 1 t.vfeeds) *. 1e6);
      ("core.snapshot_s", t.csnap); ("core.commits", float_of_int m.commits);
      ("core.violations", float_of_int m.violations);
      ("core.evictions", float_of_int m.sessions_evicted);
      ("journal.append_s", t.append); ("journal.flush_s", t.flush);
      ("journal.snapshot_s", t.jsnap); ("journal.recover_s", median !rec_times);
      ("journal.replay_s", median !replay_times);
      ("journal.bytes", float_of_int (dir_bytes jdir)); ("proto.print_s", t.print);
      ("transport.residual_p50_ms", (socket_p50 -. block_p50 costs) *. 1e3);
      ("serve.checker_time_frac", checker_t /. total_s);
    ];
  metric "trace.overhead_frac" ((wall /. plain) -. 1.) "ratio";
  metric "trace.unattributed_frac" unattributed "ratio"

(* ---------------------------------------------------------------- main --- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let calc = ref "" and rundir = ref "" and commit = ref "unknown" in
  let smoke = ref false and setup_only_flag = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--calc", Arg.Set_string calc, "PATH to calc.exe");
      ("--rundir", Arg.Set_string rundir, "DIR for journals and sockets");
      ("--commit", Arg.Set_string commit, "ID recorded with the run");
      ("--smoke", Arg.Set smoke, " tiny inputs");
      ("--setup-only", Arg.Set setup_only_flag, " build the workload's inputs and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1 --calc PATH --rundir DIR";
  let kind =
    match !workload with
    | "verify-modular" -> Some Modular
    | "verify-blackbox" -> Some Blackbox
    | "serve-socket" -> None
    | w ->
        prerr_endline ("bench: unknown workload " ^ w);
        exit 2
  in
  if !setup_only_flag then begin
    Option.iter (setup_only ~smoke:!smoke) kind;
    exit 0
  end;
  (* a daemon that dies mid-run then surfaces as EPIPE, not as our death *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if !trace <> 0 && !trace <> 1 then (prerr_endline "bench: --trace is 0 or 1"; exit 2);
  let calib0 = calib_ms () in
  Printf.printf
    "# host {\"domains\": %d, \"ocaml\": %S, \"commit\": %S, \"workload\": %S, \"seed\": %d, \
     \"trace\": %d, \"calib_start_ms\": %.3f}\n%!"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version !commit !workload !seed !trace calib0;
  let seconds = !seconds and smoke = !smoke and seed = !seed in
  (try
     match (kind, !trace) with
     | Some k, 0 -> verify_untraced k ~workload:!workload ~smoke ~seconds ~seed
     | Some k, _ -> verify_traced k ~smoke ~seconds ~seed
     | None, t ->
         if not (Sys.file_exists !calc) then failwith ("no calc executable at " ^ !calc);
         rm_rf !rundir;
         mkdir_p !rundir;
         Fun.protect
           ~finally:(fun () ->
             List.iter (fun (pid, _) -> ignore (stop_daemon pid)) !live;
             rm_rf !rundir)
           (fun () ->
             if t = 0 then serve_untraced ~calc:!calc ~rundir:!rundir ~seed ~seconds ~smoke
             else serve_traced ~calc:!calc ~rundir:!rundir ~seed ~seconds ~smoke)
   with e ->
     check false "%s" (Printexc.to_string e);
     prerr_endline ("bench: " ^ Printexc.to_string e);
     print_result ();
     exit 1);
  let calib1 = calib_ms () in
  Printf.printf "# host {\"calib_end_ms\": %.3f}\n%!" calib1;
  if !trace = 1 then begin
    metric "host.calib_ms" ((calib0 +. calib1) /. 2.) "ms";
    metric "failed_frac" (float_of_int res.failed /. float_of_int (max 1 res.attempted)) "ratio"
  end;
  print_result ()
