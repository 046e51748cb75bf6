(* Tests for backtracking by rollback: the exploration engine restores a
   branch point in place (Runner.mark / Runner.rollback over the context's
   undo trail) for programs that declare themselves undoable, and replays
   the prefix for every other program. The oracle is the whole-prefix
   replay engine, which never backtracks at all: every outcome stream must
   equal its stream byte for byte, at every domain count, with and without
   fault plans. *)

open Conc
open Test_support
module S = Workloads.Scenarios

(* Genuinely spawn the requested worker domains even on a one-core box, as
   test_parallel does: donated chunks and their prefix replays must run. *)
let () = Unix.putenv "CAL_EXPLORE_OVERSUBSCRIBE" "1"

let t name f = Alcotest.test_case name `Quick f
let domain_counts = [ 1; 2; 4 ]

(* An outcome's bytes: every field the oracle comparison covers, marshalled
   without sharing so structurally equal outcomes give identical strings.
   A digest per run keeps a 50,000-run stream small. *)
let digest (o : Runner.outcome) =
  Digest.string
    (Marshal.to_string
       ( o.Runner.history,
         o.trace,
         o.results,
         o.complete,
         o.steps,
         o.schedule,
         o.faults,
         o.injected,
         o.fallible_steps )
       [ Marshal.No_sharing ])

let oracle ?plan ?preemption_bound ~setup ~fuel () =
  let out = ref [] in
  let stats =
    Explore.exhaustive_via_replay ?plan ~setup ~fuel ?preemption_bound
      ~f:(fun o -> out := digest o :: !out)
      ()
  in
  (stats, List.rev !out)

let engine ?plan ?preemption_bound ~domains ~setup ~fuel () =
  let stats, accs =
    Explore.exhaustive_collect ?plan ~domains ~setup ~fuel ?preemption_bound
      ~init:(fun () -> ref [])
      ~f:(fun acc o -> acc := digest o :: !acc)
      ()
  in
  (stats, List.concat_map (fun acc -> List.rev !acc) (Array.to_list accs))

let rec first_difference i xs ys =
  match (xs, ys) with
  | [], [] -> None
  | x :: xs, y :: ys ->
      if String.equal x y then first_difference (i + 1) xs ys else Some i
  | _ -> Some i

let check_against_oracle ?plan ?preemption_bound name ~setup ~fuel =
  let o_stats, expected = oracle ?plan ?preemption_bound ~setup ~fuel () in
  List.iter
    (fun domains ->
      let stats, actual =
        engine ?plan ?preemption_bound ~domains ~setup ~fuel ()
      in
      let what = Fmt.str "%s fuel=%d domains=%d" name fuel domains in
      Alcotest.(check int) (what ^ ": runs") o_stats.Explore.runs
        stats.Explore.runs;
      Alcotest.(check int) (what ^ ": nodes") o_stats.Explore.nodes
        stats.Explore.nodes;
      match first_difference 0 expected actual with
      | None -> ()
      | Some i ->
          Alcotest.failf "%s: outcome %d differs from the replay oracle's" what
            i)
    domain_counts

(* Scenarios whose oracle sweep at their own fuel takes more than a few
   seconds; they are covered at fuel 12 only. *)
let oracle_too_slow = [ "exchanger-trio" ]

let test_every_scenario () =
  List.iter
    (fun (s : S.t) ->
      let fuels =
        if List.mem s.name oracle_too_slow then [ 12 ] else [ 12; s.fuel ]
      in
      List.iter
        (fun fuel ->
          check_against_oracle ?preemption_bound:s.bound s.name ~setup:s.setup
            ~fuel)
        fuels)
    (S.all ())

(* Fault-state rollback: Fail_step counters, stall windows, fired faults,
   fallible labels, crash points and the clock skew of a Delay all move
   inside a step and must come back with the branch point. *)
let test_fault_sweep () =
  let s = S.exchanger_timed_pair () in
  let plans =
    Fault.
      [
        [ Fail_step { label = "init-cas"; nth = 1 } ];
        [ Fail_step { label = "init-cas"; nth = 2 } ];
        [ Fail_step { label = "cancel-cas"; nth = 1 } ];
        [
          Fail_step { label = "xchg-cas"; nth = 1 };
          Fail_step { label = "clean-cas"; nth = 1 };
        ];
        [ Stall { thread = 0; at_step = 1; for_steps = 3 } ];
        [ Stall { thread = 1; at_step = 0; for_steps = 2 } ];
        [ Delay { thread = 0; factor = 2 } ];
        [
          Delay { thread = 1; factor = 3 };
          Fail_step { label = "init-cas"; nth = 1 };
        ];
        [
          Stall { thread = 0; at_step = 2; for_steps = 2 };
          Fail_step { label = "cancel-cas"; nth = 1 };
        ];
        [ Crash { thread = 1; at_step = 2 } ];
      ]
  in
  List.iter
    (fun plan ->
      check_against_oracle ~plan
        (Fmt.str "%s under %a" s.name Fault.pp_plan plan)
        ~setup:s.setup ~fuel:s.fuel)
    plans

let replayed ~setup ~fuel =
  (Explore.exhaustive ~setup ~fuel ~f:ignore ()).Explore.replayed_steps

let test_cell_only_never_replays () =
  List.iter
    (fun (s : S.t) ->
      Alcotest.(check int)
        (s.name ^ ": replayed steps at 1 domain")
        0
        (replayed ~setup:s.setup ~fuel:12))
    [ S.exchanger_pair (); S.elim_stack_push_pop ~k:1 (); S.sync_queue_pair () ]

(* The opt-in rule: each of these must fall back to prefix replay. *)
let test_opt_outs_replay () =
  let with_observe (s : S.t) ctx =
    { (s.setup ctx) with Runner.observe = Some ignore }
  in
  let bare_ref _ctx =
    let cell = ref 0 in
    let th =
      Prog.bind (Prog.read cell) (fun v ->
          Prog.bind (Prog.write cell (v + 1)) (fun () ->
              Prog.return (Cal.Value.int v)))
    in
    { Runner.threads = [| th; th |]; observe = None; on_label = None }
  in
  let positive name n =
    check_bool (Fmt.str "%s: replays (%d steps)" name n) true (n > 0)
  in
  let counter = S.counter_incrs ~n:3 in
  positive counter.name (replayed ~setup:counter.setup ~fuel:counter.fuel);
  positive "exchanger-pair with an observe hook"
    (replayed ~setup:(with_observe (S.exchanger_pair ())) ~fuel:12);
  positive "undeclared bare-ref program" (replayed ~setup:bare_ref ~fuel:12);
  let d = List.hd (S.durable_all ()) in
  positive (d.S.d_name ^ " (durable)")
    (Explore.exhaustive_durable ~plan:[] ~setup:d.S.d_setup ~fuel:d.S.d_fuel
       ~f:ignore ())
      .Explore.replayed_steps

(* The trail holds the writes of the current path and nothing more: at
   every delivered outcome its length equals a straight replay's of the
   same schedule (setup entries plus the path's writes, since a straight
   run never rolls back), and the finished sweep is back at the setup's
   length. *)
let test_trail_bound () =
  List.iter
    (fun (s : S.t) ->
      let setup_len =
        Ctx.trail_length (Runner.ctx (Runner.start ~setup:s.setup ()))
      in
      let live = ref None in
      let setup ctx =
        live := Some ctx;
        s.setup ctx
      in
      let ctx () = Option.get !live in
      let longest = ref 0 in
      let _ =
        Explore.exhaustive ~setup ~fuel:12 ~f:(fun o ->
            let e = Runner.start ~setup:s.setup () in
            List.iter (fun d -> ignore (Runner.step e d)) o.Runner.schedule;
            let path = Ctx.trail_length (Runner.ctx e) in
            let held = Ctx.trail_length (ctx ()) in
            if held > path then
              Alcotest.failf
                "%s: trail holds %d entries at a leaf whose path wrote %d \
                 (setup %d)"
                s.name held path setup_len;
            longest := max !longest path)
          ()
      in
      check_bool (s.name ^ ": some path wrote") true (!longest > setup_len);
      Alcotest.(check int)
        (s.name ^ ": trail back at setup length after the sweep")
        setup_len
        (Ctx.trail_length (ctx ())))
    [
      S.exchanger_pair ();
      S.exchanger_timed_pair ();
      S.elim_stack_push_pop ~k:1 ();
      S.sync_queue_pair ();
      S.treiber_push_pop ();
    ]

let () =
  Alcotest.run "rollback"
    [
      ( "oracle",
        [
          t "every scenario's outcome stream equals the replay oracle's"
            test_every_scenario;
          t "fault plans on the timed exchanger equal the oracle's"
            test_fault_sweep;
        ] );
      ( "opt-in",
        [
          t "cell-only scenarios never replay" test_cell_only_never_replays;
          t "counters, hooks, bare refs and durable targets replay"
            test_opt_outs_replay;
        ] );
      ("trail", [ t "the trail holds the current path's writes" test_trail_bound ]);
    ]
