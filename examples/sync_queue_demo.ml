(* The synchronous (handoff) queue — the exchanger's second client (§2).

     dune exec examples/sync_queue_demo.exe

   A put and a take must meet; the rendezvous is one CA-element containing
   both operations. Same-role meetings (two puts) must not transfer — the
   two-producer scenario checks this over all interleavings. *)

open Cal
open Structures
module S = Workloads.Scenarios

let () =
  let tid = Ids.Tid.of_int in
  let outcome =
    Conc.Sampler.run ~kind:Conc.Sampler.Random_walk
      ~target:
        (Conc.Runner.Program
           (fun ctx ->
             let q = Sync_queue.create ctx in
             {
               Conc.Runner.threads =
                 [| Sync_queue.put q ~tid:(tid 0) (Value.int 7); Sync_queue.take q ~tid:(tid 1) |];
               observe = None;
               on_label = None;
             }))
      ~fuel:60
      ~rng:(Conc.Rng.create ~seed:3L) ()
  in
  Fmt.pr "One run of put(7) || take():@.%s@.@." (Timeline.render outcome.history);
  Fmt.pr "raw auxiliary trace (exchanger elements):@.%s@.@."
    (Timeline.render_trace outcome.trace);
  let probe = Sync_queue.create (Conc.Ctx.create ()) in
  Fmt.pr "after F_SQ (the queue's view):@.%s@.@."
    (Timeline.render_trace (Sync_queue.view probe outcome.trace));

  List.iter
    (fun (sc : S.t) ->
      let report =
        Verify.Obligations.check_object ~setup:sc.setup ~spec:sc.spec ~view:sc.view
          ~fuel:sc.fuel ?preemption_bound:sc.bound ()
      in
      Fmt.pr "%-28s %a@." sc.name Verify.Obligations.pp_report report)
    [ S.sync_queue_pair (); S.sync_queue_two_producers () ];

  (* rendezvous rates rise with matched producer/consumer counts *)
  Fmt.pr "@.simulated handoff rates (rounds=20):@.";
  List.iter
    (fun (p, c) ->
      let r =
        Workloads.Metrics.sync_queue_handoffs ~producers:p ~consumers:c ~rounds:20
          ~fuel:100_000 ~seed:11L
      in
      Fmt.pr "  %d producers / %d consumers: %d/%d operations succeeded@." p c
        r.ops_succeeded r.ops_completed)
    [ (1, 1); (2, 2); (4, 4); (4, 1) ]
