(* Dual data structures as CA-objects (§6 of the paper).

     dune exec examples/dual_queue_demo.exe

   Scherer & Scott's dual queue makes an empty-queue dequeue wait for a
   later enqueue. Their linearizability argument needs two linearization
   points per waiting dequeue (the "request" and the "follow-up"); the
   paper observes that CA-traces dissolve the problem: the fulfilment is
   simply one CA-element containing both operations. This demo shows the
   fulfilment element, the blocked consumer, and the exhaustive
   verification. *)

open Cal
open Structures
module S = Workloads.Scenarios

let tid = Ids.Tid.of_int

let () =
  (* Force the waiting path with an explicit schedule: the dequeue runs
     first, finds nothing, and blocks; the enqueue then fulfils it. *)
  let setup ctx =
    let q = Dual_queue.create ctx in
    {
      Conc.Runner.threads =
        [| Dual_queue.deq q ~tid:(tid 0); Dual_queue.enq q ~tid:(tid 1) (Value.int 9) |];
      observe = None;
      on_label = None;
    }
  in
  let d th = { Conc.Runner.thread = th; branch = 0 } in
  let o, _ = Conc.Runner.replay ~setup [ d 0; d 0; d 1; d 1; d 1; d 0; d 0 ] in
  Fmt.pr "deq() first, then enq(9):@.%s@.@." (Timeline.render o.history);
  Fmt.pr "the fulfilment is ONE CA-element containing both operations:@.%s@.@."
    (Timeline.render_trace o.trace);

  (* A consumer with no producer simply blocks: the run deadlocks (which
     the simulator reports as an incomplete outcome), and Definition 2's
     completion machinery drops the pending operation. *)
  let lonely ctx =
    let q = Dual_queue.create ctx in
    {
      Conc.Runner.threads = [| Dual_queue.deq q ~tid:(tid 0) |];
      observe = None;
      on_label = None;
    }
  in
  let o, frontier = Conc.Runner.replay ~setup:lonely [ d 0; d 0 ] in
  Fmt.pr "a lonely deq() blocks: complete=%b, enabled decisions=%d@.@."
    o.Conc.Runner.complete (List.length frontier);

  (* Exhaustive verification of both scenarios. *)
  List.iter
    (fun (sc : S.t) ->
      let report = Verify.Obligations.check (S.config sc) in
      Fmt.pr "%-28s %a@." sc.name Verify.Obligations.pp_report report)
    [ S.dual_queue_enq_deq (); S.dual_queue_two_consumers () ];

  (* And the elimination-backed FIFO queue: same idea, but elimination is
     only legal on an empty queue — FIFO survives. *)
  let sc = S.elim_queue_fifo () in
  let report = Verify.Obligations.check (S.config sc) in
  Fmt.pr "%-28s %a@." sc.name Verify.Obligations.pp_report report
