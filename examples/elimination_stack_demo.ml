(* The elimination stack (Fig. 2), explored and verified modularly.

     dune exec examples/elimination_stack_demo.exe

   Shows the layered picture the paper paints: the raw auxiliary trace
   logged by the sub-objects (central stack S, exchangers AR[i]), the view
   functions rewriting it into elimination-stack operations, and the two
   proof obligations checked over every interleaving. *)

open Cal
open Structures
module S = Workloads.Scenarios

let () =
  (* One run under a fixed schedule, to look at the artefacts. *)
  let ctx = Conc.Ctx.create () in
  let es = Elimination_stack.create ~k:1 ~slot_strategy:Elim_array.All_slots ctx in
  let tid = Ids.Tid.of_int in
  let threads =
    [|
      Elimination_stack.push es ~tid:(tid 0) (Value.int 5);
      Elimination_stack.pop es ~tid:(tid 1);
    |]
  in
  (* force the elimination path: let both threads race on the central stack
     first, then meet in the exchanger. A random schedule finds it. *)
  let outcome =
    Conc.Sampler.run ~kind:Conc.Sampler.Random_walk
      ~target:
        (Conc.Runner.Program
           (fun ctx' ->
             let es' = Elimination_stack.create ~k:1 ~slot_strategy:Elim_array.All_slots ctx' in
             {
               Conc.Runner.threads =
                 [|
                   Elimination_stack.push es' ~tid:(tid 0) (Value.int 5);
                   Elimination_stack.pop es' ~tid:(tid 1);
                 |];
               observe = None;
               on_label = None;
             }))
      ~fuel:60
      ~rng:(Conc.Rng.create ~seed:7L) ()
  in
  ignore threads;
  ignore ctx;
  Fmt.pr "One run of push(5) || pop():@.%s@.@." (Timeline.render outcome.history);
  Fmt.pr "raw auxiliary trace (sub-object elements):@.%s@.@."
    (Timeline.render_trace outcome.trace);
  let view = Elimination_stack.view es in
  Fmt.pr "after F_ES . F_AR (the elimination stack's view):@.%s@.@."
    (Timeline.render_trace (view outcome.trace));

  (* Exhaustive verification, as in the paper's §5. *)
  let sc = S.elim_stack_push_pop ~k:1 () in
  let report = Verify.Obligations.check (S.config sc) in
  Fmt.pr "modular obligations over every interleaving: %a@."
    Verify.Obligations.pp_report report;

  (* LIFO order is real: a scenario with two pushes. *)
  let sc2 = S.elim_stack_sequential_then_pop ~k:1 in
  let report2 = Verify.Obligations.check (S.config sc2) in
  Fmt.pr "LIFO scenario (<=2 preemptions): %a@." Verify.Obligations.pp_report report2
