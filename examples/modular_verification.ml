(* Modularity (§5): verify the elimination stack against the exchanger's
   SPECIFICATION instead of its implementation.

     dune exec examples/modular_verification.exe

   The elimination array accepts an exchanger factory. With the concrete
   factory it runs Fig. 1's offer/hole protocol; with the abstract factory
   it runs a specification-driven object whose swap is a single atomic
   step. The paper's point: the stack's proof only depends on the
   exchanger's CA-specification, so both must verify — and the abstract one
   explores far fewer interleavings, which is the payoff of modular
   reasoning. *)

module S = Workloads.Scenarios

let check (sc : S.t) =
  let t0 = Unix.gettimeofday () in
  let report = Verify.Obligations.check (S.config sc) in
  let dt = Unix.gettimeofday () -. t0 in
  Fmt.pr "%-40s %a  (%.2fs)@." sc.name Verify.Obligations.pp_report report dt;
  report

let () =
  Fmt.pr "elimination stack over the CONCRETE exchanger (Fig. 1 protocol):@.";
  let concrete = check (S.elim_stack_push_pop ~k:1 ()) in
  Fmt.pr "@.elimination stack over the ABSTRACT exchanger (spec-driven):@.";
  let abstract = check (S.elim_stack_push_pop ~abstract:true ~k:1 ()) in
  Fmt.pr
    "@.same verdict, %.1fx fewer interleavings — the client proof reuses the@.\
     sub-object's specification, not its code.@."
    (float_of_int concrete.runs /. float_of_int (max 1 abstract.runs));

  (* The abstract exchanger itself satisfies the same specification. *)
  let sc = S.exchanger_abstract_pair () in
  let r = Verify.Obligations.check (S.config sc) in
  Fmt.pr "@.abstract exchanger vs exchanger spec: %a@." Verify.Obligations.pp_report r
