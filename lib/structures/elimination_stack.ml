open Cal
open Conc
open Prog.Infix

type t = {
  es_oid : Ids.Oid.t;
  stack : Treiber_stack.t;
  ar : Elim_array.t;
  ctx : Ctx.t;
  log_history : bool;
  backoff : Backoff.policy option;
  degrade_after : int option;
}

let pop_sentinel = Value.str "INF"

let create ?(oid = Ids.Oid.v "ES") ?(stack_oid = Ids.Oid.v "S")
    ?(array_oid = Ids.Oid.v "AR") ?(instrument = true) ?(log_history = true)
    ?(factory = Elim_array.concrete) ?backoff ?degrade_after ~k ~slot_strategy ctx =
  (match degrade_after with
  | Some k when k <= 0 -> invalid_arg "Elimination_stack.create: degrade_after <= 0"
  | _ -> ());
  (* a backoff window and its generator live outside the trail *)
  if Option.is_some backoff then Ctx.forbid_undo ctx;
  {
    es_oid = oid;
    stack = Treiber_stack.create ~oid:stack_oid ~instrument ~log_history:false ctx;
    ar =
      Elim_array.create ~oid:array_oid ~instrument ~log_history:false ~factory ~k
        ~slot_strategy ctx;
    ctx;
    log_history;
    backoff;
    degrade_after;
  }

let oid t = t.es_oid
let stack t = t.stack
let elim_array t = t.ar

(* Graceful degradation, expressed on deadlines: [degrade_after] is a
   logical-time budget for the operation's elimination phase. The first
   degraded check — evaluated when the operation's first central-stack
   round fails — arms a deadline [degrade_after] ticks ahead on the
   operation's perceived clock (Ctx.local_now); once it passes, the
   operation stops visiting the elimination layer and retries on the
   central stack alone (pausing under the backoff policy, if any, so it
   does not convoy). The deadline is per-operation, so a single stuck
   rendezvous partner cannot poison later operations. *)
type round_state = { mutable deadline : int option; pause : unit -> unit Prog.t }

let round_state t =
  let pause =
    match Option.map Backoff.start t.backoff with
    | None -> fun () -> Prog.return ()
    | Some b -> fun () -> Backoff.pause b
  in
  { deadline = None; pause }

let degraded t ~tid rs =
  match t.degrade_after with
  | None -> false
  | Some budget -> (
      let now = Ctx.local_now t.ctx ~tid in
      match rs.deadline with
      | None ->
          (* arming happens inside a step: trail it for rollback *)
          Ctx.push_undo t.ctx (fun () -> rs.deadline <- None);
          rs.deadline <- Some (now + budget);
          false
      | Some d -> now >= d)

(* Fig. 2 lines 29–37 (with lines 33–36 skipped once degraded). *)
let push_body t ~tid v =
  let rs = round_state t in
  Prog.repeat_until (fun () ->
      let* b = Treiber_stack.push_body t.stack ~tid v in
      if Value.to_bool b then Prog.return (Some (Value.bool true))
      else if degraded t ~tid rs then
        let* () = rs.pause () in
        Prog.return None
      else
        let* r = Elim_array.exchange_body t.ar ~tid v in
        let _, d = Value.to_pair r in
        if Value.equal d pop_sentinel then Prog.return (Some (Value.bool true))
        else
          let* () = rs.pause () in
          Prog.return None)

(* Fig. 2 lines 38–47 (same degradation discipline). *)
let pop_body t ~tid =
  let rs = round_state t in
  Prog.repeat_until (fun () ->
      let* r = Treiber_stack.pop_body t.stack ~tid in
      let b, v = Value.to_pair r in
      if Value.to_bool b then Prog.return (Some (Value.ok v))
      else if degraded t ~tid rs then
        let* () = rs.pause () in
        Prog.return None
      else
        let* r = Elim_array.exchange_body t.ar ~tid pop_sentinel in
        let _, v = Value.to_pair r in
        if not (Value.equal v pop_sentinel) then Prog.return (Some (Value.ok v))
        else
          let* () = rs.pause () in
          Prog.return None)

let wrap t ~tid ~fid ~arg body =
  if t.log_history then Harness.call t.ctx ~tid ~oid:t.es_oid ~fid ~arg body else body

let push t ~tid v = wrap t ~tid ~fid:Spec_stack.fid_push ~arg:v (push_body t ~tid v)
let pop t ~tid = wrap t ~tid ~fid:Spec_stack.fid_pop ~arg:Value.unit (pop_body t ~tid)
let spec t = Spec_stack.spec ~oid:t.es_oid ~allow_spurious_failure:false ()

(* F_ES (§5): the successful central-stack operations and the mixed
   exchanges are linearization points; everything else vanishes. *)
let f_es t e =
  let es = t.es_oid in
  let o = Ca_trace.element_oid e in
  if Ids.Oid.equal o (Treiber_stack.oid t.stack) then
    match Ca_trace.element_ops e with
    | [ op ] -> (
        if Ids.Fid.equal op.fid Spec_stack.fid_push then
          match op.ret with
          | Value.Bool true ->
              Some [ Ca_trace.singleton (Spec_stack.push_op ~oid:es op.tid op.arg ~ok:true) ]
          | _ -> Some []
        else
          match op.ret with
          | Value.Pair (Value.Bool true, v) ->
              Some [ Ca_trace.singleton (Spec_stack.pop_op ~oid:es op.tid (Some v)) ]
          | _ -> Some [])
    | _ -> Some []
  else if Ids.Oid.equal o (Elim_array.oid t.ar) then
    match Ca_trace.element_ops e with
    | [ a; b ] -> (
        (* a successful swap; find the pushing side (argument ≠ ∞) *)
        let mixed =
          if Value.equal a.arg pop_sentinel && not (Value.equal b.arg pop_sentinel) then
            Some (b, a)
          else if Value.equal b.arg pop_sentinel && not (Value.equal a.arg pop_sentinel)
          then Some (a, b)
          else None
        in
        match mixed with
        | Some (pusher, popper) ->
            Some
              [
                Ca_trace.singleton (Spec_stack.push_op ~oid:es pusher.tid pusher.arg ~ok:true);
                Ca_trace.singleton (Spec_stack.pop_op ~oid:es popper.tid (Some pusher.arg));
              ]
        | None -> Some [])
    | _ -> Some []
  else None

let view t = View.compose ~own:(f_es t) ~subs:[ Elim_array.view t.ar ]
