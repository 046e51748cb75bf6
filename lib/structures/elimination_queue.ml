open Cal
open Conc
open Prog.Infix

type reservation = { r_tid : Ids.Tid.t; answer : Value.t option ref }

type t = {
  eq_oid : Ids.Oid.t;
  q : Ms_queue.t;
  waiters : reservation list ref; (* oldest first *)
  ctx : Ctx.t;
  instrument : bool;
  log_history : bool;
  check_empty : bool;
}

let create ?(oid = Ids.Oid.v "EQ") ?(instrument = true) ?(log_history = true)
    ?(unsafe_skip_empty_check = false) ctx =
  Ctx.forbid_undo ctx (* the waiter list and the answers are plain refs *);
  let q_oid = Ids.Oid.v (Ids.Oid.to_string oid ^ ".Q") in
  {
    eq_oid = oid;
    q = Ms_queue.create ~oid:q_oid ~instrument ~log_history:false ctx;
    waiters = ref [];
    ctx;
    instrument;
    log_history;
    check_empty = not unsafe_skip_empty_check;
  }

let oid t = t.eq_oid
let log_elems t es = if t.instrument then Ctx.log_elements t.ctx es

(* The elimination transfer: only legal when the central queue is empty at
   the instant of transfer — the eliminated pair linearizes back-to-back
   there, so the dequeuer receives what would have been the oldest value. *)
let enq_body t ~tid v =
  let* eliminated =
    Prog.atomically ~label:("elim-enq@" ^ Ids.Oid.to_string t.eq_oid) (fun () ->
        match !(t.waiters) with
        | w :: rest when (not t.check_empty) || Ms_queue.contents t.q = [] ->
            w.answer := Some v;
            t.waiters := rest;
            log_elems t
              [
                Ca_trace.singleton (Spec_queue.enq_op ~oid:t.eq_oid tid v);
                Ca_trace.singleton
                  (Spec_queue.deq_op ~oid:t.eq_oid w.r_tid (Some v));
              ];
            Prog.return true
        | _ -> Prog.return false)
  in
  if eliminated then Prog.return Value.unit else Ms_queue.enq t.q ~tid v

let deq_body t ~tid =
  Prog.repeat_until (fun () ->
      let* r = Ms_queue.deq t.q ~tid in
      let ok, v = Value.to_pair r in
      if Value.to_bool ok then Prog.return (Some (Value.ok v))
      else
        (* empty: register a reservation and wait for either a direct
           transfer or the central queue to become non-empty *)
        let* res =
          Prog.atomic ~label:"elim-register" (fun () ->
              let r = { r_tid = tid; answer = ref None } in
              t.waiters := !(t.waiters) @ [ r ];
              r)
        in
        let* outcome =
          Prog.guard ~label:"elim-wait" (fun () ->
              match !(res.answer) with
              | Some v -> Some (Prog.return (`Transferred v))
              | None ->
                  if Ms_queue.contents t.q <> [] then Some (Prog.return `Retry)
                  else None)
        in
        match outcome with
        | `Transferred v -> Prog.return (Some (Value.ok v))
        | `Retry ->
            (* withdraw the reservation — unless an enqueuer answered it in
               the meantime, in which case take the transfer *)
            let* answered =
              Prog.atomically ~label:"elim-withdraw" (fun () ->
                  match !(res.answer) with
                  | Some v -> Prog.return (Some v)
                  | None ->
                      t.waiters := List.filter (fun w -> w != res) !(t.waiters);
                      Prog.return None)
            in
            (match answered with
            | Some v -> Prog.return (Some (Value.ok v))
            | None -> Prog.return None))

let enq t ~tid v =
  if t.log_history then
    Harness.call t.ctx ~tid ~oid:t.eq_oid ~fid:Spec_queue.fid_enq ~arg:v
      (enq_body t ~tid v)
  else enq_body t ~tid v

let deq t ~tid =
  if t.log_history then
    Harness.call t.ctx ~tid ~oid:t.eq_oid ~fid:Spec_queue.fid_deq ~arg:Value.unit
      (deq_body t ~tid)
  else deq_body t ~tid

let spec t = Spec_queue.spec ~oid:t.eq_oid ()

(* F_EQ: central-queue operations are re-attributed; internal empty
   observations vanish (deq never answers EMPTY at this level); transfers
   are logged directly at the elimination queue's level. *)
let f_eq t e =
  if Ids.Oid.equal (Ca_trace.element_oid e) (Ms_queue.oid t.q) then
    match Ca_trace.element_ops e with
    | [ op ] ->
        if Ids.Fid.equal op.fid Spec_queue.fid_enq then
          Some [ Ca_trace.singleton (Spec_queue.enq_op ~oid:t.eq_oid op.tid op.arg) ]
        else (
          match op.ret with
          | Value.Pair (Value.Bool true, v) ->
              Some
                [ Ca_trace.singleton (Spec_queue.deq_op ~oid:t.eq_oid op.tid (Some v)) ]
          | _ -> Some [])
    | _ -> Some []
  else None

let view t = View.compose ~own:(f_eq t) ~subs:[ Ms_queue.view t.q ]
