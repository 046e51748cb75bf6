open Cal
open Conc
open Prog.Infix

type pending = { p_tid : Ids.Tid.t; p_data : Value.t; answer : Value.t option ref }

type t = {
  ax_oid : Ids.Oid.t;
  slot : pending option ref;
  ctx : Ctx.t;
  instrument : bool;
  log_history : bool;
}

let create ?(oid = Ids.Oid.v "E") ?(instrument = true) ?(log_history = true) ctx =
  Ctx.forbid_undo ctx (* the slot and the answers are plain refs *);
  { ax_oid = oid; slot = ref None; ctx; instrument; log_history }

let oid t = t.ax_oid
let log_elem t e = if t.instrument then Ctx.log_element t.ctx e

(* Two atomic steps. Step 1 either matches a registered partner — the swap
   takes effect there, one CA-element answering both threads — or registers
   this thread's offer. Step 2 (registrants only) collects the partner's
   answer, or withdraws and fails. Failure needs no extra nondeterminism:
   it happens exactly when the scheduler runs the resolve step before any
   partner matched, which is also the only situation in which the
   specification permits it. *)
let exchange_body t ~tid v =
  let* outcome =
    Prog.atomically ~label:"abs-match" (fun () ->
        match !(t.slot) with
        | Some p when !(p.answer) = None && not (Ids.Tid.equal p.p_tid tid) ->
            p.answer := Some (Value.ok v);
            t.slot := None;
            log_elem t (Spec_exchanger.swap ~oid:t.ax_oid p.p_tid p.p_data tid v);
            Prog.return (`Swapped p.p_data)
        | _ ->
            let me = { p_tid = tid; p_data = v; answer = ref None } in
            t.slot := Some me;
            Prog.return (`Registered me))
  in
  match outcome with
  | `Swapped partner_value -> Prog.return (Value.ok partner_value)
  | `Registered me ->
      Prog.atomically ~label:"abs-resolve" (fun () ->
          match !(me.answer) with
          | Some r -> Prog.return r
          | None ->
              (match !(t.slot) with
              | Some p when p == me -> t.slot := None
              | _ -> ());
              log_elem t (Spec_exchanger.failure ~oid:t.ax_oid tid v);
              Prog.return (Value.fail v))

let exchange t ~tid v =
  let body = exchange_body t ~tid v in
  if t.log_history then
    Harness.call t.ctx ~tid ~oid:t.ax_oid ~fid:Spec_exchanger.fid_exchange ~arg:v body
  else body

let spec t = Spec_exchanger.spec ~oid:t.ax_oid ()
let view _t = View.identity
