open Cal
open Conc

type t = {
  r_oid : Ids.Oid.t;
  cell : Value.t ref;
  init : Value.t;
  ctx : Ctx.t;
  instrument : bool;
  log_history : bool;
}

let create ?(oid = Ids.Oid.v "R") ?(init = Value.int 0) ?(instrument = true)
    ?(log_history = true) ctx =
  Ctx.forbid_undo ctx (* the value is a plain ref *);
  { r_oid = oid; cell = ref init; init; ctx; instrument; log_history }

let oid t = t.r_oid
let log_op t op = if t.instrument then Ctx.log_element t.ctx (Ca_trace.singleton op)

let read_body t ~tid =
  Prog.atomic ~label:"reg-read" (fun () ->
      let v = !(t.cell) in
      log_op t (Spec_register.read_op ~oid:t.r_oid tid v);
      v)

let write_body t ~tid v =
  Prog.atomic ~label:"reg-write" (fun () ->
      t.cell := v;
      log_op t (Spec_register.write_op ~oid:t.r_oid tid v);
      Value.unit)

let read t ~tid =
  if t.log_history then
    Harness.call t.ctx ~tid ~oid:t.r_oid ~fid:Spec_register.fid_read ~arg:Value.unit
      (read_body t ~tid)
  else read_body t ~tid

let write t ~tid v =
  if t.log_history then
    Harness.call t.ctx ~tid ~oid:t.r_oid ~fid:Spec_register.fid_write ~arg:v
      (write_body t ~tid v)
  else write_body t ~tid v

let value t = !(t.cell)
let spec t = Spec_register.spec ~oid:t.r_oid ~init:t.init ()
let view _t = View.identity
