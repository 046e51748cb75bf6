open Cal
open Conc

type t = {
  c_oid : Ids.Oid.t;
  cell : int ref;
  ctx : Ctx.t;
  instrument : bool;
  log_history : bool;
}

let create ?(oid = Ids.Oid.v "C") ?(instrument = true) ?(log_history = true) ctx =
  Ctx.forbid_undo ctx (* the count is a plain ref *);
  { c_oid = oid; cell = ref 0; ctx; instrument; log_history }

let oid t = t.c_oid
let log_op t op = if t.instrument then Ctx.log_element t.ctx (Ca_trace.singleton op)

let incr_body t ~tid =
  Prog.atomic ~label:"faa" (fun () ->
      let old = !(t.cell) in
      t.cell := old + 1;
      log_op t (Spec_counter.incr_op ~oid:t.c_oid tid old);
      Value.int old)

let get_body t ~tid =
  Prog.atomic ~label:"get" (fun () ->
      let v = !(t.cell) in
      log_op t (Spec_counter.get_op ~oid:t.c_oid tid v);
      Value.int v)

let wrap t ~tid ~fid body =
  if t.log_history then Harness.call t.ctx ~tid ~oid:t.c_oid ~fid ~arg:Value.unit body
  else body

let incr t ~tid = wrap t ~tid ~fid:Spec_counter.fid_incr (incr_body t ~tid)
let get t ~tid = wrap t ~tid ~fid:Spec_counter.fid_get (get_body t ~tid)
let value t = !(t.cell)
let spec t = Spec_counter.spec ~oid:t.c_oid ()
let view _t = View.identity
