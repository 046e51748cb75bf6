open Cal
open Conc
open Prog.Infix

type slot_strategy = All_slots | Seeded of Rng.t

type slot = {
  slot_oid : Ids.Oid.t;
  slot_exchange : tid:Ids.Tid.t -> Value.t -> Value.t Prog.t;
  slot_exchange_timed :
    (tid:Ids.Tid.t -> deadline:int -> Value.t -> Value.t Prog.t) option;
}

type exchanger_factory = instrument:bool -> oid:Ids.Oid.t -> Conc.Ctx.t -> slot

let concrete ~instrument ~oid ctx =
  let ex = Exchanger.create ~oid ~instrument ~log_history:false ctx in
  {
    slot_oid = oid;
    slot_exchange = Exchanger.exchange_body ex;
    slot_exchange_timed = Some (Exchanger.exchange_timed_body ex);
  }

let concrete_waiting ~wait ~instrument ~oid ctx =
  let ex = Exchanger.create ~oid ~instrument ~log_history:false ~wait ctx in
  {
    slot_oid = oid;
    slot_exchange = Exchanger.exchange_body ex;
    slot_exchange_timed = Some (Exchanger.exchange_timed_body ex);
  }

let abstract ~instrument ~oid ctx =
  let ex = Abstract_exchanger.create ~oid ~instrument ~log_history:false ctx in
  {
    slot_oid = oid;
    slot_exchange = Abstract_exchanger.exchange_body ex;
    slot_exchange_timed = None;
  }

type t = {
  ar_oid : Ids.Oid.t;
  slots : slot array;
  strategy : slot_strategy;
  ctx : Ctx.t;
  log_history : bool;
}

let create ?(oid = Ids.Oid.v "AR") ?(instrument = true) ?(log_history = true)
    ?(factory = concrete) ~k ~slot_strategy ctx =
  if k <= 0 then invalid_arg "Elim_array.create: k must be positive";
  (* a seeded slot choice advances a generator the trail cannot see *)
  (match slot_strategy with Seeded _ -> Ctx.forbid_undo ctx | All_slots -> ());
  let slots =
    Array.init k (fun i ->
        let sub = Ids.Oid.v (Ids.Oid.to_string oid ^ "[" ^ string_of_int i ^ "]") in
        factory ~instrument ~oid:sub ctx)
  in
  { ar_oid = oid; slots; strategy = slot_strategy; ctx; log_history }

let oid t = t.ar_oid
let size t = Array.length t.slots

let pick_slot t =
  match t.strategy with
  | All_slots -> Prog.choose_int ~label:"slot" (Array.length t.slots)
  | Seeded rng ->
      Prog.atomic ~label:"slot" (fun () -> Rng.int rng (Array.length t.slots))

let exchange_body t ~tid v =
  let* slot = pick_slot t in
  t.slots.(slot).slot_exchange ~tid v

let exchange t ~tid v =
  let body = exchange_body t ~tid v in
  if t.log_history then
    Harness.call t.ctx ~tid ~oid:t.ar_oid ~fid:Spec_exchanger.fid_exchange ~arg:v body
  else body

let exchange_timed_body t ~tid ~deadline v =
  let* slot = pick_slot t in
  match t.slots.(slot).slot_exchange_timed with
  | Some f -> f ~tid ~deadline v
  | None ->
      invalid_arg
        (Fmt.str "Elim_array: slot %a does not support timed exchange"
           Ids.Oid.pp t.slots.(slot).slot_oid)

let exchange_timed t ~tid ~deadline v =
  let body = exchange_timed_body t ~tid ~deadline v in
  if t.log_history then
    Harness.call t.ctx ~tid ~oid:t.ar_oid ~fid:Spec_exchanger.fid_exchange ~arg:v body
  else body

let spec t = Spec_exchanger.spec ~oid:t.ar_oid ()
let exchanger_oids t = Array.to_list (Array.map (fun s -> s.slot_oid) t.slots)

let view t =
  let subs = exchanger_oids t in
  let f_ar e =
    let o = Ca_trace.element_oid e in
    if List.exists (Ids.Oid.equal o) subs then (View.rename ~from:o ~to_:t.ar_oid) e
    else None
  in
  View.lift f_ar
