open Cal
open Conc
open Prog.Infix

type node = { value : Value.t; next : node option ref }

type t = {
  q_oid : Ids.Oid.t;
  head : node ref; (* points at the sentinel; values live after it *)
  tail : node ref;
  ctx : Ctx.t;
  instrument : bool;
  log_history : bool;
}

let create ?(oid = Ids.Oid.v "Q") ?(instrument = true) ?(log_history = true) ctx =
  Ctx.forbid_undo ctx (* head, tail and links are plain refs *);
  let sentinel = { value = Value.unit; next = ref None } in
  { q_oid = oid; head = ref sentinel; tail = ref sentinel; ctx; instrument; log_history }

let oid t = t.q_oid
let log_op t op = if t.instrument then Ctx.log_element t.ctx (Ca_trace.singleton op)

let enq_body t ~tid v =
  let node = { value = v; next = ref None } in
  Prog.repeat_until (fun () ->
      let* last = Prog.read t.tail in
      let* nxt = Prog.read last.next in
      match nxt with
      | Some n ->
          (* help swing the lagging tail *)
          let* _ =
            Prog.atomic ~label:"enq-help" (fun () ->
                if !(t.tail) == last then t.tail := n)
          in
          Prog.return None
      | None ->
          Prog.atomically ~label:"enq-cas" (fun () ->
              match !(last.next) with
              | None ->
                  last.next := Some node;
                  log_op t (Spec_queue.enq_op ~oid:t.q_oid tid v);
                  Prog.return (Some ())
              | Some _ -> Prog.return None))
  >>= fun () ->
  (* swing tail to the new node (best effort) *)
  let* () =
    Prog.atomic ~label:"enq-swing" (fun () ->
        let tl = !(t.tail) in
        match !(tl.next) with Some n -> t.tail := n | None -> ())
  in
  Prog.return Value.unit

let deq_body t ~tid =
  Prog.repeat_until (fun () ->
      let* first = Prog.read t.head in
      let* nxt = Prog.read first.next in
      match nxt with
      | None ->
          Prog.atomically ~label:"deq-empty" (fun () ->
              if !(t.head) == first && !(first.next) = None then begin
                log_op t (Spec_queue.deq_op ~oid:t.q_oid tid None);
                Prog.return (Some (Value.fail (Value.int 0)))
              end
              else Prog.return None)
      | Some n ->
          Prog.atomically ~label:"deq-cas" (fun () ->
              if !(t.head) == first then begin
                t.head := n;
                (* keep tail ahead of head *)
                if !(t.tail) == first then t.tail := n;
                log_op t (Spec_queue.deq_op ~oid:t.q_oid tid (Some n.value));
                Prog.return (Some (Value.ok n.value))
              end
              else Prog.return None))

let enq t ~tid v =
  if t.log_history then
    Harness.call t.ctx ~tid ~oid:t.q_oid ~fid:Spec_queue.fid_enq ~arg:v
      (enq_body t ~tid v)
  else enq_body t ~tid v

let deq t ~tid =
  if t.log_history then
    Harness.call t.ctx ~tid ~oid:t.q_oid ~fid:Spec_queue.fid_deq ~arg:Value.unit
      (deq_body t ~tid)
  else deq_body t ~tid

let contents t =
  let rec walk acc node =
    match !(node.next) with None -> List.rev acc | Some n -> walk (n.value :: acc) n
  in
  walk [] !(t.head)

let spec t = Spec_queue.spec ~oid:t.q_oid ()
let view _t = View.identity
