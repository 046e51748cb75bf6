open Cal
open Conc
open Prog.Infix

type reservation = { r_tid : Ids.Tid.t; answer : Value.t option ref }

type state =
  | Items of Value.t list          (* oldest first; may be empty *)
  | Waiters of reservation list    (* oldest first; non-empty *)

type t = {
  dq_oid : Ids.Oid.t;
  cell : state ref;
  ctx : Ctx.t;
  instrument : bool;
  log_history : bool;
}

let create ?(oid = Ids.Oid.v "DQ") ?(instrument = true) ?(log_history = true) ctx =
  Ctx.forbid_undo ctx (* the state and the answers are plain refs *);
  { dq_oid = oid; cell = ref (Items []); ctx; instrument; log_history }

let oid t = t.dq_oid
let log_elem t e = if t.instrument then Ctx.log_element t.ctx e

let enq_body t ~tid v =
  Prog.atomic ~label:("enq@" ^ Ids.Oid.to_string t.dq_oid) (fun () ->
      (match !(t.cell) with
      | Waiters (w :: rest) ->
          (* fulfil the oldest reservation: both operations take effect now *)
          w.answer := Some v;
          t.cell := (if rest = [] then Items [] else Waiters rest);
          log_elem t (Spec_dual_queue.fulfilment ~oid:t.dq_oid tid v w.r_tid)
      | Waiters [] | Items _ ->
          let items = match !(t.cell) with Items xs -> xs | Waiters _ -> [] in
          t.cell := Items (items @ [ v ]);
          log_elem t (Ca_trace.singleton (Spec_dual_queue.enq_op ~oid:t.dq_oid tid v)));
      Value.unit)

let deq_body t ~tid =
  let* claimed =
    Prog.atomically ~label:("deq@" ^ Ids.Oid.to_string t.dq_oid) (fun () ->
        match !(t.cell) with
        | Items (v :: rest) ->
            t.cell := Items rest;
            log_elem t (Ca_trace.singleton (Spec_dual_queue.deq_op ~oid:t.dq_oid tid v));
            Prog.return (`Value v)
        | Items [] ->
            let r = { r_tid = tid; answer = ref None } in
            t.cell := Waiters [ r ];
            Prog.return (`Wait r)
        | Waiters ws ->
            let r = { r_tid = tid; answer = ref None } in
            t.cell := Waiters (ws @ [ r ]);
            Prog.return (`Wait r))
  in
  match claimed with
  | `Value v -> Prog.return v
  | `Wait r ->
      (* block until an enqueue fulfils the reservation; the fulfilment
         element was logged by the enqueuer *)
      Prog.await ~label:"deq-wait" r.answer

(* Timed dequeue: claim as [deq_body], but a waiting consumer POLLS its
   reservation (staying enabled, so its own steps advance the clock and a
   solo consumer can abort) and withdraws it on deadline expiry. The
   withdrawal CAS atomically checks the answer slot and removes the
   reservation from the cell — it is fallible (a forced failure behaves as
   losing the race to a fulfilling enqueuer), while the cancel-acknowledge
   read after a lost cancel is not: a fulfilled answer slot is stable. *)
let deq_timed_body t ~tid ~deadline =
  let now () = Ctx.local_now t.ctx ~tid in
  let o = Ids.Oid.to_string t.dq_oid in
  let* claimed =
    Prog.atomically ~label:("deq@" ^ o) (fun () ->
        match !(t.cell) with
        | Items (v :: rest) ->
            t.cell := Items rest;
            log_elem t (Ca_trace.singleton (Spec_dual_queue.deq_op ~oid:t.dq_oid tid v));
            Prog.return (`Value v)
        | Items [] ->
            let r = { r_tid = tid; answer = ref None } in
            t.cell := Waiters [ r ];
            Prog.return (`Wait r)
        | Waiters ws ->
            let r = { r_tid = tid; answer = ref None } in
            t.cell := Waiters (ws @ [ r ]);
            Prog.return (`Wait r))
  in
  match claimed with
  | `Value v -> Prog.return v
  | `Wait r ->
      let rec cancel () =
        let* c =
          Prog.fallible ~label:("cancel-cas@" ^ o)
            (fun () ->
              match !(r.answer) with
              | Some v -> Prog.return (`Fulfilled v)
              | None ->
                  (* unanswered, so still queued: withdraw the reservation
                     and log the singleton cancellation in the same step *)
                  (match !(t.cell) with
                  | Waiters ws ->
                      let ws' = List.filter (fun w -> w != r) ws in
                      t.cell := (if ws' = [] then Items [] else Waiters ws')
                  | Items _ -> ());
                  log_elem t (Spec_dual_queue.deq_cancelled ~oid:t.dq_oid tid);
                  Prog.return `Cancelled)
            ~on_fault:(fun () -> Prog.return `Lost)
        in
        match c with
        | `Fulfilled v -> Prog.return v
        | `Cancelled -> Prog.return (Value.cancelled Value.unit)
        | `Lost -> ack ()
      and ack () =
        let* a = Prog.atomic ~label:("cancel-ack@" ^ o) (fun () -> !(r.answer)) in
        match a with Some v -> Prog.return v | None -> cancel ()
      in
      Prog.poll ~label:"deq-poll"
        ~expired:(fun () -> now () >= deadline)
        ~on_timeout:cancel
        (fun () -> Option.map Prog.return !(r.answer))

let enq t ~tid v =
  if t.log_history then
    Harness.call t.ctx ~tid ~oid:t.dq_oid ~fid:Spec_dual_queue.fid_enq ~arg:v
      (enq_body t ~tid v)
  else enq_body t ~tid v

let deq t ~tid =
  if t.log_history then
    Harness.call t.ctx ~tid ~oid:t.dq_oid ~fid:Spec_dual_queue.fid_deq ~arg:Value.unit
      (deq_body t ~tid)
  else deq_body t ~tid

let deq_timed t ~tid ~deadline =
  if t.log_history then
    Harness.call t.ctx ~tid ~oid:t.dq_oid ~fid:Spec_dual_queue.fid_deq ~arg:Value.unit
      (deq_timed_body t ~tid ~deadline)
  else deq_timed_body t ~tid ~deadline

let spec t = Spec_dual_queue.spec ~oid:t.dq_oid ()
let view _t = View.identity
