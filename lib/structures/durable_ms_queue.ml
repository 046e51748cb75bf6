open Cal
open Conc
open Prog.Infix

type t = {
  q_oid : Ids.Oid.t;
  items : Value.t list Pcell.t; (* front first *)
  ctx : Ctx.t;
  log_history : bool;
}

let create ?(oid = Ids.Oid.v "DQ") ?(log_history = true) ~domain ctx =
  Ctx.forbid_undo ctx (* persistent cells are not trailed *);
  { q_oid = oid; items = Pcell.create domain []; ctx; log_history }

let loc t = "@" ^ Ids.Oid.to_string t.q_oid ^ ".items"
let oid t = t.q_oid

(* Same flush discipline as the durable stack: CAS the volatile copy, then
   flush before responding. Enqueue retries until its CAS lands (the queue
   spec has no spurious failures for enq), so only a crash can leave it
   pending. *)
let enq_body t v =
  Prog.repeat_until (fun () ->
      let* h =
        Prog.atomic ~label:("enq-read" ^ loc t) (fun () -> Pcell.read t.items)
      in
      Prog.fallible
        ~label:("enq-cas" ^ loc t)
        (fun () ->
          if Pcell.read t.items == h then begin
            Pcell.write t.items (h @ [ v ]);
            Prog.return (Some ())
          end
          else Prog.return None)
        ~on_fault:(fun () -> Prog.return None))
  >>= fun () ->
  let* () =
    Prog.atomic ~label:("enq-flush" ^ loc t) (fun () -> Pcell.flush t.items)
  in
  Prog.return Value.unit

let deq_body t =
  Prog.repeat_until (fun () ->
      let* h =
        Prog.atomic ~label:("deq-read" ^ loc t) (fun () -> Pcell.read t.items)
      in
      match h with
      | [] ->
          Prog.atomic ~label:"deq-empty" (fun () ->
              Some (Value.fail (Value.int 0)))
      | x :: rest ->
          Prog.fallible
            ~label:("deq-cas" ^ loc t)
            (fun () ->
              if Pcell.read t.items == h then begin
                Pcell.write t.items rest;
                Prog.return (Some x)
              end
              else Prog.return None)
            ~on_fault:(fun () -> Prog.return None)
          >>= (function
          | None -> Prog.return None
          | Some x ->
              let* () =
                Prog.atomic ~label:("deq-flush" ^ loc t) (fun () ->
                    Pcell.flush t.items)
              in
              Prog.return (Some (Value.ok x))))

let wrap t ~tid ~fid ~arg body =
  if t.log_history then Harness.call t.ctx ~tid ~oid:t.q_oid ~fid ~arg body
  else body

let enq t ~tid v = wrap t ~tid ~fid:Spec_queue.fid_enq ~arg:v (enq_body t v)
let deq t ~tid = wrap t ~tid ~fid:Spec_queue.fid_deq ~arg:Value.unit (deq_body t)

let recover ?(cost = 0) t =
  let rec spin n =
    if n = 0 then
      Prog.atomic ~label:("recover" ^ loc t) (fun () ->
          Pcell.write t.items (Pcell.persisted t.items);
          Pcell.flush t.items)
    else
      let* () = Prog.atomic ~label:("recover-scan" ^ loc t) (fun () -> ()) in
      spin (n - 1)
  in
  spin cost

let contents t = Pcell.read t.items
let persisted t = Pcell.persisted t.items
let spec t = Spec_queue.spec ~oid:t.q_oid ()
