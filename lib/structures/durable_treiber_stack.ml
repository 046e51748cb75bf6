open Cal
open Conc
open Prog.Infix

type t = {
  st_oid : Ids.Oid.t;
  top : Value.t list Pcell.t;
  ctx : Ctx.t;
  log_history : bool;
}

let create ?(oid = Ids.Oid.v "DS") ?(log_history = true) ~domain ctx =
  Ctx.forbid_undo ctx (* persistent cells are not trailed *);
  { st_oid = oid; top = Pcell.create domain []; ctx; log_history }

let loc t = "@" ^ Ids.Oid.to_string t.st_oid ^ ".top"
let oid t = t.st_oid

(* Flush discipline: every successful CAS is followed by a flush of the
   written cell {e before} the operation responds, so a completed operation
   is always persisted. An operation cut off between its CAS and its flush
   is pending at the crash: its write survives iff some peer's later flush
   persisted the cell first — exactly the "persisted or lost" freedom the
   durable checker grants to crash-pending operations. *)
let push_body t v =
  let* h = Prog.atomic ~label:("push-read" ^ loc t) (fun () -> Pcell.read t.top) in
  let* ok =
    Prog.fallible
      ~label:("push-cas" ^ loc t)
      (fun () ->
        let ok = Pcell.read t.top == h in
        if ok then Pcell.write t.top (v :: h);
        Prog.return ok)
      ~on_fault:(fun () -> Prog.return false)
  in
  if not ok then Prog.return (Value.bool false)
  else
    let* () =
      Prog.atomic ~label:("push-flush" ^ loc t) (fun () -> Pcell.flush t.top)
    in
    Prog.return (Value.bool true)

let pop_body t =
  let* h = Prog.atomic ~label:("pop-read" ^ loc t) (fun () -> Pcell.read t.top) in
  match h with
  | [] -> Prog.atomic ~label:"pop-empty" (fun () -> Value.fail (Value.int 0))
  | x :: rest ->
      let* ok =
        Prog.fallible
          ~label:("pop-cas" ^ loc t)
          (fun () ->
            let ok = Pcell.read t.top == h in
            if ok then Pcell.write t.top rest;
            Prog.return ok)
          ~on_fault:(fun () -> Prog.return false)
      in
      if not ok then Prog.return (Value.fail (Value.int 0))
      else
        let* () =
          Prog.atomic ~label:("pop-flush" ^ loc t) (fun () -> Pcell.flush t.top)
        in
        Prog.return (Value.ok x)

let wrap t ~tid ~fid ~arg body =
  if t.log_history then Harness.call t.ctx ~tid ~oid:t.st_oid ~fid ~arg body
  else body

let push t ~tid v = wrap t ~tid ~fid:Spec_stack.fid_push ~arg:v (push_body t v)
let pop t ~tid = wrap t ~tid ~fid:Spec_stack.fid_pop ~arg:Value.unit (pop_body t)

(* Recovery re-reads the durable top; [cost] extra steps model log
   scanning / structure rebuilding work and let the benchmarks sweep
   recovery expense. Recovery is not an operation of the object: it logs
   no history actions. *)
let recover ?(cost = 0) t =
  let rec spin n =
    if n = 0 then
      Prog.atomic ~label:("recover" ^ loc t) (fun () ->
          (* the volatile state a fresh boot starts from is the durable one;
             re-assert it so a recovery is explicit in the step sequence *)
          Pcell.write t.top (Pcell.persisted t.top);
          Pcell.flush t.top)
    else
      let* () = Prog.atomic ~label:("recover-scan" ^ loc t) (fun () -> ()) in
      spin (n - 1)
  in
  spin cost

let contents t = Pcell.read t.top
let persisted t = Pcell.persisted t.top
let spec t = Spec_stack.spec ~oid:t.st_oid ~allow_spurious_failure:true ()
