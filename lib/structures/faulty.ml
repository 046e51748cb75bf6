open Cal
open Conc
open Prog.Infix

(* Every object here keeps its state in plain refs (or persistent cells)
   and forbids rollback: runs over them backtrack by prefix replay. *)

module Counter_lost_update = struct
  type t = { oid : Ids.Oid.t; cell : int ref; ctx : Ctx.t }

  let create ?(oid = Ids.Oid.v "C") ctx =
    Ctx.forbid_undo ctx;
    { oid; cell = ref 0; ctx }

  (* BUG: the read and the write are separate steps, so two increments can
     interleave and both observe (and log) the same old value. *)
  let incr t ~tid =
    let body =
      let* old = Prog.read t.cell in
      Prog.atomic ~label:"bad-incr-write" (fun () ->
          t.cell := old + 1;
          Ctx.log_element t.ctx
            (Ca_trace.singleton (Spec_counter.incr_op ~oid:t.oid tid old));
          Value.int old)
    in
    Harness.call t.ctx ~tid ~oid:t.oid ~fid:Spec_counter.fid_incr ~arg:Value.unit body

  let spec t = Spec_counter.spec ~oid:t.oid ()
end

module Stack_lost_pop = struct
  type t = { oid : Ids.Oid.t; top : Value.t list ref; ctx : Ctx.t }

  let create ?(oid = Ids.Oid.v "S") ctx =
    Ctx.forbid_undo ctx;
    { oid; top = ref []; ctx }

  let push t ~tid v =
    let body =
      Prog.atomic ~label:"bad-push" (fun () ->
          t.top := v :: !(t.top);
          Ctx.log_element t.ctx
            (Ca_trace.singleton (Spec_stack.push_op ~oid:t.oid tid v ~ok:true));
          Value.bool true)
    in
    Harness.call t.ctx ~tid ~oid:t.oid ~fid:Spec_stack.fid_push ~arg:v body

  (* BUG: pop reads the top and later writes the tail unconditionally, so
     two racing pops can both return the same element. *)
  let pop t ~tid =
    let body =
      let* h = Prog.read t.top in
      match h with
      | [] ->
          Prog.atomic ~label:"bad-pop-empty" (fun () ->
              Ctx.log_element t.ctx
                (Ca_trace.singleton (Spec_stack.pop_op ~oid:t.oid tid None));
              Value.fail (Value.int 0))
      | x :: rest ->
          Prog.atomic ~label:"bad-pop-write" (fun () ->
              t.top := rest;
              Ctx.log_element t.ctx
                (Ca_trace.singleton (Spec_stack.pop_op ~oid:t.oid tid (Some x)));
              Value.ok x)
    in
    Harness.call t.ctx ~tid ~oid:t.oid ~fid:Spec_stack.fid_pop ~arg:Value.unit body

  let spec t = Spec_stack.spec ~oid:t.oid ~allow_spurious_failure:true ()
end

module Elim_stack_dup_elim = struct
  type t = {
    oid : Ids.Oid.t;
    top : Value.t list ref;
    slot : Value.t option ref;
    ctx : Ctx.t;
  }

  let create ?(oid = Ids.Oid.v "ES") ctx =
    Ctx.forbid_undo ctx;
    { oid; top = ref []; slot = ref None; ctx }

  (* push parks its value in the elimination slot (so a concurrent pop can
     take it directly) and then pushes onto the central list. *)
  let push t ~tid v =
    let body =
      let* () = Prog.atomic ~label:"park" (fun () -> t.slot := Some v) in
      let* old = Prog.read t.top in
      Prog.atomic ~label:"push-write" (fun () ->
          t.top := v :: old;
          Ctx.log_element t.ctx
            (Ca_trace.singleton (Spec_stack.push_op ~oid:t.oid tid v ~ok:true));
          Value.bool true)
    in
    Harness.call t.ctx ~tid ~oid:t.oid ~fid:Spec_stack.fid_push ~arg:v body

  (* BUG: a pop that finds a parked value takes it without clearing the
     slot, so every later pop can eliminate against the same push — one
     push explains two (or more) completed pops, which no completion of
     the history can excuse. Pops that find neither a parked value nor a
     central element retry, so they are pending at fuel exhaustion. *)
  let pop t ~tid =
    let body =
      Prog.repeat_until (fun () ->
          let* s = Prog.read t.slot in
          match s with
          | Some v ->
              let* r =
                Prog.atomic ~label:"elim-pop" (fun () ->
                    Ctx.log_element t.ctx
                      (Ca_trace.singleton
                         (Spec_stack.pop_op ~oid:t.oid tid (Some v)));
                    Value.ok v)
              in
              Prog.return (Some r)
          | None -> (
              let* h = Prog.read t.top in
              match h with
              | [] -> Prog.return None
              | x :: rest ->
                  let* r =
                    Prog.atomic ~label:"pop-write" (fun () ->
                        t.top := rest;
                        Ctx.log_element t.ctx
                          (Ca_trace.singleton
                             (Spec_stack.pop_op ~oid:t.oid tid (Some x)));
                        Value.ok x)
                  in
                  Prog.return (Some r)))
    in
    Harness.call t.ctx ~tid ~oid:t.oid ~fid:Spec_stack.fid_pop ~arg:Value.unit
      body

  let spec t = Spec_stack.spec ~oid:t.oid ~allow_spurious_failure:false ()
end

module Durable_stack_missing_flush = struct
  type t = { oid : Ids.Oid.t; top : Value.t list Pcell.t; ctx : Ctx.t }

  let create ?(oid = Ids.Oid.v "DS") ~domain ctx =
    Ctx.forbid_undo ctx;
    { oid; top = Pcell.create domain []; ctx }

  let loc t = "@" ^ Ids.Oid.to_string t.oid ^ ".top"

  (* push follows the full discipline: CAS then flush before responding. *)
  let push t ~tid v =
    let body =
      let* h =
        Prog.atomic ~label:("push-read" ^ loc t) (fun () -> Pcell.read t.top)
      in
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
          Prog.atomic ~label:("push-flush" ^ loc t) (fun () ->
              Pcell.flush t.top)
        in
        Prog.return (Value.bool true)
    in
    Harness.call t.ctx ~tid ~oid:t.oid ~fid:Spec_stack.fid_push ~arg:v body

  (* BUG: pop responds right after its CAS, never flushing the removal. A
     crash after the response reverts the top to its durable value, which
     still holds the popped element — recovery resurrects it, and a
     post-crash pop returns it a second time. Both pops are {e completed}
     operations, so the durable checker has no drop freedom to excuse the
     duplicate. *)
  let pop t ~tid =
    let body =
      let* h =
        Prog.atomic ~label:("pop-read" ^ loc t) (fun () -> Pcell.read t.top)
      in
      match h with
      | [] -> Prog.atomic ~label:"pop-empty" (fun () -> Value.fail (Value.int 0))
      | x :: rest ->
          Prog.fallible
            ~label:("pop-cas" ^ loc t)
            (fun () ->
              let ok = Pcell.read t.top == h in
              if ok then Pcell.write t.top rest;
              Prog.return
                (if ok then Value.ok x else Value.fail (Value.int 0)))
            ~on_fault:(fun () -> Prog.return (Value.fail (Value.int 0)))
    in
    Harness.call t.ctx ~tid ~oid:t.oid ~fid:Spec_stack.fid_pop ~arg:Value.unit
      body

  let recover ?(cost = 0) t =
    let rec spin n =
      if n = 0 then
        Prog.atomic ~label:("recover" ^ loc t) (fun () ->
            Pcell.write t.top (Pcell.persisted t.top);
            Pcell.flush t.top)
      else
        let* () =
          Prog.atomic ~label:("recover-scan" ^ loc t) (fun () -> ())
        in
        spin (n - 1)
    in
    spin cost

  let spec t = Spec_stack.spec ~oid:t.oid ~allow_spurious_failure:true ()
end

module Exchanger_selfish = struct
  type t = { oid : Ids.Oid.t; ctx : Ctx.t }

  let create ?(oid = Ids.Oid.v "E") ctx =
    Ctx.forbid_undo ctx;
    { oid; ctx }

  (* BUG: claims success with its own value, with no partner, while logging
     the failure element — the history disagrees with the trace. *)
  let exchange t ~tid v =
    let body =
      Prog.atomic ~label:"bad-exchange" (fun () ->
          Ctx.log_element t.ctx (Spec_exchanger.failure ~oid:t.oid tid v);
          Value.ok v)
    in
    Harness.call t.ctx ~tid ~oid:t.oid ~fid:Spec_exchanger.fid_exchange ~arg:v body

  let spec t = Spec_exchanger.spec ~oid:t.oid ()
end
