type 'a t = { mutable v : 'a; loc : string; ctx : Ctx.t }

let make ctx ~loc v = { v; loc; ctx }
let loc c = c.loc
let peek c = c.v

(* Trail the old value before overwriting it, so {!Runner.rollback} can
   restore the cell. Only while the run is trailed: no closure otherwise. *)
let save c =
  if Ctx.trailing c.ctx then begin
    let old = c.v in
    Ctx.push_undo c.ctx (fun () -> c.v <- old)
  end

let poke c v =
  save c;
  c.v <- v

let get c =
  Ctx.note_read c.ctx c.loc;
  c.v

let set c v =
  Ctx.note_write c.ctx c.loc;
  save c;
  c.v <- v

let compare_and_set ~eq c ~expect v =
  Ctx.note_read c.ctx c.loc;
  if eq c.v expect then begin
    Ctx.note_write c.ctx c.loc;
    save c;
    c.v <- v;
    true
  end
  else false

let read ?label c =
  let label = match label with Some l -> l | None -> "read@" ^ c.loc in
  Prog.atomic ~label (fun () -> get c)

let write ?label c v =
  let label = match label with Some l -> l | None -> "write@" ^ c.loc in
  Prog.atomic ~label (fun () -> set c v)

let cas ?label ~eq c ~expect v =
  let label = match label with Some l -> l | None -> "cas@" ^ c.loc in
  Prog.atomic ~label (fun () -> compare_and_set ~eq c ~expect v)

let cas_weak ?label ~eq c ~expect v =
  let label = match label with Some l -> l | None -> "cas@" ^ c.loc in
  Prog.fallible ~label
    ~on_fault:(fun () ->
      (* A spurious failure still observed the cell: record the read so the
         step stays ordered against writes when the scheduler fails it. *)
      Ctx.note_read c.ctx c.loc;
      Prog.return false)
    (fun () -> Prog.return (compare_and_set ~eq c ~expect v))

let fetch_and_add ?label c d =
  let label = match label with Some l -> l | None -> "faa@" ^ c.loc in
  Prog.atomic ~label (fun () ->
      let old = get c in
      set c (old + d);
      old)

let await ?label c =
  let label = match label with Some l -> l | None -> "await@" ^ c.loc in
  Prog.guard ~label (fun () -> Option.map Prog.return (get c))
