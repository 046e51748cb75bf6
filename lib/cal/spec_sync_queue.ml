open Ids

let fid_put = Fid.v "put"
let fid_take = Fid.v "take"

let put_op ~oid t v ~ok = Op.v ~tid:t ~oid ~fid:fid_put ~arg:v ~ret:(Value.bool ok)

let take_op ~oid t = function
  | Some v -> Op.v ~tid:t ~oid ~fid:fid_take ~arg:Value.unit ~ret:(Value.ok v)
  | None ->
      Op.v ~tid:t ~oid ~fid:fid_take ~arg:Value.unit ~ret:(Value.fail (Value.int 0))

let rendezvous ~oid t v t' =
  Ca_trace.element oid [ put_op ~oid t v ~ok:true; take_op ~oid t' (Some v) ]

let put_timeout ~oid t v =
  Ca_trace.singleton
    (Op.v ~tid:t ~oid ~fid:fid_put ~arg:v ~ret:(Value.timeout v))

let take_timeout ~oid t =
  Ca_trace.singleton
    (Op.v ~tid:t ~oid ~fid:fid_take ~arg:Value.unit
       ~ret:(Value.timeout Value.unit))

let legal_element e =
  match Ca_trace.element_ops e with
  | [ o ] ->
      (Fid.equal o.fid fid_put
      && (Value.equal o.ret (Value.bool false)
         || Value.equal o.ret (Value.timeout o.arg)))
      || Fid.equal o.fid fid_take
         && (Value.equal o.ret (Value.fail (Value.int 0))
            || Value.equal o.ret (Value.timeout Value.unit))
  | [ a; b ] ->
      (* canonical op order is by Op.compare, so identify roles by fid *)
      let put, take =
        if Fid.equal a.fid fid_put then (a, b) else (b, a)
      in
      Fid.equal put.fid fid_put && Fid.equal take.fid fid_take
      && Value.equal put.ret (Value.bool true)
      && Value.equal take.ret (Value.ok put.arg)
  | _ -> false

let spec ?(oid = Oid.v "SQ") () =
  Spec.make
    ~name:(Fmt.str "sync-queue(%a)" Oid.pp oid)
    ~owns:(Oid.equal oid) ~max_element_size:2 ~init:()
    ~step:(fun () e -> if legal_element e then Some () else None)
    ~key:(fun () -> "")
    ~resume:(function "" -> Some () | _ -> None)
    ~candidates:(fun () ~universe (p : Op.pending) ->
      if Fid.equal p.fid fid_put then
        [ Value.bool true; Value.bool false; Value.timeout p.arg ]
      else if Fid.equal p.fid fid_take then
        Value.fail (Value.int 0)
        :: Value.timeout Value.unit
        :: List.map Value.ok (Lazy.force universe)
      else [])
    ()
