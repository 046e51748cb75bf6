open Ids

let fid_enq = Fid.v "enq"
let fid_deq = Fid.v "deq"
let enq_op ~oid t v = Op.v ~tid:t ~oid ~fid:fid_enq ~arg:v ~ret:Value.unit
let deq_op ~oid t v = Op.v ~tid:t ~oid ~fid:fid_deq ~arg:Value.unit ~ret:v

let fulfilment ~oid t v t' = Ca_trace.element oid [ enq_op ~oid t v; deq_op ~oid t' v ]

let deq_cancelled ~oid t =
  Ca_trace.singleton (deq_op ~oid t (Value.cancelled Value.unit))

(* State: queued values, oldest first. *)
let step_element queued e =
  match Ca_trace.element_ops e with
  | [ o ] ->
      if Fid.equal o.Op.fid fid_enq then
        if Value.equal o.ret Value.unit then Some (queued @ [ o.arg ]) else None
      else if Fid.equal o.Op.fid fid_deq then
        (* a cancelled dequeue withdrew its reservation: no effect *)
        if Value.equal o.ret (Value.cancelled Value.unit) then Some queued
        else
          match queued with
          | front :: rest when Value.equal front o.ret -> Some rest
          | _ -> None
      else None
  | [ a; b ] ->
      (* fulfilment: identify roles by method *)
      let enq, deq = if Fid.equal a.Op.fid fid_enq then (a, b) else (b, a) in
      if
        Fid.equal enq.Op.fid fid_enq
        && Fid.equal deq.Op.fid fid_deq
        && Value.equal enq.ret Value.unit
        && Value.equal deq.ret enq.arg
        && queued = []
      then Some []
      else None
  | _ -> None

let spec ?(oid = Oid.v "DQ") () =
  Spec.make
    ~name:(Fmt.str "dual-queue(%a)" Oid.pp oid)
    ~owns:(Oid.equal oid) ~max_element_size:2 ~init:[]
    ~step:(fun queued e -> step_element queued e)
    ~key:(fun queued -> Value.show (Value.list queued))
    ~resume:(fun k ->
      match History_format.parse_value k with
      | Ok (Value.List vs) -> Some vs
      | _ -> None)
    ~candidates:(fun queued ~universe (p : Op.pending) ->
      if Fid.equal p.fid fid_enq then [ Value.unit ]
      else if Fid.equal p.fid fid_deq then
        Value.cancelled Value.unit
        ::
        (match queued with
        | front :: _ -> [ front ]
        | [] -> Lazy.force universe (* a waiting deq may be fulfilled with any value *))
      else [])
    ()
