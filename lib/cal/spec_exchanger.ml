open Ids

let fid_exchange = Fid.v "exchange"

let exchange_op ~oid t ~arg ~ret = Op.v ~tid:t ~oid ~fid:fid_exchange ~arg ~ret

let swap ~oid t v t' v' =
  Ca_trace.element oid
    [
      exchange_op ~oid t ~arg:v ~ret:(Value.ok v');
      exchange_op ~oid t' ~arg:v' ~ret:(Value.ok v);
    ]

let failure ~oid t v = Ca_trace.singleton (exchange_op ~oid t ~arg:v ~ret:(Value.fail v))

let timeout ~oid t v =
  Ca_trace.singleton (exchange_op ~oid t ~arg:v ~ret:(Value.timeout v))

(* An element is legal iff it is a swap pair or a failure/timeout
   singleton; the exchanger is stateless, so the acceptor state is unit.
   A timed-out exchange is always its own CA-element: it overlapped with
   nobody that mattered, so it can never be half of a swap. *)
let legal_element e =
  let is_exchange (o : Op.t) = Fid.equal o.fid fid_exchange in
  match Ca_trace.element_ops e with
  | [ o ] ->
      is_exchange o
      && (Value.equal o.ret (Value.fail o.arg)
         || Value.equal o.ret (Value.timeout o.arg))
  | [ a; b ] ->
      is_exchange a && is_exchange b
      && Value.equal a.ret (Value.ok b.arg)
      && Value.equal b.ret (Value.ok a.arg)
  | _ -> false

let spec ?(oid = Oid.v "E") () =
  Spec.make ~name:(Fmt.str "exchanger(%a)" Oid.pp oid)
    ~owns:(Oid.equal oid) ~max_element_size:2 ~init:()
    ~step:(fun () e -> if legal_element e then Some () else None)
    ~key:(fun () -> "")
    ~resume:(function "" -> Some () | _ -> None)
    ~candidates:(fun () ~universe (p : Op.pending) ->
      if Fid.equal p.fid fid_exchange then
        Value.fail p.arg :: Value.timeout p.arg :: List.map Value.ok (Lazy.force universe)
      else [])
    ()
