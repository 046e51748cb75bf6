open Ids

type element = { oid : Oid.t; ops : Op.t list }
type t = element list

let element oid ops =
  if ops = [] then invalid_arg "Ca_trace.element: empty operation set";
  List.iter
    (fun (o : Op.t) ->
      if not (Oid.equal o.oid oid) then
        invalid_arg
          (Fmt.str "Ca_trace.element: operation on %a inside element of %a" Oid.pp o.oid
             Oid.pp oid))
    ops;
  let sorted = List.sort_uniq Op.compare ops in
  if List.length sorted <> List.length ops then
    invalid_arg "Ca_trace.element: duplicate operation in set";
  let tids = List.map (fun (o : Op.t) -> o.tid) sorted in
  if List.length (List.sort_uniq Tid.compare tids) <> List.length tids then
    invalid_arg "Ca_trace.element: two operations of the same thread";
  { oid; ops = sorted }

(* One operation satisfies every invariant [element] checks. *)
let singleton (op : Op.t) = { oid = op.oid; ops = [ op ] }
let element_ops e = e.ops
let element_oid e = e.oid
let element_size e = List.length e.ops
let element_mem_thread e t = List.exists (fun (o : Op.t) -> Tid.equal o.tid t) e.ops

let element_compare a b =
  let c = Oid.compare a.oid b.oid in
  if c <> 0 then c else List.compare Op.compare a.ops b.ops

let element_equal a b = element_compare a b = 0

let pp_element ppf e =
  Fmt.pf ppf "%a.{%a}" Oid.pp e.oid (Fmt.list ~sep:(Fmt.any ", ") Op.pp) e.ops

let proj_thread tr t = List.filter (fun e -> element_mem_thread e t) tr
let proj_object tr o = List.filter (fun e -> Oid.equal e.oid o) tr
let ops tr = List.concat_map (fun e -> e.ops) tr

let threads tr =
  ops tr |> List.map (fun (o : Op.t) -> o.tid) |> List.sort_uniq Tid.compare

let objects tr = List.map (fun e -> e.oid) tr |> List.sort_uniq Oid.compare
let compare = List.compare element_compare
let equal a b = compare a b = 0
let pp ppf tr = Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:(Fmt.any " .@ ") pp_element) tr
let show tr = Fmt.str "%a" pp tr
