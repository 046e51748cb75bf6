type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | Pair of t * t
  | List of t list
[@@deriving eq, ord]

(* One printer, on a plain [Buffer]: specification keys are [show]s built
   once per search state, and a Format round trip per key cost more than
   the step that made the state. [pp] prints the same bytes; it has no
   break hints, so an enclosing box does not change them. *)
let rec add_value buf = function
  | Unit -> Buffer.add_string buf "()"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (String.escaped s);
      Buffer.add_char buf '"'
  | Pair (a, b) ->
      Buffer.add_char buf '(';
      add_value buf a;
      Buffer.add_string buf ", ";
      add_value buf b;
      Buffer.add_char buf ')'
  | List vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf "; ";
          add_value buf v)
        vs;
      Buffer.add_char buf ']'

let show v =
  let buf = Buffer.create 32 in
  add_value buf v;
  Buffer.contents buf

let pp ppf v = Format.pp_print_string ppf (show v)

let unit = Unit
let bool b = Bool b
let int n = Int n
let str s = Str s
let pair a b = Pair (a, b)
let list vs = List vs
let ok v = Pair (Bool true, v)
let fail v = Pair (Bool false, v)
let timeout v = Pair (Str "timeout", v)
let cancelled v = Pair (Str "cancelled", v)
let is_timeout = function Pair (Str "timeout", _) -> true | _ -> false
let is_cancelled = function Pair (Str "cancelled", _) -> true | _ -> false

let to_bool = function
  | Bool b -> b
  | v -> invalid_arg (Fmt.str "Value.to_bool: %a" pp v)

let to_int = function
  | Int n -> n
  | v -> invalid_arg (Fmt.str "Value.to_int: %a" pp v)

let to_pair = function
  | Pair (a, b) -> (a, b)
  | v -> invalid_arg (Fmt.str "Value.to_pair: %a" pp v)

let rec subvalues v =
  v
  ::
  (match v with
  | Unit | Bool _ | Int _ | Str _ -> []
  | Pair (a, b) -> subvalues a @ subvalues b
  | List vs -> List.concat_map subvalues vs)

let rec hash = function
  | Unit -> 17
  | Bool b -> if b then 31 else 37
  | Int n -> 41 * n + 3
  | Str s -> Hashtbl.hash s
  | Pair (a, b) -> (hash a * 131071) + hash b
  | List vs -> List.fold_left (fun acc v -> (acc * 8191) + hash v) 53 vs
