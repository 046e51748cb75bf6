open Ids

type t = Action.t array

type entry = {
  id : int;
  tid : Tid.t;
  oid : Oid.t;
  fid : Fid.t;
  arg : Value.t;
  ret : Value.t option;
  inv_index : int;
  res_index : int option;
  era : int;  (* crash markers before the invocation *)
}

let empty = [||]
let of_list = Array.of_list
let to_list = Array.to_list

(* Builders that accumulate newest-first (the runner's history) convert
   here without materialising the re-reversed list: fill backwards. *)
let of_rev_list = function
  | [] -> [||]
  | x :: _ as l ->
      let a = Array.make (List.length l) x in
      let rec fill i = function
        | [] -> ()
        | x :: tl ->
            a.(i) <- x;
            fill (i - 1) tl
      in
      fill (Array.length a - 1) l;
      a
let append h a = Array.append h [| a |]
let length = Array.length
let nth h i = h.(i)

let of_ops ops =
  let actions =
    List.concat_map
      (fun (o : Op.t) ->
        [
          Action.inv ~tid:o.tid ~oid:o.oid ~fid:o.fid o.arg;
          Action.res ~tid:o.tid ~oid:o.oid ~fid:o.fid o.ret;
        ])
      ops
  in
  of_list actions

(* Scan the history, pairing every response with the unique pending
   invocation of its thread. A crash marker cuts off every open invocation
   (the wiped threads never respond, so those calls stay pending) and opens
   the next era. One linear pass records, per invocation in invocation
   order, its position, its era and the position of its response; the
   entries are then built once from those arrays. The open invocations are
   an association list from thread id to invocation number: it holds at
   most one entry per thread with a call in flight, whatever the ids'
   values. Returns the entries in invocation order, or an error describing
   the first well-formedness violation. *)
let scan (h : t) : (entry array, string) result =
  let exception Bad of string in
  let n = Array.length h in
  (* [inv_at.(k)], [era_at.(k)], [res_at.(k)]: the k-th invocation's
     position, era and response position ([-1] while pending) *)
  let inv_at = Array.make n 0 in
  let era_at = Array.make n 0 in
  let res_at = Array.make n (-1) in
  let count = ref 0 in
  let era = ref 0 in
  (* the open call of [tid], [-1] if none *)
  let rec open_of tid = function
    | [] -> -1
    | (t, k) :: rest -> if Int.equal t tid then k else open_of tid rest
  in
  let rec remove tid = function
    | [] -> []
    | ((t, _) as x) :: rest -> if Int.equal t tid then rest else x :: remove tid rest
  in
  let open_inv = ref [] in
  try
    for i = 0 to n - 1 do
      match h.(i) with
      | Action.Crash { epoch } ->
          if epoch <> !era + 1 then
            raise
              (Bad
                 (Fmt.str "action %d: crash marker #%d out of order (expected #%d)"
                    i epoch (!era + 1)));
          open_inv := [];
          era := epoch
      | Action.Inv { tid = t; _ } ->
          let tid = Tid.to_int t in
          if open_of tid !open_inv >= 0 then
            raise (Bad (Fmt.str "action %d: thread %a invokes while pending" i Tid.pp t));
          open_inv := (tid, !count) :: !open_inv;
          inv_at.(!count) <- i;
          era_at.(!count) <- !era;
          incr count
      | Action.Res { tid = t; oid; fid; _ } -> (
          let tid = Tid.to_int t in
          match open_of tid !open_inv with
          | -1 ->
              raise (Bad (Fmt.str "action %d: thread %a responds with no pending invocation" i Tid.pp t))
          | k ->
              let j = inv_at.(k) in
              let matching =
                match h.(j) with
                | Action.Inv { oid = o'; fid = f'; _ } -> Oid.equal o' oid && Fid.equal f' fid
                | Action.Res _ | Action.Crash _ -> false
              in
              if not matching then
                raise (Bad (Fmt.str "action %d: response does not match invocation at %d" i j));
              open_inv := remove tid !open_inv;
              res_at.(k) <- i)
    done;
    Ok
      (Array.init !count (fun k ->
           let i = inv_at.(k) in
           let r = res_at.(k) in
           match h.(i) with
           | Action.Inv { tid; oid; fid; arg } ->
               let ret, res_index =
                 if r < 0 then (None, None)
                 else
                   match h.(r) with
                   | Action.Res { ret; _ } -> (Some ret, Some r)
                   | Action.Inv _ | Action.Crash _ -> assert false
               in
               { id = i; tid; oid; fid; arg; ret; inv_index = i; res_index; era = era_at.(k) }
           | Action.Res _ | Action.Crash _ -> assert false))
  with Bad reason -> Error reason

let validate h = Result.map (fun _ -> ()) (scan h)
let is_well_formed h = Result.is_ok (scan h)

let entries h =
  match scan h with
  | Ok es -> Array.to_list es
  | Error reason -> invalid_arg ("History.entries: " ^ reason)

let pending h = List.filter (fun e -> e.res_index = None) (entries h)

let is_sequential h =
  is_well_formed h
  &&
  (* Alternation inv, res, inv, res, … starting with an invocation; a
     trailing invocation (a final pending operation) is permitted. A crash
     marker closes the pending invocation, if any, and restarts the
     alternation. *)
  let ok = ref true in
  let open_inv = ref None in
  Array.iter
    (fun a ->
      match a with
      | Action.Crash _ -> open_inv := None
      | Action.Inv _ ->
          if !open_inv <> None then ok := false else open_inv := Some a
      | Action.Res _ -> (
          match !open_inv with
          | Some i when Action.matches ~inv:i ~res:a -> open_inv := None
          | _ -> ok := false))
    h;
  !ok

let all_returned es = Array.for_all (fun e -> e.res_index <> None) es
let is_complete h = match scan h with Error _ -> false | Ok es -> all_returned es

(* Projections keep the crash markers: a crash is visible to every thread
   and every object (it is a whole-system event). *)
let proj_thread h t =
  of_list
    (List.filter
       (fun a -> Action.is_crash a || Tid.equal (Action.tid a) t)
       (to_list h))

let proj_object h o =
  of_list
    (List.filter
       (fun a -> Action.is_crash a || Oid.equal (Action.oid a) o)
       (to_list h))

let threads h =
  to_list h
  |> List.filter_map (fun a -> if Action.is_crash a then None else Some (Action.tid a))
  |> List.sort_uniq Tid.compare

let objects h =
  to_list h
  |> List.filter_map (fun a -> if Action.is_crash a then None else Some (Action.oid a))
  |> List.sort_uniq Oid.compare

let crash_count h =
  Array.fold_left (fun n a -> if Action.is_crash a then n + 1 else n) 0 h

let eras h = crash_count h + 1

let op_of_entry e =
  match e.ret with
  | None -> None
  | Some ret -> Some (Op.v ~tid:e.tid ~oid:e.oid ~fid:e.fid ~arg:e.arg ~ret)

let pending_of_entry e : Op.pending =
  { tid = e.tid; oid = e.oid; fid = e.fid; arg = e.arg }

(* A crash marker is a global synchronisation point: every operation of an
   earlier era precedes every operation of a later one, even when the
   earlier operation is pending (it can only have taken effect before the
   crash that cut it off). Within one era the order is the classic one. *)
let precedes a b =
  a.era < b.era
  || (a.era = b.era
     && match a.res_index with None -> false | Some r -> r < b.inv_index)

let concurrent a b = (not (precedes a b)) && not (precedes b a)

(* Insert each response at the end of its era: just before the crash marker
   closing era [k] for a pair [(k, r)], or at the very end for the final
   era. Appending blindly at the end would orphan a pre-crash response —
   the crash marker resets the pending set, so a response after it has no
   invocation to answer. *)
let with_responses base resps =
  let era = ref 0 in
  let out = ref [] in
  List.iter
    (fun a ->
      (match a with
      | Action.Crash { epoch } ->
          List.iter
            (fun (k, r) -> if k = epoch - 1 then out := r :: !out)
            resps;
          era := epoch
      | Action.Inv _ | Action.Res _ -> ());
      out := a :: !out)
    base;
  List.iter (fun (k, r) -> if k = !era then out := r :: !out) resps;
  of_list (List.rev !out)

(* Enumerate completions: every pending invocation is either dropped or
   completed with one of its candidate responses appended at the end. *)
let completions ~responses ?(max = 10_000) h =
  let pend = pending h in
  let base = to_list h in
  let choices =
    List.map
      (fun e ->
        let p = pending_of_entry e in
        let keep =
          List.map
            (fun ret ->
              `Complete (e.era, Action.res ~tid:e.tid ~oid:e.oid ~fid:e.fid ret))
            (responses p)
        in
        `Drop e.id :: keep)
      pend
  in
  (* Cartesian product over per-pending choices, lazily. *)
  let rec product = function
    | [] -> Seq.return []
    | cs :: rest ->
        Seq.concat_map
          (fun pick -> Seq.map (fun tail -> pick :: tail) (product rest))
          (List.to_seq cs)
  in
  let build picks =
    let dropped =
      List.filter_map (function `Drop id -> Some id | `Complete _ -> None) picks
    in
    let appended =
      List.filter_map (function `Complete (k, a) -> Some (k, a) | `Drop _ -> None) picks
    in
    let kept =
      List.filteri (fun i _ -> not (List.mem i dropped)) base
    in
    with_responses kept appended
  in
  Seq.take max (Seq.map build (product choices))

(* ------------------------------------------------- canonical form ----- *)

(* Schedule-interleaving normal form. Swapping two {e adjacent} actions of
   a history preserves the entries, the era structure and the real-time
   order [precedes] exactly when the two actions are of the same kind —
   both invocations or both responses (necessarily of different threads:
   adjacent same-kind actions of one thread are ill-formed). A response at
   index [r] precedes an invocation at index [i] iff [r < i], and a swap of
   two invocations (or two responses) moves no response across an
   invocation; an inv/res swap, by contrast, can create or destroy a
   [precedes] pair, and nothing may cross a crash marker (eras would
   change). The canonical form therefore sorts each maximal run of
   same-kind actions with {!Action.compare} — crash markers are hard run
   boundaries — reaching a unique representative of the equivalence class
   of histories that differ only by such swaps. Two schedules of the same
   client that produce the same operations with the same concurrency
   structure canonicalize to the same history, which is what makes the
   canonical key usable as a verdict-cache key ({!Verdict_cache}): every
   checker verdict (and its rejection reason, which depends only on the
   specification name and the crash structure) is invariant under the
   swaps above. Thread/object identifiers are already deterministic across
   runs of one client, so no renaming is needed. *)
(* In-place insertion sort of [a.(lo..hi-1)]: the maximal same-kind runs
   it is applied to are short (bounded by the thread count), where
   insertion sort beats [Array.sort] and allocates nothing. *)
let sort_range a lo hi =
  for i = lo + 1 to hi - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && Action.compare a.(!j) x > 0 do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

let canonicalize h =
  let out = Array.copy h in
  let n = Array.length out in
  let same_kind a b =
    match (a, b) with
    | Action.Inv _, Action.Inv _ | Action.Res _, Action.Res _ -> true
    | _, _ -> false
  in
  let i = ref 0 in
  while !i < n do
    match out.(!i) with
    | Action.Crash _ -> incr i
    | a ->
        let j = ref (!i + 1) in
        while !j < n && same_kind a out.(!j) do incr j done;
        sort_range out !i !j;
        i := !j
  done;
  out

(* The key is built with a plain [Buffer] rather than [Action.show]: the
   cache pays the key cost on every outcome, hit or miss, so a Fmt-based
   key would cost as much as the checker call it saves. Strings are
   netstring-style length-prefixed, so distinct actions never collide. *)
let add_str buf s =
  Buffer.add_string buf (string_of_int (String.length s));
  Buffer.add_char buf ':';
  Buffer.add_string buf s

let rec add_value buf v =
  match (v : Value.t) with
  | Unit -> Buffer.add_char buf 'u'
  | Bool true -> Buffer.add_char buf 'T'
  | Bool false -> Buffer.add_char buf 'F'
  | Int n ->
      Buffer.add_char buf 'i';
      Buffer.add_string buf (string_of_int n)
  | Str s ->
      Buffer.add_char buf 's';
      add_str buf s
  | Pair (a, b) ->
      Buffer.add_char buf 'p';
      add_value buf a;
      add_value buf b
  | List vs ->
      Buffer.add_char buf 'l';
      Buffer.add_string buf (string_of_int (List.length vs));
      Buffer.add_char buf ':';
      List.iter (add_value buf) vs

let add_action buf a =
  match (a : Action.t) with
  | Inv { tid; oid; fid; arg } ->
      Buffer.add_char buf 'I';
      Buffer.add_string buf (string_of_int (Tid.to_int tid));
      add_str buf (Oid.to_string oid);
      add_str buf (Fid.to_string fid);
      add_value buf arg
  | Res { tid; oid; fid; ret } ->
      Buffer.add_char buf 'R';
      Buffer.add_string buf (string_of_int (Tid.to_int tid));
      add_str buf (Oid.to_string oid);
      add_str buf (Fid.to_string fid);
      add_value buf ret
  | Crash { epoch } ->
      Buffer.add_char buf 'C';
      Buffer.add_string buf (string_of_int epoch)

let canonical_key h =
  let c = canonicalize h in
  let buf = Buffer.create (16 * Array.length c + 16) in
  Array.iter
    (fun a ->
      add_action buf a;
      Buffer.add_char buf '\n')
    c;
  Buffer.contents buf

let pp ppf h =
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut Action.pp) (to_list h)

let show h = Fmt.str "%a" pp h

let equal a b =
  Array.length a = Array.length b && Array.for_all2 Action.equal a b

let canonical_equal a b = equal (canonicalize a) (canonicalize b)
