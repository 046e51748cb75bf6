(* The state machine of one specification, shared by all its acceptors. *)
type 's machine = {
  m_step : 's -> Ca_trace.element -> 's option;
  m_key : 's -> string;
  m_candidates : 's -> universe:Value.t list Lazy.t -> Op.pending -> Value.t list;
}

(* A state paired with its machine: stepping allocates the pair and
   nothing else, and the key is printed only when asked for. *)
type acceptor = Acceptor : 's machine * 's -> acceptor

type t = {
  name : string;
  owns : Ids.Oid.t -> bool;
  max_element_size : int;
  start : acceptor;
  resume_key : string -> acceptor option;
}

let step (Acceptor (m, s)) e =
  match m.m_step s e with None -> None | Some s' -> Some (Acceptor (m, s'))

let key (Acceptor (m, s)) = m.m_key s
let candidates (Acceptor (m, s)) ~universe p = m.m_candidates s ~universe p
let resume t k = t.resume_key k

let make ~name ~owns ~max_element_size ~init ~step ~key ?resume ~candidates ()
    =
  let m = { m_step = step; m_key = key; m_candidates = candidates } in
  let resume_key =
    match resume with
    | None -> fun _ -> None
    | Some of_key -> fun k -> Option.map (fun s -> Acceptor (m, s)) (of_key k)
  in
  { name; owns; max_element_size; start = Acceptor (m, init); resume_key }

let accepts spec tr =
  let rec go a = function
    | [] -> true
    | e :: rest -> ( match step a e with None -> false | Some a' -> go a' rest)
  in
  go spec.start tr

let explain_rejection spec tr =
  let rec go a i = function
    | [] -> None
    | e :: rest -> (
        match step a e with
        | None ->
            Some
              (Fmt.str "element %d rejected by %s: %a" i spec.name Ca_trace.pp_element e)
        | Some a' -> go a' (i + 1) rest)
  in
  go spec.start 0 tr

(* A union's state is its members' acceptors, in member order. *)
let union specs =
  if specs = [] then invalid_arg "Spec.union: empty list";
  let indexed = List.mapi (fun i s -> (i, s)) specs in
  let owners oid = List.filter (fun (_, s) -> s.owns oid) indexed in
  let m =
    {
      m_step =
        (fun states e ->
          match owners (Ca_trace.element_oid e) with
          | [ (idx, _) ] ->
              Option.map
                (fun a' -> List.mapi (fun i x -> if i = idx then a' else x) states)
                (step (List.nth states idx) e)
          | _ -> None);
      m_key = (fun states -> String.concat "|" (List.map key states));
      m_candidates =
        (fun states ~universe (p : Op.pending) ->
          match owners p.oid with
          | [ (idx, _) ] -> candidates (List.nth states idx) ~universe p
          | _ -> []);
    }
  in
  {
    name = "union(" ^ String.concat ", " (List.map (fun s -> s.name) specs) ^ ")";
    owns = (fun oid -> List.exists (fun s -> s.owns oid) specs);
    max_element_size =
      List.fold_left (fun m s -> max m s.max_element_size) 1 specs;
    start = Acceptor (m, List.map (fun s -> s.start) specs);
    (* Member keys may themselves contain the separator, so the joined
       key is not invertible: unions are never resumable. *)
    resume_key = (fun _ -> None);
  }
