(* The quadratic history scan that History.scan replaced, kept as the
   reference of the scan differential test in test_history. The scan
   below is the replaced code, unchanged; the declarations above it only
   bring the names it uses into scope. *)

open Ids

type t = Action.t array

type entry = History.entry = {
  id : int;
  tid : Tid.t;
  oid : Oid.t;
  fid : Fid.t;
  arg : Value.t;
  ret : Value.t option;
  inv_index : int;
  res_index : int option;
  era : int;
}

(* Scan the history, pairing every response with the unique pending
   invocation of its thread. A crash marker cuts off every open invocation
   (the wiped threads never respond, so those calls stay pending) and opens
   the next era. Returns the entries in invocation order, or an error
   describing the first well-formedness violation. *)
let scan (h : t) : (entry list, string) result =
  let exception Bad of string in
  let open_inv : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let acc = ref [] in
  let era = ref 0 in
  try
    Array.iteri
      (fun i a ->
        match a with
        | Action.Crash { epoch } ->
            if epoch <> !era + 1 then
              raise
                (Bad
                   (Fmt.str "action %d: crash marker #%d out of order (expected #%d)"
                      i epoch (!era + 1)));
            Hashtbl.reset open_inv;
            era := epoch
        | Action.Inv { tid = t; oid; fid; arg } ->
            let tid = Tid.to_int t in
            if Hashtbl.mem open_inv tid then
              raise (Bad (Fmt.str "action %d: thread %a invokes while pending" i Tid.pp t));
            Hashtbl.replace open_inv tid i;
            acc :=
              {
                id = i;
                tid = t;
                oid;
                fid;
                arg;
                ret = None;
                inv_index = i;
                res_index = None;
                era = !era;
              }
              :: !acc
        | Action.Res { tid = t; oid; fid; ret } -> (
            let tid = Tid.to_int t in
            match Hashtbl.find_opt open_inv tid with
            | None ->
                raise (Bad (Fmt.str "action %d: thread %a responds with no pending invocation" i Tid.pp t))
            | Some j ->
                let matching =
                  match h.(j) with
                  | Action.Inv { oid = o'; fid = f'; _ } -> Oid.equal o' oid && Fid.equal f' fid
                  | Action.Res _ | Action.Crash _ -> false
                in
                if not matching then
                  raise (Bad (Fmt.str "action %d: response does not match invocation at %d" i j));
                Hashtbl.remove open_inv tid;
                acc :=
                  List.map
                    (fun e ->
                      if e.id = j then { e with ret = Some ret; res_index = Some i } else e)
                    !acc))
      h;
    Ok (List.rev !acc)
  with Bad reason -> Error reason
