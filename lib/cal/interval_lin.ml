open Ids

type round = { starting : Op.t list; continuing : Op.t list; ending : Op.t list }

type spec = {
  name : string;
  start_acceptor : acceptor;
  max_starts_per_round : int;
}

and acceptor = { a_step : round -> acceptor option; a_key : string }

let make_spec ~name ~init ~step ~key ~max_starts_per_round () =
  let rec acceptor s =
    { a_step = (fun r -> Option.map acceptor (step s r)); a_key = key s }
  in
  { name; start_acceptor = acceptor init; max_starts_per_round }

type verdict =
  | Interval_linearizable of {
      intervals : (History.entry * int * int) list;
      rounds : round list;
    }
  | Not_interval_linearizable of { reason : string }

(* All subsets (for choosing which active operations end in a round),
   the empty one last. *)
let all_subsets xs = Cal_checker.subsets_up_to (List.length xs) xs @ [ [] ]

let check ~spec h =
  let entries =
    match History.scan h with
    | Ok es -> es
    | Error reason -> invalid_arg ("Interval_lin.check: " ^ reason)
  in
  if not (History.all_returned entries) then
    invalid_arg "Interval_lin.check: history must be complete";
  let n = Array.length entries in
  if n > 24 then invalid_arg "Interval_lin.check: more than 24 operations";
  let op_of = Array.map (fun e -> Option.get (History.op_of_entry e)) entries in
  let preds =
    Array.init n (fun j ->
        List.filter
          (fun i -> History.precedes entries.(i) entries.(j))
          (List.init n Fun.id))
  in
  let starts = Array.make n (-1) in
  let ends = Array.make n (-1) in
  let failed = Hashtbl.create (Tuning.checker_table_size ~ops:n) in
  (* state: [started] and [ended] masks; active = started \ ended. At each
     round: start a (possibly empty) set of ready unstarted ops — ready
     means all predecessors ended in strictly earlier rounds — and end a
     subset of the active ops, such that the round is non-empty. *)
  let full = (1 lsl n) - 1 in
  let rec search k started ended acc acc_rounds =
    if ended = full then Some (List.rev acc_rounds)
    else begin
      let memo_key = (started, ended, acc.a_key) in
      if Hashtbl.mem failed memo_key then None
      else begin
        let ready =
          List.filter
            (fun i ->
              started land (1 lsl i) = 0
              && List.for_all (fun p -> ended land (1 lsl p) <> 0) preds.(i))
            (List.init n Fun.id)
        in
        let active =
          List.filter
            (fun i -> started land (1 lsl i) <> 0 && ended land (1 lsl i) = 0)
            (List.init n Fun.id)
        in
        let start_choices =
          [] :: Cal_checker.subsets_up_to spec.max_starts_per_round ready
          |> List.filter (fun s -> s <> [] || active <> [])
          |> List.sort_uniq compare
        in
        let try_choice (to_start, to_end) =
          if to_start = [] && to_end = [] then None
          else begin
            let started' =
              List.fold_left (fun m i -> m lor (1 lsl i)) started to_start
            in
            let ended' = List.fold_left (fun m i -> m lor (1 lsl i)) ended to_end in
            let r =
              {
                starting = List.map (fun i -> op_of.(i)) to_start;
                continuing =
                  List.filter_map
                    (fun i ->
                      if
                        started' land (1 lsl i) <> 0
                        && ended' land (1 lsl i) = 0
                        && not (List.mem i to_start)
                      then Some op_of.(i)
                      else None)
                    (List.init n Fun.id);
                ending = List.map (fun i -> op_of.(i)) to_end;
              }
            in
            match acc.a_step r with
            | None -> None
            | Some acc' ->
                List.iter (fun i -> starts.(i) <- k) to_start;
                List.iter (fun i -> ends.(i) <- k) to_end;
                let result = search (k + 1) started' ended' acc' (r :: acc_rounds) in
                if result = None then begin
                  List.iter (fun i -> starts.(i) <- -1) to_start;
                  List.iter (fun i -> ends.(i) <- -1) to_end
                end;
                result
          end
        in
        let result =
          List.find_map
            (fun to_start ->
              (* anything active or starting now may end now *)
              let endable = to_start @ active in
              List.find_map
                (fun to_end -> try_choice (to_start, to_end))
                (all_subsets endable))
            start_choices
        in
        if result = None then Hashtbl.replace failed memo_key ();
        result
      end
    end
  in
  match search 0 0 0 spec.start_acceptor [] with
  | Some rounds ->
      Interval_linearizable
        {
          intervals =
            List.init n (fun i -> (entries.(i), starts.(i), ends.(i)));
          rounds;
        }
  | None ->
      Not_interval_linearizable
        { reason = Fmt.str "no interval assignment satisfies %s" spec.name }

let is_interval_linearizable ~spec h =
  match check ~spec h with
  | Interval_linearizable _ -> true
  | Not_interval_linearizable _ -> false

(* ----------------------------------------------- example specifications *)

let fid_await = Fid.v "await"
let fid_tick = Fid.v "tick"
let fid_watch = Fid.v "watch"

let one_shot_barrier ~oid ~participants =
  (* state: how many have started, how many have ended; all must start
     before any ends, and each must return the participant count. *)
  let step (started, ended) r =
    let ok_op (o : Op.t) =
      Oid.equal o.oid oid && Fid.equal o.fid fid_await
      && Value.equal o.ret (Value.int participants)
    in
    if not (List.for_all ok_op (r.starting @ r.continuing @ r.ending)) then None
    else begin
      let started' = started + List.length r.starting in
      let ended' = ended + List.length r.ending in
      if started' > participants then None
      else if ended' > 0 && started' < participants then None
      else Some (started', ended')
    end
  in
  make_spec
    ~name:(Fmt.str "barrier(%d)" participants)
    ~init:(0, 0) ~step
    ~key:(fun (s, e) -> Fmt.str "%d/%d" s e)
    ~max_starts_per_round:participants ()

let observer_of_ticks ~oid =
  (* state: (watch ret if active, ticks seen while the watch is active).
     Only one watch at a time, for simplicity. *)
  let is_tick (o : Op.t) = Fid.equal o.fid fid_tick && Value.equal o.ret Value.unit in
  let is_watch (o : Op.t) = Fid.equal o.fid fid_watch in
  let step state r =
    if
      not
        (List.for_all
           (fun (o : Op.t) -> Oid.equal o.oid oid && (is_tick o || is_watch o))
           (r.starting @ r.continuing @ r.ending))
    then None
    else begin
      (* ticks are instantaneous: they must start and end in the same round *)
      let tick_ok =
        List.for_all
          (fun (o : Op.t) -> not (is_tick o) || List.exists (Op.equal o) r.ending)
          r.starting
        && List.for_all (fun (o : Op.t) -> not (is_tick o)) r.continuing
      in
      if not tick_ok then None
      else begin
        let ticks_here = List.length (List.filter is_tick r.starting) in
        let watch_starting = List.filter is_watch r.starting in
        let watch_ending = List.filter is_watch r.ending in
        match (state, watch_starting) with
        | None, [] -> if ticks_here > 0 then Some None else None
        | None, [ w ] ->
            let expected =
              match w.Op.ret with Value.Int k -> k | _ -> -1
            in
            if expected < 2 then None
            else begin
              let seen = ticks_here in
              if watch_ending <> [] then if seen = expected then Some None else None
              else Some (Some (expected, seen))
            end
        | Some (expected, seen), [] ->
            let seen' = seen + ticks_here in
            if seen' > expected then None
            else if watch_ending <> [] then
              if seen' = expected then Some None else None
            else if ticks_here = 0 && r.starting = [] && r.ending = [] then None
            else Some (Some (expected, seen'))
        | Some _, _ :: _ | None, _ :: _ :: _ -> None
      end
    end
  in
  make_spec ~name:"observer-of-ticks" ~init:None ~step
    ~key:(fun s ->
      match s with None -> "-" | Some (e, k) -> Fmt.str "%d/%d" k e)
    ~max_starts_per_round:2 ()
