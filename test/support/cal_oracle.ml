type stats = { states_explored : int; memo_hits : int; drop_sets_tried : int }

type verdict =
  | Accepted of { trace : Ca_trace.t; completion : History.t; stats : stats }
  | Rejected of { reason : string; stats : stats }

(* Non-empty sublists of [xs] with at most [k] elements, each sublist in the
   original order. The enumeration order is part of the checker's contract
   (it decides which witness the search finds first): subsets containing
   the head come before subsets without it, exactly as the naive
   [with_x @ without] formulation — but built back-to-front onto an
   accumulator, so the cost is linear in the output size instead of
   quadratic in the [with_x] prefix lengths. *)
let subsets_up_to k xs =
  (* [go prefix_rev k xs tail] conses, in enumeration order, every subset
     [List.rev prefix_rev @ s] with [s] drawn from [xs], [|s| <= k], in
     front of [tail]. *)
  let rec go prefix_rev k xs tail =
    match xs with
    | [] -> List.rev prefix_rev :: tail
    | x :: rest ->
        let without = go prefix_rev k rest tail in
        if k = 0 then without else go (x :: prefix_rev) (k - 1) rest without
  in
  List.filter (fun s -> s <> []) (go [] k xs [])

(* All ways of assigning one candidate return to every pending entry of a
   tentative element. Produces lists aligned with [pendings]. *)
let rec ret_assignments = function
  | [] -> [ [] ]
  | cands :: rest ->
      List.concat_map
        (fun ret -> List.map (fun tail -> ret :: tail) (ret_assignments rest))
        cands

let universe_of_entries entries =
  let values =
    List.concat_map
      (fun (e : History.entry) ->
        Value.subvalues e.arg
        @ (match e.ret with None -> [] | Some r -> Value.subvalues r))
      entries
  in
  List.sort_uniq Value.compare values

let check ?crashed ~spec h =
  (match History.validate h with
  | Ok () -> ()
  | Error reason -> invalid_arg ("Cal_checker.check: " ^ reason));
  let entries = Array.of_list (History.entries h) in
  let n = Array.length entries in
  if n > 62 then invalid_arg "Cal_checker.check: more than 62 operations";
  let universe = universe_of_entries (Array.to_list entries) in
  (* Crash-tolerant mode: only the pending operations of crashed threads
     may be dropped; a live thread's pending operation must be completed.
     Without [crashed] every pending operation is droppable (the classic
     completion construction). Durable mode composes with either: an
     operation pending at a {e system} crash (any era before the final
     one) either persisted — it is kept and must be explainable strictly
     before every later-era operation ({!History.precedes}) — or was lost,
     so it is always droppable. *)
  let last_era = History.eras h - 1 in
  let droppable (e : History.entry) =
    e.era < last_era
    ||
    match crashed with
    | None -> true
    | Some tids -> List.exists (Ids.Tid.equal e.tid) tids
  in
  let pending_ids =
    Array.to_list entries
    |> List.filter_map (fun (e : History.entry) ->
           if e.res_index = None && droppable e then Some e.id else None)
  in
  let entry_bit = Hashtbl.create 16 in
  Array.iteri (fun i (e : History.entry) -> Hashtbl.replace entry_bit e.id i) entries;
  let bit_of id = Hashtbl.find entry_bit id in
  (* Operation-level real-time order; pending operations precede nothing. *)
  let precedes i j = History.precedes entries.(i) entries.(j) in
  let preds =
    Array.init n (fun j ->
        List.filter (fun i -> precedes i j) (List.init n Fun.id))
  in
  let states_explored = ref 0 in
  let memo_hits = ref 0 in
  let drop_sets = ref 0 in
  let stats () =
    {
      states_explored = !states_explored;
      memo_hits = !memo_hits;
      drop_sets_tried = !drop_sets;
    }
  in
  (* Search one completion shape: [active] is the bitmask of operations kept
     (pending operations outside it are dropped). Returns the explaining
     trace (reversed) together with the chosen returns for kept pending
     operations. *)
  let search active =
    let failed = Hashtbl.create (Tuning.checker_table_size ~ops:n) in
    let chosen_rets = Hashtbl.create 8 in
    let rec dfs placed acc acc_trace =
      if placed = active then Some (List.rev acc_trace)
      else begin
        let memo_key = (placed, Spec.key acc) in
        if Hashtbl.mem failed memo_key then begin
          incr memo_hits;
          None
        end
        else begin
          incr states_explored;
          let avail =
            List.filter
              (fun i ->
                active land (1 lsl i) <> 0
                && placed land (1 lsl i) = 0
                && List.for_all
                     (fun p ->
                       active land (1 lsl p) = 0 || placed land (1 lsl p) <> 0)
                     preds.(i))
              (List.init n Fun.id)
          in
          (* Group by (object, era): a CA-element must never straddle a
             crash marker. The era-aware [precedes] already forces [avail]
             to be era-uniform (a later-era operation waits for every
             earlier-era one), but the key makes the invariant structural
             rather than a consequence of the search order. *)
          let by_oid =
            List.fold_left
              (fun groups i ->
                let key = (entries.(i).History.oid, entries.(i).History.era) in
                let cur = try List.assoc key groups with Not_found -> [] in
                (key, i :: cur) :: List.remove_assoc key groups)
              [] avail
          in
          let try_subset subset =
            let fixed, pend =
              List.partition (fun i -> entries.(i).History.ret <> None) subset
            in
            let fixed_ops =
              List.map (fun i -> Option.get (History.op_of_entry entries.(i))) fixed
            in
            let cand_lists =
              List.map
                (fun i ->
                  Spec.candidates acc ~universe:(Lazy.from_val universe)
                    (History.pending_of_entry entries.(i)))
                pend
            in
            let try_assignment rets =
              let pend_ops =
                List.map2
                  (fun i ret ->
                    Op.of_pending (History.pending_of_entry entries.(i)) ~ret)
                  pend rets
              in
              let oid = entries.(List.hd subset).History.oid in
              let elem = Ca_trace.element oid (fixed_ops @ pend_ops) in
              match Spec.step acc elem with
              | None -> None
              | Some acc' ->
                  let placed' =
                    List.fold_left (fun m i -> m lor (1 lsl i)) placed subset
                  in
                  List.iter2 (fun i ret -> Hashtbl.replace chosen_rets i ret) pend rets;
                  let r = dfs placed' acc' (elem :: acc_trace) in
                  if r = None then
                    List.iter (fun i -> Hashtbl.remove chosen_rets i) pend;
                  r
            in
            List.find_map try_assignment (ret_assignments cand_lists)
          in
          let result =
            List.find_map
              (fun (_, group) ->
                List.find_map try_subset
                  (subsets_up_to spec.Spec.max_element_size group))
              by_oid
          in
          if result = None then Hashtbl.replace failed memo_key ();
          result
        end
      end
    in
    match dfs 0 spec.Spec.start [] with
    | None -> None
    | Some trace -> Some (trace, chosen_rets)
  in
  (* Enumerate drop subsets of pending invocations, fewest drops first: a
     completion that keeps more operations is a stronger witness. *)
  let p = List.length pending_ids in
  let full_mask = (1 lsl n) - 1 in
  let drop_masks =
    List.init (1 lsl p) Fun.id
    |> List.sort (fun a b ->
           (* fewer dropped operations first *)
           let pop x =
             let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
             go x 0
           in
           Int.compare (pop a) (pop b))
  in
  let result =
    List.find_map
      (fun dm ->
        incr drop_sets;
        let dropped_bits =
          List.filteri (fun i _ -> dm land (1 lsl i) <> 0) pending_ids
          |> List.fold_left (fun m id -> m lor (1 lsl bit_of id)) 0
        in
        let active = full_mask land lnot dropped_bits in
        Option.map (fun r -> (r, dropped_bits)) (search active))
      drop_masks
  in
  match result with
  | Some ((trace, chosen_rets), dropped_bits) ->
      (* Rebuild the completion: remove dropped invocations, append the
         chosen responses for kept pending operations. *)
      let dropped_ids =
        Array.to_list entries
        |> List.filter_map (fun (e : History.entry) ->
               if dropped_bits land (1 lsl bit_of e.id) <> 0 then Some e.id else None)
      in
      let kept_actions =
        History.to_list h
        |> List.filteri (fun idx _ -> not (List.mem idx dropped_ids))
      in
      let appended =
        Array.to_list entries
        |> List.filter_map (fun (e : History.entry) ->
               match Hashtbl.find_opt chosen_rets (bit_of e.id) with
               | Some ret ->
                   Some (e.era, Action.res ~tid:e.tid ~oid:e.oid ~fid:e.fid ret)
               | None -> None)
      in
      Accepted
        {
          trace;
          completion = History.with_responses kept_actions appended;
          stats = stats ();
        }
  | None ->
      Rejected
        {
          reason =
            Fmt.str "no %scompletion of the history is explained by any %s trace"
              (if crashed = None && History.crash_count h = 0 then ""
               else "crash-consistent ")
              spec.Spec.name;
          stats = stats ();
        }

let is_cal ?crashed ~spec h =
  match check ?crashed ~spec h with Accepted _ -> true | Rejected _ -> false

let pp_verdict ppf = function
  | Accepted { trace; stats; _ } ->
      Fmt.pf ppf "@[<v>ACCEPTED (states=%d, memo-hits=%d)@,witness: %a@]"
        stats.states_explored stats.memo_hits Ca_trace.pp trace
  | Rejected { reason; stats } ->
      Fmt.pf ppf "REJECTED (states=%d): %s" stats.states_explored reason
