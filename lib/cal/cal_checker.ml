type stats = { states_explored : int; memo_hits : int; drop_sets_tried : int }

type verdict =
  | Accepted of {
      trace : Ca_trace.t;
      completion : History.t;
      final : Spec.acceptor;
      stats : stats;
    }
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
    Array.fold_right
      (fun (e : History.entry) acc ->
        Value.subvalues e.arg
        @ (match e.ret with None -> [] | Some r -> Value.subvalues r)
        @ acc)
      entries []
  in
  List.sort_uniq Value.compare values

(* The failed-state table: (decided mask, specification key) pairs,
   compared without the polymorphic equality of a generic [Hashtbl]. *)
module Failed = Hashtbl.Make (struct
  type t = int * string

  let equal ((d, k) : t) ((d', k') : t) = Int.equal d d' && String.equal k k'
  let hash ((d, k) : t) = Hashtbl.hash k lxor (d * 0x9E3779B1)
end)

(* Intern each entry's (object, era) pair to a small int, in order of first
   appearance. *)
let group_ids (entries : History.entry array) =
  let seen = ref [] in
  Array.map
    (fun (e : History.entry) ->
      let rec find = function
        | [] ->
            let g = List.length !seen in
            seen := (e.oid, e.era, g) :: !seen;
            g
        | (o, era, g) :: rest ->
            if era = e.era && Ids.Oid.equal o e.oid then g else find rest
      in
      find !seen)
    entries

(* [take g groups] is the members of group [g] in [groups] (empty when
   absent) and [groups] without it, the others in their order. *)
let rec take g = function
  | [] -> ([], [])
  | ((g', members) as x) :: rest ->
      if Int.equal g g' then (members, rest)
      else
        let members, rest = take g rest in
        (members, x :: rest)

let check ?crashed ~spec h =
  let entries =
    match History.scan h with
    | Ok es -> es
    | Error reason -> invalid_arg ("Cal_checker.check: " ^ reason)
  in
  let n = Array.length entries in
  if n > 62 then invalid_arg "Cal_checker.check: more than 62 operations";
  (* The compiled history: everything the search reads, built once per
     call. The universe is only needed to complete a pending operation. *)
  let op = Array.map History.op_of_entry entries in
  let pending = Array.map History.pending_of_entry entries in
  let group = group_ids entries in
  let universe = lazy (universe_of_entries entries) in
  let crashes = History.crash_count h in
  (* Crash-tolerant mode: only the pending operations of crashed threads
     may be dropped; a live thread's pending operation must be completed.
     Without [crashed] every pending operation is droppable (the classic
     completion construction). Durable mode composes with either: an
     operation pending at a {e system} crash (any era before the final
     one) either persisted — it is kept and must be explainable strictly
     before every later-era operation ({!History.precedes}) — or was lost,
     so it is always droppable. *)
  let droppable (e : History.entry) =
    e.ret = None
    && (e.era < crashes
       ||
       match crashed with
       | None -> true
       | Some tids -> List.exists (Ids.Tid.equal e.tid) tids)
  in
  let bits f =
    let m = ref 0 in
    for i = 0 to n - 1 do
      if f i then m := !m lor (1 lsl i)
    done;
    !m
  in
  let droppable_mask = bits (fun i -> droppable entries.(i)) in
  (* Operation-level real-time order as predecessor bitmasks; a pending
     operation precedes only the operations of later eras. *)
  let preds =
    Array.init n (fun j -> bits (fun i -> History.precedes entries.(i) entries.(j)))
  in
  let full = (1 lsl n) - 1 in
  let states_explored = ref 0 in
  let memo_hits = ref 0 in
  let drop_moves = ref 0 in
  let stats () =
    {
      states_explored = !states_explored;
      memo_hits = !memo_hits;
      drop_sets_tried = !drop_moves;
    }
  in
  (* One DFS decides the completion and the trace together. [decided] is
     the bitmask of operations already placed in an element or dropped;
     an operation is available once all its predecessors are decided, so
     a dropped operation releases its real-time successors. The future of
     a state depends only on [decided] and the acceptor, hence the memo
     key. The search returns the trace, its final acceptor, the dropped
     mask and the chosen returns of kept pending operations. *)
  (* Created on the first failed state: a history whose search never
     backtracks pays for no table. *)
  let failed = ref None in
  let rec dfs decided dropped acc acc_trace rets =
    if decided = full then Some (List.rev acc_trace, acc, dropped, rets)
    else begin
      let memo_key = (decided, Spec.key acc) in
      if match !failed with None -> false | Some t -> Failed.mem t memo_key then begin
        incr memo_hits;
        None
      end
      else begin
        incr states_explored;
        let avail = ref [] in
        for i = n - 1 downto 0 do
          if decided land (1 lsl i) = 0 && preds.(i) land lnot decided = 0 then
            avail := i :: !avail
        done;
        let avail = !avail in
        (* Group by (object, era): a CA-element must never straddle a
           crash marker. The era-aware [precedes] already forces [avail]
           to be era-uniform (a later-era operation waits for every
           earlier-era one), but the key makes the invariant structural
           rather than a consequence of the search order. The group of
           the latest available operation comes first, members
           newest-first. *)
        let by_group =
          List.fold_left
            (fun groups i ->
              let g = group.(i) in
              let cur, rest = take g groups in
              (g, i :: cur) :: rest)
            [] avail
        in
        let try_subset subset =
          let fixed, pend = List.partition (fun i -> Option.is_some op.(i)) subset in
          let fixed_ops = List.map (fun i -> Option.get op.(i)) fixed in
          let cand_lists =
            List.map
              (fun i ->
                Spec.candidates acc ~universe:(Lazy.force universe) pending.(i))
              pend
          in
          let try_assignment pend_rets =
            let pend_ops =
              List.map2 (fun i ret -> Op.of_pending pending.(i) ~ret) pend pend_rets
            in
            let elem =
              match (fixed_ops, pend_ops) with
              | [ o ], [] | [], [ o ] -> Ca_trace.singleton o
              | _ -> Ca_trace.element entries.(List.hd subset).History.oid (fixed_ops @ pend_ops)
            in
            match Spec.step acc elem with
            | None -> None
            | Some acc' ->
                let decided' =
                  List.fold_left (fun m i -> m lor (1 lsl i)) decided subset
                in
                dfs decided' dropped acc' (elem :: acc_trace)
                  (List.rev_append (List.combine pend pend_rets) rets)
          in
          List.find_map try_assignment (ret_assignments cand_lists)
        in
        let drop i =
          let bit = 1 lsl i in
          if droppable_mask land bit = 0 then None
          else begin
            incr drop_moves;
            dfs (decided lor bit) (dropped lor bit) acc acc_trace rets
          end
        in
        (* Place-moves first, in the order that fixes the witness of a
           history with nothing to drop; drop-moves only after every
           placement from this state has failed. *)
        let result =
          match
            List.find_map
              (fun (_, members) ->
                List.find_map try_subset
                  (subsets_up_to spec.Spec.max_element_size members))
              by_group
          with
          | Some _ as r -> r
          | None -> List.find_map drop avail
        in
        if result = None then begin
          let t =
            match !failed with
            | Some t -> t
            | None ->
                let t = Failed.create (Tuning.checker_table_size ~ops:n) in
                failed := Some t;
                t
          in
          Failed.replace t memo_key ()
        end;
        result
      end
    end
  in
  match dfs 0 0 spec.Spec.start [] [] with
  | Some (trace, final, dropped, rets) ->
      (* Rebuild the completion: remove dropped invocations, append the
         chosen responses for kept pending operations. *)
      let dropped_inv =
        List.filter_map
          (fun i ->
            if dropped land (1 lsl i) <> 0 then Some entries.(i).History.inv_index
            else None)
          (List.init n Fun.id)
      in
      let kept_actions =
        History.to_list h
        |> List.filteri (fun idx _ -> not (List.mem idx dropped_inv))
      in
      let appended =
        List.filter_map
          (fun i ->
            let e = entries.(i) in
            Option.map
              (fun ret -> (e.era, Action.res ~tid:e.tid ~oid:e.oid ~fid:e.fid ret))
              (List.assoc_opt i rets))
          (List.init n Fun.id)
      in
      Accepted
        {
          trace;
          completion = History.with_responses kept_actions appended;
          final;
          stats = stats ();
        }
  | None ->
      Rejected
        {
          reason =
            "no "
            ^ (if crashed = None && crashes = 0 then "" else "crash-consistent ")
            ^ "completion of the history is explained by any " ^ spec.Spec.name ^ " trace";
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
