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

(* [submasks f chosen hi k rest i] calls [f s hi'] on the non-empty masks
   [s] = [chosen] plus at most [k] bits of [rest] (whose bits are all at
   most [i]), with [hi'] the highest bit of [s], and returns the first
   [Some]. Reading [rest]'s bits from the highest down as a list, the
   order is {!subsets_up_to}'s: masks with a bit before masks without it.
   At [k = 1] it is a loop over [rest]'s bits, highest first. *)
let rec submasks f chosen hi k rest i =
  if k = 0 || rest = 0 then if chosen = 0 then None else f chosen hi
  else
    let bit = 1 lsl i in
    if rest land bit = 0 then submasks f chosen hi k rest (i - 1)
    else
      let rest = rest lxor bit in
      match
        submasks f (chosen lor bit) (if chosen = 0 then i else hi) (k - 1) rest (i - 1)
      with
      | Some _ as r -> r
      | None -> submasks f chosen hi k rest (i - 1)

let submasks_up_to k m =
  let acc = ref [] in
  ignore
    (submasks
       (fun s _ ->
         acc := s :: !acc;
         None)
       0 0 k m 62);
  List.rev !acc

let check ?crashed ~spec h =
  let entries =
    match History.scan h with
    | Ok es -> es
    | Error reason -> invalid_arg ("Cal_checker.check: " ^ reason)
  in
  let n = Array.length entries in
  if n > 62 then invalid_arg "Cal_checker.check: more than 62 operations";
  (* The compiled history: everything the search reads, built once per
     call. The universe is built only if a specification's candidates
     force it. *)
  let op = Array.map History.op_of_entry entries in
  let pending = Array.map History.pending_of_entry entries in
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
  (* Each entry's (object, era) group, as a mask. *)
  let same_group =
    Array.map
      (fun (e : History.entry) ->
        bits (fun j -> entries.(j).era = e.era && Ids.Oid.equal entries.(j).oid e.oid))
      entries
  in
  let max_size = spec.Spec.max_element_size in
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
  let available decided =
    let m = ref 0 in
    for i = 0 to n - 1 do
      if decided land (1 lsl i) = 0 && preds.(i) land lnot decided = 0 then
        m := !m lor (1 lsl i)
    done;
    !m
  in
  (* Created on the first failed state: a history whose search never
     backtracks pays for no table, and no state prints its specification
     key before a table exists or a failure is recorded. *)
  let failed = ref None in
  let record_failure decided acc key =
    let t =
      match !failed with
      | Some t -> t
      | None ->
          let t = Failed.create (Tuning.checker_table_size ~ops:n) in
          failed := Some t;
          t
    in
    let key = match key with Some k -> k | None -> Spec.key acc in
    Failed.replace t (decided, key) ()
  in
  (* One DFS decides the completion and the trace together. [decided] is
     the bitmask of operations already placed in an element or dropped;
     an operation is available once all its predecessors are decided, so
     a dropped operation releases its real-time successors. The future of
     a state depends only on [decided] and the acceptor, hence the memo
     key. The search returns the trace, its final acceptor, the dropped
     mask and the chosen returns of kept pending operations.

     A state's moves read only masks and the compiled arrays. Place-moves
     come first, in the order that fixes the witness of a history with
     nothing to drop. Groups are (object, era) pairs: a CA-element must
     never straddle a crash marker. The era-aware [precedes] already
     forces the available operations to be era-uniform (a later-era
     operation waits for every earlier-era one), but the group makes the
     invariant structural rather than a consequence of the search order.
     Scanning the available mask from the newest operation down visits
     the group of the latest available operation first; within a group,
     [submasks] enumerates the elements of at most [max_element_size]
     members, newest member first. Drop-moves come only after every
     placement from the state has failed, in ascending operation order. *)
  let rec dfs decided dropped acc acc_trace rets =
    if decided = full then Some (List.rev acc_trace, acc, dropped, rets)
    else
      let key, seen =
        match !failed with
        | None -> (None, false)
        | Some t ->
            let k = Spec.key acc in
            (Some k, Failed.mem t (decided, k))
      in
      if seen then begin
        incr memo_hits;
        None
      end
      else begin
        incr states_explored;
        let avail = available decided in
        let result =
          match
            place_groups
              (place_subset decided dropped acc acc_trace rets)
              avail (n - 1)
          with
          | Some _ as r -> r
          | None -> drop_from decided dropped acc acc_trace rets (avail land droppable_mask) 0
        in
        if Option.is_none result then record_failure decided acc key;
        result
      end
  (* The groups of [remaining] (bits at most [i]), newest group first. *)
  and place_groups try_subset remaining i =
    if remaining = 0 then None
    else if remaining land (1 lsl i) = 0 then place_groups try_subset remaining (i - 1)
    else
      let members = remaining land same_group.(i) in
      match submasks try_subset 0 0 max_size members i with
      | Some _ as r -> r
      | None -> place_groups try_subset (remaining lxor members) (i - 1)
  (* Place the operations of mask [s], the highest [hi], as the next
     element. A lone operation with a response needs no return and no
     element validation. *)
  and place_subset decided dropped acc acc_trace rets s hi =
    match op.(hi) with
    | Some o when s land (s - 1) = 0 ->
        step_into decided dropped acc acc_trace rets s (Ca_trace.singleton o)
    | _ -> assign decided dropped acc acc_trace rets s hi s hi []
  (* Collect the operations of [m]'s bits (all at most [i]), newest first,
     then place them: a pending member takes each candidate return in
     turn, the newest pending member's choice varying slowest. *)
  and assign decided dropped acc acc_trace rets s hi m i ops =
    if m = 0 then
      step_into decided dropped acc acc_trace rets s
        (match ops with
        | [ o ] -> Ca_trace.singleton o
        | _ -> Ca_trace.element entries.(hi).History.oid ops)
    else
      let bit = 1 lsl i in
      if m land bit = 0 then assign decided dropped acc acc_trace rets s hi m (i - 1) ops
      else
        match op.(i) with
        | Some o -> assign decided dropped acc acc_trace rets s hi (m lxor bit) (i - 1) (o :: ops)
        | None ->
            let p = pending.(i) in
            let rec try_rets = function
              | [] -> None
              | ret :: more -> (
                  match
                    assign decided dropped acc acc_trace ((i, ret) :: rets) s hi
                      (m lxor bit) (i - 1)
                      (Op.of_pending p ~ret :: ops)
                  with
                  | Some _ as r -> r
                  | None -> try_rets more)
            in
            try_rets (Spec.candidates acc ~universe p)
  and step_into decided dropped acc acc_trace rets s elem =
    match Spec.step acc elem with
    | None -> None
    | Some acc' -> dfs (decided lor s) dropped acc' (elem :: acc_trace) rets
  (* Drop the droppable available operations of [m] (bits at least [i]),
     lowest first. *)
  and drop_from decided dropped acc acc_trace rets m i =
    if m = 0 then None
    else
      let bit = 1 lsl i in
      if m land bit = 0 then drop_from decided dropped acc acc_trace rets m (i + 1)
      else begin
        incr drop_moves;
        match dfs (decided lor bit) (dropped lor bit) acc acc_trace rets with
        | Some _ as r -> r
        | None -> drop_from decided dropped acc acc_trace rets (m lxor bit) (i + 1)
      end
  in
  match dfs 0 0 spec.Spec.start [] [] with
  | Some (trace, final, dropped, rets) ->
      (* Rebuild the completion: remove dropped invocations, append the
         chosen responses for kept pending operations. A history with
         neither is its own completion. *)
      let completion =
        if dropped = 0 && rets = [] then h
        else
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
          History.with_responses kept_actions appended
      in
      Accepted { trace; completion; final; stats = stats () }
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
