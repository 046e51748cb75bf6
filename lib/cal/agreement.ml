type witness = { assignment : (History.entry * int) list }

(* Decide Definition 5 by assigning history operations to trace positions,
   position by position. Operations assignable at position [k] are those
   whose every real-time predecessor is already assigned to a position
   strictly below [k]; this both enforces [i ≺H j ⟹ π(i) < π(j)] and makes
   the operations inside one element pairwise concurrent. Identical
   operations are interchangeable, so matching an element's multiset
   requires backtracking. The result is each entry's position. *)
let assign entries trace =
  let n = Array.length entries in
  let ops_of_trace = Ca_trace.ops trace in
  if not (History.all_returned entries) then Error "history is not complete"
  else if List.length ops_of_trace <> n then
    Error
      (Fmt.str "operation count mismatch: history has %d, trace has %d" n
         (List.length ops_of_trace))
  else begin
    let op_of = Array.map (fun e -> Option.get (History.op_of_entry e)) entries in
    let preds =
      Array.init n (fun i ->
          let ps = ref [] in
          for j = n - 1 downto 0 do
            if History.precedes entries.(j) entries.(i) then ps := j :: !ps
          done;
          !ps)
    in
    let assigned = Array.make n (-1) in
    let elements = Array.of_list trace in
    (* Assign all ops of element [k]; [ops] is the suffix still to match. *)
    let rec match_element k ops =
      match ops with
      | [] -> place (k + 1)
      | op :: rest ->
          let try_entry i =
            if assigned.(i) <> -1 then false
            else if not (Op.equal op_of.(i) op) then false
            else if
              List.exists (fun j -> assigned.(j) = -1 || assigned.(j) >= k) preds.(i)
            then false
            else begin
              assigned.(i) <- k;
              if match_element k rest then true
              else begin
                assigned.(i) <- -1;
                false
              end
            end
          in
          let rec try_from i = i < n && (try_entry i || try_from (i + 1)) in
          try_from 0
    and place k =
      if k >= Array.length elements then Array.for_all (fun p -> p <> -1) assigned
      else match_element k (Ca_trace.element_ops elements.(k))
    in
    if place 0 then Ok assigned
    else Error "no surjection explains the history by the trace"
  end

let decide_entries entries trace = Result.map ignore (assign entries trace)

let check_entries entries trace =
  Result.map
    (fun assigned ->
      {
        assignment =
          List.init (Array.length entries) (fun i -> (entries.(i), assigned.(i)))
          |> List.sort (fun (_, a) (_, b) -> Int.compare a b);
      })
    (assign entries trace)

let check h trace =
  match History.scan h with
  | Ok entries -> check_entries entries trace
  | Error _ -> Error "history is not complete"

let agrees h t = Result.is_ok (check h t)
