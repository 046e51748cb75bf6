type stats = {
  candidates : int;
  steps_removed : int;
  plan_removed : int;
  rounds : int;
}

type minimized = {
  m_schedule : Runner.schedule;
  m_plan : Fault.plan;
  m_outcome : Runner.outcome;
  m_stats : stats;
}

let replay target ~plan sched =
  let e = Runner.start_target ~plan target in
  List.iter (fun d -> ignore (Runner.step e d)) sched;
  Runner.outcome e

let tolerant_replay target ~plan sched =
  let e = Runner.start_target ~plan target in
  List.iter
    (fun (d : Runner.decision) ->
      if List.mem d (Runner.frontier e) then ignore (Runner.step e d))
    sched;
  Runner.outcome e

(* ---------------------------------------------------------------- ddmin -- *)

(* Split [xs] into [n] chunks of near-equal size (the first [len mod n]
   chunks get the extra element). *)
let chunks n xs =
  let len = List.length xs in
  let base = len / n and extra = len mod n in
  let rec go i xs acc =
    if i >= n then List.rev acc
    else
      let size = base + if i < extra then 1 else 0 in
      let rec take k ys front =
        if k = 0 then (List.rev front, ys)
        else
          match ys with
          | [] -> (List.rev front, [])
          | y :: rest -> take (k - 1) rest (y :: front)
      in
      let chunk, rest = take size xs [] in
      go (i + 1) rest (chunk :: acc)
  in
  go 0 xs []

(* Classic ddmin: minimize [xs] such that [accept xs'] keeps holding.
   Termination: every accepted candidate is strictly shorter, and the
   granularity [n] only grows otherwise. At return, [accept] rejected the
   removal of every single element — 1-minimality. *)
let ddmin ~accept xs =
  let rec go xs n =
    let len = List.length xs in
    if len <= 1 then xs
    else
      let parts = chunks (min n len) xs in
      (* reduce to subset: some chunk alone still fails *)
      match List.find_opt accept parts with
      | Some subset -> go subset 2
      | None -> (
          (* reduce to complement: drop one chunk *)
          let complements =
            List.mapi
              (fun i _ ->
                List.concat (List.filteri (fun j _ -> j <> i) parts))
              parts
          in
          match
            List.find_opt (fun c -> List.length c < len && accept c) complements
          with
          | Some complement -> go complement (max 2 (min n len - 1))
          | None -> if min n len >= len then xs else go xs (min (2 * n) len))
  in
  go xs 2

(* ------------------------------------------------------------- minimize -- *)

let minimize ~target ~fails ~schedule ?(plan = []) () =
  let tried = ref 0 in
  let attempt ~plan sched =
    incr tried;
    tolerant_replay target ~plan sched
  in
  let o0 = attempt ~plan schedule in
  if not (fails o0) then
    Error
      (Fmt.str
         "Shrink.minimize: the input (schedule of %d, plan of %d) does not \
          fail under replay"
         (List.length schedule) (List.length plan))
  else begin
    (* normalize to the decisions actually applied *)
    let sched = ref o0.Runner.schedule in
    let plan = ref plan in
    let outcome = ref o0 in
    let rounds = ref 0 in
    let continue = ref true in
    while !continue && !rounds < 16 do
      incr rounds;
      let before = (List.length !sched, List.length !plan) in
      (* axis 1: schedule decisions (suffix chunks double as fuel cuts) *)
      let accept cand =
        let o = attempt ~plan:!plan cand in
        if fails o then begin
          (* keep the {e applied} decisions as the new witness *)
          sched := o.Runner.schedule;
          outcome := o;
          true
        end
        else false
      in
      let _ = ddmin ~accept !sched in
      (* axis 2: plan elements (removal keeps Fault.validate: dropping
         entries never breaks ordering or uniqueness constraints) *)
      let accept_plan cand =
        let o = attempt ~plan:cand !sched in
        if fails o then begin
          plan := cand;
          sched := o.Runner.schedule;
          outcome := o;
          true
        end
        else false
      in
      let _ = ddmin ~accept:accept_plan !plan in
      continue := (List.length !sched, List.length !plan) <> before
    done;
    (* The loop left a witness on which ddmin rejected every single-element
       removal on both axes: 1-minimal. Re-derive the outcome by strict
       replay (the applied decisions replay strictly by construction). *)
    let final = replay target ~plan:!plan !sched in
    if not (fails final) then
      Error
        "Shrink.minimize: strict replay of the minimized witness does not \
         fail (nondeterministic setup?)"
    else
      Ok
        {
          m_schedule = !sched;
          m_plan = !plan;
          m_outcome = final;
          m_stats =
            {
              candidates = !tried;
              steps_removed =
                List.length o0.Runner.schedule - List.length !sched;
              plan_removed = List.length o0.Runner.faults - List.length !plan;
              rounds = !rounds;
            };
        }
  end

(* ------------------------------------------------------------- segments -- *)

let segments target ~plan sched =
  let e = Runner.start_target ~plan target in
  let segs = ref [] in
  (* (thread, preemptive, count) of the open segment, newest at head *)
  List.iter
    (fun (d : Runner.decision) ->
      let frontier = Runner.frontier e in
      (match !segs with
      | (t, p, n) :: rest when t = d.thread -> segs := (t, p, n + 1) :: rest
      | (t, _, _) :: _ ->
          let preemptive =
            List.exists (fun (f : Runner.decision) -> f.thread = t) frontier
          in
          segs := (d.thread, preemptive, 1) :: !segs
      | [] -> segs := (d.thread, false, 1) :: !segs);
      ignore (Runner.step e d))
    sched;
  List.rev !segs
