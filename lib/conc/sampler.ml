type kind =
  | Random_walk
  | Pct of { d : int }
  | Preemption_bounded of { bound : int }

let kind_to_string = function
  | Random_walk -> "random-walk"
  | Pct { d } -> Fmt.str "pct:%d" d
  | Preemption_bounded { bound } -> Fmt.str "pbr:%d" bound

let pp_kind ppf k = Fmt.string ppf (kind_to_string k)

let kind_of_string s =
  let s = String.trim s in
  let int_after prefix =
    let n = String.length prefix in
    if String.length s > n && String.sub s 0 n = prefix then
      int_of_string_opt (String.sub s n (String.length s - n))
    else None
  in
  match s with
  | "random-walk" -> Ok Random_walk
  | _ -> (
      match int_after "pct:" with
      | Some d when d >= 1 -> Ok (Pct { d })
      | Some _ -> Error "pct:<d> needs d >= 1"
      | None -> (
          match int_after "pbr:" with
          | Some bound when bound >= 0 -> Ok (Preemption_bounded { bound })
          | Some _ -> Error "pbr:<bound> needs bound >= 0"
          | None ->
              Error
                (Fmt.str
                   "unknown sampler %S (expected random-walk, pct:<d> or \
                    pbr:<bound>)"
                   s)))

(* ------------------------------------------------------------ driving -- *)

(* Decisions of one thread at the frontier (a Choose contributes one
   decision per branch). *)
let thread_decisions frontier t =
  List.filter (fun (d : Runner.decision) -> d.thread = t) frontier

let frontier_threads frontier =
  List.sort_uniq Int.compare
    (List.map (fun (d : Runner.decision) -> d.thread) frontier)

(* PCT state: per-thread priorities (grown lazily — recovery programs can
   spawn new thread indices), plus the remaining change points. Initial
   priorities are random in a band strictly above every demotion value, so
   a demoted thread stays below every never-demoted one; ties break on the
   smaller thread id, deterministically. *)
type pct_state = {
  d : int;
  prio : (int, int) Hashtbl.t;
  mutable change_points : int list; (* ascending step numbers *)
  mutable next_demotion : int;      (* d - 1, d - 2, … *)
}

let pct_init ~d ~fuel ~rng =
  let points =
    List.init (max 0 (d - 1)) (fun _ -> 1 + Rng.int rng (max 1 fuel))
    |> List.sort_uniq Int.compare
  in
  { d; prio = Hashtbl.create 8; change_points = points; next_demotion = d - 1 }

let pct_priority st ~rng t =
  match Hashtbl.find_opt st.prio t with
  | Some p -> p
  | None ->
      (* the band [d + 1, d + 1024] sits above every demotion value *)
      let p = st.d + 1 + Rng.int rng 1024 in
      Hashtbl.replace st.prio t p;
      p

let pct_pick st ~rng ~step frontier =
  (match st.change_points with
  | s :: rest when s <= step ->
      (* demote the highest-priority enabled thread below everyone *)
      st.change_points <- rest;
      let ts = frontier_threads frontier in
      let best =
        List.fold_left
          (fun acc t ->
            let p = pct_priority st ~rng t in
            match acc with
            | Some (_, bp) when bp >= p -> acc
            | _ -> Some (t, p))
          None ts
      in
      Option.iter
        (fun (t, _) ->
          Hashtbl.replace st.prio t st.next_demotion;
          st.next_demotion <- st.next_demotion - 1)
        best
  | _ -> ());
  let ts = frontier_threads frontier in
  let chosen =
    List.fold_left
      (fun acc t ->
        let p = pct_priority st ~rng t in
        match acc with Some (_, bp) when bp >= p -> acc | _ -> Some (t, p))
      None ts
    |> Option.get |> fst
  in
  match thread_decisions frontier chosen with
  | [ d ] -> d
  | ds -> Rng.pick rng ds

let drive e ~kind ~fuel ~rng =
  (match kind with
  | Pct { d } when d < 1 -> invalid_arg "Sampler: Pct needs d >= 1"
  | Preemption_bounded { bound } when bound < 0 ->
      invalid_arg "Sampler: Preemption_bounded needs bound >= 0"
  | _ -> ());
  let pct =
    match kind with Pct { d } -> Some (pct_init ~d ~fuel ~rng) | _ -> None
  in
  let last = ref None and preemptions = ref 0 in
  let rec go remaining =
    if remaining = 0 then ()
    else
      match Runner.frontier e with
      | [] -> ()
      | frontier ->
          let d =
            match kind with
            | Random_walk -> Rng.pick rng frontier
            | Pct _ ->
                pct_pick (Option.get pct) ~rng
                  ~step:(Runner.steps_done e + 1)
                  frontier
            | Preemption_bounded { bound } -> (
                let last_ds =
                  match !last with
                  | Some t -> thread_decisions frontier t
                  | None -> []
                in
                match last_ds with
                | _ :: _ when !preemptions >= bound ->
                    (* budget spent: must keep running the current thread *)
                    Rng.pick rng last_ds
                | _ :: _ ->
                    let d = Rng.pick rng frontier in
                    if Some d.Runner.thread <> !last then incr preemptions;
                    d
                | [] -> Rng.pick rng frontier)
          in
          last := Some d.Runner.thread;
          ignore (Runner.step e d);
          go (remaining - 1)
  in
  go fuel;
  Runner.outcome e

let run ?plan ~kind ~target ~fuel ~rng () =
  drive (Runner.start_target ?plan target) ~kind ~fuel ~rng

(* ------------------------------------------------- joint plan sampling -- *)

type plan_space = {
  ps_threads : int;
  ps_thread_steps : int array;
  ps_fallible : (string * int) list;
  ps_max_steps : int;
}

let probe_outcomes outcomes =
  let threads =
    List.fold_left
      (fun n (o : Runner.outcome) -> max n (Array.length o.results))
      0 outcomes
  in
  let thread_steps = Array.make (max 1 threads) 0 in
  let fallible : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let max_steps = ref 0 in
  List.iter
    (fun (o : Runner.outcome) ->
      if o.steps > !max_steps then max_steps := o.steps;
      let per_thread = Array.make (max 1 threads) 0 in
      List.iter
        (fun (d : Runner.decision) ->
          if d.thread < threads then
            per_thread.(d.thread) <- per_thread.(d.thread) + 1)
        o.schedule;
      Array.iteri
        (fun t n -> if n > thread_steps.(t) then thread_steps.(t) <- n)
        per_thread;
      let counts = Hashtbl.create 8 in
      List.iter
        (fun l ->
          Hashtbl.replace counts l
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts l)))
        o.fallible_steps;
      Hashtbl.iter
        (fun l n ->
          if n > Option.value ~default:0 (Hashtbl.find_opt fallible l) then
            Hashtbl.replace fallible l n)
        counts)
    outcomes;
  {
    ps_threads = threads;
    ps_thread_steps = thread_steps;
    ps_fallible =
      Hashtbl.fold (fun l n acc -> (l, n) :: acc) fallible []
      |> List.sort compare;
    ps_max_steps = !max_steps;
  }

let probe ~target ~fuel ~runs ~rng () =
  probe_outcomes
    (List.init (max 1 runs) (fun _ ->
         run ~kind:Random_walk ~target ~fuel ~rng ()))

(* One random per-thread fault from the probed space, or None when the
   chosen category has no candidate point. *)
let sample_fault space ~delay_factors ~rng =
  let categories =
    [ `Crash; `Stall ]
    @ (if space.ps_fallible <> [] then [ `Fail ] else [])
    @ if delay_factors <> [] then [ `Delay ] else []
  in
  let thread () = Rng.int rng (max 1 space.ps_threads) in
  match Rng.pick rng categories with
  | `Crash ->
      let t = thread () in
      (* at_step beyond the thread's horizon never fires; stay within it *)
      Some (Fault.crash ~thread:t ~at_step:(Rng.int rng (space.ps_thread_steps.(t) + 1)))
  | `Stall ->
      let t = thread () in
      Some
        (Fault.stall ~thread:t
           ~at_step:(Rng.int rng (space.ps_thread_steps.(t) + 1))
           ~for_steps:(1 + Rng.int rng 4))
  | `Fail ->
      let label, occurrences = Rng.pick rng space.ps_fallible in
      Some (Fault.fail_step ~label ~nth:(1 + Rng.int rng occurrences))
  | `Delay ->
      let factor = Rng.pick rng delay_factors in
      if factor < 2 then None
      else Some (Fault.delay ~thread:(thread ()) ~factor)

let sample_plan ?(fault_bound = 1) ?(delay_factors = []) ?(crash_depth = 0)
    space ~rng =
  let faults = ref [] in
  let k = Rng.int rng (fault_bound + 1) in
  for _ = 1 to k do
    match sample_fault space ~delay_factors ~rng with
    | None -> ()
    | Some f ->
        (* keep plans valid: one Crash and one Delay per thread *)
        let clashes =
          List.exists
            (fun g ->
              match (f, g) with
              | Fault.Crash { thread = a; _ }, Fault.Crash { thread = b; _ }
              | Fault.Delay { thread = a; _ }, Fault.Delay { thread = b; _ } ->
                  a = b
              | _ -> Fault.equal f g)
            !faults
        in
        if not clashes then faults := f :: !faults
  done;
  let crashes =
    if crash_depth <= 0 then []
    else
      List.init (Rng.int rng (crash_depth + 1)) (fun _ ->
          Rng.int rng (space.ps_max_steps + 1))
      |> List.sort_uniq Int.compare
      |> List.map (fun at_step -> Fault.crash_system ~at_step)
  in
  let plan = List.rev !faults @ crashes in
  match Fault.validate ~max_crash_depth:(max 1 crash_depth) plan with
  | Ok () -> plan
  | Error _ -> (* unreachable by construction; stay total *) []
