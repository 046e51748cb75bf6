open Cal

(* One object instance's incremental monitor. The committed acceptor is
   the specification state reached by every already-verified action; the
   window holds the actions since. Windows are verified at quiescent
   points (no pending invocation), where the verdict of the exhaustive
   checker started from the committed state is exact — and on a
   sequential window the checker is bypassed entirely, because the only
   admissible CA-trace is the singleton elements in invocation order. *)

type mode =
  | Accepting
  | Desynced of string  (* counting only, until the next era *)
  | Latched of { op : int; reason : string }

type t = {
  oid : Ids.Oid.t;
  spec : Spec.t;
  committed : Spec.acceptor;
  window : Action.t list;  (* newest first *)
  window_len : int;
  pending : (Ids.Tid.t * Ids.Fid.t) list;
  high_water : int;  (* max concurrent pending since the last commit *)
  qpoints : int;  (* quiescent points since creation, for sampling *)
  era : int;
  ops : int;  (* completed operations over the session's whole life *)
  mode : mode;
  last_active : int;
}

let make ~oid ~spec ~now mode =
  {
    oid;
    spec;
    committed = spec.Spec.start;
    window = [];
    window_len = 0;
    pending = [];
    high_water = 0;
    qpoints = 0;
    era = 0;
    ops = 0;
    mode;
    last_active = now;
  }

let create ~oid ~spec ~now ~fresh =
  make ~oid ~spec ~now
    (if fresh then Accepting
     else Desynced "admitted with unknown prior history")

let of_snapshot ~oid ~spec ~now ~ops ~era latched =
  let mode =
    match latched with
    | Some (op, reason) -> Latched { op; reason }
    | None -> Desynced "restored after daemon restart"
  in
  { (make ~oid ~spec ~now mode) with ops; era }

type mode_view = mode =
  | Accepting
  | Desynced of string
  | Latched of { op : int; reason : string }

let mode t = t.mode

let of_snapshot_exact ~oid ~spec ~committed ~window ~pending ~high_water
    ~qpoints ~era ~ops ~mode ~last_active =
  {
    oid;
    spec;
    committed;
    window = List.rev window;
    window_len = List.length window;
    pending;
    high_water;
    qpoints;
    era;
    ops;
    mode;
    last_active;
  }

let committed_key t = Spec.key t.committed
let window_actions t = List.rev t.window
let pending t = t.pending
let high_water t = t.high_water
let qpoints t = t.qpoints

let oid t = t.oid
let ops t = t.ops
let era t = t.era
let window_len t = t.window_len
let last_active t = t.last_active

let latched t =
  match t.mode with Latched { op; reason } -> Some (op, reason) | _ -> None

let is_desynced t = match t.mode with Desynced _ -> true | _ -> false

(* A crash marker opens a new era: the object rebooted into its initial
   state, so the acceptor restarts and a desynced session resynchronises.
   Violations latch across eras. *)
let crash t =
  let mode = match t.mode with Latched _ as l -> l | _ -> Accepting in
  {
    t with
    committed = t.spec.Spec.start;
    window = [];
    window_len = 0;
    pending = [];
    high_water = 0;
    era = t.era + 1;
    mode;
  }

(* ------------------------------------------------- window verdicts -- *)

let window_history t = History.of_list (List.rev t.window)

let resumed_spec t = { t.spec with Spec.start = t.committed }

type verdict = Commit of Spec.acceptor | Violate of string | Defer

(* Exact fast path for sequential windows: with a total real-time order,
   [i ≺H j ⟹ π(i) < π(j)] forces every CA-element to be a singleton, so
   acceptance is one fold of [Spec.step]. *)
let check_sequential t =
  let entries = History.entries (window_history t) in
  let rec go acc = function
    | [] -> Commit acc
    | e :: rest -> (
        match History.op_of_entry e with
        | None -> Violate "internal: pending entry in a quiescent window"
        | Some op -> (
            let el = Ca_trace.element t.oid [ op ] in
            match Spec.step acc el with
            | Some acc' -> go acc' rest
            | None ->
                Violate
                  (Fmt.str "element rejected by %s: %a" t.spec.Spec.name
                     Ca_trace.pp_element el)))
  in
  go t.committed entries

let check_exhaustive t =
  match Cal_checker.check ~spec:(resumed_spec t) (window_history t) with
  | Cal_checker.Accepted { final; _ } -> Commit final
  | Cal_checker.Rejected { reason; _ } -> Violate reason

(* Verdict-only check for the overflow path (no acceptor to resume, so
   the bounded verdict cache applies: same committed state + canonically
   equal window = one checker call). *)
let check_verdict ?cache t =
  let compute () =
    match Cal_checker.check ~spec:(resumed_spec t) (window_history t) with
    | Cal_checker.Accepted _ -> Ok ()
    | Cal_checker.Rejected { reason; _ } -> Error reason
  in
  match cache with
  | None -> compute ()
  | Some c ->
      let key =
        Fmt.str "serve|%s|%s|%s" t.spec.Spec.name
          (Spec.key t.committed)
          (History.canonical_key (window_history t))
      in
      Verdict_cache.find_or_compute c ~key compute

(* ---------------------------------------------------------- feeding -- *)

let quiescent_verdict ~config ~level t =
  if t.high_water <= 1 then check_sequential t
  else
    match (level : Proto.level) with
    | Proto.Full -> check_exhaustive t
    | Proto.Sampled ->
        if t.qpoints mod config.Config.sample_period = 0 then
          check_exhaustive t
        else Defer
    | Proto.Count_only -> Defer

let committed_window t acc =
  {
    t with
    committed = acc;
    window = [];
    window_len = 0;
    high_water = 0;
  }

let latch t reason =
  ( {
      t with
      mode = Latched { op = t.ops; reason };
      window = [];
      window_len = 0;
      pending = [];
      high_water = 0;
    },
    [ Proto.Violation { oid = t.oid; op = t.ops; reason } ] )

let desync t reason =
  ( {
      t with
      mode = Desynced reason;
      window = [];
      window_len = 0;
      high_water = 0;
    },
    [ Proto.Session_desynced { oid = t.oid; reason } ] )

(* Entering count-only (or any forced shed): retained windows are
   dropped, so the session can no longer verify this era. *)
let shed t ~reason =
  match t.mode with
  | Accepting when t.window_len > 0 || t.pending <> [] ->
      let t, evs = desync t reason in
      ({ t with pending = [] }, evs)
  | Accepting -> ({ t with mode = Desynced reason; pending = [] }, [])
  | _ -> (t, [])

let feed ~config ~level ?cache ~now t action =
  let t = { t with last_active = now } in
  match t.mode with
  | Latched _ | Desynced _ ->
      (* Count-only: frames are not validated (the pending set is gone),
         operations are counted on responses. *)
      let t =
        if Action.is_res action then { t with ops = t.ops + 1 } else t
      in
      Ok (t, [])
  | Accepting -> (
      let overflowing = t.window_len + 1 > config.Config.window_max in
      let append t =
        { t with window = action :: t.window; window_len = t.window_len + 1 }
      in
      let overflow t =
        (* One final verdict over the overflowing window, then the
           session sheds it and counts until the next era. *)
        match check_verdict ?cache t with
        | Error reason -> latch t reason
        | Ok () ->
            desync t
              (Fmt.str "window overflow (%d actions)" t.window_len)
      in
      match action with
      | Action.Crash _ -> Error "internal: crash markers are handled globally"
      | Action.Inv { tid; fid; _ } ->
          if
            List.exists
              (fun (pt, _) -> Ids.Tid.equal pt tid)
              t.pending
          then
            Error
              (Fmt.str "thread %a already has a pending invocation on %a"
                 Ids.Tid.pp tid Ids.Oid.pp t.oid)
          else if List.length t.pending >= config.Config.max_pending then
            Error
              (Fmt.str "too many pending invocations on %a (max %d)"
                 Ids.Oid.pp t.oid config.Config.max_pending)
          else
            let t = append t in
            let t =
              {
                t with
                pending = (tid, fid) :: t.pending;
                high_water = max t.high_water (List.length t.pending + 1);
              }
            in
            if overflowing then Ok (overflow t) else Ok (t, [])
      | Action.Res { tid; fid; _ } -> (
          if
            not
              (List.exists
                 (fun (pt, pf) ->
                   Ids.Tid.equal pt tid && Ids.Fid.equal pf fid)
                 t.pending)
          then
            Error
              (Fmt.str "no pending %a invocation by %a on %a" Ids.Fid.pp fid
                 Ids.Tid.pp tid Ids.Oid.pp t.oid)
          else
            let t = append t in
            let t =
              {
                t with
                pending =
                  List.filter
                    (fun (pt, pf) ->
                      not (Ids.Tid.equal pt tid && Ids.Fid.equal pf fid))
                    t.pending;
                ops = t.ops + 1;
              }
            in
            if overflowing then Ok (overflow t)
            else if t.pending <> [] then Ok (t, [])
            else
              (* Quiescent point. *)
              let t = { t with qpoints = t.qpoints + 1 } in
              match quiescent_verdict ~config ~level t with
              | Commit acc ->
                  Ok
                    ( committed_window t acc,
                      [ Proto.Committed { oid = t.oid; ops = t.ops } ] )
              | Violate reason -> Ok (latch t reason)
              | Defer -> Ok (t, [])))
