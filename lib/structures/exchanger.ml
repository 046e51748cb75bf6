open Cal
open Conc
open Prog.Infix

type hole_state =
  | Hole_empty
  | Hole_matched of offer
  | Hole_failed
  | Hole_cancelled

and offer = {
  uid : int;
  owner : Ids.Tid.t;
  data : Value.t;
  hole : hole_state Cell.t;
}

type t = {
  xc_oid : Ids.Oid.t;
  ctx : Ctx.t;
  g : offer option Cell.t;
  instrument : bool;
  log_history : bool;
  wait : int;
  backoff : Backoff.policy option;
  next_uid : int ref;
}

let create ?(oid = Ids.Oid.v "E") ?(instrument = true) ?(log_history = true) ?wait
    ?backoff ctx =
  (match (wait, backoff) with
  | Some _, Some _ ->
      invalid_arg
        "Exchanger.create: ~wait and ~backoff are mutually exclusive (the \
         pairing window is either fixed or drawn from the policy)"
  | Some w, None when w < 0 -> invalid_arg "Exchanger.create: wait must be >= 0"
  | _ -> ());
  (* a backoff window and its generator live outside the trail *)
  if Option.is_some backoff then Ctx.forbid_undo ctx;
  {
    xc_oid = oid;
    ctx;
    g = Cell.make ctx ~loc:(Ids.Oid.to_string oid ^ ".g") None;
    instrument;
    log_history;
    wait = Option.value ~default:1 wait;
    backoff;
    next_uid = ref 0;
  }

(* CAS labels carry the contended location (after '@') so that the metrics
   layer can charge contention costs per cache line. *)
let loc t = "@" ^ Ids.Oid.to_string t.xc_oid

let oid t = t.xc_oid

(* Offer allocation happens inside a CAS step, thread-local until that very
   step publishes it; the hole gets its own tracked location. The uid
   counter is a plain ref on purpose — uids never reach the history, trace
   or results, so the explorer must not order steps around it — but it is
   trailed: a rolled-back branch must hand out the same uids, and so the
   same hole locations, as a replayed one. *)
let fresh_offer t ~tid v =
  let uid = !(t.next_uid) in
  Ctx.push_undo t.ctx (fun () -> t.next_uid := uid);
  incr t.next_uid;
  let hole =
    Cell.make t.ctx
      ~loc:(Ids.Oid.to_string t.xc_oid ^ ".hole#" ^ string_of_int uid)
      Hole_empty
  in
  { uid; owner = tid; data = v; hole }

type offer_view = {
  v_uid : int;
  v_owner : Ids.Tid.t;
  v_data : Value.t;
  v_hole :
    [ `Empty | `Matched of int * Ids.Tid.t * Value.t | `Failed | `Cancelled ];
}

(* Views are pure observations (probes, tests): [peek] keeps them out of
   the dependency record. *)
let view_of_offer (o : offer) =
  {
    v_uid = o.uid;
    v_owner = o.owner;
    v_data = o.data;
    v_hole =
      (match Cell.peek o.hole with
      | Hole_empty -> `Empty
      | Hole_matched m -> `Matched (m.uid, m.owner, m.data)
      | Hole_failed -> `Failed
      | Hole_cancelled -> `Cancelled);
  }

let peek_g t = Option.map view_of_offer (Cell.peek t.g)

type probe_point = {
  pp_name : string;
  pp_tid : Ids.Tid.t;
  pp_arg : Value.t;
  pp_n : offer_view option;
  pp_cur : offer_view option;
  pp_s : bool option;
  pp_g : offer_view option;
}

let log_fail t tid v =
  if t.instrument then
    Ctx.log_element t.ctx (Spec_exchanger.failure ~oid:t.xc_oid tid v)

let log_swap t ~waiter ~active =
  if t.instrument then
    let wt, wv = waiter and at, av = active in
    Ctx.log_element t.ctx (Spec_exchanger.swap ~oid:t.xc_oid wt wv at av)

(* Return (false, v), logging the FAIL auxiliary assignment at the return
   statement (lines 20 and 35 of Fig. 1). *)
let fail_return t ~tid v =
  Prog.atomic ~label:"fail-return" (fun () ->
      log_fail t tid v;
      Value.fail v)

let exchange_body ?probe t ~tid v =
  (* A probe is a separate atomic step observing the proof state at an
     annotated point of Fig. 1. Because the step is distinct, arbitrary
     interference may run before it: an assertion that holds at every probe
     of every interleaving is stable under the rely. Without [probe] no
     steps are added. *)
  let at name ?n ?cur ?s () =
    match probe with
    | None -> Prog.return ()
    | Some f ->
        Prog.atomic ~label:("probe-" ^ name) (fun () ->
            f
              {
                pp_name = name;
                pp_tid = tid;
                pp_arg = v;
                pp_n = Option.map view_of_offer n;
                pp_cur = Option.map view_of_offer cur;
                pp_s = s;
                pp_g = Option.map view_of_offer (Cell.peek t.g);
              })
  in
  (* lines 13+15: allocate the offer and attempt CAS(g, null, n) — the INIT
     action. The allocation is thread-local until the CAS publishes it, so
     fusing the two into one atomic step changes no observable behaviour
     and spares the exhaustive explorer a scheduling point. The CAS is
     fallible: a forced failure behaves exactly as if [g] was occupied
     (weak-CAS semantics — the thread proceeds down the active path). *)
  let* result =
    Prog.fallible ~label:("init-cas" ^ loc t)
      (fun () ->
        match Cell.get t.g with
        | None ->
            let n = fresh_offer t ~tid v in
            Cell.set t.g (Some n);
            Prog.return (`Installed n)
        | Some _ -> Prog.return `Occupied)
      ~on_fault:(fun () -> Prog.return `Occupied)
  in
  match result with
  | `Installed n ->
      (* line 16 of the proof outline *)
      let* () = at "init-installed" ~n () in
      (* line 17: sleep(50) — [wait] scheduling points during which a
         partner can match the offer; under a backoff policy the pairing
         window is adaptive instead of fixed *)
      let* () =
        match t.backoff with
        | None -> Prog.seq (List.init t.wait (fun _ -> Prog.yield))
        | Some pol -> Backoff.pause (Backoff.start pol)
      in
      (* line 18: CAS(n.hole, null, fail) — the PASS action *)
      let* outcome =
        Prog.atomically ~label:("pass-cas" ^ loc t) (fun () ->
            match Cell.get n.hole with
            | Hole_empty ->
                Cell.set n.hole Hole_failed;
                Prog.return `No_partner
            | Hole_matched m -> Prog.return (`Swapped m)
            | Hole_failed | Hole_cancelled ->
                assert false (* only the owner writes the sentinels *))
      in
      (match outcome with
      | `No_partner ->
          let* () = at "pass-no-partner" ~n () in
          fail_return t ~tid v (* line 20 *)
      | `Swapped m ->
          let* () = at "pass-swapped" ~n () in
          Prog.return (Value.ok m.data) (* line 22: n.hole.data *))
  | `Occupied -> (
      (* line 25: read g *)
      let* cur = Cell.read ~label:("read-g" ^ loc t) t.g in
      match cur with
      | None -> fail_return t ~tid v (* line 35 *)
      | Some cur ->
          (* line 26 of the proof outline *)
          let* () = at "read-cur" ~cur () in
          (* line 29: CAS(cur.hole, null, n) — the XCHG action, with the
             auxiliary trace assignment fused into the same atomic step. The
             active thread's own offer [n] is allocated here (thread-local
             until this very CAS publishes it). *)
          let* s =
            Prog.fallible ~label:("xchg-cas" ^ loc t)
              (fun () ->
                match Cell.get cur.hole with
                | Hole_empty ->
                    let n = fresh_offer t ~tid v in
                    Cell.set cur.hole (Hole_matched n);
                    log_swap t ~waiter:(cur.owner, cur.data) ~active:(tid, v);
                    Prog.return true
                | Hole_matched _ | Hole_failed | Hole_cancelled ->
                    Prog.return false)
              ~on_fault:(fun () -> Prog.return false)
          in
          (* line 30 of the proof outline *)
          let* () = at "xchg" ~cur ~s () in
          (* line 31: CAS(g, cur, null) — the CLEAN action (unconditional
             helping: remove the already-answered offer). A forced failure
             merely leaves the answered offer for the next helper. *)
          let* () =
            Prog.fallible ~label:("clean-cas" ^ loc t)
              (fun () ->
                (match Cell.get t.g with
                | Some o when o == cur -> Cell.set t.g None
                | _ -> ());
                Prog.return ())
              ~on_fault:(fun () -> Prog.return ())
          in
          let* () = at "clean" ~cur ~s () in
          if s then Prog.return (Value.ok cur.data) (* line 33 *)
          else fail_return t ~tid v (* line 35 *))

let log_timeout t tid v =
  if t.instrument then
    Ctx.log_element t.ctx (Spec_exchanger.timeout ~oid:t.xc_oid tid v)

(* Timed exchange — java.util.concurrent.Exchanger.exchange(x, timeout),
   expressed against the logical clock. [deadline] is in the {e perceived}
   time of [tid] (Ctx.local_now, so a Fault.Delay makes it fire early).
   Each round installs the offer and POLLS the hole for [wait] ticks: the
   waiter stays enabled, its own steps advance the clock, and a solo
   thread still times out — the HSY collision-slot discipline rather than
   blocking. An unmatched round withdraws the offer by CASing the hole to
   the cancelled sentinel; the CAS is fallible (a forced failure behaves
   as losing the race to a matching partner), but the cancel-acknowledge
   read that follows a lost cancel is not — a matched hole is stable, only
   the owner writes the sentinels. *)
let exchange_timed_body t ~tid ~deadline v =
  let now () = Ctx.local_now t.ctx ~tid in
  let rec attempt () =
    (* loop head doubles as the timeout return (its own CA-element: a
       timed-out exchange overlapped with nobody that mattered) *)
    Prog.atomically ~label:("deadline-check" ^ loc t) (fun () ->
        if now () >= deadline then begin
          log_timeout t tid v;
          Prog.return (Value.timeout v)
        end
        else install_or_help ())
  and install_or_help () =
    let* result =
      Prog.fallible ~label:("init-cas" ^ loc t)
        (fun () ->
          match Cell.get t.g with
          | None ->
              let n = fresh_offer t ~tid v in
              Cell.set t.g (Some n);
              Prog.return (`Installed (n, min (now () + t.wait) deadline))
          | Some _ -> Prog.return `Occupied)
        ~on_fault:(fun () -> Prog.return `Occupied)
    in
    match result with
    | `Installed (n, pair_until) -> wait_for_partner n pair_until
    | `Occupied -> (
        let* cur = Cell.read ~label:("read-g" ^ loc t) t.g in
        match cur with
        | None -> attempt () (* slot emptied under us: retry or time out *)
        | Some cur -> help cur)
  and wait_for_partner n pair_until =
    Prog.poll
      ~label:("pair-poll" ^ loc t)
      ~expired:(fun () -> now () >= pair_until)
      ~on_timeout:(fun () -> cancel n)
      (fun () ->
        match Cell.get n.hole with
        | Hole_matched m -> Some (Prog.return (Value.ok m.data))
        | _ -> None)
  and cancel n =
    let* r =
      Prog.fallible ~label:("cancel-cas" ^ loc t)
        (fun () ->
          match Cell.get n.hole with
          | Hole_empty ->
              Cell.set n.hole Hole_cancelled;
              Prog.return `Cancelled
          | Hole_matched m -> Prog.return (`Matched m)
          | Hole_failed | Hole_cancelled ->
              assert false (* only the owner writes the sentinels *))
        ~on_fault:(fun () -> Prog.return `Lost)
    in
    match r with
    | `Matched m ->
        (* lost the race: a partner matched first, take its value *)
        Prog.return (Value.ok m.data)
    | `Cancelled ->
        (* withdraw the cancelled offer from g, then retry or time out *)
        let* () =
          Prog.fallible ~label:("clean-cas" ^ loc t)
            (fun () ->
              (match Cell.get t.g with
              | Some o when o == n -> Cell.set t.g None
              | _ -> ());
              Prog.return ())
            ~on_fault:(fun () -> Prog.return ())
        in
        attempt ()
    | `Lost -> ack n
  and ack n =
    (* cancel-acknowledge: a plain read, deliberately NOT fallible. If the
       cancel CAS genuinely lost, the hole is matched and stable; if the
       forced failure was spurious (hole still empty) we retry the cancel. *)
    let* st =
      Prog.atomic ~label:("cancel-ack" ^ loc t) (fun () -> Cell.get n.hole)
    in
    match st with
    | Hole_matched m -> Prog.return (Value.ok m.data)
    | Hole_empty -> cancel n
    | Hole_failed | Hole_cancelled -> assert false
  and help cur =
    let* s =
      Prog.fallible ~label:("xchg-cas" ^ loc t)
        (fun () ->
          match Cell.get cur.hole with
          | Hole_empty ->
              let n = fresh_offer t ~tid v in
              Cell.set cur.hole (Hole_matched n);
              log_swap t ~waiter:(cur.owner, cur.data) ~active:(tid, v);
              Prog.return true
          | Hole_matched _ | Hole_failed | Hole_cancelled -> Prog.return false)
        ~on_fault:(fun () -> Prog.return false)
    in
    let* () =
      Prog.fallible ~label:("clean-cas" ^ loc t)
        (fun () ->
          (match Cell.get t.g with
          | Some o when o == cur -> Cell.set t.g None
          | _ -> ());
          Prog.return ())
        ~on_fault:(fun () -> Prog.return ())
    in
    if s then Prog.return (Value.ok cur.data) else attempt ()
  in
  attempt ()

let wrap t ~tid ~arg body =
  if t.log_history then
    Harness.call t.ctx ~tid ~oid:t.xc_oid ~fid:Spec_exchanger.fid_exchange ~arg body
  else body

let exchange t ~tid v = wrap t ~tid ~arg:v (exchange_body t ~tid v)

let exchange_timed t ~tid ~deadline v =
  wrap t ~tid ~arg:v (exchange_timed_body t ~tid ~deadline v)

let exchange_annotated t ~tid ~probe v =
  wrap t ~tid ~arg:v (exchange_body ~probe t ~tid v)

let exchange_body t ~tid v = exchange_body ?probe:None t ~tid v
let spec t = Spec_exchanger.spec ~oid:t.xc_oid ()
let view _t = View.identity
