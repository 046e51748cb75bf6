type t = {
  mutable history_rev : Cal.Action.t list;
  mutable trace_rev : Cal.Ca_trace.element list;
  mutable trace_len : int;
  mutable clock : int;
  mutable skew : (int * int) list;
  mutable crashes : int;
  (* Per-step access recording for happens-before analysis. [track] is on
     only while the runner applies a scheduling decision, so guard
     evaluations during frontier computation record nothing. *)
  mutable track : bool;
  mutable reads_rev : string list;
  mutable writes_rev : string list;
  mutable noted : bool;
  (* Rollback support. [declared] is set by a setup whose shared state
     lives in {!Cell}s (or undo-logs itself); [forbidden] by any structure
     that keeps state the trail cannot see. [trailing] is switched on by
     the runner once it has decided the run can be rolled back: from then
     on every tracked write pushes a closure restoring the old value. *)
  mutable declared : bool;
  mutable forbidden : bool;
  mutable trailing : bool;
  mutable trail : (unit -> unit) array;
  mutable trail_len : int;
}

type mark = {
  m_history_rev : Cal.Action.t list;
  m_trace_rev : Cal.Ca_trace.element list;
  m_trace_len : int;
  m_clock : int;
  m_crashes : int;
  m_trail_len : int;
}

(* Pseudo-locations for the checker-visible logs. The history quotient of
   {!Cal.History.canonicalize} — adjacent same-kind actions of different
   threads commute without changing entries, eras or [precedes], hence any
   verdict — is mirrored here as an access footprint: an invocation reads
   [hist_loc], a response writes it, so inv/inv and the log-order of a
   history step against a trace step commute while inv/res (the pairs that
   change [precedes]) and res/res conflict. Trace elements are consumed in
   order by the spec obligation, so trace-logging steps all conflict. *)
let hist_loc = "!hist"
let trace_loc = "!trace"

let create () =
  {
    history_rev = [];
    trace_rev = [];
    trace_len = 0;
    clock = 0;
    skew = [];
    crashes = 0;
    track = false;
    reads_rev = [];
    writes_rev = [];
    noted = false;
    declared = false;
    forbidden = false;
    trailing = false;
    trail = [||];
    trail_len = 0;
  }

let declare_undoable t = t.declared <- true
let forbid_undo t = t.forbidden <- true
let undoable t = t.declared && not t.forbidden
let start_trail t = t.trailing <- true
let trailing t = t.trailing
let trail_length t = t.trail_len

let nop () = ()

let push_undo t undo =
  if t.trailing then begin
    let n = t.trail_len in
    if n = Array.length t.trail then begin
      let a = Array.make (max 64 (2 * n)) nop in
      Array.blit t.trail 0 a 0 n;
      t.trail <- a
    end;
    t.trail.(n) <- undo;
    t.trail_len <- n + 1
  end

let mark t =
  {
    m_history_rev = t.history_rev;
    m_trace_rev = t.trace_rev;
    m_trace_len = t.trace_len;
    m_clock = t.clock;
    m_crashes = t.crashes;
    m_trail_len = t.trail_len;
  }

(* Undo newest first, so a location written twice since the mark ends at
   its value at the mark. Released slots drop their closures: the trail
   must not keep a backtracked branch's values alive. *)
let rollback t m =
  for i = t.trail_len - 1 downto m.m_trail_len do
    t.trail.(i) ();
    t.trail.(i) <- nop
  done;
  t.trail_len <- m.m_trail_len;
  t.history_rev <- m.m_history_rev;
  t.trace_rev <- m.m_trace_rev;
  t.trace_len <- m.m_trace_len;
  t.clock <- m.m_clock;
  t.crashes <- m.m_crashes

let note_read t loc =
  if t.track then begin
    t.reads_rev <- loc :: t.reads_rev;
    t.noted <- true
  end

let note_write t loc =
  if t.track then begin
    t.writes_rev <- loc :: t.writes_rev;
    t.noted <- true
  end

let begin_step t =
  t.track <- true;
  t.reads_rev <- [];
  t.writes_rev <- [];
  t.noted <- false

let end_step t = t.track <- false

let step_accesses t =
  if not t.noted then None
  else
    Some
      ( List.sort_uniq String.compare t.reads_rev,
        List.sort_uniq String.compare t.writes_rev )

let log_action t a =
  (match a with
  | Cal.Action.Inv _ -> note_read t hist_loc
  | Cal.Action.Res _ -> note_write t hist_loc
  | Cal.Action.Crash _ ->
      (* era boundary: nothing may commute across it *)
      note_write t hist_loc;
      note_write t trace_loc);
  t.history_rev <- a :: t.history_rev

let record_crash t =
  t.crashes <- t.crashes + 1;
  log_action t (Cal.Action.crash ~epoch:t.crashes)

let crash_count t = t.crashes
let now t = t.clock
let tick t = t.clock <- t.clock + 1

let set_skew t ~thread ~factor =
  if thread < 0 then invalid_arg "Ctx.set_skew: negative thread";
  if factor < 1 then invalid_arg "Ctx.set_skew: factor must be >= 1";
  t.skew <- (thread, factor) :: List.remove_assoc thread t.skew

let skew_factor t ~thread =
  match List.assoc_opt thread t.skew with Some f -> f | None -> 1

let clock_loc = "!clock"

let local_now t ~tid =
  (* Every step advances the clock, so a step whose behaviour consults it
     (timed guards, polls) is order-sensitive against *all* steps: record a
     read of the clock pseudo-location so dependency-based reduction never
     commutes anything past a deadline check. Frontier-time evaluations are
     outside the tracking window and record nothing. *)
  note_read t clock_loc;
  t.clock * skew_factor t ~thread:(Cal.Ids.Tid.to_int tid)

let log_element t e =
  note_write t trace_loc;
  t.trace_rev <- e :: t.trace_rev;
  t.trace_len <- t.trace_len + 1

let log_elements t es = List.iter (log_element t) es
let history t = Cal.History.of_rev_list t.history_rev
let trace t = List.rev t.trace_rev
let trace_length t = t.trace_len

let active_threads t ~oid =
  (* Scan newest-to-oldest: a response closes its thread's pending call. A
     crash marker ends the scan — every invocation before it was cut off by
     the crash, so none of those threads is still executing. *)
  let exception Done in
  (* threads already accounted for, one entry each: their newest call on
     [oid] is either answered or counted active *)
  let closed = ref [] in
  let is_closed tid = List.exists (Cal.Ids.Tid.equal tid) !closed in
  let active = ref [] in
  (try
     List.iter
       (fun a ->
         match a with
         | Cal.Action.Crash _ -> raise Done
         | Cal.Action.Res { tid; oid = o; _ } when Cal.Ids.Oid.equal o oid ->
             if not (is_closed tid) then closed := tid :: !closed
         | Cal.Action.Inv { tid; oid = o; _ } when Cal.Ids.Oid.equal o oid ->
             if not (is_closed tid) then begin
               active := tid :: !active;
               (* older invocations of this thread are already answered *)
               closed := tid :: !closed
             end
         | _ -> ())
       t.history_rev
   with Done -> ());
  List.sort_uniq Cal.Ids.Tid.compare !active
