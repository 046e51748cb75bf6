(** Durable Treiber stack: the lock-free stack of Fig. 2 rebuilt on
    {!Conc.Pcell} persistent cells with an explicit flush discipline.

    Every successful CAS writes the {e volatile} copy of the top cell and
    is followed by a dedicated flush step persisting it {e before} the
    operation responds, so:

    - a {e completed} operation is always persisted — its effect survives
      any later crash;
    - an operation cut off by a crash {e between} its CAS and its flush is
      pending in the history; its effect survives iff a peer's flush
      persisted the cell first. Both outcomes are admissible for
      crash-pending operations under the durable checkers ("persisted or
      lost"), which is exactly why the durable crash sweep of
      {!Verify.Obligations.check} accepts this structure at every crash
      point.

    Operations make a single CAS attempt and report contention failure,
    like {!Treiber_stack} ([push ⇒ true/false], [pop ⇒ (true,v)/(false,0)]
    with spurious failures allowed by the spec). The structure is {e not}
    trace-instrumented: durable checking is black-box over the history
    (see DESIGN §2.10 — a peer's flush, not the logging operation's own
    step, can decide whether a pending write persists, so reconciling a
    self-reported trace would be unsound). *)

type t

val create :
  ?oid:Cal.Ids.Oid.t ->
  ?log_history:bool ->
  domain:Conc.Pcell.domain ->
  Conc.Ctx.t ->
  t
(** [oid] defaults to ["DS"]. The top cell is registered in [domain] —
    pass the same domain to {!Conc.Runner.durable} so crashes wipe it. *)

val oid : t -> Cal.Ids.Oid.t
val push : t -> tid:Cal.Ids.Tid.t -> Cal.Value.t -> Cal.Value.t Conc.Prog.t
val pop : t -> tid:Cal.Ids.Tid.t -> Cal.Value.t Conc.Prog.t

val recover : ?cost:int -> t -> unit Conc.Prog.t
(** The stack's recovery procedure, run as (part of) the post-crash
    program: re-asserts the durable top as the volatile state. [cost]
    (default [0]) prepends that many no-op scan steps, modelling log
    scanning or structure rebuilding — the knob the B13 benchmark sweeps.
    Recovery logs no history actions: it is not an operation of the
    object. *)

val contents : t -> Cal.Value.t list
(** Volatile contents, top first (for assertions in tests). *)

val persisted : t -> Cal.Value.t list
(** Durable contents — what a crash right now would leave. *)

val spec : t -> Cal.Spec.t
(** Stack specification at this [oid], spurious failures allowed. *)
