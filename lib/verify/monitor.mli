(** Online CAL monitoring.

    A monitor consumes the auxiliary trace [𝒯] as it grows during a run and
    feeds each new CA-element (through the object's view) to the
    specification acceptor, flagging the first step at which the trace
    leaves the specification. Installing it as a run observer gives early
    violation detection in long random explorations.

    The view must be element-wise (built from {!Cal.View.lift} /
    {!Cal.View.compose}, as all views in this library are) so that applying
    it to trace suffixes is equivalent to applying it to the whole trace.

    The monitor is {e crash-aware}: when a {!Conc.Fault.Crash_system}
    fires, the next observation restarts the acceptor for the new era —
    the recovered object starts over, exactly as the durable checkers
    partition the history at crash markers. The crashing step's own
    elements are still consumed against the pre-crash acceptor (the runner
    fires crashes after the observer hook), and a recorded violation
    latches across crashes. *)

type t

val create : spec:Cal.Spec.t -> view:Cal.View.t -> ctx:Conc.Ctx.t -> t

val observer : t -> Conc.Runner.decision -> unit

val status : t -> [ `Ok | `Violated of int * string ]
(** [`Violated (step, msg)]: the first decision index at which the viewed
    trace was rejected. *)

val consumed : t -> int
(** Raw trace elements consumed so far. *)

val wrap :
  spec:Cal.Spec.t ->
  view:Cal.View.t ->
  setup:(Conc.Ctx.t -> Conc.Runner.program) ->
  (Conc.Ctx.t -> Conc.Runner.program) * (unit -> [ `Ok | `Violated of int * string ])
(** [wrap ~spec ~view ~setup] is a setup that installs a fresh monitor on
    every run (composing its observer after the program's own [observe]
    hook), paired with a status accessor for the most recent run. The
    exploration engines re-run setup on every backtrack replay, so query
    the status from inside the per-outcome callback — it then refers to
    the run that produced the outcome. This is how the monitor rides
    {!Conc.Explore.exhaustive_with_faults_collect}. *)

val wrap_durable :
  spec:Cal.Spec.t ->
  view:Cal.View.t ->
  setup:(Conc.Ctx.t -> Conc.Runner.durable) ->
  (Conc.Ctx.t -> Conc.Runner.durable) * (unit -> [ `Ok | `Violated of int * string ])
(** {!wrap} for durable programs: the monitor is installed on the boot
    program {e and} on every recovery program, so post-crash elements are
    checked against the restarted acceptor. *)
