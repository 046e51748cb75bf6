(** Run context: the observable history and the auxiliary trace variable
    [𝒯].

    Each run of a program gets a fresh context. The harness logs invocation
    and response actions into the history; instrumented implementations
    append CA-elements to [𝒯] inside their atomic steps — the paper's
    auxiliary assignments, fused with the shared-memory update they
    justify. *)

type t

val create : unit -> t

val log_action : t -> Cal.Action.t -> unit
val log_element : t -> Cal.Ca_trace.element -> unit

val log_elements : t -> Cal.Ca_trace.t -> unit
(** Append several elements atomically (used when one concrete step stands
    for a sequence of abstract operations). *)

val history : t -> Cal.History.t
(** The history logged so far, oldest first. *)

val trace : t -> Cal.Ca_trace.t
(** The auxiliary trace [𝒯] logged so far, oldest first. *)

val trace_length : t -> int

val record_crash : t -> unit
(** Log a {!Cal.Action.Crash} marker (with the next epoch number) into the
    history and bump the crash counter. Called by {!Runner} when a
    [Fault.Crash_system] fires; implementations must not call it. *)

val crash_count : t -> int
(** System crashes recorded so far in this run. *)

val now : t -> int
(** The logical clock: the number of scheduling decisions applied so far in
    this run. Advanced by the runner (never by programs), so a replayed
    schedule sees the identical sequence of clock values — deadlines are as
    reproducible as any other part of the run. *)

val tick : t -> unit
(** Advance the logical clock by one. Called by {!Runner} after each applied
    decision; implementations must not call it. *)

val set_skew : t -> thread:int -> factor:int -> unit
(** Stretch [thread]'s perceived time: its {!local_now} reads
    [factor * now]. Used by the runner to interpret a [Fault.Delay] plan
    entry. Raises [Invalid_argument] if [factor < 1] or [thread < 0]. *)

val skew_factor : t -> thread:int -> int
(** The skew factor currently applied to [thread] (1 if none). *)

val local_now : t -> tid:Cal.Ids.Tid.t -> int
(** The logical time as perceived by [tid]: [skew_factor * now]. A delayed
    thread perceives time passing faster, so its deadlines expire sooner —
    the deterministic analogue of a thread scheduled on a slow core hitting
    its timeout. *)

val note_read : t -> string -> unit
(** Record that the current step read the shared location named by the
    string. A no-op unless a step is being applied (between {!begin_step}
    and {!end_step}), so guard evaluations during frontier computation
    never pollute the access record. Called by {!Cell} and {!Pcell}. *)

val note_write : t -> string -> unit
(** Record that the current step wrote a shared location. See
    {!note_read}. *)

val begin_step : t -> unit
(** Open the per-step access record and enable {!note_read}/{!note_write}.
    Called by {!Runner.step} around each applied decision; implementations
    must not call it. *)

val end_step : t -> unit
(** Close the per-step access record ({!step_accesses} stays readable until
    the next {!begin_step}). *)

val step_accesses : t -> (string list * string list) option
(** [(reads, writes)] of the most recently applied step, each sorted and
    deduplicated — or [None] if the step recorded nothing (it ran
    uninstrumented code). History/trace logging counts as a write to a
    dedicated pseudo-location, so checker-visible ordering is never
    reordered by dependency-based reduction. *)

(** {1 Rollback}

    A run whose every step-time mutation is visible to the context can be
    backtracked in place: {!Runner.mark} saves a branch point and
    {!Runner.rollback} restores it, undoing the {e trail} — one entry per
    tracked write since the mark, newest first. Without it the explorer
    rebuilds a branch point by replaying its prefix from a fresh setup.

    Rollback is opt-in per program: a setup whose shared state lives in
    {!Cell}s calls {!declare_undoable}, and any structure keeping state
    the trail cannot see calls {!forbid_undo} in its [create]. The whole
    rule and its list of opt-outs are in {!Runner.undoable}. *)

val declare_undoable : t -> unit
(** Declare that the program built in this context keeps all state its
    steps mutate in {!Cell}s, in the context itself, or in thread-local
    state it undo-logs with {!push_undo}. *)

val forbid_undo : t -> unit
(** Declare state the trail cannot see (a plain [ref] shared between
    threads, a random generator, a backoff window): runs in this context
    backtrack by prefix replay. Sticky: {!declare_undoable} cannot lift
    it. *)

val undoable : t -> bool
(** Declared undoable and never forbidden. *)

val start_trail : t -> unit
(** Start recording undo entries. Called by {!Runner} after setup, once it
    has decided the run can be rolled back; implementations must not call
    it. Setup writes are never trailed: no mark precedes them. *)

val trailing : t -> bool
(** Whether writes are being trailed. {!Cell} checks it before building an
    undo entry, so a replayed run pays nothing. *)

val push_undo : t -> (unit -> unit) -> unit
(** [push_undo t undo] records [undo] as the way to revert a mutation
    about to happen; a no-op unless {!trailing}. For thread-local mutable
    state changed inside a step (a uid counter, a per-operation
    deadline). *)

val trail_length : t -> int
(** Undo entries currently held: the writes made along the current path
    since the trail started (so [0] once a sweep has rolled back to its
    root). *)

type mark
(** The context's part of a branch point: history, trace, trace length,
    clock, crash count and trail length. *)

val mark : t -> mark

val rollback : t -> mark -> unit
(** Undo every trail entry pushed since the mark, newest first, and
    restore the mark's history, trace, clock and crash count. The mark
    stays valid: a branch point is rolled back to once per sibling. *)

val active_threads : t -> oid:Cal.Ids.Oid.t -> Cal.Ids.Tid.t list
(** Threads currently executing a method of [oid] (the paper's [InE]):
    those with a pending invocation on [oid] in the history {e after} the
    last crash marker — invocations cut off by a system crash are dead,
    not active. *)
