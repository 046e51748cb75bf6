(** Tracked shared cells: the instrumented replacement for the bare [ref]s
    that structure implementations share between threads.

    Every access made through a [Cell] inside an applied step is recorded in
    the run's {!Ctx}, giving the exploration engine a precise per-step
    read/write set — the raw material for the happens-before relation that
    source-DPOR reduces with. Accesses outside a step (setup code, guard
    evaluation during frontier computation) record nothing, because
    {!Ctx.note_read} is a no-op there.

    Every write ({!set}, a successful {!compare_and_set}, {!poke}) pushes
    the cell's old value on the context's undo trail while the run is
    trailed, which is what lets {!Runner.rollback} restore a branch point
    in place (see {!Ctx.declare_undoable}).

    Labels of the step constructors keep the ["op@loc"] suffix convention,
    which {!Deps} falls back on for steps that record no footprint. *)

type 'a t

val make : Ctx.t -> loc:string -> 'a -> 'a t
(** [make ctx ~loc v] is a fresh cell named [loc] (e.g. ["S0.top"]).
    Creation records no access: a new cell is thread-local until its
    location is published through a tracked write. *)

val loc : 'a t -> string

val peek : 'a t -> 'a
(** Untracked read, for observers ([view], [contents]) and probe code that
    must not perturb the dependency record. *)

val poke : 'a t -> 'a -> unit
(** Untracked write, for setup and crash-recovery code running outside any
    scheduled step. *)

(** {1 In-step accesses} — for use inside existing [Prog] closures. *)

val get : 'a t -> 'a
(** Read the cell and record the read against the current step. *)

val set : 'a t -> 'a -> unit
(** Write the cell and record the write against the current step. *)

val compare_and_set : eq:('a -> 'a -> bool) -> 'a t -> expect:'a -> 'a -> bool
(** CAS: always records a read; records a write only when it succeeds. *)

(** {1 Step constructors} — one atomic step per access, mirroring
    {!Prog.read} and friends. Default labels are ["read@loc"] etc. *)

val read : ?label:string -> 'a t -> 'a Prog.t
val write : ?label:string -> 'a t -> 'a -> unit Prog.t
val cas : ?label:string -> eq:('a -> 'a -> bool) -> 'a t -> expect:'a -> 'a -> bool Prog.t

val cas_weak :
  ?label:string -> eq:('a -> 'a -> bool) -> 'a t -> expect:'a -> 'a -> bool Prog.t
(** Like {!cas} but [Fallible]: the scheduler may fail it spuriously. The
    faulted branch still records the read, so a scheduler-failed CAS stays
    ordered against conflicting writes. *)

val fetch_and_add : ?label:string -> int t -> int -> int Prog.t

val await : ?label:string -> 'a option t -> 'a Prog.t
(** Guard that blocks until the cell is [Some v]. Frontier-time evaluations
    are untracked; the passing evaluation (inside the applied step) records
    the read. *)
