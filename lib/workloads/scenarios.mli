(** Standard bounded client programs for exploration, verification, tests,
    the CLI and the benchmarks — one place, so every consumer checks the
    same thing.

    Each scenario packages the program with the specification and view
    function against which its object must be verified. Views and
    specifications depend only on (deterministic, default) object names, so
    they are valid for every run of [setup]. *)

type t = {
  name : string;
  description : string;
  threads : int;
  setup : Conc.Ctx.t -> Conc.Runner.program;
      (** declares its program undoable ({!Conc.Ctx.declare_undoable}):
          the explorer backtracks it by rollback unless a structure it
          builds forbids that *)
  spec : Cal.Spec.t;
  view : Cal.View.t;
  fuel : int;  (** enough decisions for every thread to finish, with slack *)
  bound : int option;
      (** default preemption bound: [Some b] for scenarios whose unbounded
          interleaving space is too large for routine exhaustive checking;
          consumers should pass it to the explorer *)
  expect_ok : bool;  (** [false] for the deliberately faulty scenarios *)
}

(** {1 Exchanger clients} *)

val exchanger_pair : unit -> t
(** Two threads exchanging 3 and 4. *)

val exchanger_trio : unit -> t
(** The paper's program [P] (Fig. 3): [exchg(3) ‖ exchg(4) ‖ exchg(7)]. *)

val exchanger_timed_pair : ?deadline:int -> unit -> t
(** Two threads exchanging under an absolute logical-clock [deadline]
    (default 4): exhaustive exploration finds both swap schedules and
    timeout schedules, and the extended exchanger specification accepts
    both. *)

val exchanger_abstract_pair : unit -> t
(** Two threads against the specification-driven exchanger. *)

(** {1 Elimination array and stack} *)

val elim_array_pair : k:int -> t
val elim_stack_push_pop : ?abstract:bool -> k:int -> unit -> t
val elim_stack_two_two : ?abstract:bool -> k:int -> unit -> t
(** Two pushers and two poppers — the heavier elimination-stack workload. *)

val elim_stack_sequential_then_pop : k:int -> t
(** One thread pushes twice then pops; one thread pops — exercises stack
    order (LIFO) across elimination. *)

(** {1 Synchronous queue} *)

val sync_queue_pair : unit -> t
val sync_queue_two_producers : unit -> t

(** {1 Dual queue} *)

val dual_queue_enq_deq : unit -> t
val dual_queue_two_consumers : unit -> t

(** {1 Elimination-backed FIFO queue} *)

val elim_queue_enq_deq : unit -> t
val elim_queue_fifo : unit -> t

(** {1 Simple objects} *)

val counter_incrs : n:int -> t
val register_write_read : unit -> t
val treiber_push_pop : unit -> t
val ms_queue_enq_deq : unit -> t

(** {1 Faulty objects (expected to fail verification)} *)

val faulty_counter : unit -> t
val faulty_stack : unit -> t
val faulty_exchanger : unit -> t

val faulty_elim_stack : ?pushers:int -> ?poppers:int -> unit -> t
(** {!Structures.Faulty.Elim_stack_dup_elim} under [pushers] pushing
    threads and [poppers] popping threads (defaults [1]/[2]): the sticky
    elimination slot lets racing pops eliminate the same push. Rejections
    dominate deep sweeps of this object, which makes it the checker-bound
    workload of bench B14 (larger thread counts there). *)

val faulty_elim_queue : unit -> t
(** The elimination queue with the transfer emptiness check removed —
    a FIFO violation (deq receives a fresh value while an older one is
    queued) that the obligations must detect. *)

val all : unit -> t list
(** Every scenario above, positives first. *)

val find : string -> t option
(** Look up by [name]. *)

val faulty : unit -> t list
(** The [expect_ok = false] subset of {!all}: the deliberately broken
    objects every detection mode (exhaustive, fault sweep, sampled) must
    catch. *)

(** {1 Durable scenarios}

    Bounded client programs over the durable structures, packaged as
    {!Conc.Runner.durable} (boot program, persistent domain, recovery
    program) for the crash sweep of a durable [History] obligation
    ({!durable_config}).
    Durable checking is black-box, so there is no view field;
    [d_max_crash_depth] bounds crash-during-recovery nesting. *)

type durable = {
  d_name : string;
  d_description : string;
  d_threads : int;
  d_setup : Conc.Ctx.t -> Conc.Runner.durable;
  d_spec : Cal.Spec.t;
  d_fuel : int;
  d_max_crash_depth : int;
  d_expect_ok : bool;  (** [false] for the deliberately faulty scenario *)
}

val stack_crash_recovery : unit -> durable
(** [push(1); pop() ‖ push(2)] on {!Structures.Durable_treiber_stack};
    after any crash, thread 0 runs recovery and both threads pop whatever
    persisted. Accepted at every crash point — the flush-before-respond
    discipline keeps completed operations durable. *)

val queue_crash_recovery : unit -> durable
(** The FIFO analogue on {!Structures.Durable_ms_queue}. *)

val faulty_durable_stack : unit -> durable
(** {!Structures.Faulty.Durable_stack_missing_flush}: pop responds without
    flushing its removal, so a crash resurrects the popped element and the
    post-crash pop returns it a second time — rejected with a replayable
    (schedule, plan) witness. *)

val durable_all : unit -> durable list

val durable_faulty : unit -> durable list
(** The [d_expect_ok = false] subset of {!durable_all}. *)

(** {1 Obligation configs} *)

val config : t -> Verify.Obligations.config
(** The [Trace] obligation at the scenario's fuel, exhaustive and
    fault-free, under a [Default] strategy bounded by its [bound]. *)

val durable_config : durable -> Verify.Obligations.config
(** The [`Cal] [History] obligation at the scenario's fuel, over system
    crashes nested to [d_max_crash_depth]. *)
