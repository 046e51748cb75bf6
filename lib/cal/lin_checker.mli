(** Classic linearizability checker (Herlihy–Wing, decided in the style of
    Wing–Gong with memoisation).

    Linearizability is the special case of CAL in which every CA-element is
    a {e singleton}: the explaining trace is a sequential history. This
    checker is {!Cal_checker.check} on the same {!Spec} with
    [max_element_size = 1], so it only ever offers singleton elements to
    the acceptor; its witness order and statistics are that search's.
    Running it against a CA-object's specification demonstrates the
    paper's §3 claim: histories with successful exchanges have {e no}
    sequential explanation, because the exchanger specification accepts
    no singleton success element. *)

type stats = Cal_checker.stats

type verdict =
  | Linearizable of {
      linearization : Op.t list;  (** the sequential witness, in order *)
      completion : History.t;
      final : Spec.acceptor;
          (** the specification state after [linearization] *)
      stats : stats;
    }
  | Not_linearizable of { reason : string; stats : stats }

val check : ?crashed:Ids.Tid.t list -> spec:Spec.t -> History.t -> verdict
(** [check ~spec h] decides whether [h] is linearizable w.r.t. the
    {e sequential} histories of [spec] (i.e. its singleton CA-traces).
    Raises [Invalid_argument] on ill-formed or oversized (> 62 operations)
    histories. [crashed] restricts the completion construction exactly as
    in {!Cal_checker.check}: only the listed threads' pending operations
    may be dropped. Histories with {!Action.Crash} markers are checked for
    {e durable} linearizability, again exactly as in {!Cal_checker.check}:
    an operation pending at a system crash either persisted (kept, ordered
    before every later era) or was lost (droppable regardless of
    [crashed]). *)

val is_linearizable : ?crashed:Ids.Tid.t list -> spec:Spec.t -> History.t -> bool
val pp_verdict : Format.formatter -> verdict -> unit
