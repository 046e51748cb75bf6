(** Agreement between a complete history and a CA-trace (Definition 5).

    [H ⊑CAL T] holds when there is a surjection [π] from the operations of
    [H] onto the positions of [T] such that (i) the real-time order of [H]
    is preserved ([i ≺H j ⟹ π(i) < π(j)]) and (ii) the operations mapped to
    position [k] are exactly the CA-element [T_k]. *)

type witness = {
  assignment : (History.entry * int) list;
      (** Each operation of the history paired with the (0-based) position of
          the CA-element of [T] explaining it. *)
}

val check : History.t -> Ca_trace.t -> (witness, string) result
(** [check h t] decides [h ⊑CAL t] and produces the surjection [π] as a
    witness, or a human-readable reason for disagreement. [h] must be
    complete; an incomplete or ill-formed history yields [Error]. *)

val check_entries : History.entry array -> Ca_trace.t -> (witness, string) result
(** [check_entries es t] is [check h t] for a history [h] whose
    {!History.scan} is [Ok es], without scanning [h]: it reads only the
    entries' operations and their real-time order ({!History.precedes}),
    so any entries with the same operations and order give the same
    result. A pending entry yields the [Error] of an incomplete
    history. *)

val decide_entries : History.entry array -> Ca_trace.t -> (unit, string) result
(** [decide_entries es t] is [check_entries es t] without building the
    witness: the same verdict and the same [Error] messages. *)

val agrees : History.t -> Ca_trace.t -> bool
(** [agrees h t] is [Result.is_ok (check h t)]. *)
