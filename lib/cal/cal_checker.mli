(** The CAL decision procedure (Definition 6).

    An object system [OS] is concurrency-aware linearizable w.r.t. a set of
    CA-traces [𝒯] when every history [H ∈ OS] has a completion
    [Hᶜ ∈ complete(H)] and a trace [T ∈ 𝒯] with [Hᶜ ⊑CAL T]. This module
    decides the per-history question for the acceptor-based specifications
    of {!Spec}; {!Lin_checker} is the same search restricted to singleton
    elements.

    One depth-first search interleaves the choice of a completion with the
    construction of the explaining trace. Its state is the set of
    {e decided} operations and the specification's acceptor. An available
    operation — one whose real-time predecessors are all decided — is
    decided by a {e place} move, which puts it into the next CA-element
    (a pending operation is completed there with a specification-proposed
    return value), or, when it is a droppable pending operation, by a
    {e drop} move, which removes its invocation from the completion.
    Either move satisfies the operation's real-time successors. A
    CA-element only contains operations whose predecessors were decided
    in strictly earlier steps, which realises the
    [i ≺H j ⟹ π(i) < π(j)] condition of Definition 5 by construction.
    Failed states are memoised on (decided set, specification state) in
    one table per call.

    {b Compiled history.} Each call scans [h] once ({!History.scan}) and
    compiles what the search reads into per-call arrays: every entry's
    {!Op.t} and {!Op.pending}, and bitmasks of each entry's predecessors
    and (object, era) group and of the droppable entries. The
    value universe that {!Spec.candidates} draws returns from is built
    only if a specification's candidates force it, and the
    failed-state table is keyed on (decided mask, {!Spec.key}) without
    polymorphic comparison. After that the search touches neither the
    history nor its entries' identifiers, and a search step builds no
    list of its moves: the available operations are a mask, and a
    group's elements are submasks of its member mask. A state prints its
    specification key only once a failed state has been recorded.

    {b Witness order.} From every state the search tries all place moves
    before any drop move. Place moves go through the available operations'
    (object, era) groups, the group of the newest available operation
    first, then the group's elements in {!subsets_up_to}'s order over its
    members newest first ({!submasks_up_to}), then the assignments of
    candidate returns to the element's pending operations. Drop moves go
    through the droppable available operations oldest first.
    On a history with nothing droppable the search therefore visits the
    same states in the same order as a search that never drops. When a
    pending operation can be dropped, the first witness found is not
    guaranteed to drop as few operations as possible: a place-first path
    that drops late may be found before a completion that keeps more
    operations. *)

type stats = {
  states_explored : int;  (** DFS nodes visited *)
  memo_hits : int;        (** search states pruned by memoisation *)
  drop_sets_tried : int;
      (** drop moves tried: 0 on a history with nothing droppable *)
}

type verdict =
  | Accepted of {
      trace : Ca_trace.t;      (** the explaining CA-trace [T] *)
      completion : History.t;  (** the completion [Hᶜ] with [Hᶜ ⊑CAL T] *)
      final : Spec.acceptor;
          (** the specification state after [trace]: [spec.start] stepped
              through every element of [trace] *)
      stats : stats;
    }
  | Rejected of { reason : string; stats : stats }

val check : ?crashed:Ids.Tid.t list -> spec:Spec.t -> History.t -> verdict
(** [check ~spec h] decides whether [h] is CAL w.r.t. [spec]'s trace set.
    Raises [Invalid_argument] when [h] is not well-formed or has more than
    62 operations (the exhaustive search is only meant for bounded
    histories).

    [crashed] switches on the crash-tolerant completion construction for
    histories produced under fault injection: only pending operations of
    the listed (crashed) threads may be {e dropped} by the completion —
    a crashed operation either took effect before the crash (it is
    completed with some return) or it did not (it is dropped). Pending
    operations of live threads must be completed, making the check
    strictly stronger than the default on such histories. Omitting
    [crashed] keeps the classic construction where any pending operation
    is droppable.

    {b Durable mode.} A history containing {!Action.Crash} markers is
    checked for durable CA-linearizability, composing with either mode
    above: an operation pending at a system crash (any era before the
    final one) either {e persisted} — it is kept, and the era-aware
    {!History.precedes} forces its element strictly before every
    later-era operation — or was {e lost} and is dropped, regardless of
    [crashed]. CA-elements never straddle a crash marker: candidate
    operations are grouped by (object, era), so every multi-party element
    is era-uniform. Completions insert chosen responses at the end of the
    pending operation's era ({!History.with_responses}). *)

val is_cal : ?crashed:Ids.Tid.t list -> spec:Spec.t -> History.t -> bool

val subsets_up_to : int -> 'a list -> 'a list list
(** Non-empty sublists with at most [k] elements, each in the original
    element order, subsets containing earlier elements first. The
    enumeration order decides which witness the search finds first, so it
    is part of the checker's contract. {!Interval_lin} enumerates its
    rounds with it too. *)

val submasks_up_to : int -> int -> int list
(** [submasks_up_to k m] is the non-empty submasks of [m >= 0] with at
    most [k] bits, in the order the search enumerates a group's elements:
    {!subsets_up_to}'s order over [m]'s bits listed from the highest
    down. *)

val pp_verdict : Format.formatter -> verdict -> unit
