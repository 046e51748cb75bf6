(** CAL specifications: prefix-closed sets of CA-traces (Definition 6).

    A specification is represented as a deterministic-by-state acceptor over
    CA-elements. Because object systems are prefix-closed, every reachable
    acceptor state is accepting; [step] returning [None] rejects the element
    in the current state. The acceptor additionally proposes candidate
    return values for pending operations, which the {!Cal_checker} uses when
    completing histories (Definition 2 allows adding response actions). *)

type acceptor
(** A specification frozen at some state: the state paired with the
    specification's state machine, which every acceptor of one
    specification shares. *)

type t = {
  name : string;
  owns : Ids.Oid.t -> bool;  (** which objects the specification constrains *)
  max_element_size : int;
      (** upper bound on the size of any CA-element the specification can
          accept; used to prune subset enumeration in the checker *)
  start : acceptor;
  resume_key : string -> acceptor option;
      (** rebuild an acceptor from a {!key} string; use via {!resume} *)
}

val step : acceptor -> Ca_trace.element -> acceptor option
(** Accept one CA-element, or reject. *)

val key : acceptor -> string
(** A memoisation key identifying the acceptor state: two acceptors with the
    same key accept the same continuations. The key is printed on demand,
    at every call: {!step} never prints it, so a caller that never asks
    pays nothing for it. *)

val resume : t -> string -> acceptor option
(** [resume spec k] rebuilds the acceptor whose {!key} is [k], for
    specifications built with [~resume]; [None] when the specification
    does not support resumption or the key decodes to no state. The
    contract is [resume spec (key a)] accepts exactly the continuations
    [a] does — it is what lets a daemon snapshot carry committed
    specification state across a process crash instead of conservatively
    desynchronising every restored session. *)

val candidates :
  acceptor -> universe:Value.t list Lazy.t -> Op.pending -> Value.t list
(** Candidate return values for completing a pending operation in this
    state. [universe] is the set of values occurring in the history under
    scrutiny (arguments, results and their components); specifications use
    it to propose returns that mention other threads' values — e.g. a
    pending [exchange(v)] may return [(true, w)] for any [w] offered by a
    potential partner. It is lazy because building it walks the whole
    history: a specification whose candidates do not depend on it (a
    stack's pop returns its top) never forces it. *)

val make :
  name:string ->
  owns:(Ids.Oid.t -> bool) ->
  max_element_size:int ->
  init:'s ->
  step:('s -> Ca_trace.element -> 's option) ->
  key:('s -> string) ->
  ?resume:(string -> 's option) ->
  candidates:('s -> universe:Value.t list Lazy.t -> Op.pending -> Value.t list) ->
  unit ->
  t
(** Build a specification from an explicit state machine. [resume] is
    the partial inverse of [key]: when provided, {!resume} can rebuild
    frozen acceptors from their keys ([resume (key s)] must return a
    state equivalent to [s]). *)

val accepts : t -> Ca_trace.t -> bool
(** [accepts spec tr] holds when the whole trace is accepted from the start
    state, i.e. [tr] belongs to the specification's set of CA-traces. *)

val explain_rejection : t -> Ca_trace.t -> string option
(** [None] when accepted; otherwise a message naming the offending
    element. *)

val union : t list -> t
(** [union specs] constrains several objects at once: each CA-element is
    dispatched to the unique member specification owning its object.
    Elements owned by no (or more than one) member are rejected. Useful for
    checking a raw auxiliary trace [𝒯] that interleaves several objects'
    elements. Raises [Invalid_argument] on the empty list. *)
