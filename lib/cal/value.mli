(** Universal value domain for method arguments and return values.

    The paper treats arguments and results as opaque values [n]. Concurrent
    objects in this library exchange integers, booleans, pairs (the
    exchanger returns [(bool, int)] pairs), strings and lists thereof, so we
    provide a small closed universe with structural equality, a total order
    and printing. *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | Pair of t * t
  | List of t list

val equal : t -> t -> bool
val compare : t -> t -> int
val show : t -> string
(** [show v] prints [v] with a plain [Buffer], without Format: [()],
    [true], [-3], ["a\"b"] ([String.escaped] in quotes), [(a, b)],
    [[a; b]]. Specification keys ({!Spec.key}) are [show]s of the
    specification state, and {!Spec.resume} parses them back out of daemon
    snapshots. *)

val pp : Format.formatter -> t -> unit
(** [pp] writes [show v]: the two are byte-identical by construction, so
    keys and snapshots read the same whichever printer made them. *)

(** {1 Convenience constructors} *)

val unit : t
val bool : bool -> t
val int : int -> t
val str : string -> t
val pair : t -> t -> t
val list : t list -> t

(** [ok v] is [Pair (Bool true, v)]: the "success" shape used by the
    exchanger and by [pop]. *)
val ok : t -> t

(** [fail v] is [Pair (Bool false, v)]: the "failure" shape used by the
    exchanger ([(false, v)] returns the unswapped value). *)
val fail : t -> t

(** [timeout v] is [Pair (Str "timeout", v)]: the return shape of a timed
    operation whose deadline expired before it could take effect ([v] is
    the unconsumed argument). Distinct from {!fail} — a timeout is the
    convention for the {e singleton} [Timeout] CA-element every timed spec
    admits. *)
val timeout : t -> t

(** [cancelled v] is [Pair (Str "cancelled", v)]: the return shape of an
    operation whose installed offer/reservation was withdrawn. *)
val cancelled : t -> t

val is_timeout : t -> bool
val is_cancelled : t -> bool

(** {1 Projections}

    Each projection raises [Invalid_argument] when the value has the wrong
    shape; they are intended for positions where the shape is an invariant. *)

val to_bool : t -> bool
val to_int : t -> int
val to_pair : t -> t * t

(** [hash v] is a structural hash, compatible with [equal]. *)
val hash : t -> int

(** [subvalues v] is [v] together with every value nested inside it (pair
    components, list elements), recursively. Used to compute the value
    universe of a history. *)
val subvalues : t -> t list

