(** Histories (Definitions 2 and 3).

    A history is a finite sequence of invocation and response actions. It is
    {e well-formed} when the projection to every thread is sequential (an
    alternation of invocations and matching responses starting with an
    invocation); {e sequential} when the whole history is such an
    alternation; {e complete} when it is well-formed and every invocation
    has a matching response.

    [complete(H)] (Definition 2) extends a well-formed history with some
    response actions and removes some pending invocations; it is exposed
    here as {!completions}.

    The real-time order [≺H] (Definition 3) is exposed at the level of
    {e operations} ({!precedes}): operation [a] precedes operation [b] when
    [a]'s response occurs before [b]'s invocation. *)

type t

(** A resolved operation instance inside a history. [id] is the index of
    the invocation action and uniquely identifies the operation. [ret] is
    [None] for pending operations. [era] counts the {!Action.Crash} markers
    before the invocation: operations of era [k] ran between the [k]-th and
    [(k+1)]-th system crash ([0] for crash-free histories). *)
type entry = {
  id : int;
  tid : Ids.Tid.t;
  oid : Ids.Oid.t;
  fid : Ids.Fid.t;
  arg : Value.t;
  ret : Value.t option;
  inv_index : int;
  res_index : int option;
  era : int;
}

(** {1 Construction} *)

val empty : t
val of_list : Action.t list -> t

val of_rev_list : Action.t list -> t
(** [of_rev_list l] is [of_list (List.rev l)] without materialising the
    reversed list — for builders that accumulate newest-first (the
    runner does, once per delivered outcome). *)

val to_list : t -> Action.t list
val append : t -> Action.t -> t
val length : t -> int
val nth : t -> int -> Action.t

(** [of_ops ops] is the sequential history [inv₁·res₁·inv₂·res₂·…] executing
    [ops] back to back. *)
val of_ops : Op.t list -> t

(** {1 Classification} *)

val scan : t -> (entry array, string) result
(** [scan h] is [Ok es], the operation instances of [h] in invocation
    order, when [h] is well-formed, and [Error reason] naming the first
    well-formedness violation otherwise. It is one linear pass over [h];
    {!validate}, {!entries} and {!is_complete} are views of it (the last
    through {!all_returned}), so a caller that needs both the verdict and
    the entries should scan once. *)

val validate : t -> (unit, string) result
(** [validate h] is [Ok ()] when [h] is well-formed, and [Error reason]
    otherwise. *)

val is_well_formed : t -> bool

val is_sequential : t -> bool
(** Alternation inv, res, inv, res, … with matching pairs; a trailing
    pending invocation is permitted, and a crash marker closes the pending
    invocation (if any) and restarts the alternation. *)

val is_complete : t -> bool

val all_returned : entry array -> bool
(** [all_returned es] holds when every entry of [es] has a response:
    [is_complete h] is [all_returned] of {!scan}'s entries for a
    well-formed [h]. *)

val crash_count : t -> int
(** Number of {!Action.Crash} markers in the history. *)

val eras : t -> int
(** [crash_count h + 1]: the number of execution eras the crash markers
    partition the history into. *)

(** {1 Projections} *)

val proj_thread : t -> Ids.Tid.t -> t
(** [proj_thread h t] is [H|t]. Crash markers are kept in every thread
    projection (a system crash is visible to every thread). *)

val proj_object : t -> Ids.Oid.t -> t
(** [proj_object h o] is [H|o]. Crash markers are kept in every object
    projection. *)

val threads : t -> Ids.Tid.t list
(** Thread identifiers occurring in the history, sorted. *)

val objects : t -> Ids.Oid.t list
(** Object identifiers occurring in the history, sorted. *)

(** {1 Operations} *)

val entries : t -> entry list
(** [entries h] are the operation instances of [h] in invocation order.
    Raises [Invalid_argument] when [h] is not well-formed. *)

val pending : t -> entry list
(** The entries with no matching response. *)

val op_of_entry : entry -> Op.t option
(** [Some op] when the entry is complete. *)

val pending_of_entry : entry -> Op.pending

val precedes : entry -> entry -> bool
(** [precedes a b] holds when [a]'s response is before [b]'s invocation
    (the operation-level real-time order induced by [≺H]), or when [a]
    belongs to a strictly earlier era than [b]: a crash marker is a global
    synchronisation point, so even a pending earlier-era operation can only
    have taken effect before it. *)

val concurrent : entry -> entry -> bool
(** Neither precedes the other. *)

(** {1 Completions} *)

val completions :
  responses:(Op.pending -> Value.t list) -> ?max:int -> t -> t Seq.t
(** [completions ~responses h] enumerates [complete(H)]: every pending
    invocation is either removed or completed by appending a response whose
    value is drawn from [responses]. Appended responses land at the end of
    the pending operation's {e era} (see {!with_responses}) — for
    crash-free histories, after all original actions. [max] (default
    10_000) caps the number of completions produced. Raises
    [Invalid_argument] when [h] is not well-formed. *)

val with_responses : Action.t list -> (int * Action.t) list -> t
(** [with_responses base rs] inserts each response action of [rs] at the
    end of its era: a pair [(k, r)] lands just before the crash marker
    closing era [k], or at the very end for the final era. This keeps
    completions of crash histories well-formed — a response appended after
    a crash marker would have no pending invocation to answer, because the
    marker cuts off every open call. *)

(** {1 Canonical form}

    Different schedules of one client program frequently produce histories
    that differ only in the interleaving order of adjacent same-kind
    actions — two invocations, or two responses, of different threads.
    Such swaps change neither the operation entries, nor the era
    structure, nor the real-time order {!precedes} (a response crosses an
    invocation in neither direction), so every checker verdict is
    invariant under them. The canonical form picks one representative per
    equivalence class by sorting each maximal run of same-kind actions
    with {!Action.compare}; crash markers are hard boundaries that no
    action may cross. This is the key quotient behind the shared verdict
    cache ({!Verdict_cache}): schedule-permuted-but-equivalent histories
    collide on {!canonical_key} and pay one checker call. *)

val canonicalize : t -> t
(** The canonical representative: idempotent, well-formedness- and
    verdict-preserving, with identical entries, eras and [precedes]. *)

val canonical_key : t -> string
(** A printable key uniquely identifying [canonicalize h] — equal exactly
    for canonically equal histories. *)

val canonical_equal : t -> t -> bool
(** [equal (canonicalize a) (canonicalize b)]. *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
val show : t -> string
val equal : t -> t -> bool
