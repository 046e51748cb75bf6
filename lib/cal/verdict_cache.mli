(** A verdict memo on caller-built keys, for one domain.

    The streaming service's overflow path
    ([Service.Session.check_verdict]) keys a checker verdict on the
    committed spec state and the {!History.canonical_key} of the pending
    window, so canonically equal windows pay for one checker call. The
    exhaustive checks keep no such memo: the checker costs less than the
    canonical key that would skip it.

    A cache instance is meant to live for one check scope (one
    specification, one checker mode): the caller builds keys that are
    unique within that scope. Rejection {e reasons} of the checkers depend
    only on the specification name and the crash structure of the
    history, both canonical-form-invariant, so caching the full
    [(unit, string) result] verdict is sound.

    The table is not synchronised: use one cache from one domain at a
    time. *)

type verdict = (unit, string) result

type t

val create : ?capacity:int -> unit -> t
(** A fresh empty cache. [capacity] bounds the number of stored verdicts
    (at least one): beyond it the oldest insertion is evicted first
    (FIFO). Eviction is verdict-transparent — re-lookups recompute the
    same deterministic verdict — so bounding only trades recomputation
    for memory; long-running callers (the streaming service) should
    bound. *)

val find_or_compute : t -> key:string -> (unit -> verdict) -> verdict
(** [find_or_compute t ~key compute] returns the cached verdict for
    [key], or runs [compute ()], stores and returns its verdict. *)

val hits : t -> int
(** Lookups answered from the cache. *)

val misses : t -> int
(** Lookups that ran [compute]. *)

val evictions : t -> int
(** Entries dropped to stay within [capacity] (0 when unbounded). *)

val size : t -> int
(** Distinct keys currently stored. *)
