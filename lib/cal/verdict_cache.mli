(** A canonical-history verdict cache, shared across worker domains.

    Exploration delivers many schedules whose histories differ only by the
    interleaving of adjacent same-kind actions; {!History.canonical_key}
    collapses each such class to one key, and this cache stores the
    checker verdict for the class so it is computed once. The shared
    level is sharded and each shard is protected by its own [Mutex], so
    domains of the parallel explorer ({!Conc.Par_explore}) share it
    safely with short, mostly uncontended critical sections. When the
    cache is unbounded (the exploration default), each domain
    additionally keeps a private front table duplicating the verdicts it
    has already seen, so repeat lookups — the vast majority under
    canonical-class collapse — take no lock; the per-domain hit counters
    are folded into {!hits}. The front tables belong to the cache, so a
    dropped cache is collected whole. Bounded
    caches skip the front tables so {!size} and eviction stay exact.

    A cache instance is meant to live for one check invocation (one
    specification, one checker mode): the caller builds keys that are
    unique within that scope — typically
    [History.canonical_key h ^ crashed-set ^ checker-tag]. Rejection
    {e reasons} of the checkers depend only on the specification name and
    the crash structure of the history, both canonical-form-invariant, so
    caching the full [(unit, string) result] verdict is sound. *)

type verdict = (unit, string) result

type t

val create : ?shards:int -> ?capacity:int -> unit -> t
(** A fresh empty cache with [shards] (default 16) independently locked
    shards. [capacity] bounds the total number of stored verdicts:
    each shard evicts beyond its slice of the budget in insertion (FIFO)
    order. Eviction is verdict-transparent — re-lookups recompute the
    same deterministic verdict — so bounding only trades recomputation
    for memory; long-running callers (the streaming service) should
    bound, one-shot exploration need not. Small capacities reduce the
    shard count (each shard keeps at least four slots) so hash skew
    cannot evict far below the budget. *)

val find_or_compute : t -> key:string -> (unit -> verdict) -> verdict
(** [find_or_compute t ~key compute] returns the cached verdict for
    [key], or runs [compute ()] (outside any lock — it may run more than
    once under a parallel race, which is benign for deterministic
    verdicts), stores and returns it. *)

val hits : t -> int
(** Lookups answered from the cache — shared-table hits plus every
    domain's private front-table hits. Exact once the worker domains
    have joined (a concurrent reader may see a slightly stale sum). *)

val misses : t -> int
(** Lookups that ran [compute]. *)

val evictions : t -> int
(** Entries dropped to stay within [capacity] (0 when unbounded). *)

val size : t -> int
(** Distinct keys currently stored. *)
