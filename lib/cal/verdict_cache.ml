(* A two-level verdict cache shared across worker domains.

   Keys are caller-built strings (canonical history keys, possibly
   extended with crashed-thread sets and a checker tag); values are the
   per-outcome verdicts of the obligation checkers.

   L2 — always present — is the shared sharded, mutex-protected table.
   Sharding by key hash keeps the critical sections short and mostly
   uncontended; a miss computes {e outside} the shard lock, so two
   domains may occasionally both compute the same verdict — harmless,
   since verdicts are deterministic functions of the key, and the first
   insert wins.

   L1 — only when the cache is unbounded — is a per-domain hash table in
   front of L2. Parallel exploration delivers the same canonical class
   from many domains; once a domain has seen a verdict it re-reads it
   from its own L1 with no lock, taking the shard mutexes off the hot
   lookup path entirely. The L1 tables hang off the cache itself, in an
   immutable list of (domain id, table) pairs behind one atomic that a
   domain extends (by compare-and-set) on its first lookup; a lookup is
   one atomic read and a scan of that list, whose head is the most
   recently joined domain. Dropping the cache drops its L1 tables with
   it — unlike a [Domain.DLS] key per cache, whose slot OCaml never
   frees, so every unbounded cache ever used would have kept its L1
   alive for the domain's lifetime. An L1 is a plain duplicate of L2
   entries, so it needs no invalidation; per-domain hit counters are
   summed into {!hits}. Bounded caches (the streaming service) skip L1: duplicated
   entries would make the capacity accounting lie, and eviction could
   not reach the per-domain copies.

   An optional capacity bounds the cache for long-running callers: each
   shard gets its slice of the budget and evicts in insertion (FIFO)
   order. Eviction is verdict-transparent — a later lookup of an evicted
   key recomputes the same deterministic verdict — so it only costs
   recomputation, never correctness. *)

type verdict = (unit, string) result

type shard = {
  lock : Mutex.t;
  table : (string, verdict) Hashtbl.t;
  order : string Queue.t;  (* insertion order, only kept when bounded *)
  cap : int option;  (* this shard's slice of the capacity *)
}

(* One domain's private L1: owner-only access, so a mutable int hit
   counter suffices. Other domains read [l_hits] only through {!hits},
   which tolerates a stale value (callers read stats after joining). *)
type local = {
  l_domain : int;  (* the owning domain's id *)
  l_table : (string, verdict) Hashtbl.t;
  mutable l_hits : int;
}

type t = {
  shards : shard array;
  hits : int Atomic.t;       (* L2 hits *)
  misses : int Atomic.t;
  evictions : int Atomic.t;
  l1 : local list Atomic.t option;  (* [None] when bounded *)
}

let create ?(shards = 16) ?capacity () =
  let shards = max 1 shards in
  (* Small capacities collapse the shard count (at least 4 entries per
     shard): sharding exists for lock contention, and slicing a tiny
     budget 16 ways would let hash skew evict far below the budget. *)
  let shards =
    match capacity with Some c -> max 1 (min shards (c / 4)) | None -> shards
  in
  let cap i =
    match capacity with
    | None -> None
    | Some c ->
        let base = max 1 c / shards and extra = max 1 c mod shards in
        Some (base + if i < extra then 1 else 0)
  in
  let l1 =
    match capacity with Some _ -> None | None -> Some (Atomic.make [])
  in
  {
    shards =
      Array.init shards (fun i ->
          {
            lock = Mutex.create ();
            table = Hashtbl.create 64;
            order = Queue.create ();
            cap = cap i;
          });
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    evictions = Atomic.make 0;
    l1;
  }

let shard_of t key =
  t.shards.(Hashtbl.hash key mod Array.length t.shards)

let insert t s key v =
  if not (Hashtbl.mem s.table key) then begin
    Hashtbl.add s.table key v;
    match s.cap with
    | None -> ()
    | Some cap ->
        Queue.push key s.order;
        while Hashtbl.length s.table > cap do
          let victim = Queue.pop s.order in
          Hashtbl.remove s.table victim;
          Atomic.incr t.evictions
        done
  end

let find_shared t ~key compute =
  let s = shard_of t key in
  Mutex.lock s.lock;
  match Hashtbl.find_opt s.table key with
  | Some v ->
      Mutex.unlock s.lock;
      Atomic.incr t.hits;
      v
  | None ->
      Mutex.unlock s.lock;
      let v = compute () in
      Atomic.incr t.misses;
      Mutex.lock s.lock;
      insert t s key v;
      Mutex.unlock s.lock;
      v

(* The calling domain's L1, registered on its first lookup. Only the
   owner registers its own entry, so a failed compare-and-set just means
   another domain joined meanwhile: retry against the longer list. *)
let rec local_in self = function
  | l :: rest -> if l.l_domain = self then l else local_in self rest
  | [] -> raise Not_found

let rec local_of tables =
  let self = (Domain.self () :> int) in
  let current = Atomic.get tables in
  match local_in self current with
  | l -> l
  | exception Not_found ->
      let l = { l_domain = self; l_table = Hashtbl.create 64; l_hits = 0 } in
      if Atomic.compare_and_set tables current (l :: current) then l
      else local_of tables

let find_or_compute t ~key compute =
  match t.l1 with
  | None -> find_shared t ~key compute
  | Some tables -> (
      let l = local_of tables in
      match Hashtbl.find_opt l.l_table key with
      | Some v ->
          l.l_hits <- l.l_hits + 1;
          v
      | None ->
          let v = find_shared t ~key compute in
          Hashtbl.add l.l_table key v;
          v)

let hits t =
  let l1 =
    match t.l1 with
    | None -> 0
    | Some tables -> List.fold_left (fun n l -> n + l.l_hits) 0 (Atomic.get tables)
  in
  Atomic.get t.hits + l1

let misses t = Atomic.get t.misses
let evictions t = Atomic.get t.evictions

let size t =
  Array.fold_left (fun n s -> n + Hashtbl.length s.table) 0 t.shards
