(* A single-domain verdict memo. Keys are caller-built strings (the
   service's spec state and canonical window key); values are checker
   verdicts.

   An optional capacity bounds the table for long-running callers: keys
   are queued in insertion order and the oldest is evicted first (FIFO).
   Eviction is verdict-transparent — a later lookup of an evicted key
   recomputes the same deterministic verdict — so it only costs
   recomputation, never correctness. *)

type verdict = (unit, string) result

type t = {
  table : (string, verdict) Hashtbl.t;
  order : string Queue.t;  (* insertion order, only kept when bounded *)
  capacity : int option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?capacity () =
  {
    table = Hashtbl.create 64;
    order = Queue.create ();
    capacity = Option.map (max 1) capacity;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let insert t key v =
  Hashtbl.add t.table key v;
  match t.capacity with
  | None -> ()
  | Some cap ->
      Queue.push key t.order;
      while Hashtbl.length t.table > cap do
        Hashtbl.remove t.table (Queue.pop t.order);
        t.evictions <- t.evictions + 1
      done

let find_or_compute t ~key compute =
  match Hashtbl.find_opt t.table key with
  | Some v ->
      t.hits <- t.hits + 1;
      v
  | None ->
      let v = compute () in
      t.misses <- t.misses + 1;
      insert t key v;
      v

let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let size t = Hashtbl.length t.table
