(* One home for the search-side hash-table sizing heuristics and the
   numeric knobs read from the environment. The checkers' memo tables
   were previously created with magic literals (512/1024) regardless of
   the problem size; the helpers here scale the initial size with the quantity that actually
   drives the number of keys, clamped so tiny problems do not pay for
   8k-slot tables and huge ones do not start from a handful of buckets. *)

let clamp ~lo ~hi v = max lo (min hi v)

(* The checkers' failed-state memos are keyed by (placed-set, spec-state):
   the placed-set component alone ranges over subsets of the operations,
   so scale exponentially with the operation count up to a cap. *)
let checker_table_size ~ops = 1 lsl clamp ~lo:6 ~hi:13 ops

(* The shared verdict cache is unbounded by default — exploration runs
   are one-shot, and eviction there only buys recomputation. Long-running
   deployments bound it via the environment. *)
let verdict_cache_capacity () =
  match Sys.getenv_opt "CAL_VERDICT_CACHE_CAP" with
  | None | Some "" -> None
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> Some n
      | _ -> None)

(* Racing-pair lines printed per witness report. A long witness schedule
   can race at every other step; the first few pairs carry the
   explanation, the rest is noise. *)
let witness_race_cap () =
  match Sys.getenv_opt "CAL_WITNESS_RACE_CAP" with
  | None | Some "" -> 8
  | Some s -> (
      match int_of_string_opt s with Some n when n >= 0 -> n | _ -> 8)

(* Donation grain for the work-stealing explorer: a frame is only donated
   when its subtree has at least this many levels left, so workers don't
   ship chunks worth a handful of leaves — the replay to reconstruct the
   node would cost more than running them locally. *)
let explore_donation_min_height () =
  match Sys.getenv_opt "CAL_EXPLORE_DONATE_MIN" with
  | None | Some "" -> 2
  | Some s -> (
      match int_of_string_opt s with Some n when n >= 0 -> n | _ -> 2)
