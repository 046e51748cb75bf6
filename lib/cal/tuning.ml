(* One home for the search-side hash-table sizing heuristics and every
   knob read from the environment: no other module of the library calls
   [Sys.getenv_opt]. The checkers' memo tables were previously created
   with magic literals (512/1024) regardless of the problem size; the
   helpers here scale the initial size with the quantity that actually
   drives the number of keys, clamped so tiny problems do not pay for
   8k-slot tables and huge ones do not start from a handful of buckets. *)

let clamp ~lo ~hi v = max lo (min hi v)

(* The checkers' failed-state memos are keyed by (placed-set, spec-state):
   the placed-set component alone ranges over subsets of the operations,
   so scale exponentially with the operation count up to a cap. *)
let checker_table_size ~ops = 1 lsl clamp ~lo:6 ~hi:13 ops

(* The bound of the streaming service's verdict cache (calc serve);
   unset means unbounded. *)
let verdict_cache_capacity () =
  match Sys.getenv_opt "CAL_VERDICT_CACHE_CAP" with
  | None | Some "" -> None
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> Some n
      | _ -> None)

(* A boolean switch is on for 1/true/yes/on, off for anything else. *)
let env_flag v =
  match Sys.getenv_opt v with
  | Some ("1" | "true" | "yes" | "on") -> true
  | _ -> false

let explore_oversubscribe () = env_flag "CAL_EXPLORE_OVERSUBSCRIBE"

let explore_domains () =
  match Sys.getenv_opt "CAL_EXPLORE_DOMAINS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> 1)
  | None -> 1

let explore_strategy () = Sys.getenv_opt "CAL_EXPLORE_STRATEGY"
