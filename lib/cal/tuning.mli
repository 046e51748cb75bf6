(** Sizing heuristics for the search-side hash tables and the numeric
    knobs read from the environment, in one place.

    The checkers ({!Cal_checker}, {!Lin_checker}, {!Interval_lin})
    memoize failed search states in hash tables whose initial sizes are
    derived here from the operation count instead of per-call-site magic
    literals. *)

val checker_table_size : ops:int -> int
(** Initial size for a checker's failed-state memo over [ops]
    operations: [2^ops] clamped to [64, 8192]. *)

val verdict_cache_capacity : unit -> int option
(** The {!Verdict_cache} capacity bound from [CAL_VERDICT_CACHE_CAP]
    (a positive integer; unset, empty or invalid means unbounded).
    Exploration engines stay unbounded by default; long-running services
    set the variable to cap memo growth. *)

val witness_race_cap : unit -> int
(** Maximum racing step pairs printed per witness report
    ({!Verify.Obligations}'s renderers), from [CAL_WITNESS_RACE_CAP]
    (a non-negative integer; default [8]). The remainder is summarized
    as a count. *)

val explore_donation_min_height : unit -> int
(** Minimum remaining subtree height (fuel minus node depth) for a DFS
    node to be donated to an idle worker by the parallel explorer, from
    [CAL_EXPLORE_DONATE_MIN] (a non-negative integer; default [2]).
    Larger values make chunks coarser — fewer, bigger steals; [0] lets
    even pre-leaf nodes be donated. *)
