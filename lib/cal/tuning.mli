(** Sizing heuristics for the search-side hash tables and every knob
    read from the environment, in one place: no other module of the
    library reads an environment variable. Every reader consults the
    environment afresh on each call.

    The checkers ({!Cal_checker}, {!Lin_checker}, {!Interval_lin})
    memoize failed search states in hash tables whose initial sizes are
    derived here from the operation count instead of per-call-site magic
    literals. *)

val checker_table_size : ops:int -> int
(** Initial size for a checker's failed-state memo over [ops]
    operations: [2^ops] clamped to [64, 8192]. *)

val verdict_cache_capacity : unit -> int option
(** The capacity bound of the streaming service's {!Verdict_cache}
    ([calc serve]) from [CAL_VERDICT_CACHE_CAP] (a positive integer;
    unset, empty or invalid means unbounded). *)

val explore_oversubscribe : unit -> bool
(** [CAL_EXPLORE_OVERSUBSCRIBE] is on ([1]/[true]/[yes]/[on]): the
    parallel explorer spawns as many worker domains as requested, past
    the hardware's core count ({!Conc.Par_explore.effective_domains}). *)

val explore_domains : unit -> int
(** Default worker-domain count of the obligation checks, from
    [CAL_EXPLORE_DOMAINS] (an integer [>= 1], surrounding blanks allowed;
    unset or invalid means [1]). *)

val explore_strategy : unit -> string option
(** The raw [CAL_EXPLORE_STRATEGY] string, unparsed: the strategy type
    lives above this library ({!Conc.Explore.strategy_of_string}). *)
