(** Randomized schedulers for sampled checking (PCT-style).

    Exhaustive exploration caps out near fuel ~16–18 even reduced and
    parallel; beyond that, the only road is {e sampling}: run the program
    under a randomized scheduler many times and check every outcome. The
    schedulers here are deterministic functions of an explicit {!Rng.t},
    so a sampled run is exactly as reproducible as an exhaustive one — and
    because every run starts from a {!Runner.target} (plain or durable)
    through the {!Runner} exec API, its outcome carries the
    (schedule, plan) pair that {!Runner.replay_target} reproduces
    byte-for-byte. The same {!run}
    with [~kind:Random_walk] is the repo's one uniform random run.
    Sampling never proves absence of bugs; it is the
    detection mode for spaces too big to exhaust, with
    {!Verify.Obligations.check}'s [Sampled] search as the checking front and
    {!Shrink} as the witness minimizer.

    Three sampler kinds:

    - {!Random_walk}: uniform choice among enabled decisions at every
      step — the baseline; biased toward "fair" interleavings, weak at
      rare orderings.
    - {!Pct}: probabilistic concurrency testing (Burckhardt et al.,
      ASPLOS'10). Threads get random priorities; the scheduler always runs
      the highest-priority enabled thread, except at [d - 1] random
      {e priority-change points} where the currently highest enabled
      thread is demoted below everyone. A bug of preemption depth [d] is
      found with probability ≥ 1/(n·k^(d-1)) per run — dramatically better
      than uniform sampling for small [d].
    - {!Preemption_bounded}: a random walk that preempts (switches away
      from an enabled thread) at most [bound] times per run — the sampling
      analogue of CHESS iterative context bounding.

    The samplers also {e jointly} sample the adversity axes: {!sample_plan}
    draws a fault plan (thread crashes, forced CAS failures, stalls, clock
    delays, system crashes) from a {!plan_space} learned by {!probe}, so
    one sampled run covers a random point of
    schedule × fault plan × crash plan. *)

type kind =
  | Random_walk
  | Pct of { d : int }
      (** priority-based with [d - 1] priority-change points; [d >= 1] *)
  | Preemption_bounded of { bound : int }
      (** uniform random walk with at most [bound] preemptions *)

val pp_kind : Format.formatter -> kind -> unit

val kind_to_string : kind -> string
(** ["random-walk"], ["pct:3"], ["pbr:2"] — round-trips with
    {!kind_of_string}; embedded in failure reports so a printed
    counterexample names its scheduler exactly. *)

val kind_of_string : string -> (kind, string) result

val run :
  ?plan:Fault.plan ->
  kind:kind ->
  target:Runner.target ->
  fuel:int ->
  rng:Rng.t ->
  unit ->
  Runner.outcome
(** One sampled execution of [target]: run to completion or until [fuel]
    decisions, scheduling per [kind]. Crashed/stalled threads are never
    picked; if no decision is enabled the run stops early. The outcome's
    (schedule, plan) pair replays byte-for-byte via {!Runner.replay_target}
    (a [Durable] target's plans may contain {!Fault.Crash_system}).
    [~kind:Random_walk] is the plain
    uniform random run: one {!Rng.pick} over the frontier per decision. *)

(** {1 Joint plan sampling}

    Fault plans name concrete (thread, step) points and fallible-step
    occurrences, so sampling them needs the program's shape: which threads
    take how many steps, which fallible labels execute how often, how deep
    a run goes. {!probe} learns that shape from a few random-walk runs —
    the sampling analogue of the candidate learner inside
    {!Explore.exhaustive_with_faults}. *)

type plan_space = {
  ps_threads : int;              (** boot-program thread count *)
  ps_thread_steps : int array;   (** max steps each thread took in a probe run *)
  ps_fallible : (string * int) list;
      (** executed fallible-step labels with their max occurrence count in
          one run — the forcible {!Fault.Fail_step} points *)
  ps_max_steps : int;            (** deepest probe run (global decisions) *)
}

val probe :
  target:Runner.target ->
  fuel:int ->
  runs:int ->
  rng:Rng.t ->
  unit ->
  plan_space
(** Learn a {!plan_space} from [runs] fault-free random walks of
    [target]. *)

val sample_plan :
  ?fault_bound:int ->
  ?delay_factors:int list ->
  ?crash_depth:int ->
  plan_space ->
  rng:Rng.t ->
  Fault.plan
(** Draw a random valid fault plan: up to [fault_bound] (default [1])
    per-thread faults — crashes, forced fallible-step failures, stalls,
    and (when [delay_factors] is non-empty) clock delays — plus up to
    [crash_depth] (default [0]) strictly increasing
    {!Fault.Crash_system} points within the probed depth. The empty plan
    is always in the support (sampling must also cover fault-free runs).
    The result satisfies {!Fault.validate} with the same [crash_depth]. *)
