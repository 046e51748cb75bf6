(** Delta-debugging minimization of failing (schedule, fault plan) pairs.

    A sampled counterexample ({!Sampler}) is typically long and noisy:
    most of its decisions are irrelevant to the violation. This module
    minimizes it with ddmin (Zeller & Hildebrandt, {e Simplifying and
    isolating failure-inducing input}) over three axes jointly — schedule
    decisions, fault-plan elements, and run length (a removed suffix {e is}
    fuel reduction) — revalidating every candidate through a deterministic
    replay. Shrinking preserves the verdict by construction: a candidate is
    accepted {e only} when replaying it still fails the caller's [fails]
    predicate (the same checker that rejected the original run), so the
    minimal witness fails for the same reason class, never by accident.

    Candidate schedules are replayed {e tolerantly}: a decision that is no
    longer enabled after earlier removals is skipped rather than an error,
    and the witness is re-normalized to the decisions actually applied.
    Tolerant replay is still a deterministic function of
    (schedule, plan), so revalidation is sound; the final witness replays
    {e strictly} — byte-for-byte via {!Runner.replay} /
    {!Runner.replay_durable}. Every function here replays against a
    {!Runner.target}: the same [setup], plain or durable, that the
    failing run used.

    The result is {e 1-minimal} (locally minimal): removing any single
    schedule decision or any single plan element from the witness makes
    the failure disappear. ddmin guarantees this at termination of each
    axis; the outer loop iterates the axes to a joint fixpoint. *)

type stats = {
  candidates : int;      (** candidate replays tried (all revalidations) *)
  steps_removed : int;   (** schedule decisions removed from the original *)
  plan_removed : int;    (** fault-plan elements removed *)
  rounds : int;          (** outer schedule/plan alternations to fixpoint *)
}

type minimized = {
  m_schedule : Runner.schedule;  (** strictly replayable minimal schedule *)
  m_plan : Fault.plan;           (** minimal fault plan *)
  m_outcome : Runner.outcome;    (** the outcome of replaying the witness *)
  m_stats : stats;
}

val replay :
  Runner.target -> plan:Fault.plan -> Runner.schedule -> Runner.outcome
(** Strict replay against the target ({!Runner.replay} or
    {!Runner.replay_durable}); raises [Invalid_argument] on a decision
    that is not enabled. *)

val tolerant_replay :
  Runner.target -> plan:Fault.plan -> Runner.schedule -> Runner.outcome
(** Replay skipping decisions that are not enabled at their point; the
    outcome's [schedule] field holds the decisions actually applied. A
    deterministic function of (schedule, plan). *)

val minimize :
  target:Runner.target ->
  fails:(Runner.outcome -> bool) ->
  schedule:Runner.schedule ->
  ?plan:Fault.plan ->
  unit ->
  (minimized, string) result
(** Minimize the failing pair. [Error] when the input pair does not fail
    [fails] under (tolerant) replay — a caller bug, since the pair is
    supposed to come from an observed failing run. On [Ok m]:
    [fails m.m_outcome] holds, [m.m_outcome] is the strict replay of
    [(m.m_schedule, m.m_plan)], and the witness is 1-minimal: every
    single-decision and single-plan-element removal passes (or no longer
    reproduces a failing run). *)

val segments :
  Runner.target -> plan:Fault.plan -> Runner.schedule ->
  (int * bool * int) list
(** Per-thread schedule segments for rendering ({!Cal.Witness}): maximal
    runs of consecutive decisions by one thread as
    [(thread, preemptive, steps)], where [preemptive] means the previous
    thread was still enabled when the scheduler switched away from it (a
    dejafu-style [Pn] segment, against [Sn] for a voluntary switch).
    Replays the schedule to observe enabledness; raises
    [Invalid_argument] if the schedule is not strictly replayable. *)
