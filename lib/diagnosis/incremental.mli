(** Incremental diagnosis over a growing test set.

    The paper stresses that BSAT benefits from incremental SAT solvers
    (Zchaff, SATIRE [19]): when more failing tests arrive — from longer
    simulation, another formal property, a second tester pass — the
    diagnosis instance grows but the solver keeps its learned clauses.
    This driver owns one live instance; each enumeration uses an
    activation-guarded set of blocking clauses so it can be retired when
    the test set is extended.

    The context also carries its last complete answer forward.  Validity
    is per test, so a correction essential for the old tests that also
    repairs every new test (checked by simulation, {!Validity.check_sim})
    is essential for the grown set, and every other essential of the
    grown set strictly contains an old essential that failed.  A repeat
    on an unchanged test set therefore needs no solver call, and after
    growth the solver only searches for the new, larger essentials.

    An uncertified context with [k = 1] never searches at all.  Its
    whole answer is level 1, and by Lemma 1 a single gate is a valid
    correction exactly when flipping it fixes every failing test, so
    {!Validity.singles} answers it by simulation.  Such a context builds
    no CNF and makes no solver call: every {!solutions} outcome reports
    0 [solver_calls] and zero counters, and {!stats} stays
    {!Sat.Solver.zero_stats}.  A certified context keeps the SAT level 1,
    because a simulation verdict has no DRUP certificate. *)

type t

type result = {
  outcome : Outcome.t;
      (** this call's answer and effort: [stats] is the live solver's
          counter delta over the call ([learned] is the gauge, as-is),
          and [solver_calls], [cert_checks] and
          [cert_failures] are this call's own; [all_time] is the call's
          wall time, the other times 0 on the live instance *)
  reused : int;
      (** solutions answered from the carried answer, without a solver
          search *)
  revalidated : int;
      (** carried solutions re-checked by simulation against new tests *)
}

val create :
  ?obs:Obs.t ->
  ?certify:bool ->
  k:int ->
  Netlist.Circuit.t ->
  Sim.Testgen.test list ->
  t
(** [certify] verifies every solver answer on the live instance
    ({!Encode.Muxed.build}'s certification mode) — including clauses
    added later by {!add_tests} and the guarded blocking clauses, which
    the checker receives through the same emit hook; each {!solutions}
    call reports its own checks.

    The live instance is built here, except in an uncertified [k = 1]
    context, which answers by simulation and builds none.

    [obs] attaches the live solver's per-conflict histograms under
    ["incremental/..."] ({!Sat.Solver.attach_obs}) and emits
    ["incremental/cnf"] [Begin]/[End] events around instance
    construction (none without an instance), an
    ["incremental/add_tests"] [Instant] event per {!add_tests} call
    (payload = number of tests added) and
    ["incremental/solve"] [Begin]/[End] events around each
    {!solutions} enumeration ([End] payload = solution count). *)

val attach : t -> Obs.t option -> unit
(** Re-point the context's telemetry at another registry — or detach it
    with [None].  A pooled context served across requests must re-attach
    per request: {!Obs.reset} detaches the histogram handles the solver
    acquired at {!create} time, so the previous registry would silently
    stop recording.  Subsequent phase/instant events and the solver's
    per-conflict histograms ({!Sat.Solver.attach_obs}, prefix
    ["incremental"]) go to the new registry. *)

val retire : t -> unit
(** Permanently take the context out of service (e.g. on cache
    eviction): detaches telemetry and marks the context dead —
    subsequent {!add_tests}, {!solutions} or {!attach} calls raise
    [Invalid_argument].  Idempotent.  Read-only accessors ({!stats},
    {!num_tests}) keep working so a server can log a context's final
    state after eviction. *)

val retired : t -> bool

val add_tests : t -> Sim.Testgen.test list -> unit
(** Extend the live instance with more tests (no re-encoding of the
    existing copies; learned clauses are kept).  If encoding fails part
    way, the context is {!retire}d before the exception propagates: a
    half-extended instance never answers. *)

val fail_next_add_tests : after:int -> unit
(** Fault injection for robustness tests: the next {!add_tests} call on
    any context raises [Failure] after encoding [after] of its tests.
    One-shot; a call that adds [after] tests or fewer disarms it without
    failing. *)

val num_tests : t -> int

val solutions :
  ?max_solutions:int -> ?budget:Sat.Budget.t -> t -> result
(** Enumerate the essential valid corrections for the *current* test
    set (Fig. 3's incremental-k loop on the live instance), in canonical
    (cardinality, lexicographic) order.

    The last complete (untruncated) answer is carried forward.  On an
    unchanged test set it is returned without a solver call.  After
    {!add_tests}, each carried correction is re-checked by simulation
    against the new tests only; the survivors are blocked and counted as
    found, and the level loop starts at the smallest level that can hold
    a new essential (one above the smallest failed correction), so it
    searches only for new essentials.  The answer equals a cold
    enumeration.  An uncertified [k = 1] context settles what is left by
    simulation instead (see above): the first [max_solutions] singles in
    canonical order, [truncated] once the cap is reached, as the level
    loop does; an already exhausted [budget] still returns [truncated]
    and no solutions.  The carried answer is not used — the call
    enumerates from scratch — when [budget] is already exhausted, when the carried
    set has [max_solutions] or more corrections, and, for growth, in a
    [certify] context (every reported correction then stays backed by a
    checked solver answer on the full test set) or when [k] > 16.  The
    result's [reused] and [revalidated] count the carried corrections
    this call used.

    [budget] caps total solver effort and [max_solutions] the
    enumeration length; when either cuts the run short the prefix found
    so far is returned, flagged [truncated] (consistent with
    {!Bsat.diagnose}).  The instance stays usable — blocking clauses
    for the returned solutions are retired as usual. *)

val stats : t -> Sat.Solver.stats
(** The live solver's lifetime counters ({!Sat.Solver.zero_stats} in an
    uncertified [k = 1] context). *)
