(** BSAT — BasicSATDiagnose (paper Figure 3).

    The diagnosis instance of Figure 2 (one circuit copy per test,
    correction multiplexers, shared selects) is solved with the limit on
    selected gates raised incrementally from 1 to k; every solution is
    blocked before moving on, so the enumeration returns exactly the
    valid corrections containing only essential candidates up to size k
    (Lemmas 1 and 3). *)

type result = Outcome.t = {
  solutions : int list list;
  truncated : bool;
  solver_calls : int;
  stats : Sat.Solver.stats;
  cert_checks : int;
  cert_failures : string list;
  cnf_time : float;
  one_time : float;
  all_time : float;
}
(** The shared engine outcome ({!Outcome.t}), re-exported so its fields
    resolve under [Bsat]; the times are wall-clock. *)

type hints = {
  priority : (int * float) list;
      (** gate id -> activity bump for its select line *)
  prefer_selected : int list;
      (** gates whose select line should first be tried as 1 *)
}

val no_hints : hints

type strategy =
  | Incremental_k
      (** Figure 3 verbatim: limits 1..k, blocking at each level. *)
  | Minimize_single_pass
      (** The advanced approach's all-solutions mode: one pass at limit k;
          each model's select set is shrunk to an essential subset inside
          the same instance (assumption-based) before being blocked.
          Returns the same solution set with fewer solver calls when
          solutions are sparse. *)

val diagnose :
  ?candidates:int list ->
  ?hints:hints ->
  ?strategy:strategy ->
  ?max_solutions:int ->
  ?budget:Sat.Budget.t ->
  ?obs:Obs.t ->
  ?obs_prefix:string ->
  ?certify:bool ->
  k:int ->
  Netlist.Circuit.t ->
  Sim.Testgen.test list ->
  result
(** [candidates] restricts the multiplexer sites (advanced approaches);
    [hints] biases the solver's decision heuristic (the §6 hybrid).  The
    advanced approach's s=0 ⇒ c=0 rule needs no option: an unselected
    gate has no free correction input ({!Encode.Muxed}).

    Without [certify], Lemma 1 is read off the simulation first:
    {!Validity.singles} runs once, and every candidate that is no
    single correction gets the implied clause of
    {!Encode.Muxed.rule_out_single}, so the level-1 Unsat call ends by
    unit propagation.  Under an unlimited budget the solutions,
    [truncated] and [solver_calls] are those of the certified run,
    which adds no such clause.

    [certify] (default false) independently verifies every solver answer
    behind the enumeration ({!Encode.Muxed.build}'s certification mode):
    [Sat] answers by model evaluation, [Unsat] answers — each
    cardinality-level step and the final enumeration-exhausted step — by
    DRUP-checking the solver's proof.  Results land in [cert_checks] /
    [cert_failures].

    The enumeration runs on one incremental solver, as Figure 3 does.
    [Minimize_single_pass] has one caveat under a budget: a shrink
    abandoned mid-way may leave a valid but non-essential correction.

    [budget] is the only bound besides [max_solutions]: it caps total
    solver effort across the whole enumeration and is enforced *inside*
    the CDCL loop, so a single hard call cannot overshoot it
    unboundedly.  On exhaustion the result is flagged [truncated] and
    contains the solutions found so far (each one still a valid
    correction).  Conflict/propagation budgets are deterministic under
    a fixed seed.

    [obs] records the outcome under ["<obs_prefix>/..."] counters and
    spans ({!Outcome.record}; default prefix ["bsat"]), brackets
    instance construction and the
    enumeration with ["<obs_prefix>/cnf"]/["<obs_prefix>/solve"]
    [Begin]/[End] events (the solve [End] payload is the solution
    count), fills a ["<obs_prefix>/solution_size"] histogram and
    attaches the solver's per-conflict histograms
    ({!Sat.Solver.attach_obs}); see {!Telemetry}. *)

val first_solution :
  ?candidates:int list ->
  ?hints:hints ->
  k:int ->
  Netlist.Circuit.t ->
  Sim.Testgen.test list ->
  int list option
(** Just one valid correction of minimum size <= k, or [None]. *)
