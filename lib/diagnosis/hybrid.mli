(** Hybrid diagnosis (§6, the paper's future-work sketch, both variants).

    (a) {!guided}: the cheap BSIM engine computes mark counts M(g); the
    SAT search is biased towards highly-marked gates by bumping the VSIDS
    activity and the saved phase of their select literals.  The solution
    space is untouched — only the decision order changes.

    (b) {!repair}: an initial correction that may be invalid (e.g. a COV
    cover) is turned into a valid correction: the SAT instance is solved
    under assumptions that keep the seed gates selected; if that is
    unsatisfiable the least-marked seed gate is dropped, until a valid
    correction extending the remaining seed exists.  The result is then
    shrunk to essential candidates on the same live instance
    ({!Enumerate.shrink}), under the same budget and certification. *)

type guided_result = {
  plain : Outcome.t;  (** plain BSAT *)
  guided : Outcome.t;  (** BSIM-guided BSAT: the same solutions *)
}

val guided :
  ?max_solutions:int ->
  ?budget:Sat.Budget.t ->
  ?obs:Obs.t ->
  ?jobs:int ->
  k:int ->
  Netlist.Circuit.t ->
  Sim.Testgen.test list ->
  guided_result
(** Runs plain BSAT and BSIM-guided BSAT on the same workload and returns
    both runs; the guided run's solutions are identical to plain BSAT's
    by construction whenever neither run is truncated.

    [budget] caps the guided run; the plain run burns a
    {!Sat.Budget.clone} so both comparands get the same allowance.
    [obs] records the two runs under ["hybrid/plain/..."] and
    ["hybrid/guided/..."].  [jobs] widens the BSIM pass only
    ({!Bsim.diagnose}); both BSAT runs use one solver each. *)

val cov_seed :
  ?budget:Sat.Budget.t ->
  ?obs:Obs.t ->
  ?jobs:int ->
  k:int ->
  Netlist.Circuit.t ->
  Sim.Testgen.test list ->
  Cover.result
(** The seed of {!repair}: the first irredundant cover of the
    branch-and-bound covering oracle ({!Cover.diagnose} with
    [Backtrack_engine], capped at one solution).  It involves no SAT
    solver, so the seed depends neither on [jobs] (which only widens the
    BSIM pass) nor on the solver's schedule.  The result is [truncated]
    whenever a cover was found: the cap is the point. *)

type repair_result = {
  seed : int list;          (** the initial (possibly invalid) correction *)
  kept : int list;          (** seed gates that survived *)
  correction : int list;    (** final valid correction, essential *)
  dropped : int;            (** seed gates discarded *)
  added : int;              (** gates the SAT engine added *)
}

type repair_outcome = {
  repaired : repair_result option;
      (** [None] when no valid correction of size <= k extends any seed
          suffix — or when the budget died mid-repair (the outcome is
          then [truncated]): a truncated repair is not a correction *)
  outcome : Outcome.t;
      (** the repair's run: [solutions] is the final correction (or
          none), [truncated] that the [budget] ran out before the search
          concluded (the ladder or the shrink of its model),
          [solver_calls] the ladder's solves and the shrink's probes,
          and the certificates of all their answers (with
          [~certify]) *)
}

val repair :
  ?budget:Sat.Budget.t ->
  ?obs:Obs.t ->
  ?certify:bool ->
  ?jobs:int ->
  k:int ->
  seed:int list ->
  Netlist.Circuit.t ->
  Sim.Testgen.test list ->
  repair_outcome
(** BSIM's marks order seed dropping (least-marked first); [jobs]
    parallelizes that marking pass (the repair search itself is a
    sequential assumption ladder on one live instance).  [certify]
    verifies every solver answer of the ladder and the shrink with the
    {!Encode.Muxed} DRUP discipline.
    [obs] brackets the whole repair with a ["hybrid/repair"]
    [Begin]/[End] event pair ([End] payload = final correction size, 0
    on failure). *)
