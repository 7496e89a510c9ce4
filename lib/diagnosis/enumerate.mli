(** The enumeration kernel shared by the SAT-side engines.

    {!levels} is BasicSATDiagnose (paper Figure 3): the cardinality
    limit is raised level by level and every solution is blocked before
    the next call, so the found sets are exactly the essential
    solutions of the instance (Lemmas 1 and 3).  {!Bsat} runs it on one
    solver, {!Incremental} under an activation guard,
    {!Seq_diag} on the unrolled machine and {!Cover} on the covering
    instance; {!single_pass} adds the in-instance {!shrink} of a
    correction ({!Bsat}, {!Hitting}; {!Hybrid} shrinks its repair with
    it).

    Every loop stops before a solver call once the [found] counter
    reaches [max_solutions] or [budget] is exhausted, and after
    a call the budget cut short; either way the run is truncated and
    every found set is still a solution. *)

type run = {
  found : int list list;  (** in discovery order *)
  calls : int;  (** solver calls, shrink steps included *)
  truncated : bool;
  first_at : float;
      (** {!Obs.Clock.wall} time of the first solution, [infinity] when
          none was found *)
}

(** What {!levels} needs of an instance. *)
type instance = {
  solve :
    budget:Sat.Budget.t -> extra:Sat.Lit.t list -> int ->
    Sat.Solver.limited_result;
      (** solve under "at most [n] selected" plus [extra] assumptions *)
  solution : unit -> int list;  (** after [Sat]: the solution, sorted *)
  block : int list -> unit;  (** exclude the solution and its supersets *)
}

val muxed : ?unless:Sat.Lit.t -> Encode.Muxed.t -> instance
(** The diagnosis instance; blocking clauses carry the activation guard
    [unless] ({!Encode.Muxed.block}). *)

val levels :
  ?extra:Sat.Lit.t list ->
  ?first:int ->
  found:int ref ->
  max_solutions:int ->
  budget:Sat.Budget.t ->
  k:int ->
  instance ->
  run
(** Levels [first] (default 1) to [k] under [extra] assumptions (an
    activation literal); [found] counts every recorded solution, so a
    caller can start it at the solutions it already holds. *)

val shrink :
  budget:Sat.Budget.t ->
  count:(unit -> unit) ->
  Encode.Muxed.t ->
  int list ->
  (int list, int list) result
(** [shrink ~budget ~count inst sol] deletion-shrinks a valid correction
    [sol] (sorted) inside the instance with {!Sat.Shrink.deletion}: the
    candidates outside the working set are pinned off and a member is
    dropped while the instance stays satisfiable under the set's size.
    [count] is called before each solver call.  [Ok] is the essential
    subset, [Error] the valid superset held when the budget ran out;
    both sorted. *)

val single_pass :
  ?extra:Sat.Lit.t list ->
  ?keep_cut:bool ->
  found:int ref ->
  max_solutions:int ->
  budget:Sat.Budget.t ->
  k:int ->
  Encode.Muxed.t ->
  run
(** The level loop pinned at limit [k]: each model's select set is
    deletion-shrunk by {!shrink}, then blocked.  A set whose shrink the
    budget cut short — valid, possibly not essential — is kept with
    [keep_cut] (default true); with [false] the pass stops without it.
    An untruncated pass ends on an [Unsat] call, whose failed-assumption
    core stays readable. *)
