(** Sequential diagnosis by time-frame expansion (§2.3's sequential
    application, after Ali/Veneris/Safarpour/Drechsler/Smith/Abadir,
    ICCAD'04).

    The faulty machine is unrolled over the length of the test sequences;
    each sequential test becomes an ordinary (t, o, v) triple of the
    unrolled combinational circuit.  All time-frame copies of a core gate
    share one correction select line (a design error is present in every
    frame), so the at-most-k bound counts *core* gates. *)

type result = {
  outcome : Outcome.t;
      (** solutions are core gate ids, essential and valid, in discovery
          order; no certification *)
  frames : int;
}

val diagnose_bsat :
  ?max_solutions:int ->
  ?budget:Sat.Budget.t ->
  k:int ->
  Sim.Sequential.t ->
  Sim.Seq_testgen.test list ->
  result
(** BSAT on the unrolled machine ({!Enumerate.levels}); [budget] caps
    the solver effort, and on exhaustion the result is [truncated] with
    the corrections found so far, in discovery order.  All tests must
    share one sequence length.
    @raise Invalid_argument otherwise or on an empty test list. *)

val bsim : Sim.Sequential.t -> Sim.Seq_testgen.test list -> int list array
(** Sequential BSIM: path tracing on the unrolled machine, candidate
    sets folded back to core gate ids. *)

val diagnose_cov :
  ?max_solutions:int ->
  ?budget:Sat.Budget.t ->
  k:int ->
  Sim.Sequential.t ->
  Sim.Seq_testgen.test list ->
  int list list
(** Sequential COV: set covering over the folded candidate sets,
    bounded by [budget] ({!Cover.enumerate}). *)

val check :
  Sim.Sequential.t -> Sim.Seq_testgen.test list -> int list -> bool
(** Is a set of core gates a valid sequential correction (free per-frame,
    per-test values)?  SAT-based effect analysis on the unrolled model. *)
