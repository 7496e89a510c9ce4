(** In-library certification shared by {!Muxed} and {!Twin}: a DRUP
    proof sink on the solver, and an independent {!Sat.Drup_check}
    checker that receives every emitted clause and, after each solve,
    every new proof step.  A [Sat] answer is verified by evaluating the
    model against the full clause set and the assumptions, an [Unsat]
    answer by {!Sat.Drup_check.concludes} over the call's proof steps. *)

type t

val attach : certify:bool -> Sat.Solver.t -> t option
(** [Some] certifier with a fresh proof sink set on the solver when
    [certify], [None] otherwise.  The solver must be fresh: clauses
    added before would be invisible to the checker. *)

val tee : t option -> Emit.t -> Emit.t
(** The sink with every clause also fed to the checker. *)

val verdict :
  t option ->
  Sat.Solver.t ->
  assumptions:Sat.Lit.t list ->
  Sat.Solver.limited_result ->
  unit
(** Check the proof steps since the last verdict and the answer of the
    solve that produced them.  [Unknown] makes no claim and is not
    counted. *)

val checks : t option -> int
(** Answers verified so far. *)

val failures : t option -> string list
(** Verification failures so far, oldest first. *)
