(** Independent DRUP proof checker.

    Validates a {!Proof} against the clause set it was produced from:
    every [Add] step must be a reverse-unit-propagation (RUP)
    consequence of the input clauses plus the previously accepted
    additions (minus deletions), i.e. assuming its negation and unit
    propagating must yield a conflict.  The propagation engine here is
    written from scratch — occurrence lists and a full-clause scan, no
    watched-literal code shared with {!Solver} — precisely so a solver
    bug cannot hide in its own certificate check, the same way the twin
    validity engines cross-check each other.

    {b Deletion semantics} are strict: the checker's root trail (the
    literals implied by unit propagation from the live clause set alone)
    is always a function of the live clause set.  Deleting a clause that
    propagated a root-trail literal rebuilds the trail, so no literal
    survives as a ghost of a deleted clause; a contradiction reached by
    propagation is likewise recomputed on deletion, while an explicitly
    installed empty clause refutes permanently.  Dead entries are pruned
    from the occurrence lists once they outnumber half the clause
    database, so deletion-heavy proofs (DB reduction, inprocessing) do
    not degrade propagation.

    The checker is incremental: input clauses may be interleaved with
    proof steps (blocking clauses during an enumeration, new circuit
    copies in incremental diagnosis), matching how the solver's clause
    set actually grows. *)

type t

val create : unit -> t

val add_clause : t -> Lit.t list -> unit
(** Install an input clause (trusted, not checked). *)

val add_cnf : t -> Cnf.t -> unit

val refuted : t -> bool
(** Has the empty clause been derived or installed?  Once refuted,
    every further step is vacuously accepted. *)

val num_clauses : t -> int
(** Live clauses (inputs plus accepted additions minus deletions). *)

val check_rup : t -> Lit.t list -> bool
(** Is the clause a RUP consequence of the live clause set?  Leaves the
    checker state unchanged. *)

val check_step : t -> Proof.step -> (unit, string) result
(** Verify one proof step.  [Add c] must pass {!check_rup} and is then
    installed; [Delete c] must name a live clause, which is removed
    (rebuilding the root trail if the clause justified part of it).
    The error string says what failed; after an error the step is not
    installed/removed. *)

val model_ok : ?assumptions:Lit.t list -> t -> (int -> bool) -> bool
(** Does the assignment (variable index -> value) satisfy every *input*
    clause, and make every [assumptions] literal true?  Certifies a
    [Sat] answer by evaluation, independently of the solver's model
    bookkeeping.

    The check is incremental and weakens nothing.  The checker keeps a
    copy of the last model it checked, and each live input clause a
    witness literal true under that copy.  A call reads every variable
    of an input clause once, and re-witnesses only the clauses whose
    witness the new model made false and the input clauses installed
    since the last call: its cost is the variables seen plus the
    clauses re-witnessed.  The first call, and the call after a failed
    one, re-witness every clause.  Assumptions are read through the
    assignment itself, so they may name variables no clause holds. *)

val concludes : t -> assumptions:Lit.t list -> Proof.step array -> bool
(** Does the live clause set certify an Unsat answer under
    [assumptions]?  It does when it is refuted, when one of [steps] is
    an establishing core clause (every literal negating an assumption)
    that is live or a RUP consequence of the live set, or when
    [assumptions] hold a literal and its negation.  The in-library
    certifiers pass the steps checked since the answer's solve began. *)

type mode =
  | Forward
      (** Verify every [Add] step in proof order.  The strictest mode
          and the default: a proof accepted forward contains no
          unjustified step at all. *)
  | Backward
      (** Verify only the needed set: locate the conclusion, then walk
          the proof backwards un-installing steps, RUP-checking just the
          steps the conclusion transitively depends on (each verified
          step's propagation antecedents join the needed set).  Much
          cheaper on proofs whose learnt clauses were mostly deleted
          before the end, and accepts every forward-valid proof; it may
          additionally accept proofs containing unjustified steps the
          conclusion never uses, which is why it is not the default. *)

val check_unsat :
  ?mode:mode ->
  ?jobs:int ->
  ?assumptions:Lit.t list ->
  Cnf.t ->
  Proof.step array ->
  (unit, string) result
(** One-shot certification of an Unsat answer: every step verifies
    against [cnf] (per [mode]), and the conclusion holds against the
    {e final} clause set — the empty clause for global
    unsatisfiability, or (with [assumptions]) an establishing core
    clause (every literal negating an assumption) that is still live
    once all deletions are applied, or a RUP consequence of the final
    live set.  A refutation reached while installing [cnf] itself
    (complementary units) also qualifies, and so do [assumptions] that
    hold a literal and its negation (their core clause is a tautology);
    every step is still checked then.

    [jobs > 1] (Forward mode only) shards the RUP checks round-robin
    over that many domains; every worker replays all installs and
    deletions, so the verdict — including which failing step is
    reported — is identical at every width. *)
