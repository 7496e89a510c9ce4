(** A CDCL SAT solver in the Zchaff/MiniSat lineage.

    Features: two-watched-literal BCP, first-UIP conflict analysis with
    clause learning, VSIDS variable activities, phase saving, Luby
    restarts, activity-driven learned-clause deletion, solving under
    assumptions, and incremental clause addition between [solve] calls
    (the blocking-clause workhorse of all-solutions enumeration).

    The paper's BSAT/COV procedures rely on exactly this feature set
    (conflict-driven learning, efficient BCP, incremental interface). *)

type t

type result = Sat | Unsat

val create : unit -> t

val new_var : t -> int
(** Allocate the next variable index. *)

val ensure_vars : t -> int -> unit
(** Make variables [0 .. n-1] available. *)

val num_vars : t -> int

val add_clause : t -> Lit.t list -> unit
(** Add a clause.  May be called before or between [solve] calls.  After
    a [Sat] answer the solver keeps that answer's trail (see {!solve}),
    and the clause cuts it back only as far as it must: not at all when
    two of its literals are not false; to the level where it becomes
    unit, propagating its last literal there; and, when every literal
    is false, to the level below the highest one that leaves it unit or
    open.  A unit clause, or one over a variable removed by
    inprocessing, takes the solver back to the root.  Adding the empty
    clause (or a clause falsified at root level) makes the instance
    permanently unsatisfiable. *)

val add_cnf : t -> Cnf.t -> unit

val solve : ?assumptions:Lit.t list -> t -> result
(** Solve the current clause set under the given assumptions.  The solver
    remains usable afterwards; learned clauses are kept.

    A [Sat] answer also keeps its assignment trail.  The next call
    resumes the search from it, as cut back by any clauses added in
    between, when it passes the same assumptions (in the same order)
    and no inprocessing round is due; otherwise it starts from the root,
    as an [Unsat] or [Unknown] answer always leaves it.  Resuming changes
    which model a call finds first, never its verdict. *)

type limited_result = Solved of result | Unknown

val solve_limited :
  ?assumptions:Lit.t list -> budget:Budget.t -> t -> limited_result
(** [solve] under an effort budget, checked *inside* the CDCL loop: the
    call returns [Unknown] as soon as the budget's conflict or
    propagation allowance is consumed (deterministically — the same
    instance under the same budget stops at the same point, and a
    subsequent [Sat] model is bit-identical across runs) or its deadline
    passes (checked every 1024 loop iterations, and between the steps of
    an inprocessing round, so the overshoot is bounded).  Consumed conflicts/propagations are charged to [budget],
    which is shared state: an enumeration loop passing the same budget
    to every call gets a total-effort cap.  After [Unknown] the solver
    is fully usable — no model is available, but clauses and learnt
    state are intact.

    An [Unsat] answer under assumptions does {e not} make the solver
    permanently unsatisfiable unless the conflict is independent of the
    assumptions; use {!unsat_core} to tell the two cases apart. *)

val unsat_core : t -> Lit.t list
(** After an [Unsat] answer: the failed-assumption core, a subset of the
    assumptions passed to the last call such that the clause set already
    implies their disjunctive negation.  [[]] means the clause set is
    unsatisfiable outright (independent of any assumptions).  The core
    is not guaranteed minimal.  With a proof sink attached, the clause
    negating the core is the proof's final step, so the core itself is
    certified by {!Drup_check.check_unsat}.
    @raise Invalid_argument if the last call did not answer [Unsat]. *)

val shrink_core :
  ?solve:(Lit.t list -> limited_result) ->
  ?budget:Budget.t ->
  t ->
  Lit.t list ->
  Lit.t list
(** Deletion-based minimization of a failed-assumption core
    ({!Shrink.deletion}): each literal is dropped in turn and the
    remainder re-solved; an [Unsat] answer discards it (and refines the
    remainder by the fresh {!unsat_core}, which may discard several
    literals at once), a [Sat] or [Unknown] answer keeps it.  On an unlimited [budget] the result
    is irreducible — no proper subset of it is a core; when the budget
    dies mid-shrink the result is still a core, just possibly
    non-minimal (every kept literal set is a superset of a core).

    [solve] replaces the default [solve_limited ~assumptions ~budget]
    re-solve, so a caller holding extra context (activation literals, a
    cardinality bound, a certifying wrapper) can route the re-solves
    through it; the callback must solve on [t] itself, as the
    refinement step reads [t]'s {!unsat_core} (extra assumptions the
    callback injects are filtered back out). *)

val set_proof : t -> Proof.t option -> unit
(** Attach (or detach) a DRUP proof sink.  The solver then records every
    learned clause post-minimization, every learnt-DB deletion, and the
    step establishing each [Unsat] answer — the empty clause, or the
    failed-assumption-core clause.  Attach before adding clauses whose
    derivations matter; detaching mid-run yields a proof the checker
    will reject.  Proofs are byte-deterministic for a fixed trajectory
    (see {!Proof}). *)

val value : t -> int -> bool
(** Model value of a variable after a [Sat] answer.  The first read of
    an eliminated variable completes the model: one replay of the
    elimination record as it stood at the answer, newest entry first.
    @raise Invalid_argument if the last call did not return [Sat]. *)

val model : t -> bool array
(** Complete model (indexed by variable) after a [Sat] answer: a fresh
    array, which later calls never change. *)

val eliminations : t -> (int * Lit.t list list) list
(** The live elimination record, newest first: each eliminated variable
    with the problem clauses stored when it went.  Those clauses come
    back when the variable is restored. *)

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  learned : int;        (** learnt clauses currently in the database *)
  learned_total : int;  (** clauses learned over the solver's lifetime,
                            including unit learnts that bypass the DB *)
  deleted : int;        (** learnt clauses removed by DB reduction or
                            inprocessing *)
  subsumed : int;       (** clauses deleted by backward subsumption *)
  strengthened : int;   (** clauses shortened by self-subsumption *)
  vivified : int;       (** learnt clauses shortened by vivification *)
  eliminated : int;     (** variables removed by bounded variable
                            elimination (cumulative; restorations are
                            not subtracted) *)
}

val stats : t -> stats
(** Cumulative counters across every [solve]/[solve_limited] call on
    this solver.  [learned] is a gauge (current DB size); the others are
    monotonic. *)

val zero_stats : stats
(** Every counter 0. *)

val map2_stats : (int -> int -> int) -> stats -> stats -> stats
(** Combine two counter snapshots field by field. *)

val add_stats : stats -> stats -> stats
(** Field-wise sum, for effort spread over several solver runs (an
    engine's passes); [learned] sums the gauges. *)

val stats_fields : stats -> (string * int) list
(** Every counter under its field name, in declaration order. *)

val simplify : t -> unit
(** Run one inprocessing pass at the root level: drop root-satisfied
    clauses, backward (self-)subsumption, bounded clause vivification
    and bounded variable elimination.  Every change is reflected in the
    attached proof (derived clauses are added before the clauses they
    replace are deleted, and clauses backing root-trail literals are
    never deleted), so certified runs stay certified.  Eliminated
    variables are restored transparently when they reappear in an added
    clause or an assumption; models returned by later [solve] calls are
    extended over them, so callers never observe the elimination.
    The solver also triggers this pass on its own: once at the start of
    the first [solve]/[solve_limited] call, before any search, and then
    on a doubling conflict-count cadence. *)

val attach_obs : ?prefix:string -> t -> Obs.t -> unit
(** Record per-conflict effort distributions into the registry's
    histograms: ["<prefix>/learnt_len"] (learnt-clause literal counts),
    ["<prefix>/backtrack"] (levels undone per conflict) and
    ["<prefix>/conflict_gap"] (propagations between consecutive
    conflicts).  Default [prefix] is ["sat"].  Totals-only counters
    ({!stats}) cannot distinguish a steady search from a stalling one;
    these distributions can, and they are deterministic under a fixed
    seed.  Attaching costs three histogram bumps per conflict and
    nothing on the propagation hot path.  Attaching again (to the same
    or another registry) simply replaces the hooks — necessary after
    {!Obs.reset}, which detaches previously acquired histogram
    handles. *)

val detach_obs : t -> unit
(** Drop the observation hooks installed by {!attach_obs}: subsequent
    solving records no histograms.  A solver pooled across requests
    must detach (or re-attach) before its registry is handed to another
    request. *)

val set_default_phase : t -> int -> bool -> unit
(** Initial branching polarity for a variable (overwritten by phase saving
    once the variable has been assigned).  Hook used by the hybrid
    diagnosis to bias the search. *)

val bump_priority : t -> int -> float -> unit
(** Add to a variable's VSIDS activity so it is branched on earlier.
    Hook used by the hybrid diagnosis (BSIM mark counts as hints).
    Applies the same 1e100 rescale guard as internal conflict-driven
    bumps, so repeated external seeding cannot overflow activities. *)

val activity_of : t -> int -> float
(** Current VSIDS activity of a variable (0 for unallocated variables).
    Introspection hook for tests; activities are meaningful only
    relative to each other and to the rescale epoch. *)