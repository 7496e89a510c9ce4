(** The SAT-based diagnosis instance of the paper's Figure 2.

    One copy of the circuit per test (t, o, v); a correction multiplexer
    at every candidate gate.  The select line [s_g] is shared by all
    copies (the gate is changed for all tests or none).  The multiplexer
    is encoded as select-guarded gate clauses: every Tseitin clause of a
    candidate's copy variable [y_g^i] carries [s_g], so an unselected
    gate computes [y_g^i = kind(fanins)] and a selected gate's [y_g^i]
    is free per test — it is the injected correction value, and a
    selected gate may be re-assigned any Boolean function.  There is no
    separate correction input, so the advanced approach's rule
    [¬s_g ⇒ c_g^i = 0] holds by construction.  Each copy pins its
    primary inputs to the test vector and its erroneous output to the
    correct value.

    A sequential counter over the select lines provides the
    "at most k changed gates" bound, selectable per solve call via
    assumptions (Fig. 3, line 2).

    Candidates may be grouped: all gates of a group share one select line
    and count once towards the bound.  This models one *design* error
    appearing in several places — in particular every time-frame copy of
    a core gate in unrolled sequential diagnosis (Ali et al.). *)

type t

val build :
  ?mirror:Sat.Cnf.t ->
  ?candidates:int list ->
  ?groups:int list list ->
  ?certify:bool ->
  max_k:int ->
  Sat.Solver.t ->
  Netlist.Circuit.t ->
  Sim.Testgen.test list ->
  t
(** [build ~max_k solver circuit tests] encodes the diagnosis instance
    into [solver].

    [candidates] become singleton groups; [groups] are explicit groups
    sharing a select line.  When neither is given, every logic gate is a
    singleton candidate.  A gate may appear in at most one group.

    [mirror] additionally copies every clause into the given CNF (see
    {!export_dimacs}).

    [certify] attaches a {!Certifier}: a DRUP proof sink on [solver]
    and an independent {!Sat.Drup_check} checker that receives every
    emitted clause.  Each subsequent solve call is then verified: a
    [Sat] answer by evaluating the model against the full clause set,
    an [Unsat] answer by forward DRUP-checking the solver's proof and
    locating the clause that negates the failed assumptions (the
    cardinality bound and any activation guards).  Outcomes accumulate in {!cert_checks} /
    {!cert_failures}; verification never changes answers.  [certify]
    requires [solver] to be fresh — clauses added before [build] would
    be invisible to the checker. *)

val export_dimacs :
  ?candidates:int list ->
  ?groups:int list list ->
  k:int ->
  Netlist.Circuit.t ->
  Sim.Testgen.test list ->
  string
(** The complete diagnosis instance, with the at-most-k bound frozen in,
    as DIMACS CNF text — for use with external SAT solvers.  DIMACS
    variables [1..#groups] are the select lines, in group order (explicit
    groups first, then the remaining candidates in topological order). *)

val add_test : t -> Sim.Testgen.test -> unit
(** Incrementally constrain the live instance with one more test: a new
    circuit copy is encoded into the same solver, sharing the select
    lines and everything the solver has learned so far — the incremental
    use the paper attributes to Zchaff/SATIRE.  Solutions enumerated
    before the call may no longer be corrections for the extended set. *)

val circuit : t -> Netlist.Circuit.t

val candidate_gates : t -> int array
(** All gates carrying a multiplexer, over all groups. *)

val select_lit : t -> int -> Sat.Lit.t
(** Select literal of a candidate gate's group.
    @raise Not_found for non-candidates. *)

val solve_at_most :
  ?extra:Sat.Lit.t list ->
  ?budget:Sat.Budget.t ->
  t ->
  int ->
  Sat.Solver.limited_result
(** Solve under "at most k selected groups" plus the [extra]
    assumptions, within [budget] (default unlimited, so the answer is
    never [Unknown]); consumed effort is charged to [budget], so one
    budget can cap a whole enumeration.  This is the instance's only
    solve: on a certified instance every answer is verified here. *)

val solution : t -> int list
(** After [Sat]: one representative (smallest gate id) per selected
    group, sorted.  For singleton groups this is the gate itself. *)

val correction_value : t -> test:int -> gate:int -> bool
(** After [Sat]: the value injected at a selected candidate gate for a
    test — the witness from which a replacement function can be read
    off.  For an unselected candidate this is its fault-free value.
    @raise Not_found for non-candidates. *)

val correction_var : t -> test:int -> gate:int -> int
(** The solver variable carrying that correction value (for phase hints
    and assumptions): the candidate's copy variable, the one
    {!gate_value} reads.  @raise Not_found for non-candidates. *)

val block : ?unless:Sat.Lit.t -> t -> int list -> unit
(** Add the blocking clause [∨ ¬s] over the groups of the given gates,
    excluding that solution and all supersets from future solve calls.
    With [unless], the clause carries that activation guard: it only
    takes effect while the literal is assumed true, so a whole
    enumeration can be retired (incremental diagnosis). *)

val rule_out_single : t -> int -> unit
(** [rule_out_single t g] adds, through the emit hook, the clause
    [¬s_g ∨ ¬b] for the literals [b] of the "at most 1" bound: under
    that bound the group of [g] is never selected.  The clause says
    that [g]'s group alone corrects nothing, so it is implied by the
    instance exactly when that group is not a valid correction on its
    own (the paper's Lemma 1, decided by simulation); with every such
    group ruled out and the valid ones blocked, the level-1 Unsat
    answer follows by unit propagation.  The clause is no RUP
    consequence: a certified instance's checker would take it as an
    input it cannot verify, so only uncertified instances should get
    it.  Requires [max_k >= 1].
    @raise Invalid_argument for non-candidates. *)

val assert_clause : t -> Sat.Lit.t list -> unit
(** Add an arbitrary clause through the instance's emit hook, so mirrors
    and the certification checker stay in sync with the solver.  Used to
    retire activation guards ([¬a] as a unit clause). *)

val fresh_activation : t -> Sat.Lit.t
(** A fresh activation literal for guarded blocking clauses. *)

val cert_checks : t -> int
(** Solver answers verified so far (both [Sat] and [Unsat]; [Unknown]
    results carry no claim and are not counted). *)

val cert_failures : t -> string list
(** Verification failures so far, oldest first.  Always [[]] unless the
    solver or checker has a bug — this is the paper-level soundness net:
    every diagnosis step's SAT answer is independently replayed. *)

val gate_value : t -> test:int -> gate:int -> bool
(** After [Sat]: the (post-mux) value of any gate in a test copy. *)
