(** Twin-circuit distinguishing-test instance.

    Two copies of the same (faulty) circuit share their primary inputs;
    copy A treats the gates of candidate [a] as correction sites, copy B
    those of candidate [b].  A correction site contributes a {e free}
    variable instead of its gate function — the per-vector projection of
    "re-assign the gate any Boolean function", exactly the correction
    model of {!Muxed} with the candidate's select lines held on.  A
    {!Miter}-style XOR disjunction asserts that some primary output of
    the two corrected copies differs.

    A [Sat] answer yields an input vector on which the two candidates
    {e can} behave differently — a candidate distinguishing test for the
    adaptive loop (whether it actually splits the surviving diagnosis
    set is decided by resimulation, see {!Diagnosis.Adaptive}).  [Unsat]
    is a proof that for {e every} input vector, {e all} correction
    values of both sides produce identical outputs: each side's
    achievable response is the same singleton, so no test — present or
    future — can tell the two candidates apart.

    With a [~golden] reference the instance carries two further copies
    over the same shared inputs — the uncorrected implementation and the
    golden circuit — and asserts that they too differ on some output:
    every model is then a {e failing} test of the implementation, i.e. a
    vector the adaptive loop can actually measure a kill on.  Since a
    passing test never invalidates a candidate (a correction site is
    free to reproduce the gate's own value), the restriction loses no
    distinguishing power, and [Unsat] still certifies that no future
    measurement separates the pair. *)

type t

type answer =
  | Vector of bool array
      (** A shared-input model; the vector is blocked, so repeated calls
          enumerate distinct candidate vectors. *)
  | Inseparable
      (** Unsat: the two candidates are provably indistinguishable. *)
  | Unknown  (** Budget exhausted before an answer. *)

val build :
  ?certify:bool ->
  ?golden:Netlist.Circuit.t ->
  Sat.Solver.t ->
  Netlist.Circuit.t ->
  a:int list ->
  b:int list ->
  t
(** [build solver c ~a ~b] encodes the twin instance into [solver].
    [a] and [b] are candidate gate sets (they may overlap); primary
    inputs cannot be correction sites.  [golden] additionally restricts
    models to failing tests of [c] against the reference (see above);
    it must have the same input/output arity as [c].

    [certify] attaches a {!Certifier}, as {!Muxed.build} does, with no
    assumptions: each [Sat] answer is verified by model
    evaluation, each [Unsat] answer by replaying the proof to the empty
    clause.  Requires a fresh [solver].
    @raise Invalid_argument when a candidate is a primary input or the
    golden reference's arity mismatches. *)

val build_directed :
  ?certify:bool ->
  golden:Netlist.Circuit.t ->
  Sat.Solver.t ->
  Netlist.Circuit.t ->
  survivor:int list ->
  victim:int list ->
  t
(** [build_directed ~golden solver c ~survivor ~victim] encodes the
    {e guaranteed-kill} strengthening of the twin instance: a model is
    an input vector on which the [survivor] candidate can still explain
    the vector's failing triples while {e no} correction-value
    assignment of the [victim] candidate can — exactly the validity
    notion of {!Diagnosis.Validity.check_sat} on the resimulated
    triples (an uncorrected copy of the implementation computes the
    per-output failing flags, and all correctness conditions are
    restricted to the failing outputs).  Measuring such a vector
    therefore invalidates [victim] with certainty (and keeps
    [survivor]), with no resimulation gamble; every model is
    automatically a failing test, since a vector with no failing output
    kills nobody.

    The victim side is expanded over all [2^|victim|] correction
    assignments (one pinned copy each), so the candidate must be small;
    the survivor side stays a single freed copy.

    [Unsat] proves no future measurement can keep [survivor] while
    killing [victim]; [Unsat] in both directions proves the two
    candidates survive or die together on every test — the exact
    pairwise indistinguishability the adaptive loop's verdict rests on
    (see {!Diagnosis.Adaptive}).
    @raise Invalid_argument when a candidate is a primary input, the
    golden arity mismatches, or [victim] has more than 10 gates. *)

val next_vector : ?budget:Sat.Budget.t -> t -> answer
(** Solve the instance (under [budget] if given, charging consumed
    effort to it).  On [Sat] the shared input vector is extracted and
    excluded from future calls. *)

val block : t -> bool array -> unit
(** Exclude one input vector from the model space — the same clause
    {!next_vector} adds after each answer; use it to rule out vectors
    already obtained from {e other} twin instances.
    @raise Invalid_argument on an arity mismatch. *)

val num_vectors : t -> int
(** Vectors returned (and blocked) so far. *)

val cert_checks : t -> int
(** Solver answers verified so far (0 unless built with [~certify]). *)

val cert_failures : t -> string list
(** Verification failures so far, oldest first — always [[]] unless the
    solver or checker has a bug. *)
