(** Twin-circuit distinguishing-test instance: the measurement the
    adaptive loop ({!Diagnosis.Adaptive}) commits next.

    For two candidate diagnoses of a faulty circuit, a [survivor] and a
    [victim], the instance asks for one input vector on which measuring
    the circuit {e certainly} kills the victim and keeps the survivor.
    All copies below share their primary-input variables:

    - a golden copy and an uncorrected copy of the implementation, whose
      disagreement gives a per-output failing flag [f_o];
    - a survivor copy in which the survivor's gates are correction
      sites: a site contributes a {e free} variable instead of its gate
      function — the per-vector projection of "re-assign the gate any
      Boolean function", exactly the correction model of {!Muxed} with
      the candidate's select lines held on.  It must match golden on
      every failing output;
    - one victim copy per assignment of correction values to the
      victim's gates, each pinned to its assignment and required to miss
      golden on some failing output.

    Both sides constrain only failing outputs, as
    {!Diagnosis.Validity.check_sat} does on the vector's failing
    triples.  [Unsat] proves no future measurement keeps the survivor
    while killing the victim; [Unsat] in both directions proves the two
    candidates survive or die together on every test. *)

type t

type answer =
  | Vector of bool array
      (** A shared-input model; the vector is blocked, so repeated calls
          enumerate distinct candidate vectors. *)
  | Inseparable
      (** Unsat: the two candidates are provably indistinguishable. *)
  | Unknown  (** Budget exhausted before an answer. *)

val build_directed :
  ?certify:bool ->
  golden:Netlist.Circuit.t ->
  Sat.Solver.t ->
  Netlist.Circuit.t ->
  survivor:int list ->
  victim:int list ->
  t
(** [build_directed ~golden solver c ~survivor ~victim] encodes the
    instance into [solver].  A model is a failing test of [c] on which
    [survivor] explains every failing triple and no correction of
    [victim] does, so measuring it kills [victim] with no resimulation
    gamble.  The victim side is expanded over all [2^|victim|]
    correction assignments, so that candidate must be small; the
    survivor side stays a single freed copy.  [golden] must have the
    input/output arity of [c].

    [certify] attaches a {!Certifier}, as {!Muxed.build} does, with no
    assumptions: each [Sat] answer is verified by model evaluation, each
    [Unsat] answer by replaying the proof to the empty clause.  Requires
    a fresh [solver].
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

val cert_checks : t -> int
(** Solver answers verified so far (0 unless built with [~certify]). *)

val cert_failures : t -> string list
(** Verification failures so far, oldest first — always [[]] unless the
    solver or checker has a bug. *)
