(** Adaptive sequential diagnosis: distinguishing-test generation closes
    the measure→diagnose loop (ROADMAP item 3, after the conflict-driven
    test-selection direction of Zhen et al. and the Pecheur–Cimatti
    twin-plant diagnosability construction).

    Starting from an initial failing-test set, the loop
    {ol {- enumerates the surviving minimal diagnoses of size <= k on a
           warm {!Incremental} context (encode once, extend per round);}
        {- for every pair of survivors and both directions builds a
           {e directed} twin instance ({!Encode.Twin.build_directed}):
           correction-muxed copies of the faulty circuit sharing
           primary inputs with the golden reference, one side
           constrained to still match golden, the other asserted unable
           to under {e any} correction values — every model is a
           distinguishing vector with a guaranteed kill;}
        {- resimulates each candidate vector against the golden circuit
           ({!Sim.Testgen.from_vectors}) and scores it by the binary
           entropy of the kill/survive partition it induces on the
           survivor set ({!Sim.Testgen.split_entropy}): a survivor is
           killed when it cannot explain the vector's failing triples
           ({!Validity.check_sat} on the new triples alone — validity
           decomposes per test because correction values are per-test
           free);}
        {- commits the best splitting vector's triples to the warm
           context and re-enumerates.}}

    Termination: a vector is only committed when it kills at least one
    survivor, and a killed diagnosis stays invalid forever (its tests
    remain in the set), so every round permanently shrinks the finite
    lattice of valid corrections of size <= k; [max_rounds] and [budget]
    bound the loop besides.  The loop ends with a {!verdict}:
    [Unique] and [Indistinguishable] are definitive answers —
    [Indistinguishable] is sound because an [Unsat] directed query (in
    both directions, with only already-measured vectors blocked) proves
    the two candidates survive or die together on every unmeasured
    vector, and measured or passing vectors carry no splitting power,
    so no future test can separate them either. *)

type verdict =
  | Unique  (** exactly one diagnosis survives *)
  | No_diagnosis  (** no correction of size <= k explains the tests *)
  | Indistinguishable
      (** > 1 survivors and every pairwise twin query is [Unsat]: no
          unmeasured failing vector can split any pair, and measured or
          passing vectors never kill — the survivors are provably
          final *)
  | Stalled
      (** [max_stall] consecutive generation passes produced separable
          pairs but no vector that actually killed a survivor *)
  | Exhausted
      (** [budget], [max_rounds] or [max_solutions] cut the loop short;
          the surviving set is a valid partial answer *)

type round = {
  survivors_before : int;  (** survivor count entering the round *)
  vector : bool array;  (** the committed distinguishing vector *)
  triples : Sim.Testgen.test list;  (** its failing (t, o, v) triples *)
  killed : int list list;  (** survivors invalidated by the vector *)
  survivors_after : int;  (** count after re-enumeration *)
  score : float;  (** {!Sim.Testgen.split_entropy} of the partition *)
  pairs_separable : int;  (** twin queries answering [Sat] this round *)
  pairs_inseparable : int;  (** twin queries answering [Unsat] *)
}

type result = {
  outcome : Outcome.t;
      (** the final survivors in canonical order, [truncated] iff
          [verdict = Exhausted]; [solver_calls] counts every enumeration
          call and twin query, [stats] are the warm context's solver
          counters, and the certificates cover both; [cnf_time] builds
          the warm context, [all_time] is the rest of the call and
          [one_time] 0 (the rounds answer one after another) *)
  verdict : verdict;
  rounds : round list;  (** committed rounds, in order *)
  initial_tests : int;  (** triples in the initial set *)
  tests_committed : int;  (** generated triples added by the loop *)
  twin_calls : int;  (** twin solver queries issued *)
}

val diagnose :
  ?max_rounds:int ->
  ?max_stall:int ->
  ?vectors_per_pair:int ->
  ?max_pool:int ->
  ?max_solutions:int ->
  ?budget:Sat.Budget.t ->
  ?obs:Obs.t ->
  ?certify:bool ->
  ?jobs:int ->
  k:int ->
  golden:Netlist.Circuit.t ->
  Netlist.Circuit.t ->
  Sim.Testgen.test list ->
  result
(** [diagnose ~k ~golden faulty tests] runs the adaptive loop.

    [max_rounds] (default [32]) bounds committed rounds;
    [vectors_per_pair] (default [4]) is how many candidate vectors each
    twin instance may contribute per generation pass; [max_pool]
    (default [32]) cuts a pass short once that many new vectors are
    pooled — the quadratic pair sweep only runs to completion when it
    has to, i.e. when it is about to prove inseparability;
    [max_solutions] (default [1000]) caps each survivor enumeration
    (hitting the cap truncates).  Committed vectors are blocked in later twin instances
    (a measured vector has no splitting power left); [max_stall]
    (default [4]) bounds consecutive fruitless generation passes — a
    defensive cap, since every directed model carries a guaranteed
    kill.

    [budget] caps total solver effort across enumerations and twin
    queries; on exhaustion the loop stops with [Exhausted] and the
    survivors found so far — truncated but valid.

    [jobs] parallelizes the per-vector scoring resimulation; the
    survivor enumeration runs on the warm {!Incremental} context, and
    twin queries and vector selection run sequentially with deterministic tie-breaking
    (score, then kill count, then generation order), so the committed
    test sequence, the rounds and the final solutions are identical at
    every width whenever no truncation occurs.

    [certify] verifies every SAT answer of the enumeration {e and} of
    every twin query (models by evaluation, Unsat by DRUP replay);
    outcomes accumulate in the outcome's [cert_checks] /
    [cert_failures].  The
    per-survivor validity probes used for scoring are plain solver
    calls and are not certified — they only rank vectors and never
    justify a verdict by themselves.

    [obs] records ["adaptive/round"] phase events (payload = kills), a
    ["adaptive/killed"] histogram and the deterministic
    ["adaptive/rounds"], ["adaptive/tests_committed"],
    ["adaptive/twin_calls"], ["adaptive/solutions"] and
    ["adaptive/truncated"] counters, plus the warm context's own
    ["incremental/..."] instrumentation.
    @raise Invalid_argument on an empty initial test set. *)
