(** COV — SCDiagnose (paper Figure 4): diagnosis as set covering over the
    path-trace candidate sets.

    A solution C* contains at least one marked gate of every test's
    candidate set, has at most k elements and is irredundant (condition
    (b) of Fig. 4).  Following the paper's experimental setup, the
    covering problem is solved with the SAT solver: one variable per
    marked gate, one clause per test, a cardinality counter, the limit
    raised from 1 to k, every solution blocked — blocking also removes
    supersets, which yields exactly the irredundant covers.

    An independent branch-and-bound enumerator serves as an oracle in the
    test suite. *)

type engine = Sat_engine | Backtrack_engine

type result = {
  bsim : Bsim.result;        (** the underlying BSIM run *)
  solutions : int list list; (** irredundant covers, each sorted *)
  cnf_time : float;          (** the BSIM run (paper "CNF"), wall clock *)
  one_time : float;
      (** time to the first solution (paper "One"), wall clock, from the
          start of the covering stage (covering-instance construction
          included, as in [all_time]) *)
  all_time : float;          (** time to enumerate all (paper "All") *)
  truncated : bool;          (** hit [max_solutions] or the budget *)
}

val diagnose :
  ?engine:engine ->
  ?tie_break:Path_trace.tie_break ->
  ?max_solutions:int ->
  ?budget:Sat.Budget.t ->
  ?obs:Obs.t ->
  ?jobs:int ->
  k:int ->
  Netlist.Circuit.t ->
  Sim.Testgen.test list ->
  result
(** [obs] records the run: the underlying {!Bsim.diagnose}
    instrumentation, ["cov/enumerate"] [Begin]/[End] events ([End]
    payload = solution count), a ["cov/solution_size"] histogram and the
    ["cov/solutions"]/["cov/truncated"] counters.

    [budget] bounds the covering enumeration: the SAT engine charges it
    inside every solver call, the backtrack engine checks
    {!Sat.Budget.exhausted} at every search node.  On exhaustion the
    result is [truncated] and holds the covers found so far.

    [jobs] (default 1) traces the tests on that many domains
    ({!Bsim.diagnose}); the covering enumeration runs on one solver, so
    the result and the whole stats block are the same at every [jobs].
    *)

val covers : int list -> int list array -> bool
(** [covers solution sets] — does the solution hit every set? *)

val enumerate :
  ?engine:engine ->
  ?max_solutions:int ->
  ?budget:Sat.Budget.t ->
  k:int ->
  int list array ->
  int list list * bool
(** Enumerate the irredundant covers of arbitrary candidate sets (used
    directly by the sequential diagnosis); returns the solutions and a
    truncation flag. *)
