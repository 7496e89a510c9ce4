(** Implicit hitting-set diagnosis (Reiter-style HSDAG over SAT
    conflict sets).

    The dual of {!Bsat}'s direct enumeration: instead of asking the
    solver for corrections, the engine asks it for {e conflict sets} —
    failed-assumption cores over the muxed encoding's select lines —
    and grows a hitting-set DAG whose paths hit every conflict.  A node
    is a set [H] of gates; its check assumes every candidate outside
    [H] unselected and solves under the at-most-k bound.  [Unsat]
    yields a conflict set (the core's gates, deletion-minimized with
    {!Sat.Solver.shrink_core}), and the node gets one child per
    conflict element; [Sat] yields corrections inside [H], each
    deletion-shrunk to an inclusion-minimal diagnosis, recorded and
    blocked.  Nodes deeper than [k], nodes whose set contains a
    recorded diagnosis, and duplicate sets are pruned; extracted
    conflict sets are reused as labels for later disjoint nodes without
    a solver call.

    On an unbudgeted run the recorded set is exactly the minimal
    diagnoses of size [<= k] — byte-identical, after
    {!Solutions.canonical}, to {!Bsat.diagnose}'s essential solutions.
    Every recorded diagnosis is globally inclusion-minimal at the moment
    it is recorded, so a truncated run returns a subset of the full
    minimal set. *)

type heuristic =
  | Bfs  (** expand open nodes in (depth, creation) order: minimal
             cardinality first, the classic HSDAG order *)
  | Greedy
      (** expand the node whose creation-edge label is the most
          frequent element across extracted conflict sets first, and
          order children the same way — hits many conflicts early *)

type result = {
  outcome : Outcome.t;
      (** canonical minimal diagnoses ([one_time]: time to the first
          recorded one), counters and certificates of the one solver
          that checks every node *)
  cores : int;        (** conflict sets extracted from unsat cores *)
  reused : int;       (** node labels served from known conflict sets *)
  nodes : int;        (** HSDAG nodes checked with a solver call *)
  pruned : int;       (** nodes closed without a check (duplicate set,
                          or the set contains a recorded diagnosis) *)
}

val diagnose :
  ?heuristic:heuristic ->
  ?max_solutions:int ->
  ?budget:Sat.Budget.t ->
  ?obs:Obs.t ->
  ?certify:bool ->
  k:int ->
  Netlist.Circuit.t ->
  Sim.Testgen.test list ->
  result
(** Enumerate all minimal diagnoses of size [<= k] implicitly, by
    hitting sets over conflict cores.  Default [heuristic = Bfs].

    [budget] caps total solver effort across every node check, core
    shrink and diagnosis shrink; on exhaustion (or at [max_solutions])
    the run stops with [truncated = true] and the solutions recorded so
    far — each still a genuine minimal diagnosis, so the truncated list
    is a subset of the full run's.  A diagnosis whose minimization was
    cut off mid-shrink is discarded rather than returned non-minimal.

    One solver and encoding check the nodes one at a time, in
    expansion order.  [certify] independently verifies every solver
    answer behind every node check and shrink step ({!Encode.Muxed}
    certification: models by evaluation, cores by DRUP).

    [obs] records the engine contract's telemetry under
    ["hitting/..."]: the outcome ({!Outcome.record}) plus
    [cores]/[nodes]/[reused]/[pruned], the [core_size] and
    [solution_size] histograms, and [cnf]/[solve] phase events and
    spans. *)
