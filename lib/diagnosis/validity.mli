(** Effect analysis: is a candidate gate set a *valid correction*
    (Definition 3) for a test set?

    A set C is valid when, for every test (t, o, v), some assignment of
    per-test values to the gates of C makes output o take value v with the
    inputs pinned to t.  Two independent engines:

    - [check_sat]: the SAT formulation (correction multiplexers at C
      only, all selects asserted) — the engine inherent to BSAT;
    - [check_sim]: pure simulation — per test, enumerate the up-to 2^|C|
      value combinations with event-driven resimulation.  This is the
      re-simulation effect analysis of the advanced simulation-based
      approaches.

    Both engines compute the same predicate (a cross-checked property
    test); their differing costs are exactly the trade-off the paper
    analyzes. *)

val check_sat : Netlist.Circuit.t -> Sim.Testgen.test list -> int list -> bool

val check_sim :
  ?max_set:int -> Netlist.Circuit.t -> Sim.Testgen.test list -> int list ->
  bool
(** @raise Invalid_argument when the set exceeds [max_set] (default 16)
    gates — the enumeration is exponential in |C|. *)

val singles : Netlist.Circuit.t -> Sim.Testgen.test list -> int list
(** The non-input gates g (the candidates of {!Encode.Muxed.build}) for
    which [[g]] is a valid
    correction, ascending — the candidates with [check_sat [g]] and
    [check_sim [g]], by one simulation per failing test and one
    early-exit flip ({!Sim.Event_sim.output_after}) per surviving
    candidate.  Tests that already pass constrain nothing. *)

val essential :
  check:(int list -> bool) -> int list -> bool
(** Whether a valid set contains only essential candidates
    (Definition 4): no proper subset obtained by dropping one gate is
    still valid. *)
