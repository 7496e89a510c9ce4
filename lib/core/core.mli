(** Single-module façade over the whole library.

    Re-exports every public module and provides a batteries-included
    [diagnose] entry point: given a golden specification and a faulty
    implementation (or a circuit with injected errors), generate tests
    and run any of the paper's diagnosis approaches.

    {[
      let golden = Core.Generators.ripple_carry_adder 8 in
      let faulty, _ = Core.Injector.inject ~seed:1 ~num_errors:1 golden in
      let report = Core.diagnose ~golden ~faulty ~k:1 () in
      (* report.bsat_solutions are guaranteed valid corrections *)
    ]} *)

module Gate = Netlist.Gate
module Circuit = Netlist.Circuit
module Builder = Netlist.Builder
module Bench_format = Netlist.Bench_format
module Structural = Netlist.Structural
module Dominators = Netlist.Dominators
module Generators = Netlist.Generators
module Simulator = Sim.Simulator
module Event_sim = Sim.Event_sim
module Xsim = Sim.Xsim
module Fault = Sim.Fault
module Injector = Sim.Injector
module Testgen = Sim.Testgen
module Lit = Sat.Lit
module Cnf = Sat.Cnf
module Solver = Sat.Solver
module Budget = Sat.Budget
module Obs = Obs
module Telemetry = Diagnosis.Telemetry
module Outcome = Diagnosis.Outcome
module Tseitin = Encode.Tseitin
module Cardinality = Encode.Cardinality
module Muxed = Encode.Muxed
module Path_trace = Diagnosis.Path_trace
module Bsim = Diagnosis.Bsim
module Cover = Diagnosis.Cover
module Bsat = Diagnosis.Bsat
module Hitting = Diagnosis.Hitting
module Validity = Diagnosis.Validity
module Advanced_sim = Diagnosis.Advanced_sim
module Advanced_sat = Diagnosis.Advanced_sat
module Hybrid = Diagnosis.Hybrid
module Metrics = Diagnosis.Metrics
module Xlist = Diagnosis.Xlist
module Sequential = Sim.Sequential
module Seq_testgen = Sim.Seq_testgen
module Seq_diag = Diagnosis.Seq_diag
module Stuck_at = Sim.Stuck_at
module Fault_sim = Sim.Fault_sim
module Connection = Sim.Connection
module Dictionary = Diagnosis.Dictionary
module Miter = Encode.Miter
module Twin = Encode.Twin
module Adaptive = Diagnosis.Adaptive
module Rectify = Diagnosis.Rectify
module Atpg = Diagnosis.Atpg
module Incremental = Diagnosis.Incremental
module Serve = Serve

type report = {
  tests : Testgen.test list;        (** the failing triples used *)
  bsim : Bsim.result;
  cov_solutions : int list list;    (** irredundant covers (may be invalid) *)
  bsat_solutions : int list list;   (** essential valid corrections *)
}

val diagnose :
  golden:Circuit.t ->
  faulty:Circuit.t ->
  k:int ->
  ?num_tests:int ->
  ?seed:int ->
  ?max_solutions:int ->
  unit ->
  report
(** End-to-end flow: simulate golden vs faulty to harvest up to
    [num_tests] (default 16) failing triples, then run BSIM, COV and BSAT
    with limit [k] on the faulty implementation. *)

val version : string
