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
module Par = Par
module Telemetry = Diagnosis.Telemetry
module Solutions = Diagnosis.Solutions
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

type report = {
  tests : Testgen.test list;
  bsim : Bsim.result;
  cov_solutions : int list list;
  bsat_solutions : int list list;
}

let diagnose ~golden ~faulty ~k ?(num_tests = 16) ?(seed = 0)
    ?(max_solutions = max_int) () =
  let tests =
    Testgen.generate ~seed ~max_vectors:(1 lsl 16) ~wanted:num_tests ~golden
      ~faulty
  in
  let bsim = Bsim.diagnose faulty tests in
  let cov = Cover.diagnose ~max_solutions ~k faulty tests in
  let bsat = Bsat.diagnose ~max_solutions ~k faulty tests in
  {
    tests;
    bsim;
    cov_solutions = cov.Cover.solutions;
    bsat_solutions = bsat.Bsat.solutions;
  }

let version = "1.0.0"

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
