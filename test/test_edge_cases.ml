(* Edge-case and failure-injection tests across all modules: malformed
   inputs, degenerate sizes, boundary parameters. *)

module C = Netlist.Circuit
module G = Netlist.Gate
module B = Netlist.Builder

(* ---------- solver edges ---------- *)

let test_solver_duplicate_and_tautology () =
  let s = Sat.Solver.create () in
  (* duplicate literals collapse; tautologies are dropped *)
  Sat.Solver.add_clause s [ Sat.Lit.pos 0; Sat.Lit.pos 0 ];
  Sat.Solver.add_clause s [ Sat.Lit.pos 1; Sat.Lit.neg_of 1 ];
  Alcotest.(check bool) "sat" true (Sat.Solver.solve s = Sat.Solver.Sat);
  Alcotest.(check bool) "unit propagated" true (Sat.Solver.value s 0)

let test_solver_satisfied_clause_dropped () =
  let s = Sat.Solver.create () in
  Sat.Solver.add_clause s [ Sat.Lit.pos 0 ];
  (* clause already true at root level: must not confuse the solver *)
  Sat.Solver.add_clause s [ Sat.Lit.pos 0; Sat.Lit.pos 1 ];
  Sat.Solver.add_clause s [ Sat.Lit.neg_of 1 ];
  Alcotest.(check bool) "sat" true (Sat.Solver.solve s = Sat.Solver.Sat)

let test_solver_value_without_model () =
  let s = Sat.Solver.create () in
  Sat.Solver.add_clause s [];
  Alcotest.(check bool) "unsat" true (Sat.Solver.solve s = Sat.Solver.Unsat);
  Alcotest.(check bool) "value raises" true
    (match Sat.Solver.value s 0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_solver_phase_hint () =
  let s = Sat.Solver.create () in
  Sat.Solver.ensure_vars s 1;
  (* a completely free variable follows the default phase *)
  Alcotest.(check bool) "sat" true (Sat.Solver.solve s = Sat.Solver.Sat);
  Alcotest.(check bool) "default false" false (Sat.Solver.value s 0);
  let s2 = Sat.Solver.create () in
  Sat.Solver.ensure_vars s2 1;
  Sat.Solver.set_default_phase s2 0 true;
  Alcotest.(check bool) "sat" true (Sat.Solver.solve s2 = Sat.Solver.Sat);
  Alcotest.(check bool) "hinted true" true (Sat.Solver.value s2 0)

let test_solver_unsat_is_sticky () =
  let s = Sat.Solver.create () in
  Sat.Solver.add_clause s [ Sat.Lit.pos 0 ];
  Sat.Solver.add_clause s [ Sat.Lit.neg_of 0 ];
  Alcotest.(check bool) "unsat" true (Sat.Solver.solve s = Sat.Solver.Unsat);
  Sat.Solver.add_clause s [ Sat.Lit.pos 1 ];
  Alcotest.(check bool) "still unsat" true
    (Sat.Solver.solve s = Sat.Solver.Unsat)

let test_solver_many_vars () =
  let s = Sat.Solver.create () in
  (* chain x_i -> x_{i+1}; assert x_0: everything true *)
  let n = 2000 in
  for i = 0 to n - 2 do
    Sat.Solver.add_clause s [ Sat.Lit.neg_of i; Sat.Lit.pos (i + 1) ]
  done;
  Sat.Solver.add_clause s [ Sat.Lit.pos 0 ];
  Alcotest.(check bool) "sat" true (Sat.Solver.solve s = Sat.Solver.Sat);
  Alcotest.(check bool) "chain propagated" true (Sat.Solver.value s (n - 1))

(* ---------- cardinality edges ---------- *)

let test_cardinality_zero_literals () =
  let solver = Sat.Solver.create () in
  let e = Encode.Emit.of_solver solver in
  let counter = Encode.Cardinality.encode_at_most e ~lits:[] ~max_bound:2 in
  Alcotest.(check (list int)) "no assumptions for empty set" []
    (List.map Sat.Lit.to_dimacs (Encode.Cardinality.bound_assumption counter 0));
  Alcotest.(check bool) "at-least 1 of 0 impossible" true
    (Sat.Solver.solve
       ~assumptions:(Encode.Cardinality.at_least_assumption counter 1)
       solver
    = Sat.Solver.Unsat)

(* ---------- circuit / builder edges ---------- *)

let test_empty_circuit () =
  let b = B.create ~name:"empty" in
  let c = B.build b in
  Alcotest.(check int) "size 0" 0 (C.size c);
  Alcotest.(check int) "depth 0" 0 (C.depth c);
  let outs = Sim.Simulator.outputs c [||] in
  Alcotest.(check int) "no outputs" 0 (Array.length outs)

let test_output_is_input () =
  (* OUTPUT(a) where a is INPUT: legal .bench; PT yields an empty set and
     COV consequently proves no gate correction exists *)
  let p =
    Netlist.Bench_format.parse_string ~name:"wire" "INPUT(a)\nOUTPUT(a)\n"
  in
  let c = p.Netlist.Bench_format.circuit in
  let test =
    { Sim.Testgen.vector = [| false |]; po_index = 0; expected = true }
  in
  Alcotest.(check (list int)) "PT empty" []
    (Diagnosis.Path_trace.trace c test);
  let cov = Diagnosis.Cover.diagnose ~k:1 c [ test ] in
  Alcotest.(check (list (list int))) "no covers" []
    cov.Diagnosis.Cover.solutions;
  let bsat = Diagnosis.Bsat.diagnose ~k:1 c [ test ] in
  Alcotest.(check (list (list int))) "no corrections" []
    bsat.Diagnosis.Bsat.solutions

let test_const_gates_roundtrip () =
  let b = B.create ~name:"consts" in
  let one = B.const ~name:"one" b true in
  let zero = B.const ~name:"zero" b false in
  let x = B.input ~name:"x" b in
  let y = B.gate ~name:"y" b G.And [ one; x ] in
  let z = B.gate ~name:"z" b G.Or [ zero; y ] in
  B.output b z;
  let c = B.build b in
  let text = Netlist.Bench_format.to_string c in
  let c2 =
    (Netlist.Bench_format.parse_string ~name:"consts2" text)
      .Netlist.Bench_format.circuit
  in
  Alcotest.(check bool) "same behaviour" true
    (Sim.Simulator.outputs c [| true |] = Sim.Simulator.outputs c2 [| true |])

(* ---------- path trace tie-breaks ---------- *)

let test_pt_random_tie_break_stays_within_all () =
  let c, t = Bench_suite.Paper_circuits.fig5a in
  let all = Diagnosis.Path_trace.trace ~tie_break:Diagnosis.Path_trace.All_inputs c t in
  for seed = 0 to 10 do
    let rng = Random.State.make [| seed |] in
    let r =
      Diagnosis.Path_trace.trace
        ~tie_break:(Diagnosis.Path_trace.Random_input rng) c t
    in
    Alcotest.(check bool) "subset of All_inputs" true
      (List.for_all (fun g -> List.mem g all) r)
  done

(* ---------- diagnosis parameter edges ---------- *)

let faulty_pair () =
  let golden = Netlist.Generators.parity_tree 4 in
  let faulty =
    C.with_kinds golden [ (golden.C.outputs.(0), G.Xnor) ]
  in
  let tests = Sim.Testgen.exhaustive ~golden ~faulty in
  (faulty, List.filteri (fun i _ -> i < 4) tests)

let test_bsat_k_larger_than_gates () =
  let faulty, tests = faulty_pair () in
  let gates = Array.length (C.gate_ids faulty) in
  let r = Diagnosis.Bsat.diagnose ~k:(gates + 5) faulty tests in
  Alcotest.(check bool) "solutions exist" true
    (r.Diagnosis.Bsat.solutions <> []);
  (* every solution is still essential *)
  let check s = Diagnosis.Validity.check_sim faulty tests s in
  List.iter
    (fun s ->
      Alcotest.(check bool) "essential" true
        (Diagnosis.Validity.essential ~check s))
    r.Diagnosis.Bsat.solutions

let test_bsat_max_solutions_truncates () =
  let faulty, tests = faulty_pair () in
  let r = Diagnosis.Bsat.diagnose ~max_solutions:1 ~k:2 faulty tests in
  Alcotest.(check int) "one solution" 1 (List.length r.Diagnosis.Bsat.solutions);
  Alcotest.(check bool) "flagged" true r.Diagnosis.Bsat.truncated

let test_validity_empty_set () =
  let faulty, tests = faulty_pair () in
  Alcotest.(check bool) "empty set invalid on failing tests" false
    (Diagnosis.Validity.check_sim faulty tests []);
  Alcotest.(check bool) "sat engine agrees" false
    (Diagnosis.Validity.check_sat faulty tests [])

let test_validity_large_set_rejected () =
  let faulty, tests = faulty_pair () in
  let many = Array.to_list (C.gate_ids faulty) in
  Alcotest.(check bool) "guard" true
    (List.length many <= 16
    ||
    match Diagnosis.Validity.check_sim faulty tests many with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_metrics_unreachable_distance () =
  (* two disconnected components: distances from one don't reach the other *)
  let b = B.create ~name:"disc" in
  let a = B.input ~name:"a" b in
  let x = B.not_ ~name:"x" b a in
  let c2 = B.input ~name:"c" b in
  let y = B.not_ ~name:"y" b c2 in
  B.output b x;
  B.output b y;
  let c = B.build b in
  let d = Diagnosis.Metrics.distances c ~error_sites:[ x ] in
  Alcotest.(check bool) "y unreachable" true (d.(y) = max_int);
  (* quality computation must not blow up on unreachable gates *)
  let q = Diagnosis.Metrics.solutions_quality c ~error_sites:[ x ] [ [ y ] ] in
  Alcotest.(check int) "count still 1" 1 q.Diagnosis.Metrics.count

(* ---------- sequential edges ---------- *)

let test_unroll_bad_args () =
  let s =
    Bench_suite.Seq_workload.synthetic_machine ~seed:1 ~inputs:8 ~gates:40
      ~outputs:6 ~state:3
  in
  Alcotest.(check bool) "frames 0" true
    (match Sim.Sequential.unroll s ~frames:0 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "bad init" true
    (match Sim.Sequential.unroll ~init:[| true |] s ~frames:2 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_simulate_bad_vector () =
  let s =
    Bench_suite.Seq_workload.synthetic_machine ~seed:1 ~inputs:8 ~gates:40
      ~outputs:6 ~state:3
  in
  Alcotest.(check bool) "wrong width" true
    (match Sim.Sequential.simulate s [ [| true |] ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------- testgen edges ---------- *)

let test_testgen_identical_circuits () =
  let c = Netlist.Generators.parity_tree 4 in
  let tests =
    Sim.Testgen.generate ~seed:1 ~max_vectors:512 ~wanted:8 ~golden:c
      ~faulty:c
  in
  Alcotest.(check (list string)) "no failures between equal circuits" []
    (List.map (Format.asprintf "%a" Sim.Testgen.pp) tests)

let test_exhaustive_too_many_inputs () =
  let c = Netlist.Generators.random_dag ~seed:1 ~num_inputs:24 ~num_gates:30
      ~num_outputs:4 () in
  Alcotest.(check bool) "guard" true
    (match Sim.Testgen.exhaustive ~golden:c ~faulty:c with
    | exception Invalid_argument _ -> true
    | _ -> false)

let () =
  Alcotest.run "edge_cases"
    [
      ( "solver",
        [
          Alcotest.test_case "dup + tautology" `Quick
            test_solver_duplicate_and_tautology;
          Alcotest.test_case "root-satisfied clause" `Quick
            test_solver_satisfied_clause_dropped;
          Alcotest.test_case "value without model" `Quick
            test_solver_value_without_model;
          Alcotest.test_case "phase hint" `Quick test_solver_phase_hint;
          Alcotest.test_case "unsat sticky" `Quick test_solver_unsat_is_sticky;
          Alcotest.test_case "long chain" `Quick test_solver_many_vars;
        ] );
      ( "cardinality",
        [ Alcotest.test_case "zero literals" `Quick
            test_cardinality_zero_literals ] );
      ( "circuit",
        [
          Alcotest.test_case "empty circuit" `Quick test_empty_circuit;
          Alcotest.test_case "output is input" `Quick test_output_is_input;
          Alcotest.test_case "const roundtrip" `Quick
            test_const_gates_roundtrip;
        ] );
      ( "path_trace",
        [ Alcotest.test_case "random tie-break" `Quick
            test_pt_random_tie_break_stays_within_all ] );
      ( "diagnosis",
        [
          Alcotest.test_case "k > gates" `Quick test_bsat_k_larger_than_gates;
          Alcotest.test_case "max_solutions" `Quick
            test_bsat_max_solutions_truncates;
          Alcotest.test_case "empty candidate set" `Quick
            test_validity_empty_set;
          Alcotest.test_case "oversized sim check" `Quick
            test_validity_large_set_rejected;
          Alcotest.test_case "unreachable distances" `Quick
            test_metrics_unreachable_distance;
        ] );
      ( "sequential",
        [
          Alcotest.test_case "unroll bad args" `Quick test_unroll_bad_args;
          Alcotest.test_case "simulate bad vector" `Quick
            test_simulate_bad_vector;
        ] );
      ( "testgen",
        [
          Alcotest.test_case "identical circuits" `Quick
            test_testgen_identical_circuits;
          Alcotest.test_case "exhaustive guard" `Quick
            test_exhaustive_too_many_inputs;
        ] );
    ]
