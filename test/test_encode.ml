(* Tests for the CNF encodings: Tseitin consistency, cardinality counter,
   and the muxed diagnosis instance of Figure 2. *)

module C = Netlist.Circuit
module Lit = Sat.Lit

(* ---------- Tseitin ---------- *)

(* One plain circuit copy ({!Encode.Tseitin.copy}, as the diagnosis
   instances build it) over fresh input variables that unit clauses pin
   to [vector]; returns the gate-id -> variable map. *)
let pinned_copy solver c vector =
  let e = Encode.Emit.of_solver solver in
  let inputs = Array.map (fun _ -> e.Encode.Emit.fresh ()) vector in
  Array.iteri (fun i v -> e.Encode.Emit.clause [ Lit.make v vector.(i) ]) inputs;
  Encode.Tseitin.copy e c ~inputs (fun _ -> Encode.Tseitin.Plain)

(* With inputs pinned, the encoding must have exactly the simulation
   values as its unique model restricted to gate variables. *)
let test_tseitin_matches_simulation () =
  let rng = Random.State.make [| 1 |] in
  for seed = 0 to 9 do
    let c =
      Netlist.Generators.random_dag ~seed ~num_inputs:6 ~num_gates:40
        ~num_outputs:3 ()
    in
    let vector = Array.init 6 (fun _ -> Random.State.bool rng) in
    let solver = Sat.Solver.create () in
    let vars = pinned_copy solver c vector in
    (match Sat.Solver.solve solver with
    | Sat.Solver.Unsat -> Alcotest.fail "consistency must be satisfiable"
    | Sat.Solver.Sat -> ());
    let sim = Sim.Simulator.eval c vector in
    Array.iteri
      (fun g v ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d gate %d" seed g)
          sim.(g)
          (Sat.Solver.value solver v))
      vars
  done

let test_tseitin_forces_contradiction () =
  (* pin inputs and additionally force an output to the wrong value *)
  let c = Netlist.Generators.parity_tree 4 in
  let vector = [| true; false; true; true |] in
  let solver = Sat.Solver.create () in
  let vars = pinned_copy solver c vector in
  let out = c.C.outputs.(0) in
  let correct = (Sim.Simulator.outputs c vector).(0) in
  Sat.Solver.add_clause solver [ Lit.make vars.(out) (not correct) ];
  Alcotest.(check bool) "unsat" true (Sat.Solver.solve solver = Sat.Solver.Unsat)

let test_tseitin_all_kinds () =
  (* one gate of each kind with 3 fanins where legal, compare against
     Gate.eval on all 8 input combinations via solving with assumptions *)
  List.iter
    (fun kind ->
      let arity = if Netlist.Gate.arity_ok kind 3 then 3 else 1 in
      let solver = Sat.Solver.create () in
      let e = Encode.Emit.of_solver solver in
      let ins = Array.init arity (fun _ -> e.Encode.Emit.fresh ()) in
      let out = e.Encode.Emit.fresh () in
      Encode.Tseitin.gate_clauses e ~out:(Lit.pos out) kind
        (Array.map Lit.pos ins);
      for combo = 0 to (1 lsl arity) - 1 do
        let bits = Array.init arity (fun i -> (combo lsr i) land 1 = 1) in
        let expected = Netlist.Gate.eval kind bits in
        let assumptions =
          Array.to_list (Array.mapi (fun i v -> Lit.make v bits.(i)) ins)
        in
        (match Sat.Solver.solve ~assumptions solver with
        | Sat.Solver.Unsat -> Alcotest.fail "gate cnf unsat"
        | Sat.Solver.Sat ->
            Alcotest.(check bool)
              (Printf.sprintf "%s %d" (Netlist.Gate.to_string kind) combo)
              expected
              (Sat.Solver.value solver out));
        (* and the wrong output value must be infeasible *)
        let assumptions = Lit.make out (not expected) :: assumptions in
        Alcotest.(check bool)
          (Printf.sprintf "%s %d neg" (Netlist.Gate.to_string kind) combo)
          true
          (Sat.Solver.solve ~assumptions solver = Sat.Solver.Unsat)
      done)
    Netlist.Gate.all_logic

(* ---------- cardinality ---------- *)

let popcount m n =
  let rec go i acc = if i >= n then acc
    else go (i + 1) (acc + ((m lsr i) land 1)) in
  go 0 0

let test_cardinality_bounds () =
  (* n free literals, check every bound b: number of models with <= b
     true equals sum of binomials *)
  let n = 5 in
  for b = 0 to n do
    let solver = Sat.Solver.create () in
    let e = Encode.Emit.of_solver solver in
    let vars = List.init n (fun _ -> e.Encode.Emit.fresh ()) in
    let counter =
      Encode.Cardinality.encode_at_most e
        ~lits:(List.map Lit.pos vars)
        ~max_bound:n
    in
    let assumptions = Encode.Cardinality.bound_assumption counter b in
    (* enumerate models projected on the n vars *)
    let count = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      match Sat.Solver.solve ~assumptions solver with
      | Sat.Solver.Unsat -> continue_ := false
      | Sat.Solver.Sat ->
          incr count;
          let block =
            List.map
              (fun v -> Lit.make v (not (Sat.Solver.value solver v)))
              vars
          in
          Sat.Solver.add_clause solver block
    done;
    let expected = ref 0 in
    for m = 0 to (1 lsl n) - 1 do
      if popcount m n <= b then incr expected
    done;
    Alcotest.(check int) (Printf.sprintf "at-most-%d" b) !expected !count
  done

let test_cardinality_exactly () =
  let n = 5 in
  for b = 0 to n do
    let solver = Sat.Solver.create () in
    let e = Encode.Emit.of_solver solver in
    let vars = List.init n (fun _ -> e.Encode.Emit.fresh ()) in
    let counter =
      Encode.Cardinality.encode_at_most e
        ~lits:(List.map Lit.pos vars)
        ~max_bound:n
    in
    let assumptions = Encode.Cardinality.exactly_bound counter b in
    let count = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      match Sat.Solver.solve ~assumptions solver with
      | Sat.Solver.Unsat -> continue_ := false
      | Sat.Solver.Sat ->
          let truth = List.map (Sat.Solver.value solver) vars in
          Alcotest.(check int) "model has exactly b true" b
            (List.length (List.filter Fun.id truth));
          incr count;
          let block =
            List.map
              (fun v -> Lit.make v (not (Sat.Solver.value solver v)))
              vars
          in
          Sat.Solver.add_clause solver block
    done;
    let expected = ref 0 in
    for m = 0 to (1 lsl n) - 1 do
      if popcount m n = b then incr expected
    done;
    Alcotest.(check int) (Printf.sprintf "exactly-%d" b) !expected !count
  done

let test_cardinality_degenerate () =
  (* n = 0: every bound is vacuous, at-least-1 is impossible *)
  let solver = Sat.Solver.create () in
  let e = Encode.Emit.of_solver solver in
  let counter = Encode.Cardinality.encode_at_most e ~lits:[] ~max_bound:0 in
  Alcotest.(check bool) "n=0, b=0 satisfiable" true
    (Sat.Solver.solve
       ~assumptions:(Encode.Cardinality.bound_assumption counter 0)
       solver
    = Sat.Solver.Sat);
  Alcotest.(check bool) "n=0, exactly 0 satisfiable" true
    (Sat.Solver.solve
       ~assumptions:(Encode.Cardinality.exactly_bound counter 0)
       solver
    = Sat.Solver.Sat);
  Alcotest.(check bool) "n=0, at least 1 unsat" true
    (Sat.Solver.solve
       ~assumptions:(Encode.Cardinality.at_least_assumption counter 1)
       solver
    = Sat.Solver.Unsat);
  (* n = 1: b=0 forces the literal false, b=n is vacuous *)
  let solver = Sat.Solver.create () in
  let e = Encode.Emit.of_solver solver in
  let v = e.Encode.Emit.fresh () in
  let counter =
    Encode.Cardinality.encode_at_most e ~lits:[ Lit.pos v ] ~max_bound:1
  in
  let zero = Encode.Cardinality.bound_assumption counter 0 in
  (match Sat.Solver.solve ~assumptions:zero solver with
  | Sat.Solver.Unsat -> Alcotest.fail "b=0 must stay satisfiable"
  | Sat.Solver.Sat ->
      Alcotest.(check bool) "b=0 forces the literal off" false
        (Sat.Solver.value solver v));
  Alcotest.(check bool) "b=0 plus the literal is unsat" true
    (Sat.Solver.solve ~assumptions:(Lit.pos v :: zero) solver
    = Sat.Solver.Unsat);
  Alcotest.(check bool) "b=n accepts the literal on" true
    (Sat.Solver.solve
       ~assumptions:(Lit.pos v :: Encode.Cardinality.bound_assumption counter 1)
       solver
    = Sat.Solver.Sat)

let test_cardinality_overcount_unsat () =
  let solver = Sat.Solver.create () in
  let e = Encode.Emit.of_solver solver in
  let vars = List.init 3 (fun _ -> e.Encode.Emit.fresh ()) in
  let counter =
    Encode.Cardinality.encode_at_most e
      ~lits:(List.map Lit.pos vars)
      ~max_bound:3
  in
  (* at least 4 of 3 literals: canned false assumption *)
  let assumptions = Encode.Cardinality.at_least_assumption counter 4 in
  Alcotest.(check bool) "unsat" true
    (Sat.Solver.solve ~assumptions solver = Sat.Solver.Unsat)

(* ---------- muxed instance ---------- *)

let faulty_adder () =
  let golden = Netlist.Generators.ripple_carry_adder 4 in
  let faulty, errors = Sim.Injector.inject ~seed:77 ~num_errors:1 golden in
  let tests =
    Sim.Testgen.generate ~seed:78 ~max_vectors:4096 ~wanted:6 ~golden ~faulty
  in
  (faulty, errors, tests)

let test_muxed_no_selection_unsat () =
  (* with zero corrections allowed, the instance contradicts the pinned
     correct outputs *)
  let faulty, _, tests = faulty_adder () in
  let solver = Sat.Solver.create () in
  let inst = Encode.Muxed.build ~max_k:1 solver faulty tests in
  Alcotest.(check bool) "k=0 unsat" true
    (Encode.Muxed.solve_at_most inst 0 = Sat.Solver.Solved Sat.Solver.Unsat)

let test_muxed_error_site_satisfies () =
  let faulty, errors, tests = faulty_adder () in
  let sites = Sim.Fault.sites errors in
  let solver = Sat.Solver.create () in
  let inst = Encode.Muxed.build ~max_k:1 solver faulty tests in
  let extra = List.map (Encode.Muxed.select_lit inst) sites in
  Alcotest.(check bool) "selecting the real error site works" true
    (Encode.Muxed.solve_at_most ~extra inst 1
    = Sat.Solver.Solved Sat.Solver.Sat);
  Alcotest.(check (list int)) "solution is the site" sites
    (Encode.Muxed.solution inst)

let test_muxed_correction_witness () =
  (* the extracted correction values, forced in simulation, rectify each
     test *)
  let faulty, _, tests = faulty_adder () in
  let solver = Sat.Solver.create () in
  let inst = Encode.Muxed.build ~max_k:2 solver faulty tests in
  match Encode.Muxed.solve_at_most inst 2 with
  | Sat.Solver.Solved Sat.Solver.Unsat | Sat.Solver.Unknown ->
      Alcotest.fail "expected a correction"
  | Sat.Solver.Solved Sat.Solver.Sat ->
      let sol = Encode.Muxed.solution inst in
      List.iteri
        (fun ti t ->
          let forced =
            List.map
              (fun g -> (g, Encode.Muxed.correction_value inst ~test:ti ~gate:g))
              sol
          in
          let base = Sim.Simulator.eval faulty t.Sim.Testgen.vector in
          let fixed =
            Sim.Event_sim.output_after faulty base forced t.Sim.Testgen.po_index
          in
          Alcotest.(check bool) (Printf.sprintf "test %d rectified" ti)
            t.Sim.Testgen.expected fixed)
        tests

let test_muxed_rejects_input_candidates () =
  let faulty, _, tests = faulty_adder () in
  let solver = Sat.Solver.create () in
  Alcotest.(check bool) "inputs rejected" true
    (match
       Encode.Muxed.build
         ~candidates:[ faulty.C.inputs.(0) ]
         ~max_k:1 solver faulty tests
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_muxed_export_dimacs () =
  let faulty, _, tests = faulty_adder () in
  (* the exported instance must be equisatisfiable with the live one and
     its select variables must decode to a valid correction *)
  let dimacs = Encode.Muxed.export_dimacs ~k:1 faulty tests in
  let cnf = Sat.Cnf.of_dimacs dimacs in
  let solver = Sat.Solver.create () in
  Sat.Solver.add_cnf solver cnf;
  (match Sat.Solver.solve solver with
  | Sat.Solver.Unsat -> Alcotest.fail "exported instance should be SAT"
  | Sat.Solver.Sat ->
      let num_cands = Array.length (C.gate_ids faulty) in
      let selected =
        List.filteri (fun v _ -> v < num_cands)
          (Array.to_list (Sat.Solver.model solver))
        |> List.mapi (fun i b -> (i, b))
        |> List.filter_map (fun (i, b) ->
               if b then Some (C.gate_ids faulty).(i) else None)
      in
      Alcotest.(check int) "one select" 1 (List.length selected);
      Alcotest.(check bool) "decoded selection is a valid correction" true
        (Diagnosis.Validity.check_sim faulty tests selected));
  (* freezing an impossible bound must give UNSAT: k=0 is encoded by
     exporting with an empty... instead check equisatisfiability against
     the live instance at k=1 for a 2-error workload that needs 2 *)
  let golden = Netlist.Generators.parity_tree 6 in
  let faulty2 = C.with_kinds golden [ (golden.C.outputs.(0), Netlist.Gate.Xnor) ] in
  let tests2 =
    Sim.Testgen.generate ~seed:5 ~max_vectors:256 ~wanted:4 ~golden
      ~faulty:faulty2
  in
  let dimacs2 = Encode.Muxed.export_dimacs ~k:1 faulty2 tests2 in
  let s2 = Sat.Solver.create () in
  Sat.Solver.add_cnf s2 (Sat.Cnf.of_dimacs dimacs2);
  let live = Sat.Solver.create () in
  let inst = Encode.Muxed.build ~max_k:1 live faulty2 tests2 in
  Alcotest.(check bool) "equisatisfiable" true
    (Sat.Solver.Solved (Sat.Solver.solve s2)
    = Encode.Muxed.solve_at_most inst 1)

(* ---------- CNF identity ---------- *)

(* The exact clause stream of the diagnosis instances: a change to the
   encoders that moves a variable or reorders a clause fails here, so a
   refactor that claims the same CNF has to produce the same bytes. *)
let cnf_digest dimacs = Digest.to_hex (Digest.string dimacs)

(* rca8, one error, seed 3, k = 1, m = 8: the CLI's export-cnf workload *)
let test_cnf_identity_flat () =
  let golden = Netlist.Generators.ripple_carry_adder 8 in
  let faulty, _ = Sim.Injector.inject ~seed:3 ~num_errors:1 golden in
  let tests =
    Sim.Testgen.generate ~seed:4 ~max_vectors:(1 lsl 16) ~wanted:8 ~golden
      ~faulty
  in
  Alcotest.(check string) "rca8 digest" "2b87b78098e9178b45421cd56f64a9b4"
    (cnf_digest (Encode.Muxed.export_dimacs ~k:1 faulty tests))

(* s27 unrolled over four frames, every frame copy of a core gate in its
   gate's group, as sequential diagnosis builds its instance *)
let test_cnf_identity_grouped () =
  let module Seq = Sim.Sequential in
  let s =
    Seq.of_parsed
      (Netlist.Bench_format.parse_string ~name:"s27"
         Bench_suite.Embedded.s27_text)
  in
  let faulty_comb, _ = Sim.Injector.inject ~seed:3 ~num_errors:1 s.Seq.comb in
  let faulty = Seq.with_comb s faulty_comb in
  let tests =
    Sim.Seq_testgen.generate ~seed:4 ~length:4 ~max_sequences:2000 ~wanted:6
      ~golden:s ~faulty
  in
  let u = Seq.unroll faulty ~frames:4 in
  let comb_test (t : Sim.Seq_testgen.test) =
    let vector = Array.make (4 * Seq.num_inputs faulty) false in
    Array.iteri
      (fun f row ->
        Array.iteri (fun pi v -> vector.(u.Seq.input_of ~frame:f ~pi) <- v) row)
      t.Sim.Seq_testgen.sequence;
    {
      Sim.Testgen.vector;
      po_index =
        u.Seq.output_of ~frame:t.Sim.Seq_testgen.cycle
          ~po:t.Sim.Seq_testgen.po_index;
      expected = t.Sim.Seq_testgen.expected;
    }
  in
  let groups =
    Array.to_list (C.gate_ids faulty.Seq.comb)
    |> List.map (fun g -> List.init 4 (fun f -> u.Seq.gate_of ~frame:f g))
  in
  Alcotest.(check int) "six sequences" 6 (List.length tests);
  Alcotest.(check string) "s27 x4 digest" "5465a23b309f878fc206d74c0de855ac"
    (cnf_digest
       (Encode.Muxed.export_dimacs ~groups ~k:1 u.Seq.circuit
          (List.map comb_test tests)))

(* the first vectors a directed twin enumerates on an alu4 pair: its
   variable order and clause order decide which model comes first *)
let test_cnf_identity_twin () =
  let golden = Netlist.Generators.alu 4 in
  let faulty, errors = Sim.Injector.inject ~seed:77 ~num_errors:1 golden in
  let site = List.hd (Sim.Fault.sites errors) in
  let other =
    List.find (fun g -> g <> site) (Array.to_list (C.gate_ids faulty))
  in
  let d =
    Encode.Twin.build_directed ~golden (Sat.Solver.create ()) faulty
      ~survivor:[ site ] ~victim:[ other ]
  in
  let bits v =
    String.init (Array.length v) (fun i -> if v.(i) then '1' else '0')
  in
  let rec collect n =
    if n = 0 then []
    else
      match Encode.Twin.next_vector d with
      | Encode.Twin.Vector v -> bits v :: collect (n - 1)
      | Encode.Twin.Inseparable -> [ "inseparable" ]
      | Encode.Twin.Unknown -> [ "unknown" ]
  in
  Alcotest.(check (list string))
    "first five vectors"
    [ "0000100010"; "0000000010"; "0100000010"; "0100010010"; "0000010010" ]
    (collect 5)

(* ---------- miter counterexamples ---------- *)

(* every counterexample triple is a real failing test of the
   implementation (resimulation oracle), carries the specification's
   value as its expectation, and the witness vectors are pairwise
   distinct (each one is blocked before the next solve) *)
let prop_miter_counterexamples =
  QCheck.Test.make ~count:50
    ~name:"miter counterexamples are distinct failing tests of the impl"
    QCheck.(pair (int_bound 1000) (int_range 1 2))
    (fun (seed, num_errors) ->
      let spec =
        Netlist.Generators.random_dag ~seed ~num_inputs:6 ~num_gates:30
          ~num_outputs:3 ()
      in
      let impl, _ = Sim.Injector.inject ~seed:(seed + 1) ~num_errors spec in
      let cxs = Encode.Miter.counterexamples ~limit:8 ~spec ~impl () in
      let vectors =
        List.map (fun t -> Array.to_list t.Sim.Testgen.vector) cxs
      in
      List.length (List.sort_uniq compare vectors) = List.length vectors
      && List.for_all (Sim.Testgen.fails impl) cxs
      && List.for_all
           (fun t -> Sim.Testgen.response spec t = t.Sim.Testgen.expected)
           cxs)

(* ---------- twin ---------- *)

(* x -> NOT g1 -> NOT g2: flipping g1 to BUF makes {g1} and {g2} equally
   valid single-gate diagnoses that no measurement can ever split, though
   each freed gate spans both output values — the directed twin proves
   them tied *)
let notnot_pair () =
  let b = Netlist.Builder.create ~name:"notnot" in
  let x = Netlist.Builder.input b in
  let g1 = Netlist.Builder.not_ b x in
  let g2 = Netlist.Builder.not_ b g1 in
  Netlist.Builder.output b g2;
  let golden = Netlist.Builder.build b in
  let faulty = C.with_kinds golden [ (g1, Netlist.Gate.Buf) ] in
  (golden, faulty, g1, g2)

let test_twin_directed_inseparable_chain () =
  let golden, faulty, g1, g2 = notnot_pair () in
  List.iter
    (fun (sv, vt) ->
      let s = Sat.Solver.create () in
      let d =
        Encode.Twin.build_directed ~golden s faulty ~survivor:[ sv ]
          ~victim:[ vt ]
      in
      Alcotest.(check bool) "directed inseparable" true
        (Encode.Twin.next_vector d = Encode.Twin.Inseparable))
    [ (g1, g2); (g2, g1) ]

(* the directed guarantee, against the resimulation oracle: a model is a
   failing vector whose triples the victim cannot explain and the
   survivor can *)
let test_twin_directed_guaranteed_kill () =
  let checked = ref 0 in
  for seed = 77 to 90 do
    let golden = Netlist.Generators.alu 4 in
    let faulty, _ = Sim.Injector.inject ~seed ~num_errors:1 golden in
    let tests =
      Sim.Testgen.generate ~seed:(seed + 1) ~max_vectors:4096 ~wanted:6
        ~golden ~faulty
    in
    let sols =
      (Diagnosis.Bsat.diagnose ~k:1 faulty tests).Diagnosis.Bsat.solutions
    in
    List.iter
      (fun survivor ->
        List.iter
          (fun victim ->
            if survivor <> victim then begin
              let s = Sat.Solver.create () in
              let d =
                Encode.Twin.build_directed ~golden s faulty ~survivor ~victim
              in
              match Encode.Twin.next_vector d with
              | Encode.Twin.Vector v ->
                  incr checked;
                  let triples =
                    Sim.Testgen.from_vectors ~golden ~faulty [ v ]
                  in
                  Alcotest.(check bool) "vector is a failing test" true
                    (triples <> []);
                  Alcotest.(check bool) "victim killed" false
                    (Diagnosis.Validity.check_sat faulty triples victim);
                  Alcotest.(check bool) "survivor survives" true
                    (Diagnosis.Validity.check_sat faulty triples survivor)
              | Encode.Twin.Inseparable -> ()
              | Encode.Twin.Unknown -> Alcotest.fail "no budget was given"
            end)
          sols)
      sols
  done;
  Alcotest.(check bool) "at least one directed kill exercised" true
    (!checked > 0)

let test_twin_certified () =
  let golden, faulty, g1, g2 = notnot_pair () in
  let d =
    Encode.Twin.build_directed ~certify:true ~golden (Sat.Solver.create ())
      faulty ~survivor:[ g1 ] ~victim:[ g2 ]
  in
  (match Encode.Twin.next_vector d with
  | Encode.Twin.Inseparable -> ()
  | _ -> Alcotest.fail "chain pair must be inseparable");
  Alcotest.(check int) "directed check" 1 (Encode.Twin.cert_checks d);
  Alcotest.(check (list string)) "directed no failures" []
    (Encode.Twin.cert_failures d)

let test_twin_rejects_invalid () =
  let golden, faulty, g1, _ = notnot_pair () in
  let rejects f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  Alcotest.(check bool) "input site rejected" true
    (rejects (fun () ->
         Encode.Twin.build_directed ~golden (Sat.Solver.create ()) faulty
           ~survivor:[ faulty.C.inputs.(0) ]
           ~victim:[ g1 ]));
  Alcotest.(check bool) "oversized victim rejected" true
    (rejects (fun () ->
         Encode.Twin.build_directed ~golden
           (Sat.Solver.create ())
           faulty ~survivor:[ g1 ]
           ~victim:(List.init 11 (fun i -> i + 1))));
  let wide = Netlist.Generators.parity_tree 4 in
  Alcotest.(check bool) "golden arity mismatch rejected" true
    (rejects (fun () ->
         Encode.Twin.build_directed ~golden:wide
           (Sat.Solver.create ())
           faulty ~survivor:[ g1 ] ~victim:[ g1 ]))

let () =
  Alcotest.run "encode"
    [
      ( "tseitin",
        [
          Alcotest.test_case "matches simulation" `Quick
            test_tseitin_matches_simulation;
          Alcotest.test_case "contradiction" `Quick
            test_tseitin_forces_contradiction;
          Alcotest.test_case "all gate kinds" `Quick test_tseitin_all_kinds;
        ] );
      ( "cardinality",
        [
          Alcotest.test_case "at-most bounds" `Quick test_cardinality_bounds;
          Alcotest.test_case "exactly bounds" `Quick test_cardinality_exactly;
          Alcotest.test_case "degenerate n=0/n=1" `Quick
            test_cardinality_degenerate;
          Alcotest.test_case "impossible at-least" `Quick
            test_cardinality_overcount_unsat;
        ] );
      ( "muxed",
        [
          Alcotest.test_case "no selection unsat" `Quick
            test_muxed_no_selection_unsat;
          Alcotest.test_case "error site satisfies" `Quick
            test_muxed_error_site_satisfies;
          Alcotest.test_case "correction witness" `Quick
            test_muxed_correction_witness;
          Alcotest.test_case "inputs rejected" `Quick
            test_muxed_rejects_input_candidates;
          Alcotest.test_case "dimacs export" `Quick test_muxed_export_dimacs;
        ] );
      ( "cnf digest",
        [
          Alcotest.test_case "flat instance" `Quick test_cnf_identity_flat;
          Alcotest.test_case "grouped instance" `Quick
            test_cnf_identity_grouped;
          Alcotest.test_case "directed twin vectors" `Quick
            test_cnf_identity_twin;
        ] );
      ("miter", [ QCheck_alcotest.to_alcotest prop_miter_counterexamples ]);
      ( "twin",
        [
          Alcotest.test_case "directed inseparable chain" `Quick
            test_twin_directed_inseparable_chain;
          Alcotest.test_case "directed guaranteed kill" `Quick
            test_twin_directed_guaranteed_kill;
          Alcotest.test_case "certified answers" `Quick test_twin_certified;
          Alcotest.test_case "invalid arguments" `Quick
            test_twin_rejects_invalid;
        ] );
    ]
