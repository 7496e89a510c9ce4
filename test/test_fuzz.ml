(* Cross-substrate fuzz properties: each pits two independent
   implementations of the same semantics against each other on random
   circuits, closing the loops between parser/printer, BDD/SAT/simulator
   and the sequential engines. *)

module C = Netlist.Circuit

let circuit_gen =
  QCheck.make
    ~print:(fun (seed, ni, ng) -> Printf.sprintf "seed=%d ni=%d ng=%d" seed ni ng)
    QCheck.Gen.(triple (int_range 0 5000) (int_range 2 10) (int_range 5 120))

let make (seed, ni, ng) =
  Netlist.Generators.random_dag ~seed ~num_inputs:ni ~num_gates:ng
    ~num_outputs:(max 2 (ni / 2)) ()

(* ---------- bench format ---------- *)

let prop_bench_roundtrip_behaviour =
  QCheck.Test.make ~count:50 ~name:"bench writer/parser roundtrip behaviour"
    circuit_gen
    (fun params ->
      let c = make params in
      let text = Netlist.Bench_format.to_string c in
      let c' =
        (Netlist.Bench_format.parse_string ~name:"rt" text)
          .Netlist.Bench_format.circuit
      in
      (* same interface sizes and same responses; signal names are
         preserved so inputs/outputs can be matched by name *)
      C.num_inputs c = C.num_inputs c'
      && C.num_outputs c = C.num_outputs c'
      &&
      let rng = Random.State.make [| 9 |] in
      let idx_by_name =
        let tbl = Hashtbl.create 16 in
        Array.iteri
          (fun i g -> Hashtbl.replace tbl c.C.names.(g) i)
          c.C.inputs;
        tbl
      in
      List.for_all
        (fun _ ->
          let v = Array.init (C.num_inputs c) (fun _ -> Random.State.bool rng) in
          let v' =
            Array.map
              (fun g' -> v.(Hashtbl.find idx_by_name c'.C.names.(g')))
              c'.C.inputs
          in
          let o = Sim.Simulator.outputs c v in
          let o' = Sim.Simulator.outputs c' v' in
          Array.for_all2 ( = )
            (Array.map (fun g -> c.C.names.(g)) c.C.outputs)
            (Array.map (fun g -> c'.C.names.(g)) c'.C.outputs)
          && o = o')
        [ 1; 2; 3; 4 ])

(* ---------- BDD vs simulator vs SAT ---------- *)

let prop_bdd_model_count_matches_exhaustive =
  QCheck.Test.make ~count:30 ~name:"BDD sat_count = exhaustive count"
    circuit_gen
    (fun ((_, ni, _) as params) ->
      QCheck.assume (ni <= 8);
      let c = make params in
      let m = Bdd.manager () in
      let outs = Bdd.of_circuit m c in
      let f = outs.(0) in
      let expected = ref 0 in
      for v = 0 to (1 lsl ni) - 1 do
        let bits = Array.init ni (fun i -> (v lsr i) land 1 = 1) in
        if (Sim.Simulator.outputs c bits).(0) then incr expected
      done;
      int_of_float (Bdd.sat_count m ~num_vars:ni f) = !expected)

let prop_bdd_any_sat_agrees_with_sat_solver =
  QCheck.Test.make ~count:30 ~name:"BDD satisfiability = CDCL satisfiability"
    circuit_gen
    (fun params ->
      let c = make params in
      let m = Bdd.manager () in
      let outs = Bdd.of_circuit m c in
      (* is output 0 satisfiable (can it be 1)? via BDD and via CDCL *)
      let bdd_sat = Bdd.any_sat m outs.(0) <> None in
      let solver = Sat.Solver.create () in
      let vars = Encode.Tseitin.encode (Encode.Emit.of_solver solver) c in
      Sat.Solver.add_clause solver
        [ Sat.Lit.pos vars.(c.C.outputs.(0)) ];
      let cdcl_sat = Sat.Solver.solve solver = Sat.Solver.Sat in
      bdd_sat = cdcl_sat)

(* ---------- sequential completeness on tiny machines ---------- *)

let prop_seq_bsat_complete_tiny =
  QCheck.Test.make ~count:15
    ~name:"sequential BSAT = brute-force over single core gates"
    (QCheck.make
       ~print:(fun s -> Printf.sprintf "seed=%d" s)
       QCheck.Gen.(int_range 0 500))
    (fun seed ->
      let s =
        Bench_suite.Seq_workload.synthetic_machine ~seed ~inputs:6 ~gates:16
          ~outputs:5 ~state:2
      in
      let faulty_comb, _ =
        Sim.Injector.inject ~seed:(seed + 1) ~num_errors:1
          s.Sim.Sequential.comb
      in
      let faulty = Sim.Sequential.with_comb s faulty_comb in
      let tests =
        Sim.Seq_testgen.generate ~seed:(seed + 2) ~length:3
          ~max_sequences:500 ~wanted:4 ~golden:s ~faulty
      in
      QCheck.assume (tests <> []);
      let found =
        (Diagnosis.Seq_diag.diagnose_bsat ~k:1 faulty tests)
          .Diagnosis.Seq_diag.outcome.solutions
        |> List.concat |> List.sort_uniq Int.compare
      in
      (* brute force: every single core gate checked with the sequential
         validity oracle *)
      let expected =
        Array.to_list (C.gate_ids faulty.Sim.Sequential.comb)
        |> List.filter (fun g -> Diagnosis.Seq_diag.check faulty tests [ g ])
        |> List.sort_uniq Int.compare
      in
      found = expected)

(* ---------- xsim monotonicity ---------- *)

let prop_xsim_monotone =
  QCheck.Test.make ~count:40 ~name:"more X sources never un-X an output"
    circuit_gen
    (fun ((seed, ni, _) as params) ->
      let c = make params in
      let rng = Random.State.make [| seed |] in
      let v = Array.init ni (fun _ -> Random.State.bool rng) in
      let gates = C.gate_ids c in
      let g1 = gates.(Random.State.int rng (Array.length gates)) in
      let g2 = gates.(Random.State.int rng (Array.length gates)) in
      let one = Sim.Xsim.with_x_at c v [ g1 ] in
      let two = Sim.Xsim.with_x_at c v [ g1; g2 ] in
      (* Kleene monotonicity: less defined inputs, less defined outputs *)
      Array.for_all
        (fun o ->
          match (one.(o), two.(o)) with
          | Sim.Xsim.X, Sim.Xsim.X -> true
          | Sim.Xsim.X, (Sim.Xsim.F | Sim.Xsim.T) -> false
          | bv, bv' -> Sim.Xsim.equal bv bv' || Sim.Xsim.equal bv' Sim.Xsim.X)
        c.C.outputs)

(* ---------- connection errors are diagnosable and rectifiable ---------- *)

let prop_connection_error_rectifiable =
  QCheck.Test.make ~count:15 ~name:"wrong connections admit a repair"
    (QCheck.make
       ~print:(fun s -> Printf.sprintf "seed=%d" s)
       QCheck.Gen.(int_range 0 500))
    (fun seed ->
      let golden =
        Netlist.Generators.random_dag ~seed:(seed + 900) ~num_inputs:7
          ~num_gates:50 ~num_outputs:4 ()
      in
      let faulty, _ = Sim.Connection.inject ~seed golden in
      let tests =
        Sim.Testgen.generate ~seed:(seed + 1) ~max_vectors:2048 ~wanted:8
          ~golden ~faulty
      in
      QCheck.assume (tests <> []);
      match Diagnosis.Rectify.rectify ~k:2 faulty tests with
      | None ->
          (* acceptable only if no correction of size <= 2 exists *)
          (Diagnosis.Bsat.diagnose ~max_solutions:1 ~k:2 faulty tests)
            .Diagnosis.Bsat.solutions = []
      | Some r ->
          List.for_all
            (fun t -> not (Sim.Testgen.fails r.Diagnosis.Rectify.repaired t))
            tests)

(* ---------- diagnosis containment relations, sequential and parallel --- *)

(* The paper's containment lemmas, with BSIM's path tracing (and so
   COV's candidate sets) at jobs = 1 *and* on 4 domains, so a
   parallel-merge bug that, say, drops a marked gate shows up as a
   broken relation.  On failure the shrinker minimises the workload and the printer dumps the
   offending netlist itself as .bench text, so the counterexample is
   reproducible without rerunning the generator. *)

let diag_workload (seed, ni, ng, p) =
  let golden =
    Netlist.Generators.random_dag ~seed ~num_inputs:ni ~num_gates:ng
      ~num_outputs:(max 2 (ni / 2)) ()
  in
  let faulty, errors =
    Sim.Injector.inject ~seed:(seed + 1) ~num_errors:p golden
  in
  (golden, faulty, errors)

let diag_gen =
  QCheck.make
    ~print:(fun ((seed, ni, ng, p) as params) ->
      let _, faulty, errors = diag_workload params in
      Printf.sprintf "seed=%d ni=%d ng=%d p=%d  injected=[%s]\n%s" seed ni ng
        p
        (String.concat ";"
           (List.map string_of_int (Sim.Fault.sites errors)))
        (Netlist.Bench_format.to_string faulty))
    ~shrink:(fun (seed, ni, ng, p) ->
      QCheck.Iter.(
        map (fun ng -> (seed, ni, ng, p))
          (QCheck.Iter.filter (fun ng -> ng >= 5) (QCheck.Shrink.int ng))
        <+> map (fun p -> (seed, ni, ng, p))
              (QCheck.Iter.filter (fun p -> p >= 1) (QCheck.Shrink.int p))))
    QCheck.Gen.(
      quad (int_range 0 5000) (int_range 3 8) (int_range 8 60) (int_range 1 2))

let prop_containment_relations =
  QCheck.Test.make ~count:40
    ~name:"containment lemmas hold sequentially and in parallel" diag_gen
    (fun ((_, _, _, p) as params) ->
      let golden, faulty, errors = diag_workload params in
      let sites = Sim.Fault.sites errors in
      let tests =
        Sim.Testgen.generate ~seed:17 ~max_vectors:1024 ~wanted:5 ~golden
          ~faulty
      in
      QCheck.assume (tests <> []);
      let check = Diagnosis.Validity.check_sat faulty tests in
      let subset a b = List.for_all (fun x -> List.mem x b) a in
      let bsat = Diagnosis.Bsat.diagnose ~certify:true ~k:p faulty tests in
      (* with certification on, every solver answer behind the
         enumeration was independently verified *)
      bsat.Diagnosis.Bsat.cert_checks > 0
      && bsat.Diagnosis.Bsat.cert_failures = []
      (* Lemma 1: every BSAT solution is a valid correction *)
      && List.for_all check bsat.Diagnosis.Bsat.solutions
      && ((not (check sites))
         || List.exists (fun s -> subset s sites) bsat.Diagnosis.Bsat.solutions)
      && List.for_all
        (fun jobs ->
          let bsim = Diagnosis.Bsim.diagnose ~jobs faulty tests in
          let cov = Diagnosis.Cover.diagnose ~jobs ~k:p faulty tests in
          (* COV covers are drawn from the BSIM candidate union *)
          List.for_all
               (fun s -> subset s bsim.Diagnosis.Bsim.union)
               cov.Diagnosis.Cover.solutions
          (* Lemma 3 (completeness): every valid cover, like the injected
             error itself above, contains an essential BSAT solution *)
          && List.for_all
               (fun cover ->
                 (not (check cover))
                 || List.exists
                      (fun s -> subset s cover)
                      bsat.Diagnosis.Bsat.solutions)
               cov.Diagnosis.Cover.solutions)
        [ 1; 4 ])

(* An uncertified BSAT run adds a Lemma 1 clause for every candidate
   that is no single correction; a certified run adds none.  The clauses
   are implied by the instance, so both runs find the same solutions
   with the same solver calls, level 1 included. *)
let prop_lemma1_clauses_transparent =
  QCheck.Test.make ~count:30
    ~name:"Lemma 1 clauses: uncertified BSAT = certified BSAT" diag_gen
    (fun params ->
      let golden, faulty, _ = diag_workload params in
      let tests =
        Sim.Testgen.generate ~seed:17 ~max_vectors:1024 ~wanted:5 ~golden
          ~faulty
      in
      QCheck.assume (tests <> []);
      List.for_all
        (fun k ->
          let plain = Diagnosis.Bsat.diagnose ~k faulty tests in
          let certified =
            Diagnosis.Bsat.diagnose ~certify:true ~k faulty tests
          in
          plain.solutions = certified.solutions
          && plain.truncated = certified.truncated
          && plain.solver_calls = certified.solver_calls
          && certified.cert_failures = [])
        [ 1; 2; 3 ])

(* The correction multiplexer is encoded as select-guarded gate clauses:
   an unselected gate's copy variable must equal its gate function, a
   selected gate's copy variable is the free correction value.  Every
   model the instance yields is read back against the simulator — the
   unselected gates are consistent, and the selected gates forced to
   their correction values rectify every test — and the guard must not
   cost a solution: every simulation-valid single and the injected site
   set are satisfiable with their selects assumed. *)
let prop_guarded_mux_models =
  QCheck.Test.make ~count:30
    ~name:"guarded muxes: models are consistent, rectify and are complete"
    diag_gen (fun params ->
      let golden, faulty, errors = diag_workload params in
      let sites = Sim.Fault.sites errors in
      let tests =
        Sim.Testgen.generate ~seed:17 ~max_vectors:1024 ~wanted:5 ~golden
          ~faulty
      in
      QCheck.assume (tests <> []);
      let model_ok inst =
        let sol = Encode.Muxed.solution inst in
        let value ti g = Encode.Muxed.gate_value inst ~test:ti ~gate:g in
        List.for_all
          (fun (ti, (t : Sim.Testgen.test)) ->
            Array.for_all
              (fun g ->
                List.mem g sol
                || Netlist.Gate.eval faulty.C.kinds.(g)
                     (Array.map (value ti) faulty.C.fanins.(g))
                   = value ti g)
              (C.gate_ids faulty)
            &&
            let forced =
              List.map
                (fun g ->
                  (g, Encode.Muxed.correction_value inst ~test:ti ~gate:g))
                sol
            in
            Sim.Event_sim.output_after faulty
              (Sim.Simulator.eval faulty t.vector)
              forced t.po_index
            = t.expected)
          (List.mapi (fun ti t -> (ti, t)) tests)
      in
      let sat_with inst gates k =
        let extra = List.map (Encode.Muxed.select_lit inst) gates in
        Encode.Muxed.solve_at_most ~extra inst k
        = Sat.Solver.Solved Sat.Solver.Sat
        && model_ok inst
      in
      let raises_not_found f =
        match f () with exception Not_found -> true | _ -> false
      in
      (* a restricted instance: the non-candidates have no correction *)
      (let inst =
         Encode.Muxed.build ~candidates:sites ~max_k:(List.length sites)
           (Sat.Solver.create ()) faulty tests
       in
       sat_with inst sites (List.length sites)
       && Array.for_all
            (fun g ->
              List.mem g sites
              || raises_not_found (fun () ->
                     Encode.Muxed.correction_var inst ~test:0 ~gate:g))
            (Array.init (C.size faulty) Fun.id))
      && List.for_all
           (fun k ->
             let inst =
               Encode.Muxed.build ~max_k:k (Sat.Solver.create ()) faulty tests
             in
             List.for_all
               (fun g -> sat_with inst [ g ] 1)
               (Diagnosis.Validity.singles faulty tests)
             && (List.length sites > k || sat_with inst sites k)
             &&
             (* enumerate: every model up to a cap, each one blocked *)
             let rec enumerate n =
               n = 0
               ||
               match Encode.Muxed.solve_at_most inst k with
               | Sat.Solver.Solved Sat.Solver.Unsat -> true
               | Sat.Solver.Unknown -> false
               | Sat.Solver.Solved Sat.Solver.Sat ->
                   model_ok inst
                   && begin
                        Encode.Muxed.block inst (Encode.Muxed.solution inst);
                        enumerate (n - 1)
                      end
             in
             enumerate 20)
           [ 1; 2; 3 ])

(* The hitting-set engine against three independent referees: BSAT's
   direct enumeration, a brute-force subset oracle on the smaller
   instances, and its own budget-truncated runs — under both expansion
   heuristics, with every solver answer certified.
   Reuses the netlist-dumping shrinker above, so a counterexample prints
   as reproducible .bench text. *)

let prop_hitting_differential =
  QCheck.Test.make ~count:25
    ~name:"hitting differential: BSAT, brute force, budgets" diag_gen
    (fun ((_, _, ng, p) as params) ->
      let golden, faulty, _ = diag_workload params in
      let tests =
        Sim.Testgen.generate ~seed:17 ~max_vectors:1024 ~wanted:5 ~golden
          ~faulty
      in
      QCheck.assume (tests <> []);
      let bsat =
        Diagnosis.Solutions.canonical
          (Diagnosis.Bsat.diagnose ~k:p faulty tests).Diagnosis.Bsat.solutions
      in
      List.for_all
        (fun heuristic ->
          let r =
            Diagnosis.Hitting.diagnose ~heuristic ~certify:true ~k:p faulty
              tests
          in
          r.Diagnosis.Hitting.outcome.solutions = bsat
          && r.Diagnosis.Hitting.outcome.cert_failures = []
          && not r.Diagnosis.Hitting.outcome.truncated)
        [ Diagnosis.Hitting.Bfs; Diagnosis.Hitting.Greedy ]
      && (ng > 25
         ||
         (* brute force: all subsets up to size p, valid and essential *)
         let gates = Array.to_list (C.gate_ids faulty) in
         let check s = Diagnosis.Validity.check_sim faulty tests s in
         let subsets_1 = List.map (fun g -> [ g ]) gates in
         let subsets_2 =
           if p < 2 then []
           else
             List.concat_map
               (fun g ->
                 List.filter_map
                   (fun h -> if h > g then Some [ g; h ] else None)
                   gates)
               gates
         in
         let expected =
           List.filter check (subsets_1 @ subsets_2)
           |> List.filter (fun s -> Diagnosis.Validity.essential ~check s)
           |> Diagnosis.Solutions.canonical
         in
         bsat = expected)
      &&
      (* a starved budget yields a subset of the full enumeration: the
         budget stops the search, it must not steer it *)
      let budget = Sat.Budget.create ~conflicts:8 () in
      let r = Diagnosis.Hitting.diagnose ~budget ~k:p faulty tests in
      List.for_all (fun s -> List.mem s bsat) r.Diagnosis.Hitting.outcome.solutions)

let () =
  Alcotest.run "fuzz"
    [
      ( "cross-substrate",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_bench_roundtrip_behaviour;
            prop_bdd_model_count_matches_exhaustive;
            prop_bdd_any_sat_agrees_with_sat_solver;
            prop_seq_bsat_complete_tiny;
            prop_xsim_monotone;
            prop_connection_error_rectifiable;
          ] );
      ( "containment",
        List.map QCheck_alcotest.to_alcotest [ prop_containment_relations ] );
      ( "hitting",
        List.map QCheck_alcotest.to_alcotest [ prop_hitting_differential ] );
      ( "lemma 1",
        List.map QCheck_alcotest.to_alcotest
          [ prop_lemma1_clauses_transparent ] );
      ( "guarded muxes",
        List.map QCheck_alcotest.to_alcotest [ prop_guarded_mux_models ] );
    ]
