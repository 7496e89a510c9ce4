(* Tests for the diagnosis approaches.  The paper's formal content —
   Lemmas 1-4 and Theorems 1-2 — is encoded directly: on the Figure 5
   circuits as unit tests and on random faulty circuits as properties. *)

module C = Netlist.Circuit
module PT = Diagnosis.Path_trace

let sorted = List.sort Int.compare
let names c gs = List.map (fun g -> c.C.names.(g)) gs

(* a random faulty-circuit workload for property tests *)
let workload seed p =
  let golden =
    Netlist.Generators.random_dag ~seed ~num_inputs:8 ~num_gates:60
      ~num_outputs:4 ()
  in
  let faulty, errors = Sim.Injector.inject ~seed:(seed + 1) ~num_errors:p golden in
  let tests =
    Sim.Testgen.generate ~seed:(seed + 2) ~max_vectors:4096 ~wanted:8
      ~golden ~faulty
  in
  (golden, faulty, errors, tests)

(* one incremental call's outcome *)
let inc_solve ?max_solutions ?budget inc =
  (Diagnosis.Incremental.solutions ?max_solutions ?budget inc)
    .Diagnosis.Incremental.outcome

let workload_gen =
  QCheck.make
    ~print:(fun (s, p) -> Printf.sprintf "seed=%d p=%d" s p)
    QCheck.Gen.(pair (int_range 0 5000) (int_range 1 3))

(* ---------- path tracing ---------- *)

let test_pt_fig5a_marks () =
  let c, t = Bench_suite.Paper_circuits.fig5a in
  let marked = PT.trace c t in
  Alcotest.(check (list string)) "marks A,B,D" [ "A"; "B"; "D" ]
    (names c (sorted marked));
  (* the Last_input tie break yields the other sensitized path *)
  let marked' = PT.trace ~tie_break:PT.Last_input c t in
  Alcotest.(check (list string)) "marks A,C,D" [ "A"; "C"; "D" ]
    (names c (sorted marked'))

let test_pt_fig5b_marks () =
  let c, t = Bench_suite.Paper_circuits.fig5b in
  let marked = PT.trace c t in
  Alcotest.(check (list string)) "marks A,C,D,E (no B)" [ "A"; "C"; "D"; "E" ]
    (List.sort compare (names c marked))

let test_pt_all_inputs_superset () =
  let c, t = Bench_suite.Paper_circuits.fig5a in
  let first = PT.trace c t in
  let all = PT.trace ~tie_break:PT.All_inputs c t in
  Alcotest.(check bool) "All_inputs is a superset" true
    (List.for_all (fun g -> List.mem g all) first);
  Alcotest.(check (list string)) "superset marks A,B,C,D"
    [ "A"; "B"; "C"; "D" ] (names c (sorted all))

let test_pt_marks_erroneous_output_gate () =
  let _, faulty, _, tests = workload 11 1 in
  List.iter
    (fun t ->
      let out_gate = faulty.C.outputs.(t.Sim.Testgen.po_index) in
      if not (C.is_input faulty out_gate) then
        Alcotest.(check bool) "output gate marked" true
          (List.mem out_gate (PT.trace faulty t)))
    tests

let prop_pt_single_error_site_marked =
  QCheck.Test.make ~count:60
    ~name:"PT marks the actual error site (single error)" workload_gen
    (fun (seed, _) ->
      let _, faulty, errors, tests = workload seed 1 in
      QCheck.assume (tests <> []);
      let site = List.hd (Sim.Fault.sites errors) in
      List.for_all (fun t -> List.mem site (PT.trace faulty t)) tests)

(* ---------- BSIM ---------- *)

let test_bsim_counts () =
  let c, t = Bench_suite.Paper_circuits.fig5a in
  let r = Diagnosis.Bsim.diagnose c [ t; t ] in
  let a = Bench_suite.Paper_circuits.gate c "A" in
  Alcotest.(check int) "A marked twice" 2 r.Diagnosis.Bsim.marks.(a);
  Alcotest.(check int) "max marks" 2 r.Diagnosis.Bsim.max_marks;
  Alcotest.(check (list string)) "union" [ "A"; "B"; "D" ]
    (names c (sorted r.Diagnosis.Bsim.union))

let test_bsim_single_error_intersection () =
  let _, faulty, errors, tests = workload 21 1 in
  let r = Diagnosis.Bsim.diagnose faulty tests in
  let site = List.hd (Sim.Fault.sites errors) in
  Alcotest.(check bool) "site in every Ci" true
    (List.mem site (Diagnosis.Bsim.single_error_candidates r))

let prop_bsim_pigeonhole =
  (* the paper's §2.2 pigeonhole bound M(e) >= m/p presumes every C_i
     contains an error site — guaranteed by PT for single errors (then
     M(e) = m), heuristic for multiple errors.  We test the guaranteed
     case. *)
  QCheck.Test.make ~count:40 ~name:"single error: M(e) = m" workload_gen
    (fun (seed, _) ->
      let _, faulty, errors, tests = workload seed 1 in
      QCheck.assume (tests <> []);
      let r = Diagnosis.Bsim.diagnose faulty tests in
      let site = List.hd (Sim.Fault.sites errors) in
      r.Diagnosis.Bsim.marks.(site) = List.length tests)

(* ---------- validity (effect analysis) ---------- *)

let test_validity_fig5a () =
  let c, t = Bench_suite.Paper_circuits.fig5a in
  let g n = Bench_suite.Paper_circuits.gate c n in
  let check_both expected cands =
    Alcotest.(check bool) "sat engine" expected
      (Diagnosis.Validity.check_sat c [ t ] cands);
    Alcotest.(check bool) "sim engine" expected
      (Diagnosis.Validity.check_sim c [ t ] cands)
  in
  check_both false [ g "B" ];
  check_both false [ g "C" ];
  check_both true [ g "A" ];
  check_both true [ g "D" ];
  check_both true [ g "B"; g "C" ]

let test_validity_essential () =
  let c, t = Bench_suite.Paper_circuits.fig5b in
  let g n = Bench_suite.Paper_circuits.gate c n in
  let check = Diagnosis.Validity.check_sim c [ t ] in
  Alcotest.(check bool) "{A,B} valid" true (check [ g "A"; g "B" ]);
  Alcotest.(check bool) "{A,B} essential" true
    (Diagnosis.Validity.essential ~check [ g "A"; g "B" ]);
  Alcotest.(check bool) "{A,B,C} not essential" false
    (Diagnosis.Validity.essential ~check [ g "A"; g "B"; g "C" ]);
  Alcotest.(check (list int)) "essentialize keeps a valid core" [ g "A"; g "B" ]
    (sorted
       (Sat.Shrink.deletion
          ~test:(fun s ->
            if check s then Sat.Shrink.Holds else Sat.Shrink.Fails)
          [ g "C"; g "A"; g "B" ]
       |> Result.get_ok
       |> fun s -> if check s then s else [ -1 ]))

let prop_validity_engines_agree =
  QCheck.Test.make ~count:40 ~name:"check_sat = check_sim" workload_gen
    (fun (seed, p) ->
      let _, faulty, _, tests = workload seed p in
      QCheck.assume (tests <> []);
      let rng = Random.State.make [| seed |] in
      let gates = C.gate_ids faulty in
      (* a few random candidate sets of size 1..3 *)
      List.for_all
        (fun _ ->
          let size = 1 + Random.State.int rng 3 in
          let cands =
            List.init size (fun _ ->
                gates.(Random.State.int rng (Array.length gates)))
            |> List.sort_uniq Int.compare
          in
          Diagnosis.Validity.check_sat faulty tests cands
          = Diagnosis.Validity.check_sim faulty tests cands)
        [ 1; 2; 3; 4; 5 ])

let prop_singles_lemma1 =
  QCheck.Test.make ~count:30
    ~name:"Validity.singles = check_sat singles = check_sim singles"
    workload_gen
    (fun (seed, p) ->
      let _, faulty, _, tests = workload seed p in
      QCheck.assume (tests <> []);
      (* a test the faulty circuit already passes constrains nothing *)
      let first = List.hd tests in
      let tests =
        tests @ [ { first with Sim.Testgen.expected = not first.expected } ]
      in
      let among check =
        List.filter (fun g -> check faulty tests [ g ])
          (List.sort Int.compare (Array.to_list (C.gate_ids faulty)))
      in
      let singles = Diagnosis.Validity.singles faulty tests in
      singles = among Diagnosis.Validity.check_sat
      && singles = among (Diagnosis.Validity.check_sim ~max_set:1))

let prop_error_sites_are_valid_correction =
  QCheck.Test.make ~count:40 ~name:"actual error sites form a valid correction"
    workload_gen
    (fun (seed, p) ->
      let _, faulty, errors, tests = workload seed p in
      QCheck.assume (tests <> []);
      Diagnosis.Validity.check_sim faulty tests (Sim.Fault.sites errors))

(* ---------- COV ---------- *)

let test_cov_fig5a_lemma2 () =
  (* Lemma 2: {B} is a COV solution but not a valid correction *)
  let c, t = Bench_suite.Paper_circuits.fig5a in
  let g n = Bench_suite.Paper_circuits.gate c n in
  let r = Diagnosis.Cover.diagnose ~k:1 c [ t ] in
  let sols = List.map sorted r.Diagnosis.Cover.solutions in
  Alcotest.(check bool) "{B} is a cover" true (List.mem [ g "B" ] sols);
  Alcotest.(check bool) "{B} is not valid" false
    (Diagnosis.Validity.check_sim c [ t ] [ g "B" ]);
  (* Theorem 1: some COV solution is not a BSAT solution *)
  let bs = Diagnosis.Bsat.diagnose ~k:1 c [ t ] in
  Alcotest.(check bool) "Theorem 1" true
    (List.exists
       (fun s -> not (List.mem s bs.Diagnosis.Bsat.solutions))
       sols)

let test_cov_fig5b_lemma4 () =
  (* Lemma 4: {A,B} is valid but not produced by COV *)
  let c, t = Bench_suite.Paper_circuits.fig5b in
  let g n = Bench_suite.Paper_circuits.gate c n in
  let r = Diagnosis.Cover.diagnose ~k:2 c [ t ] in
  let sols = List.map sorted r.Diagnosis.Cover.solutions in
  Alcotest.(check bool) "{A,B} missing from COV" true
    (not (List.mem (sorted [ g "A"; g "B" ]) sols));
  let bs = Diagnosis.Bsat.diagnose ~k:2 c [ t ] in
  Alcotest.(check bool) "{A,B} found by BSAT (Theorem 2)" true
    (List.mem (sorted [ g "A"; g "B" ]) bs.Diagnosis.Bsat.solutions)

let test_cov_engines_agree_fig5 () =
  List.iter
    (fun (c, t) ->
      let run engine =
        (Diagnosis.Cover.diagnose ~engine ~k:2 c [ t ]).Diagnosis.Cover
          .solutions
        |> List.map sorted |> List.sort compare
      in
      Alcotest.(check (list (list int))) "engines agree"
        (run Diagnosis.Cover.Backtrack_engine)
        (run Diagnosis.Cover.Sat_engine))
    [ Bench_suite.Paper_circuits.fig5a; Bench_suite.Paper_circuits.fig5b ]

let test_cov_degenerate_instances () =
  (* regression: the SAT engine used to report no solutions on the empty
     instance (m = 0) while the backtrack oracle reports the empty cover *)
  let run engine sets =
    fst (Diagnosis.Cover.enumerate ~engine ~k:3 sets)
    |> List.map sorted |> List.sort compare
  in
  let check name expected sets =
    Alcotest.(check (list (list int))) (name ^ " (SAT)") expected
      (run Diagnosis.Cover.Sat_engine sets);
    Alcotest.(check (list (list int))) (name ^ " (backtrack)") expected
      (run Diagnosis.Cover.Backtrack_engine sets)
  in
  check "no candidate sets" [ [] ] [||];
  check "empty candidate set is uncoverable" [] [| [] |];
  check "uncoverable mixed" [] [| [ 1 ]; [] |];
  check "singleton" [ [ 4 ] ] [| [ 4 ] |]

let prop_cov_engines_agree =
  QCheck.Test.make ~count:30 ~name:"COV: SAT engine = backtrack oracle"
    workload_gen
    (fun (seed, p) ->
      let _, faulty, _, tests = workload seed p in
      QCheck.assume (tests <> []);
      let run engine =
        (Diagnosis.Cover.diagnose ~engine ~k:p faulty tests).Diagnosis.Cover
          .solutions
        |> List.map sorted |> List.sort compare
      in
      run Diagnosis.Cover.Sat_engine = run Diagnosis.Cover.Backtrack_engine)

let prop_cov_solutions_cover_and_irredundant =
  QCheck.Test.make ~count:30 ~name:"COV solutions cover every Ci, irredundantly"
    workload_gen
    (fun (seed, p) ->
      let _, faulty, _, tests = workload seed p in
      QCheck.assume (tests <> []);
      let r = Diagnosis.Cover.diagnose ~k:p faulty tests in
      let sets = r.Diagnosis.Cover.bsim.Diagnosis.Bsim.candidate_sets in
      List.for_all
        (fun sol ->
          Diagnosis.Cover.covers sol sets
          && List.for_all
               (fun g ->
                 not
                   (Diagnosis.Cover.covers (List.filter (( <> ) g) sol) sets))
               sol)
        r.Diagnosis.Cover.solutions)

(* ---------- the deletion loop ---------- *)

let rec subsequence a b =
  match (a, b) with
  | [], _ -> true
  | _, [] -> false
  | x :: a', y :: b' -> if x = y then subsequence a' b' else subsequence a b'

(* Sat.Shrink.deletion against its own definition, on the monotone
   property "hits every set of a random family": the result holds, no
   drop-one subset of it holds (checked here, not by the loop), it is a
   sub-list of the input, and it took one probe per input element.  A
   second run answering Unknown at probe [i] returns the first run's
   kept elements among the first i - 1 inputs, then the untested suffix
   intact. *)
let prop_deletion_loop =
  QCheck.Test.make ~count:300
    ~name:"deletion loop: essential sub-list, one probe each"
    QCheck.(pair small_nat small_nat)
    (fun (seed, stop) ->
      let rng = Random.State.make [| seed |] in
      let n = 1 + Random.State.int rng 10 in
      let family =
        Array.init (Random.State.int rng 6) (fun _ ->
            match
              List.filter (fun _ -> Random.State.bool rng) (List.init n Fun.id)
            with
            | [] -> [ Random.State.int rng n ]
            | s -> s)
      in
      let holds s = Diagnosis.Cover.covers s family in
      (* a random subset topped up to a hitter, in random order *)
      let input =
        let some =
          List.filter (fun _ -> Random.State.bool rng) (List.init n Fun.id)
        in
        Array.fold_left
          (fun acc set ->
            if List.exists (fun g -> List.mem g acc) set then acc
            else List.hd set :: acc)
          some family
        |> List.map (fun g -> (Random.State.bits rng, g))
        |> List.sort compare |> List.map snd
      in
      let probes = ref 0 in
      let verdict s =
        incr probes;
        if holds s then Sat.Shrink.Holds else Sat.Shrink.Fails
      in
      match Sat.Shrink.deletion ~test:verdict input with
      | Error _ -> false
      | Ok r -> (
          holds r
          && List.for_all (fun x -> not (holds (List.filter (( <> ) x) r))) r
          && subsequence r input
          && !probes = List.length input
          &&
          match input with
          | [] -> true
          | _ -> (
              let i = 1 + (stop mod List.length input) in
              probes := 0;
              let cut s =
                if !probes = i - 1 then begin
                  incr probes;
                  Sat.Shrink.Unknown
                end
                else verdict s
              in
              let tested = List.filteri (fun j _ -> j < i - 1) input
              and untested = List.filteri (fun j _ -> j >= i - 1) input in
              match Sat.Shrink.deletion ~test:cut input with
              | Ok _ -> false
              | Error e ->
                  !probes = i
                  && e
                     = List.filter (fun x -> List.mem x r) tested @ untested)))

(* ---------- BSAT ---------- *)

let prop_bsat_solutions_valid =
  (* Lemma 1: every BSAT solution is a valid correction *)
  QCheck.Test.make ~count:30 ~name:"Lemma 1: BSAT solutions are valid"
    workload_gen
    (fun (seed, p) ->
      let _, faulty, _, tests = workload seed p in
      QCheck.assume (tests <> []);
      let r = Diagnosis.Bsat.diagnose ~k:p faulty tests in
      List.for_all
        (fun sol -> Diagnosis.Validity.check_sim faulty tests sol)
        r.Diagnosis.Bsat.solutions)

let prop_bsat_complete =
  (* Lemma 3: BSAT finds all essential valid corrections up to k; checked
     against brute-force subset enumeration with the simulation engine *)
  QCheck.Test.make ~count:15 ~name:"Lemma 3: BSAT enumeration is complete"
    (QCheck.make
       ~print:(fun s -> Printf.sprintf "seed=%d" s)
       QCheck.Gen.(int_range 0 2000))
    (fun seed ->
      let golden =
        Netlist.Generators.random_dag ~seed ~num_inputs:5 ~num_gates:14
          ~num_outputs:3 ()
      in
      let faulty, _ = Sim.Injector.inject ~seed:(seed + 1) ~num_errors:1 golden in
      let tests =
        Sim.Testgen.generate ~seed:(seed + 2) ~max_vectors:1024 ~wanted:4
          ~golden ~faulty
      in
      QCheck.assume (tests <> []);
      let k = 2 in
      let r = Diagnosis.Bsat.diagnose ~k faulty tests in
      let found = List.map sorted r.Diagnosis.Bsat.solutions |> List.sort compare in
      (* brute force: all subsets of gates up to size k, valid + essential *)
      let gates = Array.to_list (C.gate_ids faulty) in
      let check s = Diagnosis.Validity.check_sim faulty tests s in
      let subsets_1 = List.map (fun g -> [ g ]) gates in
      let subsets_2 =
        List.concat_map
          (fun g -> List.filter_map (fun h -> if h > g then Some [ g; h ] else None) gates)
          gates
      in
      let expected =
        List.filter check (subsets_1 @ subsets_2)
        |> List.filter (fun s -> Diagnosis.Validity.essential ~check s)
        |> List.map sorted |> List.sort compare
      in
      found = expected)

let prop_bsat_finds_error_subset =
  QCheck.Test.make ~count:30 ~name:"BSAT finds a subset of the error sites"
    workload_gen
    (fun (seed, p) ->
      let _, faulty, errors, tests = workload seed p in
      QCheck.assume (tests <> []);
      let sites = Sim.Fault.sites errors in
      let r = Diagnosis.Bsat.diagnose ~k:(List.length sites) faulty tests in
      List.exists
        (fun sol -> List.for_all (fun g -> List.mem g sites) sol)
        r.Diagnosis.Bsat.solutions)

let prop_bsat_solutions_essential =
  QCheck.Test.make ~count:20 ~name:"BSAT solutions contain only essentials"
    workload_gen
    (fun (seed, p) ->
      let _, faulty, _, tests = workload seed p in
      QCheck.assume (tests <> []);
      let r = Diagnosis.Bsat.diagnose ~k:p faulty tests in
      let check s = Diagnosis.Validity.check_sim faulty tests s in
      List.for_all
        (fun sol -> Diagnosis.Validity.essential ~check sol)
        r.Diagnosis.Bsat.solutions)

let test_bsat_first_solution_minimum () =
  let _, faulty, _, tests = workload 33 2 in
  match Diagnosis.Bsat.first_solution ~k:2 faulty tests with
  | None -> Alcotest.fail "expected a solution"
  | Some sol ->
      (* iterative deepening: the first solution has minimum size *)
      let r = Diagnosis.Bsat.diagnose ~k:2 faulty tests in
      let min_size =
        List.fold_left
          (fun acc s -> min acc (List.length s))
          max_int r.Diagnosis.Bsat.solutions
      in
      Alcotest.(check int) "minimum size" min_size (List.length sol)

(* Lemma 1 clauses: with every candidate that is no single correction
   ruled out and every single blocked, the level-1 Unsat answer needs no
   decision; without them the same call searches *)
let test_lemma1_clauses_settle_level1 () =
  (* two-error instances with no single correction (seed 1) and with
     three (seed 29) *)
  let level1 ~clauses seed =
    let _, faulty, _, tests = workload seed 2 in
    let singles = Diagnosis.Validity.singles faulty tests in
    let solver = Sat.Solver.create () in
    let inst = Encode.Muxed.build ~max_k:2 solver faulty tests in
    Array.iter
      (fun g ->
        if List.mem g singles then Encode.Muxed.block inst [ g ]
        else if clauses then Encode.Muxed.rule_out_single inst g)
      (Encode.Muxed.candidate_gates inst);
    let before = (Sat.Solver.stats solver).decisions in
    let r = Encode.Muxed.solve_at_most inst 1 in
    ( r = Sat.Solver.Solved Sat.Solver.Unsat,
      (Sat.Solver.stats solver).decisions - before )
  in
  List.iter
    (fun seed ->
      let unsat, decisions = level1 ~clauses:true seed in
      Alcotest.(check bool) "level 1 Unsat" true unsat;
      Alcotest.(check int) "no decision" 0 decisions;
      let unsat, decisions = level1 ~clauses:false seed in
      Alcotest.(check bool) "level 1 Unsat without the clauses" true unsat;
      Alcotest.(check bool) "searched without the clauses" true
        (decisions > 0))
    [ 1; 29 ]

(* ---------- budgets and telemetry ---------- *)

let test_bsat_budget_prefix () =
  let _, faulty, _, tests = workload 21 2 in
  let full = Diagnosis.Bsat.diagnose ~k:2 faulty tests in
  (* a tiny propagation budget must cut the enumeration short, and the
     prefix found must match the unbudgeted run gate for gate (the budget
     stops the search, it must not steer it) *)
  let budget = Sat.Budget.create ~propagations:500 () in
  let r = Diagnosis.Bsat.diagnose ~budget ~k:2 faulty tests in
  Alcotest.(check bool) "truncated" true r.Diagnosis.Bsat.truncated;
  Alcotest.(check bool) "budget exhausted" true (Sat.Budget.exhausted budget);
  Alcotest.(check bool) "found a subset of the full enumeration" true
    (List.length r.Diagnosis.Bsat.solutions
     <= List.length full.Diagnosis.Bsat.solutions);
  (* solutions are reported in canonical order, so the budgeted run is a
     sublist — the budget stops the search, it must not steer it *)
  List.iter
    (fun sol ->
      Alcotest.(check bool) "solution present in the full enumeration" true
        (List.mem sol full.Diagnosis.Bsat.solutions))
    r.Diagnosis.Bsat.solutions;
  List.iter
    (fun sol ->
      Alcotest.(check bool) "partial solution valid" true
        (Diagnosis.Validity.check_sim faulty tests sol))
    r.Diagnosis.Bsat.solutions

let test_bsat_budget_deterministic () =
  let _, faulty, _, tests = workload 22 2 in
  let run () =
    let budget = Sat.Budget.create ~conflicts:20 () in
    let r = Diagnosis.Bsat.diagnose ~budget ~k:2 faulty tests in
    (r.Diagnosis.Bsat.solutions, r.Diagnosis.Bsat.truncated,
     r.Diagnosis.Bsat.solver_calls, r.Diagnosis.Bsat.stats)
  in
  Alcotest.(check bool) "bit-identical reruns" true (run () = run ())

let test_bsat_budget_minimize_strategy () =
  let _, faulty, _, tests = workload 23 2 in
  (* size the budget off the unbudgeted run so truncation is guaranteed
     whatever the workload costs *)
  let full =
    Diagnosis.Bsat.diagnose ~strategy:Diagnosis.Bsat.Minimize_single_pass ~k:2
      faulty tests
  in
  let half = max 1 (full.Diagnosis.Bsat.stats.Sat.Solver.propagations / 2) in
  let budget = Sat.Budget.create ~propagations:half () in
  let r =
    Diagnosis.Bsat.diagnose ~strategy:Diagnosis.Bsat.Minimize_single_pass
      ~budget ~k:2 faulty tests
  in
  Alcotest.(check bool) "truncated" true r.Diagnosis.Bsat.truncated;
  List.iter
    (fun sol ->
      Alcotest.(check bool) "shrunk-or-aborted solution still valid" true
        (Diagnosis.Validity.check_sim faulty tests sol))
    r.Diagnosis.Bsat.solutions

let test_bsat_telemetry_counters () =
  let _, faulty, _, tests = workload 24 1 in
  let obs = Obs.create () in
  let r = Diagnosis.Bsat.diagnose ~obs ~k:1 faulty tests in
  let counters = Obs.counters obs in
  let get name =
    match List.assoc_opt name counters with
    | Some v -> v
    | None -> Alcotest.failf "missing counter %s" name
  in
  Alcotest.(check int) "conflicts snapshot" r.Diagnosis.Bsat.stats.Sat.Solver.conflicts
    (get "bsat/conflicts");
  Alcotest.(check int) "solutions" (List.length r.Diagnosis.Bsat.solutions)
    (get "bsat/solutions");
  Alcotest.(check int) "solver calls" r.Diagnosis.Bsat.solver_calls
    (get "bsat/solver_calls");
  Alcotest.(check int) "not truncated" 0 (get "bsat/truncated");
  (* the counters-only emission parses with the embedded strict parser *)
  match Obs.Json.parse (Obs.emit ~times:false obs) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "stats JSON does not parse: %s" e

(* two identical seeded runs must emit byte-identical deterministic
   stats — including the histogram and event sections *)
let test_obs_emission_deterministic () =
  let run () =
    let _, faulty, _, tests = workload 24 1 in
    let obs = Obs.create () in
    let _ = Diagnosis.Cover.diagnose ~obs ~k:1 faulty tests in
    let _ = Diagnosis.Bsat.diagnose ~obs ~k:1 faulty tests in
    Obs.emit ~times:false obs
  in
  let a = run () in
  Alcotest.(check string) "byte-identical emission" a (run ());
  match Obs.Json.parse a with
  | Error e -> Alcotest.failf "stats JSON does not parse: %s" e
  | Ok j -> (
      (match Obs.Json.member "histograms" j with
      | Some (Obs.Json.Obj (_ :: _)) -> ()
      | _ -> Alcotest.fail "no histograms recorded");
      match
        Option.bind (Obs.Json.member "events" j) (Obs.Json.member "items")
      with
      | Some (Obs.Json.Arr (_ :: _)) -> ()
      | _ -> Alcotest.fail "no events recorded")

let test_hybrid_budget_truncates () =
  let _, faulty, _, tests = workload 25 2 in
  let budget = Sat.Budget.create ~propagations:500 () in
  let h = Diagnosis.Hybrid.guided ~budget ~k:2 faulty tests in
  Alcotest.(check bool) "guided run truncated" true
    h.Diagnosis.Hybrid.guided.truncated;
  List.iter
    (fun sol ->
      Alcotest.(check bool) "partial solution valid" true
        (Diagnosis.Validity.check_sim faulty tests sol))
    h.Diagnosis.Hybrid.guided.solutions

let test_hybrid_repair_exhausted_budget () =
  let _, faulty, _, tests = workload 26 1 in
  let budget = Sat.Budget.create ~conflicts:0 () in
  let out = Diagnosis.Hybrid.repair ~budget ~k:1 ~seed:[] faulty tests in
  Alcotest.(check bool) "exhausted budget aborts the repair" true
    (out.Diagnosis.Hybrid.repaired = None
    && out.Diagnosis.Hybrid.outcome.truncated)

let test_incremental_budget () =
  let _, faulty, _, tests = workload 27 2 in
  let inc = Diagnosis.Incremental.create ~k:2 faulty tests in
  let budget = Sat.Budget.create ~propagations:500 () in
  let partial = inc_solve ~budget inc in
  Alcotest.(check bool) "flagged truncated" true partial.truncated;
  List.iter
    (fun sol ->
      Alcotest.(check bool) "partial solution valid" true
        (Diagnosis.Validity.check_sim faulty tests sol))
    partial.solutions;
  (* the instance survives: an unbudgeted enumeration completes *)
  let full = inc_solve inc in
  Alcotest.(check bool) "cleared the flag" false full.truncated;
  Alcotest.(check bool) "no solutions lost" true
    (List.length full.solutions >= List.length partial.solutions)

(* Every engine takes [Sat.Budget], and a born-exhausted budget stops it
   before any work: truncated, every returned solution still valid, and
   (for the SAT engines) not a single solver call *)
type zero_budget_outcome = {
  truncated : bool;
  solutions : int list list;
  valid : int list -> bool;
  calls : int option;  (** solver calls, where the engine counts them *)
}

let s27_seq_workload () =
  let s =
    Sim.Sequential.of_parsed
      (Netlist.Bench_format.parse_string ~name:"s27"
         Bench_suite.Embedded.s27_text)
  in
  let comb, _ =
    Sim.Injector.inject ~seed:2 ~num_errors:1 s.Sim.Sequential.comb
  in
  let faulty = Sim.Sequential.with_comb s comb in
  let tests =
    Sim.Seq_testgen.generate ~seed:3 ~length:4 ~max_sequences:2000 ~wanted:6
      ~golden:s ~faulty
  in
  Alcotest.(check bool) "sequential workload fails" true (tests <> []);
  (faulty, tests)

let test_zero_budget_every_engine () =
  let golden, faulty, _, tests = workload 28 2 in
  let k = 2 in
  let budget () = Sat.Budget.create ~seconds:0.0 () in
  let outcome ?calls ?(valid = Diagnosis.Validity.check_sat faulty tests)
      truncated solutions =
    { truncated; solutions; valid; calls }
  in
  (* every SAT engine, read through the one outcome record *)
  let sat ?valid run () =
    let (o : Diagnosis.Outcome.t) = run (budget ()) in
    outcome ?valid ~calls:o.solver_calls o.truncated o.solutions
  in
  let cover engine () =
    let r =
      Diagnosis.Cover.diagnose ~engine ~budget:(budget ()) ~k faulty tests
    in
    let sets = r.Diagnosis.Cover.bsim.Diagnosis.Bsim.candidate_sets in
    outcome
      ~valid:(fun s -> Diagnosis.Cover.covers s sets)
      r.Diagnosis.Cover.truncated r.Diagnosis.Cover.solutions
  in
  let advanced_sim () =
    let r =
      Diagnosis.Advanced_sim.diagnose ~budget:(budget ()) ~k faulty tests
    in
    outcome r.Diagnosis.Advanced_sim.truncated
      r.Diagnosis.Advanced_sim.solutions
  in
  let seq_faulty, seq_tests = s27_seq_workload () in
  List.iter
    (fun (name, run) ->
      let o = run () in
      Alcotest.(check bool) (name ^ ": truncated") true o.truncated;
      List.iter
        (fun sol ->
          Alcotest.(check bool) (name ^ ": solution valid") true (o.valid sol))
        o.solutions;
      Option.iter (Alcotest.(check int) (name ^ ": no solver call") 0) o.calls)
    [
      ("bsat", sat (fun budget -> Diagnosis.Bsat.diagnose ~budget ~k faulty tests));
      ( "incremental",
        sat (fun budget ->
            inc_solve ~budget (Diagnosis.Incremental.create ~k faulty tests)) );
      ( "hitting",
        sat (fun budget ->
            (Diagnosis.Hitting.diagnose ~budget ~k faulty tests).outcome) );
      ("cover sat", cover Diagnosis.Cover.Sat_engine);
      ("cover backtrack", cover Diagnosis.Cover.Backtrack_engine);
      ("advanced sim", advanced_sim);
      ( "advanced sat",
        sat (fun budget ->
            (Diagnosis.Advanced_sat.diagnose_dominators ~budget ~k faulty tests)
              .outcome) );
      ( "sequential bsat",
        sat ~valid:(Diagnosis.Seq_diag.check seq_faulty seq_tests)
          (fun budget ->
            (Diagnosis.Seq_diag.diagnose_bsat ~budget ~k:1 seq_faulty seq_tests)
              .outcome) );
      ( "hybrid guided",
        sat (fun budget ->
            let h = Diagnosis.Hybrid.guided ~budget ~k faulty tests in
            Diagnosis.Outcome.sum [ h.plain; h.guided ]) );
      ( "hybrid repair",
        sat (fun budget ->
            (Diagnosis.Hybrid.repair ~budget ~k ~seed:[] faulty tests).outcome)
      );
      ( "adaptive",
        sat (fun budget ->
            (Diagnosis.Adaptive.diagnose ~budget ~k ~golden faulty tests)
              .outcome) );
    ]

(* ---------- advanced approaches ---------- *)

let prop_bsat_strategies_agree =
  QCheck.Test.make ~count:20
    ~name:"minimize-single-pass = incremental-k solution set" workload_gen
    (fun (seed, p) ->
      let _, faulty, _, tests = workload seed p in
      QCheck.assume (tests <> []);
      let run strategy =
        (Diagnosis.Bsat.diagnose ~strategy ~k:p faulty tests).Diagnosis.Bsat
          .solutions
        |> List.map sorted |> List.sort compare
      in
      run Diagnosis.Bsat.Incremental_k
      = run Diagnosis.Bsat.Minimize_single_pass)

let prop_advanced_sim_subset_of_bsat =
  QCheck.Test.make ~count:20 ~name:"advanced sim solutions ⊆ BSAT solutions"
    workload_gen
    (fun (seed, p) ->
      let _, faulty, _, tests = workload seed p in
      QCheck.assume (tests <> []);
      let asim = Diagnosis.Advanced_sim.diagnose ~k:p faulty tests in
      let bsat = Diagnosis.Bsat.diagnose ~k:p faulty tests in
      let bs = List.map sorted bsat.Diagnosis.Bsat.solutions in
      List.for_all
        (fun s -> List.mem (sorted s) bs)
        asim.Diagnosis.Advanced_sim.solutions)

let prop_advanced_sim_valid =
  QCheck.Test.make ~count:20 ~name:"advanced sim solutions are valid"
    workload_gen
    (fun (seed, p) ->
      let _, faulty, _, tests = workload seed p in
      QCheck.assume (tests <> []);
      let asim = Diagnosis.Advanced_sim.diagnose ~k:p faulty tests in
      List.for_all
        (fun s -> Diagnosis.Validity.check_sim faulty tests s)
        asim.Diagnosis.Advanced_sim.solutions)

let prop_advanced_sat_dominators_valid =
  QCheck.Test.make ~count:15 ~name:"dominator 2-pass: valid and non-empty"
    workload_gen
    (fun (seed, p) ->
      let _, faulty, _, tests = workload seed p in
      QCheck.assume (tests <> []);
      let adv = Diagnosis.Advanced_sat.diagnose_dominators ~k:p faulty tests in
      let bsat_nonempty =
        (Diagnosis.Bsat.diagnose ~max_solutions:1 ~k:p faulty tests)
          .Diagnosis.Bsat.solutions <> []
      in
      List.for_all
        (fun s -> Diagnosis.Validity.check_sat faulty tests s)
        adv.Diagnosis.Advanced_sat.outcome.solutions
      && ((not bsat_nonempty) || adv.Diagnosis.Advanced_sat.outcome.solutions <> []))

let prop_advanced_sat_partitioned_valid =
  QCheck.Test.make ~count:15 ~name:"partitioned: sound subset of BSAT"
    workload_gen
    (fun (seed, p) ->
      let _, faulty, _, tests = workload seed p in
      QCheck.assume (tests <> []);
      let adv =
        Diagnosis.Advanced_sat.diagnose_partitioned ~slice:3 ~k:p faulty tests
      in
      let bsat = Diagnosis.Bsat.diagnose ~k:p faulty tests in
      let bs = List.map sorted bsat.Diagnosis.Bsat.solutions in
      List.for_all
        (fun s -> List.mem (sorted s) bs)
        adv.Diagnosis.Advanced_sat.outcome.solutions)

(* ---------- hybrid ---------- *)

let prop_hybrid_guided_same_solutions =
  QCheck.Test.make ~count:15 ~name:"hybrid hints do not change the solutions"
    workload_gen
    (fun (seed, p) ->
      let _, faulty, _, tests = workload seed p in
      QCheck.assume (tests <> []);
      let h = Diagnosis.Hybrid.guided ~k:p faulty tests in
      let plain = Diagnosis.Bsat.diagnose ~k:p faulty tests in
      List.sort compare (List.map sorted h.Diagnosis.Hybrid.guided.solutions)
      = List.sort compare (List.map sorted plain.Diagnosis.Bsat.solutions))

let test_hybrid_repair_fig5a () =
  (* seed {B} (invalid cover) is repaired into a valid correction *)
  let c, t = Bench_suite.Paper_circuits.fig5a in
  let g n = Bench_suite.Paper_circuits.gate c n in
  match
    (Diagnosis.Hybrid.repair ~k:1 ~seed:[ g "B" ] c [ t ])
      .Diagnosis.Hybrid.repaired
  with
  | None -> Alcotest.fail "repair must succeed"
  | Some r ->
      Alcotest.(check bool) "result valid" true
        (Diagnosis.Validity.check_sim c [ t ] r.Diagnosis.Hybrid.correction)

(* the repair shrinks on its own live instance: its probes are solver
   calls of the outcome, certified with the ladder, and bounded by the
   repair's budget *)
let test_hybrid_repair_shrink_counted () =
  let c, t = Bench_suite.Paper_circuits.fig5a in
  let out = Diagnosis.Hybrid.repair ~certify:true ~k:1 ~seed:[] c [ t ] in
  let o = out.Diagnosis.Hybrid.outcome in
  (match out.Diagnosis.Hybrid.repaired with
  | None -> Alcotest.fail "repair must succeed"
  | Some r ->
      Alcotest.(check int) "a single correction" 1
        (List.length r.Diagnosis.Hybrid.correction));
  Alcotest.(check int) "the ladder's solve and one shrink probe" 2
    o.Diagnosis.Outcome.solver_calls;
  Alcotest.(check int) "every answer certified" 2
    o.Diagnosis.Outcome.cert_checks;
  Alcotest.(check (list string)) "no failed certificate" []
    o.Diagnosis.Outcome.cert_failures;
  (* a propagation budget the ladder's first solve uses up exactly *)
  let solver = Sat.Solver.create () in
  let inst = Encode.Muxed.build ~max_k:1 solver c [ t ] in
  let before = (Sat.Solver.stats solver).Sat.Solver.propagations in
  (match Encode.Muxed.solve_at_most inst 1 with
  | Sat.Solver.Solved Sat.Solver.Sat -> ()
  | _ -> Alcotest.fail "the ladder's first solve answers Sat");
  let used = (Sat.Solver.stats solver).Sat.Solver.propagations - before in
  let budget = Sat.Budget.create ~propagations:used () in
  let cut = Diagnosis.Hybrid.repair ~budget ~k:1 ~seed:[] c [ t ] in
  Alcotest.(check bool) "a cut shrink is no correction" true
    (cut.Diagnosis.Hybrid.repaired = None);
  Alcotest.(check bool) "truncated" true
    cut.Diagnosis.Hybrid.outcome.Diagnosis.Outcome.truncated;
  Alcotest.(check int) "the ladder's solve and the cut probe" 2
    cut.Diagnosis.Hybrid.outcome.Diagnosis.Outcome.solver_calls

let prop_hybrid_repair_valid =
  QCheck.Test.make ~count:20 ~name:"repair always returns a valid correction"
    workload_gen
    (fun (seed, p) ->
      let _, faulty, _, tests = workload seed p in
      QCheck.assume (tests <> []);
      let cov = Diagnosis.Cover.diagnose ~k:p faulty tests in
      match cov.Diagnosis.Cover.solutions with
      | [] -> true
      | seed_sol :: _ -> (
          match
            (Diagnosis.Hybrid.repair ~k:p ~seed:seed_sol faulty tests)
              .Diagnosis.Hybrid.repaired
          with
          | None ->
              (* only acceptable when BSAT finds nothing either *)
              (Diagnosis.Bsat.diagnose ~max_solutions:1 ~k:p faulty tests)
                .Diagnosis.Bsat.solutions = []
          | Some r ->
              Diagnosis.Validity.check_sat faulty tests
                r.Diagnosis.Hybrid.correction))

(* COV engines on raw random set-cover instances (not only circuit-derived
   ones): broader input space for the SAT-vs-backtrack equivalence *)
let prop_cover_engines_on_raw_instances =
  let gen =
    QCheck.Gen.(
      let* nsets = int_range 1 6 in
      let* universe = int_range 1 8 in
      list_size (return nsets)
        (let* len = int_range 1 4 in
         list_size (return len) (int_range 0 (universe - 1))))
  in
  QCheck.Test.make ~count:200 ~name:"COV engines agree on raw instances"
    (QCheck.make
       ~print:(fun sets ->
         String.concat " ; "
           (List.map
              (fun s -> String.concat "," (List.map string_of_int s))
              sets))
       gen)
    (fun sets ->
      let sets = Array.of_list (List.map (List.sort_uniq Int.compare) sets) in
      let run engine =
        fst (Diagnosis.Cover.enumerate ~engine ~k:3 sets)
        |> List.map sorted |> List.sort compare
      in
      run Diagnosis.Cover.Sat_engine = run Diagnosis.Cover.Backtrack_engine)

(* ---------- incremental ---------- *)

let prop_incremental_matches_scratch =
  QCheck.Test.make ~count:15
    ~name:"incremental instance = from-scratch at every prefix" workload_gen
    (fun (seed, p) ->
      let _, faulty, _, tests = workload seed p in
      QCheck.assume (List.length tests >= 4);
      let quarter = List.filteri (fun i _ -> i < 2) tests in
      let rest = List.filteri (fun i _ -> i >= 2) tests in
      let inc = Diagnosis.Incremental.create ~k:p faulty quarter in
      let sols_a =
        (inc_solve inc).solutions |> List.map sorted |> List.sort compare
      in
      let scratch_a =
        (Diagnosis.Bsat.diagnose ~k:p faulty quarter).Diagnosis.Bsat.solutions
        |> List.map sorted |> List.sort compare
      in
      Diagnosis.Incremental.add_tests inc rest;
      let sols_b =
        (inc_solve inc).solutions |> List.map sorted |> List.sort compare
      in
      let scratch_b =
        (Diagnosis.Bsat.diagnose ~k:p faulty tests).Diagnosis.Bsat.solutions
        |> List.map sorted |> List.sort compare
      in
      sols_a = scratch_a && sols_b = scratch_b)

let test_incremental_reenumeration_stable () =
  (* two enumerations without adding tests must agree (guards retired) *)
  let _, faulty, _, tests = workload 41 1 in
  let inc = Diagnosis.Incremental.create ~k:1 faulty tests in
  let a = (inc_solve inc).solutions |> List.sort compare in
  let b = (inc_solve inc).solutions |> List.sort compare in
  Alcotest.(check (list (list int))) "same twice" a b

let test_incremental_carry_forward () =
  (* a repeat answers from the carried set without touching the solver;
     growth re-checks the carried set by simulation on the new tests
     only, and the answer still equals a cold enumeration *)
  let _, faulty, _, tests = workload 43 1 in
  let half = List.filteri (fun i _ -> i < List.length tests / 2) tests in
  let rest = List.filteri (fun i _ -> i >= List.length tests / 2) tests in
  let obs = Obs.create () in
  let inc = Diagnosis.Incremental.create ~obs ~k:2 faulty half in
  let cold = Diagnosis.Incremental.solutions inc in
  let first = cold.outcome.solutions in
  Alcotest.(check bool) "workload is non-trivial" true (first <> []);
  Alcotest.(check bool) "cold call searches" true
    (cold.outcome.solver_calls > 0);
  Alcotest.(check int) "cold call reuses nothing" 0 cold.reused;
  let before = Diagnosis.Incremental.stats inc in
  let again = Diagnosis.Incremental.solutions inc in
  Alcotest.(check (list (list int))) "repeat = cold answer" first
    again.outcome.solutions;
  Alcotest.(check int) "repeat makes no solver call" 0
    again.outcome.solver_calls;
  Alcotest.(check int) "repeat makes no conflict" 0
    again.outcome.stats.Sat.Solver.conflicts;
  (* nothing else moved either: no decision, propagation, restart,
     learned or deleted clause, in the call's delta or in the live
     solver ([learned] in the delta is the database gauge) *)
  Alcotest.(check bool) "repeat's counter delta is zero" true
    ({ again.outcome.stats with learned = 0 } = Sat.Solver.zero_stats);
  Alcotest.(check bool) "repeat leaves the live solver untouched" true
    (Diagnosis.Incremental.stats inc = before);
  Alcotest.(check int) "repeat reuses every solution" (List.length first)
    again.reused;
  Alcotest.(check int) "repeat re-checks nothing" 0 again.revalidated;
  Diagnosis.Incremental.add_tests inc rest;
  let grown = Diagnosis.Incremental.solutions inc in
  Alcotest.(check (list (list int))) "grown = cold enumeration"
    (Diagnosis.Bsat.diagnose ~k:2 faulty tests).Diagnosis.Bsat.solutions
    grown.outcome.solutions;
  Alcotest.(check int) "growth re-checks every carried solution"
    (List.length first) grown.revalidated;
  Alcotest.(check int) "growth reuses the surviving carried solutions"
    (List.length
       (List.filter (Diagnosis.Validity.check_sim faulty rest) first))
    grown.reused;
  let revalidations =
    List.filter_map
      (fun e ->
        if e.Obs.name = "incremental/revalidate" then Some e.Obs.payload
        else None)
      (Obs.Trace.events (Obs.trace obs))
  in
  Alcotest.(check (list int)) "simulation sees only the new tests"
    [ List.length rest ] revalidations;
  Diagnosis.Incremental.retire inc

let test_incremental_k1_by_simulation () =
  (* an uncertified k = 1 context settles level 1 by simulation: no CNF,
     no solver call, cold or grown, and Bsat's answer *)
  let _, faulty, _, tests = workload 45 1 in
  let half = List.filteri (fun i _ -> i < List.length tests / 2) tests in
  let rest = List.filteri (fun i _ -> i >= List.length tests / 2) tests in
  let inc = Diagnosis.Incremental.create ~k:1 faulty half in
  let check what use =
    let o = inc_solve inc in
    Alcotest.(check (list (list int))) (what ^ ": Bsat's solutions")
      (Diagnosis.Bsat.diagnose ~k:1 faulty use).Diagnosis.Bsat.solutions
      o.solutions;
    Alcotest.(check int) (what ^ ": no solver call") 0 o.solver_calls;
    Alcotest.(check bool) (what ^ ": solver untouched") true
      (Diagnosis.Incremental.stats inc = Sat.Solver.zero_stats)
  in
  check "cold" half;
  Diagnosis.Incremental.add_tests inc rest;
  check "grown" tests;
  Alcotest.(check bool) "workload is non-trivial" true
    ((inc_solve inc).solutions <> []);
  (* every test already passes: the empty correction, as Bsat finds it *)
  let passing =
    List.map
      (fun t ->
        if Sim.Testgen.fails faulty t then
          { t with Sim.Testgen.expected = not t.Sim.Testgen.expected }
        else t)
      tests
  in
  let inc = Diagnosis.Incremental.create ~k:1 faulty passing in
  let o = inc_solve inc in
  Alcotest.(check (list (list int))) "all pass: the empty correction"
    [ [] ] o.solutions;
  Alcotest.(check (list (list int))) "all pass: Bsat's solutions"
    (Diagnosis.Bsat.diagnose ~k:1 faulty passing).Diagnosis.Bsat.solutions
    o.solutions;
  Alcotest.(check int) "all pass: no solver call" 0 o.solver_calls;
  (* a certified context keeps the SAT level 1 and its checks *)
  let cert = Diagnosis.Incremental.create ~certify:true ~k:1 faulty tests in
  let o = inc_solve cert in
  Alcotest.(check (list (list int))) "certified: same solutions"
    (Diagnosis.Bsat.diagnose ~k:1 faulty tests).Diagnosis.Bsat.solutions
    o.solutions;
  Alcotest.(check bool) "certified: answers checked" true (o.cert_checks > 0)

let test_incremental_fault_retires () =
  let _, faulty, _, tests = workload 44 1 in
  let half = List.filteri (fun i _ -> i < List.length tests / 2) tests in
  let rest = List.filteri (fun i _ -> i >= List.length tests / 2) tests in
  let inc = Diagnosis.Incremental.create ~k:1 faulty half in
  ignore (inc_solve inc);
  Diagnosis.Incremental.fail_next_add_tests ~after:1;
  (match Diagnosis.Incremental.add_tests inc rest with
  | () -> Alcotest.fail "armed fault did not fire"
  | exception Failure _ -> ());
  Alcotest.(check bool) "half-grown context retired" true
    (Diagnosis.Incremental.retired inc);
  match Diagnosis.Incremental.solutions inc with
  | _ -> Alcotest.fail "a retired context answered"
  | exception Invalid_argument _ -> ()

(* one request on a warm context: the QCheck differential's alphabet *)
type request = Repeat | Grow of int | Capped of int | Budget0 | Cold

let request_gen =
  QCheck.Gen.(
    frequency
      [
        (3, return Repeat);
        (4, map (fun n -> Grow n) (int_range 1 2));
        (2, map (fun c -> Capped c) (int_range 0 3));
        (1, return Budget0);
        (1, return Cold);
      ])

let show_request = function
  | Repeat -> "repeat"
  | Grow n -> Printf.sprintf "grow %d" n
  | Capped c -> Printf.sprintf "cap %d" c
  | Budget0 -> "budget0"
  | Cold -> "cold"

let prop_incremental_carry_differential =
  QCheck.Test.make ~count:20
    ~name:"warm request sequences = fresh Bsat on the accumulated tests"
    (QCheck.make
       ~print:(fun ((seed, p), reqs) ->
         Printf.sprintf "seed=%d p=%d [%s]" seed p
           (String.concat "; " (List.map show_request reqs)))
       QCheck.Gen.(
         pair
           (pair (int_range 0 5000) (int_range 1 2))
           (list_size (int_range 1 8) request_gen)))
    (fun ((seed, p), reqs) ->
      let _, faulty, _, tests = workload seed p in
      QCheck.assume (List.length tests >= 3);
      let have = ref 2 in
      let prefix () = List.filteri (fun i _ -> i < !have) tests in
      let inc = ref (Diagnosis.Incremental.create ~k:p faulty (prefix ())) in
      List.for_all
        (fun r ->
          let max_solutions, budget =
            match r with
            | Capped c -> (c, None)
            | Budget0 -> (max_int, Some (Sat.Budget.create ~conflicts:0 ()))
            | Repeat | Grow _ | Cold -> (max_int, None)
          in
          (match r with
          | Grow n ->
              let more =
                List.filteri (fun i _ -> i >= !have && i < !have + n) tests
              in
              have := !have + List.length more;
              Diagnosis.Incremental.add_tests !inc more
          | Cold ->
              Diagnosis.Incremental.retire !inc;
              inc := Diagnosis.Incremental.create ~k:p faulty (prefix ())
          | Repeat | Capped _ | Budget0 -> ());
          let { Diagnosis.Outcome.solutions = got; truncated; _ } =
            inc_solve ~max_solutions ?budget !inc
          in
          let full =
            (Diagnosis.Bsat.diagnose ~k:p faulty (prefix ()))
              .Diagnosis.Bsat.solutions
          in
          let sound = List.for_all (fun s -> List.mem s full) got in
          Diagnosis.Solutions.canonical got = got
          &&
          match r with
          | Budget0 -> got = [] && truncated
          | Capped c ->
              sound
              && List.length got <= c
              && (truncated || got = full)
              && (List.length full <= c || truncated)
          | Repeat | Grow _ | Cold -> got = full && not truncated)
        reqs)

let test_incremental_certified () =
  (* the certified live instance keeps verifying across add_tests (the
     checker sees later clauses and retired guards through the same emit
     hook), with the same solutions *)
  let _, faulty, _, tests = workload 42 1 in
  let n = List.length tests in
  let part lo hi = List.filteri (fun i _ -> i >= lo && i < hi) tests in
  let first = part 0 (n / 3) and second = part (n / 3) (2 * n / 3) in
  let third = part (2 * n / 3) n in
  Alcotest.(check bool) "three non-empty parts" true (third <> [] && first <> []);
  let plain = Diagnosis.Incremental.create ~k:1 faulty first in
  let inc = Diagnosis.Incremental.create ~certify:true ~k:1 faulty first in
  (* each context's per-call outcomes, summed over its lifetime *)
  let calls = ref [] and plain_calls = ref [] in
  let run i =
    let o = inc_solve i in
    let log = if i == plain then plain_calls else calls in
    log := o :: !log;
    List.sort compare o.solutions
  in
  let lifetime log = Diagnosis.Outcome.sum !log in
  Alcotest.(check (list (list int))) "certified = plain" (run plain) (run inc);
  Diagnosis.Incremental.add_tests plain second;
  Diagnosis.Incremental.add_tests inc second;
  Alcotest.(check (list (list int)))
    "certified = plain after add_tests" (run plain) (run inc);
  let live_checks = (lifetime calls).cert_checks in
  Alcotest.(check bool) "live answers verified" true (live_checks > 0);
  (* growth in a certified context is always re-solved *)
  Diagnosis.Incremental.add_tests plain third;
  Diagnosis.Incremental.add_tests inc third;
  let grown = run inc in
  Alcotest.(check (list (list int))) "re-solved growth agrees" (run plain) grown;
  Alcotest.(check bool) "re-solved answers verified" true
    ((lifetime calls).cert_checks > live_checks);
  Alcotest.(check (list string)) "no failures" []
    (lifetime calls).cert_failures;
  Alcotest.(check int) "plain instance never checks" 0
    (lifetime plain_calls).cert_checks

(* ---------- solution cap and budget ---------- *)

(* every enumerating engine, read through the one outcome record: a run
   under an optional budget and a solution cap *)
type capped_run = ?budget:Sat.Budget.t -> int -> Diagnosis.Outcome.t

let enumerating_engines ~k faulty tests : (string * capped_run) list =
  let hitting heuristic ?budget max_solutions =
    (Diagnosis.Hitting.diagnose ~heuristic ?budget ~max_solutions ~k faulty
       tests)
      .outcome
  in
  [
    ( "bsat",
      fun ?budget max_solutions ->
        Diagnosis.Bsat.diagnose ?budget ~max_solutions ~k faulty tests );
    ("hitting bfs", hitting Diagnosis.Hitting.Bfs);
    ("hitting greedy", hitting Diagnosis.Hitting.Greedy);
    ( "cover",
      fun ?budget max_solutions ->
        let r =
          Diagnosis.Cover.diagnose ?budget ~max_solutions ~k faulty tests
        in
        {
          Diagnosis.Outcome.empty with
          solutions = r.solutions;
          truncated = r.truncated;
        } );
    ( "incremental",
      fun ?budget max_solutions ->
        inc_solve ?budget ~max_solutions
          (Diagnosis.Incremental.create ~k faulty tests) );
    ( "advsat",
      fun ?budget max_solutions ->
        (Diagnosis.Advanced_sat.diagnose_dominators ?budget ~max_solutions ~k
           faulty tests)
          .outcome );
  ]

(* Every enumerating engine honours its solution cap: under a cap c
   below the uncapped count it returns at most c solutions, flags the
   run truncated, and returns only solutions of the uncapped run *)
let prop_cap_honoured =
  QCheck.Test.make ~count:10
    ~name:"cap: at most c solutions, truncated, all from the uncapped run"
    workload_gen
    (fun (seed, p) ->
      let _, faulty, _, tests = workload seed p in
      QCheck.assume (tests <> []);
      List.for_all
        (fun (name, (run : capped_run)) ->
          let full = (run max_int).Diagnosis.Outcome.solutions in
          let n = List.length full in
          List.sort_uniq Int.compare [ 1; n / 2; n - 1 ]
          |> List.filter (fun c -> c >= 1 && c < n)
          |> List.for_all (fun c ->
                 let r = run c in
                 List.length r.solutions <= c
                 && r.truncated
                 && List.for_all (fun s -> List.mem s full) r.solutions
                 || QCheck.Test.fail_reportf
                      "%s, cap %d of %d: %d solutions, truncated %b" name c n
                      (List.length r.solutions) r.truncated))
        (enumerating_engines ~k:p faulty tests))

(* A tight budget stops the search; it must not steer it: every
   solution of a budgeted run is one of the unbudgeted run's *)
let prop_budget_subset =
  QCheck.Test.make ~count:10
    ~name:"tight budget: solutions from the unbudgeted run"
    workload_gen
    (fun (seed, p) ->
      let _, faulty, _, tests = workload seed p in
      QCheck.assume (tests <> []);
      List.for_all
        (fun (name, (run : capped_run)) ->
          let full = (run max_int).Diagnosis.Outcome.solutions in
          let budget = Sat.Budget.create ~conflicts:30 () in
          let r = run ~budget max_int in
          List.for_all (fun s -> List.mem s full) r.solutions
          || QCheck.Test.fail_reportf "%s: a budgeted solution is new" name)
        (enumerating_engines ~k:p faulty tests))

(* ---------- xlist ---------- *)

let prop_xlist_contains_single_error =
  QCheck.Test.make ~count:30
    ~name:"Xlist candidates contain the single error site" workload_gen
    (fun (seed, _) ->
      let _, faulty, errors, tests = workload seed 1 in
      QCheck.assume (tests <> []);
      let site = List.hd (Sim.Fault.sites errors) in
      List.for_all
        (fun t -> List.mem site (Diagnosis.Xlist.candidates_for_test faulty t))
        tests)

let prop_xlist_contains_all_singleton_corrections =
  QCheck.Test.make ~count:15
    ~name:"Xlist per-test sets contain every single-gate correction"
    workload_gen
    (fun (seed, p) ->
      let _, faulty, _, tests = workload seed p in
      QCheck.assume (tests <> []);
      let gates = Array.to_list (C.gate_ids faulty) in
      List.for_all
        (fun t ->
          let xs = Diagnosis.Xlist.candidates_for_test faulty t in
          List.for_all
            (fun g ->
              (not (Diagnosis.Validity.check_sim faulty [ t ] [ g ]))
              || List.mem g xs)
            gates)
        tests)

(* ---------- hitting (implicit hitting sets) ---------- *)

(* the examples' circuit families at toy scale, plus the paper circuits:
   every duality claim below is checked on each of these *)
let hitting_circuits () =
  let inject name golden =
    let faulty, _ = Sim.Injector.inject ~seed:5 ~num_errors:2 golden in
    let tests =
      Sim.Testgen.generate ~seed:7 ~max_vectors:4096 ~wanted:6 ~golden ~faulty
    in
    (name, faulty, tests)
  in
  let paper name (c, t) = (name, c, [ t ]) in
  paper "fig5a" Bench_suite.Paper_circuits.fig5a
  :: paper "fig5b" Bench_suite.Paper_circuits.fig5b
  :: List.map
       (fun (name, c) -> inject name c)
       [
         ("c17", Netlist.Generators.c17 ());
         ("rca4", Netlist.Generators.ripple_carry_adder 4);
         ("alu2", Netlist.Generators.alu 2);
         ("parity8", Netlist.Generators.parity_tree 8);
       ]

let canon sols = Diagnosis.Solutions.canonical sols

(* duality, exhaustively on the example circuits: the hitting-set
   engine's minimal diagnoses equal BSAT's essential solutions — as
   canonical lists, so byte-comparable — at k = 1..3, under both
   expansion heuristics, with every solver answer certified *)
let test_hitting_equals_bsat_examples () =
  List.iter
    (fun (name, faulty, tests) ->
      for k = 1 to 3 do
        let bsat =
          canon (Diagnosis.Bsat.diagnose ~k faulty tests).Diagnosis.Bsat.solutions
        in
        List.iter
          (fun heuristic ->
            let r =
              Diagnosis.Hitting.diagnose ~heuristic ~certify:true ~k faulty
                tests
            in
            let tag = Printf.sprintf "%s k=%d" name k in
            Alcotest.(check (list (list int)))
              (tag ^ ": Hitting = BSAT") bsat r.Diagnosis.Hitting.outcome.solutions;
            Alcotest.(check (list string)) (tag ^ ": no cert failures") []
              r.Diagnosis.Hitting.outcome.cert_failures;
            Alcotest.(check bool) (tag ^ ": certified something") true
              (r.Diagnosis.Hitting.outcome.cert_checks > 0);
            Alcotest.(check bool) (tag ^ ": complete") false
              r.Diagnosis.Hitting.outcome.truncated)
          [ Diagnosis.Hitting.Bfs; Diagnosis.Hitting.Greedy ]
      done)
    (hitting_circuits ())

(* ⊇-subsumption of COV: every COV solution that is a valid correction
   contains a minimal diagnosis, so the hitting-set enumeration at the
   same k finds a subset of it (Lemma 1 direction of the duality) *)
let test_hitting_subsumes_valid_covers () =
  List.iter
    (fun (name, faulty, tests) ->
      for k = 1 to 3 do
        let hit =
          (Diagnosis.Hitting.diagnose ~k faulty tests).Diagnosis.Hitting
            .outcome.solutions
        in
        let covers =
          (Diagnosis.Cover.diagnose ~k faulty tests).Diagnosis.Cover.solutions
        in
        List.iter
          (fun s ->
            if Diagnosis.Validity.check_sat faulty tests s then
              Alcotest.(check bool)
                (Printf.sprintf "%s k=%d: diagnosis inside valid cover" name k)
                true
                (List.exists
                   (fun d -> List.for_all (fun g -> List.mem g s) d)
                   hit))
          covers
      done)
    (hitting_circuits ())

let prop_hitting_equals_bsat =
  QCheck.Test.make ~count:15
    ~name:"duality: Hitting minimal diagnoses = BSAT solutions" workload_gen
    (fun (seed, p) ->
      let _, faulty, _, tests = workload seed p in
      QCheck.assume (tests <> []);
      let bsat =
        canon (Diagnosis.Bsat.diagnose ~k:p faulty tests).Diagnosis.Bsat.solutions
      in
      List.for_all
        (fun heuristic ->
          (Diagnosis.Hitting.diagnose ~heuristic ~k:p faulty tests)
            .Diagnosis.Hitting.outcome.solutions = bsat)
        [ Diagnosis.Hitting.Bfs; Diagnosis.Hitting.Greedy ])

let prop_hitting_subsumes_valid_covers =
  QCheck.Test.make ~count:15
    ~name:"duality: valid COV solutions contain a hitting diagnosis"
    workload_gen
    (fun (seed, p) ->
      let _, faulty, _, tests = workload seed p in
      QCheck.assume (tests <> []);
      let hit =
        (Diagnosis.Hitting.diagnose ~k:p faulty tests).Diagnosis.Hitting
          .outcome.solutions
      in
      let covers =
        (Diagnosis.Cover.diagnose ~k:p faulty tests).Diagnosis.Cover.solutions
      in
      List.for_all
        (fun s ->
          (not (Diagnosis.Validity.check_sat faulty tests s))
          || List.exists
               (fun d -> List.for_all (fun g -> List.mem g s) d)
               hit)
        covers)

(* ---------- adaptive ---------- *)

(* a small workload with several ambiguous single-gate diagnoses: the
   alu-4 seeds below are known (by probing) to start with separable
   survivor pairs, so the adaptive loop actually generates tests *)
let adaptive_workload seed =
  let golden = Netlist.Generators.alu 4 in
  let faulty, _ = Sim.Injector.inject ~seed ~num_errors:1 golden in
  let tests =
    Sim.Testgen.generate ~seed:(seed + 1) ~max_vectors:4096 ~wanted:6 ~golden
      ~faulty
  in
  (golden, faulty, tests)

let test_adaptive_resolves_definitively () =
  let golden, faulty, tests = adaptive_workload 86 in
  let r = Diagnosis.Adaptive.diagnose ~certify:true ~k:1 ~golden faulty tests in
  Alcotest.(check bool) "verdict is definitive" true
    (match r.Diagnosis.Adaptive.verdict with
    | Diagnosis.Adaptive.Unique | Diagnosis.Adaptive.Indistinguishable -> true
    | _ -> false);
  Alcotest.(check bool) "made progress" true
    (r.Diagnosis.Adaptive.rounds <> []
    || List.length r.Diagnosis.Adaptive.outcome.solutions <= 1
    || r.Diagnosis.Adaptive.verdict = Diagnosis.Adaptive.Indistinguishable);
  Alcotest.(check bool) "certified answers" true
    (r.Diagnosis.Adaptive.outcome.cert_checks > 0);
  Alcotest.(check (list string)) "no cert failures" []
    r.Diagnosis.Adaptive.outcome.cert_failures;
  (* every survivor still explains the full measured test set *)
  let measured =
    tests
    @ List.concat_map
        (fun rd -> rd.Diagnosis.Adaptive.triples)
        r.Diagnosis.Adaptive.rounds
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) "survivor valid on all measured tests" true
        (Diagnosis.Validity.check_sat faulty measured s))
    r.Diagnosis.Adaptive.outcome.solutions

(* per-round oracle: each committed vector's kill list is confirmed by
   resimulation + an independent validity check, and each round's
   bookkeeping is internally consistent *)
let test_adaptive_round_oracle () =
  List.iter
    (fun seed ->
      let golden, faulty, tests = adaptive_workload seed in
      let r = Diagnosis.Adaptive.diagnose ~k:1 ~golden faulty tests in
      List.iter
        (fun rd ->
          Alcotest.(check bool) "committed vector killed someone" true
            (rd.Diagnosis.Adaptive.killed <> []);
          Alcotest.(check bool) "committed vector is a failing test" true
            (rd.Diagnosis.Adaptive.triples <> []);
          (* the recorded triples are exactly the vector's failing ones *)
          let resim =
            Sim.Testgen.from_vectors ~golden ~faulty
              [ rd.Diagnosis.Adaptive.vector ]
          in
          Alcotest.(check int) "triples match resimulation"
            (List.length resim)
            (List.length rd.Diagnosis.Adaptive.triples);
          List.iter
            (fun s ->
              Alcotest.(check bool) "killed survivor fails check_sat" false
                (Diagnosis.Validity.check_sat faulty
                   rd.Diagnosis.Adaptive.triples s))
            rd.Diagnosis.Adaptive.killed;
          Alcotest.(check bool) "survivor count shrinks" true
            (rd.Diagnosis.Adaptive.survivors_after
            < rd.Diagnosis.Adaptive.survivors_before);
          Alcotest.(check bool) "score positive" true
            (rd.Diagnosis.Adaptive.score > 0.0))
        r.Diagnosis.Adaptive.rounds)
    [ 86; 90 ]

(* x -> NOT g1 -> NOT g2 with g1 flipped to BUF: {g1} and {g2} are both
   valid single-gate diagnoses and no measurement can ever split them —
   the loop must prove Indistinguishable, not stall or loop *)
let test_adaptive_indistinguishable_chain () =
  let b = Netlist.Builder.create ~name:"notnot" in
  let x = Netlist.Builder.input b in
  let g1 = Netlist.Builder.not_ b x in
  let g2 = Netlist.Builder.not_ b g1 in
  Netlist.Builder.output b g2;
  let golden = Netlist.Builder.build b in
  let faulty = C.with_kinds golden [ (g1, Netlist.Gate.Buf) ] in
  let tests = Sim.Testgen.exhaustive ~golden ~faulty in
  let r = Diagnosis.Adaptive.diagnose ~k:1 ~golden faulty tests in
  Alcotest.(check bool) "verdict Indistinguishable" true
    (r.Diagnosis.Adaptive.verdict = Diagnosis.Adaptive.Indistinguishable);
  Alcotest.(check (list (list int))) "both chain gates survive"
    [ [ g1 ]; [ g2 ] ]
    (canon r.Diagnosis.Adaptive.outcome.solutions);
  Alcotest.(check int) "no test was committed" 0
    (List.length r.Diagnosis.Adaptive.rounds)

let test_adaptive_budget_exhausted () =
  let golden, faulty, tests = adaptive_workload 86 in
  let budget = Sat.Budget.create ~conflicts:0 () in
  let r = Diagnosis.Adaptive.diagnose ~budget ~k:1 ~golden faulty tests in
  Alcotest.(check bool) "verdict Exhausted" true
    (r.Diagnosis.Adaptive.verdict = Diagnosis.Adaptive.Exhausted);
  Alcotest.(check bool) "truncated flag" true r.Diagnosis.Adaptive.outcome.truncated;
  (* whatever survived the cut must still be valid *)
  List.iter
    (fun s ->
      Alcotest.(check bool) "partial survivor valid" true
        (Diagnosis.Validity.check_sat faulty tests s))
    r.Diagnosis.Adaptive.outcome.solutions

(* ---------- metrics ---------- *)

let test_metrics_distances () =
  let c = fst Bench_suite.Paper_circuits.fig5a in
  let g n = Bench_suite.Paper_circuits.gate c n in
  let d = Diagnosis.Metrics.distances c ~error_sites:[ g "D" ] in
  Alcotest.(check int) "D itself" 0 d.(g "D");
  Alcotest.(check int) "B adjacent" 1 d.(g "B");
  Alcotest.(check int) "A two away" 2 d.(g "A")

let test_metrics_solution_quality () =
  let c = fst Bench_suite.Paper_circuits.fig5a in
  let g n = Bench_suite.Paper_circuits.gate c n in
  let q =
    Diagnosis.Metrics.solutions_quality c ~error_sites:[ g "D" ]
      [ [ g "D" ]; [ g "B" ] ]
  in
  Alcotest.(check int) "count" 2 q.Diagnosis.Metrics.count;
  Alcotest.(check (float 1e-9)) "min" 0.0 q.Diagnosis.Metrics.min_avg;
  Alcotest.(check (float 1e-9)) "max" 1.0 q.Diagnosis.Metrics.max_avg;
  Alcotest.(check (float 1e-9)) "avg" 0.5 q.Diagnosis.Metrics.avg_avg

let test_metrics_hit_rate () =
  let sites = [ 5 ] in
  Alcotest.(check (float 1e-9)) "half hit" 0.5
    (Diagnosis.Metrics.hit_rate ~error_sites:sites [ [ 5; 7 ]; [ 9 ] ])

(* ---------- end-to-end façade ---------- *)

let test_core_diagnose_end_to_end () =
  let golden = Netlist.Generators.alu 3 in
  let faulty, errors = Core.Injector.inject ~seed:7 ~num_errors:1 golden in
  let report = Core.diagnose ~golden ~faulty ~k:1 () in
  Alcotest.(check bool) "tests found" true (report.Core.tests <> []);
  let site = List.hd (Sim.Fault.sites errors) in
  Alcotest.(check bool) "some BSAT solution contains/equals the site" true
    (List.exists (fun s -> List.mem site s) report.Core.bsat_solutions
    || report.Core.bsat_solutions <> [])

let test_s27_end_to_end () =
  let golden = Bench_suite.Embedded.s27 () in
  let faulty, _ = Core.Injector.inject ~seed:3 ~num_errors:1 golden in
  let tests = Core.Testgen.exhaustive ~golden ~faulty in
  Alcotest.(check bool) "s27 error detectable" true (tests <> []);
  let use = List.filteri (fun i _ -> i < 8) tests in
  let r = Diagnosis.Bsat.diagnose ~k:1 faulty use in
  Alcotest.(check bool) "diagnosis non-empty" true
    (r.Diagnosis.Bsat.solutions <> []);
  List.iter
    (fun s ->
      Alcotest.(check bool) "valid" true
        (Diagnosis.Validity.check_sim faulty use s))
    r.Diagnosis.Bsat.solutions

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_pt_single_error_site_marked;
      prop_bsim_pigeonhole;
      prop_validity_engines_agree;
      prop_singles_lemma1;
      prop_error_sites_are_valid_correction;
      prop_cov_engines_agree;
      prop_cov_solutions_cover_and_irredundant;
      prop_cover_engines_on_raw_instances;
      prop_deletion_loop;
      prop_bsat_solutions_valid;
      prop_bsat_complete;
      prop_bsat_finds_error_subset;
      prop_bsat_solutions_essential;
      prop_bsat_strategies_agree;
      prop_advanced_sim_subset_of_bsat;
      prop_advanced_sim_valid;
      prop_advanced_sat_dominators_valid;
      prop_advanced_sat_partitioned_valid;
      prop_hybrid_guided_same_solutions;
      prop_hybrid_repair_valid;
      prop_incremental_matches_scratch;
      prop_incremental_carry_differential;
      prop_hitting_equals_bsat;
      prop_hitting_subsumes_valid_covers;
      prop_cap_honoured;
      prop_budget_subset;
      prop_xlist_contains_single_error;
      prop_xlist_contains_all_singleton_corrections;
    ]

let () =
  Alcotest.run "diagnosis"
    [
      ( "path_trace",
        [
          Alcotest.test_case "fig5a marks" `Quick test_pt_fig5a_marks;
          Alcotest.test_case "fig5b marks" `Quick test_pt_fig5b_marks;
          Alcotest.test_case "All_inputs superset" `Quick
            test_pt_all_inputs_superset;
          Alcotest.test_case "output gate marked" `Quick
            test_pt_marks_erroneous_output_gate;
        ] );
      ( "bsim",
        [
          Alcotest.test_case "mark counts" `Quick test_bsim_counts;
          Alcotest.test_case "single-error intersection" `Quick
            test_bsim_single_error_intersection;
        ] );
      ( "validity",
        [
          Alcotest.test_case "fig5a engines" `Quick test_validity_fig5a;
          Alcotest.test_case "essential" `Quick test_validity_essential;
        ] );
      ( "cover",
        [
          Alcotest.test_case "Lemma 2 / Theorem 1" `Quick test_cov_fig5a_lemma2;
          Alcotest.test_case "Lemma 4 / Theorem 2" `Quick test_cov_fig5b_lemma4;
          Alcotest.test_case "engines agree on fig5" `Quick
            test_cov_engines_agree_fig5;
          Alcotest.test_case "degenerate instances" `Quick
            test_cov_degenerate_instances;
        ] );
      ( "bsat",
        [
          Alcotest.test_case "first solution minimal" `Quick
            test_bsat_first_solution_minimum;
          Alcotest.test_case "Lemma 1 clauses settle level 1" `Quick
            test_lemma1_clauses_settle_level1;
        ] );
      ( "budget",
        [
          Alcotest.test_case "bsat prefix" `Quick test_bsat_budget_prefix;
          Alcotest.test_case "bsat deterministic" `Quick
            test_bsat_budget_deterministic;
          Alcotest.test_case "minimize strategy" `Quick
            test_bsat_budget_minimize_strategy;
          Alcotest.test_case "telemetry counters" `Quick
            test_bsat_telemetry_counters;
          Alcotest.test_case "emission deterministic" `Quick
            test_obs_emission_deterministic;
          Alcotest.test_case "hybrid guided truncates" `Quick
            test_hybrid_budget_truncates;
          Alcotest.test_case "hybrid repair aborts" `Quick
            test_hybrid_repair_exhausted_budget;
          Alcotest.test_case "incremental budget" `Quick
            test_incremental_budget;
          Alcotest.test_case "zero budget bounds every engine" `Quick
            test_zero_budget_every_engine;
        ] );
      ( "hybrid",
        [
          Alcotest.test_case "repair fig5a" `Quick test_hybrid_repair_fig5a;
          Alcotest.test_case "repair shrink counted" `Quick
            test_hybrid_repair_shrink_counted;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "re-enumeration stable" `Quick
            test_incremental_reenumeration_stable;
          Alcotest.test_case "certified lifetime" `Quick
            test_incremental_certified;
          Alcotest.test_case "carry forward" `Quick
            test_incremental_carry_forward;
          Alcotest.test_case "fault mid-add_tests retires" `Quick
            test_incremental_fault_retires;
          Alcotest.test_case "k = 1 by simulation" `Quick
            test_incremental_k1_by_simulation;
        ] );
      ( "hitting",
        [
          Alcotest.test_case "duality: Hitting = BSAT on examples" `Quick
            test_hitting_equals_bsat_examples;
          Alcotest.test_case "duality: valid covers subsumed" `Quick
            test_hitting_subsumes_valid_covers;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "resolves definitively" `Quick
            test_adaptive_resolves_definitively;
          Alcotest.test_case "round oracle" `Quick test_adaptive_round_oracle;
          Alcotest.test_case "indistinguishable chain" `Quick
            test_adaptive_indistinguishable_chain;
          Alcotest.test_case "budget exhausted" `Quick
            test_adaptive_budget_exhausted;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "distances" `Quick test_metrics_distances;
          Alcotest.test_case "solution quality" `Quick
            test_metrics_solution_quality;
          Alcotest.test_case "hit rate" `Quick test_metrics_hit_rate;
        ] );
      ( "end_to_end",
        [
          Alcotest.test_case "core facade" `Quick test_core_diagnose_end_to_end;
          Alcotest.test_case "s27" `Quick test_s27_end_to_end;
        ] );
      ("properties", qtests);
    ]
