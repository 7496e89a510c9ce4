(* Tests for the experiment harness itself: workloads, the runner, report
   rendering, the Figure 5 circuits and the sequential workloads. *)

module C = Netlist.Circuit

let small_spec =
  {
    Bench_suite.Workload.label = "alu3";
    circuit = Netlist.Generators.alu 3;
    num_errors = 1;
    test_counts = [ 4; 8 ];
    seed = 77;
  }

(* ---------- paper circuits ---------- *)

let test_fig5a_is_faulty () =
  let c, t = Bench_suite.Paper_circuits.fig5a in
  Alcotest.(check bool) "test fails" true (Sim.Testgen.fails c t);
  Alcotest.(check int) "four gates" 4 (Array.length (C.gate_ids c))

let test_fig5b_is_faulty () =
  let c, t = Bench_suite.Paper_circuits.fig5b in
  Alcotest.(check bool) "test fails" true (Sim.Testgen.fails c t);
  Alcotest.(check int) "five gates" 5 (Array.length (C.gate_ids c))

(* ---------- embedded circuits ---------- *)

let test_embedded_sizes () =
  let c = Bench_suite.Embedded.g1423 () in
  Alcotest.(check int) "g1423 inputs" 91 (C.num_inputs c);
  Alcotest.(check int) "g1423 gates" 657 (Array.length (C.gate_ids c));
  let small = Bench_suite.Embedded.g1423 ~scale:0.1 () in
  Alcotest.(check bool) "scaled down" true (C.size small < C.size c)

let test_by_name () =
  Alcotest.(check bool) "s27" true
    (C.size (Bench_suite.Embedded.by_name "s27" ~scale:1.0) > 0);
  Alcotest.(check bool) "unknown raises" true
    (match Bench_suite.Embedded.by_name "nope" ~scale:1.0 with
    | exception Not_found -> true
    | _ -> false)

(* ---------- workload / runner ---------- *)

let test_prepare_deterministic () =
  let w1 = Bench_suite.Workload.prepare small_spec in
  let w2 = Bench_suite.Workload.prepare small_spec in
  Alcotest.(check bool) "same errors" true
    (w1.Bench_suite.Workload.errors = w2.Bench_suite.Workload.errors);
  Alcotest.(check bool) "same tests" true
    (w1.Bench_suite.Workload.tests = w2.Bench_suite.Workload.tests)

let test_runner_row_consistency () =
  let w = Bench_suite.Workload.prepare small_spec in
  let rows = Bench_suite.Runner.run ~max_solutions:500 w in
  Alcotest.(check bool) "some rows" true (rows <> []);
  List.iter
    (fun (r : Bench_suite.Runner.row) ->
      Alcotest.(check string) "label" "alu3" r.Bench_suite.Runner.label;
      Alcotest.(check int) "p" 1 r.Bench_suite.Runner.p;
      (* quality counts match the solution lists *)
      Alcotest.(check int) "cov count"
        (List.length r.Bench_suite.Runner.cov_solutions)
        r.Bench_suite.Runner.cov_q.Diagnosis.Metrics.count;
      Alcotest.(check int) "bsat count"
        (List.length r.Bench_suite.Runner.bsat.solutions)
        r.Bench_suite.Runner.bsat_q.Diagnosis.Metrics.count;
      (* single error: BSAT must find the real site *)
      Alcotest.(check bool) "site found" true
        (List.exists
           (fun s ->
             List.exists (fun g -> List.mem g r.Bench_suite.Runner.error_sites) s)
           r.Bench_suite.Runner.bsat.solutions))
    rows

let test_runner_m_monotone () =
  let w = Bench_suite.Workload.prepare small_spec in
  match Bench_suite.Runner.run ~max_solutions:500 w with
  | [ r4; r8 ] ->
      Alcotest.(check bool) "m increases" true
        (r4.Bench_suite.Runner.m <= r8.Bench_suite.Runner.m);
      (* more tests can only keep or shrink the BSAT solution space when
         no new outputs are involved; at minimum the count stays sane *)
      Alcotest.(check bool) "counts positive" true
        (r4.Bench_suite.Runner.bsat_q.Diagnosis.Metrics.count > 0)
  | rows ->
      Alcotest.failf "expected 2 rows, got %d" (List.length rows)

(* ---------- report rendering ---------- *)

let test_report_renders () =
  let w = Bench_suite.Workload.prepare small_spec in
  let rows = Bench_suite.Runner.run ~max_solutions:200 w in
  let t2 = Format.asprintf "%a" Bench_suite.Report.pp_table2 rows in
  let t3 = Format.asprintf "%a" Bench_suite.Report.pp_table3 rows in
  let f6 = Format.asprintf "%a" Bench_suite.Report.pp_figure6 rows in
  Alcotest.(check bool) "table2 mentions circuit" true
    (String.length t2 > 0
    && String.length t3 > 0
    && String.length f6 > 0);
  let avgs, counts = Bench_suite.Report.figure6_series rows in
  Alcotest.(check int) "series lengths" (List.length rows)
    (List.length avgs);
  Alcotest.(check int) "series lengths'" (List.length rows)
    (List.length counts)

let test_scatter_handles_empty_and_points () =
  let empty = Format.asprintf "%a"
      (Bench_suite.Report.pp_scatter ~width:10 ~height:5 ~xlabel:"x"
         ~ylabel:"y")
      []
  in
  Alcotest.(check bool) "empty message" true
    (String.length empty > 0);
  let s = Format.asprintf "%a"
      (Bench_suite.Report.pp_scatter ~width:10 ~height:5 ~xlabel:"x"
         ~ylabel:"y")
      [ (1.0, 1.0); (0.5, 0.2) ]
  in
  Alcotest.(check bool) "has stars" true (String.contains s '*')

(* ---------- sequential workloads ---------- *)

let test_synthetic_machine () =
  let s =
    Bench_suite.Seq_workload.synthetic_machine ~seed:3 ~inputs:10 ~gates:80
      ~outputs:8 ~state:4
  in
  Alcotest.(check int) "state" 4 (Sim.Sequential.num_state s);
  Alcotest.(check int) "inputs" 6 (Sim.Sequential.num_inputs s)

let test_seq_workload_run () =
  let s =
    Bench_suite.Seq_workload.synthetic_machine ~seed:5 ~inputs:10 ~gates:80
      ~outputs:8 ~state:4
  in
  let rec try_seed seed =
    if seed > 15 then None
    else
      match
        Bench_suite.Seq_workload.run ~label:"t" ~seed ~frames:3 ~wanted:4 s
      with
      | None -> try_seed (seed + 1)
      | Some r -> Some r
  in
  match try_seed 1 with
  | None -> Alcotest.fail "no detectable sequential workload found"
  | Some r ->
      Alcotest.(check bool) "bsat found something" true
        (r.Bench_suite.Seq_workload.bsat_count > 0);
      Alcotest.(check bool) "site hit (k=1 completeness)" true
        r.Bench_suite.Seq_workload.site_hit

(* ---------- baseline regression gate ---------- *)

module J = Obs.Json

let sample_report () =
  J.Obj
    [
      ("scale", J.Float 0.12);
      ( "experiments",
        J.Obj
          [
            ( "x",
              J.Obj
                [
                  ( "counters",
                    J.Obj [ ("i/a", J.Int 100); ("i/b", J.Int 0) ] );
                  ("label", J.String "alu4");
                ] );
          ] );
    ]

let baseline_doc ?(tolerances = []) report =
  J.Obj
    [
      ("default_tolerance", J.Float 0.5);
      ("tolerances", J.Obj (List.map (fun (k, t) -> (k, J.Float t)) tolerances));
      ("report", report);
    ]

let check ?tolerances base fresh =
  match
    Bench_suite.Baseline.check_report ~baseline:(baseline_doc ?tolerances base)
      ~fresh
  with
  | Ok o -> o
  | Error e -> Alcotest.failf "baseline rejected: %s" e

let perturb v =
  (* the sample report with counter i/a set to [v] *)
  J.Obj
    [
      ("scale", J.Float 0.12);
      ( "experiments",
        J.Obj
          [
            ( "x",
              J.Obj
                [
                  ("counters", J.Obj [ ("i/a", J.Int v); ("i/b", J.Int 0) ]);
                  ("label", J.String "alu4");
                ] );
          ] );
    ]

let test_baseline_identical () =
  let o = check (sample_report ()) (sample_report ()) in
  Alcotest.(check (list (pair string string))) "no violations" []
    o.Bench_suite.Baseline.violations;
  Alcotest.(check bool) "leaves compared" true
    (o.Bench_suite.Baseline.checked >= 4)

let test_baseline_within_tolerance () =
  (* 100 -> 140 is within the default 50% relative tolerance *)
  let o = check (sample_report ()) (perturb 140) in
  Alcotest.(check (list (pair string string))) "no violations" []
    o.Bench_suite.Baseline.violations

let test_baseline_beyond_tolerance () =
  let o = check (sample_report ()) (perturb 200) in
  match o.Bench_suite.Baseline.violations with
  | [ (path, _) ] ->
      Alcotest.(check string) "violating path" "experiments/x/counters/i/a"
        path
  | v -> Alcotest.failf "expected one violation, got %d" (List.length v)

let test_baseline_per_key_override () =
  (* a 10% drift passes by default but fails under a 1% per-key bound *)
  let fresh = perturb 110 in
  let default = check (sample_report ()) fresh in
  Alcotest.(check int) "default tolerance passes" 0
    (List.length default.Bench_suite.Baseline.violations);
  let tight =
    check ~tolerances:[ ("experiments/x/counters/i/a", 0.01) ]
      (sample_report ()) fresh
  in
  Alcotest.(check int) "override fails" 1
    (List.length tight.Bench_suite.Baseline.violations)

let test_baseline_missing_and_extra_keys () =
  (* a leaf missing inside a selected experiment is a violation *)
  let missing =
    check (sample_report ())
      (J.Obj
         [
           ("scale", J.Float 0.12);
           ( "experiments",
             J.Obj
               [
                 ( "x",
                   J.Obj
                     [
                       ("counters", J.Obj [ ("i/a", J.Int 100) ]);
                       ("label", J.String "alu4");
                     ] );
               ] );
         ])
  in
  Alcotest.(check bool) "baseline key missing from fresh fails" true
    (missing.Bench_suite.Baseline.violations <> []);
  (* new keys in the fresh report must not fail the gate *)
  let extra =
    match sample_report () with
    | J.Obj fields ->
        check (sample_report ())
          (J.Obj (fields @ [ ("new_section", J.Obj [ ("n", J.Int 1) ]) ]))
    | _ -> assert false
  in
  Alcotest.(check (list (pair string string))) "extra keys pass" []
    extra.Bench_suite.Baseline.violations

let test_baseline_prunes_to_selected () =
  (* a partial bench run is gated only against its own blocks ... *)
  let two_exp v =
    J.Obj
      [
        ("scale", J.Float 0.12);
        ( "experiments",
          J.Obj
            [
              ("x", J.Obj [ ("counters", J.Obj [ ("i/a", J.Int v) ]) ]);
              ("y", J.Obj [ ("counters", J.Obj [ ("i/c", J.Int 7) ]) ]);
            ] );
      ]
  in
  let only_x =
    J.Obj
      [
        ("scale", J.Float 0.12);
        ( "experiments",
          J.Obj [ ("x", J.Obj [ ("counters", J.Obj [ ("i/a", J.Int 100) ]) ]) ]
        );
      ]
  in
  let o = check (two_exp 100) only_x in
  Alcotest.(check (list (pair string string)))
    "unselected baseline blocks are pruned, not missing" []
    o.Bench_suite.Baseline.violations;
  (* ... but the selected block is still compared *)
  let drifted = check (two_exp 10) only_x in
  Alcotest.(check int) "selected block still gated" 1
    (List.length drifted.Bench_suite.Baseline.violations);
  (* ... and selecting nothing that overlaps is an error, not a pass *)
  match
    Bench_suite.Baseline.check_report
      ~baseline:(baseline_doc (two_exp 100))
      ~fresh:(J.Obj [ ("scale", J.Float 0.12); ("experiments", J.Obj []) ])
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty experiment overlap must be rejected"

let test_baseline_string_and_type_changes () =
  let relabel =
    J.Obj
      [
        ("scale", J.Float 0.12);
        ( "experiments",
          J.Obj
            [
              ( "x",
                J.Obj
                  [
                    ("counters", J.Obj [ ("i/a", J.Int 100); ("i/b", J.Int 0) ]);
                    ("label", J.String "mul4");
                  ] );
            ] );
      ]
  in
  let o = check (sample_report ()) relabel in
  Alcotest.(check int) "string change is a violation" 1
    (List.length o.Bench_suite.Baseline.violations);
  let o2 = check (J.Obj [ ("v", J.Int 1) ]) (J.Obj [ ("v", J.Arr []) ]) in
  Alcotest.(check int) "number-to-array is a violation" 1
    (List.length o2.Bench_suite.Baseline.violations)

let test_baseline_malformed () =
  match
    Bench_suite.Baseline.check_report ~baseline:(J.Obj [])
      ~fresh:(sample_report ())
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "baseline without a report field accepted"

(* ---------- certificates on a paper workload ---------- *)

(* Certified BSAT on the quick-scale g1423 cell with 8 tests runs into
   the solver's inprocessing rounds, where a re-installed clause loses
   root-false literals; its later deletion must name a clause the DRUP
   checker holds.  Every one of the 1077 answers must check. *)
let test_certified_g1423 () =
  let spec =
    List.find
      (fun s -> s.Bench_suite.Workload.label = "g1423")
      (Bench_suite.Workload.paper_specs ~scale:0.12)
  in
  let w = Bench_suite.Workload.prepare spec in
  let tests = List.filteri (fun i _ -> i < 8) w.Bench_suite.Workload.tests in
  let r =
    Diagnosis.Bsat.diagnose ~certify:true ~max_solutions:2000 ~k:4
      w.Bench_suite.Workload.faulty tests
  in
  Alcotest.(check int) "solver answers checked" 1077 r.cert_checks;
  Alcotest.(check (list string)) "no certificate failure" [] r.cert_failures

let () =
  Alcotest.run "bench_suite"
    [
      ( "paper_circuits",
        [
          Alcotest.test_case "fig5a faulty" `Quick test_fig5a_is_faulty;
          Alcotest.test_case "fig5b faulty" `Quick test_fig5b_is_faulty;
        ] );
      ( "embedded",
        [
          Alcotest.test_case "sizes" `Quick test_embedded_sizes;
          Alcotest.test_case "by_name" `Quick test_by_name;
        ] );
      ( "runner",
        [
          Alcotest.test_case "prepare deterministic" `Quick
            test_prepare_deterministic;
          Alcotest.test_case "row consistency" `Quick
            test_runner_row_consistency;
          Alcotest.test_case "m handling" `Quick test_runner_m_monotone;
        ] );
      ( "report",
        [
          Alcotest.test_case "renders" `Quick test_report_renders;
          Alcotest.test_case "scatter" `Quick
            test_scatter_handles_empty_and_points;
        ] );
      ( "sequential",
        [
          Alcotest.test_case "synthetic machine" `Quick test_synthetic_machine;
          Alcotest.test_case "workload run" `Quick test_seq_workload_run;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "identical" `Quick test_baseline_identical;
          Alcotest.test_case "within tolerance" `Quick
            test_baseline_within_tolerance;
          Alcotest.test_case "beyond tolerance" `Quick
            test_baseline_beyond_tolerance;
          Alcotest.test_case "per-key override" `Quick
            test_baseline_per_key_override;
          Alcotest.test_case "missing and extra keys" `Quick
            test_baseline_missing_and_extra_keys;
          Alcotest.test_case "string and type changes" `Quick
            test_baseline_string_and_type_changes;
          Alcotest.test_case "prunes to selected experiments" `Quick
            test_baseline_prunes_to_selected;
          Alcotest.test_case "malformed" `Quick test_baseline_malformed;
        ] );
      ( "certificates",
        [ Alcotest.test_case "certified g1423 m=8" `Quick test_certified_g1423 ]
      );
    ]
