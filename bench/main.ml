(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5) plus the ablations discussed in §2.3/§6.  perfbench
   owns wall time; this harness gates deterministic counters.

     dune exec bench/main.exe            -- everything, quick scale
     dune exec bench/main.exe -- --full  -- paper-sized circuits (slow!)
     dune exec bench/main.exe -- table2  -- a single experiment
     dune exec bench/main.exe -- <exp> --baseline BENCH_baseline.json
        -- regression gate: compare the fresh BENCH_report.json blocks
           against the committed baseline (Bench_suite.Baseline);
           nonzero exit on any drift beyond tolerance
     dune exec bench/main.exe -- --jobs 4
        -- run per-circuit experiment cells (and the micro fault
           simulation) on 4 domains; every report block is identical
           to --jobs 1

   Experiments: table1 (guarantee check), table2 (runtimes), table3
   (quality), figure5 (lemma circuits), figure6 (scatter series),
   ablation (advanced SAT heuristics), hybrid (§6 decision hints and
   seed repair), sequential (time-frame expansion), incremental
   (growing test sets on one live instance), hitting (implicit
   hitting-set engine vs BSAT), adaptive (generated distinguishing
   tests vs the fixed m-test regime), serve (cold vs warm requests
   of the diagnose serve layer), related (BDD space vs SAT), resolution
   (random vs ATPG test sets), micro (fault-simulation and proof
   counters). *)

type config = {
  scale : float;
  max_solutions : int;
  seconds : float;  (** wall-clock allowance per engine run *)
  jobs : int;  (** worker domains for experiment cells and fault sim *)
}

let quick = { scale = 0.12; max_solutions = 2000; seconds = 30.0; jobs = 1 }
let full = { scale = 1.0; max_solutions = 20000; seconds = 1800.0; jobs = 1 }

(* machine-readable per-experiment stats; the driver writes every block
   collected by the selected experiments to BENCH_report.json.  Blocks
   hold only deterministic measurements (counters, not timings), so the
   file is diffable across commits under a fixed seed. *)
let report_blocks : (string * Obs.Json.t) list ref = ref []

let add_block name json =
  report_blocks := List.remove_assoc name !report_blocks @ [ (name, json) ]

(* one shared row computation for table2/table3/figure6; with
   [cfg.jobs > 1] the per-circuit cells run on separate domains (each
   cell owns its solvers and contexts) and the rows are stitched back in
   spec order, so the report blocks are independent of the width *)
let paper_rows =
  let cache : (float, Bench_suite.Runner.row list) Hashtbl.t =
    Hashtbl.create 2
  in
  fun cfg ->
    match Hashtbl.find_opt cache cfg.scale with
    | Some rows -> rows
    | None ->
        let rows =
          Bench_suite.Workload.paper_specs ~scale:cfg.scale
          |> Par.map ~jobs:cfg.jobs (fun spec ->
                 let prepared = Bench_suite.Workload.prepare spec in
                 Bench_suite.Runner.run ~max_solutions:cfg.max_solutions
                   ~seconds:cfg.seconds prepared)
          |> List.concat
        in
        Hashtbl.add cache cfg.scale rows;
        rows

(* ---------- Table 1 (empirical check of the guarantee rows) ---------- *)

let table1 _cfg =
  Fmt.pr "== Table 1 check: validity guarantees ==@.";
  Fmt.pr "(BSAT solutions must all be valid corrections; BSIM/COV give no@.";
  Fmt.pr " such guarantee — we measure how often COV covers are invalid)@.@.";
  let specs = Bench_suite.Workload.small_specs () in
  let total_cov = ref 0 and invalid_cov = ref 0 in
  let total_bsat = ref 0 in
  List.iter
    (fun spec ->
      let w = Bench_suite.Workload.prepare spec in
      let faulty = w.Bench_suite.Workload.faulty in
      let tests =
        List.filteri (fun i _ -> i < 8) w.Bench_suite.Workload.tests
      in
      if tests <> [] then begin
        let k = spec.Bench_suite.Workload.num_errors in
        let cov =
          Diagnosis.Cover.diagnose ~max_solutions:300 ~k faulty tests
        in
        let bsat =
          Diagnosis.Bsat.diagnose ~max_solutions:300 ~k faulty tests
        in
        let check = Diagnosis.Validity.check_sat faulty tests in
        List.iter
          (fun s ->
            incr total_cov;
            if not (check s) then incr invalid_cov)
          cov.Diagnosis.Cover.solutions;
        List.iter
          (fun s ->
            incr total_bsat;
            assert (check s))
          bsat.Diagnosis.Bsat.solutions;
        Fmt.pr "  %-8s: COV %4d solutions, BSAT %4d (all valid)@."
          spec.Bench_suite.Workload.label
          (List.length cov.Diagnosis.Cover.solutions)
          (List.length bsat.Diagnosis.Bsat.solutions)
      end)
    specs;
  Fmt.pr "@.COV: %d of %d covers are NOT valid corrections (%.1f%%)@."
    !invalid_cov !total_cov
    (100.0 *. float_of_int !invalid_cov /. float_of_int (max 1 !total_cov));
  Fmt.pr "BSAT: all %d solutions verified valid (Lemma 1).@.@." !total_bsat

(* ---------- Tables 2 and 3, Figure 6 ---------- *)

let table2 cfg =
  Fmt.pr "== Table 2: runtimes in seconds (scale %.2f) ==@." cfg.scale;
  let rows = paper_rows cfg in
  Bench_suite.Report.pp_table2 Fmt.stdout rows;
  add_block "table2" (Bench_suite.Report.rows_stats_json rows);
  Fmt.pr "@."

let table3 cfg =
  Fmt.pr "== Table 3: diagnosis quality (scale %.2f) ==@." cfg.scale;
  Bench_suite.Report.pp_table3 Fmt.stdout (paper_rows cfg);
  Fmt.pr "@."

let figure6 cfg =
  Fmt.pr "== Figure 6: BSAT vs COV (scale %.2f) ==@." cfg.scale;
  Bench_suite.Report.pp_figure6 Fmt.stdout (paper_rows cfg);
  Fmt.pr "@."

(* ---------- Figure 5 / Lemmas ---------- *)

let figure5 _cfg =
  Fmt.pr "== Figure 5: the lemma circuits ==@.";
  let show name (c, t) k =
    let pt = Diagnosis.Path_trace.trace c t in
    let cov = Diagnosis.Cover.diagnose ~k c [ t ] in
    let bsat = Diagnosis.Bsat.diagnose ~k c [ t ] in
    let pp_set ppf s =
      Fmt.pf ppf "{%a}" (Fmt.list ~sep:(Fmt.any ",") Fmt.string)
        (List.map (fun g -> c.Netlist.Circuit.names.(g)) s)
    in
    Fmt.pr "%s (k=%d):@." name k;
    Fmt.pr "  PathTrace marks      : %a@." pp_set pt;
    Fmt.pr "  COV solutions        : %a@."
      (Fmt.list ~sep:(Fmt.any " ") pp_set) cov.Diagnosis.Cover.solutions;
    List.iter
      (fun s ->
        if not (Diagnosis.Validity.check_sat c [ t ] s) then
          Fmt.pr "    -> %a is NOT a valid correction (Lemma 2)@." pp_set s)
      cov.Diagnosis.Cover.solutions;
    Fmt.pr "  BSAT solutions       : %a@."
      (Fmt.list ~sep:(Fmt.any " ") pp_set) bsat.Diagnosis.Bsat.solutions;
    List.iter
      (fun s ->
        if
          not
            (List.mem (List.sort Int.compare s)
               (List.map (List.sort Int.compare)
                  cov.Diagnosis.Cover.solutions))
        then
          Fmt.pr "    -> %a found only by BSAT (Lemma 4)@." pp_set s)
      bsat.Diagnosis.Bsat.solutions
  in
  show "Figure 5(a)" Bench_suite.Paper_circuits.fig5a 1;
  show "Figure 5(b)" Bench_suite.Paper_circuits.fig5b 2;
  Fmt.pr "@."

(* ---------- ablation: advanced SAT heuristics (§2.3) ---------- *)

let ablation cfg =
  Fmt.pr "== Ablation: advanced SAT-based heuristics (scale %.2f) ==@."
    cfg.scale;
  Fmt.pr "%-10s %2s %3s | %9s %9s %9s %9s@." "I" "p" "m" "plain" "min-pass"
    "2-pass" "partition";
  Fmt.pr "%s@." (String.make 60 '-');
  let specs =
    Bench_suite.Workload.small_specs ()
    @ Bench_suite.Workload.paper_specs ~scale:(cfg.scale /. 2.0)
  in
  List.iter
    (fun spec ->
      let w = Bench_suite.Workload.prepare spec in
      let faulty = w.Bench_suite.Workload.faulty in
      let tests =
        List.filteri (fun i _ -> i < 8) w.Bench_suite.Workload.tests
      in
      if tests <> [] then begin
        let k = spec.Bench_suite.Workload.num_errors in
        let time f =
          let t0 = Obs.Clock.wall () in
          let _ = f () in
          Obs.Clock.wall () -. t0
        in
        let max_solutions = 500 in
        let t_plain =
          time (fun () ->
              Diagnosis.Bsat.diagnose ~max_solutions ~k faulty tests)
        in
        let t_min =
          time (fun () ->
              Diagnosis.Bsat.diagnose
                ~strategy:Diagnosis.Bsat.Minimize_single_pass ~max_solutions
                ~k faulty tests)
        in
        let t_dom =
          time (fun () ->
              Diagnosis.Advanced_sat.diagnose_dominators ~max_solutions ~k
                faulty tests)
        in
        let t_part =
          time (fun () ->
              Diagnosis.Advanced_sat.diagnose_partitioned ~slice:4
                ~max_solutions ~k faulty tests)
        in
        Fmt.pr "%-10s %2d %3d | %9.3f %9.3f %9.3f %9.3f@."
          spec.Bench_suite.Workload.label k (List.length tests) t_plain t_min
          t_dom t_part
      end)
    specs;
  Fmt.pr "@."

(* ---------- hybrid (§6) ---------- *)

let hybrid cfg =
  Fmt.pr "== Hybrid: BSIM-guided SAT decisions + COV-seed repair ==@.";
  let specs =
    Bench_suite.Workload.small_specs ()
    @ Bench_suite.Workload.paper_specs ~scale:(cfg.scale /. 2.0)
  in
  Fmt.pr "%-10s | %10s %10s | %10s %10s | %s@." "I" "plain(s)" "guided(s)"
    "conflicts" "conflicts" "repair";
  Fmt.pr "%s@." (String.make 78 '-');
  let blocks = ref [] in
  List.iter
    (fun spec ->
      let w = Bench_suite.Workload.prepare spec in
      let faulty = w.Bench_suite.Workload.faulty in
      let tests =
        List.filteri (fun i _ -> i < 8) w.Bench_suite.Workload.tests
      in
      if tests <> [] then begin
        let k = spec.Bench_suite.Workload.num_errors in
        let obs = Obs.create () in
        let h =
          Diagnosis.Hybrid.guided ~max_solutions:200 ~obs ~k faulty tests
        in
        blocks :=
          (spec.Bench_suite.Workload.label, Obs.to_json ~times:false obs)
          :: !blocks;
        let repair_summary =
          let cov = Diagnosis.Hybrid.cov_seed ~k faulty tests in
          match cov.Diagnosis.Cover.solutions with
          | [] -> "no seed"
          | seed :: _ -> (
              let out = Diagnosis.Hybrid.repair ~k ~seed faulty tests in
              match out.Diagnosis.Hybrid.repaired with
              | None -> "unrepairable"
              | Some r ->
                  Printf.sprintf "kept %d, +%d"
                    (List.length r.Diagnosis.Hybrid.kept)
                    r.Diagnosis.Hybrid.added)
        in
        Fmt.pr "%-10s | %10.3f %10.3f | %10d %10d | %s@."
          spec.Bench_suite.Workload.label h.Diagnosis.Hybrid.plain.all_time
          h.Diagnosis.Hybrid.guided.all_time
          h.Diagnosis.Hybrid.plain.stats.Sat.Solver.conflicts
          h.Diagnosis.Hybrid.guided.stats.Sat.Solver.conflicts repair_summary
      end)
    specs;
  add_block "hybrid" (Obs.Json.Obj (List.rev !blocks));
  Fmt.pr "@."

(* ---------- sequential diagnosis (extension, after Ali et al.) -------- *)

let sequential _cfg =
  Fmt.pr "== Sequential diagnosis (time-frame expansion, k=1) ==@.";
  Fmt.pr "%-10s %6s %3s | %10s %8s %8s | %9s %8s@." "machine" "frames" "m"
    "BSIM union" "COV#" "BSAT#" "BSAT(s)" "site-hit";
  Fmt.pr "%s@." (String.make 78 '-');
  let machines =
    [
      ("s27", fun () ->
        Sim.Sequential.of_parsed
          (Netlist.Bench_format.parse_string ~name:"s27"
             Bench_suite.Embedded.s27_text));
      ("seq120", fun () ->
        Bench_suite.Seq_workload.synthetic_machine ~seed:31 ~inputs:14
          ~gates:120 ~outputs:12 ~state:6);
      ("seq400", fun () ->
        Bench_suite.Seq_workload.synthetic_machine ~seed:32 ~inputs:20
          ~gates:400 ~outputs:16 ~state:8);
    ]
  in
  List.iter
    (fun (label, mk) ->
      let machine = mk () in
      let rec try_seed seed =
        if seed > 12 then ()
        else
          match
            Bench_suite.Seq_workload.run ~label ~seed ~frames:4 ~wanted:6
              machine
          with
          | None -> try_seed (seed + 1)
          | Some r ->
              Fmt.pr "%-10s %6d %3d | %10d %8d %8d | %9.3f %8b@."
                r.Bench_suite.Seq_workload.label
                r.Bench_suite.Seq_workload.frames r.Bench_suite.Seq_workload.m
                r.Bench_suite.Seq_workload.bsim_union
                r.Bench_suite.Seq_workload.cov_count
                r.Bench_suite.Seq_workload.bsat_count
                r.Bench_suite.Seq_workload.bsat_time
                r.Bench_suite.Seq_workload.site_hit
      in
      try_seed 1)
    machines;
  Fmt.pr "@."

(* ---------- incremental SAT reuse (§2.3, Zchaff/SATIRE) --------------- *)

let incremental _cfg =
  Fmt.pr "== Incremental SAT: growing the test set 4 -> 8 -> 16 -> 32 ==@.";
  Fmt.pr "%-10s | %12s %12s | %s@." "I" "scratch(s)" "incremental(s)"
    "same solutions";
  Fmt.pr "%s@." (String.make 58 '-');
  let specs =
    Bench_suite.Workload.small_specs ()
    @ Bench_suite.Workload.paper_specs ~scale:0.06
  in
  let blocks = ref [] in
  List.iter
    (fun spec ->
      let w = Bench_suite.Workload.prepare spec in
      let faulty = w.Bench_suite.Workload.faulty in
      let all_tests = w.Bench_suite.Workload.tests in
      if List.length all_tests >= 8 then begin
        let k = spec.Bench_suite.Workload.num_errors in
        let prefix m = List.filteri (fun i _ -> i < m) all_tests in
        let steps = [ 4; 8; 16; 32 ] in
        let cap = 300 in
        (* from scratch at every m *)
        let t0 = Obs.Clock.wall () in
        let scratch =
          List.map
            (fun m ->
              (Diagnosis.Bsat.diagnose ~max_solutions:cap ~k faulty
                 (prefix m))
                .Diagnosis.Bsat.solutions)
            steps
        in
        let scratch_time = Obs.Clock.wall () -. t0 in
        (* one live instance, extended in place *)
        let t1 = Obs.Clock.wall () in
        let inc = Diagnosis.Incremental.create ~k faulty (prefix 4) in
        let grown = ref 4 in
        let incremental =
          List.map
            (fun m ->
              let fresh =
                List.filteri (fun i _ -> i >= !grown && i < m) all_tests
              in
              Diagnosis.Incremental.add_tests inc fresh;
              grown := max !grown m;
              (Diagnosis.Incremental.solutions ~max_solutions:cap inc)
                .Diagnosis.Incremental.outcome)
            steps
        in
        let incremental_time = Obs.Clock.wall () -. t1 in
        let last = List.nth incremental (List.length incremental - 1) in
        let incremental_sols =
          List.map (fun o -> o.Diagnosis.Outcome.solutions) incremental
        in
        let obs = Obs.create () in
        Diagnosis.Telemetry.record_solver_stats obs ~prefix:"incremental"
          (Diagnosis.Incremental.stats inc);
        Obs.add obs "incremental/solutions"
          (List.length (List.concat incremental_sols));
        Obs.add obs "incremental/truncated"
          (if last.Diagnosis.Outcome.truncated then 1 else 0);
        blocks :=
          (spec.Bench_suite.Workload.label, Obs.to_json ~times:false obs)
          :: !blocks;
        let norm = List.map (List.map (List.sort Int.compare)) in
        let capped =
          List.exists (fun s -> List.length s >= cap) scratch
          || List.exists (fun s -> List.length s >= cap) incremental_sols
        in
        let agree =
          if capped then "n/a (capped)"
          else if
            List.for_all2
              (fun a b -> List.sort compare a = List.sort compare b)
              (norm scratch) (norm incremental_sols)
          then "true"
          else "FALSE"
        in
        Fmt.pr "%-10s | %12.3f %12.3f | %s@."
          spec.Bench_suite.Workload.label scratch_time incremental_time agree
      end)
    specs;
  add_block "incremental" (Obs.Json.Obj (List.rev !blocks));
  Fmt.pr "@."

(* ---------- implicit hitting sets vs direct enumeration ---------- *)

(* Both HSDAG heuristics against Bsat on the Table 1 circuits.  The
   report block keeps deterministic counters (cores extracted, nodes
   checked, reuse/prune effectiveness, solver calls); every engine runs
   on one solver, so the block is identical at every --jobs width.
   Wall-clock times are printed only. *)
let hitting _cfg =
  Fmt.pr "== Hitting sets vs BSAT (Table 1 circuits) ==@.";
  Fmt.pr "%-10s | %5s %5s %6s %6s | %8s %8s %8s | %s@." "circuit" "cores"
    "nodes" "reused" "pruned" "bfs(s)" "greedy(s)" "bsat(s)" "agree";
  Fmt.pr "%s@." (String.make 78 '-');
  let specs = Bench_suite.Workload.small_specs () in
  let cap = 300 in
  let blocks = ref [] in
  List.iter
    (fun spec ->
      let w = Bench_suite.Workload.prepare spec in
      let faulty = w.Bench_suite.Workload.faulty in
      let tests =
        List.filteri (fun i _ -> i < 8) w.Bench_suite.Workload.tests
      in
      if tests <> [] then begin
        let k = spec.Bench_suite.Workload.num_errors in
        let bfs =
          Diagnosis.Hitting.diagnose ~heuristic:Diagnosis.Hitting.Bfs
            ~max_solutions:cap ~k faulty tests
        in
        let greedy =
          Diagnosis.Hitting.diagnose ~heuristic:Diagnosis.Hitting.Greedy
            ~max_solutions:cap ~k faulty tests
        in
        let bsat = Diagnosis.Bsat.diagnose ~max_solutions:cap ~k faulty tests in
        let bo = bfs.Diagnosis.Hitting.outcome in
        let go = greedy.Diagnosis.Hitting.outcome in
        (* capped runs are truncated prefixes in engine-specific order, so
           set equality is meaningful only on complete enumerations *)
        let capped = bo.truncated || go.truncated || bsat.truncated in
        let agree =
          capped
          || (bo.solutions = bsat.solutions && go.solutions = bsat.solutions)
        in
        blocks :=
          ( spec.Bench_suite.Workload.label,
            Obs.Json.Obj
              [
                ("solutions", Obs.Json.Int (List.length bo.solutions));
                ("cores", Obs.Json.Int bfs.Diagnosis.Hitting.cores);
                ("nodes", Obs.Json.Int bfs.Diagnosis.Hitting.nodes);
                ("reused", Obs.Json.Int bfs.Diagnosis.Hitting.reused);
                ("pruned", Obs.Json.Int bfs.Diagnosis.Hitting.pruned);
                ("solver_calls", Obs.Json.Int bo.solver_calls);
                ("greedy_cores", Obs.Json.Int greedy.Diagnosis.Hitting.cores);
                ("greedy_nodes", Obs.Json.Int greedy.Diagnosis.Hitting.nodes);
                ("bsat_solver_calls", Obs.Json.Int bsat.Diagnosis.Bsat.solver_calls);
                ("truncated", Obs.Json.Int (if bo.truncated then 1 else 0));
                ("agree", Obs.Json.Int (if agree then 1 else 0));
              ] )
          :: !blocks;
        Fmt.pr "%-10s | %5d %5d %6d %6d | %8.3f %8.3f %8.3f | %s@."
          spec.Bench_suite.Workload.label bfs.Diagnosis.Hitting.cores
          bfs.Diagnosis.Hitting.nodes bfs.Diagnosis.Hitting.reused
          bfs.Diagnosis.Hitting.pruned bo.all_time go.all_time bsat.all_time
          (if capped then "n/a (capped)" else if agree then "true" else "FALSE")
      end)
    specs;
  add_block "hitting" (Obs.Json.Obj (List.rev !blocks));
  Fmt.pr "@."

(* ---------- adaptive sequential diagnosis ---------------------------- *)

(* Tests-to-unique-diagnosis: the paper's fixed regime diagnoses with
   m ∈ {4,8,16,32} pre-generated tests and hopes ambiguity shrinks; the
   adaptive loop starts from m = 4 and *generates* distinguishing tests
   until the answer is unique or provably indistinguishable.  Each cell
   records where the fixed regime first reaches a unique diagnosis
   (sentinel 33 = never, even with all 32 tests) against the adaptive
   loop's total measured tests and its verdict.  All counts are
   deterministic; [agree] re-runs the loop at [cfg.jobs] and demands the
   identical committed sequence. *)
let adaptive cfg =
  Fmt.pr "== Adaptive: generated distinguishing tests vs the fixed regime ==@.";
  Fmt.pr "%-10s | %5s %5s %5s | %6s %6s %6s | %-16s | %s@." "circuit" "fixed"
    "adapt" "rnds" "surv" "twinq" "gen" "verdict" "better";
  Fmt.pr "%s@." (String.make 78 '-');
  let specs =
    Bench_suite.Workload.small_specs ()
    @ [
        {
          Bench_suite.Workload.label = "rand300e4";
          circuit =
            Netlist.Generators.random_dag ~seed:300 ~num_inputs:24
              ~num_gates:300 ~num_outputs:12 ();
          num_errors = 4;
          test_counts = [ 4; 8; 16; 32 ];
          seed = 205;
        };
      ]
  in
  let cap = 300 in
  let never = 33 (* sentinel: > every m of the fixed regime *) in
  let blocks = ref [] in
  let wins_le2 = ref 0 and cells_le2 = ref 0 in
  List.iter
    (fun spec ->
      let w = Bench_suite.Workload.prepare spec in
      let golden = spec.Bench_suite.Workload.circuit in
      let faulty = w.Bench_suite.Workload.faulty in
      let all_tests = w.Bench_suite.Workload.tests in
      let k = spec.Bench_suite.Workload.num_errors in
      let prefix m = List.filteri (fun i _ -> i < m) all_tests in
      if prefix 4 <> [] then begin
        (* fixed regime: first m whose enumeration is a singleton *)
        let fixed_first_unique =
          List.fold_left
            (fun acc m ->
              if acc < never then acc
              else
                let r =
                  Diagnosis.Bsat.diagnose ~max_solutions:cap ~k faulty
                    (prefix m)
                in
                if
                  (not r.Diagnosis.Bsat.truncated)
                  && List.length r.Diagnosis.Bsat.solutions = 1
                then m
                else acc)
            never spec.Bench_suite.Workload.test_counts
        in
        (* adaptive loop from the same 4-test prefix; the conflicts
           budget is a deterministic safety net for the large cells *)
        let run jobs =
          let budget = Sat.Budget.create ~conflicts:2_000_000 () in
          Diagnosis.Adaptive.diagnose ~budget ~max_solutions:cap ~jobs ~k
            ~golden faulty (prefix 4)
        in
        let r = run 1 in
        let definitive =
          match r.Diagnosis.Adaptive.verdict with
          | Diagnosis.Adaptive.Unique | Diagnosis.Adaptive.Indistinguishable ->
              true
          | _ -> false
        in
        let total =
          r.Diagnosis.Adaptive.initial_tests
          + r.Diagnosis.Adaptive.tests_committed
        in
        let better = definitive && total < fixed_first_unique in
        (* a capped (truncated) run is a width-dependent prefix, so the
           cross-width identity is only meaningful on complete runs —
           same caveat as the hitting experiment's capped cells *)
        let agree =
          cfg.jobs = 1
          || r.Diagnosis.Adaptive.outcome.truncated
          ||
          let rn = run cfg.jobs in
          rn.Diagnosis.Adaptive.outcome.solutions = r.Diagnosis.Adaptive.outcome.solutions
          && rn.Diagnosis.Adaptive.verdict = r.Diagnosis.Adaptive.verdict
          && List.map
               (fun rd -> rd.Diagnosis.Adaptive.vector)
               rn.Diagnosis.Adaptive.rounds
             = List.map
                 (fun rd -> rd.Diagnosis.Adaptive.vector)
                 r.Diagnosis.Adaptive.rounds
        in
        if k <= 2 then begin
          incr cells_le2;
          if better then incr wins_le2
        end;
        let verdict_name =
          match r.Diagnosis.Adaptive.verdict with
          | Diagnosis.Adaptive.Unique -> "unique"
          | Diagnosis.Adaptive.No_diagnosis -> "no-diagnosis"
          | Diagnosis.Adaptive.Indistinguishable -> "indistinguish."
          | Diagnosis.Adaptive.Stalled -> "stalled"
          | Diagnosis.Adaptive.Exhausted -> "exhausted"
        in
        blocks :=
          ( spec.Bench_suite.Workload.label,
            Obs.Json.Obj
              [
                ( "initial_tests",
                  Obs.Json.Int r.Diagnosis.Adaptive.initial_tests );
                ("generated", Obs.Json.Int r.Diagnosis.Adaptive.tests_committed);
                ("total_tests", Obs.Json.Int total);
                ( "rounds",
                  Obs.Json.Int (List.length r.Diagnosis.Adaptive.rounds) );
                ( "survivors",
                  Obs.Json.Int (List.length r.Diagnosis.Adaptive.outcome.solutions) );
                ("twin_calls", Obs.Json.Int r.Diagnosis.Adaptive.twin_calls);
                ( "unique",
                  Obs.Json.Int
                    (if r.Diagnosis.Adaptive.verdict = Diagnosis.Adaptive.Unique
                     then 1
                     else 0) );
                ( "indistinguishable",
                  Obs.Json.Int
                    (if
                       r.Diagnosis.Adaptive.verdict
                       = Diagnosis.Adaptive.Indistinguishable
                     then 1
                     else 0) );
                ("fixed_first_unique", Obs.Json.Int fixed_first_unique);
                ("adaptive_better", Obs.Json.Int (if better then 1 else 0));
                ( "truncated",
                  Obs.Json.Int (if r.Diagnosis.Adaptive.outcome.truncated then 1 else 0)
                );
                ("agree", Obs.Json.Int (if agree then 1 else 0));
              ] )
          :: !blocks;
        Fmt.pr "%-10s | %5s %5d %5d | %6d %6d %6d | %-16s | %s@."
          spec.Bench_suite.Workload.label
          (if fixed_first_unique = never then ">32"
           else string_of_int fixed_first_unique)
          total
          (List.length r.Diagnosis.Adaptive.rounds)
          (List.length r.Diagnosis.Adaptive.outcome.solutions)
          r.Diagnosis.Adaptive.twin_calls r.Diagnosis.Adaptive.tests_committed
          verdict_name
          (if agree then (if better then "true" else "false") else "DISAGREE")
      end)
    specs;
  blocks :=
    ( "summary",
      Obs.Json.Obj
        [
          ("wins_le2", Obs.Json.Int !wins_le2);
          ("cells_le2", Obs.Json.Int !cells_le2);
        ] )
    :: !blocks;
  add_block "adaptive" (Obs.Json.Obj (List.rev !blocks));
  Fmt.pr "adaptive beats the fixed regime on %d/%d cells with <= 2 errors@.@."
    !wins_le2 !cells_le2

(* ---------- diagnosis as a service (warm pooled contexts) ------------- *)

(* Throughput of the serve layer on a repeat-circuit stream: one batch
   of g38417 requests served cold (fresh server — every request
   generates tests and encodes from scratch) and then warm (same
   server, same batch — every request hits a pooled incremental
   context).  Wall-clock rates are printed only; the report block keeps
   the deterministic counts and the warm-equals-cold verdict, so
   BENCH_report.json stays diffable. *)
let serve cfg =
  Fmt.pr "== Serve: cold vs warm on a repeat-circuit stream (g38417) ==@.";
  let circuit = Bench_suite.Embedded.g38417 ~scale:cfg.scale () in
  let resolve = function
    | "g38417" -> circuit
    | name -> Fmt.failwith "unknown circuit %S" name
  in
  let n = 6 in
  let requests =
    List.init n (fun i ->
        {
          Core.Serve.Protocol.id = None;
          circuit = "g38417";
          faulty = None;
          errors = 1;
          seed = i + 1;
          k = None;
          tests = 8;
          max_solutions = 10_000;
          budget = None;
          certify = false;
          stats = false;
        })
  in
  let batch = Core.Serve.Protocol.Batch { id = None; requests } in
  (* a batch response's per-request solution lists, as canonical text *)
  let solutions_of resp =
    match Obs.Json.member "responses" resp with
    | Some (Obs.Json.Arr rs) ->
        List.map
          (fun r ->
            match Obs.Json.member "solutions" r with
            | Some s -> Obs.Json.to_string s
            | None -> "<missing>")
          rs
    | _ -> []
  in
  let count_solutions resp =
    match Obs.Json.member "responses" resp with
    | Some (Obs.Json.Arr rs) ->
        List.fold_left
          (fun acc r ->
            match Obs.Json.member "solutions" r with
            | Some (Obs.Json.Arr ss) -> acc + List.length ss
            | _ -> acc)
          0 rs
    | _ -> 0
  in
  let widths = if cfg.jobs > 1 then [ 1; cfg.jobs ] else [ 1 ] in
  Fmt.pr "%5s | %10s %10s | %8s | %s@." "jobs" "cold r/s" "warm r/s" "speedup"
    "warm = cold";
  Fmt.pr "%s@." (String.make 56 '-');
  let agree_all = ref true in
  let widths_agree = ref true in
  let reference = ref None in
  let total = ref 0 in
  List.iter
    (fun jobs ->
      let server = Core.Serve.Server.create ~jobs resolve in
      let t0 = Obs.Clock.wall () in
      let cold, _ = Core.Serve.Server.handle server batch in
      let t1 = Obs.Clock.wall () in
      let warm, _ = Core.Serve.Server.handle server batch in
      let t2 = Obs.Clock.wall () in
      let cold_rate = float_of_int n /. Float.max 1e-9 (t1 -. t0) in
      let warm_rate = float_of_int n /. Float.max 1e-9 (t2 -. t1) in
      let agree = solutions_of cold = solutions_of warm in
      agree_all := !agree_all && agree;
      (match !reference with
      | None ->
          reference := Some (solutions_of warm);
          total := count_solutions warm
      | Some r -> widths_agree := !widths_agree && solutions_of warm = r);
      Fmt.pr "%5d | %10.2f %10.2f | %7.1fx | %b@." jobs cold_rate warm_rate
        (warm_rate /. cold_rate) agree)
    widths;
  add_block "serve"
    (Obs.Json.Obj
       [
         ("requests", Obs.Json.Int n);
         ("cold_misses", Obs.Json.Int n);
         ("warm_hits", Obs.Json.Int n);
         ("solutions", Obs.Json.Int !total);
         ("warm_equals_cold", Obs.Json.Int (if !agree_all then 1 else 0));
         ("widths_agree", Obs.Json.Int (if !widths_agree then 1 else 0));
       ]);
  Fmt.pr "@."

(* ---------- related work: BDD space complexity (§1) ------------------- *)

let related _cfg =
  Fmt.pr "== Related work: BDD space vs SAT time (§1's space-complexity \
          claim) ==@.";
  Fmt.pr "%-8s %6s | %10s %9s | %9s %9s@." "circuit" "gates" "BDD nodes"
    "BDD(s)" "miter(s)" "BSAT-1(s)";
  Fmt.pr "%s@." (String.make 62 '-');
  List.iter
    (fun w ->
      let c = Netlist.Generators.multiplier w in
      let gates = Array.length (Netlist.Circuit.gate_ids c) in
      let t0 = Obs.Clock.wall () in
      let m = Bdd.manager () in
      ignore (Bdd.of_circuit m c);
      let bdd_time = Obs.Clock.wall () -. t0 in
      let nodes = Bdd.live_nodes m in
      let faulty, _ = Sim.Injector.inject ~seed:(w * 7) ~num_errors:1 c in
      let t1 = Obs.Clock.wall () in
      ignore (Encode.Miter.check ~spec:c ~impl:faulty);
      let miter_time = Obs.Clock.wall () -. t1 in
      let tests =
        Sim.Testgen.generate ~seed:w ~max_vectors:4096 ~wanted:8 ~golden:c
          ~faulty
      in
      let t2 = Obs.Clock.wall () in
      if tests <> [] then
        ignore (Diagnosis.Bsat.first_solution ~k:1 faulty tests);
      let bsat_time = Obs.Clock.wall () -. t2 in
      Fmt.pr "mul%-5d %6d | %10d %9.3f | %9.3f %9.3f@." w gates nodes
        bdd_time miter_time bsat_time)
    [ 2; 3; 4; 5; 6 ];
  Fmt.pr "(BDD nodes grow superlinearly with multiplier width; the SAT \
          instance stays linear in |I|.)@.@."

(* ---------- resolution: random vs ATPG test sets (extension) ---------- *)

let resolution _cfg =
  Fmt.pr "== Resolution: random vs deterministic (ATPG) test sets ==@.";
  Fmt.pr "%-8s %2s | %6s %8s %8s | %6s %8s %8s@." "I" "p" "m" "#sol"
    "avg-dist" "m" "#sol" "avg-dist";
  Fmt.pr "%-8s %2s | %24s | %24s@." "" "" "random" "ATPG (stuck-at set)";
  Fmt.pr "%s@." (String.make 66 '-');
  List.iter
    (fun (label, golden, p, seed) ->
      let faulty, errors = Sim.Injector.inject ~seed ~num_errors:p golden in
      let sites = Sim.Fault.sites errors in
      let atpg = Diagnosis.Atpg.cover_stuck_at golden in
      let atpg_tests =
        Sim.Testgen.from_vectors ~golden ~faulty
          atpg.Diagnosis.Atpg.tests
      in
      let random_tests =
        Sim.Testgen.generate ~seed:(seed + 1) ~max_vectors:4096
          ~wanted:(max 1 (List.length atpg_tests))
          ~golden ~faulty
      in
      if atpg_tests <> [] && random_tests <> [] then begin
        let measure tests =
          let r =
            Diagnosis.Bsat.diagnose ~max_solutions:2000 ~k:p faulty tests
          in
          let q =
            Diagnosis.Metrics.solutions_quality faulty ~error_sites:sites
              r.Diagnosis.Bsat.solutions
          in
          (List.length tests, q.Diagnosis.Metrics.count,
           q.Diagnosis.Metrics.avg_avg)
        in
        let rm, rc, rd = measure random_tests in
        let am, ac, ad = measure atpg_tests in
        Fmt.pr "%-8s %2d | %6d %8d %8.2f | %6d %8d %8.2f@." label p rm rc rd
          am ac ad
      end)
    [
      ("alu4", Netlist.Generators.alu 4, 1, 91);
      ("mul4", Netlist.Generators.multiplier 4, 2, 92);
      ("cla6", Netlist.Generators.carry_lookahead_adder 6, 1, 93);
      ("rand200",
       Netlist.Generators.random_dag ~seed:55 ~num_inputs:16 ~num_gates:200
         ~num_outputs:8 (),
       2, 94);
    ];
  Fmt.pr "@."

(* ---------- pigeonhole refutations (micro and checksmoke) ---------- *)

(* [p] pigeons in [h] holes: unsatisfiable whenever p > h *)
let php p h =
  let f = Sat.Cnf.create () in
  let var pi hi = Sat.Lit.pos ((pi * h) + hi) in
  for pi = 0 to p - 1 do
    Sat.Cnf.add_clause f (List.init h (fun hi -> var pi hi))
  done;
  for hi = 0 to h - 1 do
    for p1 = 0 to p - 1 do
      for p2 = p1 + 1 to p - 1 do
        Sat.Cnf.add_clause f
          [ Sat.Lit.negate (var p1 hi); Sat.Lit.negate (var p2 hi) ]
      done
    done
  done;
  f

(* the DRUP proof of a pigeonhole refutation *)
let php_proof cnf =
  let s = Sat.Solver.create () in
  let p = Sat.Proof.in_memory () in
  Sat.Solver.set_proof s (Some p);
  Sat.Solver.add_cnf s cnf;
  assert (Sat.Solver.solve s = Sat.Solver.Unsat);
  p

(* ---------- micro: fault-simulation and proof counters ---------- *)

(* No-drop stuck-at fault simulation of 64 random vectors on the paper
   circuits, run on [cfg.jobs] domains, and the DRUP proof of a
   pigeonhole refutation checked in both modes.  Every leaf is a
   deterministic count; wall time is perfbench's. *)
let micro cfg =
  let rng = Random.State.make [| 0xB17 |] in
  Fmt.pr "== Micro counters (fault simulation at jobs=%d, proof) ==@."
    cfg.jobs;
  Fmt.pr "  %-8s %6s %6s %8s@." "circuit" "gates" "faults" "detected";
  let cells =
    Bench_suite.Workload.paper_specs ~scale:cfg.scale
    |> List.map (fun spec ->
           let c = spec.Bench_suite.Workload.circuit in
           let ni = Netlist.Circuit.num_inputs c in
           (* the recorded vectors follow one scalar and one word-wide
              input draw per circuit; drawing them keeps the stream *)
           ignore (Array.init ni (fun _ -> Random.State.bool rng));
           ignore
             (Array.init ni (fun _ -> Random.State.int64 rng Int64.max_int));
           let vectors =
             List.init 64 (fun _ ->
                 Array.init ni (fun _ -> Random.State.bool rng))
           in
           let faults = Sim.Stuck_at.all_faults c in
           let sim =
             Sim.Fault_sim.run ~drop:false ~jobs:cfg.jobs c ~vectors ~faults
           in
           let gates = Netlist.Circuit.size c
           and nf = List.length faults
           and detected = List.length sim.Sim.Fault_sim.detected in
           Fmt.pr "  %-8s %6d %6d %8d@." spec.Bench_suite.Workload.label gates
             nf detected;
           ( spec.Bench_suite.Workload.label,
             Obs.Json.Obj
               [
                 ("gates", Obs.Json.Int gates);
                 ("faults", Obs.Json.Int nf);
                 ("detected", Obs.Json.Int detected);
               ] ))
  in
  let cnf = php 6 5 in
  let steps = Sat.Proof.steps (php_proof cnf) in
  let verified =
    List.for_all
      (fun mode -> Sat.Drup_check.check_unsat ~mode cnf steps = Ok ())
      [ Sat.Drup_check.Forward; Sat.Drup_check.Backward ]
  in
  Fmt.pr "  proof (php 6/5): %d steps, verified %b@.@." (Array.length steps)
    verified;
  add_block "micro"
    (Obs.Json.Obj
       (cells
       @ [
           ( "proof",
             Obs.Json.Obj
               [
                 ("steps", Obs.Json.Int (Array.length steps));
                 ("verified", Obs.Json.Int (Bool.to_int verified));
               ] );
         ]))

(* ---------- checker-performance smoke lane ---------- *)

(* The certified-diagnosis row: certified over plain BSAT on the quick
   g1423 cell at m = 8, cap 2000, each the fastest of [runs] alternating
   runs (other load on the machine only adds time).  Certification adds
   the checks of the proof steps and one model check per Sat answer.
   With the incremental model check the ratio read 2.0-2.5 over 12 runs
   on a shared 2-core machine; rescanning every input clause on every
   answer read 3.4-4.0.  Returns whether the row passed. *)
let certified_row () =
  let max_ratio = 3.0 and runs = 7 in
  let spec =
    List.find
      (fun s -> s.Bench_suite.Workload.label = "g1423")
      (Bench_suite.Workload.paper_specs ~scale:quick.scale)
  in
  let p = Bench_suite.Workload.prepare spec in
  let tests = List.filteri (fun i _ -> i < 8) p.Bench_suite.Workload.tests in
  let run certify =
    let t0 = Obs.Clock.wall () in
    let r =
      Diagnosis.Bsat.diagnose ~certify ~max_solutions:2000
        ~k:spec.Bench_suite.Workload.num_errors p.Bench_suite.Workload.faulty
        tests
    in
    (Obs.Clock.wall () -. t0, r)
  in
  (* a warm-up run, which must certify too *)
  let certified_ok =
    ref ((snd (run true)).Diagnosis.Bsat.cert_failures = [])
  in
  let plain = ref [] and certified = ref [] in
  for _ = 1 to runs do
    plain := fst (run false) :: !plain;
    let dt, r = run true in
    certified := dt :: !certified;
    if r.Diagnosis.Bsat.cert_failures <> [] then certified_ok := false
  done;
  let fastest = List.fold_left Float.min infinity in
  let t_plain = fastest !plain and t_cert = fastest !certified in
  let ratio = t_cert /. t_plain in
  let ok = !certified_ok && ratio <= max_ratio in
  Fmt.pr
    "  %-6s g1423 m=8 | plain %8.3f ms  certified %8.3f ms  ratio %5.2fx \
     (max %.1fx)%s  %s@."
    "bsat" (1e3 *. t_plain) (1e3 *. t_cert) ratio max_ratio
    (if !certified_ok then "" else "  certificate failures")
    (if ok then "ok" else "FAIL");
  ok

(* Solves a few fixed pigeonhole refutations with DRUP logging and
   replays each proof through the independent checker in backward,
   needed-set mode, failing loudly if checking costs more than
   [max_ratio] times the solve+log.  Certification (Encode.Certifier)
   replays its proofs forward, step by step, so the pigeonhole rows gate
   the checker's backward mode; the certified-diagnosis row above gates
   what certification costs a diagnosis run.  A CI gate rather than a
   measurement, so it is not part of the default experiment set; run it
   explicitly with `bench/main.exe -- checksmoke`.  On failure the
   offending proof is written next to the report so the regression is
   reproducible with `satsolve --check`. *)
let checksmoke _cfg =
  let max_ratio = 2.5 in
  let instances = [ ("php5", php 5 4); ("php6", php 6 5); ("php7", php 7 6) ] in
  Fmt.pr "== Checker smoke (fail if check/solve ratio > %.1fx) ==@." max_ratio;
  let failed = ref false in
  List.iter
    (fun (label, cnf) ->
      (* seconds per run of [f], timed over at least 0.3 s *)
      let time f =
        ignore (f ());
        let start = Obs.Clock.wall () in
        let reps = ref 0 in
        while Obs.Clock.wall () -. start < 0.3 do
          ignore (f ());
          incr reps
        done;
        (Obs.Clock.wall () -. start) /. float_of_int !reps
      in
      let proof = php_proof cnf in
      let steps = Sat.Proof.steps proof in
      let t_solve = time (fun () -> php_proof cnf) in
      let t_check =
        time (fun () ->
            assert (
              Sat.Drup_check.check_unsat ~mode:Sat.Drup_check.Backward cnf
                steps
              = Ok ()))
      in
      let ratio = t_check /. t_solve in
      let bad = ratio > max_ratio in
      Fmt.pr
        "  %-6s %5d steps | solve %8.3f ms  check %8.3f ms  ratio %5.2fx  \
         %s@."
        label (Array.length steps) (1e3 *. t_solve) (1e3 *. t_check) ratio
        (if bad then "FAIL" else "ok");
      if bad then begin
        failed := true;
        let file = Printf.sprintf "BENCH_checksmoke_%s.drup" label in
        let oc = open_out file in
        output_string oc (Sat.Proof.to_string proof);
        close_out oc;
        Fmt.pr "  wrote offending proof to %s@." file
      end)
    instances;
  if not (certified_row ()) then failed := true;
  Fmt.pr "@.";
  if !failed then exit 1

(* ---------- driver ---------- *)

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* compare the blocks just collected against a committed baseline
   (BENCH_baseline.json); any drift beyond tolerance is a regression *)
let check_baseline file fresh =
  match Obs.Json.parse (read_file file) with
  | Error e ->
      Fmt.epr "baseline %s does not parse: %s@." file e;
      exit 1
  | exception Sys_error e ->
      Fmt.epr "cannot read baseline %s: %s@." file e;
      exit 1
  | Ok baseline -> (
      match Bench_suite.Baseline.check_report ~baseline ~fresh with
      | Error e ->
          Fmt.epr "baseline %s is malformed: %s@." file e;
          exit 1
      | Ok outcome ->
          Fmt.pr "%a" Bench_suite.Baseline.pp_outcome outcome;
          if outcome.Bench_suite.Baseline.violations <> [] then exit 1)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let is_full = List.mem "--full" args in
  let cfg = if is_full then full else quick in
  let jobs, args =
    let rec split acc = function
      | [] -> (1, List.rev acc)
      | "--jobs" :: n :: rest -> (
          match int_of_string_opt n with
          | Some n when n >= 1 -> (n, List.rev acc @ rest)
          | _ ->
              Fmt.epr "--jobs needs a positive integer argument@.";
              exit 2)
      | "--jobs" :: [] ->
          Fmt.epr "--jobs needs a positive integer argument@.";
          exit 2
      | a :: rest -> split (a :: acc) rest
    in
    split [] args
  in
  let cfg = { cfg with jobs } in
  let baseline_file, selected =
    let rec split acc = function
      | [] -> (None, List.rev acc)
      | "--baseline" :: file :: rest -> (Some file, List.rev acc @ rest)
      | "--baseline" :: [] ->
          Fmt.epr "--baseline needs a FILE argument@.";
          exit 2
      | a :: rest -> split (a :: acc) rest
    in
    split [] (List.filter (fun a -> a <> "--full") args)
  in
  let all =
    [ ("table1", table1); ("table2", table2); ("table3", table3);
      ("figure5", figure5); ("figure6", figure6); ("ablation", ablation);
      ("hybrid", hybrid); ("sequential", sequential); ("incremental", incremental);
      ("hitting", hitting); ("adaptive", adaptive); ("serve", serve);
      ("related", related);
      ("resolution", resolution); ("micro", micro) ]
  in
  (* selectable by name but excluded from the default sweep: gates that
     exit nonzero rather than measure *)
  let extra = [ ("checksmoke", checksmoke) ] in
  let to_run =
    match selected with
    | [] | [ "all" ] -> all
    | names ->
        List.map
          (fun n ->
            match List.assoc_opt n (all @ extra) with
            | Some f -> (n, f)
            | None ->
                Fmt.epr "unknown experiment %S (available: %s)@." n
                  (String.concat ", "
                     (List.map fst all @ List.map fst extra));
                exit 2)
          names
  in
  List.iter (fun (_, f) -> f cfg) to_run;
  match !report_blocks with
  | [] ->
      (match baseline_file with
      | None -> ()
      | Some _ ->
          Fmt.epr
            "--baseline: the selected experiments collected no stats blocks@.";
          exit 1)
  | blocks ->
      let json =
        Obs.Json.Obj
          [
            ("scale", Obs.Json.Float cfg.scale);
            ("experiments", Obs.Json.Obj blocks);
          ]
      in
      let text = Obs.Json.to_string json in
      (* the report must stay parseable: every block goes through the
         same strict parser the CI smoke-check uses *)
      (match Obs.Json.parse text with
      | Ok _ -> ()
      | Error e -> Fmt.failwith "BENCH_report.json does not round-trip: %s" e);
      let oc = open_out "BENCH_report.json" in
      output_string oc text;
      output_char oc '\n';
      close_out oc;
      Fmt.pr "wrote BENCH_report.json (%d stats block(s))@."
        (List.length blocks);
      Option.iter (fun file -> check_baseline file json) baseline_file
