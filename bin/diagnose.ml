(* Command-line front-end for the diagnosis library.

   Circuits are given either as an ISCAS89 .bench file path or as one of
   the built-in names (s27, g1423, g6669, g38417, rca<W>, alu<W>, mul<W>,
   parity<N>).  See `diagnose --help`. *)

let load_circuit ?(scale = 1.0) spec =
  if Sys.file_exists spec then
    (Core.Bench_format.parse_file spec).Core.Bench_format.circuit
  else
    match Bench_suite.Embedded.by_name spec ~scale with
    | c -> c
    | exception Not_found ->
        let prefix p =
          if String.length spec > String.length p
             && String.sub spec 0 (String.length p) = p
          then int_of_string_opt
                 (String.sub spec (String.length p)
                    (String.length spec - String.length p))
          else None
        in
        (match (prefix "rca", prefix "alu", prefix "mul", prefix "parity") with
        | Some w, _, _, _ -> Core.Generators.ripple_carry_adder w
        | _, Some w, _, _ -> Core.Generators.alu w
        | _, _, Some w, _ -> Core.Generators.multiplier w
        | _, _, _, Some n -> Core.Generators.parity_tree n
        | None, None, None, None ->
            Fmt.failwith "unknown circuit %S (not a file or builtin)" spec)

let pp_solution c ppf sol =
  Fmt.pf ppf "{%a}"
    (Fmt.list ~sep:(Fmt.any ", ") Fmt.string)
    (List.map (fun g -> c.Core.Circuit.names.(g)) sol)

(* ---------- info ---------- *)

let info_cmd_run spec scale =
  let c = load_circuit ~scale spec in
  Fmt.pr "%a@." Core.Circuit.pp_stats c;
  let dom = Core.Dominators.compute c in
  Fmt.pr "dominator skeleton: %d gates@."
    (List.length (Core.Dominators.nontrivial dom));
  0

(* ---------- generate ---------- *)

let generate_cmd_run spec scale out =
  let c = load_circuit ~scale spec in
  Core.Bench_format.write_file out c;
  Fmt.pr "wrote %s (%a)@." out Core.Circuit.pp_stats c;
  0

(* ---------- inject ---------- *)

let inject_cmd_run spec scale errors seed out =
  let c = load_circuit ~scale spec in
  let faulty, errs = Core.Injector.inject ~seed ~num_errors:errors c in
  List.iter (fun e -> Fmt.pr "injected %a@." (Core.Fault.pp c) e) errs;
  Core.Bench_format.write_file out faulty;
  Fmt.pr "wrote %s@." out;
  0

(* ---------- run (diagnosis) ---------- *)

(* what one --method arm needs; [sim_budget] is the seconds allowance
   alone, for the simulation-side engines (COV, advanced simulation, the
   hybrid's COV seed): a conflict cap bounds the solver-backed steps *)
type env = {
  golden : Core.Circuit.t;
  faulty : Core.Circuit.t;
  tests : Core.Testgen.test list;
  k : int;
  max_solutions : int;
  budget : Core.Budget.t option;
  sim_budget : Core.Budget.t option;
  obs : Core.Obs.t option;
  certify : bool;
  jobs : int;
  heuristic : Core.Hitting.heuristic option;
}

let truncation_notice truncated =
  if truncated then
    Fmt.pr
      "budget exhausted: enumeration truncated (solutions above are still \
       valid)@."

(* an arm's solution lines, under [heading] *)
let listed e heading (o : Core.Outcome.t) =
  Fmt.pr "%s: %d solution(s)@." heading (List.length o.solutions);
  List.iter
    (fun sol ->
      let valid = Core.Validity.check_sat e.faulty e.tests sol in
      Fmt.pr "  %a%s@." (pp_solution e.faulty) sol
        (if valid then "" else "  [not a valid correction]"))
    o.solutions;
  Some o

let verdict k = function
  | Core.Adaptive.Unique -> "unique diagnosis"
  | Core.Adaptive.No_diagnosis ->
      Printf.sprintf "no correction of size <= %d" k
  | Core.Adaptive.Indistinguishable -> "survivors provably indistinguishable"
  | Core.Adaptive.Stalled -> "stalled (no vector splits the survivors)"
  | Core.Adaptive.Exhausted -> "exhausted (budget or round limit)"

(* One row per --method: its name, whether it certifies its answers
   (--certify), and the arm, which runs the engine and prints its lines.
   An arm hands back the outcome whose truncation notice and
   certification result the run reports ([None]: nothing to report). *)
type meth = {
  name : string;
  certifies : bool;
  run : env -> Core.Outcome.t option;
}

let bsim e =
  let r = Core.Bsim.diagnose ?obs:e.obs ~jobs:e.jobs e.faulty e.tests in
  Fmt.pr "BSIM: |union|=%d, max marks=%d@."
    (List.length r.Core.Bsim.union)
    r.Core.Bsim.max_marks;
  Fmt.pr "G_max = %a@." (pp_solution e.faulty) r.Core.Bsim.gmax;
  None

let cov e =
  let r =
    Core.Cover.diagnose ~max_solutions:e.max_solutions ?budget:e.sim_budget
      ?obs:e.obs ~jobs:e.jobs ~k:e.k e.faulty e.tests
  in
  listed e "COV"
    { Core.Outcome.empty with solutions = r.solutions; truncated = r.truncated }

let bsat e =
  listed e "BSAT"
    (Core.Bsat.diagnose ~max_solutions:e.max_solutions ?budget:e.budget
       ?obs:e.obs ~certify:e.certify ~k:e.k e.faulty e.tests)

let advsim e =
  let r =
    Core.Advanced_sim.diagnose ~max_solutions:e.max_solutions
      ?budget:e.sim_budget ~k:e.k e.faulty e.tests
  in
  listed e "advanced-sim"
    { Core.Outcome.empty with solutions = r.solutions; truncated = r.truncated }

let advsat e =
  listed e "advanced-sat (2-pass)"
    (Core.Advanced_sat.diagnose_dominators ~max_solutions:e.max_solutions
       ?budget:e.budget ?obs:e.obs ~certify:e.certify ~k:e.k e.faulty e.tests)
      .Core.Advanced_sat.outcome

let hybrid e =
  let cov =
    Core.Hybrid.cov_seed ?budget:e.sim_budget ?obs:e.obs ~jobs:e.jobs ~k:e.k
      e.faulty e.tests
  in
  match cov.Core.Cover.solutions with
  | [] ->
      Fmt.pr "no COV seed available@.";
      truncation_notice cov.Core.Cover.truncated;
      None
  | seed :: _ ->
      Fmt.pr "COV seed: %a@." (pp_solution e.faulty) seed;
      let r =
        Core.Hybrid.repair ?budget:e.budget ?obs:e.obs ~certify:e.certify
          ~jobs:e.jobs ~k:e.k ~seed e.faulty e.tests
      in
      (match r.Core.Hybrid.repaired with
      | None when r.Core.Hybrid.outcome.truncated -> ()
      | None -> Fmt.pr "no valid correction of size <= %d@." e.k
      | Some rr ->
          Fmt.pr "repaired: %a (dropped %d, added %d)@."
            (pp_solution e.faulty) rr.Core.Hybrid.correction
            rr.Core.Hybrid.dropped rr.Core.Hybrid.added);
      (* the seed enumeration is capped at one solution on purpose, so
         its truncated flag is not an exhaustion signal: the notice
         reports the repair's *)
      Some r.Core.Hybrid.outcome

let xlist e =
  let r = Core.Xlist.diagnose e.faulty e.tests in
  Fmt.pr "Xlist: |union|=%d@." (List.length r.Core.Xlist.union);
  None

(* the exact engine `diagnose serve` runs per request, on a cold context
   — a served response's stats block is byte-identical to this run's *)
let incremental e =
  let inc =
    Core.Incremental.create ?obs:e.obs ~certify:e.certify ~k:e.k e.faulty
      e.tests
  in
  listed e "incremental"
    (Core.Serve.Engine.run ?obs:e.obs ?budget:e.budget
       ~max_solutions:e.max_solutions inc)
      .Core.Incremental.outcome

let hitting e =
  let r =
    Core.Hitting.diagnose ?heuristic:e.heuristic
      ~max_solutions:e.max_solutions ?budget:e.budget ?obs:e.obs
      ~certify:e.certify ~k:e.k e.faulty e.tests
  in
  let o = listed e "HITTING" r.Core.Hitting.outcome in
  Fmt.pr "cores=%d nodes=%d reused=%d pruned=%d@." r.Core.Hitting.cores
    r.Core.Hitting.nodes r.Core.Hitting.reused r.Core.Hitting.pruned;
  o

let adaptive e =
  let r =
    Core.Adaptive.diagnose ~max_solutions:e.max_solutions ?budget:e.budget
      ?obs:e.obs ~certify:e.certify ~jobs:e.jobs ~k:e.k ~golden:e.golden
      e.faulty e.tests
  in
  List.iter
    (fun (round : Core.Adaptive.round) ->
      Fmt.pr
        "round: %d -> %d survivor(s), %d new test(s), killed %d (entropy \
         %.3f)@."
        round.survivors_before round.survivors_after
        (List.length round.triples)
        (List.length round.killed) round.score)
    r.Core.Adaptive.rounds;
  Fmt.pr "adaptive: %d initial + %d generated test(s), %d twin quer%s@."
    r.Core.Adaptive.initial_tests r.Core.Adaptive.tests_committed
    r.Core.Adaptive.twin_calls
    (if r.Core.Adaptive.twin_calls = 1 then "y" else "ies");
  Fmt.pr "verdict: %s@." (verdict e.k r.Core.Adaptive.verdict);
  listed e "ADAPTIVE" r.Core.Adaptive.outcome

let methods =
  [
    { name = "bsim"; certifies = false; run = bsim };
    { name = "cov"; certifies = false; run = cov };
    { name = "bsat"; certifies = true; run = bsat };
    { name = "advsim"; certifies = false; run = advsim };
    { name = "advsat"; certifies = true; run = advsat };
    { name = "hybrid"; certifies = true; run = hybrid };
    { name = "xlist"; certifies = false; run = xlist };
    { name = "incremental"; certifies = true; run = incremental };
    { name = "hitting"; certifies = true; run = hitting };
    { name = "adaptive"; certifies = true; run = adaptive };
  ]

(* with --certify: the verified-answer count or the failures (exit 3) *)
let certification meth = function
  | Some (o : Core.Outcome.t) when meth.certifies ->
      if o.cert_failures = [] then begin
        Fmt.pr "certified: %d solver answer(s) verified@." o.cert_checks;
        0
      end
      else begin
        Fmt.pr "CERTIFICATION FAILED (%d check(s)):@." o.cert_checks;
        List.iter (fun msg -> Fmt.pr "  %s@." msg) o.cert_failures;
        3
      end
  | _ ->
      Fmt.pr "certification not supported for this method@.";
      0

let run_cmd_run golden_spec faulty_spec scale errors seed meth heuristic k
    m max_solutions stats trace_out budget_seconds budget_conflicts certify
    jobs =
  (* flags that only one method honors are rejected, not ignored: a
     silently dropped flag reads as a different experiment than it ran *)
  if heuristic <> None && meth.name <> "hitting" then
    Fmt.failwith "--heuristic only applies to --method hitting";
  let golden = load_circuit ~scale golden_spec in
  let faulty, injected =
    match faulty_spec with
    | Some spec -> (load_circuit ~scale spec, [])
    | None ->
        let f, errs = Core.Injector.inject ~seed ~num_errors:errors golden in
        List.iter (fun e -> Fmt.pr "injected %a@." (Core.Fault.pp golden) e) errs;
        (f, errs)
  in
  let tests =
    Core.Testgen.generate ~seed:(seed + 1) ~max_vectors:(1 lsl 16) ~wanted:m
      ~golden ~faulty
  in
  Fmt.pr "%d failing test(s) found@." (List.length tests);
  if tests = [] then begin
    Fmt.pr "nothing to diagnose@.";
    0
  end
  else begin
    let k = match k with Some k -> k | None -> max 1 errors in
    let budget =
      match (budget_seconds, budget_conflicts) with
      | None, None -> None
      | seconds, conflicts -> Some (Core.Budget.create ?conflicts ?seconds ())
    in
    let obs =
      if stats || trace_out <> None then Some (Core.Obs.create ()) else None
    in
    let sim_budget =
      Option.map (fun seconds -> Core.Budget.create ~seconds ()) budget_seconds
    in
    let outcome =
      meth.run
        { golden; faulty; tests; k; max_solutions; budget; sim_budget; obs;
          certify; jobs; heuristic }
    in
    Option.iter
      (fun (o : Core.Outcome.t) -> truncation_notice o.truncated)
      outcome;
    (match injected with
    | [] -> ()
    | errs ->
        Fmt.pr "actual error sites: %a@." (pp_solution faulty)
          (Core.Fault.sites errs));
    (* the trace-written notice must precede the stats block: consumers
       take the *last* output line as the JSON *)
    (match (obs, trace_out) with
    | Some obs, Some file ->
        let tr = Core.Obs.trace obs in
        let oc = open_out file in
        output_string oc
          (Core.Obs.Json.to_string (Core.Obs.Trace.to_chrome_json tr));
        output_char oc '\n';
        close_out oc;
        Fmt.pr "wrote %s (%d trace events)@." file
          (List.length (Core.Obs.Trace.events tr))
    | _ -> ());
    let cert_exit = if certify then certification meth outcome else 0 in
    (if stats then
       match obs with
       | None -> ()
       | Some obs -> Fmt.pr "%s@." (Core.Obs.emit ~times:false obs));
    cert_exit
  end

(* ---------- report ---------- *)

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* engine = the name's prefix up to the first '/' (the whole name when
   there is none) — the convention every instrumented module follows *)
let engine_of name =
  match String.index_opt name '/' with
  | None -> name
  | Some i -> String.sub name 0 i

let report_cmd_run file =
  let module J = Core.Obs.Json in
  (* an unreadable file raises Sys_error, caught by the top-level
     handler (one-line diagnostic, exit 2) *)
  match J.parse (read_file file) with
  | Error msg ->
      Fmt.epr "diagnose: %s is not a stats block: %s@." file msg;
      2
  | Ok json ->
      let obj_of = function Some (J.Obj kvs) -> kvs | _ -> [] in
      let int_of = function
        | Some (J.Int n) -> n
        | Some (J.Float f) -> int_of_float f
        | _ -> 0
      in
      let float_of = function
        | Some (J.Float f) -> f
        | Some (J.Int n) -> float_of_int n
        | _ -> 0.0
      in
      let counters = obj_of (J.member "counters" json) in
      Fmt.pr "== counters (%d) ==@." (List.length counters);
      List.iter
        (fun (name, v) -> Fmt.pr "  %-42s %d@." name (int_of (Some v)))
        counters;
      let hists = obj_of (J.member "histograms" json) in
      Fmt.pr "== histograms (%d) ==@." (List.length hists);
      List.iter
        (fun (name, h) ->
          Fmt.pr "  %s (%d observation(s))@." name
            (int_of (J.member "count" h));
          match J.member "buckets" h with
          | Some (J.Arr buckets) ->
              List.iter
                (function
                  | J.Arr [ J.Int lo; J.Int hi; J.Int count ] ->
                      if hi = max_int then
                        Fmt.pr "    %10d ..        inf  %d@." lo count
                      else Fmt.pr "    %10d .. %10d  %d@." lo hi count
                  | _ -> ())
                buckets
          | _ -> ())
        hists;
      let events = J.member "events" json in
      let items =
        match Option.bind events (J.member "items") with
        | Some (J.Arr items) -> items
        | _ -> []
      in
      Fmt.pr "== events (%d emitted, %d dropped) ==@."
        (int_of (Option.bind events (J.member "emitted")))
        (int_of (Option.bind events (J.member "dropped")));
      let per_engine = Hashtbl.create 8 in
      List.iter
        (fun item ->
          match J.member "name" item with
          | Some (J.String name) ->
              let e = engine_of name in
              Hashtbl.replace per_engine e
                (1 + Option.value ~default:0 (Hashtbl.find_opt per_engine e))
          | _ -> ())
        items;
      Hashtbl.fold (fun e n acc -> (e, n) :: acc) per_engine []
      |> List.sort compare
      |> List.iter (fun (e, n) -> Fmt.pr "  %-42s %d event(s)@." e n);
      (match obj_of (J.member "spans" json) with
      | [] -> ()
      | spans ->
          let totals =
            List.map
              (fun (name, s) ->
                ( name,
                  float_of (J.member "seconds" s),
                  int_of (J.member "calls" s) ))
              spans
            |> List.sort (fun (n1, t1, _) (n2, t2, _) ->
                   match compare t2 t1 with 0 -> compare n1 n2 | c -> c)
          in
          Fmt.pr "== top spans ==@.";
          List.iteri
            (fun i (name, total, calls) ->
              if i < 10 then
                Fmt.pr "  %-42s %.6fs over %d call(s)@." name total calls)
            totals);
      0

(* ---------- report --diff ---------- *)

(* side-by-side comparison of two saved stats blocks with relative
   deltas, for before/after reading of a change (e.g. cold vs warm
   serve stats, or two solver configurations) *)
let report_diff_run file_a file_b =
  let module J = Core.Obs.Json in
  match (J.parse (read_file file_a), J.parse (read_file file_b)) with
  | Error msg, _ ->
      Fmt.epr "diagnose: %s is not a stats block: %s@." file_a msg;
      2
  | _, Error msg ->
      Fmt.epr "diagnose: %s is not a stats block: %s@." file_b msg;
      2
  | Ok a, Ok b ->
      let obj_of = function Some (J.Obj kvs) -> kvs | _ -> [] in
      let int_of = function
        | Some (J.Int n) -> Some n
        | Some (J.Float f) -> Some (int_of_float f)
        | _ -> None
      in
      let cell = function Some n -> string_of_int n | None -> "-" in
      let delta va vb =
        match (va, vb) with
        | Some va, Some vb when va = vb -> "="
        | Some va, Some vb ->
            Printf.sprintf "%+.1f%%"
              (100.0 *. float_of_int (vb - va)
              /. float_of_int (max 1 (abs va)))
        | _ -> "-"
      in
      let row name va vb =
        Fmt.pr "  %-42s %12s %12s  %s@." name (cell va) (cell vb)
          (delta va vb)
      in
      let union rows_a rows_b =
        List.sort_uniq String.compare
          (List.map fst rows_a @ List.map fst rows_b)
      in
      let section title rows_a rows_b =
        Fmt.pr "== %s: %s vs %s ==@." title file_a file_b;
        List.iter
          (fun name ->
            row name
              (List.assoc_opt name rows_a)
              (List.assoc_opt name rows_b))
          (union rows_a rows_b)
      in
      let counters j =
        List.filter_map
          (fun (name, v) -> Option.map (fun n -> (name, n)) (int_of (Some v)))
          (obj_of (J.member "counters" j))
      in
      section "counters" (counters a) (counters b);
      let hist_counts j =
        List.filter_map
          (fun (name, h) ->
            Option.map (fun n -> (name, n)) (int_of (J.member "count" h)))
          (obj_of (J.member "histograms" j))
      in
      section "histogram observations" (hist_counts a) (hist_counts b);
      let event_totals j =
        let events = J.member "events" j in
        List.filter_map
          (fun key ->
            Option.map
              (fun n -> (key, n))
              (int_of (Option.bind events (J.member key))))
          [ "emitted"; "dropped" ]
      in
      section "events" (event_totals a) (event_totals b);
      0

(* ---------- coverage (production test) ---------- *)

let coverage_cmd_run spec scale vectors seed use_atpg jobs =
  let c = load_circuit ~scale spec in
  let faults = Core.Stuck_at.all_faults c in
  Fmt.pr "%a@." Core.Circuit.pp_stats c;
  Fmt.pr "fault universe: %d single stuck-at faults@." (List.length faults);
  if use_atpg then begin
    let r = Core.Atpg.cover_stuck_at c in
    Fmt.pr "ATPG: %d deterministic vectors, %d untestable fault(s)@."
      (List.length r.Core.Atpg.tests)
      (List.length r.Core.Atpg.untestable);
    let testable = List.length faults - List.length r.Core.Atpg.untestable in
    Fmt.pr "coverage: %d/%d testable faults (100%% by construction)@."
      testable testable
  end
  else begin
    let rng = Random.State.make [| seed |] in
    let vecs =
      List.init vectors (fun _ ->
          Array.init (Core.Circuit.num_inputs c) (fun _ ->
              Random.State.bool rng))
    in
    let r = Core.Fault_sim.run ~jobs c ~vectors:vecs ~faults in
    Fmt.pr "random: %d vectors, coverage %.1f%% (%d undetected)@." vectors
      (100.0 *. r.Core.Fault_sim.coverage)
      (List.length r.Core.Fault_sim.undetected)
  end;
  0

(* ---------- export-cnf ---------- *)

let export_cmd_run golden_spec scale errors seed k m out =
  let golden = load_circuit ~scale golden_spec in
  let faulty, _ = Core.Injector.inject ~seed ~num_errors:errors golden in
  let tests =
    Core.Testgen.generate ~seed:(seed + 1) ~max_vectors:(1 lsl 16) ~wanted:m
      ~golden ~faulty
  in
  if tests = [] then begin
    Fmt.epr "no failing tests; nothing to export@.";
    1
  end
  else begin
    let k = match k with Some k -> k | None -> max 1 errors in
    let dimacs = Core.Muxed.export_dimacs ~k faulty tests in
    let oc = open_out out in
    output_string oc dimacs;
    close_out oc;
    Fmt.pr "wrote %s (%d tests, k=%d; DIMACS vars 1..%d are the selects)@."
      out (List.length tests) k
      (Array.length (Core.Circuit.gate_ids faulty));
    0
  end

(* ---------- serve ---------- *)

let serve_cmd_run scale jobs circuit_capacity context_capacity slow_ms
    trace_file =
  (* slow-request records go to stderr as JSON lines — stdout carries
     the framed protocol stream and must stay clean *)
  let log =
    Option.map (fun _ -> Core.Obs.Log.make ~sink:stderr ()) slow_ms
  in
  let server =
    Core.Serve.Server.create ~circuit_capacity ~context_capacity ?slow_ms ?log
      ~trace:(trace_file <> None) ~jobs (load_circuit ~scale)
  in
  let code = Core.Serve.Server.session server stdin stdout in
  (match trace_file with
  | None -> ()
  | Some file ->
      let tr = Core.Obs.trace (Core.Serve.Server.obs server) in
      let oc = open_out file in
      output_string oc
        (Core.Obs.Json.to_string (Core.Obs.Trace.to_chrome_json tr));
      output_char oc '\n';
      close_out oc;
      Fmt.epr "wrote %s (%d trace events)@." file (Core.Obs.Trace.emitted tr));
  code

(* ---------- experiment ---------- *)

let experiment_cmd_run scale max_solutions seconds small =
  let specs =
    if small then Bench_suite.Workload.small_specs ()
    else Bench_suite.Workload.paper_specs ~scale
  in
  let rows =
    List.concat_map
      (fun spec ->
        let prepared = Bench_suite.Workload.prepare spec in
        Bench_suite.Runner.run ~max_solutions ~seconds prepared)
      specs
  in
  Fmt.pr "== Table 2: runtimes (s) ==@.%a@." Bench_suite.Report.pp_table2 rows;
  Fmt.pr "== Table 3: quality ==@.%a@." Bench_suite.Report.pp_table3 rows;
  Fmt.pr "== Figure 6 ==@.%a@." Bench_suite.Report.pp_figure6 rows;
  0

(* ---------- cmdliner plumbing ---------- *)

open Cmdliner

let scale =
  Arg.(value & opt float 1.0 & info [ "scale" ] ~doc:"Scale factor for builtin synthetic circuits")

let circuit_pos =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT"
       ~doc:"A .bench file or builtin name")

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed")

(* an integer argument that must be at least [lo] *)
let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected an integer >= %d, got %S" lo s))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs =
  Arg.(value & opt int 1
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Worker domains for fault simulation, BSIM path \
                 tracing, adaptive vector scoring and the server's \
                 request batches (default 1 = sequential; the answer is \
                 identical at every value)")
let errors = Arg.(value & opt int 1 & info [ "errors"; "p" ] ~doc:"Number of injected errors")

let info_cmd =
  Cmd.v (Cmd.info "info" ~doc:"Print circuit statistics")
    Term.(const info_cmd_run $ circuit_pos $ scale)

let generate_cmd =
  let out = Arg.(required & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output .bench file") in
  Cmd.v (Cmd.info "generate" ~doc:"Write a builtin circuit as .bench")
    Term.(const generate_cmd_run $ circuit_pos $ scale $ out)

let inject_cmd =
  let out = Arg.(required & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output .bench file") in
  Cmd.v (Cmd.info "inject" ~doc:"Inject gate-change errors and write the faulty circuit")
    Term.(const inject_cmd_run $ circuit_pos $ scale $ errors $ seed $ out)

let run_cmd =
  let faulty = Arg.(value & opt (some string) None & info [ "faulty" ] ~docv:"CIRCUIT" ~doc:"Faulty implementation (default: inject errors into CIRCUIT)") in
  let names sep only = String.concat sep (List.filter_map (fun m -> if only m then Some m.name else None) methods) in
  let meth = Arg.(value & opt (enum (List.map (fun m -> (m.name, m)) methods)) (List.find (fun m -> m.name = "bsat") methods) & info [ "method" ] ~doc:(names " | " (fun _ -> true))) in
  let heuristic = Arg.(value & opt (some (enum [ ("bfs", Core.Hitting.Bfs); ("greedy", Core.Hitting.Greedy) ])) None & info [ "heuristic" ] ~doc:"HSDAG expansion order for --method hitting: bfs (minimal cardinality first) or greedy (most frequent conflict element first); rejected for any other --method") in
  let k = Arg.(value & opt (some (int_at_least 1)) None & info [ "k" ] ~doc:"Correction size limit, at least 1 (default: number of injected errors)") in
  let m = Arg.(value & opt int 16 & info [ "tests"; "m" ] ~doc:"Number of failing tests to use") in
  let max_solutions = Arg.(value & opt (int_at_least 0) 1000 & info [ "max-solutions" ] ~doc:"Stop after this many solutions") in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print a JSON block of per-engine solver counters (deterministic under a fixed seed)") in
  let trace = Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc:"Write the run's event trace as Chrome trace_event JSON (open in chrome://tracing or Perfetto)") in
  let budget_seconds = Arg.(value & opt (some float) None & info [ "budget" ] ~docv:"SECONDS" ~doc:"Wall-clock budget; SAT engines stop mid-search and return the truncated-but-valid prefix") in
  let budget_conflicts = Arg.(value & opt (some int) None & info [ "budget-conflicts" ] ~docv:"N" ~doc:"Total solver conflict budget across the enumeration (deterministic)") in
  let certify = Arg.(value & flag & info [ "certify" ] ~doc:("Independently verify every SAT-engine solver answer (" ^ names "/" (fun m -> m.certifies) ^ "): Sat by model evaluation, Unsat by DRUP-checking the solver's proof; exits 3 on a failed check")) in
  Cmd.v (Cmd.info "run" ~doc:"Diagnose a faulty circuit against its golden version")
    Term.(const run_cmd_run $ circuit_pos $ faulty $ scale $ errors $ seed
          $ meth $ heuristic $ k $ m $ max_solutions $ stats $ trace
          $ budget_seconds $ budget_conflicts $ certify $ jobs)

let coverage_cmd =
  let vectors = Arg.(value & opt int 256 & info [ "vectors"; "n" ] ~doc:"Random vectors to grade") in
  let atpg = Arg.(value & flag & info [ "atpg" ] ~doc:"Generate a deterministic test set instead (SAT-based ATPG)") in
  Cmd.v (Cmd.info "coverage" ~doc:"Stuck-at fault simulation / ATPG coverage")
    Term.(const coverage_cmd_run $ circuit_pos $ scale $ vectors $ seed $ atpg
          $ jobs)

let export_cmd =
  let out = Arg.(required & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output DIMACS file") in
  let k = Arg.(value & opt (some (int_at_least 1)) None & info [ "k" ] ~doc:"Correction size limit, at least 1") in
  let m = Arg.(value & opt int 8 & info [ "tests"; "m" ] ~doc:"Number of failing tests") in
  Cmd.v (Cmd.info "export-cnf" ~doc:"Export the BSAT diagnosis instance as DIMACS")
    Term.(const export_cmd_run $ circuit_pos $ scale $ errors $ seed $ k $ m $ out)

let report_cmd =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"STATS.json"
         ~doc:"A stats JSON block (the last line of diagnose run --stats)")
  in
  let diff =
    Arg.(value & opt (some string) None & info [ "diff" ] ~docv:"B.json"
         ~doc:"Render STATS.json and B.json side by side (counters, \
               histogram observation counts, event totals) with relative \
               deltas instead of summarizing one block")
  in
  let dispatch file = function
    | None -> report_cmd_run file
    | Some file_b -> report_diff_run file file_b
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Summarize a stats JSON block (counters, histograms, events, spans) as text")
    Term.(const dispatch $ file $ diff)

let experiment_cmd =
  let max_solutions = Arg.(value & opt int 20000 & info [ "max-solutions" ] ~doc:"Per-run solution cap") in
  let seconds = Arg.(value & opt float 120.0 & info [ "time-limit" ] ~doc:"Per-run time limit (s)") in
  let small = Arg.(value & flag & info [ "small" ] ~doc:"Use the quick structured-circuit workloads") in
  Cmd.v (Cmd.info "experiment" ~doc:"Reproduce the paper's Tables 2/3 and Figure 6")
    Term.(const experiment_cmd_run $ scale $ max_solutions $ seconds $ small)

let serve_cmd =
  let circuits = Arg.(value & opt int 8 & info [ "circuits" ] ~docv:"N" ~doc:"Parsed-netlist cache capacity") in
  let contexts = Arg.(value & opt int 16 & info [ "contexts" ] ~docv:"N" ~doc:"Warm incremental-context cache capacity (evicted contexts are retired)") in
  let slow_ms = Arg.(value & opt (some int) None & info [ "slow-ms" ] ~docv:"N" ~doc:"Log requests with wall latency >= N ms as structured JSON records on stderr (level warn, with the request's measured deltas)") in
  let trace = Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc:"Stitch every request's queue/dispatch/solve spans (tagged with worker domain ids) into one session trace and write it as Chrome trace_event JSON on shutdown") in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve a stream of diagnosis requests with warm pooled \
             incremental solvers (length-prefixed JSON frames on \
             stdin/stdout; ops: load, diagnose, batch, stats, metrics, \
             health, shutdown)")
    Term.(const serve_cmd_run $ scale $ jobs $ circuits $ contexts $ slow_ms
          $ trace)

let exits =
  Cmd.Exit.info 2
    ~doc:"on invalid input: unknown circuit, unreadable or malformed \
          file, or an unrecoverable serve framing error."
  :: Cmd.Exit.info 3 ~doc:"on a failed certification check (run --certify)."
  :: Cmd.Exit.defaults

let main =
  Cmd.group
    (Cmd.info "diagnose" ~version:Core.version ~exits
       ~doc:"Simulation-based and SAT-based circuit diagnosis")
    [ info_cmd; generate_cmd; inject_cmd; run_cmd; report_cmd; coverage_cmd;
      export_cmd; experiment_cmd; serve_cmd ]

(* user-facing errors (unknown circuit, unreadable file, malformed
   input) must exit with a one-line diagnostic and a documented code,
   not escape through cmdliner as a backtrace with exit 125 *)
let () =
  exit
    (try Cmd.eval' ~catch:false main with
    | Failure msg | Sys_error msg | Invalid_argument msg ->
        Fmt.epr "diagnose: %s@." msg;
        2)
