(* The parallel layer's oracle is the sequential engine: every property
   here runs the same workload at jobs = 1 and jobs ∈ {2, 4, ...} and
   demands byte-identical results — solution sets, counters, histograms
   and (where the docs promise it) the whole stats block.  Set PAR_JOBS
   to add a width to every equivalence property (the CI matrix exports
   PAR_JOBS=4). *)

module C = Netlist.Circuit

(* widths every equivalence property is checked at, beyond the
   sequential oracle *)
let widths =
  let extra =
    match Option.bind (Sys.getenv_opt "PAR_JOBS") int_of_string_opt with
    | Some n when n > 1 -> [ n ]
    | _ -> []
  in
  List.sort_uniq Int.compare ([ 2; 4 ] @ extra)

(* ---------- Par primitives ---------- *)

let test_shard_empty () =
  Alcotest.(check (array (list int)))
    "empty list shards to empty shards"
    [| []; []; []; [] |]
    (Par.shard ~shards:4 []);
  Alcotest.(check (list int))
    "interleave of empty shards" []
    (Par.interleave (Par.shard ~shards:4 []))

let test_shard_fewer_items () =
  Alcotest.(check (array (list int)))
    "2 items over 4 shards" [| [ 10 ]; [ 20 ]; []; [] |]
    (Par.shard ~shards:4 [ 10; 20 ])

let test_shard_round_robin () =
  Alcotest.(check (array (list int)))
    "round-robin by index"
    [| [ 0; 3; 6 ]; [ 1; 4 ]; [ 2; 5 ] |]
    (Par.shard ~shards:3 [ 0; 1; 2; 3; 4; 5; 6 ])

let prop_shard_interleave_roundtrip =
  QCheck.Test.make ~count:200 ~name:"interleave (shard xs) = xs"
    QCheck.(pair (int_range 1 9) (small_list int))
    (fun (shards, xs) -> Par.interleave (Par.shard ~shards xs) = xs)

let test_clamp_jobs () =
  Alcotest.(check int) "0 clamps to 1" 1 (Par.clamp_jobs 0);
  Alcotest.(check int) "1 stays 1" 1 (Par.clamp_jobs 1);
  Alcotest.(check int) "7 stays 7" 7 (Par.clamp_jobs 7);
  Alcotest.check_raises "negative raises"
    (Invalid_argument "Par.clamp_jobs: negative jobs") (fun () ->
      ignore (Par.clamp_jobs (-3)))

let test_worker_of () =
  (* worker_of is the round-robin contract shard/map schedule by — the
     server uses it to tag trace spans with the executing domain *)
  Alcotest.(check (list int))
    "item index to worker, round robin" [ 0; 1; 2; 0; 1; 2; 0 ]
    (List.map (fun i -> Par.worker_of ~jobs:3 i) [ 0; 1; 2; 3; 4; 5; 6 ]);
  Alcotest.(check int) "jobs clamps like clamp_jobs" 0
    (Par.worker_of ~jobs:0 5);
  Alcotest.(check bool) "negative index rejected" true
    (match Par.worker_of ~jobs:2 (-1) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* agreement with shard: item i lands in the shard worker_of names *)
  let shards = Par.shard ~shards:3 [ 0; 1; 2; 3; 4; 5; 6 ] in
  Array.iteri
    (fun w items ->
      List.iter
        (fun i ->
          Alcotest.(check int)
            (Printf.sprintf "shard of item %d" i)
            w
            (Par.worker_of ~jobs:3 i))
        items)
    shards

let test_run_order_and_width () =
  Alcotest.(check (array int))
    "workers see their own index" [| 0; 10; 20; 30 |]
    (Par.run ~jobs:4 (fun w -> w * 10));
  Alcotest.(check (list string))
    "map preserves item order"
    [ "a!"; "b!"; "c!"; "d!"; "e!" ]
    (Par.map ~jobs:3 (fun s -> s ^ "!") [ "a"; "b"; "c"; "d"; "e" ])

exception Boom of int

let test_run_reraises_lowest_worker () =
  (* workers 1 and 3 both fail; the lowest-numbered failure wins, and
     every domain is joined first *)
  let joined = Atomic.make 0 in
  (try
     ignore
       (Par.run ~jobs:4 (fun w ->
            Atomic.incr joined;
            if w = 1 || w = 3 then raise (Boom w)))
   with Boom w -> Alcotest.(check int) "lowest failing worker" 1 w);
  Alcotest.(check int) "all workers ran" 4 (Atomic.get joined)

(* ---------- Budget under concurrent charging ---------- *)

let test_budget_concurrent_charge () =
  (* two domains each charge 10_000 single conflicts against a 50_000
     allowance: interleavings must never lose a count *)
  let b = Sat.Budget.create ~conflicts:50_000 ~propagations:50_000 () in
  ignore
    (Par.run ~jobs:2 (fun _ ->
         for _ = 1 to 10_000 do
           Sat.Budget.charge b ~conflicts:1 ~propagations:2
         done));
  Alcotest.(check int) "conflicts counted exactly" 30_000
    (Sat.Budget.conflicts_left b);
  Alcotest.(check int) "propagations counted exactly" 10_000
    (Sat.Budget.propagations_left b);
  Alcotest.(check bool) "not exhausted" false (Sat.Budget.exhausted b)

let test_budget_concurrent_clamp () =
  (* overcharging from two domains must clamp at zero, not wrap *)
  let b = Sat.Budget.create ~conflicts:5_000 () in
  ignore
    (Par.run ~jobs:2 (fun _ ->
         for _ = 1 to 10_000 do
           Sat.Budget.charge b ~conflicts:1 ~propagations:0
         done));
  Alcotest.(check int) "clamped at zero" 0 (Sat.Budget.conflicts_left b);
  Alcotest.(check bool) "exhausted" true (Sat.Budget.exhausted b);
  Alcotest.(check int) "unlimited dimension untouched" max_int
    (Sat.Budget.propagations_left b)

(* ---------- shared random workloads ---------- *)

let workload_gen =
  QCheck.make
    ~print:(fun (seed, ni, ng, p) ->
      Printf.sprintf "seed=%d ni=%d ng=%d p=%d" seed ni ng p)
    QCheck.Gen.(
      quad (int_range 0 5000) (int_range 3 8) (int_range 8 50) (int_range 1 2))

let make_workload (seed, ni, ng, p) =
  let golden =
    Netlist.Generators.random_dag ~seed ~num_inputs:ni ~num_gates:ng
      ~num_outputs:(max 2 (ni / 2)) ()
  in
  let faulty, _ = Sim.Injector.inject ~seed:(seed + 1) ~num_errors:p golden in
  let tests =
    Sim.Testgen.generate ~seed:(seed + 2) ~max_vectors:1024 ~wanted:6 ~golden
      ~faulty
  in
  (faulty, tests, p)

let stats_string obs = Obs.emit ~times:false obs

(* ---------- engine equivalence: jobs = 1 is the oracle ---------- *)

let prop_bsim_equivalent =
  QCheck.Test.make ~count:30 ~name:"BSIM: jobs>1 result and stats = jobs=1"
    workload_gen
    (fun params ->
      let faulty, tests, _ = make_workload params in
      QCheck.assume (tests <> []);
      let obs1 = Obs.create () in
      let r1 = Diagnosis.Bsim.diagnose ~obs:obs1 ~jobs:1 faulty tests in
      List.for_all
        (fun jobs ->
          let obsn = Obs.create () in
          let rn = Diagnosis.Bsim.diagnose ~obs:obsn ~jobs faulty tests in
          rn.Diagnosis.Bsim.candidate_sets = r1.Diagnosis.Bsim.candidate_sets
          && rn.Diagnosis.Bsim.marks = r1.Diagnosis.Bsim.marks
          && rn.Diagnosis.Bsim.union = r1.Diagnosis.Bsim.union
          && rn.Diagnosis.Bsim.gmax = r1.Diagnosis.Bsim.gmax
          && rn.Diagnosis.Bsim.max_marks = r1.Diagnosis.Bsim.max_marks
          && stats_string obsn = stats_string obs1)
        widths)

let prop_cov_equivalent =
  QCheck.Test.make ~count:30 ~name:"COV: jobs>1 solutions and stats = jobs=1"
    workload_gen
    (fun params ->
      let faulty, tests, p = make_workload params in
      QCheck.assume (tests <> []);
      let obs1 = Obs.create () in
      let r1 = Diagnosis.Cover.diagnose ~obs:obs1 ~jobs:1 ~k:p faulty tests in
      List.for_all
        (fun jobs ->
          let obsn = Obs.create () in
          let rn =
            Diagnosis.Cover.diagnose ~obs:obsn ~jobs ~k:p faulty tests
          in
          rn.Diagnosis.Cover.solutions = r1.Diagnosis.Cover.solutions
          && rn.Diagnosis.Cover.truncated = r1.Diagnosis.Cover.truncated
          && stats_string obsn = stats_string obs1)
        widths)

let prop_hybrid_repair_equivalent =
  QCheck.Test.make ~count:15
    ~name:"hybrid cov_seed and repair: jobs>1 = jobs=1"
    workload_gen
    (fun params ->
      let faulty, tests, p = make_workload params in
      QCheck.assume (tests <> []);
      let run jobs =
        let cov = Diagnosis.Hybrid.cov_seed ~jobs ~k:p faulty tests in
        let repair =
          match cov.Diagnosis.Cover.solutions with
          | [] -> None
          | seed :: _ ->
              let r = Diagnosis.Hybrid.repair ~jobs ~k:p ~seed faulty tests in
              Some (r.Diagnosis.Hybrid.repaired, r.outcome.truncated)
        in
        (cov.Diagnosis.Cover.solutions, cov.truncated, repair)
      in
      let r1 = run 1 in
      List.for_all (fun jobs -> run jobs = r1) widths)

let prop_adaptive_equivalent =
  QCheck.Test.make ~count:8
    ~name:"adaptive: committed test sequence and verdict = jobs=1"
    workload_gen
    (fun (seed, ni, ng, p) ->
      (* adaptive needs the golden reference, so rebuild the workload
         rather than going through make_workload *)
      let golden =
        Netlist.Generators.random_dag ~seed ~num_inputs:ni ~num_gates:ng
          ~num_outputs:(max 2 (ni / 2)) ()
      in
      let faulty, _ =
        Sim.Injector.inject ~seed:(seed + 1) ~num_errors:p golden
      in
      let tests =
        Sim.Testgen.generate ~seed:(seed + 2) ~max_vectors:1024 ~wanted:6
          ~golden ~faulty
      in
      QCheck.assume (tests <> []);
      let round_key rd =
        ( rd.Diagnosis.Adaptive.vector,
          rd.Diagnosis.Adaptive.killed,
          rd.Diagnosis.Adaptive.survivors_after )
      in
      let r1 = Diagnosis.Adaptive.diagnose ~jobs:1 ~k:p ~golden faulty tests in
      List.for_all
        (fun jobs ->
          let rn =
            Diagnosis.Adaptive.diagnose ~jobs ~k:p ~golden faulty tests
          in
          rn.Diagnosis.Adaptive.outcome.solutions = r1.Diagnosis.Adaptive.outcome.solutions
          && rn.Diagnosis.Adaptive.verdict = r1.Diagnosis.Adaptive.verdict
          && List.map round_key rn.Diagnosis.Adaptive.rounds
             = List.map round_key r1.Diagnosis.Adaptive.rounds
          && rn.Diagnosis.Adaptive.tests_committed
             = r1.Diagnosis.Adaptive.tests_committed
          && rn.Diagnosis.Adaptive.twin_calls
             = r1.Diagnosis.Adaptive.twin_calls)
        widths)

(* ---------- fault simulation ---------- *)

let prop_fault_sim_equivalent =
  QCheck.Test.make ~count:40
    ~name:"fault sim: sharded run = sequential (both drop modes)"
    workload_gen
    (fun (seed, ni, ng, _) ->
      let c =
        Netlist.Generators.random_dag ~seed ~num_inputs:ni ~num_gates:ng
          ~num_outputs:(max 2 (ni / 2)) ()
      in
      let rng = Random.State.make [| seed + 7 |] in
      let vectors =
        List.init 96 (fun _ ->
            Array.init (C.num_inputs c) (fun _ -> Random.State.bool rng))
      in
      let faults = Sim.Stuck_at.all_faults c in
      List.for_all
        (fun drop ->
          let obs1 = Obs.create () in
          let r1 = Sim.Fault_sim.run ~drop ~obs:obs1 ~jobs:1 c ~vectors ~faults in
          List.for_all
            (fun jobs ->
              let obsn = Obs.create () in
              let rn =
                Sim.Fault_sim.run ~drop ~obs:obsn ~jobs c ~vectors ~faults
              in
              rn.Sim.Fault_sim.detected = r1.Sim.Fault_sim.detected
              && rn.Sim.Fault_sim.undetected = r1.Sim.Fault_sim.undetected
              && rn.Sim.Fault_sim.coverage = r1.Sim.Fault_sim.coverage
              && stats_string obsn = stats_string obs1)
            widths)
        [ true; false ])

(* ---------- timing ---------- *)

(* Reported engine times come from the wall clock at every width: process
   CPU time sums over the domains, so while other domains run (BSIM's
   tracing domains, or any busy domain beside a one-domain run) it could
   exceed the elapsed time of the call. *)
let timing_workload () =
  let golden =
    Netlist.Generators.random_dag ~seed:11 ~num_inputs:12 ~num_gates:200
      ~num_outputs:6 ()
  in
  let faulty, _ = Sim.Injector.inject ~seed:12 ~num_errors:3 golden in
  let tests =
    Sim.Testgen.generate ~seed:13 ~max_vectors:4096 ~wanted:16 ~golden ~faulty
  in
  (faulty, tests)

let check_times_within_wall name run =
  let t0 = Obs.Clock.wall () in
  let times = run () in
  let wall = Obs.Clock.wall () -. t0 in
  List.iter
    (fun (field, t) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s %s %.4fs <= wall %.4fs" name field t wall)
        true
        (t >= 0.0 && t <= wall))
    (List.combine [ "cnf_time"; "one_time"; "all_time" ] times)

let cover_times r =
  Diagnosis.Cover.[ r.cnf_time; r.one_time; r.all_time ]

let test_cover_times_within_wall () =
  let faulty, tests = timing_workload () in
  check_times_within_wall "cov" (fun () ->
      cover_times (Diagnosis.Cover.diagnose ~jobs:4 ~k:4 faulty tests))

let test_times_within_wall_beside_busy_domain () =
  let faulty, tests = timing_workload () in
  let stop = Atomic.make false in
  let spinner =
    Domain.spawn (fun () ->
        let n = ref 0 in
        while not (Atomic.get stop) do
          incr n
        done;
        !n)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      ignore (Domain.join spinner))
    (fun () ->
      check_times_within_wall "bsat" (fun () ->
          let r = Diagnosis.Bsat.diagnose ~k:2 faulty tests in
          Diagnosis.Bsat.[ r.cnf_time; r.one_time; r.all_time ]);
      check_times_within_wall "cov" (fun () ->
          cover_times (Diagnosis.Cover.diagnose ~jobs:1 ~k:4 faulty tests)))

(* ---------- serve observability across widths ---------- *)

(* The server's logical observability — the stats op (cache counters
   included), the untimed metrics exposition and its sketch-derived
   effort summaries — must be byte-identical at every jobs width, like
   the response transcript it describes. *)
let test_serve_metrics_jobs_equal () =
  let golden = Netlist.Generators.ripple_carry_adder 6 in
  let resolve = function
    | "rca" -> golden
    | name -> failwith (Printf.sprintf "unknown circuit %S" name)
  in
  let diagnose ~seed ~tests =
    {
      Serve.Protocol.id = None;
      circuit = "rca";
      faulty = None;
      errors = 1;
      seed;
      k = None;
      tests;
      max_solutions = 1000;
      budget = None;
      certify = false;
      stats = true;
    }
  in
  let observe jobs =
    let server = Serve.Server.create ~jobs resolve in
    let requests =
      [
        diagnose ~seed:3 ~tests:4; diagnose ~seed:4 ~tests:4;
        diagnose ~seed:5 ~tests:4; diagnose ~seed:3 ~tests:6;
      ]
    in
    let batch, _ =
      Serve.Server.handle server
        (Serve.Protocol.Batch { id = Some (Obs.Json.Int 1); requests })
    in
    let stats, _ =
      Serve.Server.handle server (Serve.Protocol.Stats { id = None })
    in
    let metrics, _ =
      Serve.Server.handle server
        (Serve.Protocol.Metrics { id = None; times = false })
    in
    ( Obs.Json.to_string batch,
      Obs.Json.to_string stats,
      Obs.Json.to_string metrics )
  in
  let b1, s1, m1 = observe 1 in
  List.iter
    (fun jobs ->
      let b, s, m = observe jobs in
      Alcotest.(check string)
        (Printf.sprintf "batch transcript at jobs %d" jobs)
        b1 b;
      Alcotest.(check string)
        (Printf.sprintf "stats (cache counters) at jobs %d" jobs)
        s1 s;
      Alcotest.(check string)
        (Printf.sprintf "metrics exposition at jobs %d" jobs)
        m1 m)
    widths

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "par"
    [
      ( "primitives",
        [
          Alcotest.test_case "shard: empty list" `Quick test_shard_empty;
          Alcotest.test_case "shard: fewer items than shards" `Quick
            test_shard_fewer_items;
          Alcotest.test_case "shard: round-robin layout" `Quick
            test_shard_round_robin;
          Alcotest.test_case "clamp_jobs" `Quick test_clamp_jobs;
          Alcotest.test_case "worker_of round robin" `Quick test_worker_of;
          Alcotest.test_case "run/map order" `Quick test_run_order_and_width;
          Alcotest.test_case "run re-raises lowest worker" `Quick
            test_run_reraises_lowest_worker;
        ]
        @ q [ prop_shard_interleave_roundtrip ] );
      ( "budget",
        [
          Alcotest.test_case "concurrent charge is exact" `Quick
            test_budget_concurrent_charge;
          Alcotest.test_case "concurrent overcharge clamps at zero" `Quick
            test_budget_concurrent_clamp;
        ] );
      ( "engine equivalence",
        q
          [
            prop_bsim_equivalent;
            prop_cov_equivalent;
            prop_hybrid_repair_equivalent;
            prop_adaptive_equivalent;
          ] );
      ( "fault sim",
        q [ prop_fault_sim_equivalent ] );
      ( "timing",
        [
          Alcotest.test_case "COV times within the wall clock at jobs 4"
            `Quick test_cover_times_within_wall;
          Alcotest.test_case
            "BSAT and COV times within the wall clock at jobs 1 beside a busy \
             domain"
            `Quick test_times_within_wall_beside_busy_domain;
        ] );
      ( "serve observability",
        [
          Alcotest.test_case "stats and metrics width-invariant" `Quick
            test_serve_metrics_jobs_equal;
        ] );
    ]
