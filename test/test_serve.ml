(* The serve layer's oracle is the library it wraps: a served response —
   warm contexts included — must equal what direct
   [Diagnosis.Incremental] calls produce for the same request, and a
   batch must be a pure function of the request stream at every [jobs]
   width.  The wire protocol and the LRU cache get direct unit
   coverage. *)

module J = Obs.Json
module P = Serve.Protocol
module Server = Serve.Server

let golden = Netlist.Generators.ripple_carry_adder 6

let resolve = function
  | "rca" -> golden
  | name -> failwith (Printf.sprintf "unknown circuit %S" name)

let req ?id ?faulty ?(errors = 1) ?(seed = 3) ?k ?(tests = 6)
    ?(max_solutions = 1000) ?budget ?(certify = false) ?(stats = false) () =
  {
    P.id;
    circuit = "rca";
    faulty;
    errors;
    seed;
    k;
    tests;
    max_solutions;
    budget;
    certify;
    stats;
  }

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let member name j =
  match J.member name j with
  | Some v -> v
  | None -> Alcotest.failf "missing field %S in %s" name (J.to_string j)

let bool_member name j =
  match member name j with
  | J.Bool b -> b
  | v -> Alcotest.failf "field %S is not a bool: %s" name (J.to_string v)

(* the server reports solutions as gate-name lists; lift the oracle's
   integer solutions the same way for comparison *)
let names_json circuit sols =
  J.to_string
    (J.Arr
       (List.map
          (fun sol ->
            J.Arr
              (List.map
                 (fun g -> J.String circuit.Netlist.Circuit.names.(g))
                 sol))
          sols))

(* the server's own ingredients, replayed by hand (same injection and
   generation calls — see Server's [ensure_faulty]/[gen_tests]) *)
let oracle_faulty ~seed ~errors =
  Sim.Injector.inject ~seed ~num_errors:errors golden

let oracle_tests ~seed ~wanted ~faulty =
  Sim.Testgen.generate ~seed:(seed + 1) ~max_vectors:(1 lsl 16) ~wanted ~golden
    ~faulty

(* ---------- wire protocol ---------- *)

let test_frame_roundtrip () =
  let payloads =
    [ "{}"; "x"; String.make 500 'q'; {|{"op":"stats"}|}; "" ]
  in
  let file = Filename.temp_file "serve_frames" ".txt" in
  let oc = open_out_bin file in
  List.iter (P.write_frame oc) payloads;
  close_out oc;
  let ic = open_in_bin file in
  let back =
    List.map
      (fun expected ->
        match P.read_frame ic with
        | Some payload -> payload
        | None -> Alcotest.failf "premature EOF, wanted %S" expected)
      payloads
  in
  Alcotest.(check (option string)) "stream ends cleanly" None (P.read_frame ic);
  close_in ic;
  Sys.remove file;
  Alcotest.(check (list string)) "payloads survive framing" payloads back

let test_frame_malformed () =
  let expect_framing name text =
    let file = Filename.temp_file "serve_bad" ".txt" in
    let oc = open_out_bin file in
    output_string oc text;
    close_out oc;
    let ic = open_in_bin file in
    (match P.read_frame ic with
    | exception P.Framing _ -> ()
    | Some p -> Alcotest.failf "%s: framed %S instead of failing" name p
    | None -> Alcotest.failf "%s: read EOF instead of failing" name);
    close_in ic;
    Sys.remove file
  in
  expect_framing "non-numeric length" "abc\n{}\n";
  expect_framing "negative length" "-1\n{}\n";
  expect_framing "oversized length" "99999999\nx\n";
  expect_framing "truncated payload" "10\n{}\n";
  expect_framing "missing terminator" "2\n{}X"

let test_parse () =
  (match P.parse {|{"op":"diagnose","circuit":"s27"}|} with
  | Ok (P.Diagnose d) ->
      Alcotest.(check string) "circuit" "s27" d.P.circuit;
      Alcotest.(check int) "default errors" 1 d.P.errors;
      Alcotest.(check int) "default seed" 1 d.P.seed;
      Alcotest.(check int) "default tests" 16 d.P.tests;
      Alcotest.(check int) "default cap" 1000 d.P.max_solutions;
      Alcotest.(check bool) "default certify" false d.P.certify;
      Alcotest.(check bool) "no budget" true (d.P.budget = None)
  | Ok _ -> Alcotest.fail "parsed to a non-diagnose request"
  | Error e -> Alcotest.failf "diagnose did not parse: %s" e);
  let expect_error name payload =
    match P.parse payload with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: parsed instead of failing" name
  in
  expect_error "not JSON" "nonsense";
  expect_error "no op" "{}";
  expect_error "unknown op" {|{"op":"frobnicate"}|};
  expect_error "missing circuit" {|{"op":"diagnose"}|};
  expect_error "typed field" {|{"op":"diagnose","circuit":"s27","tests":"x"}|};
  expect_error "non-diagnose batch member"
    {|{"op":"batch","requests":[{"op":"stats"}]}|}

let test_parse_bounds () =
  let error payload =
    match P.parse payload with
    | Error e -> e
    | Ok _ -> Alcotest.failf "%s parsed instead of failing" payload
  in
  Alcotest.(check string) "k 0" {|field "k" must be at least 1|}
    (error {|{"op":"diagnose","circuit":"s27","k":0}|});
  Alcotest.(check string) "k -1 in a batch" {|field "k" must be at least 1|}
    (error {|{"op":"batch","requests":[{"circuit":"s27","k":-1}]}|});
  Alcotest.(check string) "negative cap"
    {|field "max_solutions" must not be negative|}
    (error {|{"op":"diagnose","circuit":"s27","max_solutions":-1}|});
  match P.parse {|{"op":"diagnose","circuit":"s27","k":1,"max_solutions":0}|} with
  | Ok (P.Diagnose d) ->
      Alcotest.(check (option int)) "k 1" (Some 1) d.P.k;
      Alcotest.(check int) "cap 0" 0 d.P.max_solutions
  | _ -> Alcotest.fail "k 1 with cap 0 did not parse"

(* ---------- LRU cache ---------- *)

let test_cache_lru () =
  let c = Serve.Cache.create ~capacity:2 () in
  Serve.Cache.add c "a" 1;
  Serve.Cache.add c "b" 2;
  Serve.Cache.add c "c" 3;
  Alcotest.(check int) "add never evicts" 3 (Serve.Cache.length c);
  (* the lookup refreshes "a" above "b" *)
  Alcotest.(check (option int)) "find hits" (Some 1) (Serve.Cache.find c "a");
  Alcotest.(check (list (pair string int)))
    "trim evicts the least recent" [ ("b", 2) ] (Serve.Cache.trim c);
  Alcotest.(check bool) "bumped entry kept" true (Serve.Cache.mem c "a");
  Alcotest.(check bool) "fresh entry kept" true (Serve.Cache.mem c "c");
  Serve.Cache.add c "d" 4;
  Alcotest.(check (list (pair string int)))
    "keep shields an entry from trim" [ ("a", 1) ]
    (Serve.Cache.trim ~keep:(fun k -> k = "c") c)

(* ---------- served responses vs direct library use ---------- *)

(* Serve a request sequence exercising every context path — cold, warm
   growth, warm repeat, shrink, warm budget-truncated, warm
   cap-truncated — and check each response against hand-driven
   [Diagnosis.Incremental] calls on the same ingredients.  The whole
   served transcript must also be identical at every server width. *)
let serve_sequence jobs =
  let server = Server.create ~jobs resolve in
  let serve d =
    match Server.handle server (P.Diagnose d) with
    | resp, true -> resp
    | _, false -> Alcotest.fail "diagnose ended the session"
  in
  List.map serve
    [
      req ~tests:6 ();
      req ~tests:10 ();
      req ~tests:10 ();
      req ~tests:4 ();
      req ~tests:10 ~budget:(Sat.Budget.create ~conflicts:0 ()) ();
      req ~tests:10 ~max_solutions:1 ();
    ]

let test_warm_equals_oneshot () =
  let responses = serve_sequence 1 in
  let faulty, injected = oracle_faulty ~seed:3 ~errors:1 in
  Alcotest.(check int) "oracle injects one error" 1 (List.length injected);
  let t6 = oracle_tests ~seed:3 ~wanted:6 ~faulty in
  let t10 = oracle_tests ~seed:3 ~wanted:10 ~faulty in
  let t4 = oracle_tests ~seed:3 ~wanted:4 ~faulty in
  (* the warm context, replayed by hand on the library *)
  let solve ?budget ~max_solutions inc =
    (Diagnosis.Incremental.solutions ~max_solutions ?budget inc)
      .Diagnosis.Incremental.outcome
  in
  let live = Diagnosis.Incremental.create ~k:1 faulty t6 in
  let o1 = (solve ~max_solutions:1000 live).solutions in
  let have = List.length t6 in
  Diagnosis.Incremental.add_tests live
    (List.filteri (fun i _ -> i >= have) t10);
  let o2 = (solve ~max_solutions:1000 live).solutions in
  let o3 = (solve ~max_solutions:1000 live).solutions in
  let r5 =
    solve ~max_solutions:1000 ~budget:(Sat.Budget.create ~conflicts:0 ()) live
  in
  let o5 = r5.solutions and truncated5 = r5.truncated in
  let r6 = solve ~max_solutions:1 live in
  let o6 = r6.solutions and truncated6 = r6.truncated in
  Diagnosis.Incremental.retire live;
  (* fresh cold runs: growth and repetition must not change answers *)
  let cold tests =
    let inc = Diagnosis.Incremental.create ~k:1 faulty tests in
    let sols = (solve ~max_solutions:1000 inc).solutions in
    Diagnosis.Incremental.retire inc;
    sols
  in
  Alcotest.(check string)
    "grown warm context = cold context at 10 tests" (names_json faulty o2)
    (names_json faulty (cold t10));
  let o4 = cold t4 in
  let expect (resp, warm, sols, truncated) =
    Alcotest.(check bool) "response ok" true (bool_member "ok" resp);
    Alcotest.(check bool)
      (Printf.sprintf "warm flag (%s)" (J.to_string (member "warm" resp)))
      warm (bool_member "warm" resp);
    Alcotest.(check string) "served solutions = library solutions"
      (names_json faulty sols)
      (J.to_string (member "solutions" resp));
    Alcotest.(check bool) "truncated flag" truncated
      (bool_member "truncated" resp)
  in
  match responses with
  | [ r1; r2; r3; r4; r5; r6 ] ->
      Alcotest.(check bool) "workload is non-trivial" true (o1 <> []);
      expect (r1, false, o1, false);
      expect (r2, true, o2, false);
      expect (r3, true, o3, false);
      expect (r4, false, o4, false);
      expect (r5, true, o5, truncated5);
      expect (r6, true, o6, truncated6);
      Alcotest.(check bool) "exhausted budget truncates" true truncated5;
      Alcotest.(check bool) "solution cap truncates" true truncated6
  | rs -> Alcotest.failf "expected 6 responses, got %d" (List.length rs)

let test_sequence_jobs_equal () =
  let render rs = List.map J.to_string rs in
  Alcotest.(check (list string))
    "served transcript identical at jobs 1 and 4" (render (serve_sequence 1))
    (render (serve_sequence 4))

let test_batch_jobs_equal () =
  let batch server =
    let requests =
      [
        req ~seed:3 ~stats:true ();
        req ~seed:4 ~stats:true ();
        req ~seed:3 ~tests:10 ~stats:true ();
        req ~seed:5 ~stats:true ();
        req ~seed:4 ~stats:true ();
      ]
    in
    fst (Server.handle server (P.Batch { id = Some (J.Int 1); requests }))
  in
  Alcotest.(check string)
    "batch (with stats) identical at jobs 1 and 4"
    (J.to_string (batch (Server.create ~jobs:1 resolve)))
    (J.to_string (batch (Server.create ~jobs:4 resolve)))

let test_cold_stats_equal_engine () =
  let server = Server.create ~jobs:1 resolve in
  let resp, _ = Server.handle server (P.Diagnose (req ~stats:true ())) in
  let served = J.to_string (member "stats" resp) in
  (* the same request pushed through the engine by hand, on a fresh
     registry — the pooled+reset server registry must not differ *)
  let faulty, _ = oracle_faulty ~seed:3 ~errors:1 in
  let tests = oracle_tests ~seed:3 ~wanted:6 ~faulty in
  let obs = Obs.create () in
  let inc = Diagnosis.Incremental.create ~obs ~k:1 faulty tests in
  ignore (Serve.Engine.run ~obs ~max_solutions:1000 inc);
  Diagnosis.Incremental.retire inc;
  Alcotest.(check string) "served stats block = one-shot engine block"
    (J.to_string (Obs.to_json ~times:false obs)) served

(* ---------- server error paths and bookkeeping ---------- *)

let test_unknown_circuit () =
  let server = Server.create ~jobs:1 resolve in
  let resp, continue =
    Server.handle server (P.Load { id = Some (J.Int 7); circuit = "zzz" })
  in
  Alcotest.(check bool) "session stays alive" true continue;
  Alcotest.(check bool) "not ok" false (bool_member "ok" resp);
  Alcotest.(check (option string))
    "id echoed" (Some "7")
    (Option.map J.to_string (J.member "id" resp));
  (match member "error" resp with
  | J.String msg ->
      Alcotest.(check bool) "error names the circuit" true
        (contains ~sub:"zzz" msg)
  | v -> Alcotest.failf "error field is not a string: %s" (J.to_string v));
  let bad_diagnose, _ =
    Server.handle server (P.Diagnose (req ()))
  in
  ignore bad_diagnose;
  let stats, _ = Server.handle server (P.Stats { id = None }) in
  match (member "served" stats, member "cold_misses" stats) with
  | J.Int served, J.Int cold ->
      Alcotest.(check int) "one request served" 1 served;
      Alcotest.(check int) "one cold miss" 1 cold
  | _ -> Alcotest.fail "stats response malformed"

let test_context_eviction_retires () =
  let server = Server.create ~jobs:1 ~context_capacity:1 resolve in
  let one seed =
    fst (Server.handle server (P.Diagnose (req ~seed ~tests:4 ())))
  in
  ignore (one 3);
  ignore (one 4);
  (* seed-3 context was evicted; a repeat is cold again but still right *)
  let again = one 3 in
  Alcotest.(check bool) "evicted context re-served cold" false
    (bool_member "warm" again);
  Alcotest.(check bool) "re-served response ok" true (bool_member "ok" again);
  let stats, _ = Server.handle server (P.Stats { id = None }) in
  match (member "evictions" stats, member "contexts" stats) with
  | J.Int ev, J.Int n ->
      Alcotest.(check int) "two evictions" 2 ev;
      Alcotest.(check int) "cache back at capacity" 1 n
  | _ -> Alcotest.fail "stats response malformed"

let test_fault_mid_growth_evicts () =
  (* a fault half-way through growing a warm context: the request
     errors, the context is retired and evicted, and the next request
     for the same shape is byte-identical to a cold run *)
  let serve server d = fst (Server.handle server (P.Diagnose d)) in
  let server = Server.create ~jobs:1 resolve in
  ignore (serve server (req ~tests:4 ~stats:true ()));
  Diagnosis.Incremental.fail_next_add_tests ~after:1;
  let failed = serve server (req ~tests:10 ~stats:true ()) in
  Alcotest.(check bool) "faulted request errors" false (bool_member "ok" failed);
  let next = serve server (req ~tests:10 ~stats:true ()) in
  let cold = serve (Server.create ~jobs:1 resolve) (req ~tests:10 ~stats:true ()) in
  Alcotest.(check string) "next request = cold run" (J.to_string cold)
    (J.to_string next);
  let stats, _ = Server.handle server (P.Stats { id = None }) in
  match (member "errors" stats, member "contexts" stats) with
  | J.Int errors, J.Int contexts ->
      Alcotest.(check int) "one error" 1 errors;
      Alcotest.(check int) "one live context" 1 contexts
  | _ -> Alcotest.fail "stats response malformed"

(* ---------- observability: metrics, health, slow log, tracing ---------- *)

let exposition_lines s = String.split_on_char '\n' s |> List.filter (( <> ) "")

(* Prometheus text-format well-formedness: every non-comment line is
   [name{labels} value] with a float-parsable value, and every sample's
   family name was announced by a preceding [# TYPE] header *)
let check_exposition s =
  let announced = Hashtbl.create 16 in
  List.iter
    (fun line ->
      if String.length line > 0 && line.[0] = '#' then (
        match String.split_on_char ' ' line with
        | "#" :: ("HELP" | "TYPE") :: name :: _rest ->
            Hashtbl.replace announced name ()
        | _ -> Alcotest.failf "malformed comment line: %s" line)
      else
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "sample line without a value: %s" line
        | Some i ->
            let name_part = String.sub line 0 i in
            let value = String.sub line (i + 1) (String.length line - i - 1) in
            (match float_of_string_opt value with
            | Some _ -> ()
            | None -> Alcotest.failf "unparsable sample value: %s" line);
            let family =
              match String.index_opt name_part '{' with
              | Some j -> String.sub name_part 0 j
              | None -> name_part
            in
            let strip suffix name =
              if
                String.length name > String.length suffix
                && String.sub name
                     (String.length name - String.length suffix)
                     (String.length suffix)
                   = suffix
              then String.sub name 0 (String.length name - String.length suffix)
              else name
            in
            let base = strip "_sum" (strip "_count" family) in
            if not (Hashtbl.mem announced family || Hashtbl.mem announced base)
            then Alcotest.failf "sample without a # TYPE header: %s" line)
    (exposition_lines s)

let test_metrics_op () =
  let workload server =
    ignore (Server.handle server (P.Diagnose (req ())));
    ignore (Server.handle server (P.Diagnose (req ())));
    match
      Server.handle server (P.Metrics { id = Some (J.Int 9); times = false })
    with
    | resp, true -> resp
    | _, false -> Alcotest.fail "metrics ended the session"
  in
  let resp = workload (Server.create ~jobs:1 resolve) in
  Alcotest.(check bool) "ok" true (bool_member "ok" resp);
  let expo =
    match member "exposition" resp with
    | J.String s -> s
    | v -> Alcotest.failf "exposition is not a string: %s" (J.to_string v)
  in
  check_exposition expo;
  Alcotest.(check bool) "served counter rendered" true
    (contains ~sub:"diagnose_requests_total 2" expo);
  Alcotest.(check bool) "warm hit rendered" true
    (contains ~sub:"diagnose_warm_hits_total 1" expo);
  Alcotest.(check bool) "effort summary quantile rendered" true
    (contains ~sub:{|diagnose_request_conflicts{quantile="0.5"}|} expo);
  Alcotest.(check bool) "untimed exposition has no latency family" false
    (contains ~sub:"diagnose_request_latency_microseconds" expo);
  (* deterministic across fresh servers under the same request stream *)
  let resp' = workload (Server.create ~jobs:1 resolve) in
  Alcotest.(check string) "exposition is reproducible" (J.to_string resp)
    (J.to_string resp');
  (* the timed exposition adds wall-clock families and still validates *)
  let server = Server.create ~jobs:1 resolve in
  ignore (Server.handle server (P.Diagnose (req ())));
  let timed, _ = Server.handle server (P.Metrics { id = None; times = true }) in
  let timed_expo =
    match member "exposition" timed with J.String s -> s | _ -> ""
  in
  check_exposition timed_expo;
  Alcotest.(check bool) "timed exposition has latency summaries" true
    (contains ~sub:"diagnose_request_latency_microseconds" timed_expo);
  Alcotest.(check bool) "timed exposition has rolling rates" true
    (contains ~sub:"diagnose_requests_per_second" timed_expo)

let test_health_op () =
  let server = Server.create ~jobs:1 ~context_capacity:5 resolve in
  ignore (Server.handle server (P.Diagnose (req ())));
  ignore (Server.handle server (P.Load { id = None; circuit = "zzz" }));
  let resp, continue = Server.handle server (P.Health { id = Some (J.Int 3) }) in
  Alcotest.(check bool) "session stays alive" true continue;
  List.iter
    (fun (name, expected) ->
      match member name resp with
      | J.Bool b -> Alcotest.(check bool) name (expected <> 0) b
      | J.Int i -> Alcotest.(check int) name expected i
      | v -> Alcotest.failf "field %S: %s" name (J.to_string v))
    [
      (* the failed load is an error but not a served diagnose *)
      ("ready", 1); ("live", 1); ("in_flight", 0); ("served", 1);
      ("errors", 1); ("contexts", 1); ("context_capacity", 5);
    ]

let test_stats_cache_counters () =
  let server = Server.create ~jobs:1 resolve in
  ignore (Server.handle server (P.Diagnose (req ())));
  ignore (Server.handle server (P.Diagnose (req ())));
  let stats, _ = Server.handle server (P.Stats { id = None }) in
  List.iter
    (fun (name, expected) ->
      match member name stats with
      | J.Int i -> Alcotest.(check int) name expected i
      | v -> Alcotest.failf "field %S: %s" name (J.to_string v))
    [
      (* request 1 misses the context; request 2 hits it and never
         re-resolves the circuit *)
      ("context_misses", 1); ("context_hits", 1); ("context_evictions", 0);
      ("errors", 0);
    ]

let test_slow_log () =
  (* slow_ms = 0: every request is at or above the threshold *)
  let server = Server.create ~jobs:1 ~slow_ms:0 resolve in
  ignore (Server.handle server (P.Diagnose (req ())));
  ignore (Server.handle server (P.Diagnose (req ())));
  let log = Server.slow_log server in
  Alcotest.(check int) "both requests logged" 2 (Obs.Log.emitted log);
  (match Obs.Log.records log with
  | first :: _ ->
      Alcotest.(check string) "level" "warn"
        (Obs.Log.level_string first.Obs.Log.level);
      Alcotest.(check string) "event name" "serve/slow" first.Obs.Log.name;
      Alcotest.(check string) "request correlation id" "0" first.Obs.Log.req;
      Alcotest.(check bool) "payload carries the latency" true
        (J.member "latency_us" first.Obs.Log.payload <> None)
  | [] -> Alcotest.fail "slow log is empty");
  let metrics, _ = Server.handle server (P.Metrics { id = None; times = false }) in
  match member "exposition" metrics with
  | J.String expo ->
      Alcotest.(check bool) "slow counter exported" true
        (contains ~sub:"diagnose_slow_requests_total 2" expo)
  | v -> Alcotest.failf "exposition is not a string: %s" (J.to_string v)

let test_trace_stitching () =
  (* a 2-context batch on 2 workers: the session trace must hold both
     workers' request spans under their own domain ids, stitched in
     request order *)
  let server = Server.create ~jobs:2 ~trace:true resolve in
  let requests = [ req ~seed:3 ~tests:4 (); req ~seed:4 ~tests:4 () ] in
  ignore (Server.handle server (P.Batch { id = None; requests }));
  let events = Obs.Trace.events (Obs.trace (Server.obs server)) in
  let domains =
    List.map (fun e -> e.Obs.domain) events |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "spans from both worker domains" [ 1; 2 ] domains;
  let count name ph =
    List.length
      (List.filter (fun e -> e.Obs.name = name && e.Obs.phase = ph) events)
  in
  Alcotest.(check int) "one request-begin per request" 2
    (count "serve/request" Obs.Begin);
  Alcotest.(check int) "one request-end per request" 2
    (count "serve/request" Obs.End);
  Alcotest.(check int) "queue span per request" 2 (count "serve/queue" Obs.Begin);
  Alcotest.(check bool) "engine events absorbed" true
    (count "incremental/solve" Obs.Begin = 2);
  (* each request's span interval carries its trace id as the payload *)
  let req_payloads =
    List.filter (fun e -> e.Obs.name = "serve/request") events
    |> List.map (fun e -> e.Obs.payload)
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "trace ids as span payloads" [ 0; 1 ] req_payloads;
  (* the chrome export shows one tid track per worker *)
  match
    J.member "traceEvents"
      (Obs.Trace.to_chrome_json (Obs.trace (Server.obs server)))
  with
  | Some (J.Arr items) ->
      let tids =
        List.filter_map
          (fun it ->
            match J.member "tid" it with Some (J.Int i) -> Some i | _ -> None)
          items
        |> List.sort_uniq compare
      in
      Alcotest.(check (list int)) "two tid tracks" [ 2; 3 ] tids
  | _ -> Alcotest.fail "no chrome traceEvents"

let test_sketches_accumulate () =
  let server = Server.create ~jobs:1 resolve in
  ignore (Server.handle server (P.Diagnose (req ())));
  ignore (Server.handle server (P.Diagnose (req ())));
  let sk = Server.sketches server in
  let sketch name =
    match List.assoc_opt name sk with
    | Some s -> s
    | None -> Alcotest.failf "no sketch named %S" name
  in
  Alcotest.(check int) "one cold latency sample" 1
    (Obs.Sketch.count (sketch "latency_cold_us"));
  Alcotest.(check int) "one warm latency sample" 1
    (Obs.Sketch.count (sketch "latency_warm_us"));
  Alcotest.(check int) "gc sketch sees both requests" 2
    (Obs.Sketch.count (sketch "gc_allocated_words"));
  (* effort sketches are logical, hence identical across fresh servers *)
  let other = Server.create ~jobs:1 resolve in
  ignore (Server.handle other (P.Diagnose (req ())));
  ignore (Server.handle other (P.Diagnose (req ())));
  let conflicts s =
    Obs.Sketch.to_json (List.assoc "request_conflicts" (Server.sketches s))
  in
  Alcotest.(check string) "conflict sketch deterministic"
    (J.to_string (conflicts server))
    (J.to_string (conflicts other))

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "malformed frames" `Quick test_frame_malformed;
          Alcotest.test_case "request decoding" `Quick test_parse;
          Alcotest.test_case "k and cap bounds" `Quick test_parse_bounds;
        ] );
      ( "cache",
        [ Alcotest.test_case "deterministic LRU" `Quick test_cache_lru ] );
      ( "differential",
        [
          Alcotest.test_case "served = direct library use" `Quick
            test_warm_equals_oneshot;
          Alcotest.test_case "sequence identical at jobs 1 and 4" `Quick
            test_sequence_jobs_equal;
          Alcotest.test_case "batch identical at jobs 1 and 4" `Quick
            test_batch_jobs_equal;
          Alcotest.test_case "cold served stats = one-shot engine stats"
            `Quick test_cold_stats_equal_engine;
        ] );
      ( "server",
        [
          Alcotest.test_case "unknown circuit" `Quick test_unknown_circuit;
          Alcotest.test_case "eviction retires and re-serves" `Quick
            test_context_eviction_retires;
          Alcotest.test_case "fault mid-growth evicts the context" `Quick
            test_fault_mid_growth_evicts;
        ] );
      ( "observability",
        [
          Alcotest.test_case "metrics op" `Quick test_metrics_op;
          Alcotest.test_case "health op" `Quick test_health_op;
          Alcotest.test_case "stats cache counters" `Quick
            test_stats_cache_counters;
          Alcotest.test_case "slow-request log" `Quick test_slow_log;
          Alcotest.test_case "trace stitching across domains" `Quick
            test_trace_stitching;
          Alcotest.test_case "measurement sketches" `Quick
            test_sketches_accumulate;
        ] );
    ]
