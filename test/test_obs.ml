(* Tests for the telemetry substrate: counter/span semantics, the
   deterministic JSON emission, and the embedded JSON printer/parser
   (round-trip against QCheck-generated trees, rejection of malformed
   input). *)

module J = Obs.Json

(* ---------- counters and spans ---------- *)

let test_counters_basic () =
  let t = Obs.create () in
  let c = Obs.counter t "a" in
  Obs.incr c;
  Obs.incr ~by:4 c;
  Alcotest.(check int) "value" 5 (Obs.value c);
  Alcotest.(check bool) "same name, same counter" true
    (Obs.value (Obs.counter t "a") = 5);
  Obs.add t "b" 7;
  Obs.set t "b" 2;
  Alcotest.(check (list (pair string int)))
    "sorted listing"
    [ ("a", 5); ("b", 2) ]
    (Obs.counters t)

let test_incr_rejects_negative () =
  let t = Obs.create () in
  let c = Obs.counter t "a" in
  Alcotest.(check bool) "negative by rejected" true
    (match Obs.incr ~by:(-1) c with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_spans () =
  let t = Obs.create () in
  Obs.record_span t "phase" 0.25;
  Obs.record_span t "phase" 0.5;
  (match Obs.spans t with
  | [ ("phase", total, 2) ] ->
      Alcotest.(check (float 1e-9)) "accumulated" 0.75 total
  | other -> Alcotest.failf "unexpected spans (%d)" (List.length other));
  let r = Obs.span t "timed" (fun () -> 42) in
  Alcotest.(check int) "span returns the result" 42 r;
  Alcotest.(check int) "two span names" 2 (List.length (Obs.spans t))

let test_reset () =
  (* reset is pristine, not zeroing: the previous request's names must
     not survive into the next request's emission *)
  let t = Obs.create () in
  Obs.add t "a" 3;
  Obs.record_span t "s" 1.0;
  Obs.reset t;
  Alcotest.(check (list (pair string int))) "counter names dropped" []
    (Obs.counters t);
  Alcotest.(check int) "span names dropped" 0 (List.length (Obs.spans t));
  (* the registry is still usable after the reset *)
  Obs.add t "b" 1;
  Alcotest.(check (list (pair string int))) "usable after reset" [ ("b", 1) ]
    (Obs.counters t)

let test_emit_deterministic () =
  let mk () =
    let t = Obs.create () in
    Obs.add t "z/second" 2;
    Obs.add t "a/first" 1;
    Obs.record_span t "wall" 0.123;
    t
  in
  Alcotest.(check string)
    "counters-only emission is stable and sorted"
    {|{"counters":{"a/first":1,"z/second":2},"histograms":{},"events":{"emitted":0,"dropped":0,"items":[]}}|}
    (Obs.emit ~times:false (mk ()));
  Alcotest.(check string) "independent registries agree"
    (Obs.emit ~times:false (mk ()))
    (Obs.emit ~times:false (mk ()))

let test_record_span_rejects_negative () =
  let t = Obs.create () in
  let raises s =
    match Obs.record_span t "x" s with
    | exception Invalid_argument _ -> true
    | () -> false
  in
  Alcotest.(check bool) "negative duration rejected" true (raises (-0.001));
  Alcotest.(check bool) "NaN rejected" true (raises nan);
  Alcotest.(check bool) "zero accepted" false (raises 0.0)

let test_clocks () =
  (* Obs.span must time with the wall clock, not the CPU clock: a sleep
     advances it even though the process burns no CPU *)
  let t = Obs.create () in
  Obs.span t "sleep" (fun () -> Unix.sleepf 0.02);
  (match Obs.spans t with
  | [ ("sleep", total, 1) ] ->
      Alcotest.(check bool) "sleep visible on the wall clock" true
        (total >= 0.015)
  | _ -> Alcotest.fail "expected one span");
  let w0 = Obs.Clock.wall () in
  let w1 = Obs.Clock.wall () in
  Alcotest.(check bool) "wall clock is monotone here" true (w1 >= w0)

(* ---------- histograms ---------- *)

let test_histogram_buckets () =
  List.iter
    (fun (v, b) ->
      Alcotest.(check int)
        (Printf.sprintf "bucket_of %d" v)
        b
        (Obs.Histogram.bucket_of v))
    [ (0, 0); (1, 1); (2, 2); (3, 2); (4, 3); (7, 3); (8, 4); (1023, 10);
      (1024, 11); (max_int, 62) ];
  (* bounds and bucket_of agree on every bucket's edges *)
  for i = 0 to 62 do
    let lo, hi = Obs.Histogram.bounds i in
    Alcotest.(check int) (Printf.sprintf "lo of bucket %d" i) i
      (Obs.Histogram.bucket_of lo);
    Alcotest.(check int) (Printf.sprintf "hi of bucket %d" i) i
      (Obs.Histogram.bucket_of hi)
  done;
  let h = Obs.Histogram.make () in
  List.iter (Obs.Histogram.observe h) [ 0; 1; 1; 3; 8 ];
  Alcotest.(check int) "observations" 5 (Obs.Histogram.observations h);
  Alcotest.(check (list (triple int int int)))
    "non-empty buckets, ascending"
    [ (0, 0, 1); (1, 1, 2); (2, 3, 1); (8, 15, 1) ]
    (Obs.Histogram.buckets h);
  Alcotest.(check bool) "negative observation rejected" true
    (match Obs.Histogram.observe h (-1) with
    | exception Invalid_argument _ -> true
    | () -> false)

let hist_of xs =
  let h = Obs.Histogram.make () in
  List.iter (Obs.Histogram.observe h) xs;
  h

let small_values = QCheck.(list (int_bound 5000))

let prop_histogram_merge_comm =
  QCheck.Test.make ~count:300 ~name:"histogram merge commutes"
    QCheck.(pair small_values small_values)
    (fun (xs, ys) ->
      let a = hist_of xs and b = hist_of ys in
      Obs.Histogram.equal (Obs.Histogram.merge a b) (Obs.Histogram.merge b a))

let prop_histogram_merge_assoc =
  QCheck.Test.make ~count:300 ~name:"histogram merge associates"
    QCheck.(triple small_values small_values small_values)
    (fun (xs, ys, zs) ->
      let a = hist_of xs and b = hist_of ys and c = hist_of zs in
      Obs.Histogram.equal
        (Obs.Histogram.merge (Obs.Histogram.merge a b) c)
        (Obs.Histogram.merge a (Obs.Histogram.merge b c)))

let prop_histogram_merge_concat =
  QCheck.Test.make ~count:300
    ~name:"merge (of xs) (of ys) = of (xs @ ys)"
    QCheck.(pair small_values small_values)
    (fun (xs, ys) ->
      Obs.Histogram.equal
        (Obs.Histogram.merge (hist_of xs) (hist_of ys))
        (hist_of (xs @ ys)))

(* ---------- quantile sketch ---------- *)

let sketch_of xs =
  let s = Obs.Sketch.make () in
  List.iter (Obs.Sketch.observe s) xs;
  s

let test_sketch_basics () =
  let s = Obs.Sketch.make () in
  Alcotest.(check int) "empty count" 0 (Obs.Sketch.count s);
  Alcotest.(check (float 0.0)) "empty quantile" 0.0 (Obs.Sketch.quantile s 0.5);
  Alcotest.(check int) "empty min" 0 (Obs.Sketch.min_value s);
  List.iter (Obs.Sketch.observe s) [ 5; 1; 9; 9 ];
  Alcotest.(check int) "count" 4 (Obs.Sketch.count s);
  Alcotest.(check int) "sum" 24 (Obs.Sketch.sum s);
  Alcotest.(check int) "min" 1 (Obs.Sketch.min_value s);
  Alcotest.(check int) "max" 9 (Obs.Sketch.max_value s);
  Alcotest.(check (float 0.0)) "q=0 is the min" 1.0 (Obs.Sketch.quantile s 0.0);
  Alcotest.(check (float 0.0)) "q=1 is the max" 9.0 (Obs.Sketch.quantile s 1.0);
  Alcotest.(check bool) "negative observation rejected" true
    (match Obs.Sketch.observe s (-1) with
    | exception Invalid_argument _ -> true
    | () -> false);
  (* a single value is every quantile *)
  let one = sketch_of [ 42 ] in
  Alcotest.(check (float 0.0)) "singleton p50" 42.0
    (Obs.Sketch.quantile one 0.5)

(* the accuracy contract: the interpolated estimate lands within one
   bucket width of the exact sorted-array quantile (the sketch walks to
   the same bucket that holds the exact rank-statistic, and both the
   estimate and the exact value lie inside it).  The exact oracle is
   total: on an empty sample every quantile is 0 by the min = max = 0
   convention the sketch documents. *)
let exact_quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0
  else
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    a.(max 0 (rank - 1))

let prop_sketch_oracle =
  QCheck.Test.make ~count:500 ~name:"sketch quantile within one bucket of exact"
    QCheck.(pair (list_of_size Gen.(int_range 0 200) (int_bound 100000))
              (float_bound_inclusive 1.0))
    (fun (xs, q) ->
      let s = sketch_of xs in
      let exact = exact_quantile xs q in
      if xs = [] then Obs.Sketch.quantile s q = 0.0
      else
        let lo, hi = Obs.Histogram.bounds (Obs.Histogram.bucket_of exact) in
        let width = float_of_int (hi - lo + 1) in
        Float.abs (Obs.Sketch.quantile s q -. float_of_int exact) <= width)

let prop_sketch_monotone =
  QCheck.Test.make ~count:500 ~name:"sketch quantile non-decreasing in q"
    QCheck.(triple (list_of_size Gen.(int_range 0 200) (int_bound 100000))
              (float_bound_inclusive 1.0) (float_bound_inclusive 1.0))
    (fun (xs, a, b) ->
      let s = sketch_of xs in
      let q = Obs.Sketch.quantile s in
      q (Float.min a b) <= q (Float.max a b)
      && q 0.5 <= q 0.95
      && q 0.95 <= q 0.99)

let prop_sketch_merge_comm =
  QCheck.Test.make ~count:300 ~name:"sketch merge commutes"
    QCheck.(pair small_values small_values)
    (fun (xs, ys) ->
      let a = sketch_of xs and b = sketch_of ys in
      Obs.Sketch.equal (Obs.Sketch.merge a b) (Obs.Sketch.merge b a))

let prop_sketch_merge_assoc =
  QCheck.Test.make ~count:300 ~name:"sketch merge associates"
    QCheck.(triple small_values small_values small_values)
    (fun (xs, ys, zs) ->
      let a = sketch_of xs and b = sketch_of ys and c = sketch_of zs in
      Obs.Sketch.equal
        (Obs.Sketch.merge (Obs.Sketch.merge a b) c)
        (Obs.Sketch.merge a (Obs.Sketch.merge b c)))

let prop_sketch_merge_concat =
  QCheck.Test.make ~count:300
    ~name:"sketch merge (of xs) (of ys) = of (xs @ ys)"
    QCheck.(pair small_values small_values)
    (fun (xs, ys) ->
      Obs.Sketch.equal
        (Obs.Sketch.merge (sketch_of xs) (sketch_of ys))
        (sketch_of (xs @ ys)))

let test_sketch_json () =
  let j = Obs.Sketch.to_json (sketch_of [ 1; 2; 3 ]) in
  Alcotest.(check string) "deterministic rendering"
    {|{"count":3,"sum":6,"min":1,"max":3,"p50":2.5,"p90":3,"p99":3,"buckets":[[1,1,1],[2,3,2]]}|}
    (J.to_string j)

(* ---------- rolling-window counters ---------- *)

let test_rolling () =
  let r = Obs.Rolling.make ~window:3 in
  Alcotest.(check int) "window" 3 (Obs.Rolling.window r);
  Obs.Rolling.note r ~now:0;
  Obs.Rolling.note ~by:2 r ~now:1;
  Obs.Rolling.note r ~now:2;
  Alcotest.(check int) "all inside the window" 4 (Obs.Rolling.in_window r ~now:2);
  Alcotest.(check (float 1e-9)) "rate" (4.0 /. 3.0) (Obs.Rolling.rate r ~now:2);
  (* at now = 3 the note at t=0 ages out: window is (now - w, now] *)
  Alcotest.(check int) "oldest aged out" 3 (Obs.Rolling.in_window r ~now:3);
  (* a slot is reclaimed when its clock time comes around again *)
  Obs.Rolling.note ~by:5 r ~now:6;
  Alcotest.(check int) "stale slots reclaimed" 5 (Obs.Rolling.in_window r ~now:6);
  Alcotest.(check int) "lifetime total" 9 (Obs.Rolling.total r);
  Alcotest.(check bool) "backwards clock rejected" true
    (match Obs.Rolling.note r ~now:2 with
    | exception Invalid_argument _ -> true
    | () -> false);
  Alcotest.(check bool) "window >= 1 enforced" true
    (match Obs.Rolling.make ~window:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------- structured log ---------- *)

let test_log_ring () =
  let l = Obs.Log.make ~capacity:2 () in
  Obs.Log.log l ~level:Obs.Log.Info "first";
  Obs.Log.log l ~level:Obs.Log.Warn ~req:"7" "second";
  Obs.Log.log l ~level:Obs.Log.Error
    ~payload:(J.Obj [ ("latency_us", J.Int 9) ])
    "third";
  Alcotest.(check int) "emitted" 3 (Obs.Log.emitted l);
  Alcotest.(check int) "dropped" 1 (Obs.Log.dropped l);
  (match Obs.Log.records l with
  | [ a; b ] ->
      Alcotest.(check string) "oldest retained" "second" a.Obs.Log.name;
      Alcotest.(check string) "req carried" "7" a.Obs.Log.req;
      Alcotest.(check int) "seq monotone" 2 b.Obs.Log.seq;
      Alcotest.(check string) "level rendered" "error"
        (Obs.Log.level_string b.Obs.Log.level)
  | other -> Alcotest.failf "expected 2 records, got %d" (List.length other));
  Alcotest.(check string) "untimed JSON deterministic"
    {|{"emitted":3,"dropped":1,"items":[{"seq":1,"level":"warn","req":"7","event":"second","payload":null},{"seq":2,"level":"error","req":"","event":"third","payload":{"latency_us":9}}]}|}
    (J.to_string (Obs.Log.to_json ~times:false l))

let test_log_sink () =
  let path = Filename.temp_file "obs_log" ".jsonl" in
  let oc = open_out path in
  let l = Obs.Log.make ~sink:oc () in
  Obs.Log.log l ~level:Obs.Log.Warn ~req:"42" "serve/slow";
  (* the sink line is flushed at log time, before any close *)
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  close_out oc;
  Sys.remove path;
  match J.parse line with
  | Error e -> Alcotest.failf "sink line does not parse: %s" e
  | Ok j ->
      Alcotest.(check bool) "event name" true
        (J.member "event" j = Some (J.String "serve/slow"));
      Alcotest.(check bool) "ts present on the sink line" true
        (J.member "ts" j <> None)

(* ---------- trace ---------- *)

let test_trace_ring () =
  let t = Obs.create ~trace_capacity:4 () in
  let tr = Obs.trace t in
  Alcotest.(check int) "capacity" 4 (Obs.Trace.capacity tr);
  for i = 0 to 5 do
    Obs.instant t ~payload:i "e"
  done;
  Alcotest.(check int) "emitted counts drops" 6 (Obs.Trace.emitted tr);
  Alcotest.(check int) "dropped" 2 (Obs.Trace.dropped tr);
  let evs = Obs.Trace.events tr in
  Alcotest.(check (list int)) "oldest first, oldest dropped" [ 2; 3; 4; 5 ]
    (List.map (fun e -> e.Obs.tick) evs);
  Alcotest.(check (list int)) "payloads follow" [ 2; 3; 4; 5 ]
    (List.map (fun e -> e.Obs.payload) evs)

let test_trace_phases_in_json () =
  let t = Obs.create () in
  Obs.begin_event t "bsat/solve";
  Obs.instant t ~payload:7 "bsat/tick";
  Obs.end_event t ~payload:3 "bsat/solve";
  Alcotest.(check string) "deterministic event items"
    {|{"counters":{},"histograms":{},"events":{"emitted":3,"dropped":0,"items":[{"tick":0,"name":"bsat/solve","ph":"B","arg":0},{"tick":1,"name":"bsat/tick","ph":"i","arg":7},{"tick":2,"name":"bsat/solve","ph":"E","arg":3}]}}|}
    (Obs.emit ~times:false t);
  (* with times, every item gains a ts field and the block still parses *)
  match J.parse (Obs.emit ~times:true t) with
  | Error e -> Alcotest.failf "timed emission does not parse: %s" e
  | Ok j -> (
      match Option.bind (J.member "events" j) (J.member "items") with
      | Some (J.Arr (item :: _)) ->
          Alcotest.(check bool) "ts present" true (J.member "ts" item <> None)
      | _ -> Alcotest.fail "no event items")

let test_chrome_export () =
  let t = Obs.create () in
  Obs.begin_event t "bsat/solve";
  Obs.end_event t ~payload:2 "bsat/solve";
  Obs.instant t "cov/enumerate";
  let chrome = Obs.Trace.to_chrome_json (Obs.trace t) in
  match J.parse (J.to_string chrome) with
  | Error e -> Alcotest.failf "chrome JSON does not round-trip: %s" e
  | Ok j -> (
      match J.member "traceEvents" j with
      | Some (J.Arr items) ->
          Alcotest.(check int) "one object per retained event" 3
            (List.length items);
          let cat i =
            match J.member "cat" (List.nth items i) with
            | Some (J.String s) -> s
            | _ -> "?"
          in
          Alcotest.(check string) "category = name prefix" "bsat" (cat 0);
          Alcotest.(check string) "category of instant" "cov" (cat 2);
          List.iter
            (fun item ->
              match J.member "ts" item with
              | Some (J.Float ts) ->
                  Alcotest.(check bool) "ts relative to first event" true
                    (ts >= 0.0)
              | Some (J.Int ts) ->
                  Alcotest.(check bool) "ts relative to first event" true
                    (ts >= 0)
              | _ -> Alcotest.fail "event without ts")
            items
      | _ -> Alcotest.fail "no traceEvents array")

let test_trace_drop_marker () =
  (* a ring that dropped events must say so in-band: both exports carry
     an explicit marker record, so a consumer can never mistake a
     truncated trace for a complete one *)
  let t = Obs.create ~trace_capacity:2 () in
  Obs.instant t "a";
  Alcotest.(check bool) "no marker while nothing dropped" true
    (match J.parse (Obs.emit ~times:false t) with
    | Ok j -> (
        match Option.bind (J.member "events" j) (J.member "items") with
        | Some (J.Arr [ item ]) -> J.member "name" item = Some (J.String "a")
        | _ -> false)
    | Error _ -> false);
  Obs.instant t "b";
  Obs.instant t "c";
  Obs.instant t "d";
  (match J.parse (Obs.emit ~times:false t) with
  | Error e -> Alcotest.failf "emission does not parse: %s" e
  | Ok j -> (
      match Option.bind (J.member "events" j) (J.member "items") with
      | Some (J.Arr (marker :: rest)) ->
          Alcotest.(check bool) "marker leads the items" true
            (J.member "name" marker = Some (J.String "obs/dropped"));
          Alcotest.(check bool) "marker carries the count" true
            (J.member "arg" marker = Some (J.Int 2));
          Alcotest.(check bool) "marker tick is out of band" true
            (J.member "tick" marker = Some (J.Int (-1)));
          Alcotest.(check int) "retained events follow" 2 (List.length rest)
      | _ -> Alcotest.fail "no event items"));
  match J.member "traceEvents" (Obs.Trace.to_chrome_json (Obs.trace t)) with
  | Some (J.Arr (marker :: rest)) ->
      Alcotest.(check bool) "chrome marker instant" true
        (J.member "name" marker = Some (J.String "obs/dropped"));
      Alcotest.(check bool) "chrome marker dropped count" true
        (match J.member "args" marker with
        | Some args -> J.member "dropped" args = Some (J.Int 2)
        | None -> false);
      Alcotest.(check int) "chrome retained events follow" 2 (List.length rest)
  | _ -> Alcotest.fail "no chrome traceEvents"

let test_inject_absorb () =
  (* cross-domain stitching: events captured on a worker's registry are
     absorbed into a session registry under the worker's domain id,
     re-ticked into the session's logical clock *)
  let worker = Obs.create () in
  Obs.begin_event worker "incremental/solve";
  Obs.end_event worker ~payload:3 "incremental/solve";
  let session = Obs.create () in
  Obs.instant session "serve/prologue";
  Obs.absorb ~into:session ~domain:2
    (Obs.Trace.events (Obs.trace worker));
  (match Obs.Trace.events (Obs.trace session) with
  | [ pro; b; e ] ->
      Alcotest.(check int) "prologue on the main domain" 0 pro.Obs.domain;
      Alcotest.(check int) "absorbed events tagged" 2 b.Obs.domain;
      Alcotest.(check int) "payload carried" 3 e.Obs.payload;
      Alcotest.(check (list int)) "session ticks are sequential" [ 0; 1; 2 ]
        (List.map (fun ev -> ev.Obs.tick) [ pro; b; e ])
  | other -> Alcotest.failf "expected 3 events, got %d" (List.length other));
  (* the chrome export keys tid off the domain: one track per worker *)
  match J.member "traceEvents" (Obs.Trace.to_chrome_json (Obs.trace session)) with
  | Some (J.Arr items) ->
      let tids =
        List.filter_map (fun it ->
            match J.member "tid" it with Some (J.Int i) -> Some i | _ -> None)
          items
        |> List.sort_uniq compare
      in
      Alcotest.(check (list int)) "distinct tid tracks" [ 1; 3 ] tids
  | _ -> Alcotest.fail "no chrome traceEvents"

let test_reset_clears_new_state () =
  let t = Obs.create () in
  Obs.observe t "h" 3;
  Obs.instant t "e";
  Obs.reset t;
  Alcotest.(check int) "histogram names dropped" 0
    (List.length (Obs.histograms t));
  Alcotest.(check int) "trace cleared" 0 (Obs.Trace.emitted (Obs.trace t));
  (* the logical tick restarts at 0, as in a fresh registry *)
  Obs.instant t "f";
  match Obs.Trace.events (Obs.trace t) with
  | [ e ] -> Alcotest.(check int) "tick restarts" 0 e.Obs.tick
  | _ -> Alcotest.fail "expected one event"

(* the reuse-equals-fresh property per-request registries rely on: fill
   a registry with everything it can hold (counters, spans, histograms,
   an overflowing trace), reset it, replay a workload, and require the
   timed JSON to be byte-identical to a fresh registry under the same
   workload — including the events/emitted/dropped bookkeeping. *)
let test_reset_reuse_equals_fresh () =
  let fill t =
    Obs.add t "stale/counter" 41;
    Obs.record_span t "stale/span" 0.5;
    Obs.observe t "stale/hist" 9;
    (* overflow the ring so dropped > 0 and the tick is far from 0 *)
    for i = 0 to 7 do
      Obs.instant t ~payload:i "stale/event"
    done
  in
  let workload t =
    Obs.add t "req/counter" 2;
    Obs.observe t "req/hist" 3;
    Obs.begin_event t "req/solve";
    Obs.end_event t ~payload:1 "req/solve"
  in
  let reused = Obs.create ~trace_capacity:4 () in
  fill reused;
  Obs.reset reused;
  workload reused;
  let fresh = Obs.create ~trace_capacity:4 () in
  workload fresh;
  Alcotest.(check string) "untimed emission identical"
    (Obs.emit ~times:false fresh)
    (Obs.emit ~times:false reused);
  Alcotest.(check (list (pair string int))) "counters identical"
    (Obs.counters fresh) (Obs.counters reused);
  Alcotest.(check int) "span table empty in both" (List.length (Obs.spans fresh))
    (List.length (Obs.spans reused))

(* registry-level round-trip: a randomly-populated registry's extended
   JSON (counters + histograms + events) survives print |> parse *)
let registry_gen =
  let open QCheck.Gen in
  let name = oneofl [ "bsat/a"; "cov/b"; "sat/c"; "plain" ] in
  let op =
    oneof
      [
        map2 (fun n v -> `Add (n, v)) name (int_range 0 1000);
        map2 (fun n v -> `Observe (n, v)) name (int_range 0 100000);
        map2 (fun n p -> `Event (n, p)) name (int_range 0 50);
      ]
  in
  list_size (int_range 0 40) op

let prop_registry_roundtrip =
  QCheck.Test.make ~count:200 ~name:"registry JSON round-trips"
    (QCheck.make registry_gen)
    (fun ops ->
      let t = Obs.create ~trace_capacity:8 () in
      List.iter
        (function
          | `Add (n, v) -> Obs.add t n v
          | `Observe (n, v) -> Obs.observe t n v
          | `Event (n, p) -> Obs.instant t ~payload:p n)
        ops;
      let s = Obs.emit ~times:false t in
      match J.parse s with
      | Error _ -> false
      | Ok j -> J.to_string j = s)

(* ---------- JSON printer / parser ---------- *)

let test_json_print () =
  let j =
    J.Obj
      [
        ("s", J.String "a\"b\n\t\\");
        ("i", J.Int (-42));
        ("f", J.Float 1.5);
        ("nan", J.Float nan);
        ("arr", J.Arr [ J.Bool true; J.Null ]);
      ]
  in
  Alcotest.(check string) "rendering"
    {|{"s":"a\"b\n\t\\","i":-42,"f":1.5,"nan":null,"arr":[true,null]}|}
    (J.to_string j)

let test_json_parse_ok () =
  let ok s expected =
    match J.parse s with
    | Ok j -> Alcotest.(check string) s (J.to_string expected) (J.to_string j)
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  ok " null " J.Null;
  ok "[1,2.5,-3]" (J.Arr [ J.Int 1; J.Float 2.5; J.Int (-3) ]);
  ok {|{"a":true,"b":[{}]}|}
    (J.Obj [ ("a", J.Bool true); ("b", J.Arr [ J.Obj [] ]) ]);
  ok {|"A\n"|} (J.String "A\n");
  ok "1e3" (J.Float 1000.0)

let test_json_parse_rejects () =
  List.iter
    (fun s ->
      match J.parse s with
      | Ok _ -> Alcotest.failf "accepted malformed %S" s
      | Error _ -> ())
    [
      ""; "{"; "tru"; "[1,]"; {|{"a":}|}; "[1 2]"; "01"; {|{"a":1,}|};
      "nullx"; {|"unterminated|}; "{1:2}";
    ]

let test_json_member () =
  let j = J.Obj [ ("a", J.Int 1) ] in
  Alcotest.(check bool) "present" true (J.member "a" j = Some (J.Int 1));
  Alcotest.(check bool) "absent" true (J.member "b" j = None);
  Alcotest.(check bool) "non-object" true (J.member "a" J.Null = None)

let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun i -> J.Int i) (int_range (-1000000) 1000000);
        map (fun f -> J.Float f) (float_bound_inclusive 1000.0);
        map (fun s -> J.String s) (string_size ~gen:printable (int_range 0 8));
      ]
  in
  let rec tree depth =
    if depth = 0 then scalar
    else
      frequency
        [
          (3, scalar);
          (1, map (fun xs -> J.Arr xs) (list_size (int_range 0 4) (tree (depth - 1))));
          ( 1,
            map
              (fun kvs ->
                (* duplicate keys would not round-trip; make them unique *)
                J.Obj
                  (List.mapi (fun i (k, v) -> (Printf.sprintf "%d_%s" i k, v))
                     kvs))
              (list_size (int_range 0 4)
                 (pair (string_size ~gen:printable (int_range 0 5))
                    (tree (depth - 1)))) );
        ]
  in
  tree 3

let prop_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"print |> parse is the identity"
    (QCheck.make ~print:J.to_string json_gen)
    (fun j ->
      match J.parse (J.to_string j) with
      | Error _ -> false
      | Ok j' -> J.to_string j' = J.to_string j)

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counters" `Quick test_counters_basic;
          Alcotest.test_case "negative incr" `Quick test_incr_rejects_negative;
          Alcotest.test_case "spans" `Quick test_spans;
          Alcotest.test_case "negative span" `Quick
            test_record_span_rejects_negative;
          Alcotest.test_case "clocks" `Quick test_clocks;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "reset clears histograms and trace" `Quick
            test_reset_clears_new_state;
          Alcotest.test_case "reset reuse equals fresh" `Quick
            test_reset_reuse_equals_fresh;
          Alcotest.test_case "deterministic emission" `Quick
            test_emit_deterministic;
        ] );
      ( "histogram",
        [ Alcotest.test_case "buckets" `Quick test_histogram_buckets ] );
      ( "sketch",
        [
          Alcotest.test_case "basics" `Quick test_sketch_basics;
          Alcotest.test_case "JSON rendering" `Quick test_sketch_json;
        ] );
      ( "rolling",
        [ Alcotest.test_case "window semantics" `Quick test_rolling ] );
      ( "log",
        [
          Alcotest.test_case "ring drop accounting" `Quick test_log_ring;
          Alcotest.test_case "sink lines" `Quick test_log_sink;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring buffer" `Quick test_trace_ring;
          Alcotest.test_case "phases in JSON" `Quick test_trace_phases_in_json;
          Alcotest.test_case "chrome export" `Quick test_chrome_export;
          Alcotest.test_case "drop marker" `Quick test_trace_drop_marker;
          Alcotest.test_case "inject and absorb" `Quick test_inject_absorb;
        ] );
      ( "json",
        [
          Alcotest.test_case "printing" `Quick test_json_print;
          Alcotest.test_case "parsing" `Quick test_json_parse_ok;
          Alcotest.test_case "rejects malformed" `Quick test_json_parse_rejects;
          Alcotest.test_case "member" `Quick test_json_member;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
          QCheck_alcotest.to_alcotest prop_histogram_merge_comm;
          QCheck_alcotest.to_alcotest prop_histogram_merge_assoc;
          QCheck_alcotest.to_alcotest prop_histogram_merge_concat;
          QCheck_alcotest.to_alcotest prop_sketch_oracle;
          QCheck_alcotest.to_alcotest prop_sketch_monotone;
          QCheck_alcotest.to_alcotest prop_sketch_merge_comm;
          QCheck_alcotest.to_alcotest prop_sketch_merge_assoc;
          QCheck_alcotest.to_alcotest prop_sketch_merge_concat;
          QCheck_alcotest.to_alcotest prop_registry_roundtrip;
        ] );
    ]
